"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a list of operations; one operation is one library call: one
`enum_S` instance, one `exchange_step` or one `proposition_driver`.  The
seed only chooses among inputs of about equal cost, so that the spread
between seeds measures the program and not the draw.

This module imports no `isocount` code at import time: `build` does, so
that timing `build` times the set-up a user pays (import plus inputs).
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("count", "skew", "window", "exchange", "chain")

# One line per workload: why it is in the benchmark (copied into BENCHMARK.json).
WHY = {
    "count": "exact int fast path on diagonal forms: DFS, numpy filter, leaf Smith form and post-hoc verify carry the time",
    "skew": "GL3(Z) conjugates of I3 send the walk onto the Fraction path, where the norm-vector walk dominates; count must be 1728",
    "window": "error-term regime M=4: the only workload where radical thresholds and certified interval signs run",
    "exchange": "exchange_step(I3, L=3, D=1) at 2 workers: the process pool and the second membership pass against Q'",
    "chain": "proposition_driver(I3, 3, 1, 1) at 1 worker: cache misses, nested kernel intersections and per-pair verdicts",
}

WORKERS = {"count": 1, "skew": 1, "window": 1, "exchange": 2, "chain": 1}

# |S(I3, 27, 27)|.  The count is invariant under Q -> U^T Q U for U in
# GL3(Z), so every skew instance must give it, whatever the code does.
GL_INVARIANT_COUNT = 1728

COUNT_ANCHOR = ("I3", 125)
COUNT_SIZES = (81, 121, 125, 169)
COUNT_HALVES = ((81, 121), (125, 169))
WINDOW_POOL = (("I3", 7), ("I3", 9), ("I3", 11), ("diag112", 9))
WINDOW_M = 4
SKEW_SIZE = 27

BASE_FORMS = {"I3": (1, 1, 1), "diag112": (1, 1, 2)}


@dataclass(frozen=True)
class Op:
    """One library call and how to check its output."""

    key: str  # names the frozen expectation in expected.json
    call: Callable[[], object]
    digest: Callable[[object], dict]  # result -> mathematical content
    oracle: dict | None = None  # code-independent values the digest must hold


def diagonal_form(diag):
    return [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]


def signed_permutation_conjugate(form, rng):
    """P^T form P for a random signed permutation P.  Counts in both regimes
    are invariant: the entrywise error window is only permuted."""
    perm = list(range(3))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return [[signs[i] * signs[j] * form[perm[i]][perm[j]] for j in range(3)] for i in range(3)]


def elementary_conjugate(ops):
    """U^T U, where U applies the column operations col_j += s * col_i in order."""
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, s in ops:
        for r in range(3):
            u[r][j] += s * u[r][i]
    return [[sum(u[k][i] * u[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def skew_forms(rng):
    """Three conjugates U^T I3 U, U the cyclic column operations
    i -> j, j -> k, k -> i with signs of product -1.  The cost of the walk
    depends mostly on k, so each pass holds one conjugate per k; the seed
    picks the order of (i, j), the signs and the order of the pass."""
    forms = []
    for k in range(3):
        i, j = rng.sample([x for x in range(3) if x != k], 2)
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        forms.append(elementary_conjugate([(i, j, s1), (j, k, s2), (k, i, -s1 * s2)]))
    rng.shuffle(forms)
    return forms


def plan(workload, seed):
    """The workload's inputs as plain data: (key, form, a, M) per instance,
    or the fixed call for exchange and chain.  Same seed, same plan."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "count":
        # The seed picks which half of the sizes runs on I3; diag(1,1,2)
        # takes the other half.  Both picks cost the same to within 1%.
        on_i3 = set(rng.choice(COUNT_HALVES))
        pool = [("I3" if a in on_i3 else "diag112", a) for a in COUNT_SIZES]
        rng.shuffle(pool)
        return [("%s/a=%d" % (name, a), diagonal_form(BASE_FORMS[name]), a, None)
                for name, a in [COUNT_ANCHOR] + pool]
    if workload == "skew":
        return [("I3/a=%d" % SKEW_SIZE, form, SKEW_SIZE, None) for form in skew_forms(rng)]
    if workload == "window":
        pool = list(WINDOW_POOL)
        rng.shuffle(pool)
        return [("%s/a=%d/M=%d" % (name, a, WINDOW_M),
                 signed_permutation_conjugate(diagonal_form(BASE_FORMS[name]), rng), a, WINDOW_M)
                for name, a in pool]
    if workload == "exchange":
        return [("exchange_step(I3,L=3,D=1)",)]
    if workload == "chain":
        return [("proposition_driver(I3,3,1,1,pair_cap=16)",)]
    raise ValueError("unknown workload %r" % (workload,))


def _count_digest(ss):
    return {"count": ss.count}


def _exchange_digest(report):
    js = report.to_json()
    keys = ("dim_h", "selected_pairs", "q_prime", "den_q_prime", "solution_counts",
            "verified_memberships", "violations")
    return {k: js[k] for k in keys}


def _chain_digest(cert):
    js = cert.to_json()
    keys = ("i", "k", "outer_dims", "inner_dims", "den_q_star", "final_window",
            "prime_set", "verdicts")
    return {k: js[k] for k in keys}


def build(workload, seed):
    """Import isocount and build the workload's operations."""
    from isocount import recursion, xchg
    from isocount.matrices import RationalSymMatrix

    workers = WORKERS[workload]
    if workload == "exchange":
        q = RationalSymMatrix.identity(3)
        return [Op(key=plan(workload, seed)[0][0],
                   call=lambda: xchg.exchange_step(q, 3, 1, workers=workers),
                   digest=_exchange_digest,
                   oracle={"violations": 0})]
    if workload == "chain":
        q = RationalSymMatrix.identity(3)
        return [Op(key=plan(workload, seed)[0][0],
                   call=lambda: recursion.proposition_driver(q, 3, 1, 1, pair_cap=16,
                                                             workers=workers),
                   digest=_chain_digest)]
    oracle = {"count": GL_INVARIANT_COUNT} if workload == "skew" else None
    return [enum_op(key, form, a, big_m, workers, oracle)
            for key, form, a, big_m in plan(workload, seed)]


def enum_op(key, form, a, big_m, workers=1, oracle=None):
    """The operation enum_S(CountingInstance(form, a, b=a, M))."""
    from isocount import enumeration
    from isocount.matrices import RationalSymMatrix

    inst = enumeration.CountingInstance(RationalSymMatrix(form), a=a, b=a, big_m=big_m)
    # enum_S is looked up at call time, so a traced run sees its wrapper
    return Op(key=key, call=lambda: enumeration.enum_S(inst, workers=workers),
              digest=_count_digest, oracle=oracle)


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(op, result, expected):
    """Mismatches between the result and the frozen values (empty if none)."""
    got = json.loads(json.dumps(op.digest(result)))
    problems = []
    want = expected.get(op.key)
    if want is None:
        problems.append("%s: no frozen expectation" % op.key)
    else:
        for name, value in want.items():
            if got.get(name) != value:
                problems.append("%s: %s is %r, frozen %r" % (op.key, name, got.get(name), value))
    for name, value in (op.oracle or {}).items():
        if got.get(name) != value:
            problems.append("%s: %s is %r, must be %r" % (op.key, name, got.get(name), value))
    return problems
