"""Enumeration of lattice vectors of prescribed norm and of the matrix sets
cut out by the near-isometry equation plus determinantal-divisor conditions.

The vector enumerator is one fraction-free integer Fincke-Pohst walk on
den(Q)*Q for every Q: Bareiss rows complete the square in integers, so each
coordinate's range is a closed form in isqrt and floor division, complete
(no misses) and exact without any correction step.  The walk recurses in
Python down to level 2; levels 1 and 0 run as one numpy pass per suffix
whenever one int64 bound per walk holds (a float root with one integer
correction each way stands in for isqrt there), else in Python.  The
matrix enumerator extends column by column, ordering columns by candidate
count, and prunes partial assignments with the pairwise bilinear
condition, the mod-b minor congruence, and the search box; its last two
columns are one numpy pass over every pair of their candidates.  Both
passes visit, count and budget the nodes of the loops they replace, so
stats and budget verdicts do not depend on which path ran.  Every
emitted matrix is re-verified post hoc through an independent code path
(gcd-of-minors determinantal divisors and one congruence gamma^T den(Q)Q
gamma), one matrix at a time by verify_membership.  verify_batch runs
its congruence test on numpy for a whole solution list (the exchange's
second pass and the chain's pair verdicts, whose matrices already passed
Delta_1 and Delta_2 against the same b), in slices of at most
matrices.BATCH, whenever t and the threshold are rational and
matrices.fits_int64 bounds every entry and congruence value; otherwise
it returns None and the caller loops the scalar reference
verify_membership.

The search decides membership in integers only: once per instance,
_entry_bounds turns each entry condition on gamma^T Q gamma into an integer
window [lo_ij, hi_ij] for x^T den(Q)Q y (exact in every regime, certified
floors for the radical thresholds).  Candidate filtering runs on numpy
arrays in every regime: int64 arrays whenever matrices.fits_int64,
computed once from the candidate lists, bounds every dot and minor the
search forms, object arrays of Python integers otherwise, the same code
on both.  Columns with the same diagonal window share one walk within a
call, and the leaf computes only the Smith diagonal.

The verifier's per-instance work is memoized on the instance: its target
t and, in the error regime, the threshold thr as a Fraction when it is
rational (ints and Fractions only, so the instance still pickles).  With
t an integer and thr rational each entry is one integer comparison;
otherwise it is the certified sign in the field of t and thr, built per
call.  Neither comes from the search's windows.

One kind of process parallelism, which changes no output and no budget
verdict, behind both enum_S (one instance) and enum_many (a list): each
task is one slice of a first column, searched and verified post hoc.
The tasks of one call (the count command, a chain level or pair verdict,
an exchange) share one pool, of at most os.cpu_count() processes.
"""

import contextlib
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import iroot
from .errors import DomainError, InternalConsistencyError, ResourceBudgetError
from .matrices import (
    BATCH,
    INT64_MAX,
    IntegerMatrix,
    congruence,
    determinantal_divisor_oracle,
    determinantal_divisors,
    fits_int64,
    int64_stack,
)
from .radicals import RadicalFieldSpec

DEFAULT_BUDGET = 10 ** 8
MAX_ENTRY = 10 ** 7  # the largest search box a walk may open


@dataclass(frozen=True)
class TargetScalar:
    """(a b^(n-1))^(2/n) held exactly: integer when s^2 is a perfect n-th
    power (s = a b^(n-1)), else a symbolic positive real with exact
    comparison against rationals."""

    s: int
    n: int
    rational: Fraction | None

    @classmethod
    def build(cls, s, n):
        root, exact = iroot(s * s, n)
        if exact:
            return cls(s=s, n=n, rational=Fraction(root))
        return cls(s=s, n=n, rational=None)

    @property
    def is_rational(self):
        return self.rational is not None

    def equals_fraction(self, fr):
        fr = Fraction(fr)
        if self.rational is not None:
            return fr == self.rational
        if fr <= 0:
            return False
        return fr ** self.n == self.s * self.s

    def as_field_element(self, spec):
        if self.rational is not None:
            return spec.from_rational(self.rational)
        return spec.power_root(self.s, 2 * (spec.degree // self.n))


class SymbolicSymMatrix:
    """Symmetric matrix with radical-field entries; membership testing only."""

    __slots__ = ("n", "entries", "spec")

    def __init__(self, entries, spec):
        self.entries = tuple(tuple(e for e in row) for row in entries)
        self.n = len(self.entries)
        self.spec = spec

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]


@dataclass(frozen=True)
class CountingInstance:
    """The tuple (Q, a, b, M) with an explicit error constant.

    M = None encodes the exact (no error term) regime.  The target scalar
    t = (a b^(n-1))^(2/n) is carried exactly, as is the error threshold
    error_constant * (a b^(n-1))^((2-M)/n) when M is finite.
    """

    q: object  # RationalSymMatrix or SymbolicSymMatrix
    a: int
    b: int
    big_m: Fraction | None = None
    error_constant: Fraction = Fraction(1)

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise DomainError("need a, b >= 1")
        if self.q.n < 2:
            raise DomainError("need n >= 2: the set is cut out by Delta_2 = b")
        if self.big_m is not None:
            object.__setattr__(self, "big_m", Fraction(self.big_m))
            if self.big_m <= 0:
                raise DomainError("M must be positive or None (= infinity)")
        object.__setattr__(self, "error_constant", Fraction(self.error_constant))
        if self.error_constant <= 0:
            raise DomainError("error_constant must be positive")

    @property
    def n(self):
        return self.q.n

    @property
    def s(self):
        return self.a * self.b ** (self.n - 1)

    @property
    def exact(self):
        return self.big_m is None

    @cached_property
    def target(self):
        return TargetScalar.build(self.s, self.n)

    @cached_property
    def _rational_threshold(self):
        """The error threshold error_constant * s^((2-M)/n) as a Fraction
        when it is rational; None when it is irrational or M is infinite."""
        if self.exact:
            return None
        expo = Fraction(2 - self.big_m, self.n)
        spec = RadicalFieldSpec(expo.denominator, [self.s])
        thr = spec.power_root(self.s, expo.numerator) * self.error_constant
        return thr.rational_value() if thr.is_rational() else None

    def describe(self):
        return {
            "a": self.a,
            "b": self.b,
            "m": "inf" if self.exact else str(self.big_m),
            "error_constant": str(self.error_constant),
            "n": self.n,
        }


@dataclass
class SolutionSet:
    instance: CountingInstance
    matrices: tuple
    stats: dict

    @property
    def count(self):
        return self.stats["count"]


# ---------------------------------------------------------------------------
# norm-vector enumeration (exact Fincke-Pohst)


def enum_norm_vectors(q, t, tol=0):
    """All y in Z^n with |y^T Q y - t| <= tol, sorted lexicographically.

    Complete by construction: the search walks the exact square completion
    of den(Q)Q in integers, so every coordinate range is exact, with the
    overall box also bounded through the rational lower bound on the
    smallest eigenvalue.  ResourceBudgetError when that box is wider than
    MAX_ENTRY or the walk visits more than DEFAULT_BUDGET nodes.
    """
    t = Fraction(t)
    tol = Fraction(tol)
    if tol < 0:
        raise DomainError("tolerance must be nonnegative")
    return _enum_window(q, t - tol, t + tol, DEFAULT_BUDGET, None)


def _bareiss_rows(a):
    """Fraction-free elimination without pivoting on a positive definite
    integer matrix: row k holds m_kj (j >= k) with m_kk = D_(k+1), the
    leading principal minors, and

        y^T A y = sum_k e_k(y)^2 / (D_k D_(k+1)),  e_k(y) = sum_(j>=k) m_kj y_j,

    with D_0 = 1.  The verifier takes its 1x1 and 2x2 minors in closed
    form and only its larger ones through `_int_det`, never through this
    pass."""
    n = len(a)
    m = [list(r) for r in a]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m


def _enum_window(q, lo, hi, budget, counter):
    """All y with lo <= y^T Q y <= hi, sorted; the walk runs on the integer
    identity S y^T den(Q)Q y = sum_k w_k e_k(y)^2 (see _bareiss_rows), with
    S = lcm_k(D_k D_(k+1)) and w_k = S / (D_k D_(k+1)), so every level's
    range is a closed form in integers.

    Levels n-1 .. 2 recurse in Python.  Levels 1 and 0 run as one numpy
    pass per suffix (_last_two_levels) when _walk_fits_int64 holds for the
    walk, else in Python down to level 0; both visit and count the same
    nodes, one per y_1 plus the length of each level-0 range, and charge
    a level-0 range to the budget before building its vectors."""
    if hi < 0:
        return []
    n = q.n
    m = _bareiss_rows(q.tilde.rows)
    minors = [1] + [m[k][k] for k in range(n)]
    # |y_i|^2 <= hi / lambda_min(Q), and lambda_min >= det(Q) / tr(Q)^(n-1)
    # (lambda_max <= tr), which is D_n / (den tr(den Q)^(n-1))
    tr = sum(q.tilde.rows[k][k] for k in range(n))
    box = math.isqrt(q.den * tr ** (n - 1) * Fraction(hi) // minors[n]) + 1
    if box > MAX_ENTRY:
        raise ResourceBudgetError(
            "search box %d exceeds the configured entry bound %d" % (box, MAX_ENTRY)
        )
    scale = math.lcm(*(minors[k] * minors[k + 1] for k in range(n)))
    w = [scale // (minors[k] * minors[k + 1]) for k in range(n)]
    lo = -scale * ((-q.den * Fraction(lo)) // 1)
    hi = scale * ((q.den * Fraction(hi)) // 1)
    batched = n >= 2 and _walk_fits_int64(n, lo, hi, w, m, box)
    out = []
    blocks = [np.empty((0, n), dtype=np.int64)]
    nodes = [0]

    def charge(k):
        nodes[0] += k
        if nodes[0] > budget:
            raise ResourceBudgetError("norm-vector enumeration budget exhausted")

    def descend(i, suffix, partial):
        # suffix holds y_{i+1..n-1}, partial = sum_{k>i} w_k e_k^2, and
        # e_i = b y + c with b = D_(i+1) > 0
        row = m[i]
        c = 0
        for j in range(i + 1, n):
            if row[j]:
                c += row[j] * suffix[j - i - 1]
        b = row[i]
        room = hi - partial
        if room < 0:
            return
        # w e^2 <= room iff |e| <= r, since e is an integer
        r = math.isqrt(room // w[i])
        ys = range(-((c + r) // b), (r - c) // b + 1)
        if i == 1 and batched:
            if ys:
                charge(len(ys))  # one node per y_1, before anything is built
                blocks.append(_last_two_levels(m, w, lo, hi, suffix, partial, ys, charge))
            return
        if i == 0:
            # last coordinate: w e^2 >= lo - partial adds |e| >= r_in
            need = -((partial - lo) // w[0])
            parts = (ys,)
            if need > 0:
                r_in = math.isqrt(need - 1) + 1
                parts = (range(ys.start, (-r_in - c) // b + 1), range(-((c - r_in) // b), ys.stop))
            charge(sum(map(len, parts)))
            for part in parts:
                out.extend((y,) + suffix for y in part)
            return
        for y in ys:
            charge(1)
            e = b * y + c
            descend(i - 1, (y,) + suffix, partial + w[i] * e * e)

    descend(n - 1, (), 0)
    if counter is not None:
        counter[0] += nodes[0]
    if not batched:
        return sorted(out)
    vectors = np.concatenate(blocks)
    # lexsort's last key is its first: sort by y_0, then y_1, ...
    vectors = vectors[np.lexsort(vectors.T[::-1])]
    return list(map(tuple, vectors.tolist()))


def _walk_fits_int64(n, lo, hi, w, m, box):
    """True when the numpy pass over a walk's last two levels forms every
    value exactly in int64 and its float roots are within 1 of the integer
    ones.  With the scaled window [lo, hi], the pass forms the weights w_k,
    the partial sums p (0 <= p <= hi), hi - p, p - lo and the radicands of
    r and r_in (all at most hi + |lo|), the roots and their squares
    (r + 1)^2 < 2^63, and the linear forms b y + c of coordinates |y| < box
    (at most n max|m_kj| box); the ends c +- r add a root to the last."""
    bound = max(hi + abs(lo), *w)
    mmax = max(abs(x) for row in m for x in row)
    return bound < 2 ** 62 and n * mmax * box + math.isqrt(bound) + 2 < 2 ** 62


def _isqrt64(x):
    """floor(sqrt(x)) elementwise for an int64 array 0 <= x < 2^62: the float
    root is within 1 of it there, so one correction each way is exact."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _last_two_levels(m, w, lo, hi, suffix, partial, ys, charge):
    """Levels 1 and 0 of the walk below one suffix y_2.., as rows
    (y_0, y_1, y_2, ..): for each y_1 in ys, e_1 = b_1 y_1 + c_1 and the
    partial sum p = partial + w_1 e_1^2 give the level-0 range |e_0| <= r,
    cut to |e_0| >= r_in where w_0 e_0^2 >= lo - p needs it, exactly as the
    Python level 0 does.  The level-0 nodes are charged before the ranges
    are expanded (np.repeat plus a cumulative offset)."""
    y1 = np.arange(ys.start, ys.stop, dtype=np.int64)
    e1 = m[1][1] * y1 + sum(m[1][j] * y for j, y in enumerate(suffix, 2))
    p = partial + w[1] * (e1 * e1)
    c = m[0][1] * y1 + sum(m[0][j] * y for j, y in enumerate(suffix, 2))
    b = m[0][0]
    r = _isqrt64((hi - p) // w[0])
    start, stop = -((c + r) // b), (r - c) // b + 1
    need = -((p - lo) // w[0])
    ring = need > 0
    r_in = _isqrt64(np.maximum(need - 1, 0)) + 1
    # the range is [start, cut) + [resume, stop), one part without the ring
    cut = np.where(ring, (-r_in - c) // b + 1, stop)
    resume = np.where(ring, -((c - r_in) // b), stop)
    starts = np.concatenate([start, resume])
    lens = np.maximum(np.concatenate([cut - start, stop - resume]), 0)
    total = int(lens.sum())
    charge(total)
    offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    block = np.empty((total, 2 + len(suffix)), dtype=np.int64)
    block[:, 0] = np.repeat(starts, lens) + offsets
    block[:, 1] = np.repeat(np.concatenate([y1, y1]), lens)
    block[:, 2:] = suffix
    return block


@dataclass
class FirstColumnBound:
    count: int
    envelope: float
    constant: Fraction
    m: int
    eps: Fraction

    def holds_exactly(self, n):
        """count <= C * m^(n-2+eps), decided in exact integer arithmetic."""
        v = self.eps.denominator
        lhs = Fraction(self.count) ** v
        rhs = self.constant ** v * Fraction(self.m) ** ((n - 2) * v + self.eps.numerator)
        return lhs <= rhs


def first_column_bound(q, m, eps):
    """Actual count of y with y^T Q y = m^2 next to the envelope C m^(n-2+eps),
    C = 100."""
    if m < 1:
        raise DomainError("m must be >= 1")
    eps = Fraction(eps)
    constant = Fraction(100)
    count = len(enum_norm_vectors(q, Fraction(m * m), 0))
    envelope = float(constant) * float(m) ** (q.n - 2 + float(eps))
    return FirstColumnBound(count=count, envelope=envelope, constant=constant, m=m, eps=eps)


# ---------------------------------------------------------------------------
# membership logic


def verify_membership(instance, gamma):
    """Full definition check through paths independent of the enumerator:
    gcd-of-minors determinantal divisors and one congruence gamma^T R gamma
    with R = den(Q)Q (the entries themselves for a symbolic Q, den = 1)."""
    n = instance.n
    if gamma.n != n:
        return False
    if determinantal_divisor_oracle(gamma.rows, 1) != 1:
        return False
    if determinantal_divisor_oracle(gamma.rows, 2) != instance.b:
        return False
    q = instance.q
    if isinstance(q, SymbolicSymMatrix):
        rows, den = q.entries, 1
    else:
        rows, den = q.tilde.rows, q.den
    g = congruence(rows, gamma.rows)
    accept = _entry_test(instance, den)
    return all(accept(g[i][j], rows[i][j]) for i in range(n) for j in range(i, n))


def verify_batch(instance, gammas):
    """The entry test of verify_membership over a list of matrices, as one
    numpy pass per slice of at most BATCH: the mask of gammas whose gamma^T
    Q gamma is admissible against t Q, or None when the pass cannot decide
    every entry exactly (symbolic Q, irrational t, irrational threshold, a
    gamma of another size, or the int64 bound fails), so the caller runs
    the scalar loop.  Delta_1 and Delta_2 are not checked: the callers'
    matrices passed them against the same b when they were enumerated.

    Same route as the scalar check, nothing from the search: entry (i, j),
    i <= j, of gamma^T R gamma, R = den(Q)Q, is compared with r R_ij for
    t = r."""
    q = instance.q
    t = instance.target
    if isinstance(q, SymbolicSymMatrix) or not t.is_rational:
        return None
    n = instance.n
    if any(gamma.n != n for gamma in gammas):
        return None
    r = int(t.rational)
    rows, den = q.tilde.rows, q.den
    if instance.exact:
        bound = None
    else:
        thr = instance._rational_threshold
        if thr is None:
            return None
        # |v - r w| never exceeds INT64_MAX under the guard, so a larger
        # bound admits every entry, as the exact comparison does
        bound = min(math.floor(thr * den), INT64_MAX)
    rmax = max(abs(x) for row in rows for x in row)
    if not fits_int64(n, 0, rmax, r):  # r R alone leaves int64
        return None
    R = np.array(rows, dtype=np.int64)
    iu, ju = np.triu_indices(n)
    rw = r * R[iu, ju]
    mask = []
    for lo in range(0, len(gammas), BATCH):
        g, gmax = int64_stack(gammas[lo:lo + BATCH])
        if not fits_int64(n, gmax, rmax, r):
            return None
        v = (g.transpose(0, 2, 1) @ R @ g)[:, iu, ju]
        if bound is None:
            ok = (v == rw).all(axis=1)
        else:
            ok = (np.abs(v - rw) <= bound).all(axis=1)
        mask.extend(ok.tolist())
    return mask


def _entry_test(instance, den):
    """accept(v, w): entry (i, j) of gamma^T Q gamma is admissible, given
    v = (gamma^T R gamma)_ij and w = R_ij for R = den Q, i.e. v = t w
    exactly, or |v - t w| <= den thr in the error regime."""
    t = instance.target
    sym = isinstance(instance.q, SymbolicSymMatrix)
    if instance.exact and t.is_rational:
        r = int(t.rational)
        return lambda v, w: v == r * w
    if instance.exact and not sym:
        return lambda v, w: t.equals_fraction(Fraction(v, w)) if w else v == 0
    thr = instance._rational_threshold
    if t.is_rational and thr is not None and not sym:
        # t is an integer (a rational root of s^2 is one) and so is
        # v - t w, so the bound floors
        r, bound = int(t.rational), math.floor(thr * den)
        return lambda v, w: abs(v - r * w) <= bound
    # the field of t (and thr, and a symbolic Q's entries)
    degree = instance.n
    radicands = [instance.s]
    if sym:
        degree = math.lcm(degree, instance.q.spec.degree)
        radicands += instance.q.spec.radicands
    if not instance.exact:
        expo = Fraction(2 - instance.big_m, instance.n)
        degree = math.lcm(degree, expo.denominator)
    spec = RadicalFieldSpec(degree, radicands)
    t_el = t.as_field_element(spec)
    if instance.exact:
        return lambda v, w: not (spec.coerce(v) - t_el * spec.coerce(w))
    bound = spec.power_root(instance.s, int(expo * degree)) * (instance.error_constant * den)
    return lambda v, w: (spec.coerce(v) - t_el * spec.coerce(w)).abs_le(bound)


# ---------------------------------------------------------------------------
# the matrix set enumerator


def _entry_bounds(instance):
    """Integer windows [lo_ij, hi_ij], symmetric in (i, j): entry (i, j) of
    gamma^T Q gamma is admissible iff lo_ij <= x^T den(Q)Q y <= hi_ij for the
    columns x, y of gamma.  lo > hi is an empty window.

    Exact regime: t * Qt_ij at both ends when t is rational; with t
    irrational only Qt_ij = 0 admits a value (zero).  Error regime:
    [ceil(den (t Q_ij - thr)), floor(den (t Q_ij + thr))] by certified
    floors in the field of t and thr.
    """
    t = instance.target
    qt = instance.q.tilde.rows
    if not instance.exact:
        expo = Fraction(2 - instance.big_m, instance.n)
        spec = RadicalFieldSpec(math.lcm(instance.n, expo.denominator), [instance.s])
        t_el = t.as_field_element(spec)
        thr = spec.power_root(instance.s, int(expo * spec.degree))
        thr = thr * (instance.error_constant * instance.q.den)

        def window(v):
            center = t_el * v
            return -(thr - center).floor(), (center + thr).floor()

    elif t.is_rational:
        r = int(t.rational)

        def window(v):
            return r * v, r * v

    else:

        def window(v):
            return (0, 0) if v == 0 else (1, 0)

    win = {v: window(v) for v in {x for row in qt for x in row}}
    return [[win[v] for v in row] for row in qt]


def enum_S(instance, budget=DEFAULT_BUDGET, prune=True, workers=1, force_search=False):
    """Enumerate the full solution set, each matrix verified post hoc.

    budget caps the nodes of each column's walk and of the matrix search
    (ResourceBudgetError past it), whatever the worker count; each walk's
    search box is capped at MAX_ENTRY.  The search runs on int64 arrays
    under the int64 guard and on object arrays past it, with the same
    solutions and stats.  With prune=False the same arrays are walked as
    the whole candidate product with leaf-only checks, the leaves under
    each prefix of n-1 columns in one pass (used by the pruning-soundness
    checks); the output set is identical, only statistics differ.
    force_search runs the search even where an irrational target already
    certifies the set empty.  workers > 1 runs slices of the first column
    over one process pool (_enumerate), with the outcome of workers = 1.
    """
    return _enumerate([instance], budget, workers, prune, force_search)[0]


def enum_many(instances, budget, workers):
    """The SolutionSet of each instance, in input order, as a serial loop
    of enum_S gives it, with the slices of all of them over one pool."""
    return _enumerate(instances, budget, workers, True, False)


def _new_stats():
    return {
        "count": 0,
        "nodes": 0,
        "short_circuit": None,
        "prunes": {"pairwise": 0, "minor": 0, "delta": 0, "window": 0},
        "candidates_per_column": [],
    }


def _enumerate(instances, budget, workers, prune, force_search):
    """The SolutionSet of each instance, in input order, with the matrices,
    stats, budget verdicts and first error of a serial loop at one worker.

    `workers` is capped at os.cpu_count().  The instances are prepared
    (_prepare) largest a b^(n-1) first, ties in input order, each one's
    slices going to _Tasks at once, so they run while the next is
    prepared.  Each instance's slices are merged in input order: their
    node sum is held to the budget and their matrices are sorted.  An
    instance whose preparation raises ends the preparation of those after
    it in input order; those before it still run, and the first failure
    among them wins over its error."""
    workers = min(workers, os.cpu_count() or 1)
    plans, stop, failure = {}, len(instances), None
    with _Tasks(workers) as tasks:
        for i in sorted(range(len(instances)), key=lambda i: (-instances[i].s, i)):
            if i > stop:
                continue
            try:
                ss, slices = _prepare(instances[i], budget, workers, prune, force_search)
            except Exception as exc:
                stop, failure = i, exc
                continue
            plans[i] = ss, [tasks.submit(task) for task in slices]
        for ss, ids in (plans[i] for i in range(stop)):
            found, bad, walked = [], [], ss.stats["nodes"]
            for part, stats, failed in map(tasks.result, ids):
                found.extend(part)
                bad.extend(failed)
                ss.stats["nodes"] += stats["nodes"]
                for kind, k in stats["prunes"].items():
                    ss.stats["prunes"][kind] += k
            # a serial search checks the budget at each node it visits,
            # so a search that visits none raises nothing
            if ss.stats["nodes"] > max(budget, walked):
                raise ResourceBudgetError("matrix enumeration budget exhausted")
            if bad:
                raise InternalConsistencyError(
                    "emitted matrix fails independent re-verification: %r"
                    % (min(bad, key=IntegerMatrix.flat),)
                )
            found.sort(key=IntegerMatrix.flat)
            ss.matrices = tuple(found)
            ss.stats["count"] = len(found)
    if failure is not None:
        raise failure
    return [plans[i][0] for i in range(len(instances))]


def _prepare(instance, budget, workers, prune, force_search):
    """An instance's SolutionSet with the walks' stats, and its search
    tasks: none when an irrational target certifies the set empty, else
    one per slice of the first column (in search order), which is cut into
    `workers` slices when it has at least 4 candidates per worker.  Each
    task may spend what the walks left of the node budget."""
    stats = _new_stats()
    ss = SolutionSet(instance=instance, matrices=(), stats=stats)
    n = instance.n
    symbolic = isinstance(instance.q, SymbolicSymMatrix)
    if instance.exact and not (instance.target.is_rational or symbolic or force_search):
        # exact equation with irrational scale against a rational Q: the
        # diagonal entries alone force emptiness; certified symbolically
        stats["short_circuit"] = "irrational_target"
        return ss, []

    if symbolic:
        raise DomainError("enumeration needs a rational Q; symbolic Q supports membership only")

    bounds = _entry_bounds(instance)
    q, den = instance.q, instance.q.den
    # one walk per distinct diagonal window; each column still pays its
    # walk's nodes, so the counts and budget verdicts are per column
    walks = {}
    cand = []
    for j in range(n):
        window = bounds[j][j]
        if window not in walks:
            counter = [0]
            lo, hi = window
            vectors = _enum_window(q, Fraction(lo, den), Fraction(hi, den), budget, counter)
            walks[window] = vectors, counter[0]
        vectors, nodes = walks[window]
        cand.append(vectors)
        stats["nodes"] += nodes
    stats["candidates_per_column"] = [len(c) for c in cand]

    order = sorted(range(n), key=lambda j: (len(cand[j]), j))
    first, other = cand[order[0]], [cand[j] for j in order[1:]]
    slices = [first]
    if workers > 1 and len(first) >= 4 * workers:
        size = -(-len(first) // workers)
        slices = [first[i:i + size] for i in range(0, len(first), size)]
    left = budget - stats["nodes"]
    return ss, [(instance, bounds, order, [part] + other, left, prune) for part in slices]


def _search_slice(instance, bounds, order, cands, budget, prune):
    """One search task: the matrices with column order[d] from cands[d],
    the search's own stats, and the matrices that verify_membership
    rejects (the caller raises on them once the budget holds, as a serial
    search then verification would).  The pool pickles this function by
    its import path, so it must stay a plain module-level function."""
    stats = _new_stats()
    found = _SearchContext(instance, bounds, cands, stats, budget, prune).run(order)
    return found, stats, [g for g in found if not verify_membership(instance, g)]


class _Tasks(contextlib.AbstractContextManager):
    """The search tasks of one call, each read back by result(id) from the
    id that submit gives.  With workers > 1 the second submission opens
    one pool of `workers` processes, which runs the first task and every
    later one in submission order; else each task runs here when read.
    Leaving the block cancels the tasks not yet started and shuts the pool
    down once the running ones end, each within its node budget."""

    def __init__(self, workers):
        self.workers, self.args, self.futures, self.pool = workers, [], [], None

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def submit(self, task):
        self.args.append(task)
        if self.pool is None and self.workers > 1 and len(self.args) > 1:
            from concurrent.futures import ProcessPoolExecutor
            self.pool = ProcessPoolExecutor(self.workers, initializer=_exit_with_parent)
        if self.pool is not None:
            for args in self.args[len(self.futures):]:
                self.futures.append(self.pool.submit(_search_slice, *args))
        return len(self.args) - 1

    def result(self, i):
        return self.futures[i].result() if self.futures else _search_slice(*self.args[i])


def _exit_with_parent():
    """Pool initializer: a daemon thread ends this worker once the process
    that started the pool is gone (its multiprocessing parent sentinel,
    under every start method), so a run killed by a signal leaves no
    worker blocked on the pool's call queue."""
    import threading
    from multiprocessing import connection, parent_process

    def watch():
        connection.wait([parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class _SearchContext:
    """Depth-first search over the candidate columns.  A pair of columns
    (x at i, y at j) is kept iff lo_ij <= x^T Qt y <= hi_ij and every 2x2
    minor of (x, y) vanishes mod b; the leaf adds the determinantal
    divisors.  Each candidate list is one array of rows for the whole
    search, int64 while fits_int64 bounds every dot and minor the search
    forms and Python ints in an object array past it; the filter keeps rows
    of it, and the last two columns are one pass over all their pairs
    (_last_pair).  With prune=False the same arrays are walked unfiltered,
    and every leaf under one prefix of n-1 columns is tested in one pass
    (_last_column)."""

    def __init__(self, instance, bounds, cands, stats, budget, prune):
        self.inst = instance
        self.bounds = bounds
        self.stats = stats
        self.budget = budget
        self.prune = prune
        n = instance.n
        qt = instance.q.tilde.rows
        self.cands = cands
        self.minor_pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
        self.minor_r, self.minor_s = (list(ix) for ix in zip(*self.minor_pairs))
        # the windows of the pairs, object so that no bound is truncated
        self.pair_lo, self.pair_hi = (
            np.array(ends, dtype=object)
            for ends in zip(*(self.bounds[i][k] for i, k in self.minor_pairs))
        )
        # every dot x^T Qt y the search forms is at most n^2 max|Qt| max|x|^2
        # in absolute value, as is every minor (at most 2 max|x|^2)
        bx = max((abs(v) for c in cands for y in c for v in y), default=0)
        qmax = max(abs(v) for row in qt for v in row)
        self.dtype = np.int64 if fits_int64(n, bx, qmax, 0) else object
        self.np_qt = np.array(qt, dtype=self.dtype)

    def run(self, order):
        """The accepted matrices, with column order[d] taken from cands[d]."""
        n = self.inst.n
        cands = [np.array(c, dtype=self.dtype).reshape(len(c), n) for c in self.cands]
        out = []
        self.dfs(order, 0, {}, cands, out)
        return out

    def dfs(self, order, depth, placed, cands, out):
        n = self.inst.n
        if depth == n - 2 and self.prune:
            self._last_pair(order, placed, cands[depth], cands[n - 1], out)
            return
        if depth == n - 1 and not self.prune:
            self._last_column(order[depth], placed, cands[depth], out)
            return
        j = order[depth]
        for y in map(tuple, cands[depth].tolist()):
            self.stats["nodes"] += 1
            if self.stats["nodes"] > self.budget:
                raise ResourceBudgetError("matrix enumeration budget exhausted")
            new_placed = dict(placed)
            new_placed[j] = y
            if not self.prune:
                self.dfs(order, depth + 1, new_placed, cands, out)
                continue
            # the later columns' lists are filtered against every placed
            # column, so y already agrees with all of them
            new_cands = list(cands)
            for d2 in range(depth + 1, n):
                new_cands[d2] = self._filter(order[d2], j, y, new_cands[d2])
                if not len(new_cands[d2]):
                    self.stats["prunes"]["window"] += 1
                    break
            else:
                self.dfs(order, depth + 1, new_placed, new_cands, out)

    def _filter(self, col, j, y, candidates):
        """The rows of `candidates` (for column `col`) compatible with the
        newly placed y at j."""
        y = np.array(y, dtype=self.dtype)
        dots = candidates @ (self.np_qt @ y)
        lo, hi = self.bounds[col][j]
        kept = candidates[(dots >= lo) & (dots <= hi)]
        self.stats["prunes"]["pairwise"] += len(candidates) - len(kept)
        b = self.inst.b
        if b > 1 and len(kept):
            # the minors x_r y_s - x_s y_r of every kept row x, one per column
            r, s = self.minor_r, self.minor_s
            bad = ((kept[:, s] * y[r] - kept[:, r] * y[s]) % b != 0).any(axis=1)
            self.stats["prunes"]["minor"] += int(bad.sum())
            kept = kept[~bad]
        return kept

    def _last_pair(self, order, placed, xs, ys, out):
        """Depths n-2 and n-1 of dfs as one numpy pass: every row x of xs
        (column order[n-2]) against every row y of ys (column order[n-1]),
        with the filter's test, counters and budget (a node per x and per
        surviving y, a window prune per x with no survivor) and the leaves
        in the order the loops reach them.  A slice of xs makes at most
        max(BATCH, len(ys)) pairs, so a temporary holds at most n^2 entries
        per pair, as one verify_batch slice does per matrix; the dtype
        bounds every dot and minor."""
        n = self.inst.n
        k, j = order[n - 2], order[n - 1]
        lo, hi = self.bounds[j][k]
        b = self.inst.b
        r, s = self.minor_r, self.minor_s
        prunes = self.stats["prunes"]
        qy = self.np_qt @ ys.T
        step = max(1, BATCH // max(1, len(ys)))
        for start in range(0, len(xs), step):
            part = xs[start:start + step]
            dots = part @ qy
            ix, iy = np.nonzero((dots >= lo) & (dots <= hi))
            prunes["pairwise"] += dots.size - len(ix)
            if b > 1 and len(ix):
                x, y = part[ix], ys[iy]
                bad = ((x[:, r] * y[:, s] - x[:, s] * y[:, r]) % b != 0).any(axis=1)
                prunes["minor"] += int(bad.sum())
                ix, iy = ix[~bad], iy[~bad]
            prunes["window"] += int((np.bincount(ix, minlength=len(part)) == 0).sum())
            self.stats["nodes"] += len(part) + len(ix)
            if self.stats["nodes"] > self.budget:
                raise ResourceBudgetError("matrix enumeration budget exhausted")
            for x, y in zip(part[ix].tolist(), ys[iy].tolist()):
                leaf = dict(placed)
                leaf[k], leaf[j] = tuple(x), tuple(y)
                self._leaf(leaf, out)

    def _last_column(self, j, placed, ys, out):
        """Depth n-1 of the unpruned dfs as one pass: a node per row y of ys
        (column j), then the filter's test on every pair i < k of each
        leaf's columns, in (i, k) order, with one prune for the first
        failing pair: minor when a minor fails before the first dot outside
        its window, else pairwise.  The survivors go to _leaf in row order."""
        self.stats["nodes"] += len(ys)
        if self.stats["nodes"] > self.budget:
            raise ResourceBudgetError("matrix enumeration budget exhausted")
        if not len(ys):
            return
        n = self.inst.n
        cols = np.empty((len(ys), n, n), dtype=self.dtype)
        for col, v in placed.items():
            cols[:, col] = v
        cols[:, j] = ys
        x, y = cols[:, self.minor_r], cols[:, self.minor_s]
        dots = ((x @ self.np_qt) * y).sum(axis=2)
        outside = (dots < self.pair_lo) | (dots > self.pair_hi)
        npairs = len(self.minor_pairs)
        first_out = np.where(outside.any(axis=1), outside.argmax(axis=1), npairs)
        minor = np.zeros(len(ys), dtype=bool)
        if self.inst.b > 1:
            r, s = self.minor_r, self.minor_s
            minors = x[:, :, r] * y[:, :, s] - x[:, :, s] * y[:, :, r]
            bad = (minors % self.inst.b != 0).any(axis=2)
            before = np.arange(npairs) < first_out[:, None]
            minor = (bad & before).any(axis=1)
        pairwise = ~minor & (first_out < npairs)
        prunes = self.stats["prunes"]
        prunes["minor"] += int(minor.sum())
        prunes["pairwise"] += int(pairwise.sum())
        for row in ys[~(minor | pairwise)].tolist():
            leaf = dict(placed)
            leaf[j] = tuple(row)
            self._leaf(leaf, out)

    def _leaf(self, placed, out):
        n = self.inst.n
        cols = [placed[j] for j in range(n)]
        gamma = IntegerMatrix.from_columns(cols)
        if gamma.entry_gcd() != 1:
            self.stats["prunes"]["delta"] += 1
            return
        deltas = determinantal_divisors(gamma)
        if deltas[0] != 1 or deltas[1] != self.inst.b:
            self.stats["prunes"]["delta"] += 1
            return
        out.append(gamma)
