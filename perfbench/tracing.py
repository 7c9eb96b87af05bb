"""Outside-in layer tracing for the benchmark.

`Tracer` wraps the public functions of each layer at the names their
callers look them up by (a module global such as `isocount.xchg.enum_S`, or
a class attribute such as `FieldElement.abs_le`) and restores the originals
on exit.  Nothing under src/ changes.  Each call becomes a span: name,
start, end, parent span and operation id, kept in compact arrays in memory
and written out once the run ends.  Self time is a span's duration minus
that of its child spans; a span's children never overlap, because the
traced code is single-threaded (pool workers are separate processes whose
spans are not collected).

`PER_LAYER` lists every per-layer metric with the end-to-end metric it
should move and the workloads on which it should move it.
"""

import importlib
import time
from array import array

import numpy as np

# (owner module, owner class or None, attribute, span name)
WRAPS = (
    ("isocount.enumeration", None, "enum_S", "enumeration.enum_S"),
    ("isocount.xchg", None, "enum_S", "enumeration.enum_S"),
    ("isocount.recursion", None, "enum_S", "enumeration.enum_S"),
    ("isocount.enumeration", None, "verify_membership", "enumeration.verify_membership"),
    ("isocount.enumeration", None, "determinantal_divisors", "matrices.determinantal_divisors"),
    ("isocount.radicals", "FieldElement", "abs_le", "radicals.abs_le"),
    ("isocount.radicals", "FieldElement", "sign", "radicals.sign"),
    ("isocount.xchg", None, "exchange_step", "xchg.exchange_step"),
    ("isocount.xchg", None, "verify_membership", "xchg.reverify"),
    ("isocount.xchg", None, "intersect_kernels", "xchg.intersect_kernels"),
    ("isocount.recursion", None, "intersect_kernels", "xchg.intersect_kernels"),
    ("isocount.xchg", None, "find_q_prime", "xchg.find_q_prime"),
    ("isocount.recursion", None, "find_q_prime", "xchg.find_q_prime"),
    ("isocount.recursion", None, "proposition_driver", "recursion.proposition_driver"),
    ("isocount.recursion", None, "outer_chain", "recursion.outer_chain"),
    ("isocount.recursion", None, "inner_chain", "recursion.inner_chain"),
    ("isocount.recursion", None, "verify_membership", "recursion.verdict_reverify"),
    ("isocount.recursion", None, "residue_system", "primes.residue_system"),
    ("isocount.recursion", None, "good_prime_set", "primes.good_prime_set"),
)

# (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("enumeration.enum_S.calls", "count", "lower", "wall_s", "count, chain"),
    ("enumeration.enum_S.self_s", "s", "lower", "wall_s", "count, chain"),
    ("enumeration.nodes", "count", "lower", "wall_s", "count, skew"),
    ("enumeration.prunes_pairwise", "count", "lower", "wall_s", "count, skew"),
    ("enumeration.prunes_minor", "count", "lower", "wall_s", "count, skew"),
    ("enumeration.prunes_delta", "count", "lower", "wall_s", "count, skew"),
    ("enumeration.solutions_per_node", "1", "higher", "wall_s", "count, skew"),
    ("enumeration.walk_s", "s", "lower", "wall_s", "skew (large), count (small)"),
    ("enumeration.walk_vectors", "count", "lower", "wall_s", "skew (large), count (small)"),
    ("enumeration.verify_membership.calls", "count", "lower", "wall_s", "count, exchange, chain"),
    ("enumeration.verify_membership.s", "s", "lower", "wall_s", "count, exchange, chain"),
    ("matrices.determinantal_divisors.calls", "count", "lower", "wall_s", "count"),
    ("matrices.determinantal_divisors.s", "s", "lower", "wall_s", "count"),
    ("matrices.leaf_accept_ratio", "1", "higher", "wall_s", "count"),
    ("radicals.abs_le.calls", "count", "lower", "wall_s", "window"),
    ("radicals.abs_le.s", "s", "lower", "wall_s", "window"),
    ("radicals.sign.calls", "count", "lower", "wall_s", "window"),
    ("radicals.sign.s", "s", "lower", "wall_s", "window"),
    ("xchg.exchange_step.s", "s", "lower", "wall_s", "exchange"),
    ("xchg.reverify.calls", "count", "lower", "wall_s", "exchange"),
    ("xchg.reverify.s", "s", "lower", "wall_s", "exchange"),
    ("xchg.intersect_kernels.calls", "count", "lower", "wall_s", "chain (large), exchange (small)"),
    ("xchg.intersect_kernels.s", "s", "lower", "wall_s", "chain (large), exchange (small)"),
    ("xchg.rows_offered", "count", "lower", "wall_s", "chain (large), exchange (small)"),
    ("xchg.generators_selected", "count", "lower", "wall_s", "chain (large), exchange (small)"),
    ("xchg.find_q_prime.calls", "count", "lower", "wall_s", "chain"),
    ("xchg.find_q_prime.s", "s", "lower", "wall_s", "chain"),
    ("xchg.rounding_log2", "count", "lower", "wall_s", "chain"),
    ("recursion.outer_chain.s", "s", "lower", "wall_s, peak_rss_mb", "chain"),
    ("recursion.inner_chain.s", "s", "lower", "wall_s, peak_rss_mb", "chain"),
    ("recursion.levels", "count", "lower", "wall_s, peak_rss_mb", "chain"),
    ("recursion.pairs_requested", "count", "lower", "wall_s, peak_rss_mb", "chain"),
    ("recursion.enum_cache_hit_ratio", "1", "higher", "wall_s, peak_rss_mb", "chain"),
    ("recursion.verdict_reverify.calls", "count", "lower", "wall_s", "chain"),
    ("recursion.verdict_reverify.s", "s", "lower", "wall_s", "chain"),
    ("primes.residue_system.calls", "count", "lower", "wall_s", "chain (expected no change)"),
    ("primes.residue_system.s", "s", "lower", "wall_s", "chain (expected no change)"),
    ("primes.good_prime_set.calls", "count", "lower", "wall_s", "chain (expected no change)"),
    ("primes.good_prime_set.s", "s", "lower", "wall_s", "chain (expected no change)"),
    ("pool.children_cpu_s", "s", "lower", "wall_s, cpu_s", "exchange (chain runs one worker: no change)"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of one pass", "all"),
    ("trace.top_level_coverage", "1", "higher", "none: share of traced wall time inside top-level spans", "all"),
)

COUNTERS = ("nodes", "prunes_pairwise", "prunes_minor", "prunes_delta", "solutions",
            "rows_offered", "generators_selected", "rounding_log2", "levels",
            "pairs_requested")


def _on_enum(tracer, args, kwargs, result):
    stats = result.stats
    c = tracer.counters
    c["nodes"] += stats["nodes"]
    for kind in ("pairwise", "minor", "delta"):
        c["prunes_" + kind] += stats["prunes"][kind]
    c["solutions"] += stats["count"]
    instance = args[0] if args else kwargs["instance"]
    if instance.exact and instance.target.is_rational:
        tracer.exact_instances.setdefault((instance.q, instance.a, instance.b), instance)


def _on_intersect(tracer, args, kwargs, result):
    contributions, n = args[0], args[1]
    tracer.counters["rows_offered"] += len(contributions) * (n * (n + 1) // 2)
    tracer.counters["generators_selected"] += len(result.generator_rows)


def _on_find_q_prime(tracer, args, kwargs, result):
    tracer.counters["rounding_log2"] += result.rounding_log2 or 0


def _on_chain(tracer, args, kwargs, result):
    chain = result[0] if isinstance(result, tuple) else result
    tracer.counters["levels"] += len(chain.levels)
    tracer.counters["pairs_requested"] += sum(len(level.pairs) for level in chain.levels)


def _on_driver(tracer, args, kwargs, result):
    # each examined pair asks both caches (original and replacement form)
    examined = sum(1 for v in result.verdicts if v.skipped != "pair_cap")
    tracer.counters["pairs_requested"] += 2 * examined


HOOKS = {
    "enumeration.enum_S": _on_enum,
    "xchg.intersect_kernels": _on_intersect,
    "xchg.find_q_prime": _on_find_q_prime,
    "recursion.outer_chain": _on_chain,
    "recursion.inner_chain": _on_chain,
    "recursion.proposition_driver": _on_driver,
}


def _owner(module, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Context manager: wraps every target in WRAPS on entry, restores on exit."""

    def __init__(self):
        self.span_names = sorted({w[3] for w in WRAPS})
        self.name_ids = {name: i for i, name in enumerate(self.span_names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.exact_instances = {}
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, span_name):
        name_id = self.name_ids[span_name]
        hook = HOOKS.get(span_name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self):
        try:
            for module, cls, attr, span_name in WRAPS:
                owner = _owner(module, cls)
                original = vars(owner).get(attr)
                if original is None:
                    # the call site is gone; its metrics read 0
                    self.missing.append("%s.%s" % (cls or module, attr))
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis, after the run

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def span_totals(self):
        """{span name: (calls, inclusive seconds, self seconds)} and the
        total duration of the top-level (parentless) spans."""
        a = self.arrays()
        k = len(self.span_names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        totals = {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                  for i, name in enumerate(self.span_names)}
        return totals, float(dur[~nested].sum())

    def save(self, path):
        np.savez(path, names=np.array(self.span_names), **self.arrays())


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, totals, walk_s, walk_vectors, children_cpu_s,
                  overhead_s, coverage):
    """Every PER_LAYER metric, by name.  `<span>.calls` and `<span>.s` are
    the call count and inclusive time of a span name."""
    c = tracer.counters
    values = {}
    for span_name, (calls, incl, _own) in totals.items():
        values[span_name + ".calls"] = calls
        values[span_name + ".s"] = incl
    enum_calls, _, enum_self = totals["enumeration.enum_S"]
    values.update({
        "enumeration.enum_S.self_s": enum_self,
        "enumeration.solutions_per_node": _ratio(c["solutions"], c["nodes"]),
        "enumeration.walk_s": walk_s,
        "enumeration.walk_vectors": walk_vectors,
        "matrices.leaf_accept_ratio": _ratio(c["solutions"],
                                             values["matrices.determinantal_divisors.calls"]),
        "recursion.enum_cache_hit_ratio": (
            1 - _ratio(enum_calls, c["pairs_requested"]) if c["pairs_requested"] else 0.0),
        "pool.children_cpu_s": children_cpu_s,
        "trace.overhead_s": overhead_s,
        "trace.top_level_coverage": coverage,
    })
    for counter in ("nodes", "prunes_pairwise", "prunes_minor", "prunes_delta"):
        values["enumeration." + counter] = c[counter]
    for counter in ("rows_offered", "generators_selected", "rounding_log2"):
        values["xchg." + counter] = c[counter]
    for counter in ("levels", "pairs_requested"):
        values["recursion." + counter] = c[counter]
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better, _moves, _on in PER_LAYER}
