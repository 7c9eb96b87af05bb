"""The numpy passes of the search against the integer loops they replace.

The walk's last two levels (`_last_two_levels`) must give the Python walk's
vectors and node count on every window, and run only under
`_walk_fits_int64`; the array DFS (its last two columns one pass,
`_SearchContext._last_pair`), on int64 arrays and on object arrays, must
give the solutions and every counter of `stats` of the oracle's search on
int tuples (`oracles.TupleSearch`), with the pruning on and off.  Both
must keep the budget verdict: it flips between budget = nodes and
budget = nodes - 1, whichever path runs and however many workers split the
search.
"""

import math
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from isocount import enumeration
from isocount.enumeration import CountingInstance, _SearchContext, enum_S
from isocount.errors import DomainError, ResourceBudgetError
from isocount.matrices import INT64_MAX, RationalSymMatrix

from oracles import TupleSearch

HALF = Fraction(1, 2)
I2 = RationalSymMatrix.identity(2)
I3 = RationalSymMatrix.identity(3)
I4 = RationalSymMatrix.identity(4)
Q21 = RationalSymMatrix([[2, 1], [1, 3]])
SKEW3 = RationalSymMatrix([[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]])
D112 = RationalSymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
BUDGET = 10 ** 8


def walk(q, lo, hi, batched, budget=BUDGET):
    """(vectors, nodes, numpy passes) of one walk, with the numpy pass
    allowed (batched) or the guard forced to refuse it."""
    counter, passes = [0], []
    last_two = enumeration._last_two_levels

    def counted(*args):
        passes.append(args[4])
        return last_two(*args)

    guard = nullcontext() if batched else mock.patch.object(
        enumeration, "_walk_fits_int64", lambda *args: False)
    with guard, mock.patch.object(enumeration, "_last_two_levels", counted):
        vectors = enumeration._enum_window(q, lo, hi, budget, counter)
    return vectors, counter[0], len(passes)


@st.composite
def windows(draw):
    """A positive definite rational Q, n in {2, 3, 4}, diagonal or not,
    and an exact window or an error window, lo < 0 included."""
    n = draw(st.sampled_from([2, 3, 4]))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(draw(st.integers(1, 3 * den)), den)
        for j in range(i + 1, n):
            entry = draw(st.integers(-2 * den, 2 * den) | st.just(0))
            rows[i][j] = rows[j][i] = Fraction(entry, den)
    try:
        q = RationalSymMatrix(rows)
    except DomainError:
        assume(False)
    hi = Fraction(draw(st.integers(0, (40, 30, 8)[n - 2])), draw(st.sampled_from([1, 2, 3])))
    kind = draw(st.sampled_from(["exact", "error", "negative"]))
    if kind == "exact":
        lo = hi
    elif kind == "error":
        lo = hi - Fraction(draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 7])))
    else:
        lo = -Fraction(draw(st.integers(1, 50)), draw(st.sampled_from([1, 3])))
    return q, lo, hi


@settings(max_examples=200, deadline=None)
@given(case=windows())
def test_numpy_walk_equals_the_python_walk(case):
    q, lo, hi = case
    vectors, nodes, passes = walk(q, lo, hi, batched=True)
    assert passes > 0  # the all-zero suffix is always reached
    assert (vectors, nodes, 0) == walk(q, lo, hi, batched=False)


def test_numpy_walk_on_fixed_windows():
    # both ends of every window kind, by hand
    for q, lo, hi in [(I2, 25, 25), (I3, 0, 0), (I3, -3, 2), (Q21, 47, 53),
                      (SKEW3, Fraction(5, 2), 9), (I4, 3, 4), (D112, 8, 8)]:
        lo, hi = Fraction(lo), Fraction(hi)
        vectors, nodes, passes = walk(q, lo, hi, batched=True)
        assert passes > 0
        assert (vectors, nodes, 0) == walk(q, lo, hi, batched=False)
    assert walk(I2, Fraction(1), Fraction(1), batched=True)[0] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


# Q = diag(1, B) with B = 2^31 - 1: the scale is B and w = (B, 1), so the
# scaled window is B [lo, hi].  hi = 2^30 and lo = -(2^30 + 1) put
# hi + |lo| at B (2^31 + 1) = 2^62 - 1, the largest value the numpy pass
# takes; one unit lower, lo = -(2^30 + 2), gives 2^62 + 2^31 - 2.  Both
# windows hold the same vectors, y_1 = 0 and |y_0| <= 2^15.
EDGE = RationalSymMatrix([[1, 0], [0, 2 ** 31 - 1]])
EDGE_VECTORS = [(y, 0) for y in range(-2 ** 15, 2 ** 15 + 1)]


@pytest.mark.parametrize("lo, inside", [(-(2 ** 30 + 1), True), (-(2 ** 30 + 2), False)])
def test_walk_guard_at_its_bound(lo, inside):
    lo, hi = Fraction(lo), Fraction(2 ** 30)
    vectors, nodes, passes = walk(EDGE, lo, hi, batched=True)
    assert passes == (1 if inside else 0)
    assert vectors == EDGE_VECTORS
    assert (vectors, nodes, 0) == walk(EDGE, lo, hi, batched=False)


def test_walk_guard_predicate_edges():
    fits = enumeration._walk_fits_int64
    unit = [[1, 0], [0, 1]]
    # hi + |lo| and the weights
    assert fits(2, -(2 ** 61), 2 ** 61 - 1, [1, 1], unit, 1)
    assert not fits(2, -(2 ** 61), 2 ** 61, [1, 1], unit, 1)
    assert fits(2, 0, 0, [2 ** 62 - 1, 1], unit, 1)
    assert not fits(2, 0, 0, [2 ** 62, 1], unit, 1)
    # the linear forms: n max|m_kj| box + isqrt(bound) + 2
    big = [[2 ** 40, 0], [0, 1]]
    box = (2 ** 62 - 3) // 2 ** 41
    assert fits(2, 0, 0, [1, 1], big, box)
    assert not fits(2, 0, 0, [1, 1], big, box + 1)


ROOTS = (1, 2, 3, 2 ** 26 + 1, 2 ** 27 - 1, 2147478648, 2 ** 31 - 1)
RADICANDS = np.array(sorted({x for k in ROOTS for x in (k * k - 1, k * k, k * k + 1)}
                            | {0, 1, 2 ** 62 - 1}), dtype=np.int64)
EXACT_ROOTS = [math.isqrt(int(x)) for x in RADICANDS]


@pytest.mark.parametrize("error", [0.0, -0.5, 0.5])
def test_isqrt64_corrects_a_root_off_by_less_than_one(monkeypatch, error):
    # below 2^62 the float root is within 1 of the integer one: unperturbed
    # it overshoots at k^2 - 1 for k near 2^31, and perturbed by half a unit
    # either way one correction each way still lands on isqrt
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x: np.maximum(sqrt(x) + error, 0.0))
    assert enumeration._isqrt64(RADICANDS).tolist() == EXACT_ROOTS


def test_walk_budget_is_charged_before_the_ranges_expand(monkeypatch):
    # n = 2 runs one numpy pass; with budget = nodes - 1 its level-0 nodes
    # overrun the budget, which must be refused before np.repeat builds
    # anything
    lo, hi = Fraction(40), Fraction(50)
    vectors, nodes, _ = walk(Q21, lo, hi, batched=True)

    def no_expansion(*args, **kwargs):
        raise AssertionError("ranges expanded past the budget")

    monkeypatch.setattr(np, "repeat", no_expansion)
    with pytest.raises(ResourceBudgetError):
        walk(Q21, lo, hi, batched=True, budget=nodes - 1)


def test_python_level_zero_is_charged_before_it_is_built(monkeypatch):
    # diag(1, 2^40) scales the window [0, 10^10] past 2^62, so the Python
    # walk runs level 0: one range of 2 10^5 + 1 values under y_1 = 0,
    # which budget 10 must refuse before a vector of it is built (building
    # it first peaked at about 18 MB)
    q = RationalSymMatrix([[1, 0], [0, 2 ** 40]])

    def no_numpy(*args):
        raise AssertionError("the numpy pass ran")

    monkeypatch.setattr(enumeration, "_last_two_levels", no_numpy)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            enumeration._enum_window(q, Fraction(0), Fraction(10 ** 10), 10, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("q, lo, hi", [(Q21, 40, 50), (I3, 25, 25), (SKEW3, 0, 12), (I4, -2, 4)])
def test_walk_budget_verdict_flips_at_the_node_count(batched, q, lo, hi):
    lo, hi = Fraction(lo), Fraction(hi)
    vectors, nodes, _ = walk(q, lo, hi, batched)
    assert walk(q, lo, hi, batched, budget=nodes)[:2] == (vectors, nodes)
    with pytest.raises(ResourceBudgetError):
        walk(q, lo, hi, batched, budget=nodes - 1)


def search(instance, path, **kwargs):
    """enum_S with its DFS on int64 arrays, on object arrays (the int64
    guard forced to refuse) or on int tuples (the oracle's TupleSearch),
    and the dtypes the array search took."""
    dtypes = []
    run = _SearchContext.run

    def spied(self, order):
        dtypes.append(self.dtype)
        return run(self, order)

    patches = {"int64": nullcontext(),
               "object": mock.patch.object(enumeration, "fits_int64", lambda *args: False),
               "tuple": mock.patch.object(enumeration, "_SearchContext", TupleSearch)}
    with patches[path], mock.patch.object(_SearchContext, "run", spied):
        return enum_S(instance, **kwargs), dtypes


def same_search(ours, oracle):
    assert ours.stats == oracle.stats
    assert [g.rows for g in ours.matrices] == [g.rows for g in oracle.matrices]


# Q = 10^18 I3 is past the DFS's int64 guard at every a, b: its candidates
# are those of I3, and n^2 10^18 max|x|^2 > 2^63 - 1 once max|x| >= 1
BIG_I3 = RationalSymMatrix([[10 ** 18 * int(i == j) for j in range(3)] for i in range(3)])
SEARCHES = [
    (I2, 1, 1, None), (I2, 1, 5, None), (I2, 5, 5, None), (Q21, 4, 1, None),
    (I2, 5, 5, Fraction(2)), (I2, 1, 5, Fraction(3, 2)), (Q21, 9, 1, Fraction(3, 2)),
    (I3, 3, 3, None), (I3, 5, 5, None), (I3, 8, 1, None), (I3, 2, 2, None),
    (D112, 5, 5, None), (SKEW3, 3, 3, None), (I3, 3, 3, Fraction(2)),
    (I3, 7, 7, Fraction(4)), (SKEW3, 2, 2, Fraction(2)),
    (I4, 1, 1, None), (I4, 2, 2, None), (I4, 3, 3, None), (I4, 2, 2, Fraction(4)),
    (BIG_I3, 3, 3, None), (BIG_I3, 9, 9, Fraction(4)),
]


@pytest.mark.parametrize("q, a, b, big_m", SEARCHES)
def test_numpy_last_pair_equals_the_tuple_search(q, a, b, big_m):
    # n in {2, 3, 4}, b = 1 and b > 1, exact and error windows, under the
    # int64 guard and past it: the same solutions and the same stats, every
    # prune kind included, on int64 arrays (where the guard admits them),
    # on object arrays and on the oracle's tuples
    inst = CountingInstance(q, a, b, big_m=big_m)
    calls = []
    last_pair = _SearchContext._last_pair

    def counted(self, *args):
        calls.append(args[2].dtype == object)
        return last_pair(self, *args)

    with mock.patch.object(_SearchContext, "_last_pair", counted):
        fast, dtypes = search(inst, "int64")
        wide, wide_dtypes = search(inst, "object")
    slow, _ = search(inst, "tuple")
    past = q is BIG_I3
    assert dtypes == [object if past else np.int64] and wide_dtypes == [object]
    assert set(calls) == ({True} if past else {False, True})
    same_search(fast, slow)
    same_search(wide, slow)


@pytest.mark.parametrize("q, a, b, big_m", [(I3, 3, 3, None), (I2, 1, 1, None),
                                             (I3, 3, 3, Fraction(2)), (Q21, 4, 1, Fraction(2)),
                                             (BIG_I3, 3, 3, None), (I3, 2, 2, None)])
def test_unpruned_search_equals_the_tuple_search(q, a, b, big_m):
    # prune=False walks the arrays unfiltered and its leaf counts the first
    # failing pair, as the oracle's pair loop does
    inst = CountingInstance(q, a, b, big_m=big_m)
    slow, _ = search(inst, "tuple", prune=False)
    for path in ("int64", "object"):
        same_search(search(inst, path, prune=False)[0], slow)


@st.composite
def instances(draw):
    """A positive definite rational Q with n in {2, 3, 4}, diagonal or
    not, small a and b, and an exact or an error regime."""
    n = draw(st.sampled_from([2, 3, 4]))
    den = draw(st.sampled_from([1, 2]))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(draw(st.integers(den, 2 * den)), den)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(draw(st.integers(-1, 1)), den)
    try:
        q = RationalSymMatrix(rows)
    except DomainError:
        assume(False)
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    big_m = draw(st.sampled_from([None, None, Fraction(2), Fraction(4)]))
    return CountingInstance(q, a, b, big_m=big_m)


def outcome(inst, path, prune):
    """(stats, solution rows) of one search, or the budget refusal."""
    try:
        ss, _ = search(inst, path, budget=3000, prune=prune, force_search=True)
    except ResourceBudgetError as exc:
        return str(exc)
    return ss.stats, [g.rows for g in ss.matrices]


@settings(max_examples=60, deadline=None)
@given(inst=instances(), prune=st.booleans())
def test_int64_equals_object_equals_the_oracle(inst, prune):
    oracle = outcome(inst, "tuple", prune)
    assert outcome(inst, "int64", prune) == oracle
    assert outcome(inst, "object", prune) == oracle


# n^2 max|Qt| bx^2 <= 2^63 - 1 for Q21 (n = 2, max|Qt| = 3) up to this bx
SEARCH_EDGE = math.isqrt(INT64_MAX // 12)


@pytest.mark.parametrize("bx, inside", [(SEARCH_EDGE, True), (SEARCH_EDGE + 1, False)])
def test_search_guard_at_its_bound(bx, inside):
    # the DFS holds its lists as int64 arrays exactly when fits_int64 bounds
    # every dot and minor it forms from the largest candidate entry, and as
    # object arrays past it
    inst = CountingInstance(Q21, 1, 1)
    cands = [[(0, 1)], [(-bx, 1), (1, 0)]]
    ctx = _SearchContext(inst, enumeration._entry_bounds(inst), cands,
                         enumeration._new_stats(), BUDGET, True)
    assert ctx.dtype == (np.int64 if inside else object)
    assert ctx.np_qt.dtype == ctx.dtype


def test_the_pair_pass_slices_its_rows(monkeypatch):
    # slices of one pair meet every row of the first column by itself
    inst = CountingInstance(I3, 5, 5)
    whole = enum_S(inst)
    monkeypatch.setattr(enumeration, "BATCH", 1)
    sliced = enum_S(inst)
    assert sliced.stats == whole.stats and sliced.matrices == whole.matrices


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("q, a, b, big_m", [(I2, 25, 1, None), (I3, 5, 5, None),
                                             (I3, 3, 3, Fraction(2)), (I4, 2, 2, None),
                                             (BIG_I3, 3, 3, None)])
def test_search_budget_verdict_flips_at_the_node_count(workers, q, a, b, big_m):
    # the search flips at its total node count, and each walk inside it at
    # its own: below the largest walk the walk refuses, at it the search
    inst = CountingInstance(q, a, b, big_m=big_m)
    walks = []
    walk = enumeration._enum_window

    def counted(*args):
        counter = [0]
        vectors = walk(*args[:4], counter)
        walks.append(counter[0])
        args[4][0] += counter[0]
        return vectors

    with mock.patch.object(enumeration, "_enum_window", counted):
        ss = enum_S(inst)
    nodes = ss.stats["nodes"]
    again = enum_S(inst, budget=nodes, workers=workers)
    assert again.stats == ss.stats and again.matrices == ss.matrices
    with pytest.raises(ResourceBudgetError, match="matrix enumeration"):
        enum_S(inst, budget=nodes - 1, workers=workers)
    assert max(walks) < nodes
    with pytest.raises(ResourceBudgetError, match="matrix enumeration"):
        enum_S(inst, budget=max(walks), workers=workers)
    with pytest.raises(ResourceBudgetError, match="norm-vector enumeration"):
        enum_S(inst, budget=max(walks) - 1, workers=workers)
