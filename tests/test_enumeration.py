import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from isocount import enumeration
from isocount.enumeration import (
    CountingInstance,
    SymbolicSymMatrix,
    TargetScalar,
    _entry_bounds,
    _entry_test,
    _new_stats,
    _SearchContext,
    enum_S,
    enum_norm_vectors,
    first_column_bound,
    verify_membership,
)
from isocount.errors import DomainError, ResourceBudgetError
from isocount.matrices import IntegerMatrix, RationalSymMatrix
from isocount.radicals import FieldElement, RadicalFieldSpec

from oracles import TupleSearch, box_norm_vectors, enum_S_oracle, exact_box, solution_set_flat

I2 = RationalSymMatrix.identity(2)
I3 = RationalSymMatrix.identity(3)
Q21 = RationalSymMatrix([[2, 1], [1, 3]])


def test_target_scalar():
    t = TargetScalar.build(5 * 25, 3)  # (5 * 5^2)^(2/3) = 25
    assert t.rational == 25
    t = TargetScalar.build(3 * 25, 3)
    assert t.rational is None
    assert not t.equals_fraction(Fraction(18))


def test_norm_vectors_examples():
    assert len(enum_norm_vectors(I2, 25, 0)) == 12
    assert enum_norm_vectors(I2, 1, 0) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert enum_norm_vectors(I2, 3, 0) == []
    assert len(enum_norm_vectors(I3, 25, 0)) == 30


def test_norm_vectors_box_oracle_small():
    for t in range(0, 60):
        got = enum_norm_vectors(Q21, t, 0)
        assert got == box_norm_vectors(Q21, t, t, 15), t


def test_norm_vectors_window():
    got = enum_norm_vectors(Q21, 50, 3)
    assert got == box_norm_vectors(Q21, 47, 53, 15)
    got = enum_norm_vectors(Q21, Fraction(49, 2), Fraction(1, 2))
    assert got == box_norm_vectors(Q21, 24, 25, 15)


@st.composite
def off_diagonal_windows(draw):
    """A positive definite rational Q with an off-diagonal entry, a
    fractional window and the exact box |y_i| <= sqrt(hi (Q^-1)_ii)."""
    n = draw(st.sampled_from([2, 3]))
    den = draw(st.sampled_from([1, 2, 3, 6]))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(draw(st.integers(1, 3 * den)), den)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(draw(st.integers(-2 * den, 2 * den)), den)
    assume(any(rows[i][j] for i in range(n) for j in range(i + 1, n)))
    try:
        q = RationalSymMatrix(rows)
    except DomainError:
        assume(False)
    t = Fraction(draw(st.integers(0, 40)), draw(st.sampled_from([1, 2, 3, 5, 7])))
    tol = Fraction(draw(st.integers(0, 6)), draw(st.sampled_from([1, 2, 4, 7])))
    box = exact_box(q, t + tol)
    assume(box <= (6 if n == 3 else 20))
    return q, t, tol, box


@settings(max_examples=150, deadline=None)
@given(case=off_diagonal_windows())
def test_norm_vectors_box_oracle_off_diagonal(case):
    q, t, tol, box = case
    assert enum_norm_vectors(q, t, tol) == box_norm_vectors(q, t - tol, t + tol, box)


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_norm_vectors_sum_of_two_squares_hypothesis(t):
    got = enum_norm_vectors(I2, t, 0)
    count = 0
    import math

    b = math.isqrt(t)
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            if x * x + y * y == t:
                count += 1
    assert len(got) == count
    assert got == sorted(got)
    for y in got:
        assert y[0] ** 2 + y[1] ** 2 == t


def test_norm_vectors_resource_error():
    with pytest.raises(ResourceBudgetError):
        enum_norm_vectors(I2, 10 ** 16, 0)


def test_first_column_bound():
    fb = first_column_bound(I3, 5, Fraction(1, 2))
    assert fb.count == 30
    assert fb.holds_exactly(3)
    fb = first_column_bound(I2, 1, Fraction(1, 2))
    assert fb.count == 4


def test_enum_S_signed_permutations():
    ss = enum_S(CountingInstance(I2, 1, 1))
    assert ss.count == 8
    flats = solution_set_flat(ss)
    assert (0, 1, 1, 0) in flats and (1, 0, 0, 1) in flats
    # all signed permutation matrices
    for g in ss.matrices:
        assert abs(g.det()) == 1


def test_enum_S_distinct_primes_n2_empty():
    # n = 2 forces Delta_2 = |det| = q p != p
    assert enum_S(CountingInstance(I2, 3, 5)).count == 0
    assert enum_S(CountingInstance(I2, 7, 5)).count == 0


def test_enum_S_irrational_short_circuit():
    inst = CountingInstance(I3, 3, 5)
    ss = enum_S(inst)
    assert ss.count == 0 and ss.stats["short_circuit"] == "irrational_target"
    forced = enum_S(inst, force_search=True)
    assert forced.count == 0 and forced.stats["short_circuit"] is None
    assert forced.stats["nodes"] > 0


def test_enum_S_oracle_equivalence_I3():
    inst = CountingInstance(I3, 5, 5)
    ss = enum_S(inst)
    assert solution_set_flat(ss) == enum_S_oracle(I3, 5, 5)
    assert ss.count == 288


def test_enum_S_oracle_equivalence_skew():
    q = RationalSymMatrix([[1, Fraction(1, 2), 0], [Fraction(1, 2), 1, 0], [0, 0, 1]])
    for p in (3, 5):
        ss = enum_S(CountingInstance(q, p, p))
        assert solution_set_flat(ss) == enum_S_oracle(q, p, p), p


def test_enum_S_oracle_equivalence_n2_window():
    # small skew form, several instances
    for (a, b) in ((1, 1), (2, 1), (4, 1), (9, 1)):
        ss = enum_S(CountingInstance(Q21, a, b))
        assert solution_set_flat(ss) == enum_S_oracle(Q21, a, b), (a, b)


def test_enum_S_pruning_soundness():
    for inst in (
        CountingInstance(I3, 3, 3),
        CountingInstance(I2, 1, 1),
        CountingInstance(I3, 3, 3, big_m=2),
        CountingInstance(Q21, 4, 1, big_m=2),
    ):
        with_prune = enum_S(inst, prune=True)
        without = enum_S(inst, prune=False)
        assert with_prune.matrices == without.matrices
        assert with_prune.count == without.count


def test_enum_S_determinism_and_sorting():
    a = enum_S(CountingInstance(I3, 3, 3))
    b = enum_S(CountingInstance(I3, 3, 3))
    assert [g.rows for g in a.matrices] == [g.rows for g in b.matrices]
    flats = [g.flat() for g in a.matrices]
    assert flats == sorted(flats)


def test_enum_S_parallel_equivalence():
    seq = enum_S(CountingInstance(I3, 5, 5), workers=1)
    par = enum_S(CountingInstance(I3, 5, 5), workers=3)
    assert seq.matrices == par.matrices


def test_enum_S_parallel_in_the_error_regime():
    # the first column is split across workers in every regime, and the
    # merged statistics match the sequential search
    inst = CountingInstance(I3, 3, 3, big_m=2)
    seq = enum_S(inst, workers=1)
    par = enum_S(inst, workers=2)
    assert seq.matrices == par.matrices and seq.stats == par.stats


def test_enum_S_budget_error():
    with pytest.raises(ResourceBudgetError):
        enum_S(CountingInstance(I3, 27, 27), budget=50)


def test_huge_rational_threshold_meets_the_entry_bound():
    # thr = 10^1300 / 9 is rational: its window floors exactly and the
    # search box is refused (it ended in "floor undecided at 4096 bits")
    with pytest.raises(ResourceBudgetError, match="search box"):
        enum_S(CountingInstance(I3, 3, 3, big_m=4, error_constant=10 ** 1300))


@pytest.mark.parametrize("workers", [1, 2])
def test_enum_S_budget_verdict_independent_of_workers(workers):
    # the whole search on I3, a = b = 27 visits 12120 nodes however the
    # first column is split, so the budget verdict must not move with it
    inst = CountingInstance(I3, 27, 27)
    for budget in (9000, 12119):
        with pytest.raises(ResourceBudgetError):
            enum_S(inst, budget=budget, workers=workers)
    ss = enum_S(inst, budget=12120, workers=workers)
    assert ss.count == 1728 and ss.stats["nodes"] == 12120


D112 = RationalSymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])


@pytest.mark.parametrize(
    "q, walks, stats",
    [
        (I3, 1, {"count": 288, "nodes": 900, "candidates_per_column": [30, 30, 30],
                 "prunes": {"pairwise": 2376, "minor": 0, "delta": 48, "window": 0}}),
        (D112, 2, {"count": 96, "nodes": 530, "candidates_per_column": [28, 28, 30],
                   "prunes": {"pairwise": 1512, "minor": 0, "delta": 16, "window": 0}}),
    ],
)
def test_enum_S_walks_once_per_distinct_window(monkeypatch, q, walks, stats):
    # columns with the same diagonal window share one walk inside a call,
    # each still paying its nodes (counts pinned from the per-column walk);
    # a second call walks again, since nothing is kept between calls
    calls = []
    walk = enumeration._enum_window

    def counted(*args):
        calls.append(args[1:3])
        return walk(*args)

    monkeypatch.setattr(enumeration, "_enum_window", counted)
    inst = CountingInstance(q, 5, 5)
    for rounds in (1, 2):
        ss = enum_S(inst)
        assert len(calls) == rounds * walks
        assert len(set(calls)) == walks
        assert {k: ss.stats[k] for k in stats} == stats


def test_enum_S_finite_error_window():
    # with a generous error window the exact solutions remain included
    exact = enum_S(CountingInstance(I3, 3, 3))
    fuzzy = enum_S(CountingInstance(I3, 3, 3, big_m=Fraction(2)))
    assert set(g.rows for g in exact.matrices) <= set(g.rows for g in fuzzy.matrices)
    # huge M behaves like the exact instance
    tight = enum_S(CountingInstance(I3, 3, 3, big_m=Fraction(1000)))
    assert tight.matrices == exact.matrices


def test_verify_membership_posthoc():
    inst = CountingInstance(I3, 5, 5)
    ss = enum_S(inst)
    for g in ss.matrices[:20]:
        assert verify_membership(inst, g)
    bad = IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not verify_membership(inst, bad)


def test_criterion6_witness_matrix():
    # columns (3,4,0), (-4,3,0), (0,0,5) survive all filters at p = 5
    inst = CountingInstance(I3, 5, 5)
    witness = IntegerMatrix.from_columns([(3, 4, 0), (-4, 3, 0), (0, 0, 5)])
    assert verify_membership(inst, witness)
    ss = enum_S(inst)
    assert witness in ss.matrices


def test_instance_validation():
    with pytest.raises(DomainError):
        CountingInstance(I2, 0, 1)
    with pytest.raises(DomainError):
        CountingInstance(I2, 1, 1, big_m=Fraction(-1))
    with pytest.raises(DomainError):
        CountingInstance(I2, 1, 1, error_constant=0)


def test_stats_shape():
    ss = enum_S(CountingInstance(I3, 3, 3))
    assert set(ss.stats) >= {"count", "nodes", "prunes", "candidates_per_column"}
    assert ss.stats["candidates_per_column"] == [30, 30, 30]


def test_instance_needs_two_columns():
    # Delta_2 = b needs 2x2 minors; n = 1 failed with an IndexError in the leaf
    with pytest.raises(DomainError):
        CountingInstance(RationalSymMatrix([[1]]), 1, 1)


HALF = Fraction(1, 2)
WINDOW_FORMS = (
    I2,
    I3,
    Q21,
    RationalSymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
    RationalSymMatrix([[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]]),
    RationalSymMatrix([[1, Fraction(1, 3)], [Fraction(1, 3), 1]]),
)


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from(WINDOW_FORMS),
    a=st.integers(1, 9),
    b=st.integers(1, 9),
    big_m=st.sampled_from([None, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)]),
    c=st.sampled_from([HALF, Fraction(1), Fraction(3)]),
)
def test_entry_bounds_decide_entry_ok(q, a, b, big_m, c):
    # exact with t rational or irrational, and the error regime: the
    # search's integer window on D = x^T den(Q)Q y accepts exactly what
    # the verifier's entry test accepts for D against den(Q)Q_ij
    inst = CountingInstance(q, a, b, big_m=big_m, error_constant=c)
    bounds = _entry_bounds(inst)
    accept = _entry_test(inst, q.den)
    for i in range(q.n):
        for j in range(q.n):
            lo, hi = bounds[i][j]
            assert bounds[j][i] == (lo, hi)
            for d in range(min(lo, hi) - 3, max(lo, hi) + 4):
                assert (lo <= d <= hi) == accept(d, q.tilde[min(i, j), max(i, j)])


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(WINDOW_FORMS),
    big_m=st.sampled_from([None, Fraction(2)]),
    scale=st.sampled_from([1, 2 ** 29, 2 ** 32]),
    data=st.data(),
)
def test_numpy_filter_matches_the_integer_loop(q, big_m, scale, data):
    # the filter keeps (as rows of its array, in the same order) and counts
    # exactly what the oracle's per-pair test does, on int64 arrays under
    # the guard and on object arrays past it (every nonzero draw at 2^32)
    inst = CountingInstance(q, 3, 3, big_m=big_m)
    bounds = _entry_bounds(inst)
    vec = st.tuples(*[st.integers(-3, 3).map(lambda v: v * scale)] * q.n)
    cands = data.draw(st.lists(vec, min_size=1, max_size=12))
    y = data.draw(vec)
    fast, slow = _new_stats(), _new_stats()
    ctx = _SearchContext(inst, bounds, [[y], cands], fast, 10 ** 6, True)
    if scale == 2 ** 32 and any(map(any, [y] + cands)):
        assert ctx.dtype == object
    kept = ctx._filter(1, 0, y, np.array(cands, dtype=ctx.dtype))
    assert kept.dtype == ctx.dtype
    kept = [tuple(row) for row in kept.tolist()]
    oracle = TupleSearch(inst, bounds, [[y], cands], slow, 10 ** 6, True)
    assert kept == oracle._filter(1, 0, y, cands)
    assert fast["prunes"] == slow["prunes"]


THIRD = Fraction(1, 3)
DUAL_FORMS = (
    I2,  # den 1
    RationalSymMatrix([[1, HALF], [HALF, 1]]),  # den 2
    RationalSymMatrix([[1, THIRD], [THIRD, 1]]),  # den 3
    I3,
    RationalSymMatrix([[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]]),
    RationalSymMatrix([[1, THIRD, 0], [THIRD, 1, 0], [0, 0, 1]]),
)
# exact with t rational or irrational, and the error regime; M = 3/2 puts
# thr in a larger field than t, so the symbolic Q is lifted
DUAL_REGIMES = (None, None, Fraction(1), Fraction(2), Fraction(4), Fraction(3, 2))


@st.composite
def dual_cases(draw):
    q = draw(st.sampled_from(DUAL_FORMS))
    if q.n == 2:
        b, big_m = draw(st.integers(1, 3)), draw(st.sampled_from(DUAL_REGIMES))
    else:
        # b = 1 or M < 2 leaves thousands of solutions in three variables;
        # s = a b^2 decides whether t is rational in the exact regime
        regimes = (None, None, Fraction(2), Fraction(4))
        b, big_m = draw(st.integers(2, 3)), draw(st.sampled_from(regimes))
    return q, draw(st.integers(1, 3)), b, big_m


def _perturbed(g, data):
    rows = [list(r) for r in g.rows]
    i, j = data.draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
    rows[i][j] += data.draw(st.sampled_from([-1, 1]))
    return IntegerMatrix(rows)


@settings(max_examples=50, deadline=None)
@given(case=dual_cases(), data=st.data())
def test_verify_membership_agrees_on_rational_and_symbolic_q(case, data):
    # the verifier on Q (integers on den(Q)Q) and on the same Q as field
    # elements of Q(s^(1/n)) (den 1) decides every matrix alike: the
    # solutions of an instance with the same b (the same a, or a + 1, or M
    # = 2), and their one-entry perturbations
    q, a, b, big_m = case
    inst = CountingInstance(q, a, b, big_m=big_m)
    spec = RadicalFieldSpec(q.n, [inst.s])
    sym = SymbolicSymMatrix([[spec.from_rational(x) for x in row] for row in q.entries], spec)
    sym_inst = CountingInstance(sym, a, b, big_m=big_m)
    src_a, src_m = data.draw(st.sampled_from([(a, big_m), (a + 1, big_m), (a, Fraction(2))]))
    sols = enum_S(CountingInstance(q, src_a, b, big_m=src_m)).matrices
    gammas = list(data.draw(st.lists(st.sampled_from(sols), max_size=3))) if sols else []
    gammas += [_perturbed(g, data) for g in gammas]
    for g in gammas:
        assert verify_membership(inst, g) == verify_membership(sym_inst, g)
    if src_a == a and src_m == big_m:
        assert all(verify_membership(sym_inst, g) for g in gammas[: len(gammas) // 2])


def test_verifier_work_is_per_instance():
    # t = 49 and thr = 1/49: no certified sign for any matrix, the target
    # root and the field spec built at most once for all of them
    sols = enum_S(CountingInstance(I3, 7, 7, big_m=4)).matrices
    inst = CountingInstance(I3, 7, 7, big_m=4)
    calls = {"spec": 0, "iroot": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def no_sign(self):
        raise AssertionError("certified sign on a rational threshold")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RadicalFieldSpec, "__init__", counted("spec", RadicalFieldSpec.__init__))
        mp.setattr(enumeration, "iroot", counted("iroot", enumeration.iroot))
        mp.setattr(FieldElement, "sign", no_sign)
        assert all(verify_membership(inst, g) for g in sols)
    assert len(sols) > 100 and calls["spec"] <= 1 and calls["iroot"] <= 1
    # the memo survives pickling (the parallel search ships the instance)
    clone = pickle.loads(pickle.dumps(inst))
    assert clone == inst and hash(clone) == hash(inst)
    assert all(verify_membership(clone, g) for g in sols)
    seq, par = enum_S(inst, workers=1), enum_S(inst, workers=2)
    assert seq.matrices == par.matrices == sols and seq.stats == par.stats
