"""The batched entry check against the scalar reference.

`verify_batch` must give the entry test of `verify_membership` for every
matrix, so `verify_membership`'s verdict wherever Delta_1 = 1 and
Delta_2 = b, or None when it cannot decide exactly.  The matrices mix
solutions of the instance, solutions of an instance with the same s but
another b (they fail only Delta_2), scaled solutions (they fail Delta_1),
one-entry perturbations, small random matrices and matrices with entries
at the int64 bound.
"""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from isocount import enumeration
from isocount.enumeration import (
    CountingInstance,
    SymbolicSymMatrix,
    _entry_test,
    enum_S,
    verify_batch,
    verify_membership,
)
from isocount.matrices import (
    INT64_MAX,
    IntegerMatrix,
    RationalSymMatrix,
    congruence,
    determinantal_divisor_oracle,
    fits_int64,
)
from isocount.radicals import RadicalFieldSpec

HALF = Fraction(1, 2)
I2 = RationalSymMatrix.identity(2)
I3 = RationalSymMatrix.identity(3)
FORMS = (
    I2,
    I3,
    RationalSymMatrix([[2, 1], [1, 3]]),
    RationalSymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
    RationalSymMatrix([[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]]),
    RationalSymMatrix([[1, Fraction(1, 3)], [Fraction(1, 3), 1]]),
    # G^T G for G = I + E_01 + E_12, a GL3(Z) conjugate of I3
    RationalSymMatrix([[1, 1, 0], [1, 2, 1], [0, 1, 2]]),
)
# (a, b) per n: the first two share s = a b^(n-1) (so t) but not b, and
# the solutions of one fail only Delta_2 against the other; the third
# differs in s (n = 2) or has an irrational t (n = 3)
PAIRS = {2: ((1, 5), (5, 1), (1, 10)), 3: ((3, 3), (27, 1), (1, 3))}
REGIMES = (None, None, Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4))
CONSTANTS = (Fraction(1), HALF, Fraction(3), Fraction(10) ** 1300)


@lru_cache(maxsize=None)
def _solutions(q, a, b, big_m):
    return enum_S(CountingInstance(q, a, b, big_m=big_m)).matrices


def entry_part(instance, gamma):
    """The entry test of verify_membership alone (no determinantal divisors)."""
    q = instance.q
    rows, den = q.tilde.rows, q.den
    g = congruence(rows, gamma.rows)
    accept = _entry_test(instance, den)
    n = q.n
    return all(accept(g[i][j], rows[i][j]) for i in range(n) for j in range(i, n))


def _int64_edge(n, rmax, r):
    """The largest |entry| that fits_int64 admits for this form and target."""
    return math.isqrt((INT64_MAX // rmax - abs(r)) // (n * n))


@st.composite
def batch_cases(draw):
    q = draw(st.sampled_from(FORMS))
    n = q.n
    a, b = draw(st.sampled_from(PAIRS[n]))
    big_m = draw(st.sampled_from(REGIMES))
    c = draw(st.sampled_from(CONSTANTS))
    inst = CountingInstance(q, a, b, big_m=big_m, error_constant=c)
    pool = []
    for a2, b2 in PAIRS[n]:
        for m2 in (None, Fraction(2)):
            pool.extend(_solutions(q, a2, b2, m2))
    gammas = list(draw(st.lists(st.sampled_from(pool), max_size=8))) if pool else []
    for g in list(gammas):
        kind = draw(st.sampled_from(["scale", "entry", "keep"]))
        if kind == "scale":
            gammas.append(IntegerMatrix([[2 * x for x in row] for row in g.rows]))
        elif kind == "entry":
            rows = [list(row) for row in g.rows]
            i, j = draw(st.tuples(*[st.integers(0, n - 1)] * 2))
            rows[i][j] += draw(st.sampled_from([-1, 1]))
            gammas.append(IntegerMatrix(rows))
    small = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                     min_size=n, max_size=n)
    gammas += [IntegerMatrix(rows) for rows in draw(st.lists(small, max_size=3))]
    if draw(st.booleans()):
        # one entry at the int64 edge of the guard, or just past it
        t = inst.target
        r = int(t.rational) if t.is_rational else 0
        rmax = max(abs(x) for row in q.tilde.rows for x in row)
        edge = _int64_edge(n, rmax, r) + draw(st.sampled_from([-1, 0, 1, 2 ** 31]))
        rows = [list(row) for row in draw(small)]
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = edge
        gammas.insert(draw(st.integers(0, len(gammas))), IntegerMatrix(rows))
    gammas = draw(st.permutations(gammas))
    return inst, gammas


def _decidable(inst, gammas):
    """True when the batch must answer: Q rational, t and thr rational, and
    every entry within the int64 bound."""
    t = inst.target
    if not t.is_rational or (not inst.exact and inst._rational_threshold is None):
        return False
    rmax = max(abs(x) for row in inst.q.tilde.rows for x in row)
    gmax = max((abs(x) for g in gammas for row in g.rows for x in row), default=0)
    return fits_int64(inst.n, gmax, rmax, int(t.rational))


@settings(max_examples=200, deadline=None)
@given(case=batch_cases(), batch=st.sampled_from([1, 3, 4096]))
def test_batch_equals_the_scalar_check(case, batch):
    inst, gammas = case
    with mock.patch.object(enumeration, "BATCH", batch):
        mask = verify_batch(inst, gammas)
    # None exactly when an entry cannot be decided in int64
    assert (mask is not None) == _decidable(inst, gammas)
    if mask is not None:
        assert mask == [entry_part(inst, g) for g in gammas]
        for ok, g in zip(mask, gammas):
            divisors = (determinantal_divisor_oracle(g.rows, 1) == 1
                        and determinantal_divisor_oracle(g.rows, 2) == inst.b)
            assert verify_membership(inst, g) == (divisors and ok)


def test_the_batch_checks_the_entries_only():
    # S(I3, 3, 3) against (I3, 27, 1): same t = 9, Delta_2 = 3 instead of 1
    only_delta2 = _solutions(I3, 3, 3, None)[0]
    inst = CountingInstance(I3, 27, 1)
    assert verify_batch(inst, [only_delta2]) == [True]
    assert not verify_membership(inst, only_delta2)
    # columns (1, 2, 2), (2, 1, -2), (2, -2, 1) at (I3, 3, 3) are a member;
    # swapping two entries of the last column breaks two off-diagonal
    # entries but no diagonal one
    member = IntegerMatrix.from_columns([(1, 2, 2), (2, 1, -2), (2, -2, 1)])
    off = IntegerMatrix.from_columns([(1, 2, 2), (2, 1, -2), (-2, 2, 1)])
    inst = CountingInstance(I3, 3, 3)
    assert [verify_membership(inst, g) for g in (member, off)] == [True, False]
    assert verify_batch(inst, [member, off]) == [True, False]


def test_error_bound_is_inclusive():
    # (I2, 1, 1, M = 2): t = 1, thr = 1; gamma^T gamma = [[1, 1], [1, 2]]
    # misses t I by exactly the threshold in two entries
    inst = CountingInstance(I2, 1, 1, big_m=2)
    gamma = IntegerMatrix([[1, 1], [0, 1]])
    assert verify_membership(inst, gamma)
    assert verify_batch(inst, [gamma]) == [True]
    inst = CountingInstance(I2, 1, 1, big_m=2, error_constant=Fraction(99, 100))
    assert verify_batch(inst, [gamma]) == [verify_membership(inst, gamma)] == [False]


def test_huge_threshold_is_clamped():
    # den thr = 10^1300 / 9 exceeds int64: every matrix within the guard
    # passes its entries, as the exact comparison says
    inst = CountingInstance(I3, 3, 3, big_m=4, error_constant=10 ** 1300)
    gammas = [IntegerMatrix([[5, 1, 0], [0, 7, 1], [1, 0, 9]]), IntegerMatrix.diagonal([1] * 3)]
    assert verify_batch(inst, gammas) == [True, True]


def test_a_wrapping_product_is_refused():
    # columns (2^32, 1, 0), (1, -2^32, 0), (0, 0, 1) at (I3, 1, 1): in int64
    # gamma^T gamma wraps to I3, its true diagonal is 2^64 + 1
    big = 2 ** 32
    gamma = IntegerMatrix.from_columns([(big, 1, 0), (1, -big, 0), (0, 0, 1)])
    inst = CountingInstance(I3, 1, 1)
    assert not verify_membership(inst, gamma)
    assert verify_batch(inst, [gamma]) is None
    assert verify_batch(inst, [IntegerMatrix.diagonal([1] * 3), gamma]) is None


def test_members_at_the_int64_edge():
    # [[x, -y], [y, x]] lies in S(I2, 1, x^2 + y^2) whenever gcd(x, y) = 1;
    # at x = the guard's edge the batch answers, one past it it refuses
    for x, decided in ((1239850262, True), (1239850263, False)):
        gamma = IntegerMatrix([[x, -(x - 1)], [x - 1, x]])
        inst = CountingInstance(I2, 1, x * x + (x - 1) ** 2)
        assert verify_membership(inst, gamma)
        assert verify_batch(inst, [gamma]) == ([True] if decided else None)


def test_undecidable_instances_return_none():
    gamma = IntegerMatrix.diagonal([1] * 3)
    # t = 4^(2/3) is irrational
    assert verify_batch(CountingInstance(I3, 1, 2), [gamma]) is None
    # thr = 27^(1/6) is irrational
    assert verify_batch(CountingInstance(I3, 3, 3, big_m=Fraction(3, 2)), [gamma]) is None
    spec = RadicalFieldSpec(3, [27])
    sym = SymbolicSymMatrix([[spec.from_rational(int(i == j)) for j in range(3)]
                             for i in range(3)], spec)
    assert verify_batch(CountingInstance(sym, 3, 3), [gamma]) is None
    assert verify_batch(CountingInstance(I3, 3, 3), [IntegerMatrix.diagonal([1] * 2)]) is None
    assert verify_batch(CountingInstance(I3, 3, 3), []) == []


@pytest.mark.parametrize("q_prime, flagged", [
    (RationalSymMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), True),
    # 2 I3 is a multiple of I3: gamma^T (2 I3) gamma = t (2 I3) for each
    (RationalSymMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), False),
])
def test_entry_pass_against_another_q(q_prime, flagged):
    sols = _solutions(I3, 3, 3, None)
    inst = CountingInstance(q_prime, 3, 3)
    mask = verify_batch(inst, sols)
    assert len(mask) == len(sols) == 192
    assert mask == [not flagged] * len(sols)
    assert mask == [verify_membership(inst, g) for g in sols]
