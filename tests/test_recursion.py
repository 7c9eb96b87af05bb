from fractions import Fraction

import pytest

from isocount import xchg
from isocount.arith import interval_of
from isocount.enumeration import DEFAULT_BUDGET
from isocount.errors import DomainError
from isocount.matrices import RationalSymMatrix
from isocount.errors import ResourceBudgetError
from isocount.recursion import (
    EnumCache,
    PairCase,
    classify_pair,
    inner_chain,
    outer_chain,
    proposition_driver,
)

I2 = RationalSymMatrix.identity(2)
I3 = RationalSymMatrix.identity(3)


def cache(q):
    """The cache of a driver on q at M = infinity, the default node budget
    and one worker."""
    return EnumCache(q, None, DEFAULT_BUDGET, 1)


@pytest.fixture(scope="module")
def cert_n3():
    return proposition_driver(I3, 3, 1, 1, pair_cap=16)


def test_classify_examples():
    assert classify_pair(3, 5, 1, 3) is PairCase.CASE1
    assert classify_pair(3, 5, 3, 3) is PairCase.CASE2
    assert classify_pair(3, 3, 1, 3) is PairCase.CASE3
    assert classify_pair(3, 3, 2, 3) is PairCase.CASE3
    assert classify_pair(3, 5, 1, 2) is PairCase.CASE2
    with pytest.raises(DomainError):
        classify_pair(3, 5, 4, 3)


def test_interval_math():
    assert interval_of(3, 1) == (3, 6)
    assert interval_of(3, 2) == (3, 18)
    assert interval_of(Fraction(5, 2), 2) == (3, 12)
    with pytest.raises(DomainError):
        interval_of(2, 1)


def test_outer_chain_n2_trivial():
    out = outer_chain(cache(I2), 3, 1, 1, None)
    assert out.stabilization == 0
    assert out.dims() == [3, 3]
    # all solution sets are empty at n = 2, so the space never shrinks
    assert not out.levels[0].subspace.generator_rows


def test_outer_chain_n3():
    out = outer_chain(cache(I3), 3, 1, 1, [1, 2])
    assert out.stabilization == 0
    dims = out.dims()
    assert all(a >= b for a, b in zip(dims, dims[1:]))
    # stabilized level contained in its predecessor, exactly
    assert out.levels[0].subspace.contains_subspace(out.levels[1].subspace)


def test_inner_chain_rational_fields():
    chain, history = inner_chain(cache(I3), 3, 1, [1, 2])
    assert chain.stabilization < 6
    for lv in chain.levels:
        assert lv.field_rational
        assert lv.q_matrix.rational
    assert history[0]["good_filter"] is None
    if len(history) > 1:
        assert history[1]["good_filter"] is not None


def test_driver_certificate_n3(cert_n3):
    cert = cert_n3
    assert 0 <= cert.i < 6 and 0 <= cert.k < 6
    assert cert.den_q_star >= 1
    assert cert.prime_set  # the window [3, 6] holds the good prime 3
    assert all(p % 4 == 3 for p in cert.prime_set)
    sded = [v for v in cert.verdicts if v.skipped is None]
    assert sded
    assert all(v.containment_ok for v in sded)
    assert all(v.envelope_ok for v in sded)
    # case-1 pairs have certified zero counts
    for v in sded:
        if v.case == "CASE1":
            assert v.count == 0 and v.prime_count == 0


def test_driver_certificate_reproducible():
    a = proposition_driver(I3, 3, 1, 1, nu_values=[1], pair_cap=8).to_bytes()
    b = proposition_driver(I3, 3, 1, 1, nu_values=[1], pair_cap=8).to_bytes()
    assert a == b


def test_driver_n2():
    cert = proposition_driver(I2, 3, 1, 1, pair_cap=8)
    assert cert.i == 0 and cert.k == 0
    assert all(v.count == 0 for v in cert.verdicts if v.skipped is None)
    assert cert.condition_n and cert.condition_d  # M = inf, D1 = D2 = 1


def test_driver_flags_parameter_violations():
    # M = 3 < C1 D1^3 D2^4 = 16 at D1 = 1, D2 = 2
    cert = proposition_driver(I2, 3, 1, 2, big_m=Fraction(3), pair_cap=4, nu_values=[1])
    assert not cert.condition_n
    assert cert.condition_d


def test_chain_dimensions_weakly_decreasing(cert_n3):
    cert = cert_n3
    for dims in (cert.outer_dims, cert.inner_dims):
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert len(dims) <= 7


def test_pair_budget_guard(monkeypatch):
    monkeypatch.setattr(xchg, "DEFAULT_PAIR_BUDGET", 10)
    with pytest.raises(ResourceBudgetError):
        outer_chain(cache(I2), 3, 2, 4, None)


def test_fractional_d1_d2_product_is_refused_before_the_chain(monkeypatch):
    # proposition_driver(I2, 3, 3/2, 3/2) certified l_cal = 9 = 3^int(9/4)
    # where L^((D1 D2)^(i+1)) = 3^(9/4) is no rational number
    import isocount.recursion as recursion

    def outer_chain_must_not_run(*args, **kwargs):
        raise AssertionError("outer chain ran")

    monkeypatch.setattr(recursion, "outer_chain", outer_chain_must_not_run)
    with pytest.raises(DomainError):
        proposition_driver(I2, 3, Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(DomainError):
        proposition_driver(I2, 3, Fraction(1, 2), 3)


def test_inner_chain_refuses_a_wide_window_before_listing_its_pairs(monkeypatch):
    # level 0 at L = 1000 has 135 primes: every pair (p, q, nu) of the
    # window was listed before the pair budget was checked
    import isocount.recursion as recursion

    visits = []

    class CountingPrimes(list):
        def __iter__(self):
            for p in list.__iter__(self):
                visits.append(p)
                yield p

    real = recursion.primes_in_range
    monkeypatch.setattr(recursion, "primes_in_range", lambda lo, hi: CountingPrimes(real(lo, hi)))
    monkeypatch.setattr(xchg, "DEFAULT_PAIR_BUDGET", 10)
    with pytest.raises(ResourceBudgetError, match="more than its budget of 10 pairs"):
        inner_chain(cache(I3), Fraction(1000), 1, None)
    assert len(visits) <= 11
