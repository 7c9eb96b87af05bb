import math
import random
from fractions import Fraction

import pytest

from isocount import bounds
from isocount.bounds import (
    SpectralParameters,
    basic_estimate,
    c_function_norm,
    convexity_exponent,
    delta_calculator,
    laplace_eigenvalue,
    minimal_legal_parameters,
)
from isocount.errors import DomainError


def test_laplace_examples():
    assert laplace_eigenvalue(SpectralParameters((0, 0))) == Fraction(1, 4)
    assert laplace_eigenvalue(SpectralParameters((0, 0, 0))) == 1
    assert laplace_eigenvalue(SpectralParameters((3, -3))) == Fraction(37, 4)
    with pytest.raises(DomainError):
        SpectralParameters((1, 2))


def test_laplace_comparable_to_norm_squared():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        mu = [Fraction(rng.randint(-100, 100)) for _ in range(n - 1)]
        mu.append(-sum(mu))
        if max(abs(x) for x in mu) > 100:
            continue
        lam = laplace_eigenvalue(SpectralParameters(tuple(mu)))
        norm2 = 1 + sum(x * x for x in mu)
        ratio = Fraction(lam) / norm2
        assert Fraction(1, 24) <= ratio <= 2, (mu, ratio)


def test_c_norm_examples():
    assert c_function_norm((Fraction(1, 2), Fraction(-1, 2))) == 2
    assert c_function_norm((7, 7, 7)) == 1
    assert c_function_norm((1, 0, -1)) == 12


def test_convexity_exponent():
    assert convexity_exponent(2) == Fraction(1, 4)
    assert convexity_exponent(3) == Fraction(3, 4)
    assert convexity_exponent(4) == Fraction(3, 2)
    with pytest.raises(DomainError):
        convexity_exponent(1)


def test_delta_positive_all_n_minimal_parameters():
    for n in range(2, 9):
        res = delta_calculator(n)
        assert res.delta > 0
        assert res.crossover_gap == 0
        assert res.condition_n and res.condition_d
        # exact rational arithmetic end to end
        assert isinstance(res.delta, Fraction) and isinstance(res.eta, Fraction)


def test_delta_closed_form_at_unit_parameters():
    # with D1 = D2 = M = 1 both E values collapse to 1 and the crossing is
    # eta/2 = 1/(n(n-1)) - eta (n^3 + 1/2)
    for n in (2, 3, 5):
        res = delta_calculator(n)
        eta = res.eta
        assert eta / 2 == Fraction(1, n * (n - 1)) - eta * (n ** 3 + Fraction(1, 2))
        assert res.delta_squared_side == eta / 2
        assert res.delta == eta / 4


def test_delta_monotone_in_m():
    small = delta_calculator(2, big_m=10, allow_violations=True).delta
    large = delta_calculator(2, big_m=10 ** 4, allow_violations=True).delta
    assert large < small


def test_delta_respects_conditions():
    with pytest.raises(DomainError):
        delta_calculator(3, d1=2, d2=2, big_m=100)
    res = delta_calculator(3, d1=2, d2=2, big_m=100, allow_violations=True)
    assert not res.condition_d
    assert res.delta > 0


def test_delta_legal_large_parameters():
    n = 2
    d1 = Fraction(2)
    d2 = d1 ** 3
    big_m = bounds.C1 * d1 ** 3 * d2 ** 4
    res = delta_calculator(n, d1=d1, d2=d2, big_m=big_m)
    assert res.condition_n and res.condition_d and res.delta > 0
    assert res.e_min == d1 * d2 * d1
    assert res.e_max == (d1 * d2) ** 3 * d1 ** 3


def test_minimal_legal_parameters():
    d1, d2, m = minimal_legal_parameters(3)
    assert (d1, d2, m) == (1, 1, 1)


def test_basic_estimate_terms():
    rep = basic_estimate(Fraction(2), Fraction(2), 2, 1, {(1, 2, 2): 1}, 2)
    t1 = 4.0
    t2 = 4.0 * 2.0 ** (-2 * 0.5) * 2.0 ** 9
    t3 = 4.0 * 0.5
    assert abs(rep.total - (t1 + t2 + t3)) < 1e-9
    assert rep.dominant == "spectral"


def test_basic_estimate_zero_counts():
    rep = basic_estimate(Fraction(100), Fraction(5), 4, 10 ** 9, {}, 3)
    assert rep.term_counting == 0.0
    assert rep.dominant == "spectral"
    with pytest.raises(DomainError):
        basic_estimate(Fraction(100), Fraction(5), 4, 0, {}, 3)


def test_basic_estimate_monotone_in_counts():
    base = {(1, 3, 5): 5}
    more = {(1, 3, 5): 50}
    a = basic_estimate(Fraction(100), Fraction(5), 4, 10, base, 3)
    b = basic_estimate(Fraction(100), Fraction(5), 4, 10, more, 3)
    assert b.total >= a.total


def test_basic_estimate_delta_consistency():
    rep = basic_estimate(Fraction(10 ** 6), Fraction(3), 8, 10 ** 3, {(1, 3, 5): 2}, 3)
    # the achieved exponent is recomputable from the term-wise maxima
    terms = [rep.term_diagonal, rep.term_spectral, rep.term_counting]
    recomputed = math.log(sum(terms)) / math.log(float(rep.inv_c_norm))
    assert abs(recomputed - rep.achieved_exponent) < 1e-12
    assert abs(rep.delta_achieved - (2 - recomputed)) < 1e-12
