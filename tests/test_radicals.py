import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocount.errors import DomainError, PrecisionExhausted, ZeroKernel
from isocount.intervals import precision
from isocount.radicals import (
    BalancedPair,
    FieldElement,
    RadicalFieldSpec,
    distance_to_subspace,
    gram_schmidt,
    is_well_balanced,
    kernel_basis_bounded,
    vec_dot,
)
from oracles import field_norm

K2 = RadicalFieldSpec(3, [2])
K23 = RadicalFieldSpec(3, [2, 3])
Q = RadicalFieldSpec(1, ())


def rand_element(rng, spec, terms=3, den=6):
    mons = spec.monomials()
    return FieldElement(
        spec,
        {e: Fraction(rng.randint(-9, 9), rng.randint(1, den)) for e in rng.sample(mons, terms)},
    )


def test_defining_relation():
    th = K2.root_of(2)
    assert th ** 3 == K2.from_rational(2)
    assert not th.is_rational()
    assert (th ** 3).rational_value() == 2


def test_inverse_telescopes():
    th = K2.root_of(2)
    x = K2.one() + th
    assert x * x.inverse() == K2.one()
    assert x.inverse() * x == K2.one()


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        K2.zero().inverse()


def test_ring_exactness_random():
    rng = random.Random(17)
    for _ in range(60):
        x, y = rand_element(rng, K23), rand_element(rng, K23)
        assert (x + y) - y == x
        if not x.is_zero():
            assert x * x.inverse() == K23.one()
        assert x * y == y * x


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=40, deadline=None)
def test_cube_root_linear_combos_hypothesis(a, b, c):
    th = K2.root_of(2)
    x = a + b * th + c * th * th
    # zero only for the zero combination: a symbolic independence statement
    assert x.is_zero() == (a == b == c == 0)


def test_norm_values():
    th = K2.root_of(2)
    assert field_norm(K2.one() + th) == 3  # x^3 - 2 at -1, negated for odd degree
    assert field_norm(K2.from_rational(Fraction(1, 2))) == Fraction(1, 8)
    assert field_norm(th) == 2


def test_norm_of_integral_elements_at_least_one():
    rng = random.Random(23)
    for _ in range(40):
        z = FieldElement(
            K23, {e: Fraction(rng.randint(-5, 5)) for e in rng.sample(K23.monomials(), 3)}
        )
        if z.is_zero():
            continue
        assert abs(field_norm(z)) >= 1


def test_conjugate_moduli():
    th = K2.root_of(2)
    with precision(128):
        mods = th.conjugate_moduli_intervals()
        assert len(mods) == 3
        for m in mods:
            assert abs(float(m.a) - 2 ** (1 / 3)) < 1e-12
        mods = K2.from_rational(-2).conjugate_moduli_intervals()
        for m in mods:
            assert abs(float(m.a) - 2) < 1e-12


def test_embedding_nesting_with_precision():
    rng = random.Random(31)
    x = rand_element(rng, K23)
    with precision(128):
        a = x.real_interval()
    with precision(256):
        b = x.real_interval()
    assert float(a.a) <= float(b.a) <= float(b.b) <= float(a.b)


def test_sign_and_comparisons():
    th = K2.root_of(2)
    assert th.sign() == 1
    assert (th - 2).sign() == -1
    assert (th - 1).sign() == 1
    assert K2.zero().sign() == 0
    assert th < 2 and th > 1
    # 2^(1/3) vs rational approximations
    assert th > Fraction(5, 4) and th < Fraction(13, 10)


@settings(max_examples=80, deadline=None)
@given(
    x=st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 40),
    y=st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 40),
)
def test_rational_signs_need_no_interval(x, y):
    # a rational element of a degree-3 field is decided from its Fraction
    def no_interval(self):
        raise AssertionError("interval evaluated for a rational element")

    ex, ey = K23.from_rational(x), K23.from_rational(y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldElement, "real_interval", no_interval)
        assert ex.sign() == (x > 0) - (x < 0)
        assert (ex <= ey) == (x <= y) and (ex <= y) == (x <= y)
        assert ex.abs_le(ey) == (abs(x) <= y)


def test_well_balanced_zero_convention():
    ok, cert = is_well_balanced(K2.zero(), 1, 2)
    assert ok and cert.valid


def test_well_balanced_examples():
    th = K2.root_of(2)
    ok, _ = is_well_balanced(th, 1, 2)
    assert ok
    ok, _ = is_well_balanced(K2.from_rational(8), 1, 2)
    assert not ok
    ok, _ = is_well_balanced(K2.from_rational(8), 3, 2)  # boundary equality
    assert ok
    with pytest.raises(DomainError):
        is_well_balanced(th, Fraction(1, 2), 2)


def balanced_random_pair(rng, spec, alpha, bound):
    """A random pair certified alpha-balanced at the given bound."""
    while True:
        mons = spec.monomials()
        num = FieldElement(spec, {rng.choice(mons): Fraction(rng.choice([1, 2, -1, -2]))})
        den = FieldElement(spec, {rng.choice(mons): Fraction(rng.choice([1, 2]))})
        pair = BalancedPair(num, den)
        ok_n, _ = is_well_balanced(pair, alpha, bound)
        if ok_n:
            return pair


def test_well_balanced_closure_laws():
    rng = random.Random(77)
    alpha = Fraction(2)
    bound = Fraction(8)
    for spec in (K2, K23):
        deg = spec.galois_closure_degree()
        for _ in range(100):
            x = balanced_random_pair(rng, spec, alpha, bound)
            y = balanced_random_pair(rng, spec, alpha, bound)
            ok_prod, _ = is_well_balanced(x * y, 2 * alpha, bound)
            assert ok_prod
            ok_sum, _ = is_well_balanced(x + y, (2 * alpha + 1) * deg, bound)
            assert ok_sum
            ok_neg, _ = is_well_balanced(-x, alpha, bound)
            assert ok_neg
            if not x.num.is_zero():
                ok_inv, _ = is_well_balanced(BalancedPair(x.den, x.num), alpha, bound)
                assert ok_inv


def test_gram_schmidt_rational():
    gs = gram_schmidt([(1, 1), (1, 0)], spec=Q)
    vals = [[e.rational_value() for e in v] for v in gs]
    assert vals == [[1, 1], [Fraction(1, 2), Fraction(-1, 2)]]
    assert vec_dot(gs[0], gs[1]).is_zero()


def test_gram_schmidt_orthonormal_unchanged():
    gs = gram_schmidt([(1, 0), (0, 1)], spec=Q)
    assert [[e.rational_value() for e in v] for v in gs] == [[1, 0], [0, 1]]


def test_gram_schmidt_over_radical_field():
    th = K2.root_of(2)
    gs = gram_schmidt([(K2.one(), th), (th, K2.one())], spec=K2)
    assert vec_dot(gs[0], gs[1]).is_zero()


def test_gram_schmidt_dependent_detected():
    with pytest.raises(DomainError):
        gram_schmidt([(1, 2), (2, 4)], spec=Q)


def test_distance_examples():
    res = distance_to_subspace((1, 0), [(1, -1)])
    import math

    assert abs(res.distance[0] - 1 / math.sqrt(2)) < 1e-15
    assert res.distance[0] <= 1 / math.sqrt(2) <= res.distance[1]
    res0 = distance_to_subspace((1, 1), [(1, -1)])
    assert res0.distance_sq.is_zero()
    assert res0.distance == (0.0, 0.0)


def test_distance_envelope_against_pairings():
    rng = random.Random(4)
    for _ in range(30):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        g = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))]
        if all(x == 0 for x in g[0]):
            continue
        res = distance_to_subspace(v, g)
        # dist(v, H) <= C * max_j |<b_j, v>| with C = 1/|b| >= fitted floor
        norm_b = float(sum(x * x for x in g[0])) ** 0.5
        assert res.distance[1] <= (res.max_pairing[1] / norm_b) + 1e-9


def test_kernel_basis_examples():
    basis = kernel_basis_bounded([(0, 0, 0)], spec=Q)
    assert len(basis) == 3
    basis = kernel_basis_bounded([(1, -1)], spec=Q)
    assert [e.rational_value() for e in basis[0]] == [1, 1]
    th = K2.root_of(2)
    rows = [(th, K2.from_rational(-1))]
    basis = kernel_basis_bounded(rows, spec=K2)
    assert len(basis) == 1
    assert vec_dot(rows[0], basis[0]).is_zero()
    for entry in basis[0]:
        assert entry.is_integral()
    with pytest.raises(ZeroKernel):
        kernel_basis_bounded([(1, 0), (0, 1)], spec=Q)


def test_kernel_annihilation_random():
    rng = random.Random(12)
    for _ in range(25):
        rows = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(4)) for _ in range(2)
        ]
        try:
            basis = kernel_basis_bounded(rows, spec=Q)
        except ZeroKernel:
            continue
        for v in basis:
            for r in rows:
                assert vec_dot(r, v).is_zero()


def test_spec_validation():
    with pytest.raises(DomainError):
        RadicalFieldSpec(3, [-2])
    spec = RadicalFieldSpec(3, [Fraction(1, 2)])
    assert spec.primes == (2,)
    th = spec.root_of(Fraction(1, 2))
    assert (th ** 3).rational_value() == Fraction(1, 2)


def test_inverse_telescopes_explicitly():
    # 1/(1 + 2^(1/3)) = (th^2 - th + 1) / 3 since (1 + th)(th^2 - th + 1) = 3
    th = K2.root_of(2)
    closed_form = (th * th - th + 1) / 3
    assert (K2.one() + th).inverse() == closed_form
    assert (K2.one() + th) * closed_form == K2.one()


def test_conjugate_moduli_product_vs_norm():
    rng = random.Random(9)
    for _ in range(15):
        z = FieldElement(
            K23, {e: Fraction(rng.randint(-4, 4)) for e in rng.sample(K23.monomials(), 3)}
        )
        if z.is_zero():
            continue
        with precision(192):
            mods = [(float(m.a), float(m.b)) for m in z.conjugate_moduli_intervals()]
        prod_lo = 1.0
        prod_hi = 1.0
        for lo, hi in mods:
            prod_lo *= lo
            prod_hi *= hi
        n = abs(float(field_norm(z)))
        assert prod_lo * (1 - 1e-9) - 1e-9 <= n <= prod_hi * (1 + 1e-9) + 1e-9
        assert prod_hi >= 1 - 1e-9


def test_rational_operand_takes_the_other_operands_field():
    # a rational element of Q(2^(1/3)) times 3^(1/3) of Q(3^(1/3)) used to be
    # computed with the primes of the first spec and gave 2 * 2^(1/3)
    k3 = RadicalFieldSpec(3, [3])
    two, r3 = K2.from_rational(2), k3.root_of(3)
    expected = {
        "mul": FieldElement(k3, {(1,): 2}),
        "add": FieldElement(k3, {(0,): 2, (1,): 1}),
        "sub": FieldElement(k3, {(0,): 2, (1,): -1}),
        "div": FieldElement(k3, {(2,): Fraction(2, 3)}),
    }
    for x, y, sign in ((two, r3, 1), (r3, two, -1)):
        got = {"mul": x * y, "add": x + y, "sub": (x - y) * sign}
        got["div"] = x / y if sign == 1 else 1 / (x / y)
        for name, value in got.items():
            assert value.spec == k3, name
            assert value == expected[name], name
    assert two > r3 and r3 < two and two >= r3 and r3 <= two
    assert K2.one() < r3 and r3 > K2.one()
    assert two == k3.from_rational(2) and k3.from_rational(2) == two
    assert two != r3 and r3 != two
    th = K2.root_of(2)
    for op in (
        lambda: th * r3, lambda: r3 * th, lambda: th + r3, lambda: r3 - th,
        lambda: th / r3, lambda: th == r3, lambda: th < r3,
    ):
        with pytest.raises(DomainError):
            op()


def _assert_floor(x):
    k = x.floor()
    assert isinstance(k, int)
    assert (x - k).sign() >= 0 and (x - (k + 1)).sign() < 0
    return k


def test_floor_of_exact_integers_and_negatives():
    th = K2.root_of(2)
    assert _assert_floor(th * (th * th)) == 2
    assert _assert_floor(-(th * (th * th))) == -2
    assert _assert_floor(th) == 1 and _assert_floor(-th) == -2
    assert _assert_floor(th * th * 10 ** 40) == 15874010519681994747517056392723082603914
    assert _assert_floor(K2.from_rational(Fraction(-7, 2))) == -4
    assert _assert_floor(K2.zero()) == 0
    # integers too long for the starting precision floor exactly
    assert _assert_floor(K2.from_rational(3 ** 100)) == 3 ** 100
    assert _assert_floor(K2.from_rational(-3 ** 100)) == -3 ** 100
    r2, r3 = K23.root_of(2), K23.root_of(3)
    assert _assert_floor(r2 * r2 * r2 + r3 * r3 * r3 - 5) == 0
    # above the precision cap the floor is refused, not looped on
    with pytest.raises(PrecisionExhausted):
        (th * 10 ** 2000).floor()


def test_rational_floor_is_exact_at_any_size():
    # beyond PREC_CAP bits it was refused with PrecisionExhausted
    assert K2.from_rational(10 ** 1300 + 1).floor() == 10 ** 1300 + 1
    assert K2.from_rational(Fraction(-(10 ** 1300) - 1, 2)).floor() == -(10 ** 1300) // 2 - 1


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    scale=st.sampled_from([1, 7, 10 ** 6, 10 ** 30]),
    shift=st.integers(-50, 50),
)
def test_floor_is_certified(seed, scale, shift):
    x = rand_element(random.Random(seed), K23) * scale + shift
    _assert_floor(x)


def test_rational_elements_hash_as_their_value():
    # all three compare equal, so a set holds one of them (it held three)
    k3 = RadicalFieldSpec(3, [3])
    assert len({K2.from_rational(2), k3.from_rational(2), 2}) == 1
    assert len({Q.from_rational(Fraction(1, 2)), K23.from_rational(Fraction(1, 2)), Fraction(1, 2)}) == 1


# same degree and primes as K2 (2^(1/3)), other radicands: an equal spec
K2_AGAIN = RadicalFieldSpec(3, [4])
HASH_SPECS = (Q, K2, K2_AGAIN, K23, RadicalFieldSpec(2, [2]))
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def representations(draw, value):
    """value (a Fraction, or coefficients over K2's monomials) as an int,
    a Fraction or a field element of one of HASH_SPECS."""
    if isinstance(value, Fraction):
        kind = draw(st.sampled_from(["plain", "element"]))
        if kind == "plain":
            return int(value) if value.denominator == 1 else value
        return draw(st.sampled_from(HASH_SPECS)).from_rational(value)
    return FieldElement(draw(st.sampled_from([K2, K2_AGAIN])), value)


values = st.one_of(
    small_fractions,
    st.lists(small_fractions, min_size=3, max_size=3).map(
        lambda c: dict(zip(K2.monomials(), c))
    ),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), same=st.booleans())
def test_equal_elements_hash_equal(data, same):
    # x == y implies hash(x) == hash(y) across specs and plain numbers; two
    # representations of one value must compare equal
    v = data.draw(values)
    x = data.draw(representations(v))
    y = data.draw(representations(v if same else data.draw(values)))
    try:
        eq = x == y
    except DomainError:
        return  # irrational elements of different fields do not compare
    if same:
        assert eq
    if eq:
        assert hash(x) == hash(y)


def test_coerce_lifts_into_a_field_that_contains_the_element():
    k6 = RadicalFieldSpec(6, [2, 3])
    r = K2.root_of(2)
    lifted = k6.coerce(r)
    assert lifted.spec == k6 and lifted == k6.root_of(4)  # 2^(1/3) = 4^(1/6)
    assert k6.coerce(r * r + 1) == lifted * lifted + 1
    for spec in (RadicalFieldSpec(4, [2]), RadicalFieldSpec(3, [3]), Q):
        with pytest.raises(DomainError):
            spec.coerce(r)
    assert Q.coerce(K2.from_rational(5)) == 5
