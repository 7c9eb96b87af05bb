import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocount.errors import DomainError
from isocount.matrices import (
    IntegerMatrix,
    RationalSymMatrix,
    Region,
    bilinear,
    congruence,
    denominator,
    determinantal_divisor,
    determinantal_divisor_oracle,
    determinantal_divisors,
    is_q_good,
)
from isocount.radicals import FieldElement, RadicalFieldSpec
from isocount.serialize import (
    integer_matrix_from_json,
    matrix_to_json,
    rational_sym_matrix_from_json,
)


def matmul(a, b):
    n = a.n
    return IntegerMatrix(
        [[sum(a[i, k] * b[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


def random_matrix(rng, n, lo=-20, hi=20):
    return IntegerMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_unimodular(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return IntegerMatrix(m)


def test_divisor_identity_and_prime_diag():
    i4 = IntegerMatrix.diagonal([1] * 4)
    for j in range(1, 5):
        assert determinantal_divisor(i4, j) == 1
    assert determinantal_divisor(IntegerMatrix.diagonal([1, 7]), 2) == 7
    assert determinantal_divisors(IntegerMatrix.diagonal([2, 6])) == (2, 12)


def test_divisor_index_errors():
    m = IntegerMatrix.diagonal([1] * 2)
    with pytest.raises(DomainError):
        determinantal_divisor(m, 0)
    with pytest.raises(DomainError):
        determinantal_divisor(m, 3)


def test_divisor_oracle_agreement_500():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.choice([3, 4])
        m = random_matrix(rng, n)
        for j in range(1, n + 1):
            assert determinantal_divisor(m, j) == determinantal_divisor_oracle(m.rows, j)


def test_divisor_chain_law():
    # log-convexity of the divisor sequence: Delta_{j+1}^2 | Delta_j * Delta_{j+2}
    # (the successive quotients are the elementary divisors, which increase
    # under divisibility)
    rng = random.Random(5)
    for _ in range(100):
        n = rng.choice([3, 4])
        m = random_matrix(rng, n, -9, 9)
        ds = determinantal_divisors(m)
        for j in range(n - 2):
            if ds[j + 1]:
                assert (ds[j] * ds[j + 2]) % (ds[j + 1] ** 2) == 0
        # invariant factors: every Delta_j >= 0, Delta_j | Delta_{j+1},
        # and Delta_n = |det|
        assert all(d >= 0 for d in ds)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(ds, ds[1:]))
        assert ds[-1] == abs(m.det())


def test_divisor_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice([2, 3])
        m = random_matrix(rng, n, -9, 9)
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        m2 = matmul(matmul(u, m), v)
        assert determinantal_divisors(m) == determinantal_divisors(m2)


def test_denominator():
    assert denominator([[1, 2], [2, 1]]) == 1
    q = RationalSymMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    assert q.den == 2
    rng = random.Random(3)
    for _ in range(50):
        entries = [[Fraction(rng.randint(1, 9), rng.randint(1, 50)) for _ in range(2)] for _ in range(2)]
        d = denominator(entries)
        assert all((x * d).denominator == 1 for row in entries for x in row)
        for p in {f for f in range(2, d + 1) if d % f == 0 and all(f % k for k in range(2, f))}:
            sub = Fraction(d, p)
            assert any((x * sub).denominator != 1 for row in entries for x in row)


def test_minor_set():
    assert RationalSymMatrix.identity(3).minor_set() == frozenset({1})
    assert RationalSymMatrix([[2, 1], [1, 3]]).minor_set() == frozenset({5})
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3])
        diag = [rng.randint(3, 9) for _ in range(n)]
        e = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        e[0][1] = e[1][0] = rng.randint(-2, 2)
        q = RationalSymMatrix(e)
        assert all(d > 0 for d in q.minor_set())


def test_q_goodness():
    i2 = RationalSymMatrix.identity(2)
    assert is_q_good(7, i2)
    assert not is_q_good(5, i2)
    assert not is_q_good(2, RationalSymMatrix([[2, 0], [0, 2]]))
    for p in (3, 7, 11, 19, 23, 31, 43):
        assert is_q_good(p, i2) == (p % 4 == 3)
    for p in (5, 13, 17, 29, 37, 41):
        assert not is_q_good(p, i2)


def test_sym_matrix_validation():
    with pytest.raises(DomainError):
        RationalSymMatrix([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(DomainError):
        RationalSymMatrix([[1, 2], [2, 1]])  # not positive definite
    with pytest.raises(DomainError):
        IntegerMatrix([[1, 2, 3]])  # not square


def test_region():
    q = RationalSymMatrix.identity(2)
    reg = Region.box_around(q, Fraction(1, 4))
    assert reg.box_contains_entries(q.entries) and reg.contains_inner(q)
    near = RationalSymMatrix([[Fraction(5, 4), 0], [0, 1]])
    assert reg.box_contains_entries(near.entries)
    assert not reg.contains_inner(near)  # on the outer boundary
    with pytest.raises(DomainError):
        Region([[0, 0], [0, 0]], [[0, 1], [1, 1]])  # zero-width side


def test_json_round_trip():
    m = IntegerMatrix([[3, -4, 0], [4, 3, 0], [0, 0, 5]])
    j = matrix_to_json(m)
    assert integer_matrix_from_json(json.loads(json.dumps(j))) == m
    q = RationalSymMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(7, 6)]])
    j = matrix_to_json(q)
    assert j["entries"][0][1] == "1/2"
    assert rational_sym_matrix_from_json(json.loads(json.dumps(j))) == q


K3 = RadicalFieldSpec(3, [2])
ENTRY_KINDS = {
    "int": st.integers(-5, 5),
    "fraction": st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    "cubic": st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(
        lambda c: FieldElement(K3, dict(zip(K3.monomials(), c)))
    ),
}


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(ENTRY_KINDS)), n=st.integers(1, 4), data=st.data())
def test_congruence_is_the_naive_triple_sum(kind, n, data):
    # G^T A G over Z, Q and Q(2^(1/3)) against sum_kl g_ki a_kl g_lj, and
    # each entry against bilinear on the columns of G
    upper = {(i, j): data.draw(ENTRY_KINDS[kind]) for i in range(n) for j in range(i, n)}
    a = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    g = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    got = congruence(a, g)
    cols = [[g[k][j] for k in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            naive = sum(g[k][i] * a[k][l] * g[l][j] for k in range(n) for l in range(n))
            assert got[i][j] == naive
            assert bilinear(a, cols[i], cols[j]) == naive


HUGE = 10 ** 400
huge_entries = st.one_of(st.sampled_from([10 ** 12, -(10 ** 100), HUGE, -HUGE]),
                         st.integers(-HUGE, HUGE))
divisor_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.integers(-9, 9), huge_entries),
                                min_size=n, max_size=n), min_size=n, max_size=n)
)


def brute_divisor(rows, j):
    """gcd of every j x j minor, each a Leibniz sum over permutations."""
    n = len(rows)
    g = 0
    for rsel in itertools.combinations(range(n), j):
        for csel in itertools.combinations(range(n), j):
            minor = 0
            for perm in itertools.permutations(range(j)):
                inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:])
                minor += (-1) ** inversions * math.prod(
                    rows[rsel[k]][csel[perm[k]]] for k in range(j))
            g = math.gcd(g, minor)
    return g


@settings(max_examples=100, deadline=None)
@given(rows=divisor_matrices)
def test_divisor_closed_forms_are_the_gcd_of_all_minors(rows):
    # the oracle's Delta_1 (gcd of the entries) and Delta_2 (gcd of the
    # a d - b c), and the Smith diagonal's first two running products,
    # against the minors themselves
    deltas = determinantal_divisors(IntegerMatrix(rows))
    for j in range(1, min(2, len(rows)) + 1):
        want = brute_divisor(rows, j)
        assert determinantal_divisor_oracle(rows, j) == want
        assert deltas[j - 1] == want


@settings(max_examples=100, deadline=None)
@given(rows=divisor_matrices)
def test_smith_diagonal_agrees_with_the_oracle_on_mixed_magnitudes(rows):
    # any number of huge entries beside small ones, every j <= n
    deltas = determinantal_divisors(IntegerMatrix(rows))
    for j in range(1, len(rows) + 1):
        assert deltas[j - 1] == determinantal_divisor_oracle(rows, j)
