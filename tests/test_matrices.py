import itertools
import json
import math
import operator
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
    smith_normal_form,
)
from isocount.radicals import FieldElement, RadicalFieldSpec
from isocount.serialize import (
    integer_matrix_from_json,
    matrix_to_json,
    rational_sym_matrix_from_json,
)

from oracles import gcd_minors


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


def test_snf_identity():
    i3 = IntegerMatrix.identity(3)
    u, d, v = smith_normal_form(i3)
    assert (u, d, v) == (i3, i3, i3)


def test_snf_diag_2_6():
    m = IntegerMatrix.diagonal([2, 6])
    u, d, v = smith_normal_form(m)
    assert u.matmul(d).matmul(v) == m
    assert (d[0, 0], d[1, 1]) == (2, 6)


def test_snf_random_structure():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        m = random_matrix(rng, n)
        u, d, v = smith_normal_form(m)
        assert u.matmul(d).matmul(v) == m
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d[i, i] for i in range(n)]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or b % a == 0
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(m.det())


def test_snf_deterministic():
    m = IntegerMatrix([[4, 6, 2], [2, 8, 10], [6, 6, 6]])
    assert smith_normal_form(m) == smith_normal_form(m)


def test_divisor_identity_and_prime_diag():
    i4 = IntegerMatrix.identity(4)
    for j in range(1, 5):
        assert determinantal_divisor(i4, j) == 1
    assert determinantal_divisor(IntegerMatrix.diagonal([1, 7]), 2) == 7


def test_divisor_index_errors():
    m = IntegerMatrix.identity(2)
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


def test_divisor_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice([2, 3])
        m = random_matrix(rng, n, -9, 9)
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        m2 = u.matmul(m).matmul(v)
        assert determinantal_divisors(m) == determinantal_divisors(m2)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
@settings(max_examples=60, deadline=None)
def test_snf_2x2_hypothesis(a, b, c, d):
    m = IntegerMatrix([[a, b], [c, d]])
    u, dd, v = smith_normal_form(m)
    assert u.matmul(dd).matmul(v) == m
    assert dd[0, 1] == dd[1, 0] == 0
    assert gcd_minors(m.rows, 1) == dd[0, 0]


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


def test_minor_set_all_pairs_flag():
    q = RationalSymMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])
    principal = q.minor_set()
    widened = q.minor_set(all_pairs=True)
    assert principal <= widened


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
    assert reg.contains(q) and reg.contains_inner(q)
    near = RationalSymMatrix([[Fraction(5, 4), 0], [0, 1]])
    assert reg.contains(near)
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


@st.composite
def few_huge_matrices(draw):
    """Small entries with at most two huge ones: the U and V of
    `smith_normal_form` grow by about the size of a huge entry per round,
    and a block of several of them takes seconds of rounds."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(huge_entries)
    return rows


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


@settings(max_examples=60, deadline=None)
@given(rows=few_huge_matrices())
def test_divisors_are_the_running_products_of_the_smith_diagonal(rows):
    # the pass that builds U and V and the one that does not share one
    # loop; both must give the same invariant factors
    m = IntegerMatrix(rows)
    _, d, _ = smith_normal_form(m)
    assert determinantal_divisors(m) == tuple(
        itertools.accumulate((d[i, i] for i in range(m.n)), operator.mul))
