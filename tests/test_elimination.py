"""Properties of the exact elimination kernel (Echelon, solve) over Q and
over the radical field Q(2^(1/2), 3^(1/2)), checked against the Leibniz
expansion and brute-force minor ranks, and of the Bareiss integer
determinant `_int_det`, checked against the Leibniz expansion."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isocount.errors import DomainError
from isocount.matrices import Echelon, _int_det, ldl, solve
from isocount.radicals import FieldElement, RadicalFieldSpec

K = RadicalFieldSpec(2, (2, 3))
K3 = RadicalFieldSpec(3, [2])
MONOMIALS = K.monomials()

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
# zero about one time in four, so pivots move and rows go dependent
field_elements = st.tuples(
    st.integers(0, 3),
    st.lists(st.integers(-2, 2), min_size=len(MONOMIALS), max_size=len(MONOMIALS)),
).map(lambda t: FieldElement(K, dict(zip(MONOMIALS, t[1])) if t[0] else {}))


@st.composite
def square_matrices(draw, entries, max_n=4):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # a row proportional to another, so singular input is common
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(entries)
        rows[i] = [c * x for x in rows[j]]
    return rows


def leibniz(rows):
    n = len(rows)
    total = rows[0][0] * 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = set()
        for start in range(n):  # each cycle of length L contributes (-1)^(L-1)
            k = start
            length = 0
            while k not in seen:
                seen.add(k)
                k = perm[k]
                length += 1
            if length and length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def minor_rank(rows):
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    for k in range(min(m, ncols), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(ncols), k):
                if leibniz([[rows[r][c] for c in csel] for r in rsel]):
                    return k
    return 0


def check_solve(rows, rhs):
    x = solve(rows, rhs)
    if leibniz(rows):
        assert x is not None
        for row, b in zip(rows, rhs):
            assert sum((a * xi for a, xi in zip(row, x)), rows[0][0] * 0) == b
    else:
        assert x is None


def check_rref_shuffle(rows, perm):
    a = Echelon()
    b = Echelon()
    for row in rows:
        a.add(row)
    for i in perm:
        b.add(rows[i])
    assert a.rref() == b.rref()


def check_add_tracks_rank(rows):
    ech = Echelon()
    for k, row in enumerate(rows):
        assert ech.add(row) == (minor_rank(rows[: k + 1]) > minor_rank(rows[:k]))
    assert len(ech.rows) == minor_rank(rows)


@settings(max_examples=80, deadline=None)
@given(square_matrices(st.integers(-9, 9)))
def test_int_det_is_leibniz(rows):
    assert _int_det(rows) == leibniz(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_over_q(data):
    rows = data.draw(square_matrices(fractions))
    rhs = data.draw(st.lists(fractions, min_size=len(rows), max_size=len(rows)))
    check_solve(rows, rhs)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_solve_over_field(data):
    rows = data.draw(square_matrices(field_elements))
    rhs = data.draw(st.lists(field_elements, min_size=len(rows), max_size=len(rows)))
    check_solve(rows, rhs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_ignores_row_order_over_q(data):
    rows = data.draw(square_matrices(fractions))
    check_rref_shuffle(rows, data.draw(st.permutations(range(len(rows)))))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_rref_ignores_row_order_over_field(data):
    rows = data.draw(square_matrices(field_elements))
    check_rref_shuffle(rows, data.draw(st.permutations(range(len(rows)))))


@settings(max_examples=60, deadline=None)
@given(square_matrices(fractions))
def test_add_keeps_row_exactly_when_rank_rises_over_q(rows):
    check_add_tracks_rank(rows)


@settings(max_examples=15, deadline=None)
@given(square_matrices(field_elements))
def test_add_keeps_row_exactly_when_rank_rises_over_field(rows):
    check_add_tracks_rank(rows)


def test_field_zero_is_falsy():
    assert bool(K.zero()) is False
    assert bool(K.one()) is True
    assert bool(K.root_of(2) - K.root_of(2)) is False


def cubic_elements(lo, hi, r):
    """a + b 2^(1/3) + c 2^(2/3) with lo <= a <= hi and |b|, |c| <= r."""
    return st.tuples(st.integers(lo, hi), st.integers(-r, r), st.integers(-r, r)).map(
        lambda t: K3.from_rational(t[0]) + K3.root_of(2) * t[1] + K3.root_of(4) * t[2]
    )


@st.composite
def symmetric_cubic_matrices(draw):
    n = draw(st.integers(2, 3))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        # diagonal leaning positive, so definite and indefinite both occur
        rows[i][i] = draw(cubic_elements(-1, 8, 2))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(cubic_elements(-1, 1, 1))
    return rows


@settings(max_examples=40, deadline=None)
@given(symmetric_cubic_matrices())
def test_ldl_is_sylvester_over_a_cubic_field(rows):
    n = len(rows)
    definite = all(
        leibniz([r[:k] for r in rows[:k]]).sign() == 1 for k in range(1, n + 1)
    )
    try:
        d, u = ldl(rows)
    except DomainError:
        assert not definite
        return
    assert definite
    # rows = U^T diag(d) U
    for i in range(n):
        for j in range(n):
            entry = sum((u[k][i] * d[k] * u[k][j] for k in range(n)), K3.zero())
            assert entry == rows[i][j]
