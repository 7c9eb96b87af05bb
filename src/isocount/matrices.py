"""Exact integer/rational matrix primitives.

The exact elimination kernel (`Echelon`, with `solve` on top),
the bilinear forms x^T A y and G^T A G (`bilinear`, `congruence`),
determinantal divisors, denominators, 2x2 minor sets and the
quadratic-residue goodness test for primes.  No floating point anywhere;
entries are Python ints, Fractions or, for the elimination kernel and the
bilinear forms, radical-field elements.  The one int64 guard for the
numpy passes over stacks of integer matrices (`fits_int64`, `int64_stack`)
lives here too, so every such pass proves its bound the same way.
"""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .arith import kronecker
from .errors import DomainError

MAX_DIM = 8


class IntegerMatrix:
    """Immutable square integer matrix of dimension n, 1 <= n <= MAX_DIM."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows)
        if n < 1 or n > MAX_DIM:
            raise DomainError("dimension %d outside supported range 1..%d" % (n, MAX_DIM))
        if any(len(r) != n for r in rows):
            raise DomainError("matrix is not square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("IntegerMatrix is immutable")

    def __reduce__(self):
        return (IntegerMatrix, (self.rows,))

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols):
        n = len(cols)
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntegerMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "IntegerMatrix(%r)" % (self.rows,)

    def det(self):
        return _int_det(self.rows)

    def flat(self):
        return tuple(x for row in self.rows for x in row)

    def entry_gcd(self):
        g = 0
        for x in self.flat():
            g = math.gcd(g, abs(x))
        return g


# numpy passes over stacks of integer matrices form their products in int64
# for at most BATCH matrices at a time
INT64_MAX = 2 ** 63 - 1
BATCH = 4096


def fits_int64(n, gmax, kmax, s):
    """True when gamma^T K gamma - s K is formed exactly in int64 for every
    n x n gamma with entries at most gmax and symmetric K with entries at
    most kmax in absolute value.  Each entry of gamma^T K gamma is a sum of
    n^2 products of size at most gmax^2 kmax (the entries of gamma^T K
    stay below n gmax kmax) and s K adds |s| kmax, so every product and
    partial sum is at most kmax (n^2 gmax^2 + |s|)."""
    return kmax * (n * n * gmax * gmax + abs(s)) <= INT64_MAX


def int64_stack(gammas):
    """(int64 array of the gammas, largest |entry|); (None, 2^63) when an
    entry lies outside int64, which no fits_int64 bound admits."""
    try:
        arr = np.array([gamma.rows for gamma in gammas], dtype=np.int64)
    except OverflowError:
        return None, 2 ** 63
    return arr, max(int(arr.max()), -int(arr.min()))


def _int_det(rows):
    # Bareiss fraction-free elimination; exact for integer input
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class Echelon:
    """Incremental row echelon form over an exact field.

    Rows are kept in arrival order.  Each added row is reduced against the
    rows kept before it and, when something is left, scaled to 1 at its
    pivot (its first nonzero column).  Entries are ints, Fractions or
    radical-field elements: anything with exact field operations whose zero
    is falsy.
    """

    __slots__ = ("rows", "pivots", "leads")

    def __init__(self):
        self.rows = []  # reduced rows, 1 at their pivot, 0 at earlier pivots
        self.pivots = []
        self.leads = []  # pivot value of each kept row before scaling

    def add(self, row):
        """Reduce and keep `row`; True exactly when the rank rises."""
        acc = list(row)
        for erow, piv in zip(self.rows, self.pivots):
            acc = _eliminate(acc, erow, piv)
        piv = next((i for i, x in enumerate(acc) if x), None)
        if piv is None:
            return False
        lead = acc[piv]
        inv = Fraction(1) / lead  # exact for int input too
        self.rows.append([x * inv for x in acc])
        self.pivots.append(piv)
        self.leads.append(lead)
        return True

    def rref(self):
        """(rows, pivots) of the reduced row echelon form, pivots ascending."""
        done = {}
        # a kept row is already 0 at earlier pivots; clear the later ones
        for row, piv in zip(reversed(self.rows), reversed(self.pivots)):
            for p, other in done.items():
                row = _eliminate(row, other, p)
            done[piv] = row
        pivots = sorted(done)
        return [tuple(done[p]) for p in pivots], pivots


def _eliminate(row, other, piv):
    """row minus the multiple of `other` (1 at piv) that clears column piv."""
    f = row[piv]
    if not f:
        return row
    return [a - f * b for a, b in zip(row, other)]


def _dot(u, v):
    return sum(s * t for s, t in zip(u, v) if s and t)


def bilinear(a, x, y):
    """x^T A y, exactly, over ints, Fractions or radical-field elements
    (the int 0 when every term vanishes)."""
    return sum(xi * _dot(row, y) for xi, row in zip(x, a) if xi)


def congruence(a, g):
    """G^T A G for a symmetric A, exactly, over the entries `bilinear`
    takes: the entries i <= j are computed and mirrored."""
    cols = list(zip(*g))
    n = len(cols)
    out = [[0] * n for _ in range(n)]
    for j, y in enumerate(cols):
        ay = [_dot(row, y) for row in a]
        for i in range(j + 1):
            out[i][j] = out[j][i] = _dot(cols[i], ay)
    return out


def solve(a, b):
    """x with a x = b for a square matrix a over an exact field, or None
    exactly when det(a) = 0."""
    n = len(a)
    ech = Echelon()
    for row, rhs in zip(a, b):
        if not ech.add(list(row) + [rhs]) or ech.pivots[-1] == n:
            return None
    rows, _ = ech.rref()
    return [r[n] for r in rows]


# ---------------------------------------------------------------------------
# Determinantal divisors


def determinantal_divisors(gamma):
    """(Delta_1, ..., Delta_n): running products of the Smith diagonal
    d_1 | d_2 | ... | d_n >= 0.

    Row and column steps reduce a working copy W of gamma to that diagonal.
    Pivot rule: smallest absolute value among nonzero entries of the working
    block, ties broken by row-major position.
    """
    n = gamma.n
    w = [list(r) for r in gamma.rows]
    for k in range(n):
        # rows and columns before k are done (zero off the diagonal), so
        # the steps on W touch only the block from (k, k) on
        block = range(k, n)
        while True:
            piv, least = None, 0
            for i in block:
                row = w[i]
                for j in block:
                    x = row[j]
                    if x < 0:
                        x = -x
                    if x and (piv is None or x < least):
                        piv, least = (i, j), x
            if piv is None:
                break  # remaining block is zero
            i, j = piv
            if i != k:
                w[i], w[k] = w[k], w[i]
            if j != k:
                for r in w:
                    r[j], r[k] = r[k], r[j]
            wk = w[k]
            if wk[k] < 0:
                wk = w[k] = [-x for x in wk]
            p = wk[k]
            # each step leaves the remainder mod p behind; any nonzero one
            # is a smaller pivot for the next round
            dirty = False
            for i in range(k + 1, n):
                wi = w[i]
                if wi[k]:
                    q = wi[k] // p
                    for j in block:  # W[i] -= q*W[k]
                        wi[j] -= q * wk[j]
                    dirty = dirty or wi[k] != 0
            for j in range(k + 1, n):
                if wk[j]:
                    q = wk[j] // p
                    for i in block:  # W[:,j] -= q*W[:,k]
                        r = w[i]
                        r[j] -= q * r[k]
                    dirty = dirty or wk[j] != 0
            if dirty:
                continue
            # divisibility: d_k must divide the rest of the block
            offender = next(
                (i for i in range(k + 1, n) if any(w[i][j] % p for j in range(k + 1, n))),
                None,
            )
            if offender is None:
                break
            # fold the offending row into row k and redo
            wo = w[offender]
            for j in block:
                wk[j] += wo[j]
    return tuple(itertools.accumulate((w[i][i] for i in range(n)), operator.mul))


def determinantal_divisor(gamma, j):
    """Delta_j(gamma): gcd of all j-by-j minors, via the Smith diagonal."""
    if not 1 <= j <= gamma.n:
        raise DomainError("index %d outside 1..%d" % (j, gamma.n))
    return determinantal_divisors(gamma)[j - 1]


def determinantal_divisor_oracle(rows, j):
    """Independent gcd-over-all-minors computation (no Smith form).

    Used by post-hoc solution verification and by tests as the oracle side
    of the dual-route check.  The 1x1 and 2x2 minors are taken in closed
    form; larger ones go through `_int_det`.
    """
    n = len(rows)
    if not 1 <= j <= n:
        raise DomainError("index %d outside 1..%d" % (j, n))
    if j == 1:
        return math.gcd(*(x for row in rows for x in row))
    if j == 2:
        pairs = list(itertools.combinations(range(n), 2))
        return math.gcd(*(r[c] * s[d] - r[d] * s[c]
                          for r, s in itertools.combinations(rows, 2) for c, d in pairs))
    g = 0
    for rsel in itertools.combinations(range(n), j):
        for csel in itertools.combinations(range(n), j):
            minor = _int_det([[rows[r][c] for c in csel] for r in rsel])
            g = math.gcd(g, abs(minor))
    return g


# ---------------------------------------------------------------------------
# Rational symmetric positive definite matrices


class RationalSymMatrix:
    """Symmetric positive definite matrix with exact rational entries,
    dimension 1 <= n <= MAX_DIM.

    Caches den(Q), the integralization den(Q)*Q, and the principal 2x2
    minor set of the integralization.
    """

    __slots__ = ("n", "entries", "_den", "_tilde", "_minors")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in r) for r in entries)
        n = len(rows)
        if n < 1 or n > MAX_DIM:
            raise DomainError("dimension %d outside supported range 1..%d" % (n, MAX_DIM))
        if any(len(r) != n for r in rows):
            raise DomainError("matrix is not square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise DomainError("matrix is not symmetric")
        ldl(rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_den", None)
        object.__setattr__(self, "_tilde", None)
        object.__setattr__(self, "_minors", None)

    def __setattr__(self, *a):
        raise AttributeError("RationalSymMatrix is immutable")

    def __reduce__(self):
        return (RationalSymMatrix, (self.entries,))

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalSymMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RationalSymMatrix(%r)" % ([[str(x) for x in r] for r in self.entries],)

    @property
    def den(self):
        if self._den is None:
            object.__setattr__(self, "_den", denominator(self.entries))
        return self._den

    @property
    def tilde(self):
        """den(Q) * Q as an IntegerMatrix."""
        if self._tilde is None:
            d = self.den
            object.__setattr__(
                self,
                "_tilde",
                IntegerMatrix([[int(x * d) for x in r] for r in self.entries]),
            )
        return self._tilde

    def minor_set(self):
        if self._minors is None:
            object.__setattr__(self, "_minors", minor_set(self))
        return self._minors

    def quadratic_value(self, y):
        """y^T Q y as a Fraction."""
        return self.bilinear_value(y, y)

    def bilinear_value(self, x, y):
        return Fraction(bilinear(self.entries, x, y))

    def ldl(self):
        """(d, u) with Q = U^T diag(d) U, U unit upper triangular; see `ldl`."""
        return ldl(self.entries)


def ldl(rows):
    """(d, u) with rows = U^T diag(d) U and U unit upper triangular, for a
    symmetric positive definite matrix over an exact ordered field (Fractions
    or real radical-field elements); DomainError for any other."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    # Sylvester: positive definite iff the pivots run down the diagonal with
    # positive values, the ratios of consecutive leading principal minors
    if ech.pivots != list(range(len(rows))) or any(x <= 0 for x in ech.leads):
        raise DomainError("matrix is not positive definite")
    return ech.leads, ech.rows


def denominator(entries):
    """den(Q): least positive r such that r*Q is integral."""
    return math.lcm(*(Fraction(x).denominator for row in entries for x in row))


def minor_set(q):
    """The principal 2x2 minors (rows = columns = {i, j}) of the
    integralization of Q."""
    t = q.tilde
    return frozenset(t[i, i] * t[j, j] - t[i, j] * t[j, i]
                     for i, j in itertools.combinations(range(q.n), 2))


def is_q_good(p, q):
    """True iff p avoids the diagonal of the integralization and -d is a
    nonresidue mod p for every d in the minor set."""
    t = q.tilde
    return is_good(p, [t[i, i] for i in range(q.n)], q.minor_set())


def is_good(p, diagonal, minors):
    """The goodness test on its data: p divides no diagonal entry and
    (-d | p) = -1 for every minor d, the Kronecker symbol for p = 2."""
    return all(d % p for d in diagonal) and all(kronecker(-d, p) == -1 for d in minors)


class Region:
    """A nested pair of entrywise boxes inside the positive definite cone.

    The outer box describes the working region, the inner box (shrunk by
    MARGIN = 1/16 of each side's width) the region from which reference
    matrices are drawn; every side must have positive width, so the inner
    closure sits strictly inside the outer box.  reference_box(q) is the
    region the exchange and the chains use unless given another.
    """

    __slots__ = ("n", "lower", "upper")
    MARGIN = Fraction(1, 16)

    def __init__(self, lower, upper):
        self.n = len(lower)
        self.lower = tuple(tuple(Fraction(x) for x in r) for r in lower)
        self.upper = tuple(tuple(Fraction(x) for x in r) for r in upper)
        for i in range(self.n):
            for j in range(self.n):
                if self.lower[i][j] >= self.upper[i][j]:
                    raise DomainError("box side [%d][%d] has no positive width" % (i, j))

    @classmethod
    def box_around(cls, q, radius):
        r = Fraction(radius)
        lower = [[x - r for x in row] for row in q.entries]
        upper = [[x + r for x in row] for row in q.entries]
        return cls(lower, upper)

    @classmethod
    def reference_box(cls, q):
        """The box of radius 1/4 around q, whose inner box holds q."""
        return cls.box_around(q, Fraction(1, 4))

    def inner_bounds(self, i, j):
        w = (self.upper[i][j] - self.lower[i][j]) * self.MARGIN
        return self.lower[i][j] + w, self.upper[i][j] - w

    def _in_box(self, entries, inner):
        for i in range(self.n):
            for j in range(self.n):
                if inner:
                    lo, hi = self.inner_bounds(i, j)
                else:
                    lo, hi = self.lower[i][j], self.upper[i][j]
                if not lo <= entries[i][j] <= hi:
                    return False
        return True

    def contains_inner(self, q):
        return self._in_box(q.entries, inner=True)

    def box_contains_entries(self, entries):
        """Outer box test only (no PD test); entries indexable [i][j]."""
        return self._in_box(entries, inner=False)
