"""Exact arithmetic in real radical extensions Q(r_1^(1/n), ..., r_s^(1/n)).

Representation: every radicand is factored and the field is housed in
Q(p^(1/n) : p prime dividing some radicand).  Monomials prod p^(e_p/n) with
0 <= e_p < n form a Q-basis; their independence for distinct primes and
real positive roots is the classical result on fractional powers of
integers, and holding everything in prime-radicand form makes it apply
unconditionally (no multiplicative relations between distinct primes).

Zero tests are symbolic (a normalized coefficient vector is empty);
intervals only ever decide strict inequalities, with precision doubling
from 128 to a 4096-bit cap.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import round_floor, to_int

from .arith import MAX_POWER_BITS, factorize, factorize_fraction
from .errors import DomainError, ResourceBudgetError, ZeroKernel
from .intervals import (
    START_PREC,
    certified_sign,
    iv_fraction,
    iv_nth_root,
    iv_pow_fraction,
    precision,
    refine,
)
from .matrices import Echelon, solve


def euler_phi(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


class RadicalFieldSpec:
    """Degree-n radical extension given by positive rational radicands.

    radicands r_i adjoin the real positive root r_i^(1/n).  Internally the
    field is generated by n-th roots of the primes dividing the radicands;
    each user radicand is a monomial in those times a rational.
    """

    __slots__ = ("degree", "radicands", "primes", "_root_cache")

    def __init__(self, degree, radicands):
        degree = int(degree)
        if degree < 1:
            raise DomainError("degree must be >= 1")
        rads = tuple(Fraction(r) for r in radicands)
        if any(r <= 0 for r in rads):
            raise DomainError("radicands must be positive rationals")
        primes = set()
        for r in rads:
            primes.update(factorize_fraction(r))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "radicands", rads)
        object.__setattr__(self, "primes", tuple(sorted(primes)))
        object.__setattr__(self, "_root_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("RadicalFieldSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RadicalFieldSpec)
            and self.degree == other.degree
            and self.primes == other.primes
        )

    def __hash__(self):
        return hash((self.degree, self.primes))

    def __repr__(self):
        return "RadicalFieldSpec(degree=%d, radicands=%s)" % (
            self.degree,
            [str(r) for r in self.radicands],
        )

    @property
    def is_rational(self):
        return not self.primes

    @property
    def dimension(self):
        return self.degree ** len(self.primes)

    def galois_closure_degree(self):
        """Upper bound n^s * phi(n) used for the well-balanced sum law."""
        return self.dimension * euler_phi(self.degree)

    def zero(self):
        return FieldElement(self, {})

    def one(self):
        return self.from_rational(1)

    def from_rational(self, x):
        x = Fraction(x)
        if x == 0:
            return self.zero()
        e0 = (0,) * len(self.primes)
        return FieldElement(self, {e0: x})

    def coerce(self, x):
        """x as an element of this field.  Rationals, and rational elements
        of another spec, convert.  An irrational element of another spec
        lifts when that spec's degree divides this one's and its primes are
        among these (p^(k/d) is p^(k (n/d)/n)); otherwise DomainError."""
        if not isinstance(x, FieldElement):
            return self.from_rational(x)
        src = x.spec
        if src == self:
            return x
        if x.is_rational():
            return self.from_rational(x.rational_value())
        if self.degree % src.degree or not set(src.primes) <= set(self.primes):
            raise DomainError("an element of %r does not lie in %r" % (src, self))
        ratio = self.degree // src.degree
        where = [self.primes.index(p) for p in src.primes]
        coeffs = {}
        for e, c in x.coeffs.items():
            lifted = [0] * len(self.primes)
            for k, ep in zip(where, e):
                lifted[k] = ep * ratio
            coeffs[tuple(lifted)] = c
        return FieldElement(self, coeffs)

    def root_of(self, radicand):
        """The real positive n-th root of a positive rational, as an element."""
        return self.power_root(radicand, 1)

    def power_root(self, base, power):
        """(base^power)^(1/n) for a positive rational base and integer power.

        Works on the factorization of base, so huge or tiny powers never
        materialize base**power as an explicit rational.  The coefficient
        prod p^floor(a power / n) is charged to MAX_POWER_BITS before it is
        built: ResourceBudgetError beyond it.
        """
        base = Fraction(base)
        n = self.degree
        factors = factorize_fraction(base).items()
        if sum(abs(a * power) // n * p.bit_length() for p, a in factors) > MAX_POWER_BITS:
            raise ResourceBudgetError("a power root beyond %d bits" % MAX_POWER_BITS)
        coeff = Fraction(1)
        expo = [0] * len(self.primes)
        for p, a in factors:
            q, r = divmod(a * power, n)
            coeff *= Fraction(p) ** q
            if r == 0:
                continue
            if p not in self.primes:
                raise DomainError("prime %d not covered by this field spec" % p)
            expo[self.primes.index(p)] = r
        return FieldElement(self, {tuple(expo): coeff})

    def monomials(self):
        out = [()]
        for _ in self.primes:
            out = [e + (k,) for e in out for k in range(self.degree)]
        # exponent tuple order: lexicographic, first prime varies slowest
        return sorted(tuple(e) for e in out)

    def _real_roots(self):
        """Intervals for p^(1/n) at the current working precision."""
        key = iv.prec
        cache = self._root_cache
        if key not in cache:
            cache[key] = tuple(iv_nth_root(p, self.degree) for p in self.primes)
            if len(cache) > 8:
                oldest = next(iter(cache))
                if oldest != key:
                    del cache[oldest]
        return cache[key]


class FieldElement:
    """Element of a RadicalFieldSpec: sparse rational combination of monomials."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        clean = {}
        for e, c in coeffs.items():
            c = Fraction(c)
            if c:
                clean[tuple(int(v) for v in e)] = c
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_rational(self):
        if not self.coeffs:
            return True
        e0 = (0,) * len(self.spec.primes)
        return set(self.coeffs) == {e0}

    def rational_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise DomainError("element is irrational")
        return next(iter(self.coeffs.values()))

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0].coeffs == pair[1].coeffs

    def __hash__(self):
        # a rational element equals its value in every spec: hash that value
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.spec, tuple(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "FieldElement(0)"
        parts = []
        for e, c in self.coeffs.items():
            mon = "*".join(
                "%d^(%d/%d)" % (p, k, self.spec.degree)
                for p, k in zip(self.spec.primes, e)
                if k
            )
            parts.append(("%s*%s" % (c, mon)) if mon else str(c))
        return "FieldElement(%s)" % " + ".join(parts)

    def _pair(self, other):
        """(self, other) as elements of one spec, or None for a foreign type.

        A rational operand moves into the other operand's spec, so the
        result lives where the irrational operand does; two irrational
        elements of different specs are a DomainError."""
        if isinstance(other, (int, Fraction)):
            return self, self.spec.from_rational(other)
        if not isinstance(other, FieldElement):
            return None
        if other.spec == self.spec:
            return self, other
        if other.is_rational():
            return self, self.spec.from_rational(other.rational_value())
        if self.is_rational():
            return other.spec.from_rational(self.rational_value()), other
        raise DomainError("elements live in different field specs")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FieldElement(a.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        n = x.spec.degree
        primes = x.spec.primes
        out = {}
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                c = c1 * c2
                e = []
                for i, (a, b) in enumerate(zip(e1, e2)):
                    s = a + b
                    if s >= n:
                        s -= n
                        c *= primes[i]
                    e.append(s)
                e = tuple(e)
                out[e] = out.get(e, Fraction(0)) + c
        return FieldElement(x.spec, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.spec.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Exact inverse via the multiplication matrix over the monomial basis."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return self.spec.from_rational(1 / self.rational_value())
        mons = self.spec.monomials()
        index = {e: i for i, e in enumerate(mons)}
        d = len(mons)
        cols = []
        for e in mons:
            prod = self * FieldElement(self.spec, {e: Fraction(1)})
            col = [Fraction(0)] * d
            for ee, c in prod.coeffs.items():
                col[index[ee]] = c
            cols.append(col)
        mat = [[cols[j][i] for j in range(d)] for i in range(d)]
        rhs = [Fraction(0)] * d
        rhs[index[(0,) * len(self.spec.primes)]] = Fraction(1)
        sol = solve(mat, rhs)
        if sol is None:
            raise ZeroDivisionError("element is a zero divisor (spec invalid?)")
        return FieldElement(self.spec, {e: sol[i] for i, e in enumerate(mons)})

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0] * pair[1].inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- embeddings, signs -------------------------------------------------

    def real_interval(self):
        """Interval for the real embedding at the current working precision."""
        roots = self.spec._real_roots()
        acc = iv.mpf(0)
        for e, c in self.coeffs.items():
            term = iv_fraction(c)
            for i, k in enumerate(e):
                if k:
                    term *= roots[i] ** k
            acc += term
        return acc

    def sign(self):
        """Certified sign: exact for a rational element, else adaptive
        interval refinement after the symbolic zero test."""
        if self.is_rational():
            v = self.rational_value()
            return (v > 0) - (v < 0)
        return certified_sign(self.real_interval, is_zero=self.is_zero)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def floor(self):
        """The integer floor, exact: a rational element floors its
        Fraction; otherwise the real interval is refined until it spans
        at most two integer floors, and one certified sign then picks
        between them."""
        if self.is_rational():
            return math.floor(self.rational_value())

        def attempt():
            lo, hi = (to_int(e, round_floor) for e in self.real_interval()._mpi_)
            if hi - lo <= 1:
                return hi if lo == hi or (self - hi).sign() >= 0 else lo
            return None

        return refine(attempt, "floor")

    def abs_le(self, bound):
        """|self| <= bound, all exact/certified."""
        return (self - bound).sign() <= 0 and (self + bound).sign() >= 0

    def conjugate_values(self):
        """(re, im) interval pairs over all embeddings, current precision.

        Embedding k sends p_i^(1/n) to zeta_n^(k_i) p_i^(1/n).
        """
        n = self.spec.degree
        primes = self.spec.primes
        roots = self.spec._real_roots()
        # bucket coefficients by root-of-unity index per embedding
        embeddings = [()]
        for _ in primes:
            embeddings = [k + (j,) for k in embeddings for j in range(n)]
        cos_tab = [iv.cos(2 * iv.pi * j / n) for j in range(n)]
        sin_tab = [iv.sin(2 * iv.pi * j / n) for j in range(n)]
        out = []
        terms = []
        for e, c in self.coeffs.items():
            mag = iv_fraction(c)
            for i, kk in enumerate(e):
                if kk:
                    mag *= roots[i] ** kk
            terms.append((e, mag))
        for k in sorted(embeddings):
            re = iv.mpf(0)
            im = iv.mpf(0)
            for e, mag in terms:
                j = sum(ki * ei for ki, ei in zip(k, e)) % n
                re += mag * cos_tab[j]
                im += mag * sin_tab[j]
            out.append((re, im))
        return out

    def conjugate_moduli_intervals(self):
        return [iv.sqrt(re * re + im * im) for re, im in self.conjugate_values()]

    def denominator_lcm(self):
        return math.lcm(*(c.denominator for c in self.coeffs.values()))

    def to_json(self):
        """Coefficient-vector form used in certificates and reports."""
        def frac(x):
            return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
                x.numerator, x.denominator)

        return {
            "degree": self.spec.degree,
            "primes": list(self.spec.primes),
            "coefficients": [[list(e), frac(c)] for e, c in self.coeffs.items()],
        }

    def is_integral(self):
        """True iff all monomial coefficients are integers (subring Z[roots])."""
        return all(c.denominator == 1 for c in self.coeffs.values())

    def balanced_pair(self):
        """Canonical decomposition num/den with both in the integral subring."""
        den = self.denominator_lcm()
        return BalancedPair(self * den, self.spec.from_rational(den))


# ---------------------------------------------------------------------------
# well-balanced bookkeeping


@dataclass(frozen=True)
class BalancedPair:
    """A fraction num/den with both parts in the integral subring.

    Arithmetic composes witnesses the way the height bookkeeping wants:
    products multiply parts, sums cross-multiply; swapping the parts gives
    the inverse.
    """

    num: FieldElement
    den: FieldElement

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("denominator is zero")
        if not (self.num.is_integral() and self.den.is_integral()):
            raise DomainError("pair parts must be integral")

    def __mul__(self, other):
        return BalancedPair(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        num = self.num * other.den + other.num * self.den
        if num.is_zero():
            spec = self.num.spec
            return BalancedPair(spec.zero(), spec.one())
        return BalancedPair(num, self.den * other.den)

    def __neg__(self):
        return BalancedPair(-self.num, self.den)


@dataclass(frozen=True)
class WellBalancedCertificate:
    alpha: Fraction
    bound: Fraction  # the base A
    valid: bool
    num_moduli: tuple  # (lo, hi) float pairs per embedding
    den_moduli: tuple

    def to_json(self):
        return {
            "alpha": str(self.alpha),
            "A": str(self.bound),
            "valid": self.valid,
            "num_moduli": [[lo, hi] for lo, hi in self.num_moduli],
            "den_moduli": [[lo, hi] for lo, hi in self.den_moduli],
        }


def is_well_balanced(x, alpha, bound):
    """Check A^-alpha <= |sigma(num)|, |sigma(den)| <= A^alpha on every embedding.

    x is a FieldElement (checked on its canonical num/den decomposition)
    or a BalancedPair (checked on the stored pair).  Zero represented as
    0/1 is well-balanced by convention.  Returns (bool, certificate).
    """
    alpha = Fraction(alpha)
    bound = Fraction(bound)
    if alpha < 1 or bound < 2:
        raise DomainError("need alpha >= 1 and A >= 2")
    pair = x if isinstance(x, BalancedPair) else x.balanced_pair()
    if pair.num.is_zero():
        one = pair.num.spec.one()
        ok_den = pair.den == one
        cert = WellBalancedCertificate(alpha, bound, ok_den, (), ())
        return ok_den, cert

    num_ivs, num_ok = _moduli_within(pair.num, alpha, bound)
    den_ivs, den_ok = _moduli_within(pair.den, alpha, bound)
    ok = num_ok and den_ok
    cert = WellBalancedCertificate(alpha, bound, ok, tuple(num_ivs), tuple(den_ivs))
    return ok, cert


def _moduli_within(el, alpha, bound):
    def attempt():
        lo_b = iv_pow_fraction(bound, -alpha)
        hi_b = iv_pow_fraction(bound, alpha)
        mods = el.conjugate_moduli_intervals()
        recorded = [(float(m.a), float(m.b)) for m in mods]
        verdict = True
        undecided = False
        for m in mods:
            if m.a > hi_b.b or m.b < lo_b.a:
                verdict = False
                undecided = False
                break
            if m.b <= hi_b.a and m.a >= lo_b.b:
                continue
            undecided = True
        if not undecided:
            return recorded, verdict
        exact = _moduli_within_exact(el, alpha, bound)
        return None if exact is None else (recorded, exact)

    return refine(attempt, "well-balanced bounds")


def _moduli_within_exact(el, alpha, bound):
    """Exact tie-break for a single-monomial element: all conjugate moduli
    equal |c| * prod p^(e/n); compare by raising to an integer power."""
    if len(el.coeffs) != 1:
        return None
    n = el.spec.degree
    ((e, c),) = el.coeffs.items()
    v = alpha.denominator
    # modulus^ (n v) = |c|^(n v) * prod p^(e v);  A^(alpha n v) = A^(u n)
    lhs = abs(c) ** (n * v)
    for p, k in zip(el.spec.primes, e):
        lhs *= Fraction(p) ** (k * v)
    hi = Fraction(bound) ** (alpha.numerator * n)
    lo = 1 / hi
    return lo <= lhs <= hi


# ---------------------------------------------------------------------------
# exact linear algebra over the field


def coerce_vectors(spec, vectors):
    return [tuple(spec.coerce(x) for x in v) for v in vectors]


def vec_dot(u, v):
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def gram_schmidt(vectors, spec):
    """Orthogonalize K-linearly independent vectors of spec, exactly.

    u'_j = u_j - sum_{i<j} u'_i <u_j, u'_i> / ||u'_i||^2; raises DomainError
    if some u'_j vanishes (dependent input).
    """
    if not vectors:
        return []
    vs = coerce_vectors(spec, vectors)
    out = []
    for u in vs:
        acc = u
        for w in out:
            coef = vec_dot(acc, w) / vec_dot(w, w)
            acc = tuple(a - coef * b for a, b in zip(acc, w))
        if not any(acc):
            raise DomainError("dependent input vector in gram_schmidt")
        out.append(acc)
    return out


def _find_spec(vectors):
    for v in vectors:
        for x in v:
            if isinstance(x, FieldElement) and not x.spec.is_rational:
                return x.spec
    for v in vectors:
        for x in v:
            if isinstance(x, FieldElement):
                return x.spec
    return RadicalFieldSpec(1, ())


@dataclass
class DistanceResult:
    distance_sq: FieldElement  # exact
    distance: tuple  # (lo, hi) floats, certified
    max_pairing: tuple  # (lo, hi) floats for max_j |<b_j, v>|
    prec: int


def distance_to_subspace(v, generators):
    """Certified distance from v to H = intersection of generator kernels.

    Returns the exact squared distance (a field element of the field of the
    entries) together with certified intervals for the distance and for
    max_j |<b_j, v>|.  Dependent generator rows are fine; a maximal
    independent subset is used.
    """
    spec = _find_spec(list(generators) + [v])
    gens = coerce_vectors(spec, generators)
    vv = coerce_vectors(spec, [v])[0]
    ech = Echelon()
    keep = [g for g in gens if ech.add(g)]
    basis = gram_schmidt(keep, spec)
    dist_sq = spec.zero()
    for w in basis:
        c = vec_dot(vv, w)
        dist_sq = dist_sq + c * c / vec_dot(w, w)
    prec = START_PREC
    with precision(prec):
        d_iv = iv.sqrt(dist_sq.real_interval()) if not dist_sq.is_zero() else iv.mpf(0)
        best = iv.mpf(0)
        for g in gens:
            val = vec_dot(g, vv).real_interval()
            mag = iv.sqrt(val * val)
            best = iv.mpf([max(best.a, mag.a), max(best.b, mag.b)])
    return DistanceResult(
        distance_sq=dist_sq,
        distance=(float(d_iv.a), float(d_iv.b)),
        max_pairing=(float(best.a), float(best.b)),
        prec=prec,
    )


def kernel_basis_bounded(rows, spec):
    """Basis of H = {y : <b_j, y> = 0 for all j} with integral entries.

    Pivot columns are the lexicographically first independent set (the
    row-echelon choice); each free column yields one basis vector, scaled
    by the lcm of coefficient denominators so entries land in the integral
    subring.  Raises ZeroKernel when H = {0}.
    """
    if not rows:
        raise DomainError("kernel_basis_bounded needs the ambient dimension from rows")
    ech = Echelon()
    for row in coerce_vectors(spec, rows):
        ech.add(row)
    return echelon_kernel_basis(ech, len(rows[0]), spec)


def echelon_kernel_basis(ech, m, spec):
    """The integral kernel basis of kernel_basis_bounded, read off an
    Echelon of rows of length m whose entries lie in spec."""
    red, pivots = ech.rref()
    if len(pivots) == m:
        raise ZeroKernel("generators span the whole space")
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free:
        y = [spec.zero()] * m
        y[f] = spec.one()
        for i, p in enumerate(pivots):
            y[p] = -spec.coerce(red[i][f])
        scale = math.lcm(*(x.denominator_lcm() for x in y))
        y = tuple(x * scale for x in y)
        basis.append(y)
    return basis
