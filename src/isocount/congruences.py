"""Scalar-proportionality and inner-product congruences modulo prime powers,
plus the certified minimum pairwise angle of a vector family.

The two congruence operations implement the mod-p^rho bookkeeping used to
bound the number of admissible columns; the angle bound feeds the packing
estimate.
"""

from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv

from .arith import inv_mod
from .errors import DomainError, PreconditionFailed
from .intervals import iv_acos, iv_fraction, precision, START_PREC
from .matrices import bilinear


@dataclass(frozen=True)
class ScalarWitness:
    """The unique invertible residue a with y = a*x mod p^rho."""

    a: int
    p: int
    rho: int

    @property
    def modulus(self):
        return self.p ** self.rho


def _completely_divisible(x, p):
    return all(v % p == 0 for v in x)


def minor_congruences_hold(x, y, modulus):
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            if (x[i] * y[j] - x[j] * y[i]) % modulus != 0:
                return False
    return True


def scalar_congruence(x, y, p, rho):
    """Witness a in (Z/p^rho)* with y = a*x (mod p^rho).

    Preconditions (PreconditionFailed otherwise): all 2x2 minors of (x, y)
    vanish mod p^rho and neither vector is completely divisible by p.
    """
    if rho < 1:
        raise DomainError("rho must be >= 1")
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if len(x) != len(y):
        raise DomainError("vector lengths differ")
    mod = p ** rho
    if _completely_divisible(x, p) or _completely_divisible(y, p):
        raise PreconditionFailed("a vector is completely divisible by %d" % p)
    if not minor_congruences_hold(x, y, mod):
        raise PreconditionFailed("2x2 minor congruences fail mod %d^%d" % (p, rho))
    i = next(k for k, v in enumerate(x) if v % p != 0)
    if y[i] % p == 0:
        # ruled out by the minor congruences; defensive
        raise PreconditionFailed("y completely divisible by %d against x_i unit" % p)
    a = y[i] * inv_mod(x[i], mod) % mod
    for k in range(len(x)):
        if (y[k] - a * x[k]) % mod != 0:
            raise PreconditionFailed("no scalar residue reproduces y from x")
    return ScalarWitness(a=a, p=p, rho=rho)


def verify_inner_congruence(x, y, a_sym, p, rho):
    """True iff 2 x^T A y = a x^T A x + abar y^T A y (mod p^(2 rho)).

    a is the witness from scalar_congruence; abar is the inverse of the
    chosen lift of a taken modulo p^(2 rho) -- the congruence is false for
    a bare mod-p^rho inverse.  The value is computed for two distinct lifts
    of a (each with its own inverse) and must agree, which guards the
    representative independence the statement promises.
    """
    w = scalar_congruence(x, y, p, rho)
    mod = w.modulus
    mod2 = mod * mod
    xa = bilinear(a_sym, x, x)
    ya = bilinear(a_sym, y, y)
    xy = bilinear(a_sym, x, y)
    results = set()
    for a_lift in (w.a, w.a + mod):
        abar_lift = inv_mod(a_lift, mod2)
        results.add((2 * xy - a_lift * xa - abar_lift * ya) % mod2 == 0)
    if len(results) != 1:
        raise PreconditionFailed("congruence value depends on the representative")
    return results.pop()


def min_pairwise_angle(vectors, q):
    """Certified lower bound (radians, float) on the minimum pairwise angle.

    Angles are taken in the inner product given by q; cosines are exact
    rationals modulo a square root, so the bound is computed as
    acos(upper bound of cos) with outward rounding.  Collinear pairs give 0.
    """
    vecs = [tuple(int(v) for v in w) for w in vectors]
    for w in vecs:
        if all(v == 0 for v in w):
            raise DomainError("zero vector has no direction")
    if len(vecs) < 2:
        raise DomainError("need at least two vectors")
    best = None
    with precision(START_PREC):
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                ang_lo = _angle_lower(vecs[i], vecs[j], q)
                if best is None or ang_lo < best:
                    best = ang_lo
    return best


def _angle_lower(u, v, q):
    num = q.bilinear_value(u, v)
    nu = q.quadratic_value(u)
    nv = q.quadratic_value(v)
    # cos^2 with sign: exact rational num^2/(nu*nv)
    c2 = Fraction(num * num, 1) / (nu * nv)
    if c2 >= 1 and num * num == nu * nv:
        return 0.0 if num > 0 else float(_pi_lower())
    cos_iv = _signed_sqrt(c2, num >= 0)
    ang = iv_acos(cos_iv)
    return float(ang.a)


def _signed_sqrt(c2, positive):
    root = iv.sqrt(iv_fraction(c2))
    return root if positive else -root


def _pi_lower():
    return iv.pi.a
