"""Goodness sieving for primes: residue systems via quadratic reciprocity,
windowed prime sets, and the exact von Mangoldt sum over a progression.

A residue system compresses the goodness test (p coprime to the diagonal
of the integralization and -d a nonresidue mod p for every 2x2 minor d)
into congruence classes modulo a single modulus: membership of a prime not
dividing the modulus depends only on its class.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, iroot, kronecker, primes_in_range, radical, squarefree_part
from .errors import DomainError
from .matrices import is_good, is_q_good


@dataclass(frozen=True)
class ResidueSystem:
    """Allowed residue classes modulo m characterizing goodness.

    For any prime p with p not dividing the modulus: p is good for the
    source matrix iff p mod modulus lies in `allowed`.
    """

    modulus: int
    allowed: frozenset
    minor_set: frozenset
    diagonal: tuple

    def admits(self, p):
        if self.modulus % p == 0:
            # small primes interacting with the modulus: fall back to the
            # direct definition via the stored data
            return is_good(p, self.diagonal, self.minor_set)
        return p % self.modulus in self.allowed

    def to_json(self):
        return {
            "schema": 1,
            "modulus": self.modulus,
            "allowed": sorted(self.allowed),
            "minor_set": sorted(self.minor_set),
            "diagonal": list(self.diagonal),
        }


def residue_system(q):
    """Build the residue system of a positive definite rational matrix.

    The modulus is 4 times the odd radical of the minor values and the
    diagonal of the integralization; each coprime class is classified by
    the Kronecker symbols of the squarefree kernels, which are periodic
    with period dividing the modulus by quadratic reciprocity.
    """
    tilde = q.tilde
    diag = tuple(tilde[i, i] for i in range(q.n))
    minors = q.minor_set()
    rad = 1
    for d in minors:
        rad = _merge_radical(rad, radical(d))
    for d in diag:
        rad = _merge_radical(rad, radical(d))
    while rad % 2 == 0:
        rad //= 2
    kernels = sorted({squarefree_part(d) for d in minors})
    # the character mod -d0 has period d0 or 4*d0; an even kernel forces the
    # extra factor 2 on top of the usual 4
    two_part = 8 if any(d0 % 2 == 0 for d0 in kernels) else 4
    modulus = two_part * rad
    allowed = set()
    for a in range(1, modulus):
        if math.gcd(a, modulus) != 1:
            continue
        if all(kronecker(-d0, a) == -1 for d0 in kernels):
            allowed.add(a)
    return ResidueSystem(
        modulus=modulus,
        allowed=frozenset(allowed),
        minor_set=frozenset(minors),
        diagonal=diag,
    )


def _merge_radical(acc, extra):
    for p in factorize(extra):
        if acc % p:
            acc *= p
    return acc


def good_prime_set(system, lo, hi, coprime_to=1):
    """Sorted primes in [lo, hi] passing the residue system, coprime to N."""
    if lo < 2:
        lo = 2
    out = []
    for p in primes_in_range(lo, hi):
        if coprime_to % p == 0:
            continue
        if system.admits(p):
            out.append(p)
    return out


def vonmangoldt_ap_sum(x, modulus, residue):
    """Exact sum of Lambda(n) over x <= n <= 2x, n = residue (mod modulus).

    The window is sieved once for prime powers; the sum is a float built
    from math.log in ascending order of n, so repeated runs agree bitwise.
    """
    if modulus < 1:
        raise DomainError("modulus must be >= 1")
    if math.gcd(residue, modulus) != 1:
        raise DomainError("residue %d not coprime to modulus %d" % (residue, modulus))
    x = Fraction(x)
    if x < 2:
        raise DomainError("x must be >= 2")
    lo = math.ceil(x)
    hi = math.floor(2 * x)
    total = 0.0
    for n, p in prime_powers_in_window(lo, hi):
        if n % modulus == residue % modulus:
            total += math.log(p)
    return total


def prime_powers_in_window(lo, hi):
    """All (p^k, p) with lo <= p^k <= hi, ascending in p^k."""
    out = []
    for p in primes_in_range(lo, hi):
        out.append((p, p))
    k_max = 1
    while 2 ** (k_max + 1) <= hi:
        k_max += 1
    for k in range(2, k_max + 1):
        for p in primes_in_range(2, iroot(hi, k)[0]):
            pk = p ** k
            if lo <= pk <= hi:
                out.append((pk, p))
    return sorted(out)


def linnik_report(max_modulus=25, floor_x=10 ** 4, constant=Fraction(1, 10)):
    """Empirical check of the progression lower bound sum >= c * x / m^(3/2).

    Runs every modulus up to the cap with x = max(m^3, floor_x); reports
    per-class ratios; this is evidence at desk scale, not a theorem check,
    since the threshold exponent in the statement is ineffective.
    """
    rows = []
    cache = {}
    for m in range(2, max_modulus + 1):
        x = max(m ** 3, floor_x)
        if x not in cache:
            cache[x] = prime_powers_in_window(x, 2 * x)
        window = cache[x]
        threshold = float(constant) * x / m ** 1.5
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            s = 0.0
            for n, p in window:
                if n % m == a:
                    s += math.log(p)
            rows.append(
                {
                    "m": m,
                    "a": a,
                    "x": x,
                    "sum": s,
                    "threshold": threshold,
                    "passes": s >= threshold,
                }
            )
    return rows


def sample_cross_check(system, q, limit=10 ** 4):
    """Mismatch list between residue-system membership and the direct test
    over all primes up to the limit (excluding primes dividing the modulus,
    where the system answers through the direct definition anyway)."""
    bad = []
    for p in primes_in_range(2, limit):
        if system.admits(p) != is_q_good(p, q):
            bad.append(p)
    return bad
