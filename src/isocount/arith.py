"""Elementary integer and rational arithmetic helpers.

Everything here is exact and deterministic: Miller-Rabin with a fixed
witness set (deterministic below 3.3 * 10^24), Pollard rho with a fixed
polynomial schedule, sieves, symbols, and the root kernel: integer k-th
roots, floors and ceilings of rational roots and powers, and the prime
windows [L, 2 L^e] built on them.
"""

import math
from fractions import Fraction

from .errors import DomainError, ResourceBudgetError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin (valid far beyond 2^64)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MAX_SIEVE = 10 ** 7

# bits of an exact power a caller may build (2^22 bits = 512 kB)
MAX_POWER_BITS = 2 ** 22


def primes_in_range(lo, hi):
    """All primes p with lo <= p <= hi, ascending (segmented sieve).

    ResourceBudgetError, before anything is allocated, when the segment or
    the base sieve up to sqrt(hi) would exceed MAX_SIEVE bytes."""
    lo = max(2, lo)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    if max(hi - lo + 1, root + 1) > MAX_SIEVE:
        raise ResourceBudgetError(
            "sieving [%d, %d] exceeds the sieve budget of %d" % (lo, hi, MAX_SIEVE)
        )
    base = _simple_sieve(root)
    seg = bytearray([1]) * (hi - lo + 1)
    for p in base:
        start = max(p * p, ((lo + p - 1) // p) * p)
        for k in range(start, hi + 1, p):
            seg[k - lo] = 0
    return [lo + i for i, f in enumerate(seg) if f]


def _simple_sieve(limit):
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError("rho failed on %d" % n)


def factorize(n):
    """Prime factorization of n >= 1 as a dict {p: e}. Deterministic."""
    if n < 1:
        raise ValueError("factorize wants n >= 1, got %d" % n)
    out = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def factorize_fraction(x):
    """Signed prime exponent dict of a nonzero Fraction."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("needs a positive rational")
    out = dict(factorize(x.numerator))
    for p, e in factorize(x.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in sorted(out.items()) if e}


def squarefree_part(n):
    """d0 with n = d0 * k^2 and d0 squarefree (exponents reduced mod 2)."""
    prod = 1
    for p, e in factorize(n).items():
        if e % 2:
            prod *= p
    return prod


def radical(n):
    """Product of the distinct primes dividing n >= 1."""
    prod = 1
    for p in factorize(n):
        prod *= p
    return prod


def iroot(n, k):
    """(r, exact) with r = floor(n^(1/k)) for n >= 0, k >= 1.

    Integer Newton from 2^ceil(bits/k), which is at least the root; the
    iterates fall strictly until they reach the floor, in O(log bits) steps.
    """
    if n < 0 or k < 1:
        raise ValueError("iroot wants n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n, True
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r, r ** k == n
        r = s


def floor_root(x, k):
    """floor(x^(1/k)) for a rational x >= 0 (r^k <= x iff r^k <= floor(x))."""
    return iroot(math.floor(x), k)[0]


def ceil_root(x, k):
    """ceil(x^(1/k)) for a rational x >= 0 (r^k >= x iff r^k >= ceil(x))."""
    r, exact = iroot(math.ceil(x), k)
    return r if exact else r + 1


MAX_INTERVAL_EXPONENT = 10 ** 4


def floor_power(base, expo):
    """floor(2 * base^expo) for rational base > 1 and rational expo >= 1."""
    base = Fraction(base)
    expo = Fraction(expo)
    if expo > MAX_INTERVAL_EXPONENT:
        raise ResourceBudgetError(
            "interval exponent %s beyond the supported desk scale" % expo
        )
    u, v = expo.numerator, expo.denominator
    return floor_root(2 ** v * base ** u, v)


def interval_of(l_param, expo):
    """The prime window [ceil(L), floor(2 L^expo)] as integers."""
    l_fr = Fraction(l_param)
    if l_fr <= 2:
        raise DomainError("L must exceed 2")
    return math.ceil(l_fr), floor_power(l_fr, expo)


def ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inv_mod(a, m):
    g, s, _ = ext_gcd(a % m, m)
    if g != 1:
        raise ValueError("%d not invertible mod %d" % (a, m))
    return s % m


def kronecker(a, n):
    """Kronecker symbol (a|n), standard extension of Jacobi/Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # strip twos from n: (a|2) = 0, +-1 by a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0
