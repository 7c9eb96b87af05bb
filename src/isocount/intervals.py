"""Certified real interval helpers on top of mpmath's interval context.

Conventions used throughout the package:
  * every numeric comparison that feeds a boolean decision goes through
    outward-rounded intervals, never bare floats;
  * exact zero is always decided symbolically by the caller, intervals
    only ever decide strict inequalities;
  * precision starts at 128 bits and doubles up to a 4096-bit cap, after
    which PrecisionExhausted is raised.
"""

from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mpf

from .errors import PrecisionExhausted

START_PREC = 128
PREC_CAP = 4096


@contextmanager
def precision(bits):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def iv_fraction(x):
    """Interval certainly containing the rational x."""
    x = Fraction(x)
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def iv_nth_root(x, k):
    """Interval for x^(1/k), x a positive rational, k a positive integer."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("positive radicand required")
    if k == 1:
        return iv_fraction(x)
    return iv.exp(iv.log(iv_fraction(x)) / k)


def iv_pow_fraction(x, e):
    """Interval for x^e with x a positive rational, e a Fraction."""
    e = Fraction(e)
    if e == 0:
        return iv.mpf(1)
    return iv.exp(iv.log(iv_fraction(x)) * iv.mpf(e.numerator) / iv.mpf(e.denominator))


def refine(attempt, what):
    """The first answer of attempt() that is not None, at working precision
    START_PREC bits, doubling up to PREC_CAP; PrecisionExhausted, naming
    what stayed undecided, past the cap."""
    prec = START_PREC
    while prec <= PREC_CAP:
        with precision(prec):
            answer = attempt()
        if answer is not None:
            return answer
        prec *= 2
    raise PrecisionExhausted("%s undecided at %d bits" % (what, PREC_CAP))


def certified_sign(make_interval, is_zero):
    """Sign of a real given an interval builder and an exact zero test.

    Returns 0 when is_zero() is true, without touching intervals.  Else
    make_interval() must return an interval containing the value at the
    working precision, which refine raises until it excludes 0.
    """
    if is_zero():
        return 0

    def attempt():
        x = make_interval()
        if x.a > 0:
            return 1
        if x.b < 0:
            return -1
        return None

    return refine(attempt, "sign")


def _acos_bracket(v):
    """Certified bracket [a, b] with acos(v) in [a.a, b.b], v an mpf in [-1, 1]."""
    if v == 0:
        half_pi = iv.pi / 2
        return half_pi, half_pi
    a, b = iv.mpf(0), +iv.pi
    va = iv.mpf([v, v])
    for _ in range(iv.prec + 16):
        moved = False
        # cos(mid) can straddle v when acos(v) is a dyadic fraction of the
        # bracket; nudged midpoints break the tie
        for num, den in ((1, 2), (7, 16), (9, 16), (5, 16), (11, 16)):
            mid = a + (b - a) * num / den
            cm = iv.cos(mid)
            if cm.a > va.b:
                a = mid  # cos(mid) certainly above v: acos(v) lies right of mid
                moved = True
                break
            if cm.b < va.a:
                b = mid
                moved = True
                break
        if not moved:
            break
    return a, b


def iv_acos(x):
    """Interval containing acos of every point of x (clamped to [-1, 1]).

    mpmath's interval context lacks acos, so bisect with certified iv.cos;
    acos is decreasing, so the image of [x.a, x.b] is [acos(x.b), acos(x.a)].
    """
    one = mpf(1)
    hi_arg = min(x.b, one)
    lo_arg = max(x.a, -one)
    lo_br = _acos_bracket(hi_arg)
    hi_br = _acos_bracket(lo_arg)
    return iv.mpf([lo_br[0].a, hi_br[1].b])
