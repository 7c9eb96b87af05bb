"""The root kernel: integer k-th roots, floors and ceilings of rational roots
and powers.  Every answer is checked by integer comparison, never by floats."""

import signal
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from isocount.arith import ceil_root, floor_power, floor_root, iroot
from isocount.enumeration import TargetScalar
from isocount.recursion import _tilde_window


@contextmanager
def deadline(seconds):
    """Fail instead of hanging when the body runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError("no result within %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def is_floor_root(x, t, v):
    return x ** v <= t < (x + 1) ** v


def is_ceil_root(x, t, v):
    # x is the least non-negative integer with t <= x^v; at x = 0 there is no
    # smaller candidate ((-1)^v is not one), so only t <= 0 is asked
    return (x == 0 or (x - 1) ** v < t) and t <= x ** v


def test_large_powers_return_at_once():
    # each of these walked +-1 from a float guess and did not return
    with deadline(1):
        assert is_floor_root(floor_power(49, 28), 2 * 49 ** 28, 1)
        lo, hi = _tilde_window(Fraction(187, 7), 5, 2)
        t = Fraction(187, 7) ** 25
        assert is_ceil_root(lo, t, 1) and is_floor_root(hi, 2 * t, 1)
        x = floor_power(9, Fraction(729, 64))
        assert is_floor_root(x, 2 ** 64 * 9 ** 729, 64)
        r, exact = iroot(3 * 10 ** 400, 3)
        assert is_floor_root(r, 3 * 10 ** 400, 3) and not exact


def test_target_scalar_beyond_float_range():
    # s^2 > 1e308 made the float-seeded root raise OverflowError
    s = 1009 ** 8 * 1013 ** 56
    assert TargetScalar.build(s, 8).rational == 1009 ** 2 * 1013 ** 14
    assert TargetScalar.build(s + 1, 8).rational is None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 60), st.integers(1, 9))
def test_iroot_is_the_floor_root(n, k):
    r, exact = iroot(n, k)
    assert is_floor_root(r, n, k)
    assert exact == (r ** k == n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 12), st.integers(1, 7))
def test_iroot_recognises_perfect_powers(r, k):
    assert iroot(r ** k, k) == (r, True)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=10 ** 30), st.integers(1, 9))
def test_floor_and_ceil_of_rational_roots(x, k):
    assert is_floor_root(floor_root(x, k), x, k)
    assert is_ceil_root(ceil_root(x, k), x, k)
