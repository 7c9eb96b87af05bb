"""The decimal printer against str() on both sides of its block boundaries."""

import random
import sys

from isocount.serialize import _BLOCK, int_to_str, str_to_int


def boundary_values():
    """Ints on both sides of each boundary of int_to_str: the end of the
    str() path at 10^600, and the bit lengths where the halving needs one
    more level before its pieces fall below 10^600 (the bit length of
    10^600 times 2^j), with all-ones, all-zeros, alternating and seeded
    random pieces."""
    rng = random.Random(0)
    yield from (_BLOCK - 1, _BLOCK, _BLOCK + 1, 10 * _BLOCK - 1, 10 * _BLOCK)
    width = _BLOCK.bit_length()
    for j in range(7):
        for bits in ((width << j) - 1, width << j, (width << j) + 1):
            yield from (2 ** bits - 1, 2 ** bits, 2 ** bits + 1, (2 ** bits - 1) // 3)
            yield rng.getrandbits(bits) | 1 << (bits - 1)


def test_int_to_str_equals_str_at_every_block_boundary():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for k in boundary_values():
            for v in (k, -k):
                text = int_to_str(v)
                assert text == str(v), v.bit_length()
                assert str_to_int(text) == v
    finally:
        sys.set_int_max_str_digits(limit)
