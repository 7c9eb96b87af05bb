"""JSON serialization: schema-versioned, rationals as "a/b" strings.

No floating point is persisted except certified interval endpoints, which
are serialized as decimal strings with a precision tag (see intervals).
"""

import json
import re
from fractions import Fraction

from .arith import MAX_POWER_BITS
from .errors import DomainError, ResourceBudgetError
from .matrices import IntegerMatrix, RationalSymMatrix

SCHEMA = 1


# str() of an int refuses more than sys.get_int_max_str_digits() digits,
# which is never below 640; longer ints are printed through decimal.Decimal
# and read in blocks of 600 digits
DIGIT_BLOCK = 600
_BLOCK = 10 ** DIGIT_BLOCK
# digits of the longest integer literal read: 10^MAX_DIGITS < 2^MAX_POWER_BITS
MAX_DIGITS = MAX_POWER_BITS * 3 // 10


def int_to_str(k):
    """Decimal text of any int.  Past 600 digits, k is rebuilt as an exact
    decimal.Decimal from its halves at powers of 2, down to pieces below
    10^600: libmpdec multiplies large operands in subquadratic time, where
    str() and divmod on an int are quadratic (the method of CPython 3.12's
    _pylong)."""
    if k < 0:
        return "-" + int_to_str(-k)
    if k < _BLOCK:
        return str(k)
    import decimal  # here, not at start-up: only long ints need it

    powers = {}

    def value(x, bits):  # x < 2^bits
        if x < _BLOCK:
            return decimal.Decimal(x)
        half = bits >> 1
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        hi = x >> half
        return value(x - (hi << half), half) + value(hi, bits - half) * powers[half]

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(value(k, k.bit_length()))


def str_to_int(text):
    """The int of a signed decimal digit string, joined at the powers
    10^(600 * 2^j) as int_to_str splits it.  ResourceBudgetError beyond
    MAX_DIGITS digits, about the length of a 2^MAX_POWER_BITS-bit int."""
    if text[:1] in "+-":
        k = str_to_int(text[1:])
        return -k if text[0] == "-" else k
    if len(text) > MAX_DIGITS:
        raise ResourceBudgetError(
            "an integer literal of %d digits exceeds the budget of %d" % (len(text), MAX_DIGITS))
    if len(text) <= DIGIT_BLOCK:
        return int(text)
    powers = [(DIGIT_BLOCK, _BLOCK)]
    while 2 * powers[-1][0] < len(text):
        width, power = powers[-1]
        powers.append((2 * width, power * power))

    def value(digits, level):  # len(digits) <= 2 * 600 * 2^level
        if level < 0:
            return int(digits)
        width, power = powers[level]
        if len(digits) <= width:
            return value(digits, level - 1)
        return value(digits[:-width], level - 1) * power + value(digits[-width:], level - 1)

    return value(text, len(powers) - 1)


def _quote(text):
    """repr of text, cut to its first 60 characters when longer."""
    if len(text) <= 60:
        return repr(text)
    return "%r... (%d characters)" % (text[:60], len(text))


# "p" or "p/q" with decimal digits, underscores between them as in int()
_INT_RATIO = re.compile(r"([+-]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def fraction_to_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return int_to_str(x.numerator)
    return "%s/%s" % (int_to_str(x.numerator), int_to_str(x.denominator))


def fraction_from_str(s):
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        s = s.strip()
        ratio = _INT_RATIO.fullmatch(s)
        if ratio:
            num, den = (str_to_int(x.replace("_", "")) if x else 1 for x in ratio.groups())
            if not den:
                raise DomainError("bad rational literal %s: zero denominator" % _quote(s))
            return Fraction(num, den)
        _, sep, expo = s.lower().partition("e")
        digits = expo.lstrip("+-").replace("_", "")
        # Fraction would build 10^|k|, at least 3.3 Mbit for a 7-digit k
        if sep and digits.isdigit() and len(digits.lstrip("0")) > 6:
            raise ResourceBudgetError(
                "the exponent of the rational literal %s is too large" % _quote(s))
        try:
            return Fraction(s)
        except ValueError:
            raise DomainError("bad rational literal %s" % _quote(s)) from None
    raise DomainError("bad rational value %s" % _quote(repr(s)))


def matrix_to_json(m):
    if isinstance(m, IntegerMatrix):
        entries = [[str(x) for x in row] for row in m.rows]
    elif isinstance(m, RationalSymMatrix):
        entries = [[fraction_to_str(x) for x in row] for row in m.entries]
    else:
        entries = [[fraction_to_str(x) for x in row] for row in m]
    return {"schema": SCHEMA, "n": len(entries), "entries": entries}


def integer_matrix_from_json(obj):
    entries = _entries_from_json(obj)
    rows = []
    for r in entries:
        row = []
        for x in r:
            fx = fraction_from_str(x)
            if fx.denominator != 1:
                raise DomainError("integer matrix has non-integer entry %r" % (x,))
            row.append(fx.numerator)
        rows.append(row)
    return IntegerMatrix(rows)


def rational_sym_matrix_from_json(obj):
    entries = _entries_from_json(obj)
    return RationalSymMatrix([[fraction_from_str(x) for x in r] for r in entries])


def _entries_from_json(obj):
    if not isinstance(obj, dict) or "entries" not in obj:
        raise DomainError("matrix JSON needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise DomainError("matrix JSON 'entries' must be a list of rows")
    n = obj.get("n", len(entries))
    if len(entries) != n or any(len(r) != n for r in entries):
        raise DomainError("matrix JSON shape mismatch")
    return entries


def dumps(obj):
    """Deterministic JSON text (sorted keys, stable separators)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh, parse_int=str_to_int)
