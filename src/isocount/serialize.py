"""JSON serialization: schema-versioned, rationals as "a/b" strings.

No floating point is persisted except certified interval endpoints, which
are serialized as decimal strings with a precision tag (see intervals).
"""

import json
from fractions import Fraction

from .errors import DomainError, ResourceBudgetError
from .matrices import IntegerMatrix, RationalSymMatrix

SCHEMA = 1


# str() of an int refuses more than sys.get_int_max_str_digits() digits,
# which is never below 640; longer ints are printed in blocks of 600 digits
DIGIT_BLOCK = 600
_BLOCK = 10 ** DIGIT_BLOCK


def int_to_str(k):
    """Decimal text of any int, split at the powers 10^(600 * 2^j)."""
    if k < 0:
        return "-" + int_to_str(-k)
    if k < _BLOCK:
        return str(k)
    powers = [_BLOCK]
    while powers[-1] ** 2 <= k:
        powers.append(powers[-1] ** 2)

    def digits(x, level):  # x < powers[level]^2
        if level < 0:
            return str(x)
        hi, lo = divmod(x, powers[level])
        low = digits(lo, level - 1)
        if not hi:
            return low
        return digits(hi, level - 1) + low.zfill(DIGIT_BLOCK << level)

    return digits(k, len(powers) - 1)


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
        _, sep, expo = s.lower().partition("e")
        digits = expo.lstrip("+-").replace("_", "")
        # Fraction would build 10^|k|, at least 3.3 Mbit for a 7-digit k
        if sep and digits.isdigit() and len(digits.lstrip("0")) > 6:
            raise ResourceBudgetError("the exponent of the rational literal %r is too large" % s)
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise DomainError("bad rational literal %r: %s" % (s, e))
    raise DomainError("bad rational value %r" % (s,))


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
        return json.load(fh)
