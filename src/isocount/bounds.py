"""Spectral-side formulas and the final exponent optimization.

Everything that can be exact is exact: the eigenvalue formula, the
spectral-density normalization, the convexity exponent, and the minimax
over the amplification length exponent eta, which is a crossing point of
two linear functions of eta and therefore an exact rational.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import MAX_POWER_BITS
from .errors import DomainError, ResourceBudgetError


@dataclass(frozen=True)
class SpectralParameters:
    """Archimedean spectral parameters: reals summing to zero (all real by
    the temperedness-at-infinity assumption)."""

    mu: tuple

    def __post_init__(self):
        mu = tuple(Fraction(x) for x in self.mu)
        if sum(mu) != 0:
            raise DomainError("spectral parameters must sum to zero")
        object.__setattr__(self, "mu", mu)

    @property
    def n(self):
        return len(self.mu)


# the largeness condition on M reads M >= C1 D1^s D2^(s+1), s = n(n+1)/2
# (C1 = 1 is the smallest legal scale for desk-size parameter choices); EPS
# is the envelope exponent slack and ENVELOPE_CONSTANT the fitted constant of
# the point-count envelope
C1 = Fraction(1)
EPS = Fraction(1, 2)
ENVELOPE_CONSTANT = Fraction(100)


def laplace_eigenvalue(params):
    """(n^3 - n)/24 + (1/2) sum mu_j^2, exact for rational parameters."""
    n = params.n
    return Fraction(n ** 3 - n, 24) + Fraction(1, 2) * sum(x * x for x in params.mu)


def c_function_norm(lam):
    """prod_{j<k} (1 + |lam_j - lam_k|), adopted as the exact normalization
    of the inverse squared spectral density."""
    lam = [Fraction(x) for x in lam]
    out = Fraction(1)
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            out *= 1 + abs(lam[j] - lam[k])
    return out


def convexity_exponent(n):
    if n < 2:
        raise DomainError("need n >= 2")
    return Fraction(n * (n - 1), 8)


def condition_n_holds(n, d1, d2, big_m):
    sym = n * (n + 1) // 2
    d2 = Fraction(d2)
    return Fraction(big_m) >= C1 * (Fraction(d1) * d2) ** sym * d2


def condition_d_holds(n, d1, d2):
    sym = n * (n + 1) // 2
    return Fraction(d2) >= Fraction(d1) ** sym


def minimal_legal_parameters(n):
    """Smallest (D1, D2, M) satisfying both parameter conditions."""
    return Fraction(1), Fraction(1), max(C1, Fraction(1))


@dataclass
class DeltaResult:
    n: int
    d1: Fraction
    d2: Fraction
    big_m: Fraction
    eta: Fraction
    delta_squared_side: Fraction  # saving on the |F|^2 exponent
    delta: Fraction  # saving for the single-power bound (half of the above)
    e_min: Fraction
    e_max: Fraction
    crossover_gap: Fraction  # first term at e_min minus second at e_max; 0 at optimum
    condition_n: bool
    condition_d: bool

    def to_json(self):
        from .serialize import fraction_to_str

        return {
            "schema": 1,
            "n": self.n,
            "d1": fraction_to_str(self.d1),
            "d2": fraction_to_str(self.d2),
            "m": fraction_to_str(self.big_m),
            "eta": fraction_to_str(self.eta),
            "delta_squared_side": fraction_to_str(self.delta_squared_side),
            "delta": fraction_to_str(self.delta),
            "e_min": fraction_to_str(self.e_min),
            "e_max": fraction_to_str(self.e_max),
            "crossover_gap": fraction_to_str(self.crossover_gap),
            "condition_n": self.condition_n,
            "condition_d": self.condition_d,
        }


def delta_calculator(n, d1=None, d2=None, big_m=None, allow_violations=False):
    """Optimal eta and the exponent saving, worst-cased over the
    stabilization indices.

    For fixed indices the two competing exponents are linear in eta:
    eta * E / 2 rising and 1/(n(n-1)) - eta (n^3 + M/2) E falling, with
    E = (D1 D2)^(i+1) D1^(k+1).  A single eta must serve every admissible
    index pair 0 <= i, k < n(n+1)/2, so the rising term is worst-cased at
    the smallest E (i = k = 0) and the falling term at the largest; the
    optimum sits at the exact rational crossing.  The result is the saving
    on the squared-amplitude exponent; the single-power saving is half.
    Missing parameters take their minimal legal values.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if d1 is None or d2 is None or big_m is None:
        md1, md2, mm = minimal_legal_parameters(n)
        d1 = md1 if d1 is None else Fraction(d1)
        d2 = md2 if d2 is None else Fraction(d2)
        big_m = mm if big_m is None else Fraction(big_m)
    d1, d2, big_m = Fraction(d1), Fraction(d2), Fraction(big_m)
    if d1 < 1 or d2 < 1 or big_m < 1:
        raise DomainError("parameters must be >= 1")
    sym = n * (n + 1) // 2
    # the conditions and e_max raise D1 and D2 to powers up to 2 sym + 1
    bits = sum(x.numerator.bit_length() + x.denominator.bit_length() - 2 for x in (d1, d2))
    if (2 * sym + 1) * bits > MAX_POWER_BITS:
        raise ResourceBudgetError("powers of D1 and D2 beyond %d bits" % MAX_POWER_BITS)
    cond_n = condition_n_holds(n, d1, d2, big_m)
    cond_d = condition_d_holds(n, d1, d2)
    if not allow_violations and not (cond_n and cond_d):
        raise DomainError(
            "parameter conditions violated (condition_n=%s, condition_d=%s)"
            % (cond_n, cond_d)
        )
    # each power is taken of the reduced product of its small bases, and
    # no product below multiplies two huge fractions: their gcds would
    # dominate the run at large n
    e_min = d1 * d1 * d2
    e_max = e_min ** sym
    slope_up = e_min / 2
    intercept = Fraction(1, n * (n - 1))
    slope_down = (n ** 3 + big_m / 2) * e_max
    eta = intercept / (slope_up + slope_down)
    delta_sq = eta * slope_up
    # eta * slope_down, as intercept / (1 + slope_up / slope_down)
    gap = delta_sq - (intercept - intercept / (1 + slope_up / slope_down))
    if delta_sq <= 0:
        raise DomainError("no positive saving at these parameters")
    return DeltaResult(
        n=n,
        d1=d1,
        d2=d2,
        big_m=big_m,
        eta=eta,
        delta_squared_side=delta_sq,
        delta=delta_sq / 2,
        e_min=e_min,
        e_max=e_max,
        crossover_gap=gap,
        condition_n=cond_n,
        condition_d=cond_d,
    )


@dataclass
class BoundReport:
    n: int
    inv_c_norm: Fraction
    l0: Fraction
    big_m: Fraction
    p_size: int
    term_diagonal: float
    term_spectral: float
    term_counting: float
    total: float
    dominant: str
    achieved_exponent: float | None
    delta_achieved: float | None
    level: int
    eps: Fraction

    def to_json(self):
        from .serialize import fraction_to_str

        return {
            "schema": 1,
            "n": self.n,
            "inv_c_norm": fraction_to_str(self.inv_c_norm),
            "l0": fraction_to_str(self.l0),
            "m": fraction_to_str(self.big_m),
            "p_size": self.p_size,
            "terms": {
                "diagonal": repr(self.term_diagonal),
                "spectral": repr(self.term_spectral),
                "counting": repr(self.term_counting),
            },
            "total": repr(self.total),
            "dominant": self.dominant,
            "achieved_exponent": None
            if self.achieved_exponent is None
            else repr(self.achieved_exponent),
            "delta_achieved": None
            if self.delta_achieved is None
            else repr(self.delta_achieved),
            "level": self.level,
            "eps": fraction_to_str(self.eps),
        }


def basic_estimate(inv_c_norm, l0, big_m, p_size, counts, n, level=1):
    """Evaluate the three-term amplified bound on the squared amplitude.

    counts: mapping (nu, p, q) -> count bound for the solution-set size.
    The diagonal term is invc^2/|P|; the spectral term carries the
    (invc^2)^(-1/(n(n-1))) loss against L0^(n^3+M/2); the counting term
    sums the per-pair bounds against L0^(nu(n-1)).  Values are reported as
    floats with the exponent bookkeeping done on the exact inputs; a term
    beyond the float range is a DomainError.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if p_size < 1:
        raise DomainError("the amplifier needs at least one prime")
    inv_c_norm = Fraction(inv_c_norm)
    if inv_c_norm <= 0:
        raise DomainError("the inverse spectral density must be positive")
    l0 = Fraction(l0)
    if l0 <= 1:
        raise DomainError("L0 must exceed 1")
    big_m = Fraction(big_m)
    try:
        invc2 = float(inv_c_norm) ** 2
        term1 = invc2 / p_size
        term2 = invc2 * float(inv_c_norm) ** float(-2 * Fraction(1, n * (n - 1))) * float(
            l0
        ) ** float(n ** 3 + big_m / 2)
        term3_sum = 0.0
        for (nu, p, q), cnt in sorted(counts.items()):
            term3_sum += float(cnt) / float(l0) ** (nu * (n - 1))
        term3 = invc2 * term3_sum / p_size ** 2
        total = term1 + term2 + term3
    except (OverflowError, ZeroDivisionError):
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("a term of the bound leaves the float range")
    named = {"diagonal": term1, "spectral": term2, "counting": term3}
    dominant = max(sorted(named), key=lambda k: named[k])
    achieved = None
    delta_achieved = None
    if inv_c_norm > 1:
        achieved = math.log(total) / math.log(float(inv_c_norm))
        delta_achieved = 2.0 - achieved
    return BoundReport(
        n=n,
        inv_c_norm=inv_c_norm,
        l0=l0,
        big_m=big_m,
        p_size=p_size,
        term_diagonal=term1,
        term_spectral=term2,
        term_counting=term3,
        total=total,
        dominant=dominant,
        achieved_exponent=achieved,
        delta_achieved=delta_achieved,
        level=level,
        eps=EPS,
    )

