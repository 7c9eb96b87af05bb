"""The doubly-recursive chain construction and the certificate driver.

Outer chain: growing prime intervals produce nested pair sets, nested
kernel intersections, and a stabilization index.  Inner chain: inside the
stabilized scale, only pairs with an integral target remain, the fields
are all rational, and each level filters its primes through goodness for
the previous level's replacement matrix.  The driver classifies every pair
in the final window and backs each reported bound either by a certified
zero count, an exact envelope comparison against the measured count, or
an explicitly labeled budget skip.
"""

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from . import xchg
from .bounds import EPS, ENVELOPE_CONSTANT, condition_d_holds, condition_n_holds
from .enumeration import (
    DEFAULT_BUDGET,
    CountingInstance,
    enum_many,
    enum_S,
    verify_batch,
    verify_membership,
)
from .errors import DomainError, ResourceBudgetError
from .matrices import Region
from .primes import good_prime_set, residue_system
from .serialize import dumps, fraction_to_str
from .xchg import (
    default_pairs,
    find_q_prime,
    intersect_kernels,
    nu_range,
    pair_scalar_m,
    replacement_field,
)
from .arith import (
    MAX_INTERVAL_EXPONENT,
    ceil_root,
    floor_power,
    interval_of,
    primes_in_range,
)


class PairCase(enum.Enum):
    CASE1 = 1  # q != p, 2 nu / n not an integer: integrality contradiction
    CASE2 = 2  # q != p but 2 nu / n integral: killed at good primes
    CASE3 = 3  # q = p: column-collinearity packing bound


def classify_pair(p, q, nu, n):
    if not 1 <= nu <= n:
        raise DomainError("nu outside 1..n")
    if p == q:
        return PairCase.CASE3
    if (2 * nu) % n == 0:
        return PairCase.CASE2
    return PairCase.CASE1


@dataclass
class ChainLevel:
    j: int
    interval: tuple
    pairs: tuple
    subspace: object
    q_matrix: object  # ReplacementMatrix
    field_rational: bool

    @property
    def dim(self):
        return self.subspace.dim


@dataclass
class ChainResult:
    levels: list
    stabilization: int

    def dims(self):
        return [lv.dim for lv in self.levels]


class EnumCache:
    """Per-driver cache of solution sets keyed by (a, b), for the form q
    and the bound big_m (None for M = infinity); it also configures the
    chains, which read q, big_m, the node budget and the worker count
    from it.

    get enumerates one miss through enum_S; fill enumerates the misses of
    a key list through enum_many, as a chain level does.  Either way each
    miss runs under `budget` nodes and the first column of each miss is
    cut into slices that share one pool of `workers` processes, with the
    outcome of one worker."""

    def __init__(self, q, big_m, budget, workers):
        self.q = q
        self.big_m = big_m
        self.budget = budget
        self.workers = workers
        self.store = {}

    def get(self, a, b):
        key = (a, b)
        if key not in self.store:
            inst = CountingInstance(self.q, a=a, b=b, big_m=self.big_m)
            self.store[key] = enum_S(inst, budget=self.budget, workers=self.workers)
        return self.store[key]

    def fill(self, keys):
        misses = [key for key in keys if key not in self.store]
        instances = [CountingInstance(self.q, a=a, b=b, big_m=self.big_m) for a, b in misses]
        self.store.update(zip(misses, enum_many(instances, self.budget, self.workers)))


def _level_subspace(cache, pairs, n):
    pairs = sorted(pairs)
    if cache.workers > 1:
        cache.fill([(q ** nu, p ** nu) for p, q, nu in pairs])
    contributions = []
    for pair in pairs:
        p, q, nu = pair
        ss = cache.get(q ** nu, p ** nu)
        m = pair_scalar_m(pair, n)
        for gamma in ss.matrices:
            contributions.append((gamma, m, pair))
    return intersect_kernels(contributions, n)


def _stabilize(name, cache, level_pairs, rational_only=False):
    """Levels j = 0, 1, ... until the kernel intersection stops shrinking.

    level_pairs(j, levels) gives the window and the pair set of level j
    from the levels built so far, at most xchg.DEFAULT_PAIR_BUDGET pairs;
    each level's replacement matrix lies in Region.reference_box(cache.q).
    The dimension sequence must be weakly decreasing, the containment at
    the stabilization step is verified exactly, and the level count is
    bounded by the symmetric dimension plus one.
    """
    q = cache.q
    n = q.n
    region = Region.reference_box(q)
    pair_budget = xchg.DEFAULT_PAIR_BUDGET
    levels = []
    for j in range(n * (n + 1) // 2 + 1):
        window, pairs = level_pairs(j, levels)
        if len(pairs) > pair_budget:
            raise ResourceBudgetError(
                "%s level %d holds %d pairs (budget %d)" % (name, j, len(pairs), pair_budget)
            )
        sub = _level_subspace(cache, pairs, n)
        kspec = replacement_field(sub)
        if rational_only and not kspec.is_rational:
            raise DomainError("%s chain produced an irrational field" % name)
        qp = find_q_prime(sub, region, q)
        prev = levels[-1].subspace if levels else None
        if prev is not None and sub.dim > prev.dim:
            raise DomainError("%s chain dimension increased; pair sets not nested" % name)
        stable = prev is not None and sub.dim == prev.dim
        if stable and not prev.contains_subspace(sub):
            raise DomainError("%s stabilized level is not contained in its predecessor" % name)
        levels.append(
            ChainLevel(
                j=j,
                interval=window,
                pairs=tuple(pairs),
                subspace=sub,
                q_matrix=qp,
                field_rational=kspec.is_rational,
            )
        )
        if stable:
            return ChainResult(levels=levels, stabilization=j - 1)
    raise DomainError("%s chain failed to stabilize before the pigeonhole bound" % name)


def outer_chain(cache, l_param, d1, d2, nu_values):
    """Chain of kernel intersections over the growing intervals
    [L, 2 L^(D1^j D2^(j+1))] for the form, M, node budget and workers of
    cache; stops at the first level whose subspace equals the previous
    one."""
    n = cache.q.n
    d1, d2 = Fraction(d1), Fraction(d2)

    def level_pairs(j, levels):
        window = interval_of(l_param, d1 ** j * d2 ** (j + 1))
        return window, default_pairs(*window, n, nu_values)

    return _stabilize("outer", cache, level_pairs)


def inner_chain(cache, l_cal, d1, nu_values):
    """The rational-field chain inside the stabilized scale, for the form,
    M, node budget and workers of cache.

    Level j uses the pairs accumulated so far: integral-target pairs from
    the starting window plus, for each later level, integral-target pairs
    of the dyadic window whose primes are good for the previous level's
    replacement matrix.  All replacement matrices here are rational.
    """
    n = cache.q.n
    d1 = Fraction(d1)
    nus = nu_range(nu_values, n)
    pair_budget = xchg.DEFAULT_PAIR_BUDGET
    filter_history = []

    def level_pairs(j, levels):
        if j == 0:
            window = interval_of(l_cal, Fraction(1))
            primes = primes_in_range(*window)
            entry = {"level": 0, "window": window, "good_filter": None}
        else:
            system = residue_system(levels[-1].q_matrix.as_rational_matrix())
            window = _tilde_window(l_cal, d1, j)
            primes = good_prime_set(system, *window)
            entry = {
                "level": j,
                "window": window,
                "good_filter": {"modulus": system.modulus,
                                "allowed": sorted(system.allowed)},
                "good_primes": primes,
            }
        fresh = []
        for nu in nus:
            # q != p has an integral target only when n divides 2 nu
            for p in primes:
                for qq in primes if (2 * nu) % n == 0 else (p,):
                    fresh.append((p, qq, nu))
                    # fresh lies inside the level's pair set: stop before
                    # listing more than _stabilize would accept
                    if len(fresh) > pair_budget:
                        raise ResourceBudgetError(
                            "inner level %d holds more than its budget of %d pairs"
                            % (j, pair_budget)
                        )
        entry["fresh_pairs"] = len(fresh)
        filter_history.append(entry)
        pool = set(levels[-1].pairs) if levels else set()
        return window, sorted(pool | set(fresh))

    chain = _stabilize("inner", cache, level_pairs, rational_only=True)
    return chain, filter_history


def _tilde_window(l_cal, d1, j):
    """[ceil(L^(D1^j)), floor(2 L^(D1^j))] as integers."""
    l_fr = Fraction(l_cal)
    expo = Fraction(d1) ** j
    if expo > MAX_INTERVAL_EXPONENT:
        raise ResourceBudgetError(
            "inner window exponent %s beyond the supported desk scale" % expo
        )
    return ceil_root(l_fr ** expo.numerator, expo.denominator), floor_power(l_fr, expo)


@dataclass
class PairVerdict:
    p: int
    q: int
    nu: int
    case: str
    count: int | None  # measured count for the original instance, if run
    prime_count: int | None  # measured count for the replacement instance
    envelope_ok: bool | None
    containment_ok: bool | None
    skipped: str | None

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "nu": self.nu,
            "case": self.case,
            "count": self.count,
            "prime_count": self.prime_count,
            "envelope_ok": self.envelope_ok,
            "containment_ok": self.containment_ok,
            "skipped": self.skipped,
        }


@dataclass
class RecursionCertificate:
    n: int
    l_param: Fraction
    d1: Fraction
    d2: Fraction
    big_m: object
    i: int
    k: int
    l_cal: Fraction
    minor_values: tuple
    coprimality_values: tuple
    value_bound: int
    condition_n: bool
    condition_d: bool
    interval_nesting: bool
    outer_dims: tuple
    inner_dims: tuple
    den_q_star: int
    final_window: tuple
    prime_set: tuple
    verdicts: tuple

    def to_json(self):
        return {
            "schema": 1,
            "n": self.n,
            "l": fraction_to_str(self.l_param),
            "d1": fraction_to_str(self.d1),
            "d2": fraction_to_str(self.d2),
            "m": "inf" if self.big_m is None else fraction_to_str(self.big_m),
            "i": self.i,
            "k": self.k,
            "l_cal": fraction_to_str(self.l_cal),
            "minor_values": sorted(self.minor_values),
            "coprimality_values": sorted(self.coprimality_values),
            "value_bound": self.value_bound,
            "condition_n": self.condition_n,
            "condition_d": self.condition_d,
            "interval_nesting": self.interval_nesting,
            "outer_dims": list(self.outer_dims),
            "inner_dims": list(self.inner_dims),
            "den_q_star": self.den_q_star,
            "final_window": list(self.final_window),
            "prime_set": list(self.prime_set),
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def to_bytes(self):
        return dumps(self.to_json()).encode()


def _envelope_case2(count, p, q, nu, n):
    """count <= C (1 + q/p)^(nu (n-1)) * (q p^(n-1))^(nu (n-2+eps) / n), exact,
    with C = ENVELOPE_CONSTANT and eps = EPS."""
    expo = Fraction(nu) * (n - 2 + EPS) / n
    v = expo.denominator
    lhs = Fraction(count) ** v
    rhs = (
        ENVELOPE_CONSTANT ** v
        * (1 + Fraction(q, p)) ** (nu * (n - 1) * v)
        * Fraction(q * p ** (n - 1)) ** expo.numerator
    )
    return lhs <= rhs


def _envelope_case3(count, p, nu, n, den):
    """count <= C den^((n-1)^2/2) p^(nu(n-2+eps)), exact, with
    C = ENVELOPE_CONSTANT and eps = EPS."""
    expo = Fraction(nu) * (n - 2 + EPS)
    half = Fraction((n - 1) ** 2, 2)
    v = math.lcm(expo.denominator, half.denominator)
    lhs = Fraction(count) ** v
    rhs = (
        ENVELOPE_CONSTANT ** v
        * Fraction(den) ** int(half * v)
        * Fraction(p) ** int(expo * v)
    )
    return lhs <= rhs


# node budget of each replacement instance the driver's pair verdicts enumerate
STAR_BUDGET = 10 ** 7


def proposition_driver(
    q,
    l_param,
    d1,
    d2,
    big_m=None,
    nu_values=None,
    budget=DEFAULT_BUDGET,
    workers=1,
    pair_cap=64,
):
    """Run both chains and verify the per-pair bounds in the final window.

    The nu values are checked and freed of repeats (xchg.nu_range) before
    anything is enumerated.  Both chains share one EnumCache and work in
    Region.reference_box(q) under xchg.DEFAULT_PAIR_BUDGET; the final
    window's primes are the good primes of Q*, and the
    first pair_cap pairs of them are verified, the replacement instances
    under a node budget of STAR_BUDGET.  Desk-scale parameters may violate
    the largeness conditions; violations are flagged in the certificate,
    while all containments and all parameter-independent case bounds are
    still verified exactly.
    """
    n = q.n
    dd = Fraction(d1) * Fraction(d2)
    if dd.denominator != 1:
        # L^((D1 D2)^(i+1)) is then no rational number for any level i
        raise DomainError("D1*D2 = %s must be an integer" % dd)
    nus = nu_range(nu_values, n)
    cache = EnumCache(q, big_m, budget, workers)

    outer = outer_chain(cache, l_param, d1, d2, nus)
    i = outer.stabilization
    l_cal = Fraction(l_param) ** (dd.numerator ** (i + 1))
    inner, filter_history = inner_chain(cache, l_cal, d1, nus)
    k = inner.stabilization
    q_star = inner.levels[k].q_matrix.as_rational_matrix()
    minors = q_star.minor_set()
    diag = tuple(q_star.tilde[t, t] for t in range(n))
    system = residue_system(q_star)
    wlo, whi = _tilde_window(l_cal, Fraction(d1), k + 1)
    prime_set = tuple(good_prime_set(system, wlo, whi))

    star_cache = EnumCache(q_star, None, STAR_BUDGET, workers)
    verdicts = []
    pairs_examined = 0
    for p in prime_set:
        for qq in prime_set:
            for nu in nus:
                if pairs_examined >= pair_cap:
                    verdicts.append(
                        PairVerdict(p=p, q=qq, nu=nu, case=classify_pair(p, qq, nu, n).name,
                                    count=None, prime_count=None, envelope_ok=None,
                                    containment_ok=None, skipped="pair_cap")
                    )
                    continue
                pairs_examined += 1
                verdicts.append(
                    _verify_pair(cache, star_cache, q_star, p, qq, nu, n)
                )
    outer_dims = tuple(outer.dims())
    inner_dims = tuple(inner.dims())
    value_bound = max([*minors, *diag, 1])
    return RecursionCertificate(
        n=n,
        l_param=Fraction(l_param),
        d1=Fraction(d1),
        d2=Fraction(d2),
        big_m=big_m,
        i=i,
        k=k,
        l_cal=l_cal,
        minor_values=tuple(sorted(minors)),
        coprimality_values=diag,
        value_bound=value_bound,
        condition_n=(big_m is None) or condition_n_holds(n, d1, d2, big_m),
        condition_d=condition_d_holds(n, d1, d2),
        interval_nesting=_interval_nesting_holds(l_param, l_cal, d1, d2, i, n),
        outer_dims=outer_dims,
        inner_dims=inner_dims,
        den_q_star=q_star.den,
        final_window=(wlo, whi),
        prime_set=prime_set,
        verdicts=tuple(verdicts),
    )


def _verify_pair(cache, star_cache, q_star, p, qq, nu, n):
    case = classify_pair(p, qq, nu, n)
    a, b = qq ** nu, p ** nu
    inst_star = CountingInstance(q_star, a=a, b=b, big_m=None)
    try:
        ss = cache.get(a, b)
        star_set = star_cache.get(a, b)
    except ResourceBudgetError:
        return PairVerdict(p=p, q=qq, nu=nu, case=case.name, count=None,
                           prime_count=None, envelope_ok=None, containment_ok=None,
                           skipped="budget")
    # the cached set passed Delta_1 and Delta_2 against the same (a, b)
    mask = verify_batch(inst_star, ss.matrices)
    if mask is None:
        mask = (verify_membership(inst_star, g) for g in ss.matrices)
    containment = all(mask)
    if case is PairCase.CASE1:
        envelope_ok = ss.count == 0 and star_set.count == 0
        # certified two ways: symbolic short-circuit and forced empty search
        forced = enum_S(inst_star, budget=star_cache.budget, force_search=True)
        envelope_ok = envelope_ok and forced.count == 0
    elif case is PairCase.CASE2:
        envelope_ok = _envelope_case2(star_set.count, p, qq, nu, n)
    else:
        envelope_ok = _envelope_case3(star_set.count, p, nu, n, q_star.den)
    return PairVerdict(
        p=p,
        q=qq,
        nu=nu,
        case=case.name,
        count=ss.count,
        prime_count=star_set.count,
        envelope_ok=envelope_ok,
        containment_ok=containment,
        skipped=None,
    )


def _interval_nesting_holds(l_param, l_cal, d1, d2, i, n):
    """Numerically record whether the inner windows sit inside the gap
    between consecutive outer intervals (guaranteed only under the
    largeness conditions)."""
    sym_dim = n * (n + 1) // 2
    d1, d2 = Fraction(d1), Fraction(d2)
    l_fr = Fraction(l_param)
    inner_top = floor_power(l_cal, d1 ** sym_dim)
    outer_i_top = floor_power(l_fr, d1 ** i * d2 ** (i + 1))
    outer_next_top = floor_power(l_fr, d1 ** (i + 1) * d2 ** (i + 2))
    return outer_i_top < math.ceil(l_cal) and inner_top <= outer_next_top
