"""Seeded property suite behind the `verify` CLI subcommand.

Each module contributes a handful of randomized checks, all driven by one
seed so a run is exactly reproducible.  These are smaller and faster than
the acceptance suite in tests/; they exist so a deployed artifact can
sanity-check itself without pytest.
"""

import math
import random
from fractions import Fraction

from . import bounds, congruences, enumeration, primes, radicals, recursion, xchg
from .matrices import (
    IntegerMatrix,
    RationalSymMatrix,
    congruence,
    determinantal_divisor,
    determinantal_divisor_oracle,
    determinantal_divisors,
    is_q_good,
)

MODULES = (
    "matrices",
    "congruences",
    "radicals",
    "enumeration",
    "primes",
    "exchange",
    "recursion",
    "bounds",
)


def run(module=None, seed=0):
    """Run the property suite; returns {module: [(check, ok, detail), ...]}."""
    chosen = MODULES if module is None else (module,)
    out = {}
    for name in chosen:
        if name not in MODULES:
            raise ValueError("unknown module %r (know %s)" % (name, ", ".join(MODULES)))
        fn = globals()["_check_" + name]
        out[name] = fn(random.Random(seed))
    return out


def _check_matrices(rng):
    checks = []
    ok = True
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        m = IntegerMatrix([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        for j in range(1, n + 1):
            if determinantal_divisor(m, j) != determinantal_divisor_oracle(m.rows, j):
                ok = False
                break
    checks.append(("smith_form_oracle_agreement", ok, "120 random matrices"))
    deltas_ok = True
    for _ in range(60):
        n = rng.choice([2, 3])
        m = IntegerMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        ds = determinantal_divisors(m)
        if ds[-1] != abs(m.det()):
            deltas_ok = False
        for a, b in zip(ds, ds[1:]):
            if a and b % a:
                deltas_ok = False
    checks.append(("divisor_chain", deltas_ok, "divisibility and determinant"))
    checks.append(
        (
            "identity_goodness_is_3_mod_4",
            all(
                is_q_good(p, RationalSymMatrix.identity(2)) == (p % 4 == 3)
                for p in (3, 5, 7, 11, 13, 17, 19, 23)
            ),
            "",
        )
    )
    return checks


def _check_congruences(rng):
    good = 0
    trials = 200
    for _ in range(trials):
        p = rng.choice([3, 5, 7, 13])
        rho = rng.randint(1, 3)
        nn = rng.randint(2, 4)
        x = [rng.randint(-40, 40) for _ in range(nn)]
        while all(v % p == 0 for v in x):
            x = [rng.randint(-40, 40) for _ in range(nn)]
        a = rng.randrange(1, p ** rho)
        while a % p == 0:
            a = rng.randrange(1, p ** rho)
        y = [a * xi + p ** rho * rng.randint(-6, 6) for xi in x]
        mat = [[rng.randint(-5, 5) for _ in range(nn)] for _ in range(nn)]
        for i in range(nn):
            for j in range(i, nn):
                mat[j][i] = mat[i][j]
        if congruences.verify_inner_congruence(x, y, mat, p, rho):
            good += 1
    checks = [("constructed_inner_congruence", good == trials, "%d/%d" % (good, trials))]
    q = RationalSymMatrix.identity(3)
    ang = congruences.min_pairwise_angle([(1, 0, 0), (0, 1, 0), (0, 0, 1)], q)
    checks.append(("orthonormal_angle", abs(ang - math.pi / 2) < 1e-9, repr(ang)))
    return checks


def _check_radicals(rng):
    spec = radicals.RadicalFieldSpec(3, [2, 3])
    mons = spec.monomials()
    ok_ring = True
    ok_inv = True
    for _ in range(20):
        coeffs = {e: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for e in rng.sample(mons, 3)}
        x = radicals.FieldElement(spec, coeffs)
        y = radicals.FieldElement(
            spec, {e: Fraction(rng.randint(-5, 5)) for e in rng.sample(mons, 3)}
        )
        if (x + y) - y != x:
            ok_ring = False
        if not x.is_zero() and x * x.inverse() != spec.one():
            ok_inv = False
    checks = [("exact_ring_ops", ok_ring, ""), ("exact_inverse", ok_inv, "")]
    wb_ok = True
    for _ in range(10):
        pick = rng.sample(mons, 2)
        a = radicals.FieldElement(spec, {pick[0]: Fraction(rng.randint(1, 3))})
        b = radicals.FieldElement(spec, {pick[1]: Fraction(rng.randint(1, 3))})
        pa = radicals.BalancedPair(a, spec.one())
        pb = radicals.BalancedPair(b, spec.one())
        okp, _ = radicals.is_well_balanced(pa * pb, 4, 16)
        oks, _ = radicals.is_well_balanced(
            pa + pb, (2 * 2 + 1) * spec.galois_closure_degree(), 16
        )
        wb_ok = wb_ok and okp and oks
    checks.append(("well_balanced_closure", wb_ok, "monomial pairs"))
    rows = [(spec.root_of(2), spec.from_rational(-1), spec.zero())]
    basis = radicals.kernel_basis_bounded(rows, spec=spec)
    ann = all(radicals.vec_dot(rows[0], v).is_zero() for v in basis)
    checks.append(("kernel_annihilation", ann and len(basis) == 2, ""))
    return checks


def _check_enumeration(rng):
    q = RationalSymMatrix([[2, 1], [1, 3]])
    ok = True
    for _ in range(25):
        t = rng.randint(0, 60)
        got = enumeration.enum_norm_vectors(q, t, 0)
        box = sorted(
            (x, y)
            for x in range(-15, 16)
            for y in range(-15, 16)
            if q.quadratic_value((x, y)) == t
        )
        if got != box:
            ok = False
    checks = [("norm_vector_box_oracle", ok, "25 random targets")]
    # GL3(Z) invariance: U maps the vectors of U^T Q U onto those of Q
    q = RationalSymMatrix([["2", "1/2", 0], ["1/2", "3/2", "1/3"], [0, "1/3", 1]])
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.choice([-2, -1, 1, 2])
        for row in u:
            row[j] += k * row[i]
    qu = RationalSymMatrix(congruence(q.entries, u))
    ts = [Fraction(rng.randint(1, 60), 6) for _ in range(3)]
    want = [enumeration.enum_norm_vectors(q, t, 1) for t in ts]
    got = [sorted(tuple(sum(a * b for a, b in zip(row, y)) for row in u)
                  for y in enumeration.enum_norm_vectors(qu, t, 1)) for t in ts]
    found = sum(map(len, want))
    checks.append(("gl_invariance", got == want, "U = %s, %d vectors in 3 windows" % (u, found)))
    i3 = RationalSymMatrix.identity(3)
    ss = enumeration.enum_S(enumeration.CountingInstance(i3, 3, 3))
    checks.append(("unit_instance_count", ss.count == 192, str(ss.count)))
    ss2 = enumeration.enum_S(enumeration.CountingInstance(i3, 3, 3), prune=False)
    checks.append(("prune_soundness", ss.matrices == ss2.matrices, ""))
    # error regime M = 2: the integer entry windows against leaf-only checks
    window = enumeration.CountingInstance(i3, 3, 3, big_m=2)
    sw = enumeration.enum_S(window)
    sw2 = enumeration.enum_S(window, prune=False)
    checks.append(
        ("prune_soundness_error_regime", sw.matrices == sw2.matrices, str(sw.count))
    )
    sc = enumeration.enum_S(enumeration.CountingInstance(i3, 3, 5))
    checks.append(
        ("irrational_short_circuit", sc.count == 0 and sc.stats["short_circuit"] is not None, "")
    )
    return checks


def _check_primes(rng):
    mats = [RationalSymMatrix.identity(2), RationalSymMatrix([[2, 1], [1, 3]])]
    for _ in range(4):
        den = rng.choice([2, 3, 4, 6])
        a = Fraction(rng.randint(den, 2 * den), den)
        b = Fraction(rng.randint(-den // 2, den // 2), den)
        c = Fraction(rng.randint(den, 2 * den), den)
        try:
            mats.append(RationalSymMatrix([[a, b], [b, c]]))
        except Exception:
            pass
    ok = True
    for q in mats:
        rs = primes.residue_system(q)
        if primes.sample_cross_check(rs, q, 3000):
            ok = False
    checks = [("residue_system_cross_check", ok, "%d matrices, primes to 3000" % len(mats))]
    v = primes.vonmangoldt_ap_sum(10, 2, 1)
    checks.append(
        ("vonmangoldt_window", abs(v - math.log(11 * 13 * 17 * 19)) < 1e-9, repr(v))
    )
    rows = primes.linnik_report(max_modulus=10)
    checks.append(
        ("linnik_small_moduli", all(r["passes"] for r in rows), "%d rows" % len(rows))
    )
    return checks


def _check_exchange(rng):
    i2 = RationalSymMatrix.identity(2)
    rep = xchg.exchange_step(i2, 3, 1)
    checks = [("empty_sets_full_space", rep.subspace.dim == 3, "")]
    sub = xchg.intersect_kernels([(IntegerMatrix.diagonal([1, 2]), 16, ("unit",))], 2)
    v = sub.basis_matrices()[0]
    vals = [[x.rational_value() for x in row] for row in v]
    checks.append(
        ("diag_kernel", sub.dim == 1 and vals[0][0] == 0 and vals[1][1] != 0, "")
    )
    ops = [
        (IntegerMatrix.diagonal([1, 2]), 16, ("a",)),
        (IntegerMatrix.diagonal([1, 3]), 81, ("b",)),
    ]
    d1 = xchg.intersect_kernels(ops[:1], 2).dim
    d2 = xchg.intersect_kernels(ops, 2).dim
    checks.append(("kernel_monotone", d2 <= d1, "%d -> %d" % (d1, d2)))
    return checks


def _check_recursion(rng):
    i2 = RationalSymMatrix.identity(2)
    cert = recursion.proposition_driver(i2, 3, 1, 1, pair_cap=8)
    ok = (
        cert.i < 3
        and cert.k < 3
        and all(v.containment_ok for v in cert.verdicts if v.skipped is None)
    )
    checks = [("toy_driver_n2", ok, "i=%d k=%d" % (cert.i, cert.k))]
    cert2 = recursion.proposition_driver(i2, 3, 1, 1, pair_cap=8)
    checks.append(("certificate_reproducible", cert.to_bytes() == cert2.to_bytes(), ""))
    return checks


def _check_bounds(rng):
    ok = True
    for n in range(2, 9):
        r = bounds.delta_calculator(n)
        if r.delta <= 0 or r.crossover_gap != 0:
            ok = False
    checks = [("delta_positive_all_n", ok, "n in 2..8")]
    lam = bounds.laplace_eigenvalue(bounds.SpectralParameters((0, 0)))
    checks.append(("laplace_base_point", lam == Fraction(1, 4), str(lam)))
    checks.append(
        ("convexity_exponent", bounds.convexity_exponent(2) == Fraction(1, 4), "")
    )
    return checks
