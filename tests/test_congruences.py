import math
import random

import pytest

from isocount.congruences import (
    min_pairwise_angle,
    minor_congruences_hold,
    scalar_congruence,
    verify_inner_congruence,
)
from isocount.errors import DomainError, PreconditionFailed
from isocount.matrices import RationalSymMatrix


def test_scalar_congruence_examples():
    assert scalar_congruence((1, 2), (3, 1), 5, 1).a == 3
    assert scalar_congruence((1, 2), (1, 2), 5, 1).a == 1
    with pytest.raises(PreconditionFailed):
        scalar_congruence((1, 0), (0, 1), 5, 1)
    with pytest.raises(PreconditionFailed):
        scalar_congruence((5, 10), (5, 10), 5, 1)  # completely divisible


def test_scalar_congruence_uniqueness_exhaustive():
    for p, rho in ((3, 1), (5, 1), (3, 2), (7, 1)):
        mod = p ** rho
        x = (1, 2, 5)
        for a0 in range(1, mod):
            if math.gcd(a0, p) != 1:
                continue
            y = tuple(a0 * v % mod for v in x)
            w = scalar_congruence(x, y, p, rho)
            sols = [
                a
                for a in range(1, mod)
                if math.gcd(a, p) == 1
                and all((yi - a * xi) % mod == 0 for xi, yi in zip(x, y))
            ]
            assert sols == [w.a]


def test_inner_congruence_hand_example():
    # 2 * 5 = 10 against 3 * 5 + inverse-lift * 10 modulo 25
    assert verify_inner_congruence((1, 2), (3, 1), [[1, 0], [0, 1]], 5, 1) is True


def test_inner_congruence_x_equals_y():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 4)
        p = rng.choice([3, 5, 7])
        x = [rng.randint(-9, 9) for _ in range(n)]
        while all(v % p == 0 for v in x):
            x = [rng.randint(-9, 9) for _ in range(n)]
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[j][i] = mat[i][j]
        assert verify_inner_congruence(x, x, mat, p, 1) is True


def test_inner_congruence_constructed_1000():
    rng = random.Random(42)
    for _ in range(1000):
        p = rng.choice([3, 5, 7, 13, 41, 97])
        rho = rng.randint(1, 3)
        n = rng.randint(2, 4)
        x = [rng.randint(-50, 50) for _ in range(n)]
        while all(v % p == 0 for v in x):
            x = [rng.randint(-50, 50) for _ in range(n)]
        a = rng.randrange(1, p ** rho)
        while a % p == 0:
            a = rng.randrange(1, p ** rho)
        b = [rng.randint(-10, 10) for _ in range(n)]
        y = [a * xi + p ** rho * bi for xi, bi in zip(x, b)]
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[j][i] = mat[i][j]
        assert minor_congruences_hold(x, y, p ** rho)
        assert verify_inner_congruence(x, y, mat, p, rho) is True


def test_angle_orthogonal_pair():
    q = RationalSymMatrix.identity(2)
    a = min_pairwise_angle([(1, 0), (0, 1)], q)
    assert a <= math.pi / 2 and math.pi / 2 - a < 1e-12


def test_angle_collinear():
    q = RationalSymMatrix.identity(2)
    assert min_pairwise_angle([(1, 0), (1, 0)], q) == 0.0
    assert min_pairwise_angle([(2, 4), (1, 2)], q) == 0.0


def test_angle_zero_vector_rejected():
    q = RationalSymMatrix.identity(2)
    with pytest.raises(DomainError):
        min_pairwise_angle([(0, 0), (1, 0)], q)


def test_angle_is_lower_bound_and_metric_sensitive():
    q = RationalSymMatrix([[2, 1], [1, 3]])
    a = min_pairwise_angle([(1, 0), (0, 1)], q)
    true = math.acos(1 / math.sqrt(6))
    assert a <= true + 1e-15 and true - a < 1e-12


def test_angle_packing_envelope():
    # families on the unit circle separated by alpha: |A| <= C alpha^-(n-1)
    q = RationalSymMatrix.identity(2)
    fams = {
        4: [(1, 0), (0, 1), (-1, 0), (0, -1)],
        8: [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)],
    }
    constant = 8.0
    for size, fam in fams.items():
        alpha = min_pairwise_angle(fam, q)
        assert alpha > 0
        assert size <= constant * alpha ** (-(2 - 1))


def test_collinearity_consequence_on_enumeration_data():
    # columns x, y that can occupy the same slot of a solution (same first
    # column, minor congruences mod p) with norms = 0 mod p^2 have
    # <x, y> = 0 mod p^2: the inner-product consequence on real data
    from collections import defaultdict

    from isocount.enumeration import CountingInstance, enum_S
    from isocount.matrices import RationalSymMatrix

    p = 5
    ss = enum_S(CountingInstance(RationalSymMatrix.identity(3), p, p))

    def unit_part(v):
        return any(a % p for a in v)

    by_first = defaultdict(list)
    for g in ss.matrices:
        # the statement carries the non-divisibility hypotheses: the shared
        # reference column and both candidate columns keep a unit entry
        first, second = list(zip(*g.rows))[:2]  # the columns
        if unit_part(first) and unit_part(second):
            by_first[first].append(second)
    checked = 0
    for first, seconds in by_first.items():
        for i in range(len(seconds)):
            for j in range(i + 1, len(seconds)):
                x, y = seconds[i], seconds[j]
                assert sum(a * a for a in x) % p ** 2 == 0
                dot = sum(a * b for a, b in zip(x, y))
                assert dot % p ** 2 == 0
                checked += 1
    assert checked > 100


def test_packing_bound_on_sphere_family():
    # pairwise non-collinear lattice points of one norm on the sphere:
    # the family size obeys the packing envelope at its measured separation
    from isocount.enumeration import enum_norm_vectors
    from isocount.matrices import RationalSymMatrix

    q = RationalSymMatrix.identity(3)
    vecs = enum_norm_vectors(q, 25, 0)
    family = []
    for v in vecs:
        if all(v[0] * w[1] - v[1] * w[0] or v[0] * w[2] - v[2] * w[0] or v[1] * w[2] - v[2] * w[1]
               for w in family):
            family.append(v)
    alpha = min_pairwise_angle(family, q)
    assert alpha > 0
    assert len(family) <= 64 * alpha ** -(3 - 1)
