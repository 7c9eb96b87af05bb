"""Brute-force reference implementations used as the independent side of
dual-route checks.  Everything here is deliberately naive: box scans and
nested loops over candidate columns with direct definition tests, no
Fincke-Pohst walk, no congruence pruning, no Smith form."""

import itertools
import math
from fractions import Fraction

import numpy as np

from isocount import xchg
from isocount.arith import iroot
from isocount.errors import ResourceBudgetError
from isocount.matrices import IntegerMatrix
from isocount.radicals import FieldElement, RadicalFieldSpec


def box_norm_vectors(q, t_lo, t_hi, box):
    """All integer vectors with t_lo <= y^T Q y <= t_hi and |y_i| <= box."""
    n = q.n
    out = []
    for y in itertools.product(range(-box, box + 1), repeat=n):
        v = q.quadratic_value(y)
        if t_lo <= v <= t_hi:
            out.append(tuple(y))
    return sorted(out)


def exact_box(q, hi):
    """max_i floor(sqrt(hi (Q^-1)_ii)) + 1: y^T Q y <= hi forces
    y_i^2 <= hi (Q^-1)_ii, by Cauchy-Schwarz in the inner product of Q."""
    rows = [list(r) for r in q.entries]
    d = _det(rows)
    cofactors = [_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != i])
                 for i in range(q.n)]
    return max(math.isqrt(math.floor(max(hi, 0) * c / d)) + 1 for c in cofactors)


def box_norm_vectors_np(t, box):
    """Identity-form box scan via numpy (n = 3 only)."""
    rng = np.arange(-box, box + 1)
    x, y, z = np.meshgrid(rng, rng, rng, indexing="ij")
    mask = x * x + y * y + z * z == t
    vs = np.stack([x[mask], y[mask], z[mask]], axis=1)
    return sorted(tuple(int(v) for v in row) for row in vs)


def gcd_minors(rows, j):
    n = len(rows)
    g = 0
    for rsel in itertools.combinations(range(n), j):
        for csel in itertools.combinations(range(n), j):
            sub = [[rows[r][c] for c in csel] for r in rsel]
            g = math.gcd(g, abs(_det(sub)))
    return g


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(sub)
    return total


def enum_S_oracle(q, a, b):
    """The exact-equation solution set by nested loops over norm candidates.

    Column candidates come from a plain box scan; triples (or pairs for
    n = 2) are tested directly against the bilinear conditions and the
    gcd-of-minors divisor conditions.  Returns a sorted list of flattened
    row-major entry tuples.  Empty when the target scale is irrational.
    """
    n = q.n
    s = a * b ** (n - 1)
    t = None
    r = round((s * s) ** (1.0 / n))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** n == s * s:
            t = cand
            break
    if t is None:
        return []
    targets = [t * q[j, j] for j in range(n)]
    box = exact_box(q, max(targets))
    cands = [
        box_norm_vectors(q, tj, tj, box) for tj in targets
    ]
    out = []
    for cols in itertools.product(*cands):
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if q.bilinear_value(cols[i], cols[j]) != t * q[i, j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        rows = [[cols[jj][ii] for jj in range(n)] for ii in range(n)]
        if gcd_minors(rows, 1) != 1:
            continue
        if gcd_minors(rows, 2) != b:
            continue
        out.append(tuple(x for row in rows for x in row))
    return sorted(out)


def enum_S_oracle_fast3(a, b):
    """Identity-form n=3 oracle with numpy candidate lists but naive pairing."""
    s = a * b * b
    r = round((s * s) ** (1.0 / 3))
    t = None
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** 3 == s * s:
            t = cand
            break
    if t is None:
        return []
    vs = box_norm_vectors_np(t, math.isqrt(t))
    arr = np.array(vs, dtype=np.int64) if vs else np.zeros((0, 3), dtype=np.int64)
    out = []
    for x in vs:
        dots1 = arr @ np.array(x, dtype=np.int64)
        second = [tuple(int(v) for v in arr[i]) for i in np.nonzero(dots1 == 0)[0]]
        for y in second:
            ya = np.array(y, dtype=np.int64)
            for i in np.nonzero((arr @ ya == 0) & (arr @ np.array(x, dtype=np.int64) == 0))[0]:
                z = tuple(int(v) for v in arr[i])
                rows = [[x[k], y[k], z[k]] for k in range(3)]
                if gcd_minors(rows, 1) != 1:
                    continue
                if gcd_minors(rows, 2) != b:
                    continue
                out.append(tuple(v for row in rows for v in row))
    return sorted(out)


class TupleSearch:
    """The matrix search of enumeration._SearchContext as plain loops on int
    tuples: the same constructor and run(order), the same visiting order,
    and every counter of stats and the budget charged as the array search
    charges them.  enum_S runs it in place of the array search when the
    module's _SearchContext is patched to it.  A pair (x at i, y at j) is
    kept iff lo_ij <= x^T Qt y <= hi_ij (a pairwise prune otherwise) and
    every 2x2 minor of (x, y) vanishes mod b (a minor prune otherwise);
    the leaf decides Delta_1 and Delta_2 by gcd_minors.  With prune=False
    no candidate is filtered and the leaf tests its pairs in (i, j) order,
    counting the first that fails."""

    def __init__(self, instance, bounds, cands, stats, budget, prune):
        self.inst = instance
        self.bounds = bounds
        self.stats = stats
        self.budget = budget
        self.prune = prune
        self.qt = instance.q.tilde.rows
        self.cands = [[tuple(y) for y in c] for c in cands]

    def run(self, order):
        out = []
        self.dfs(order, 0, {}, self.cands, out)
        return out

    def dfs(self, order, depth, placed, cands, out):
        n = self.inst.n
        if depth == n:
            self._leaf(placed, out)
            return
        j = order[depth]
        for y in cands[depth]:
            self.stats["nodes"] += 1
            if self.stats["nodes"] > self.budget:
                raise ResourceBudgetError("matrix enumeration budget exhausted")
            new_placed = dict(placed)
            new_placed[j] = y
            if not self.prune:
                self.dfs(order, depth + 1, new_placed, cands, out)
                continue
            new_cands = list(cands)
            for d2 in range(depth + 1, n):
                new_cands[d2] = self._filter(order[d2], j, y, new_cands[d2])
                if not new_cands[d2]:
                    self.stats["prunes"]["window"] += 1
                    break
            else:
                self.dfs(order, depth + 1, new_placed, new_cands, out)

    def _pair_ok(self, i, x, j, y):
        n = len(x)
        lo, hi = self.bounds[i][j]
        dot = sum(x[r] * self.qt[r][s] * y[s] for r in range(n) for s in range(n))
        if not lo <= dot <= hi:
            self.stats["prunes"]["pairwise"] += 1
            return False
        for r in range(n):
            for s in range(r + 1, n):
                if (x[r] * y[s] - x[s] * y[r]) % self.inst.b:
                    self.stats["prunes"]["minor"] += 1
                    return False
        return True

    def _filter(self, col, j, y, candidates):
        return [c for c in candidates if self._pair_ok(j, y, col, c)]

    def _leaf(self, placed, out):
        n = self.inst.n
        cols = [placed[j] for j in range(n)]
        if not self.prune:
            for i in range(n):
                for j in range(i + 1, n):
                    if not self._pair_ok(i, cols[i], j, cols[j]):
                        return
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        if gcd_minors(rows, 1) != 1 or gcd_minors(rows, 2) != self.inst.b:
            self.stats["prunes"]["delta"] += 1
            return
        out.append(IntegerMatrix(rows))


def field_norm(z):
    """The field norm of z: the determinant of multiplication by z on the
    monomial basis of its field, by plain Gaussian elimination over Q."""
    mons = z.spec.monomials()
    columns = [(z * FieldElement(z.spec, {e: Fraction(1)})).coeffs for e in mons]
    a = [[col.get(e, Fraction(0)) for col in columns] for e in mons]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def solution_set_flat(solution_set):
    return sorted(g.flat() for g in solution_set.matrices)


class TransferOperator:
    """Q -> gamma^T Q gamma - m^(1/n) Q over spec (by default Q(m^(1/n)),
    which is Q when m is a perfect n-th power): `rows` are the pipeline's
    operator rows, and apply_direct evaluates the map entry by entry with
    no shared code."""

    def __init__(self, gamma, m, spec=None):
        n = gamma.n
        if spec is None:
            spec = RadicalFieldSpec(n, () if iroot(m, n)[1] else [m])
        self.gamma = gamma
        self.spec = spec
        self.scalar = spec.coerce(xchg._scale_root(m, n, spec))
        self.rows = tuple(
            tuple(spec.coerce(x) for x in row)
            for row in xchg._operator_rows(gamma, self.scalar)
        )

    def apply_direct(self, sym_entries):
        """(gamma^T Q gamma)_ij = sum_kl g_ki Q_kl g_lj, minus m^(1/n) Q_ij."""
        g = self.gamma.rows
        q = [[self.spec.coerce(x) for x in row] for row in sym_entries]
        n = len(q)
        return [
            [
                sum(g[k][i] * q[k][l] * g[l][j] for k in range(n) for l in range(n))
                - self.scalar * q[i][j]
                for j in range(n)
            ]
            for i in range(n)
        ]
