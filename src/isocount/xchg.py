"""Operator rows on symmetric matrices, kernel intersections, the
generator selection that assembles the replacement field, and the bounded
replacement matrix.

The operator attached to an integer matrix gamma and a positive integer m
sends Q to gamma^T Q gamma - m^(1/n) Q on the n(n+1)/2-dimensional space of
symmetric matrices.  Gathering kernels over all enumerated gamma for a set
of prime-power pairs produces the subspace in which the reference matrix
can be exchanged for one with controlled arithmetic and no error term; the
containment that justifies the exchange is re-verified here by direct
membership of every enumerated matrix (its entries against the
replacement in one batch; its determinantal divisors were checked against
the same b when it was enumerated).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enumeration import (
    DEFAULT_BUDGET,
    CountingInstance,
    SymbolicSymMatrix,
    enum_many,
    enum_S,
    verify_batch,
    verify_membership,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    NoPointFound,
    PreconditionFailed,
    ResourceBudgetError,
    ZeroKernel,
)
from .matrices import (
    BATCH,
    Echelon,
    RationalSymMatrix,
    Region,
    fits_int64,
    int64_stack,
    ldl,
    solve,
)
from .radicals import (
    FieldElement,
    RadicalFieldSpec,
    coerce_vectors,
    echelon_kernel_basis,
    gram_schmidt,
    vec_dot,
)
from .arith import interval_of, iroot, primes_in_range


RATIONALS = RadicalFieldSpec(1, ())
# find_q_prime rounds through the denominators 2^0, 2^1, ..., 2^DEN_BOUND_LOG2
DEN_BOUND_LOG2 = 40


def sym_index_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def sym_to_vec(entries, n):
    return tuple(entries[i][j] for (i, j) in sym_index_pairs(n))


def vec_to_sym(vec, n):
    pairs = sym_index_pairs(n)
    out = [[None] * n for _ in range(n)]
    for (i, j), v in zip(pairs, vec):
        out[i][j] = v
        out[j][i] = v
    return out


def scalar_root_is_rational(m, n):
    """m^(1/n) is rational exactly when the integer m is a perfect n-th power."""
    return iroot(m, n)[1]


def _scale_root(m, n, spec):
    """m^(1/n): an int when m is a perfect n-th power, else an element of spec."""
    root, exact = iroot(m, n)
    return root if exact else spec.power_root(m, 1)


def _operator_rows(gamma, scalar):
    """Rows of Q -> gamma^T Q gamma - scalar Q on the symmetric basis: ints
    off the diagonal, val - scalar on it.  Column (k, l) is the image of the
    basis matrix E_kl + E_lk (E_kk on the diagonal)."""
    pairs = sym_index_pairs(gamma.n)
    g = gamma.rows
    rows = []
    for rix, (i, j) in enumerate(pairs):
        row = []
        for col, (k, l) in enumerate(pairs):
            if k == l:
                val = g[k][i] * g[k][j]
            else:
                val = g[k][i] * g[l][j] + g[l][i] * g[k][j]
            row.append(val - scalar if col == rix else val)
        rows.append(tuple(row))
    return rows


@dataclass
class SymSubspace:
    """A subspace of the symmetric matrices given by orthogonal-complement
    generator rows (a minimal independent set) and a bounded integral basis."""

    n: int
    spec: RadicalFieldSpec
    generator_rows: tuple  # tuples of FieldElement
    provenance: tuple  # one label per generator row
    basis: tuple  # integral basis vectors of the kernel

    @property
    def dim(self):
        return len(self.basis)

    @property
    def sym_dim(self):
        return self.n * (self.n + 1) // 2

    def annihilates(self, vec):
        vec = [self.spec.coerce(x) for x in vec]
        return all(vec_dot(row, vec).is_zero() for row in self.generator_rows)

    def contains_subspace(self, other):
        """Exact: every basis vector of `other` killed by my generators."""
        return all(self.annihilates(v) for v in other.basis)

    def basis_matrices(self):
        return [vec_to_sym(v, self.n) for v in self.basis]


def full_sym_subspace(n):
    spec = RadicalFieldSpec(1, ())
    dim = n * (n + 1) // 2
    basis = []
    for i in range(dim):
        v = [spec.zero()] * dim
        v[i] = spec.one()
        basis.append(tuple(v))
    return SymSubspace(n=n, spec=spec, generator_rows=(), provenance=(), basis=tuple(basis))


class _GreedySelection:
    """The greedy scan: the rows kept so far, their Echelon, and an integral
    basis of their common kernel.

    A row depends on the kept rows exactly when it annihilates every kernel
    vector, so only an independent row reaches the elimination.  The kernel
    starts as the unit vectors and is rebuilt after each kept row (at most
    n(n+1)/2 times); its entries are plain ints while every kept row is
    rational and elements of spec, the rows' field, after that.
    """

    def __init__(self, n, spec):
        self.n = n
        self.sym_dim = n * (n + 1) // 2
        self.spec = spec
        self.ech = Echelon()
        self.rows = []
        self.labels = []
        self.kernel = [tuple(int(i == j) for j in range(self.sym_dim))
                       for i in range(self.sym_dim)]
        self.int_kernel = True

    @property
    def full(self):
        return len(self.rows) == self.sym_dim

    def offer(self, row, label):
        """Keep row when it is independent of the rows kept so far."""
        row = tuple(row)
        if not any(sum(a * b for a, b in zip(row, k) if b) for k in self.kernel):
            return
        if not self.ech.add(row):
            raise InternalConsistencyError("a row off the kernel left the rank unchanged")
        self.rows.append(row)
        self.labels.append(label)
        if self.full:
            self.kernel = []
            return
        if self.int_kernel and any(
            isinstance(x, FieldElement) and not x.is_rational() for x in row
        ):
            self.int_kernel = False
        if self.int_kernel:
            basis = echelon_kernel_basis(self.ech, self.sym_dim, RATIONALS)
            self.kernel = [tuple(x.rational_value().numerator for x in k) for k in basis]
        else:
            self.kernel = echelon_kernel_basis(self.ech, self.sym_dim, self.spec)

    def offer_chunk(self, chunk, s):
        """Offer the rows of every (gamma, m, label) in chunk, all at the
        scale s, in order.  While s and the kernel are integers and
        fits_int64 holds, one numpy pass finds the first gamma with a row
        off the kernel; only that gamma's rows are built and offered."""
        arr = gmax = None
        i = 0
        while i < len(chunk) and not self.full:
            if isinstance(s, int) and self.int_kernel:
                if gmax is None:
                    arr, gmax = int64_stack([gamma for gamma, _, _ in chunk])
                kmax = max(abs(x) for k in self.kernel for x in k)
                if fits_int64(self.n, gmax, kmax, s):
                    i = self._first_live(arr, i, s)
                    if i == len(chunk):
                        return
            gamma, _, label = chunk[i]
            for ridx, row in enumerate(_operator_rows(gamma, s)):
                self.offer(row, (label, gamma, ridx))
            i += 1

    def _first_live(self, arr, start, s):
        """Index of the first gamma in arr[start:] whose operator leaves some
        kernel vector alive, or len(arr).  Row (i, j) of the operator dotted
        with k is entry (i, j) of gamma^T K gamma - s K, K = vec_to_sym(k)."""
        g = arr[start:]
        gt = g.transpose(0, 2, 1)
        live = np.zeros(len(g), dtype=bool)
        for k in self.kernel:
            kmat = np.array(vec_to_sym(k, self.n), dtype=np.int64)
            live |= (gt @ kmat @ g - s * kmat).any(axis=(1, 2))
        hits = np.flatnonzero(live)
        return start + int(hits[0]) if len(hits) else len(arr)


def intersect_kernels(contributions, n):
    """Kernel intersection of the operators attached to (gamma, m) pairs.

    contributions: iterable of (gamma, m, label); empty input returns the
    full symmetric space.  Operators are stacked row by row and a minimal
    generating set is kept by the greedy scan of _GreedySelection, in the
    order given (pairs sorted, matrices in lexicographic order, row index):
    a row is kept exactly when it is independent of the rows kept before
    it.  The scan runs on one block of consecutive contributions with one
    m at a time, so that its kernel-side test is batched on numpy wherever
    it provably fits in int64.  The subspace basis is the scan's own
    integral kernel basis K of the kept rows, coerced into the field, and
    each basis vector is re-verified against every selected generator.
    The field adjoins to Q the irrational scales m^(1/n) of the distinct
    m; rows stay ints wherever the scale is rational, so the elimination
    runs on plain rationals until an irrational scale enters.
    """
    contributions = list(contributions)
    if not contributions:
        return full_sym_subspace(n)
    scales = dict.fromkeys(m for _, m, _ in contributions)
    spec = RadicalFieldSpec(n, [m for m in scales if not scalar_root_is_rational(m, n)])

    sel = _GreedySelection(n, spec)
    for m, block in itertools.groupby(contributions, key=lambda c: c[1]):
        block = list(block)
        s = _scale_root(m, n, spec)
        for lo in range(0, len(block), BATCH):
            sel.offer_chunk(block[lo:lo + BATCH], s)
    if not sel.rows:
        return full_sym_subspace(n)
    if sel.full:
        raise ZeroKernel("kernel intersection is the zero subspace")
    selected = coerce_vectors(spec, sel.rows)
    sub = SymSubspace(
        n=n,
        spec=spec,
        generator_rows=tuple(selected),
        provenance=tuple(sel.labels),
        basis=tuple(coerce_vectors(spec, sel.kernel)),
    )
    for v in sub.basis:
        if not sub.annihilates(v):
            raise InternalConsistencyError("kernel basis vector not annihilated")
    if sub.dim + len(selected) != sub.sym_dim:
        raise InternalConsistencyError("rank-nullity mismatch in kernel intersection")
    return sub


def replacement_field(subspace):
    """The field attached to the selected generators, per the pair scalars."""
    n = subspace.n
    rad = []
    for label in subspace.provenance:
        pair = label[0]
        m = pair_scalar_m(pair, n)
        if not scalar_root_is_rational(m, n):
            rad.append(m)
    return RadicalFieldSpec(n, rad)


def pair_scalar_m(pair, n):
    """(p, q, nu) -> m = q^(2 nu) p^(2 nu (n-1)), the operator scale."""
    p, q, nu = pair
    return q ** (2 * nu) * p ** (2 * nu * (n - 1))


# ---------------------------------------------------------------------------
# the replacement matrix


@dataclass
class ReplacementMatrix:
    entries: tuple  # Fractions when rational, FieldElements otherwise
    rational: bool
    den: int | None
    rounding_log2: int | None

    def as_rational_matrix(self):
        if not self.rational:
            raise DomainError("replacement matrix is not rational")
        return RationalSymMatrix(self.entries)

    def as_symbolic(self, spec):
        return SymbolicSymMatrix(coerce_vectors(spec, self.entries), spec)


def find_q_prime(subspace, region, reference_q):
    """A matrix in (subspace cap region) with entries in the subspace field.

    Rational subspace: project the reference exactly, then round the basis
    coefficients through the denominator schedule 2^0, 2^1, ...,
    2^DEN_BOUND_LOG2, keeping the first rounding that stays in the subspace
    (by construction) and passes the exact region test (box + positive
    definiteness).  Irrational
    subspace: return the exact projection, verified certified-positively.
    """
    n = subspace.n
    spec = subspace.spec
    ref_vec = sym_to_vec(reference_q.entries, n)
    basis = [list(v) for v in subspace.basis]
    if spec.is_rational:
        bas = [[x.rational_value() for x in v] for v in basis]
        coeffs = _project_coefficients(bas, [Fraction(x) for x in ref_vec])
        for k in range(DEN_BOUND_LOG2 + 1):
            bound = 2 ** k
            rounded = [c.limit_denominator(bound) for c in coeffs]
            vec = [
                sum(rounded[i] * bas[i][j] for i in range(len(bas)))
                for j in range(len(ref_vec))
            ]
            entries = vec_to_sym(vec, n)
            if not region.box_contains_entries(entries):
                continue
            try:
                qp = RationalSymMatrix(entries)
            except DomainError:
                continue
            return ReplacementMatrix(
                entries=tuple(tuple(r) for r in qp.entries),
                rational=True,
                den=qp.den,
                rounding_log2=k,
            )
        raise NoPointFound(
            "no rational point of the subspace inside the region at denominators up to 2^%d"
            % DEN_BOUND_LOG2
        )
    # irrational field: exact projection
    ortho = gram_schmidt(basis, spec)
    proj = [spec.zero()] * len(ref_vec)
    refv = [spec.from_rational(x) for x in ref_vec]
    for w in ortho:
        c = vec_dot(refv, w) / vec_dot(w, w)
        proj = [a + c * b for a, b in zip(proj, w)]
    entries = vec_to_sym(proj, n)
    if not region.box_contains_entries(entries):
        raise NoPointFound("exact projection leaves the region")
    try:
        ldl(entries)
    except DomainError:
        raise NoPointFound("exact projection is not positive definite") from None
    return ReplacementMatrix(
        entries=tuple(tuple(r) for r in entries),
        rational=False,
        den=None,
        rounding_log2=None,
    )


def _project_coefficients(basis_vectors, target):
    """Exact least-squares coefficients of the projection onto span(basis)."""
    k = len(basis_vectors)
    gram = [
        [sum(a * b for a, b in zip(basis_vectors[i], basis_vectors[j])) for j in range(k)]
        for i in range(k)
    ]
    rhs = [sum(a * b for a, b in zip(basis_vectors[i], target)) for i in range(k)]
    sol = solve(gram, rhs)
    if sol is None:
        raise InternalConsistencyError("gram matrix of a basis is singular")
    return sol


# ---------------------------------------------------------------------------
# the full exchange step


@dataclass
class ExchangeReport:
    subspace: SymSubspace
    pair_set: tuple  # all pairs fed in
    selected_pairs: tuple  # the minimal contributing pair set
    field_spec: RadicalFieldSpec
    q_prime: ReplacementMatrix
    solutions: dict  # pair -> SolutionSet
    verified: int
    violations: int

    def to_json(self):
        from .serialize import fraction_to_str

        return {
            "schema": 1,
            "dim_h": self.subspace.dim,
            "pairs": [list(p) for p in self.pair_set],
            "selected_pairs": [list(p) for p in self.selected_pairs],
            "field": {
                "degree": self.field_spec.degree,
                "radicands": [fraction_to_str(r) for r in self.field_spec.radicands],
                "rational": self.field_spec.is_rational,
            },
            "q_prime_rational": self.q_prime.rational,
            "q_prime": [
                [
                    fraction_to_str(e) if self.q_prime.rational else e.to_json()
                    for e in row
                ]
                for row in self.q_prime.entries
            ],
            "den_q_prime": self.q_prime.den,
            "solution_counts": {
                "%d,%d,%d" % p: s.count for p, s in sorted(self.solutions.items())
            },
            "verified_memberships": self.verified,
            "violations": self.violations,
        }


DEFAULT_PAIR_BUDGET = 20000


def nu_range(nu_values, n):
    """The nu values asked for, repeats dropped in first-occurrence order,
    or 1..n when none are; DomainError for a nu outside 1..n."""
    if not nu_values:
        return list(range(1, n + 1))
    for nu in nu_values:
        if not 1 <= nu <= n:
            raise DomainError("a nu value needs 1 <= nu <= %d, got %r" % (n, nu))
    return list(dict.fromkeys(nu_values))


def default_pairs(low, high, n, nu_values):
    """All ordered prime pairs from [low, high] with the given nu range;
    ResourceBudgetError before the list is built if it would hold more
    than DEFAULT_PAIR_BUDGET pairs."""
    primes = primes_in_range(low, high)
    nus = nu_range(nu_values, n)
    size = len(primes) ** 2 * len(nus)
    if size > DEFAULT_PAIR_BUDGET:
        raise ResourceBudgetError(
            "%d pairs exceed the budget of %d" % (size, DEFAULT_PAIR_BUDGET)
        )
    return [(p, q, nu) for p in primes for q in primes for nu in nus]


def exchange_step(
    q,
    l_param,
    d_param,
    big_m=None,
    pairs=None,
    region=None,
    nu_values=None,
    budget=DEFAULT_BUDGET,
    workers=1,
):
    """Run the exchange end to end for one interval of primes.

    Enumerates the solution sets for every pair, intersects the operator
    kernels, selects generators, produces the replacement matrix, and then
    verifies the containment by direct membership of every enumerated
    matrix in the exact-equation set of the replacement.  A containment
    violation is an internal-consistency failure, never a soft result.
    The region defaults to Region.reference_box(q) and must hold q in its
    inner box (PreconditionFailed otherwise).  With workers > 1 the pairs'
    instances go to enum_many, which runs the slices of their first
    columns over one pool, each instance under `budget`, so the report
    and the budget verdict are those of workers = 1.
    """
    n = q.n
    if region is None:
        region = Region.reference_box(q)
    if not region.contains_inner(q):
        raise PreconditionFailed("reference matrix lies outside the inner region")
    if pairs is None:
        low, high = interval_of(l_param, d_param)
        pairs = default_pairs(low, high, n, nu_values)
    pairs = sorted(set(pairs))

    instances = [CountingInstance(q, a=qq ** nu, b=p ** nu, big_m=big_m)
                 for p, qq, nu in pairs]
    if workers > 1:
        sets = enum_many(instances, budget, workers)
    else:
        sets = [enum_S(inst, budget=budget) for inst in instances]
    solutions = dict(zip(pairs, sets))
    contributions = []
    for pair in pairs:
        m = pair_scalar_m(pair, n)
        for gamma in solutions[pair].matrices:
            contributions.append((gamma, m, pair))

    sub = intersect_kernels(contributions, n)
    selected_pairs = tuple(sorted({lab[0] for lab in sub.provenance}))
    kspec = replacement_field(sub)
    qp = find_q_prime(sub, region, q)

    if qp.rational:
        q_prime_mat = qp.as_rational_matrix()
    else:
        q_prime_mat = qp.as_symbolic(sub.spec)
    verified = 0
    violations = 0
    for pair, ss in sorted(solutions.items()):
        p, qq, nu = pair
        inst_prime = CountingInstance(q_prime_mat, a=qq ** nu, b=p ** nu, big_m=None)
        # enum_S checked Delta_1 and Delta_2 of these matrices against the
        # same b, so the batch checks the entries against Q' only
        mask = verify_batch(inst_prime, ss.matrices)
        if mask is None:
            mask = [verify_membership(inst_prime, gamma) for gamma in ss.matrices]
        ok = sum(mask)
        verified += ok
        violations += len(mask) - ok
    if violations:
        raise InternalConsistencyError(
            "%d enumerated matrices escape the exchanged set" % violations
        )
    return ExchangeReport(
        subspace=sub,
        pair_set=tuple(pairs),
        selected_pairs=selected_pairs,
        field_spec=kspec,
        q_prime=qp,
        solutions=solutions,
        verified=verified,
        violations=violations,
    )
