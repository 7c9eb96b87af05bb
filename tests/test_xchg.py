import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from isocount.arith import iroot
from isocount.enumeration import CountingInstance, enum_S
from isocount import xchg
from isocount.errors import (
    DomainError,
    InternalConsistencyError,
    NoPointFound,
    PreconditionFailed,
    ZeroKernel,
)
from isocount.arith import interval_of
from isocount.matrices import Echelon, IntegerMatrix, RationalSymMatrix, Region
from isocount.radicals import RadicalFieldSpec, coerce_vectors, kernel_basis_bounded, vec_dot
from isocount.xchg import (
    default_pairs,
    exchange_step,
    find_q_prime,
    fits_int64,
    full_sym_subspace,
    intersect_kernels,
    pair_scalar_m,
    sym_to_vec,
    vec_to_sym,
)
from oracles import TransferOperator

I2 = RationalSymMatrix.identity(2)
I3 = RationalSymMatrix.identity(3)


def test_sym_coordinates_roundtrip():
    n = 3
    entries = [[Fraction(i * 3 + j + (j * 3 + i)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            entries[j][i] = entries[i][j]
    v = sym_to_vec(entries, n)
    assert len(v) == 6
    back = vec_to_sym(v, n)
    assert back == entries


def test_zero_operator_identity():
    op = TransferOperator(IntegerMatrix.diagonal([1] * 2), 1)
    assert all(x.is_zero() for row in op.rows for x in row)


def test_zero_operator_scalar_case():
    # gamma = p I with m = p^(2n): conjugation scales by p^2 = m^(1/n)
    op = TransferOperator(IntegerMatrix.diagonal([3, 3]), 3 ** 4)
    assert all(x.is_zero() for row in op.rows for x in row)


def test_diag_kernel_example():
    sub = intersect_kernels([(IntegerMatrix.diagonal([1, 2]), 16, ("pair",))], 2)
    assert sub.dim == 1
    mat = sub.basis_matrices()[0]
    vals = [[x.rational_value() for x in row] for row in mat]
    assert vals[0][0] == 0 and vals[0][1] == 0 and vals[1][1] != 0


def test_operator_apply_consistency():
    rng = random.Random(5)
    for m in (2, 3, 8):
        g = IntegerMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        op = TransferOperator(g, m)
        s = [[Fraction(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        s[1][0] = s[0][1]
        vec = [op.spec.coerce(x) for x in sym_to_vec(s, 2)]
        via_matrix = vec_to_sym([vec_dot(row, vec) for row in op.rows], 2)
        direct = op.apply_direct(s)
        for i in range(2):
            for j in range(2):
                assert (via_matrix[i][j] - direct[i][j]).is_zero()


def test_empty_intersection_is_full_space():
    sub = intersect_kernels([], 3)
    assert sub.dim == 6
    assert not sub.generator_rows


def test_kernel_monotone_under_more_pairs():
    ops = [
        (IntegerMatrix.diagonal([1, 2]), 16, ("a",)),
        (IntegerMatrix.diagonal([1, 3]), 81, ("b",)),  # same kernel ray
    ]
    d1 = intersect_kernels(ops[:1], 2).dim
    d12 = intersect_kernels(ops, 2).dim
    assert d12 <= d1
    full = full_sym_subspace(2).dim
    assert d1 <= full


def test_kernel_zero_detected():
    # two incompatible scalings annihilate everything
    ops = [
        (IntegerMatrix.diagonal([1] * 2), 1, ("a",)),  # zero operator, no constraint
        (IntegerMatrix.diagonal([2, 2]), 1, ("b",)),  # Q -> 4Q - Q: only zero
    ]
    with pytest.raises(ZeroKernel):
        intersect_kernels(ops, 2)


def test_irrational_scalar_kernel():
    # gamma = diag(1,2), m = 2: rows live in Q(sqrt 2); kernel is trivial to
    # state: gamma^T Q gamma = sqrt(2) Q has no nonzero symmetric solution
    with pytest.raises(ZeroKernel):
        intersect_kernels([(IntegerMatrix.diagonal([1, 2]), 2, ("irr",))], 2)


def test_selected_pair_bookkeeping():
    rep = exchange_step(I3, 3, 1)
    assert rep.subspace.dim == 1
    assert rep.selected_pairs == ((3, 3, 1),)
    assert rep.field_spec.is_rational
    assert len(rep.subspace.generator_rows) == 5
    assert rep.verified > 0 and rep.violations == 0


def test_pair_scalar():
    assert pair_scalar_m((3, 5, 1), 3) == 25 * 3 ** 4
    assert pair_scalar_m((3, 3, 2), 2) == 3 ** 4 * 3 ** 4


def test_interval_bounds():
    assert interval_of(3, 1) == (3, 6)
    assert interval_of(3, 2) == (3, 18)
    with pytest.raises(DomainError):
        interval_of(2, 1)


def test_fractional_d_window_matches_the_chain():
    # [3, floor(2 * 3^(3/2))] = [3, 10], not the truncated [3, 2 * 3^1]
    rep = exchange_step(I2, 3, Fraction(3, 2), nu_values=[1])
    assert {p for p, _, _ in rep.pair_set} == {3, 5, 7}


def test_find_q_prime_full_space_prefers_reference():
    q = RationalSymMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    reg = Region.box_around(q, Fraction(1, 8))
    qp = find_q_prime(full_sym_subspace(2), reg, q)
    assert qp.rational and qp.entries == q.entries
    assert qp.den == 2


def test_find_q_prime_scalar_ray():
    # the rotation fixes exactly the multiples of I among symmetric matrices
    sub = intersect_kernels([(IntegerMatrix([[0, -1], [1, 0]]), 1, ("rot",))], 2)
    assert sub.dim == 1
    q = RationalSymMatrix([[Fraction(33, 32), 0], [0, Fraction(33, 32)]])
    reg = Region.box_around(q, Fraction(1, 4))
    qp = find_q_prime(sub, reg, q)
    m = qp.entries
    assert m[0][1] == 0 and m[0][0] == m[1][1]
    assert qp.den is not None and qp.den <= 32


def test_find_q_prime_rank_deficient_ray_fails():
    sub = intersect_kernels([(IntegerMatrix.diagonal([1, 2]), 16, ("p",))], 2)
    # kernel = span(E22), never positive definite
    q = RationalSymMatrix.identity(2)
    reg = Region.box_around(q, Fraction(1, 4))
    with pytest.raises(NoPointFound):
        find_q_prime(sub, reg, q)


def test_exchange_requires_inner_region():
    q = RationalSymMatrix.identity(2)
    reg = Region.box_around(RationalSymMatrix([[5, 0], [0, 5]]), Fraction(1, 4))
    with pytest.raises(PreconditionFailed):
        exchange_step(q, 3, 1, region=reg)


def test_exchange_n2_all_empty():
    rep = exchange_step(I2, 3, 1)
    assert rep.subspace.dim == 3
    assert all(s.count == 0 for s in rep.solutions.values())
    assert rep.q_prime.rational
    assert rep.field_spec.is_rational


def test_exchange_containment_verified_n3():
    rep = exchange_step(I3, 3, 1)
    counts = {p: s.count for p, s in rep.solutions.items()}
    assert counts[(3, 3, 1)] == 192 and counts[(5, 5, 3)] == 7200
    assert counts[(3, 5, 1)] == 0  # irrational target
    assert rep.verified == sum(counts.values())
    # every enumerated matrix is exactly isometric for the replacement
    qp = rep.q_prime.as_rational_matrix()
    inst = CountingInstance(qp, 125, 125, big_m=None)
    assert enum_S(inst).count >= counts[(5, 5, 3)]


def test_exchange_report_json_deterministic():
    a = exchange_step(I2, 3, 1).to_json()
    b = exchange_step(I2, 3, 1).to_json()
    assert a == b


def test_default_pairs():
    pairs = default_pairs(3, 6, 2, None)
    assert (3, 5, 1) in pairs and (5, 3, 2) in pairs
    assert all(nu in (1, 2) for (_, _, nu) in pairs)
    only1 = default_pairs(3, 6, 3, nu_values=[1])
    assert all(nu == 1 for (_, _, nu) in only1)


def test_find_q_prime_irrational_field_branch():
    # a genuinely irrational subspace: kernel of the single coordinate row
    # (th, -1, 0) inside 2x2 symmetric space, th = 2^(1/3)
    from isocount.xchg import SymSubspace

    spec = RadicalFieldSpec(3, [2])
    th = spec.root_of(2)
    row = (th, spec.from_rational(-1), spec.zero())
    basis = kernel_basis_bounded([row], spec=spec)
    sub = SymSubspace(
        n=2, spec=spec, generator_rows=(row,), provenance=((("x", "x", 1), None, 0),),
        basis=tuple(basis),
    )
    q = RationalSymMatrix.identity(2)
    with pytest.raises(NoPointFound):
        find_q_prime(sub, Region.box_around(q, Fraction(1, 4)), q)
    qp = find_q_prime(sub, Region.box_around(q, Fraction(1)), q)
    assert not qp.rational and qp.den is None
    # the point satisfies the defining relation th * Q11 = Q12 exactly
    e = qp.entries
    assert (th * e[0][0] - e[0][1]).is_zero()
    assert e[0][1] == e[1][0]
    # report serialization carries coefficient vectors for the entries
    assert "coefficients" in e[0][0].to_json()


def test_operator_annihilates_exchange_basis():
    # B(Q') = 0 exactly for every contributing (gamma, m), not only for the
    # selected generator rows
    from isocount.xchg import pair_scalar_m, sym_to_vec

    rep = exchange_step(I3, 3, 1, nu_values=[1])
    basis_mats = rep.subspace.basis_matrices()
    checked = 0
    for pair, ss in sorted(rep.solutions.items()):
        m = pair_scalar_m(pair, 3)
        for gamma in ss.matrices[:10]:
            op = TransferOperator(gamma, m)
            for bm in basis_mats:
                vals = [[x.rational_value() for x in row] for row in bm]
                image = op.apply_direct(vals)
                assert all(x.is_zero() for row in image for x in row)
                checked += 1
    assert checked > 0


def test_generator_count_bounds():
    rep = exchange_step(I3, 3, 1)
    sym_dim = 3 * 4 // 2
    assert len(rep.subspace.generator_rows) <= sym_dim
    assert len(rep.selected_pairs) <= sym_dim
    assert rep.subspace.dim + len(rep.subspace.generator_rows) == sym_dim


def test_membership_against_lifted_rational_symbolic_q():
    # a symbolic matrix with rational entries must agree with the rational path
    from isocount.enumeration import CountingInstance, SymbolicSymMatrix, verify_membership
    from isocount.radicals import RadicalFieldSpec

    spec = RadicalFieldSpec(3, [2])
    sym = SymbolicSymMatrix(
        [[spec.from_rational(1), spec.zero(), spec.zero()],
         [spec.zero(), spec.from_rational(1), spec.zero()],
         [spec.zero(), spec.zero(), spec.from_rational(1)]],
        spec,
    )
    rat_inst = CountingInstance(I3, 5, 5)
    sym_inst = CountingInstance(sym, 5, 5)
    from isocount.enumeration import enum_S

    sols = enum_S(rat_inst).matrices
    for g in sols[:8]:
        assert verify_membership(sym_inst, g)
    bad = IntegerMatrix.diagonal([1] * 3)
    assert not verify_membership(sym_inst, bad)


# companion matrix C of x^3 - 2: through its real eigenvalue 2^(1/3), the
# operator at the irrational scale 4^(1/3) has a nonzero kernel, spanned by
# w w^T for the matching eigenvector w of C^T
CUBIC_COMPANION = IntegerMatrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])


def matmul(a, b):
    n = a.n
    return IntegerMatrix(
        [[sum(a[i, k] * b[k, j] for k in range(n)) for j in range(n)] for i in range(n)]
    )


@st.composite
def contributions(draw):
    """1-3 contributions of one family: c times a signed permutation (mostly
    at its own scale c^(2n), whose kernel holds I), powers of the cubic
    companion at their scales 4^k, or small random matrices."""
    family = draw(st.sampled_from(["scaled", "companion", "random"]))
    n = 3 if family == "companion" else draw(st.integers(2, 3))
    out = []
    for k in range(draw(st.integers(1, 3))):
        if family == "companion":
            power = draw(st.integers(1, 2))
            gamma = CUBIC_COMPANION if power == 1 else matmul(CUBIC_COMPANION, CUBIC_COMPANION)
            m = 4 ** power if draw(st.integers(0, 3)) else draw(st.sampled_from([1, 2, 8]))
        elif family == "scaled":
            c = draw(st.integers(1, 2))
            perm = draw(st.permutations(range(n)))
            signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
            gamma = IntegerMatrix(
                [[c * signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            )
            m = c ** (2 * n) if draw(st.integers(0, 3)) else draw(st.sampled_from([2, 4, 8]))
        else:
            gamma = IntegerMatrix(
                draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                              min_size=n, max_size=n))
            )
            m = draw(st.sampled_from([1, 2, 4, 8, 16]))
        out.append((gamma, m, ("c", k)))
    return n, out


@settings(max_examples=60, deadline=None)
@given(contributions())
def test_intersect_kernels_is_the_nullspace_of_the_stacked_operators(data):
    n, contribs = data
    sym_dim = n * (n + 1) // 2
    spec = RadicalFieldSpec(n, [m for _, m, _ in contribs if not iroot(m, n)[1]])
    ops = [TransferOperator(gamma, m, spec) for gamma, m, _ in contribs]
    ech = Echelon()
    rank = sum(ech.add(row) for op in ops for row in op.rows)
    if rank == sym_dim:
        with pytest.raises(ZeroKernel):
            intersect_kernels(contribs, n)
        return
    sub = intersect_kernels(contribs, n)
    assert sub.dim == sym_dim - rank
    for op in ops:
        for mat in sub.basis_matrices():
            assert all(x.is_zero() for row in op.apply_direct(mat) for x in row)


# ---------------------------------------------------------------------------
# generator selection: the kernel-side test against the greedy Echelon scan


def greedy_echelon_scan(rows_with_labels, sym_dim):
    """The selection as a plain greedy scan: every row goes through the
    elimination, and a row is kept exactly when the rank rises."""
    ech = Echelon()
    rows, labels = [], []
    for row, label in rows_with_labels:
        if ech.add(row):
            rows.append(tuple(row))
            labels.append(label)
            if len(rows) == sym_dim:
                break
    return rows, labels


CUBIC = RadicalFieldSpec(3, [2])
THETA = CUBIC.root_of(2)


def entries_of(field):
    small = st.integers(-3, 3)
    if field == "int":
        return small
    if field == "fraction":
        return st.builds(Fraction, small, st.integers(1, 4))
    # a + b 2^(1/3) + c 2^(2/3), or a plain int as in the operator rows
    return st.one_of(small, st.builds(lambda a, b, c: a + b * THETA + c * THETA * THETA,
                                      small, small, small))


@st.composite
def row_streams(draw):
    """Rows over int, Fraction or Q(2^(1/3)): fresh rows, zero rows, repeats
    and combinations of earlier rows, so that many rows are dependent."""
    field = draw(st.sampled_from(["int", "fraction", "cubic"]))
    n = draw(st.integers(1, 3))
    dim = n * (n + 1) // 2
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append((0,) * dim)
        elif kind == "fresh":
            rows.append(tuple(draw(st.lists(entries_of(field), min_size=dim, max_size=dim))))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(entries_of(field)), draw(entries_of(field))
            rows.append(tuple(c * x + d * y for x, y in zip(a, b)))
    return n, [(row, ("row", k)) for k, row in enumerate(rows)]


@settings(max_examples=150, deadline=None)
@given(row_streams())
def test_kernel_side_selection_equals_the_greedy_echelon_scan(data):
    n, stream = data
    # Q(2^(1/3)) holds the entries of every stream
    sel = xchg._GreedySelection(n, CUBIC)
    for row, label in stream:
        sel.offer(row, label)
        if sel.full:
            break
    assert (sel.rows, sel.labels) == greedy_echelon_scan(stream, n * (n + 1) // 2)
    # intersect_kernels takes its subspace basis from the scan's kernel
    if not sel.rows:
        return
    if sel.full:
        with pytest.raises(ZeroKernel):
            kernel_basis_bounded(sel.rows, CUBIC)
        return
    assert coerce_vectors(CUBIC, sel.kernel) == kernel_basis_bounded(sel.rows, CUBIC)


# entries beyond fits_int64 at n <= 3 (|gamma| >= 2^31) and beyond int64
LARGE = st.sampled_from([2 ** 31, 3 * 10 ** 9 + 1, 2 ** 40 - 3, 2 ** 63, 2 ** 64 + 1])


@st.composite
def pair_blocks(draw):
    """Contributions in blocks of one m: scaled signed permutations c P at
    their own scale c^(2n) (their kernels hold I), repeats, small random
    matrices and matrices with entries too large for int64 products."""
    n = draw(st.integers(2, 3))
    out = []
    for block in range(draw(st.integers(1, 3))):
        c = draw(st.integers(0, 3)) or draw(LARGE)
        m = c ** (2 * n) if draw(st.integers(0, 3)) else draw(st.sampled_from([1, 2, 16]))
        for k in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["scaled"] * 4 + ["repeat"] * 2 + ["random", "large"]))
            if kind == "repeat" and out and out[-1][1] == m:
                gamma = out[-1][0]
            elif kind in ("scaled", "repeat"):
                perm = draw(st.permutations(range(n)))
                signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
                gamma = IntegerMatrix(
                    [[c * signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
                )
            else:
                entry = st.integers(-2, 2) if kind == "random" else st.one_of(
                    st.integers(-2, 2), LARGE, LARGE.map(lambda x: -x))
                gamma = IntegerMatrix(
                    draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
                )
            out.append((gamma, m, ("block", block)))
    return n, out


@settings(max_examples=80, deadline=None)
@given(pair_blocks(), st.sampled_from([1, 2, 4096]))
def test_batched_selection_equals_the_greedy_echelon_scan(data, batch):
    # small batches put chunk boundaries inside the blocks
    n, contribs = data
    sym_dim = n * (n + 1) // 2
    spec = RadicalFieldSpec(n, [m for _, m, _ in contribs if not iroot(m, n)[1]])
    stream = [
        (row, (label, gamma, ridx))
        for gamma, m, label in contribs
        for ridx, row in enumerate(TransferOperator(gamma, m, spec).rows)
    ]
    rows, labels = greedy_echelon_scan(stream, sym_dim)
    with mock.patch.object(xchg, "BATCH", batch):
        if len(rows) == sym_dim:
            with pytest.raises(ZeroKernel):
                intersect_kernels(contribs, n)
            return
        sub = intersect_kernels(contribs, n)
    assert list(sub.generator_rows) == rows
    assert list(sub.provenance) == labels


def test_fits_int64_at_its_bound():
    # kmax (n^2 gmax^2 + |s|) <= 2^63 - 1, with equality admitted
    g = 2 ** 30
    s = 2 ** 63 - 1 - 4 * g * g
    assert fits_int64(2, g, 1, s) and fits_int64(2, g, 1, -s)
    assert not fits_int64(2, g, 1, s + 1)
    assert fits_int64(3, 1, (2 ** 63 - 1) // 10, 1)
    assert not fits_int64(3, 1, (2 ** 63 - 1) // 10 + 1, 1)


@pytest.mark.parametrize("s, batched", [(2 ** 62 - 1, True), (2 ** 62, False)])
def test_numpy_path_runs_exactly_within_the_bound(s, batched):
    # gamma = diag(2^30, 1) at the scale s: the unit kernel vectors give
    # kmax (n^2 gmax^2 + s) = 2^62 + s, which is 2^63 - 1 for the first s
    calls = []
    real = xchg._GreedySelection._first_live

    def spy(self, arr, start, scale):
        calls.append(scale)
        return real(self, arr, start, scale)

    # the operator of gamma at the scale s is invertible: its kernel is zero
    contribs = [(IntegerMatrix.diagonal([2 ** 30, 1]), s * s, ("p",))]
    with mock.patch.object(xchg._GreedySelection, "_first_live", spy):
        with pytest.raises(ZeroKernel):
            intersect_kernels(contribs, 2)
    assert bool(calls) == batched


def test_selection_refuses_a_row_the_kernel_test_misjudges():
    # the elimination must raise the rank of every row off the kernel
    sel = xchg._GreedySelection(1, xchg.RATIONALS)
    sel.kernel = [(1,)]
    sel.offer((1,), "a")
    sel.kernel = [(1,)]  # a stale kernel: (2,) now looks independent
    with pytest.raises(InternalConsistencyError):
        sel.offer((2,), "b")
