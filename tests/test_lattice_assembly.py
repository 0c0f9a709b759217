"""Lattice-native tables against the point search they replaced.

The oracle rebuilds every kernel-weighted table the way assembly did
before it used lattice offsets: a k-d tree search (`neighbor_pairs`)
gives the interior pairs and boundary lists, and each weight is the
kernel at the pair's coordinate distance. The lattice build evaluates
the kernel once per half-offset instead and decides ties once per
offset, so it stores no exact zeros. Both must agree to 1e-13 relative
to the largest entry once the oracle's zero-weight entries are dropped.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from nldir import (EnergyOperator, MeshError, PenaltySpec, assemble,
                   build_mesh, neighbor_pairs, w_mass_matrix)
from nldir.assembly import (PER_NODE_VARIANTS, VARIANTS, ZERO_DATA_VARIANTS,
                            _cosine_sum, _stencil_matrix, trace_matrix)
from nldir.geometry import lattice_stencil
from nldir.kernels import (QUARTIC, KernelSpec, antiderivative_kernel,
                           eval_scaled)
from nldir.minimize import _cg_iterates

L_SHAPE = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5], [0.5, 1.0],
           [0.0, 1.0]]
PENTAGON = [[0.0, 0.0], [1.1, 0.1], [1.4, 0.9], [0.6, 1.5], [-0.2, 0.8]]
MESHES = {
    "interval": build_mesh({"interval": [0.0, 1.0]}, 0.05),
    "square": build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 1 / 16),
    "shifted": build_mesh({"rect": [[-0.25, 0.5], [1.0, 1.75]]}, 0.125),
    # unequal spacings 2/15 and 1/8
    "wide": build_mesh({"rect": [[0.0, 0.0], [2.0, 1.0]]}, 0.13),
    "l_shape": build_mesh({"polygon": L_SHAPE}, 1 / 16),
    "pentagon": build_mesh({"polygon": PENTAGON}, 0.08),
}
RATIOS = (4.0, 3.3)


def oracle_pairs(mesh, kernel, delta, scale):
    """Dense symmetric q_i q_j k(|x_i - x_j|) * scale over the pairs of a
    k-d tree search, diagonal zero."""
    table = neighbor_pairs(mesh, kernel.support * delta)
    ii, jj = table.interior_pairs()
    pts, q = mesh.interior_points, mesh.interior_weights
    w = q[ii] * q[jj] * eval_scaled(
        kernel, np.linalg.norm(pts[ii] - pts[jj], axis=1), delta, mesh.dim)
    dense = np.zeros((mesh.n_interior, mesh.n_interior))
    dense[ii, jj] = dense[jj, ii] = w * scale
    return dense


def oracle_boundary(mesh, kernel, delta):
    """Dense (M x N) q_j k(|x_b - x_j|) over a k-d tree's boundary lists."""
    table = neighbor_pairs(mesh, kernel.support * delta)
    rows = np.repeat(np.arange(mesh.n_boundary),
                     np.diff(table.boundary_indptr))
    cols = table.boundary_indices
    dist = np.linalg.norm(mesh.boundary_points[rows]
                          - mesh.interior_points[cols], axis=1)
    dense = np.zeros((mesh.n_boundary, mesh.n_interior))
    dense[rows, cols] = (mesh.interior_weights[cols]
                         * eval_scaled(kernel, dist, delta, mesh.dim))
    return dense


def oracle_pref(mesh, spec, delta, p):
    """Per-boundary-node penalty prefactors as the assembly module
    states them."""
    w_b = mesh.boundary_weights
    if spec.variant in ("product", "pointwise"):
        return w_b / delta**p
    if spec.variant == "dirac_diagonal":
        return w_b / delta**2
    if spec.variant == "wang":
        bbar = antiderivative_kernel(antiderivative_kernel(spec.kernel))
        wbb = oracle_boundary(mesh, bbar, delta).sum(axis=1)
        return 2.0 * w_b / (delta**2 * wbb)
    shi = 4.0 * w_b / min(2.0 * delta, delta**2)
    return shi / delta**2 if spec.shi_delta_sq_prefactor else shi


def double_loop(pairs, u, p):
    """The interior energy sum_{i != j} w_ij |u_i - u_j|^p over a dense
    symmetric weight matrix, and its gradient
    2 p sum_j w_ij sign(u_i - u_j) |u_i - u_j|^(p-1): O(N^2)."""
    diff = u[:, None] - u[None]
    return (np.sum(pairs * np.abs(diff) ** p),
            2.0 * p * np.sum(pairs * np.sign(diff) * np.abs(diff) ** (p - 1),
                             axis=1))


def dense_penalty_form(op):
    """The p = 2 penalty's matrix, dense: sum_b pref_b k_b k_b^T
    (per-node rows) or diag(sum_b pref_b k_b) (per-entry rows), each
    kernel row k_b[j] = q_j G(|x_b - x_j|) from coordinate distances
    and pref_b from oracle_pref."""
    mesh = op.mesh
    base = op.spec.kernel
    if op.variant in ("wang", "shi"):
        base = antiderivative_kernel(base)
    dist = np.linalg.norm(mesh.boundary_points[:, None]
                          - mesh.interior_points[None], axis=2)
    k = mesh.interior_weights * eval_scaled(base, dist, op.delta, mesh.dim)
    pref = oracle_pref(mesh, op.spec, op.delta, 2.0)
    if op.variant in PER_NODE_VARIANTS:
        return k.T @ (pref[:, None] * k)
    return np.diag(pref @ k)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def assert_no_stored_zeros(matrix):
    assert matrix.nnz == np.count_nonzero(matrix.data)


def densify(apply, n):
    eye = np.eye(n)
    return np.column_stack([apply(e) for e in eye])


def kept_rows(op):
    """The stencil's pair-start rows of the operator's nonzero-weight
    offsets, each a copy."""
    return [row.copy() for row in op.stencil.pair_rows(op._keep)]


def row_sums(op):
    """Per node, the sum of 2 w over the pairs it is in: the diagonal of
    the interior form, from the per-offset weights and pair sites."""
    n = op.mesh.n_interior
    node_of = op.stencil.node_of
    out = np.zeros(n)
    for f, w2, start in zip(op._steps, op._w2, kept_rows(op)):
        first = np.flatnonzero(start)
        np.add.at(out, node_of[first], w2)
        np.add.at(out, node_of[first + f], w2)
    return out


def interior_form(op):
    """v -> A_int v as half the p = 2 Hessian, per offset slice, of op
    with every penalty prefactor zero: no layer column is read."""
    free = EnergyOperator(op.mesh, op.delta, 2.0, op.spec, op.a, op.stencil,
                          op.offset_w, op.pen, op.pen_node,
                          np.zeros_like(op.pen_pref))
    hess = free.hessian(np.zeros(op.mesh.n_interior))
    return lambda v: 0.5 * hess(v)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_operator_tables_match_the_search_oracle(name, ratio):
    mesh = MESHES[name]
    delta = ratio * mesh.h
    p = 2.0
    want_pairs = oracle_pairs(mesh, QUARTIC, delta, 1.0 / delta**p)
    want_a = 2.0 * (np.diag(want_pairs.sum(axis=1)) - want_pairs)
    u = np.random.default_rng(13).standard_normal(mesh.n_interior)
    want_e, want_g = double_loop(want_pairs, u, p)
    for variant in VARIANTS:
        spec = PenaltySpec(variant, QUARTIC)
        datum = None if variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, delta, p, datum)
        assert_close(densify(interior_form(op), mesh.n_interior), want_a)
        assert abs(op.interior_energy(u) - want_e) <= 1e-13 * want_e
        assert_close(op.gradient(u) - penalty_only(op).gradient(u), want_g)
        assert np.all(op._w2 != 0.0)
        assert_no_stored_zeros(op._layer()[1])
        base = spec.kernel
        if variant in ("wang", "shi"):
            base = antiderivative_kernel(base)
        want_k = oracle_boundary(mesh, base, delta)
        want_pref = oracle_pref(mesh, spec, delta, p)
        if variant in PER_NODE_VARIANTS:
            # one row k_b per boundary node
            assert np.array_equal(op.pen_node, np.arange(mesh.n_boundary))
            assert_close(op.pen.toarray(), want_k)
            assert_close(op.pen_pref, want_pref)
        else:
            # one row e_j per stored k_b[j], weighted pref_b k_b[j]
            assert np.array_equal(op.pen.indptr, np.arange(op.pen.nnz + 1))
            assert np.all(op.pen.data == 1.0)
            got = np.zeros_like(want_k)
            got[op.pen_node, op.pen.indices] = op.pen_pref
            assert_close(got, want_pref[:, None] * want_k)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_fft_interior_form_matches_the_stencil_matrix(name, ratio):
    # the matrix-free interior form (per offset slice) against the
    # sparse matrix built from the same per-offset weights; on "wide"
    # two offsets share a flat step of the bounding grid
    mesh = MESHES[name]
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC),
                  ratio * mesh.h, 2.0, "linear_x")
    want = _stencil_matrix(op.stencil, -2.0 * op.offset_w, row_sums(op))
    assert_close(densify(interior_form(op), mesh.n_interior), want.toarray())
    v = np.random.default_rng(5).standard_normal(mesh.n_interior)
    assert_close(interior_form(op)(v), want @ v)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_apply_quadratic_matches_the_double_loop_and_dense_penalty(name,
                                                                   ratio):
    # A u is P_tau u off the boundary layer and B^T u on it; densified,
    # it must be the O(N^2) double loop's interior matrix over coordinate
    # distances plus the dense penalty matrix, for every variant
    mesh = MESHES[name]
    delta = ratio * mesh.h
    pts, q = mesh.interior_points, mesh.interior_weights
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    w = np.outer(q, q) * eval_scaled(QUARTIC, dist, delta, mesh.dim) / delta**2
    np.fill_diagonal(w, 0.0)
    want_int = 2.0 * (np.diag(w.sum(axis=1)) - w)
    for spec in LAYER_SPECS:
        datum = None if spec.variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, delta, 2.0, datum)
        want = want_int + dense_penalty_form(op)
        assert_close(densify(op.apply_quadratic, mesh.n_interior), want)


def penalty_only(op):
    """op with every interior weight zero: its penalty terms alone."""
    return EnergyOperator(op.mesh, op.delta, op.p, op.spec, op.a, op.stencil,
                          np.zeros_like(op.offset_w), op.pen, op.pen_node,
                          op.pen_pref)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_grid_energy_and_gradient_match_pair_lists_and_double_loop(name,
                                                                   ratio):
    # the energy and gradient are per-offset slice sums on the bounding
    # grid for every p, with no list of pairs; the O(N^2) double loop
    # over coordinate distances must give the same numbers at p = 2
    # and p = 3
    mesh = MESHES[name]
    delta = ratio * mesh.h
    pts, q = mesh.interior_points, mesh.interior_weights
    dist = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    w = np.outer(q, q) * eval_scaled(QUARTIC, dist, delta, mesh.dim)
    np.fill_diagonal(w, 0.0)
    u = np.random.default_rng(11).standard_normal(mesh.n_interior)
    for p, variant in itertools.product((2.0, 3.0), ("product", "pointwise")):
        want_e, want_g = double_loop(w / delta**p, u, p)
        op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC), delta,
                      p, "linear_x")
        assert abs(op.interior_energy(u) - want_e) <= 1e-13 * want_e
        assert_close(op.gradient(u), want_g + penalty_only(op).gradient(u))
        assert not hasattr(op, "pair_w")


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_constant_field_has_exactly_zero_grid_energy_and_gradient(name,
                                                                  ratio):
    # every slice difference of a constant is exactly 0, where the FFT
    # form (row sums minus the convolution) leaves rounding
    mesh = MESHES[name]
    c = 0.7
    op = assemble(mesh, QUARTIC, PenaltySpec("pointwise", QUARTIC),
                  ratio * mesh.h, 2.0, np.full(mesh.n_boundary, c))
    u = np.full(mesh.n_interior, c)
    assert op.interior_energy(u) == 0.0
    assert np.all(op.gradient(u) == 0.0)


LAYER_SPECS = [PenaltySpec(v, QUARTIC) for v in VARIANTS] \
    + [PenaltySpec("shi", QUARTIC, shi_delta_sq_prefactor=True)]


def link_counts(op):
    """Per node, the number of pairs of nonzero-weight offsets it is in."""
    node_of = op.stencil.node_of
    links = np.zeros(op.mesh.n_interior, dtype=int)
    for f, start in zip(op._steps, kept_rows(op)):
        first = np.flatnonzero(start)
        np.add.at(links, node_of[first], 1)
        np.add.at(links, node_of[first + f], 1)
    return links


def coo_layer(op):
    """The layer nodes (a pair count below the full stencil's, or a
    penalty row) and B = A[:, L] from a COO triplet list of the stencil
    entries at the layer nodes, with a per-entry penalty on the
    diagonal, plus the per-node block from a COO rebuild of the
    penalty table, which scipy sums and sorts into CSR."""
    n = op.mesh.n_interior
    idx = op.pen.indices
    per_node = op.variant in PER_NODE_VARIANTS
    diag = row_sums(op)
    if not per_node:
        diag += np.bincount(idx, weights=op.pen_pref, minlength=n)
    sites, node_of = op.stencil.sites, op.stencil.node_of
    starts = kept_rows(op)
    in_layer = link_counts(op) < 2 * len(op._steps)
    in_layer[idx] = True
    nodes = np.flatnonzero(in_layer)
    at = sites[nodes]
    rows, cols = [nodes], [np.arange(len(nodes))]
    vals = [diag[nodes]]
    for f, w2, start in zip(op._steps, op._w2, starts):
        for other, first in ((at + f, at), (at - f, at - f)):
            hit = np.flatnonzero(start[np.maximum(first, 0)] & (first >= 0))
            rows.append(node_of[other[hit]])
            cols.append(hit)
            vals.append(np.full(len(hit), -w2))
    block = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                          shape=(n, len(nodes)))
    if per_node:
        rowid = np.repeat(np.arange(op.pen.shape[0]), np.diff(op.pen.indptr))
        k = sp.csr_matrix((op.pen.data, (rowid, idx)), shape=op.pen.shape)
        block = (block + k.T @ (sp.diags(op.pen_pref) @ k[:, nodes])).tocsr()
    block.eliminate_zeros()
    return nodes, block


def assert_layer_is_the_coo_build(mesh, ratio):
    for spec in LAYER_SPECS:
        datum = None if spec.variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, ratio * mesh.h, 2.0, datum)
        nodes, b = op._layer()
        want_nodes, want_b = coo_layer(op)
        assert np.array_equal(nodes, want_nodes)
        # B is the CSC view of the stored B^T: B^T's rows sorted, int32
        # indices and no slack past nnz
        bt = b.T
        assert b.format == "csc" and bt.has_sorted_indices
        assert bt.indices.dtype == np.int32
        for part in (bt.data, bt.indices):
            memory = part if part.base is None else part.base
            assert len(part) == memory.size == bt.indptr[-1]
        got = b.tocsr()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want_b, part))


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_layer_blocks_equal_a_coo_build_bit_for_bit(name, ratio):
    # _layer writes B^T block by block of layer nodes, each block one
    # sparse product, the penalty's sum before the stencil entry; B,
    # read back as CSR, must have the arrays of the COO build ("wide"
    # has two offsets sharing a flat step)
    assert_layer_is_the_coo_build(MESHES[name], ratio)


def test_layer_blocks_equal_a_coo_build_bit_for_bit_at_ratio_8():
    # the widest gather: a polygon layer at delta/h = 8, with many
    # offsets and the layer factor's widest band
    assert_layer_is_the_coo_build(build_mesh({"polygon": PENTAGON}, 0.04),
                                  8.0)


def test_layer_built_in_small_blocks_is_the_one_block_build(monkeypatch):
    # one layer node per block of _layer and one B^T row per block of the
    # band fill: B^T is still the COO build, and the order and the band
    # are bit for bit those of the one-block build
    mesh = build_mesh({"polygon": PENTAGON}, 0.04)
    spec = PenaltySpec("product", QUARTIC)
    whole = assemble(mesh, QUARTIC, spec, 8.0 * mesh.h, 2.0, "linear_x")
    monkeypatch.setattr("nldir.assembly._BLOCK", 64)
    assert_layer_is_the_coo_build(mesh, 8.0)
    small = assemble(mesh, QUARTIC, spec, 8.0 * mesh.h, 2.0, "linear_x")
    for part in ("perm", "factor"):
        assert np.array_equal(getattr(small._layer_factor, part),
                              getattr(whole._layer_factor, part))


@pytest.mark.parametrize("name", MESHES)
def test_layer_products_get_no_unlinked_stencil_slot(name, monkeypatch):
    # the stencil rows of Z handed to each block's product store a
    # node's diagonal and one entry per linked neighbor, and no zero: a
    # slot kept for an unlinked neighbor would size scipy's product for
    # entries it then drops
    mesh = MESHES[name]
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC),
                  4.0 * mesh.h, 2.0, "linear_x")
    build, counts = EnergyOperator._layer_block_rows, []

    def spy(self, k_rows, block):
        z = build(self, k_rows, block)
        rows = z[k_rows.shape[0]:]
        assert np.count_nonzero(rows.data) == rows.nnz
        counts.append(np.diff(rows.indptr))
        return z

    monkeypatch.setattr(EnergyOperator, "_layer_block_rows", spy)
    monkeypatch.setattr("nldir.assembly._BLOCK", 32)
    nodes, _ = op._layer()
    assert len(counts) > 1
    assert np.array_equal(np.concatenate(counts), 1 + link_counts(op)[nodes])


def test_operator_holds_and_builds_no_pair_start_table():
    # unit square, delta = 0.05, delta/h = 8 (N = G = 25,600): a table of
    # the pair starts of the K nonzero-weight offsets takes K x G bytes.
    # The operator's own arrays (the mesh, the stencil and the penalty
    # table are not arrays of its own) total less, and so does the traced
    # peak of its constructor over its start; holding the table, and
    # building it from the table of all offsets, peaked at twice it
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05 / 8)
    assert mesh.n_interior == len(mesh.lattice[0]) == 25600
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), 0.05, 2.0,
                  "linear_x")
    table = np.count_nonzero(op.offset_w) * len(op.stencil.node_of)
    held = sum(value.nbytes for value in vars(op).values()
               if isinstance(value, np.ndarray))
    assert held < table
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        EnergyOperator(op.mesh, op.delta, op.p, op.spec, op.a, op.stencil,
                       op.offset_w, op.pen, op.pen_node, op.pen_pref)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < table


def test_layer_build_and_factor_peaks_stay_near_what_they_store():
    # unit square, delta = 0.05, delta/h = 8 (N = 25,600): the traced
    # peak over the start of building the layer columns is at most 2x
    # the stored B^T, and that of the band factor at most 1.5x its band.
    # Z, B^T and its transposed copy B built whole peaked at 3.7x, and a
    # factor read from A_LL = B[L] with per-entry int64 indices at 4.1x
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05 / 8)
    assert mesh.n_interior == 25600
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), 0.05, 2.0,
                  "linear_x")
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        peaks = []
        for build in (lambda: op._layer_columns, lambda: op._layer_factor):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        if not tracing:
            tracemalloc.stop()
    bt = op._layer_columns[2]
    stored = bt.data.nbytes + bt.indices.nbytes + bt.indptr.nbytes
    assert peaks[0] <= 2.0 * stored
    assert peaks[1] <= 1.5 * op._layer_factor.factor.nbytes


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_affine_terms_are_the_penalty_at_zero(name, ratio):
    # l and c0 are derived on first use from the penalty alone: l is
    # -1/2 the gradient at 0 (where the interior gradient is exactly 0)
    # and c0 the energy at 0; a zero-datum twin of an operator whose
    # terms exist derives its own, which vanish
    mesh = MESHES[name]
    zero = np.zeros(mesh.n_interior)
    for spec in LAYER_SPECS:
        datum = None if spec.variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, ratio * mesh.h, 2.0, datum)
        assert np.array_equal(op.linear_term, -0.5 * op.gradient(zero))
        e0 = op.energy(zero)
        assert abs(op.constant_term - e0) <= 1e-15 * abs(e0)
        if datum is not None:
            assert np.any(op.linear_term != 0.0) and op.constant_term > 0.0
        twin = op.twin(a=np.zeros(mesh.n_boundary))
        assert not np.any(twin.linear_term) and twin.constant_term == 0.0


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_layer_columns_equal_the_operator_on_the_layer(name, ratio):
    # B = A[:, L] read from the stencil's pair sites at the layer nodes,
    # against half the p = 2 Hessian, applied per offset slice with no
    # layer column, on the layer's unit vectors
    mesh = MESHES[name]
    for spec in LAYER_SPECS:
        datum = None if spec.variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, ratio * mesh.h, 2.0, datum)
        nodes, b = op._layer()
        hess = op.hessian(np.zeros(mesh.n_interior))
        unit = np.eye(mesh.n_interior)[nodes]
        assert b.shape == (mesh.n_interior, len(nodes))
        assert_close(b.toarray(), np.column_stack([0.5 * hess(e)
                                                   for e in unit]))
        assert_no_stored_zeros(b)


def assert_layer_solve_is_dense_solve(op, seed):
    nodes, b, _ = op._layer_columns
    r = np.random.default_rng(seed).standard_normal(len(nodes))
    want = np.linalg.solve(b[nodes].toarray(), r)
    got = op._layer_factor.solve(r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_layer_factor_solves_as_a_dense_solve(name, ratio):
    # the banded Cholesky factor of A_LL in reverse Cuthill-McKee order,
    # its solve mapped back through the inverse permutation, against
    # numpy's dense solve for every variant
    mesh = MESHES[name]
    for seed, spec in enumerate(LAYER_SPECS):
        datum = None if spec.variant in ZERO_DATA_VARIANTS else "linear_x"
        op = assemble(mesh, QUARTIC, spec, ratio * mesh.h, 2.0, datum)
        assert_layer_solve_is_dense_solve(op, seed)


def test_layer_factor_solves_as_a_dense_solve_at_ratio_8():
    # the widest band: a polygon layer at delta/h = 8
    mesh = build_mesh({"polygon": PENTAGON}, 0.04)
    for seed, variant in enumerate(("product", "pointwise")):
        op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC),
                      8.0 * mesh.h, 2.0, "linear_x")
        assert_layer_solve_is_dense_solve(op, seed)


def cosine_sum_loop(stencil, coef, angles):
    """sum_g coef_g prod_a cos(theta_a o_g,a), one offset at a time, on
    the tensor grid of the per-axis angles."""
    thetas = np.meshgrid(*angles, indexing="ij")
    out = np.zeros(thetas[0].shape)
    for c, offset in zip(coef, stencil.offsets):
        term = np.full(out.shape, c)
        for theta, o in zip(thetas, offset):
            term = term * np.cos(theta * o)
        out += term
    return out


@pytest.mark.parametrize("ratio", (4.0, 8.0))
@pytest.mark.parametrize("name", ("interval", "square", "l_shape"))
def test_cosine_sum_matches_a_per_offset_loop(name, ratio):
    # the symbol's angles pi k / n_a and w_mass_floor's pi k / (4 n_a),
    # with signed weights of unequal size per offset
    mesh = MESHES[name]
    stencil = lattice_stencil(mesh, ratio * mesh.h)
    coef = np.random.default_rng(5).standard_normal(len(stencil.offsets))
    for angles in ([np.pi * np.arange(1, n + 1) / n for n in stencil.shape],
                   [np.pi / (4 * n) * np.arange(4 * n + 1)
                    for n in stencil.shape]):
        want = cosine_sum_loop(stencil, coef, angles)
        got = _cosine_sum(stencil, coef, angles)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(coef))


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_deflated_cg_residual_is_the_true_residual(name, ratio):
    # the deflated step returns A z without a matvec, from P_tau^-1
    # being exact off the layer (on polygons it reads ghost sites of the
    # bounding grid), and CG carries A d by recurrence: the recurrence
    # residual must stay l - A x, and zero on the layer, to the last
    # iterate
    mesh = MESHES[name]
    for variant in ("product", "pointwise", "wang"):
        op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC),
                      ratio * mesh.h, 2.0, "linear_x")
        ell = op.linear_term
        scale = np.linalg.norm(ell)
        nodes = op._layer_columns[0]
        x, r, step = op.deflated_cg()
        assert np.linalg.norm(r[nodes]) <= 1e-12 * scale
        for iteration, (x, r) in enumerate(_cg_iterates(x, r, step), 1):
            assert np.linalg.norm(r[nodes]) <= 1e-12 * scale
            if np.linalg.norm(r) <= 1e-12 * scale:
                break
        assert iteration <= 20, variant
        assert np.linalg.norm(r - (ell - op.apply_quadratic(x))) \
            <= 1e-12 * scale


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("name", MESHES)
def test_trace_and_mass_match_the_search_oracle(name, ratio):
    mesh = MESHES[name]
    delta = ratio * mesh.h
    coef = oracle_boundary(mesh, QUARTIC, delta)
    trace = trace_matrix(mesh, QUARTIC, delta)
    assert_no_stored_zeros(trace)
    assert_close(trace.toarray(), coef / coef.sum(axis=1, keepdims=True))
    q = mesh.interior_weights
    k0 = eval_scaled(QUARTIC, 0.0, delta, mesh.dim)
    mass = w_mass_matrix(mesh, QUARTIC, delta)
    assert_no_stored_zeros(mass)
    assert_close(mass.toarray(), oracle_pairs(mesh, QUARTIC, delta, 1.0)
                 + np.diag(q * q * k0))


def test_zero_weight_ties_are_not_stored():
    # at delta = 4 h the offsets (4, 0) and (0, 4) sit exactly on the
    # quartic's support, where it vanishes: the search keeps some of
    # those pairs as explicit zeros, the lattice build keeps none
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.025)
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC),
                  4 * mesh.h, 2.0, "harmonic_xy")
    stencil = op.stencil
    ties = np.all(np.sort(np.abs(stencil.offsets), axis=1) == [0, 4],
                  axis=1)
    assert ties.sum() == 2 and np.all(op.offset_w[ties] == 0.0)
    assert np.count_nonzero(op.offset_w) == len(stencil.offsets) - 2
    # the slices keep only the nonzero-weight offsets and their pairs
    assert np.all(op._w2 != 0.0)
    pairs = np.array([row.sum() for row in stencil.pair_rows()])
    assert sum(row.sum() for row in kept_rows(op)) \
        == pairs[op.offset_w != 0.0].sum() == pairs.sum() - pairs[ties].sum()
    nodes, b = op._layer()
    assert_no_stored_zeros(b)
    assert b.shape == (mesh.n_interior, len(nodes)) \
        and len(nodes) < mesh.n_interior


def test_support_ties_are_decided_per_offset():
    # a profile that is 1 up to and at its support: every pair exactly 2 h
    # apart is in, the same on a 10 x 10 grid anywhere in the plane,
    # where a search by coordinates keeps only some of them
    flat = KernelSpec("flat", lambda s: np.where(s <= 1.0, 1.0, 0.0), 1.0)
    masses = []
    for x0, y0 in [(0.0, 0.0), (-0.25, 0.5), (3.7, -1.1)]:
        mesh = build_mesh({"rect": [[x0, y0], [x0 + 1.0, y0 + 1.0]]}, 0.1)
        masses.append(w_mass_matrix(mesh, flat, 2 * mesh.h))
    for mass in masses:
        # the diagonal, and both entries of each pair: 180 pairs h
        # apart, 162 sqrt(2) h apart and 160 exactly 2 h apart
        assert mass.nnz == 100 + 2 * (180 + 162 + 160)
        assert_close(mass.toarray(), masses[0].toarray())


def test_off_lattice_mesh_is_refused_without_a_search():
    square = MESHES["square"]
    pts = square.interior_points
    jitter = np.random.default_rng(3).normal(scale=1e-3 * square.h,
                                             size=pts.shape)
    with pytest.raises(MeshError, match="off a uniform lattice"):
        replace(square, interior_points=pts + jitter)


@pytest.mark.parametrize("name", MESHES)
def test_stencil_boundary_lists_equal_the_search(name):
    mesh = MESHES[name]
    for ratio in RATIOS + (2.0, 2.0 ** 0.5 * 2):
        radius = ratio * mesh.h
        got = lattice_stencil(mesh, radius)
        want = neighbor_pairs(mesh, radius)
        assert np.array_equal(got.boundary_indptr, want.boundary_indptr)
        assert np.array_equal(got.boundary_indices, want.boundary_indices)


@pytest.mark.parametrize("name", MESHES)
def test_stencil_records_pair_lengths_and_node_map(name):
    # the recorded lengths are the coordinate distances bit for bit, the
    # CSR rows ascend strictly, and node_of inverts sites
    mesh = MESHES[name]
    for ratio in (1.0, 2.0, 3.3, 4.0, 8.0):
        st = lattice_stencil(mesh, ratio * mesh.h)
        ptr, idx = st.boundary_indptr, st.boundary_indices
        rows = np.repeat(np.arange(mesh.n_boundary), np.diff(ptr))
        dist = np.linalg.norm(mesh.boundary_points[rows]
                              - mesh.interior_points[idx], axis=1)
        assert st.boundary_lengths.dtype == dist.dtype
        assert np.array_equal(st.boundary_lengths, dist), ratio
        assert all(np.all(np.diff(idx[a:b]) > 0)
                   for a, b in zip(ptr[:-1], ptr[1:])), ratio
        want = np.full(len(st.node_of), -1)
        want[st.sites] = np.arange(mesh.n_interior)
        assert np.array_equal(st.node_of, want)


def offset_pairs(stencil):
    """Per half-offset o (a tuple), the node pairs (i, j), x_j = x_i + o
    on the lattice, that its on-demand pair-start row holds."""
    node = stencil.node_of
    return {tuple(o): set(zip(node[sites].tolist(), node[sites + f].tolist()))
            for o, f, sites in zip(stencil.offsets.tolist(),
                                   stencil.flat_offsets,
                                   map(np.flatnonzero, stencil.pair_rows()))}


@pytest.mark.parametrize("name", MESHES)
def test_stencil_pairs_equal_brute_force_with_ties_in(name):
    # radii on exact lattice distances: every tie pair is in, as the
    # O(N^2) double loop finds with the radius widened by 1e-9, and each
    # offset's row holds exactly the pairs one lattice step o apart,
    # first to second ("wide" has two offsets sharing a flat step, so a
    # row that wrapped around the grid would hold the other's pairs)
    mesh = MESHES[name]
    pts = mesh.interior_points
    sites, shape, _, _ = mesh.lattice
    index = np.column_stack(np.unravel_index(sites, shape))
    for factor in (1.0, 2.0, 3.0, 4.0, 2.0 ** 0.5, 5.0 ** 0.5, 3.3, 8.0):
        radius = factor * mesh.h
        stencil = lattice_stencil(mesh, radius)
        want = {tuple(o): set() for o in stencil.offsets.tolist()}
        for i in range(mesh.n_interior):
            d2 = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
            hits = np.nonzero(d2 <= (radius * (1 + 1e-9)) ** 2)[0]
            for j in (i + 1 + hits).tolist():
                o = index[j] - index[i]
                if o[np.flatnonzero(o)[0]] > 0:
                    want[tuple(o.tolist())].add((i, j))
                else:
                    want[tuple((-o).tolist())].add((j, i))
        assert offset_pairs(stencil) == want, factor


def test_stencil_refuses_off_lattice_meshes_and_empty_radii():
    square = MESHES["square"]
    pts = square.interior_points.copy()
    pts[5, 1] += 0.1 * square.h
    with pytest.raises(MeshError, match="radius must be positive"):
        lattice_stencil(square, 0.0)
    with pytest.raises(MeshError, match="off a uniform lattice"):
        replace(square, interior_points=pts)
