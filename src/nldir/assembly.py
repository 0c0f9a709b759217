"""Assembly of the discrete penalized nonlocal energy.

The functional has an interior part

    (1/delta^p) sum_{i != j} q_i q_j R_delta(|x_i - x_j|) |u_i - u_j|^p

(ordered pairs, so every unordered pair counts twice) plus one of five
boundary penalty variants, all one form: over the rows r of one sparse
table K, with row sums s_r, boundary nodes b_r and prefactors pref_r,
the sum of pref_r |a_{b_r} s_r - K_r . u|^p. With the kernel row
k_b[j] = q_j G_delta(|x_b - x_j|) and its sum s_b, boundary node b with
weight w_b and datum a_b has the row k_b or, per stored k_b[j], the row
e_j with pref_r = pref_b k_b[j], and so adds

    per node  : pref_b |k_b . u - a_b s_b|^p
    per entry : pref_b sum_j k_b[j] |u_j - a_b|^p

where G is the penalty kernel K or Kbar, its upper antiderivative:

    variant         rows       kernel  prefactor pref_b          data  p
    product         per node   K       w_b / delta^p             any   > 1
    pointwise       per entry  K       w_b / delta^p             any   > 1
    dirac_diagonal  per entry  K       w_b / delta^p             zero  2
    wang            per node   Kbar    2 w_b / (delta^2 wbb_b)   any   2
    shi             per entry  Kbar    4 w_b / mu_b              zero  2

Here wbb_b = sum_j q_j Kbarbar_delta(|x_b - x_j|) and
mu_b = min(2 delta, max(delta^2, d(x_b))) = min(2 delta, delta^2) at
boundary nodes (their boundary distance d is zero). A config switch
selects the alternative shi prefactor 4/(delta^2 mu_b); both scalings
appear in the literature on this penalty. At p = 2 with zero data,
dirac_diagonal is pointwise.

For every p the interior energy, its gradient and its Hessian-vector
product are per-offset slice sums on the lattice's bounding grid: no
pair list and no Hessian matrix is built. At p = 2 the energy is
F(u) = u^T A u - 2 l^T u + c0, l being -1/2 the penalty gradient at 0
and c0 the penalty energy at 0; A is never dense. Off the boundary
layer L a row of A is the translation-invariant stencil, which the
DST-II tau-matrix P_tau applies exactly; on L it is a row of the
sparse layer columns B = A[:, L]. So A u is P_tau u with its L entries
replaced by B^T u, and the same two pieces, P_tau^-1 and an exact
solve on L, give a symmetric preconditioner and the deflated
conjugate-gradient step of minimize.solve_quadratic. The interior
form's rows in B and the W mass form are one lattice stencil with
other weights, and one builder, _stencil_rows, writes the rows of both.
The eigensolve applies the W mass without its rows, as one FFT
convolution on the zero-padded bounding grid (_w_mass_map).
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import AssemblyError, ConfigError, MollifierError, SolverError
from .geometry import DomainMesh, lattice_stencil
from .kernels import (KernelSpec, antiderivative_kernel, eval_scaled,
                      validate_kernel)

VARIANTS = ("product", "pointwise", "dirac_diagonal", "wang", "shi")
ZERO_DATA_VARIANTS = ("dirac_diagonal", "shi")
PER_NODE_VARIANTS = ("product", "wang")
QUADRATIC_ONLY_VARIANTS = ("dirac_diagonal", "wang", "shi")

_TINY = 1e-300
_BLOCK = 1 << 17  # stencil entries per block of layer nodes (_layer_columns)


@dataclass(frozen=True)
class ManufacturedCase:
    """A boundary datum, by id, and the exact solution of the local limit
    problem it induces, in closed form on an (n, dim) point array. The
    affine entries solve it for every p, the harmonic ones for p = 2."""

    id: str
    dims: tuple  # None means any dimension
    exponents: tuple  # None means any p > 1
    exact: object  # callable points -> values
    grad_sq: object  # callable points -> |grad u*|^2 values

    def admits(self, dim: int, p: float) -> bool:
        return ((self.dims is None or dim in self.dims)
                and (self.exponents is None or p in self.exponents))

    def grad_power(self, points, p):
        """|grad u*|^p at the points."""
        return self.grad_sq(points) ** (p / 2.0)


MANUFACTURED = {case.id: case for case in (
    ManufacturedCase("zero", None, None, lambda x: np.zeros(len(x)),
                     lambda x: np.zeros(len(x))),
    ManufacturedCase("linear_x", None, None, lambda x: x[:, 0].copy(),
                     lambda x: np.ones(len(x))),
    ManufacturedCase("harmonic_x2_minus_y2", (2,), (2.0,),
                     lambda x: x[:, 0] ** 2 - x[:, 1] ** 2,
                     lambda x: 4 * x[:, 0] ** 2 + 4 * x[:, 1] ** 2),
    ManufacturedCase("harmonic_xy", (2,), (2.0,),
                     lambda x: x[:, 0] * x[:, 1],
                     lambda x: x[:, 0] ** 2 + x[:, 1] ** 2),
)}


def boundary_data(mesh: DomainMesh, spec) -> np.ndarray:
    """Resolve a boundary datum to its values, one per boundary node:
    None or "zero" for homogeneous data, a manufactured solution of
    MANUFACTURED by id, or values as _field_values checks them."""
    spec = "zero" if spec is None else spec
    if isinstance(spec, str):
        if spec not in MANUFACTURED:
            raise ConfigError("unknown boundary datum", field="datum",
                              datum=spec, catalog=list(MANUFACTURED))
        case = MANUFACTURED[spec]
        if case.dims is not None and mesh.dim not in case.dims:
            raise ConfigError("datum does not admit this shape's dimension",
                              field="datum", datum=spec, dim=mesh.dim,
                              dims=list(case.dims))
        return case.exact(mesh.boundary_points)
    return _field_values(mesh, spec, boundary=True)


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty variant plus its kernel K. wang and shi penalize with its
    antiderivatives (see the module docstring)."""

    variant: str
    kernel: KernelSpec
    shi_delta_sq_prefactor: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("unknown penalty variant", field="penalty_variant",
                              variant=self.variant, supported=list(VARIANTS))


def lp_norm(mesh: DomainMesh, values, p: float = 2.0) -> float:
    """Quadrature-weighted L^p norm over the interior nodes."""
    v = _field_values(mesh, values)
    return float(np.sum(mesh.interior_weights * np.abs(v) ** p) ** (1.0 / p))


def _field_values(mesh, u, boundary=False):
    """u as a float array of one value per interior (boundary, when
    boundary is set) node; else AssemblyError naming that length. Complex
    input is refused, not cast to its real part."""
    n, what = ((mesh.n_boundary, "boundary data") if boundary
               else (mesh.n_interior, "field"))
    try:
        v = np.asarray(u)
        if np.iscomplexobj(v):
            raise AssemblyError(f"{what} must be real", expected=n,
                                got=str(v.dtype))
        v = v.astype(float, copy=False)
    except (TypeError, ValueError):
        raise AssemblyError(f"{what} must be numeric", expected=n,
                            got=type(u).__name__) from None
    if v.shape != (n,):
        raise AssemblyError(f"{what} length does not match the mesh",
                            expected=n, got=list(v.shape))
    return v


def _admitted(mesh, variant, p, a):
    """A read-only copy of the datum a, one value per boundary node, once
    1 < p < inf, p = 2 for the quadratic-only variants, finite values,
    and zero data for the zero-datum variants are checked."""
    if not 1 < p < np.inf:
        raise AssemblyError("exponent must be finite and exceed 1", p=p)
    if p != 2.0 and variant in QUADRATIC_ONLY_VARIANTS:
        raise AssemblyError(f"variant '{variant}' is defined for p = 2 only",
                            variant=variant, p=p)
    a_vals = _field_values(mesh, a, boundary=True).copy()
    a_vals.setflags(write=False)
    bad = np.flatnonzero(~np.isfinite(a_vals))
    if bad.size:
        node = int(bad[0])
        raise AssemblyError("boundary data must be finite", node=node,
                            point=mesh.boundary_points[node],
                            value=float(a_vals[node]), count=int(bad.size))
    if variant in ZERO_DATA_VARIANTS and np.any(a_vals != 0.0):
        raise AssemblyError(
            f"variant '{variant}' admits only zero boundary data",
            variant=variant)
    return a_vals


def _boundary_tables(mesh, base: KernelSpec, delta, stencil):
    """(M x N) CSR q_j k_delta(|x_b - x_j|) on the stencil's recorded pair
    lengths; stencil, a lattice_stencil of this mesh, is reused when its
    radius is the kernel's support radius, else one is built."""
    if stencil is None or stencil.radius != base.support * delta:
        stencil = lattice_stencil(mesh, base.support * delta)
    indices = stencil.boundary_indices
    coef = mesh.interior_weights[indices] * eval_scaled(
        base, stencil.boundary_lengths, delta, mesh.dim)
    return sp.csr_matrix((coef, indices, stencil.boundary_indptr),
                         shape=(mesh.n_boundary, mesh.n_interior))


def _refuse_empty(sums, points, error, message, floor=0.0, **info):
    """Raise error(message) naming the first node whose row sum is at
    most floor, with its position among points: a node whose kernel row
    is empty would drop out of the form."""
    bad = np.flatnonzero(sums <= floor)
    if bad.size:
        raise error(message, node=int(bad[0]),
                    position=points[bad[0]].tolist(), **info)


def _stencil_rows(stencil, weights, block, diagonal=None):
    """Rows `block` (node indices) of the symmetric n x n matrix with
    weights[k] at (i, j) and (j, i) for every two nodes linked at the
    k-th half-offset, as CSR with int32 indices, ascending columns and
    no stored zero. The node at site s is linked at half-offset o to the
    node at s + o and to the node at s - o, when that site is on the
    grid, axis by axis, and holds a node. The diagonal is `diagonal` (one
    value, or one per node), or else minus the row's link sum, summed per
    offset in offset order, the link at s + o before the one at s - o
    (the interior form's row sum when weights is -2 w).

    A row has one slot per nonzero-weight offset and direction, ordered
    by flat step: the links at s - o, largest step first, the node
    itself, then the links at s + o, smallest step first. Nodes ascend
    with their sites, so the columns ascend as written and no sort pass
    runs. Unlinked slots hold 0 and are dropped in place, with a zero
    diagonal. Two offsets can share a flat step (o and o + (1, -n_1) on
    an n_0 x n_1 grid); at most one of them links a given site."""
    kept = np.flatnonzero(weights)
    kept = kept[np.argsort(stencil.flat_offsets[kept], kind="stable")]
    k, steps, w = len(kept), stencil.flat_offsets[kept], weights[kept]
    # the slots' signed offsets: -o by descending step, 0, +o ascending
    signed = np.concatenate([-stencil.offsets[kept[::-1]],
                             np.zeros((1, len(stencil.shape)), dtype=int),
                             stencil.offsets[kept]])
    at = stencil.sites[block]
    # per slot, the node at its site (clipped onto the grid)
    near = np.concatenate([
        stencil.node_of.take(at[:, None] - steps[::-1], mode="clip"),
        stencil.node_of[at, None],
        stencil.node_of.take(at[:, None] + steps, mode="clip")], axis=1)
    linked = near >= 0
    for i, o, n in zip(np.unravel_index(at, stencil.shape), signed.T,
                       stencil.shape):
        idx = np.arange(n)[:, None]  # an (n, 2k + 1) table, read at i
        linked &= ((idx + o >= 0) & (idx + o < n))[i]
    np.maximum(near, 0, out=near)
    vals = np.multiply(np.concatenate([w[::-1], [0.0], w]), linked)
    if diagonal is None:
        diagonal = np.zeros(len(block))
        for up in k + 1 + np.argsort(kept):  # the s + o slots, offset order
            diagonal -= vals[:, up]
            diagonal -= vals[:, 2 * k - up]
    vals[:, k] = diagonal
    width = 2 * k + 1
    rows = sp.csr_matrix((vals.reshape(-1), near.reshape(-1),
                          np.arange(0, width * len(block) + 1, width,
                                    dtype=np.int32)),
                         shape=(len(block), len(stencil.sites)))
    rows.eliminate_zeros()
    return rows


def _cosine_sum(stencil, coef, angles):
    """sum_g coef_g prod_a cos(theta_a o_g,a) over the half-offsets o_g,
    on the tensor grid of the per-axis angles theta_a in angles. Radial
    weights are symmetric under each axis reflection, so this is the
    stencil's lattice symbol. coef is folded into the first axis's
    cosines, then each further axis contracts over g as a matrix
    product (einsum's path), not as a loop over the whole grid."""
    cosines = [np.cos(np.outer(theta, o))
               for theta, o in zip(angles, stencil.offsets.T)]
    axes = "ijk"[:len(cosines)]
    return np.einsum(",".join(["g"] + [a + "g" for a in axes]) + "->" + axes,
                     coef, *cosines,
                     optimize=["einsum_path"] + [(0, 1)] * len(cosines))


def _dst_map(stencil, symbol, combine):
    """r -> the gather of idst(combine(dst(r), symbol)): r scattered onto
    the stencil's bounding grid (zero off the mesh), an orthonormal
    DST-II, combined with the tau symbol (np.multiply applies P_tau,
    np.divide solves with it), transformed back. When the nodes fill the
    grid in order, r is reshaped instead (never transformed in place,
    being the caller's) and the result is not gathered. A closure over
    the grid, the sites and the symbol, so a cached map keeps no
    operator alive (an operator -> map -> operator cycle would outlive
    its last reference until the cycle collector runs)."""
    from scipy.fft import dstn, idstn
    shape, sites, whole = stencil.shape, stencil.sites, stencil.whole

    def apply(r):
        if whole:
            spectrum = dstn(r.reshape(shape), type=2, norm="ortho")
        else:
            grid = np.zeros(shape)
            grid.ravel()[sites] = r
            spectrum = dstn(grid, type=2, norm="ortho", overwrite_x=True)
        combine(spectrum, symbol, out=spectrum)
        out = idstn(spectrum, type=2, norm="ortho", overwrite_x=True).ravel()
        return out if whole else out[sites]

    return apply


def _w_mass_map(stencil, c, c0):
    """v -> B v for a vector or an n x k block, B the W mass form of the
    offset weights c and the diagonal c0 (w_mass_matrix of the same
    stencil and weights): one linear convolution over the grid axes of v
    scattered onto the stencil's bounding grid (reshaped when the nodes
    fill it) with the kernel box, c0 at the centre of (2 R + 1)^d cells,
    R the stencil's reach per axis, and c_k at +-o_k. Both are
    zero-padded per axis to a fast length >= n + 2 R, so a site s +- o
    counts only when it is on the grid and holds a node, the rule of
    _stencil_rows, and the product is rfftn/irfftn once for all k
    columns, cropped and gathered back. A closure over the grid, the
    sites, the crop and the box's read-only spectrum, as _dst_map."""
    from scipy.fft import irfftn, next_fast_len, rfftn
    shape, sites, whole = stencil.shape, stencil.sites, stencil.whole
    reach = np.abs(stencil.offsets).max(axis=0, initial=0)
    box = np.zeros(2 * reach + 1)
    box[tuple(reach)] = c0
    box[tuple((reach + stencil.offsets).T)] = c
    box[tuple((reach - stencil.offsets).T)] = c
    padded = [next_fast_len(int(n + 2 * r), True)
              for n, r in zip(shape, reach)]
    axes = tuple(range(len(shape)))
    kernel = rfftn(box, padded)
    kernel.flags.writeable = False
    crop = tuple(slice(r, r + n) for r, n in zip(reach, shape))

    def apply(v):
        extra = v.shape[1:]
        if whole:
            grid = v.reshape(shape + extra)
        else:
            grid = np.zeros(shape + extra)
            grid.reshape((-1,) + extra)[sites] = v
        spectrum = rfftn(grid, padded, axes=axes)
        spectrum *= kernel.reshape(kernel.shape + (1,) * len(extra))
        out = irfftn(spectrum, padded, axes=axes, overwrite_x=True)
        out = out[crop].reshape((-1,) + extra)
        return out if whole else out[sites]

    return apply


def _owned(array):
    """An array that owns its memory, so it can be resized in place:
    array itself, the array it is a leading slice of (as scipy trims a
    product's slack), or else a copy."""
    base = array.base
    if base is None:
        return array
    if isinstance(base, np.ndarray) and base.flags.owndata \
            and base.ndim == 1 and base.dtype == array.dtype \
            and base.ctypes.data == array.ctypes.data:
        return base
    return array.copy()


class _LayerFactor:
    """A_LL = P^T U^T U P for the layer block A_LL = B[L]: P is the
    reverse Cuthill-McKee order (Cuthill & McKee, 1969; George & Liu,
    Computer Solution of Large Sparse Positive Definite Systems, 1981),
    in which the ring of layer nodes has a bandwidth kd of a few stencil
    widths whatever delta is, and U is LAPACK's upper banded Cholesky
    factor (dpbtrf), kept as its kd + 1 diagonals. Column j of A_LL is
    row j of B^T (CSR) at the layer nodes, so A_LL is never built: the
    order comes from A_LL's int32 structure (symmetric, so its columns
    serve as its rows), and the entries on or above the diagonal of
    P A_LL P^T are scattered into the band block by block of B^T's
    rows. solve(r) is A_LL^-1 r: two banded triangular solves (dpbtrs).
    A leading minor of P A_LL P^T that is not positive raises
    SolverError (reason "layer_not_positive_definite", its order as
    minor)."""

    def __init__(self, bt, nodes):
        from scipy.sparse.csgraph import reverse_cuthill_mckee
        m = len(nodes)
        layer_of = np.full(bt.shape[1], -1, dtype=np.int32)
        layer_of[nodes] = np.arange(m, dtype=np.int32)
        # blocks of B^T's rows of about _BLOCK / 4 stored entries each
        step = max(1, _BLOCK // 4 * m // max(bt.nnz, 1))
        blocks = [(a, min(a + step, m)) for a in range(0, m, step)]
        # per column j of A_LL, its rows i; B^T's nnz bounds their count
        # (pages of the bound past the last row are never written)
        counts = np.zeros(m, dtype=np.int64)
        rows, end = np.empty(bt.nnz, dtype=np.int32), 0
        for a, b in blocks:
            lo, hi = bt.indptr[a], bt.indptr[b]
            i = layer_of[bt.indices[lo:hi]]
            at = np.flatnonzero(i >= 0)
            counts[a:b] = np.diff(np.searchsorted(at, bt.indptr[a:b + 1] - lo))
            rows[end:end + len(at)] = i[at]
            end += len(at)
        rows = rows[:end]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        perm = reverse_cuthill_mckee(sp.csr_matrix(
            (np.ones(end, dtype=bool), rows, indptr), shape=(m, m)),
            symmetric_mode=True)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(m)
        # entry (i, j), i <= j, of P A P^T goes to row kd - (j - i) of
        # column j of LAPACK's upper band storage; kd is the largest
        # inv[j] - inv[i] over A_LL's entries
        held = counts > 0
        kd = int(np.max(inv[held] - np.minimum.reduceat(
            inv[rows], indptr[:-1][held]), initial=0))
        del rows
        band = np.zeros((m, kd + 1))
        for a, b in blocks:
            lo, hi = bt.indptr[a], bt.indptr[b]
            i = layer_of[bt.indices[lo:hi]]
            keep = i >= 0
            cols = np.repeat(inv[a:b], counts[a:b])
            gap = cols - inv[i[keep]]
            upper = gap >= 0
            band[cols[upper], kd - gap[upper]] = bt.data[lo:hi][keep][upper]
        factor, info = lapack.dpbtrf(band.T, overwrite_ab=True)
        if info > 0:
            raise SolverError("boundary layer block is not positive "
                              "definite",
                              reason="layer_not_positive_definite",
                              minor=info, n_layer=m)
        self.perm, self.inv, self.factor = perm, inv, factor

    def solve(self, r):
        x, _ = lapack.dpbtrs(self.factor, r[self.perm], overwrite_b=True)
        return x[self.inv]


class EnergyOperator:
    """Assembled discrete energy: evaluable and differentiable in u.

    Construct with assemble(). An operator is its tables: mesh, delta,
    p, penalty spec, datum a (assemble's or twin's read-only copy),
    stencil, offset weights and penalty tables; it is immutable in use.
    Everything else is derived from them on first use, once per
    operator: for p = 2 the linear and constant terms of the quadratic
    form, and the tau symbol, the DST solve, the layer columns and the
    layer factor. twin() and the constructor build a new operator from
    new tables, so no cache outlives the tables it read.
    """

    def __init__(self, mesh, delta, p, spec, a_values, stencil, offset_w,
                 pen, pen_node, pen_pref):
        self.mesh = mesh
        self.delta = float(delta)
        self.p = float(p)
        self.spec = spec
        self.variant = spec.variant
        self.a = a_values
        # offset_w[k] = q^2 R_delta(|o_k|) / delta^p is the weight of
        # every pair of nodes the k-th half-offset apart
        self.stencil = stencil
        self.offset_w = offset_w
        # the penalty sum_r pen_pref[r] |a[pen_node[r]] s_r - K_r . u|^p
        # over the rows K_r of the CSR table pen, s_r their sums
        self.pen = pen
        self.pen_node = pen_node
        self.pen_pref = pen_pref
        self._pen_t = pen.T  # K^T as a CSC view of pen's arrays, no copy
        # a_{b_r} s_r per row, the datum the residuals are taken from
        self._target = a_values[pen_node] * (pen @ np.ones(mesh.n_interior))
        # the nonzero-weight offsets, their flat steps and 2 w; their
        # pair starts are made on demand (LatticeStencil.pair_rows)
        self._keep = offset_w != 0.0
        self._steps = stencil.flat_offsets[self._keep]
        self._w2 = 2.0 * offset_w[self._keep]

    def _to_ends(self, pieces):
        """Per-node sums over the pairs of the nonzero-weight offsets: a
        piece (one value per grid site, read at each pair's first site)
        adds to the pair's first node and subtracts from its second."""
        size = len(self.stencil.node_of)
        grid = np.zeros(size)
        for f, piece in zip(self._steps, pieces):
            grid[:size - f] += piece[:size - f]
            grid[f:] -= piece[:size - f]
        return grid[self.stencil.sites]

    def _differences(self, v):
        """Per nonzero-weight offset: u_i - u_j at each pair's first
        site on the bounding grid, exactly 0 at every other site."""
        size = len(self.stencil.node_of)
        grid = np.zeros(size)
        grid[self.stencil.sites] = v
        for f, start in zip(self._steps, self.stencil.pair_rows(self._keep)):
            d = grid[:size - f] - grid[f:]
            d *= start[:size - f]
            yield d

    # -- quadratic form ------------------------------------------------

    def _require_quadratic(self):
        if self.p != 2.0:
            raise AssemblyError("quadratic form is only assembled for p = 2",
                                p=self.p)

    def apply_quadratic(self, u):
        """A @ u for the p = 2 form: P_tau u with its entries on the
        boundary layer L replaced by B^T u. A row off L is the full
        stencil with no penalty, which P_tau applies exactly, and
        (A u)_L = B^T u as A is symmetric; no layer factor is read, so a
        singular A_LL does not matter here."""
        self._require_quadratic()
        v = _field_values(self.mesh, u)
        nodes, _, bt = self._layer_columns
        out = _dst_map(self.stencil, self._symbol, np.multiply)(v)
        out[nodes] = bt @ v
        return out

    @functools.cached_property
    def linear_term(self):
        """l of the p = 2 form: -1/2 the penalty gradient at 0, where the
        interior gradient is 0."""
        self._require_quadratic()
        return -0.5 * self._penalty_gradient(np.zeros(self.mesh.n_interior))

    @functools.cached_property
    def constant_term(self):
        """c0 of the p = 2 form: the penalty energy at 0."""
        self._require_quadratic()
        return self.penalty_energy(np.zeros(self.mesh.n_interior))

    def preconditioner(self):
        """r -> M r, the symmetric positive definite map that Newton-CG
        and LOBPCG precondition with (linear CG runs deflated_cg).

        For p != 2, M is P_tau^-1, the DST solve of _tau_solve. For
        p = 2 it is the symmetric two-level map

            z1 = A_LL^-1 r_L
            z2 = z1 + P_tau^-1 (r - A z1)
            z  = z2 + A_LL^-1 (r - A z2)_L

        on the boundary layer L of _layer_columns. Off L the p = 2 form
        is the translation-invariant stencil that P_tau^-1 inverts, so
        A - P_tau lives on L x L and the iteration counts no longer grow
        as delta falls. As z1 lives on L, A z1 = B z1_L and
        (A z2)_L = B^T z2 with B = A[:, L], so an apply is one DST pair
        and two layer solves (four banded triangular solves). It reads
        _layer_columns and _layer_factor, which refuses an A_LL that is
        not positive definite.
        """
        tau = self._tau_solve
        if self.p != 2.0:
            return tau
        nodes, b, bt = self._layer_columns
        factor = self._layer_factor

        def apply(r):
            z1 = factor.solve(r[nodes])
            z = tau(r - b @ z1)
            z[nodes] += z1
            z[nodes] += factor.solve(r[nodes] - bt @ z)
            return z

        return apply

    def deflated_cg(self):
        """(x0, r0, step): the start and the step of conjugate gradients
        on A u = l deflated by the boundary layer L (Saad, Yeung, Erhel
        & Guyomarc'h, SIAM J. Sci. Comput. 21, 2000), in the A-DEF2 form
        of Tang, Nabben, Vuik & Erlangga (J. Sci. Comput. 39, 2009).

        The start x0 = R_L^T A_LL^-1 l_L solves the layer exactly, so
        r0 = l - B A_LL^-1 l_L vanishes on L. step maps a residual r to
        the preconditioned residual z and A z:

            y = P_tau^-1 r,  c = B^T y = (A y)_L,
            w = A_LL^-1 (c - r_L),  z = y - R_L^T w.

        A row off L is the full stencil with no penalty, and it reads no
        site beyond the mesh, so (A y)_i = r_i there: A y is r with its
        L entries replaced by c, and A z = A y - B w without a matvec.
        As (A z)_L = r_L, the residuals stay zero on L up to rounding.
        One DST solve and one layer solve (two banded triangular solves)
        per step, from _layer_columns and _layer_factor, which refuses
        an A_LL that is not positive definite before any step runs.
        """
        ell = self.linear_term
        tau = self._tau_solve
        nodes, b, bt = self._layer_columns
        factor = self._layer_factor
        x0 = np.zeros(self.mesh.n_interior)
        x0[nodes] = factor.solve(ell[nodes])
        r0 = ell - b @ x0[nodes]

        def step(r):
            y = tau(r)
            c = bt @ y
            w = factor.solve(c - r[nodes])
            az = b @ w  # then r - B w, with c - B w on L
            on_layer = c - az[nodes]
            np.subtract(r, az, out=az)
            az[nodes] = on_layer
            y[nodes] -= w
            return y, az

        return x0, r0, step

    @functools.cached_property
    def _layer_columns(self):
        """The boundary layer L of the p = 2 form and its columns: the
        nodes missing a neighbor at some offset of nonzero weight (their
        rows differ from the full stencil) plus every node a penalty row
        touches, ascending; B = A[:, L] (n x |L|) as the CSC view of B^T;
        and B^T, stored once (CSR, int32 indices, each row's columns
        ascending, no slack past nnz), holding no zeros.

        A = S + P: the interior form S (each pair (i, j, w) adds
        2 w (u_i - u_j)^2 to u^T A u) and the penalty P =
        K^T diag(pref) K, which lives on L x L as every column of K is a
        layer node. So B^T = P[L] + S^T[L], written block by block of
        about _BLOCK stencil entries of layer nodes as the block's
        stencil rows (_stencil_rows, weights -2 w) plus one penalty
        product Y_blk K, Y = (diag(pref) K[:, L])^T. scipy's product
        sums P's entry over the penalty rows in ascending order and the
        sum adds it to S's (one rounding, which commutes), so each entry
        has the bits of (sum_r P_r) + S, exact zeros dropped. Each
        block's rows are sorted and appended in place, so no block or
        product exists for all nodes at once."""
        self._require_quadratic()
        sites, node_of = self.stencil.sites, self.stencil.node_of
        full = np.ones(len(node_of), dtype=bool)  # linked both ways per offset
        for f, start in zip(self._steps, self.stencil.pair_rows(self._keep)):
            full &= start
            full[f:] &= start[:-f]
            full[:f] = False
        in_layer = ~full[sites]
        in_layer[self.pen.indices] = True
        nodes = np.flatnonzero(in_layer)
        pen, n, m = self.pen, self.mesh.n_interior, len(nodes)
        layer_of = np.empty(n, dtype=np.int32)
        layer_of[nodes] = np.arange(m)
        # Y: per layer node, the penalty rows touching it (ascending),
        # each with weight pref_r K_r
        yp = sp.csr_matrix((np.repeat(self.pen_pref, np.diff(pen.indptr))
                            * pen.data, layer_of[pen.indices], pen.indptr),
                           shape=(pen.shape[0], m)).T.tocsr()
        data, cols = np.empty(0), np.empty(0, dtype=np.int32)
        indptr = np.zeros(m + 1, dtype=np.int64)
        weights = -2.0 * self.offset_w
        step = max(1, _BLOCK // (2 * len(self._steps) + 1))
        for a in range(0, m, step):
            b = min(a + step, m)
            part = _stencil_rows(self.stencil, weights, nodes[a:b]) \
                + yp[a:b] @ pen
            part.sort_indices()
            start, count = len(data), int(part.indptr[-1])
            if start == 0:  # the first block's arrays are kept, not copied
                data, cols = (_owned(part.data),
                              _owned(part.indices.astype(np.int32,
                                                         copy=False)))
            # grown in place (realloc): no old copy is held beside it
            data.resize(start + count, refcheck=False)
            cols.resize(start + count, refcheck=False)
            if start:
                data[start:] = part.data[:count]
                cols[start:] = part.indices[:count]
            indptr[a + 1:b + 1] = start + part.indptr[1:]
        bt = sp.csr_matrix((data, cols, indptr), shape=(m, n))
        return nodes, bt.T, bt

    @functools.cached_property
    def _layer_factor(self):
        """The banded Cholesky factor (_LayerFactor) of A_LL, read from
        B^T's rows at the layer nodes; A_LL itself is never built."""
        nodes, _, bt = self._layer_columns
        return _LayerFactor(bt, nodes)

    @functools.cached_property
    def _symbol(self):
        """The symbol of P_tau, the Dirichlet tau-matrix of the interior
        p = 2 stencil at this horizon; usable for any exponent (pair
        weights rescale by delta^(p-2)): lambda(theta) = sum_o 2 w(o)
        (1 - prod_a cos(theta_a o_a)) over all signed offsets o, at
        theta_a = pi k / n_a, k = 1..n_a, on the stencil's n_1 x ...
        bounding grid. On the lattice with equal weights that the mesh
        constructor certified, the interior form is a convolution stencil
        away from the boundary and the DST-II diagonalizes P_tau, so a row
        whose stencil stays on the mesh is the interior form's row. The
        penalty terms are left out. The cosine sum is one _cosine_sum
        contraction over the half-offsets.
        """
        # each half-offset o stands for o and -o
        coef = 4.0 * self.offset_w * self.delta ** (self.p - 2.0)
        return coef.sum() - _cosine_sum(
            self.stencil, coef,
            [np.pi * np.arange(1, n + 1) / n for n in self.stencil.shape])

    @functools.cached_property
    def _tau_solve(self):
        """r -> P_tau^-1 r, symmetric positive definite. Raises
        SolverError (reason "symbol_not_positive") when the symbol is
        not positive."""
        lam = self._symbol
        if not np.min(lam) > 0.0:
            raise SolverError("preconditioner symbol is not positive",
                              reason="symbol_not_positive",
                              min_symbol=float(np.min(lam)))
        return _dst_map(self.stencil, lam, np.divide)

    # -- direct evaluation ---------------------------------------------

    def _inner(self, v):
        """Penalty residuals a_{b_r} s_r - K_r . v per row (K v = pen @ v)."""
        return self._target - self.pen @ v

    def interior_energy(self, u) -> float:
        """Ordered-pair double sum of kernel-weighted p-th power
        differences, summed per offset on the bounding grid, so a
        constant field gives exactly 0."""
        v, p = _field_values(self.mesh, u), self.p
        return float(sum(w2 * (d @ d if p == 2.0 else np.sum(np.abs(d) ** p))
                         for w2, d in zip(self._w2, self._differences(v))))

    def penalty_energy(self, u) -> float:
        """Boundary penalty at u, datum self.a; twin(a=...) for another."""
        v = _field_values(self.mesh, u)
        return float(np.sum(self.pen_pref * np.abs(self._inner(v)) ** self.p))

    def energy(self, u) -> float:
        return self.interior_energy(u) + self.penalty_energy(u)

    def gradient(self, u):
        """Analytic gradient of the total energy, summed per offset
        (exactly 0 for a constant field); for p = 2 it equals
        2 A u - 2 l."""
        v, p = _field_values(self.mesh, u), self.p
        g = self._to_ends(p * w2 * _signed_power(d, p - 1.0) for w2, d
                          in zip(self._w2, self._differences(v)))
        return g + self._penalty_gradient(v)

    def _energy_and_gradient(self, u):
        """(energy(u), gradient(u)) from one pass over the per-offset
        differences: the same sums, in the same order, as the two
        apart."""
        v, p = _field_values(self.mesh, u), self.p
        size = len(self.stencil.node_of)
        grid, interior = np.zeros(size), 0.0
        for f, w2, d in zip(self._steps, self._w2, self._differences(v)):
            interior += w2 * (d @ d if p == 2.0 else np.sum(np.abs(d) ** p))
            piece = _signed_power(d, p - 1.0)  # d itself at p = 2
            piece *= p * w2
            grid[:size - f] += piece
            grid[f:] -= piece
        g = grid if self.stencil.whole else grid[self.stencil.sites]
        g += self._penalty_gradient(v)
        return float(interior) + self.penalty_energy(v), g

    def _penalty_gradient(self, v):
        """Gradient of penalty_energy at the values v: -sum_r t_r K_r,
        t_r = p pref_r |inner_r|^(p-1) sign(inner_r), as pen.T @ t."""
        p = self.p
        return -(self._pen_t @ (self.pen_pref * p * _signed_power(
            self._inner(v), p - 1.0)))

    def hessian(self, u):
        """v -> H v, the Hessian at u with no matrix: per offset slice
        2 p (p - 1) w_k |Delta_k u|^(p-2), plus pen.T @ (t * (pen @ v))
        with t_r = p (p - 1) pref_r |inner_r|^(p-2), each |.| floored as
        in _floored_power."""
        v = _field_values(self.mesh, u)
        c, e = self.p * (self.p - 1.0), self.p - 2.0
        slices = [c * w2 * _floored_power(d, e)
                  for w2, d in zip(self._w2, self._differences(v))]
        scale = c * self.pen_pref * _floored_power(self._inner(v), e)

        def apply(w):
            out = self._to_ends(s * d for s, d
                                in zip(slices, self._differences(w)))
            return out + self._pen_t @ (scale * (self.pen @ w))

        return apply

    # -- transforms ------------------------------------------------------

    def twin(self, p=None, a=None):
        """This operator's tables with exponent p and datum values a,
        checked as assemble() checks them. The weights keep their
        delta^-p, so a p = 2 twin is delta^(2-p) times assemble()'s
        p = 2 operator, with the same minimizer."""
        p = self.p if p is None else p
        a = _admitted(self.mesh, self.variant, p,
                      self.a if a is None else a)
        return EnergyOperator(self.mesh, self.delta, p, self.spec, a,
                              self.stencil, self.offset_w, self.pen,
                              self.pen_node, self.pen_pref)


def _signed_power(d, e):
    """sign(d) |d|^e, which is d at e = 1 and finite at d = 0."""
    return d if e == 1.0 else np.sign(d) * np.abs(d) ** e


def _floored_power(d, e):
    """|d|^e with |d| floored at 1e-10 of its largest value (at 1 when
    every value is 0), so it is finite for e < 0."""
    d = np.abs(d)
    top = d.max(initial=0.0)
    return np.maximum(d, 1e-10 * top if top > 0.0 else 1.0) ** e


def assemble(mesh: DomainMesh, R: KernelSpec, spec: PenaltySpec,
             delta: float, p: float = 2.0, a=None) -> EnergyOperator:
    """Assemble the discrete energy on a mesh.

    Requires delta >= 2 h so the kernel is resolved by the quadrature,
    validated kernels, zero data for the zero-datum variants, p = 2
    for the variants without a general-p statement, a penalty kernel
    row with a positive sum at every boundary node (AssemblyError naming
    the first node and its position otherwise), and a lattice mesh
    (MeshError otherwise; see geometry.lattice_stencil). One
    lattice_stencil serves the interior pairs and the penalty tables
    when their kernels share a support: the kernel R is evaluated once
    per half-offset. No exponent lists pairs: the energy, gradient,
    Hessian and boundary layer read the stencil's per-offset pair sites,
    and the p = 2 form applies as the DST tau stencil off the boundary
    layer plus the sparse layer columns on it.
    """
    if not 0 < delta < np.inf:
        raise AssemblyError("horizon must be positive and finite",
                            delta=delta)
    if delta < 2.0 * mesh.h * (1.0 - 1e-12):
        raise AssemblyError("horizon must be at least two cells wide",
                            delta=delta, h=mesh.h)
    a_vals = _admitted(mesh, spec.variant, p, boundary_data(mesh, a))
    validate_kernel(R).require()
    if spec.kernel is not R:
        validate_kernel(spec.kernel).require()

    # interior pairs, one weight per half-offset (the weights are equal)
    stencil = lattice_stencil(mesh, R.support * delta)
    q = mesh.interior_weights
    offset_w = (q[0] * q[0] * eval_scaled(R, stencil.lengths, delta, mesh.dim)
                / delta**p)

    # penalty tables
    if spec.variant in ("wang", "shi"):
        base = antiderivative_kernel(spec.kernel)
    else:
        base = spec.kernel
    table = _boundary_tables(mesh, base, delta, stencil)
    _refuse_empty(table @ np.ones(mesh.n_interior), mesh.boundary_points,
                  AssemblyError, "penalty kernel row is empty at a boundary "
                  "node")
    w_b = mesh.boundary_weights
    if spec.variant == "wang":
        wbb = _boundary_tables(mesh, antiderivative_kernel(base), delta,
                               stencil) @ np.ones(mesh.n_interior)
        _refuse_empty(wbb, mesh.boundary_points, AssemblyError,
                      "wang weight vanishes at a boundary node")
        pref = 2.0 * w_b / (delta**2 * wbb)
    elif spec.variant == "shi":
        # boundary nodes have zero boundary distance: max(delta^2, d) = delta^2
        mu = min(2.0 * delta, delta**2)
        pref = 4.0 * w_b / mu
        if spec.shi_delta_sq_prefactor:
            pref = pref / delta**2
    else:  # product, pointwise, dirac_diagonal (p = 2)
        pref = w_b / delta**p

    node = np.arange(mesh.n_boundary)
    if spec.variant not in PER_NODE_VARIANTS:
        # a row e_j per stored k_b[j], its weight moved into the prefactor
        node = np.repeat(node, np.diff(table.indptr))
        pref = pref[node] * table.data
        table = sp.identity(mesh.n_interior, format="csr")[table.indices]
    return EnergyOperator(mesh, delta, p, spec, a_vals, stencil, offset_w,
                          table, node, pref)


def mollify(mesh: DomainMesh, khat: KernelSpec, delta: float, u):
    """Kernel-smoothed field sum_j q_j Khat_delta(|x - x_j|) u_j / omega(x)
    as two arrays, at the interior nodes x (w_mass_matrix for Khat over
    its row sums, omega = sum over 1; q_i cancels) and at the boundary
    nodes (trace_matrix). A vanishing omega raises MollifierError naming
    the node."""
    v = _field_values(mesh, u)
    stencil = lattice_stencil(mesh, khat.support * delta)
    smooth = w_mass_matrix(mesh, khat, delta, stencil)
    omega = smooth @ np.ones(mesh.n_interior)
    numer = smooth @ v
    _refuse_empty(omega, mesh.interior_points, MollifierError,
                  "mollifier weight vanishes at an interior node", _TINY,
                  radius=khat.support * delta)
    trace = trace_matrix(mesh, khat, delta, stencil)
    return numer / omega, trace @ v


def trace_matrix(mesh: DomainMesh, khat: KernelSpec, delta: float,
                 stencil=None):
    """Boundary half of the mollifier as a row-normalized sparse
    (M x N) matrix T with T[b, j] = q_j Khat_delta(|x_b - x_j|) / omega_b.
    T @ u is the smoothed boundary trace of u, and T @ U for an
    N x k block gives k traces in one product. stencil, a
    lattice_stencil of this mesh such as an operator's, is reused when
    its radius is Khat's support. A vanishing omega_b raises
    MollifierError naming the node."""
    table = _boundary_tables(mesh, khat, delta, stencil)
    omega = table @ np.ones(mesh.n_interior)
    _refuse_empty(omega, mesh.boundary_points, MollifierError,
                  "mollifier weight vanishes at a boundary node", _TINY,
                  radius=khat.support * delta)
    table.data /= np.repeat(omega, np.diff(table.indptr))
    return table


def w_mass_matrix(mesh: DomainMesh, W: KernelSpec, delta: float,
                  stencil=None):
    """Sparse symmetric mass form B[i,j] = q_i q_j W_delta(|x_i-x_j|),
    diagonal included: _stencil_rows of every node with _w_stencil's
    c_k per half-offset and c_0 on the diagonal, in canonical CSR
    (columns ascending, no stored zero); the independent oracle of
    _w_mass_map, which the eigensolve applies instead, and mollify's
    smoothing. stencil is reused as in _w_stencil."""
    stencil, c, c0 = _w_stencil(mesh, W, delta, stencil)
    return _stencil_rows(stencil, c, np.arange(mesh.n_interior), c0)


def _w_stencil(mesh, W, delta, stencil=None):
    """The W mass form's lattice stencil (stencil, such as an operator's,
    when its radius is W's support), its offset weights
    c_k = q^2 W_delta(|o_k|) and c_0 = q^2 W_delta(0), q the node weight."""
    if stencil is None or stencil.radius != W.support * delta:
        stencil = lattice_stencil(mesh, W.support * delta)
    q = mesh.interior_weights[0]
    return (stencil, q * q * eval_scaled(W, stencil.lengths, delta, mesh.dim),
            q * q * float(eval_scaled(W, np.asarray(0.0), delta, mesh.dim)))


def w_mass_floor(mesh: DomainMesh, W: KernelSpec, delta: float,
                 stencil=None) -> float:
    """A lower bound on the smallest eigenvalue of w_mass_matrix. On any
    lattice mesh, polygons included, B is a principal section of the
    multilevel Toeplitz form of _w_stencil's c_0 and c_k, so
    lambda_min(B) >= min f (Grenander & Szego, 1958), f = c_0 +
    sum_k 2 c_k prod_a cos(theta_a o_k,a). That minimum is taken on
    4 n_a + 1 angles per axis of [0, pi]^d (f is even in each theta_a),
    less M sum_a (pi / (4 n_a))^2 / 8, M = sum_k 2 |c_k| |o_k|^2 >= |f''|.
    stencil is reused as in _w_stencil."""
    stencil, c, c0 = _w_stencil(mesh, W, delta, stencil)
    cells = np.pi / (4.0 * np.asarray(stencil.shape))
    lowest = float(_cosine_sum(stencil, 2.0 * c, [
        cell * np.arange(4 * n + 1)
        for cell, n in zip(cells, stencil.shape)]).min())
    curvature = 2.0 * np.abs(c) @ np.sum(stencil.offsets ** 2, axis=1)
    return c0 + lowest - curvature * float(cells @ cells) / 8.0
