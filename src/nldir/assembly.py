"""Assembly of the discrete penalized nonlocal energy.

The functional has an interior part

    (1/delta^p) sum_{i != j} q_i q_j R_delta(|x_i - x_j|) |u_i - u_j|^p

(ordered pairs, so every unordered pair counts twice) plus one of five
boundary penalty variants, each of one of two forms. With the kernel
row k_b[j] = q_j G_delta(|x_b - x_j|) and its sum s_b, boundary node b
with weight w_b and datum a_b adds

    rank-one : pref_b |k_b . u - a_b s_b|^p
    diagonal : pref_b sum_j k_b[j] |u_j - a_b|^p

where G is the penalty kernel K or Kbar, its upper antiderivative:

    variant         form      kernel  prefactor pref_b          data  p
    product         rank-one  K       w_b / delta^p             any   > 1
    pointwise       diagonal  K       w_b / delta^p             any   > 1
    dirac_diagonal  diagonal  K       w_b / delta^p             zero  2
    wang            rank-one  Kbar    2 w_b / (delta^2 wbb_b)   any   2
    shi             diagonal  Kbar    4 w_b / mu_b              zero  2

Here wbb_b = sum_j q_j Kbarbar_delta(|x_b - x_j|) and
mu_b = min(2 delta, max(delta^2, d(x_b))) = min(2 delta, delta^2) at
boundary nodes (their boundary distance d is zero). A config switch
selects the alternative shi prefactor 4/(delta^2 mu_b); both scalings
appear in the literature on this penalty. At p = 2 with zero data,
dirac_diagonal is pointwise.

For every p the interior energy, its gradient and its Hessian-vector
product are per-offset slice sums on the lattice's bounding grid: no
pair list and no Hessian matrix is built. For p = 2 the operator also
carries a quadratic form F(u) = u^T A u - 2 l^T u + c0: the interior
form, a penalty diagonal and per-boundary-node rank-one terms, never
dense. Off the boundary layer L a row of A is the translation-invariant
stencil, which the DST-II tau-matrix P_tau applies exactly; on L it is
a row of the sparse layer columns B = A[:, L]. So A u is P_tau u with
its L entries replaced by B^T u, and the same two pieces, P_tau^-1 and
an exact solve on L, give a symmetric preconditioner and the deflated
conjugate-gradient step of minimize.solve_quadratic.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, ConfigError, MollifierError, SolverError
from .geometry import DomainMesh, lattice_stencil
from .kernels import (KernelSpec, ScaledKernel, antiderivative_kernel,
                      eval_scaled, validate_kernel)

VARIANTS = ("product", "pointwise", "dirac_diagonal", "wang", "shi")
ZERO_DATA_VARIANTS = ("dirac_diagonal", "shi")
RANK_ONE_VARIANTS = ("product", "wang")
QUADRATIC_ONLY_VARIANTS = ("dirac_diagonal", "wang", "shi")

_TINY = 1e-300


@dataclass(frozen=True)
class Field:
    """Values at the interior nodes of a particular mesh."""

    mesh: DomainMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_interior,):
            raise AssemblyError("field length does not match the mesh",
                                expected=self.mesh.n_interior,
                                got=list(vals.shape))
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_interior))


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet datum sampled at the boundary nodes of a mesh."""

    mesh: DomainMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_boundary,):
            raise AssemblyError("boundary data length does not match the mesh",
                                expected=self.mesh.n_boundary,
                                got=list(vals.shape))
        object.__setattr__(self, "values", vals)


# The manufactured local solutions, each written once in closed form on
# an (n, dim) point array: id -> (u, |grad u|^2, dims, exponents), where
# None admits every dimension or every p > 1. The affine entries solve
# the local p-Laplace problem for every p, the harmonic ones for p = 2.
MANUFACTURED = {
    "zero": (lambda x: np.zeros(len(x)), lambda x: np.zeros(len(x)),
             None, None),
    "linear_x": (lambda x: x[:, 0].copy(), lambda x: np.ones(len(x)),
                 None, None),
    "harmonic_x2_minus_y2": (lambda x: x[:, 0] ** 2 - x[:, 1] ** 2,
                             lambda x: 4 * x[:, 0] ** 2 + 4 * x[:, 1] ** 2,
                             (2,), (2.0,)),
    "harmonic_xy": (lambda x: x[:, 0] * x[:, 1],
                    lambda x: x[:, 0] ** 2 + x[:, 1] ** 2, (2,), (2.0,)),
}


def boundary_data(mesh: DomainMesh, spec) -> BoundaryData:
    """Resolve a boundary datum: None or "zero" for homogeneous data, a
    manufactured solution of MANUFACTURED by id, "csv:<path>" with one
    value per boundary node, or an explicit array. A missing or
    malformed CSV file raises AssemblyError naming the path."""
    if spec is None:
        return BoundaryData(mesh, np.zeros(mesh.n_boundary))
    if isinstance(spec, BoundaryData):
        if spec.mesh is not mesh:
            raise AssemblyError("boundary data bound to a different mesh")
        return spec
    if isinstance(spec, str):
        if spec in MANUFACTURED:
            exact, _, dims, _ = MANUFACTURED[spec]
            if dims is not None and mesh.dim not in dims:
                raise ConfigError("datum does not admit this shape's dimension",
                                  field="datum", datum=spec, dim=mesh.dim,
                                  dims=list(dims))
            return BoundaryData(mesh, exact(mesh.boundary_points))
        if spec.startswith("csv:"):
            try:
                vals = np.loadtxt(spec[4:], dtype=float, ndmin=1)
            except (OSError, ValueError) as exc:
                raise AssemblyError(f"cannot read boundary datum: {exc}",
                                    path=spec[4:]) from exc
            return BoundaryData(mesh, vals)
        raise ConfigError("unknown boundary datum", field="datum", datum=spec,
                          catalog=list(MANUFACTURED) + ["csv:<path>"])
    return BoundaryData(mesh, np.asarray(spec, dtype=float))


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
    v = np.asarray(values, dtype=float)
    return float(np.sum(mesh.interior_weights * np.abs(v) ** p) ** (1.0 / p))


def _field_values(op_mesh, u, what="field"):
    if isinstance(u, Field):
        if u.mesh is not op_mesh:
            raise AssemblyError(f"{what} bound to a different mesh")
        return u.values
    v = np.asarray(u, dtype=float)
    if v.shape != (op_mesh.n_interior,):
        raise AssemblyError(f"{what} length does not match the mesh",
                            expected=op_mesh.n_interior, got=list(v.shape))
    return v


def _require_valid(kernel: KernelSpec):
    report = validate_kernel(kernel)
    if not report.passed:
        raise AssemblyError(
            "kernel failed validation: "
            + "; ".join(f"{c.condition}: {c.detail}" for c in report.failures()),
            kernel=kernel.label,
            conditions=[c.condition for c in report.failures()])


def _require_admitted_data(variant, a_vals):
    if variant in ZERO_DATA_VARIANTS and np.any(a_vals != 0.0):
        raise AssemblyError(
            f"variant '{variant}' admits only zero boundary data",
            variant=variant)


def _boundary_tables(mesh, base: KernelSpec, delta, stencil):
    """CSR boundary-to-interior coefficients q_j * k_delta(|x_b - x_j|).
    stencil, a lattice_stencil of this mesh, is reused when its radius
    is the kernel's support radius; otherwise one is built."""
    if stencil is None or stencil.radius != base.support * delta:
        stencil = lattice_stencil(mesh, base.support * delta)
    indptr, indices = stencil.boundary_indptr, stencil.boundary_indices
    rowid = np.repeat(np.arange(mesh.n_boundary), np.diff(indptr))
    dist = np.linalg.norm(mesh.boundary_points[rowid]
                          - mesh.interior_points[indices], axis=1)
    scaled = ScaledKernel(base, delta, mesh.dim)
    coef = mesh.interior_weights[indices] * eval_scaled(scaled, dist)
    return indptr, indices, rowid, coef


def _on_nodes(grid_matrix, stencil):
    """A CSR matrix on the bounding grid restricted to the mesh's nodes,
    in node order."""
    sites = stencil.sites
    if len(sites) == grid_matrix.shape[0] \
            and np.array_equal(sites, np.arange(len(sites))):
        return grid_matrix
    return grid_matrix[sites][:, sites]


def _stencil_matrix(stencil, weights, diagonal):
    """n x n CSR matrix with weights[k] at (i, j) and (j, i) for every
    two nodes the k-th half-offset apart and `diagonal` (per node) on
    the diagonal.

    Built in one dia-to-CSR pass on the flattened bounding grid: the
    dia row of offset f holds the pair weights at their second site
    (entries (s, s + f)), the row of -f at their first (entries
    (s + f, s)). Two offsets can share a flat step (o and
    o + (1, -n_1) on an n_0 x n_1 grid); their pairs are disjoint and
    share a row. Exact zeros (offsets of weight 0, off-mesh and
    wrapped-around entries) are not stored."""
    steps = stencil.flat_offsets
    starts = stencil.pair_starts()
    flat, row = np.unique(steps, return_inverse=True)
    k, size = len(flat), starts.shape[1]
    data = np.zeros((2 * k + 1, size))
    for start, f, w, r in zip(starts, steps, weights, row):
        data[r, f:] += w * start[:size - f]
        data[k + r] += w * start
    data[2 * k, stencil.sites] = diagonal
    grid = sp.dia_matrix((data, np.concatenate([flat, -flat, [0]])),
                         shape=(size, size)).tocsr()
    return _on_nodes(grid, stencil)


def _dst_map(stencil, symbol, combine):
    """r -> the gather of idst(combine(dst(r), symbol)): r scattered onto
    the stencil's bounding grid (zero off the mesh), an orthonormal
    DST-II, combined with the tau symbol (np.multiply applies P_tau,
    np.divide solves with it), transformed back. A closure over the
    grid, the sites and the symbol, so a cached map keeps no operator
    alive (an operator -> map -> operator cycle would outlive its last
    reference until the cycle collector runs)."""
    from scipy.fft import dstn, idstn
    shape, sites = stencil.shape, stencil.sites

    def apply(r):
        grid = np.zeros(shape)
        grid.ravel()[sites] = r
        spectrum = dstn(grid, type=2, norm="ortho", overwrite_x=True)
        combine(spectrum, symbol, out=spectrum)
        return idstn(spectrum, type=2, norm="ortho",
                     overwrite_x=True).ravel()[sites]

    return apply


class EnergyOperator:
    """Assembled discrete energy: evaluable and differentiable in u.

    Construct with assemble(); the instance is immutable in use. For
    p = 2, apply_quadratic/linear_term/constant_term expose the
    quadratic form. The pieces that only some paths read (the tau
    symbol, the DST solve, the layer columns and the layer factor) are
    built on first use, once per operator.
    """

    # first-use caches; scaled() and twin() drop them, as they read the
    # weights or the exponent
    _CACHES = ("_symbol", "_tau_solve", "_layer_columns", "_layer_factor")

    def __init__(self, mesh, delta, p, spec, a_values, stencil, offset_w,
                 pen_indptr, pen_indices, pen_rowid, pen_coef, pen_pref):
        self.mesh = mesh
        self.delta = float(delta)
        self.p = float(p)
        self.spec = spec
        self.variant = spec.variant
        self.rank_one = spec.variant in RANK_ONE_VARIANTS
        self.a = a_values
        # offset_w[k] = q^2 R_delta(|o_k|) / delta^p is the weight of
        # every pair of nodes the k-th half-offset apart
        self.stencil = stencil
        self.offset_w = offset_w
        self.pen_indptr = pen_indptr
        self.pen_indices = pen_indices
        self.pen_rowid = pen_rowid
        self.pen_coef = pen_coef
        self.pen_pref = pen_pref
        self.pen_sums = np.bincount(pen_rowid, weights=pen_coef,
                                    minlength=mesh.n_boundary)
        # per nonzero-weight offset: flat step, pair start sites, 2 w
        keep = offset_w != 0.0
        self._steps = stencil.flat_offsets[keep]
        self._starts = stencil.pair_starts()[keep]
        self._w2 = 2.0 * offset_w[keep]
        self._p2 = None
        if self.p == 2.0:
            self._build_quadratic()

    def _to_ends(self, pieces, second=np.add):
        """Per-node sums over the pairs of the nonzero-weight offsets: a
        piece (one value per grid site, read at each pair's first site)
        adds to the pair's first node and, by `second`, to its second."""
        size = self._starts.shape[1]
        grid = np.zeros(size)
        for f, piece in zip(self._steps, pieces):
            grid[:size - f] += piece[:size - f]
            second(grid[f:], piece[:size - f], out=grid[f:])
        return grid[self.stencil.sites]

    def _differences(self, v):
        """Per nonzero-weight offset: u_i - u_j at each pair's first
        site on the bounding grid, exactly 0 at every other site."""
        size = self._starts.shape[1]
        grid = np.zeros(size)
        grid[self.stencil.sites] = v
        for f, start in zip(self._steps, self._starts):
            d = grid[:size - f] - grid[f:]
            d *= start[:size - f]
            yield d

    # -- quadratic form ------------------------------------------------

    def _build_quadratic(self):
        n = self.mesh.n_interior
        # each pair (i, j, w) adds 2 w (u_i - u_j)^2 to u^T A u, so
        # A_int v = rowsum * v - sum over signed offsets o of 2 w(o) v(. + o)
        self._rowsum = self._to_ends(w2 * start for w2, start
                                     in zip(self._w2, self._starts))
        pref, coef = self.pen_pref, self.pen_coef
        idx, rowid = self.pen_indices, self.pen_rowid
        if self.rank_one:
            # pref_b (k_b . u - t_b)^2 with t_b = a_b s_b; pref is the
            # rank-one coefficient per boundary node
            target = self.a * self.pen_sums
            ell = np.bincount(idx, weights=coef * (pref * target)[rowid],
                              minlength=n)
            self._p2 = (np.zeros(n), ell, float(np.sum(pref * target**2)),
                        pref)
        else:
            cpen = pref[rowid] * coef
            a_j = self.a[rowid]
            self._p2 = (np.bincount(idx, weights=cpen, minlength=n),
                        np.bincount(idx, weights=cpen * a_j, minlength=n),
                        float(np.sum(cpen * a_j**2)), None)

    def _require_p2(self):
        if self._p2 is None:
            raise AssemblyError("quadratic form is only assembled for p = 2",
                                p=self.p)
        return self._p2

    def apply_quadratic(self, u):
        """A @ u for the p = 2 form: P_tau u with its entries on the
        boundary layer L replaced by B^T u. A row off L is the full
        stencil with no penalty, which P_tau applies exactly, and
        (A u)_L = B^T u as A is symmetric; no layer factor is read, so a
        singular A_LL does not matter here."""
        self._require_p2()
        v = _field_values(self.mesh, u)
        nodes, _, bt = self._layer_columns
        out = _dst_map(self.stencil, self._symbol, np.multiply)(v)
        out[nodes] = bt @ v
        return out

    def _rank_one_apply(self, scale, v):
        """sum_b scale_b k_b (k_b . v): the rank-one penalty terms."""
        idx, rowid = self.pen_indices, self.pen_rowid
        t = np.bincount(rowid, weights=self.pen_coef * v[idx],
                        minlength=self.mesh.n_boundary)
        return np.bincount(idx, weights=self.pen_coef * (scale * t)[rowid],
                           minlength=self.mesh.n_interior)

    @property
    def linear_term(self):
        return self._require_p2()[1]

    @property
    def constant_term(self):
        return self._require_p2()[2]

    def preconditioner(self):
        """r -> M r, the symmetric positive definite map that Newton-CG
        and LOBPCG precondition with (linear CG runs deflated_cg).

        For p != 2, M is P_tau^-1, the DST solve of _tau_solve. For
        p = 2 it is the symmetric two-level map

            z1 = A_LL^-1 r_L
            z2 = z1 + P_tau^-1 (r - A z1)
            z  = z2 + A_LL^-1 (r - A z2)_L

        on the boundary layer L of _layer. Off L the p = 2 form is the
        translation-invariant stencil that P_tau^-1 inverts, so A - P_tau
        lives on L x L and the iteration counts no longer grow as delta
        falls. As z1 lives on L, A z1 = B z1_L and (A z2)_L = B^T z2 with
        B = A[:, L]. It reads _layer_columns and _layer_factor.
        """
        tau = self._tau_solve
        if self._p2 is None:
            return tau
        nodes, b, bt = self._layer_columns
        lu = self._layer_factor

        def apply(r):
            z1 = lu.solve(r[nodes])
            z = tau(r - b @ z1)
            z[nodes] += z1
            z[nodes] += lu.solve(r[nodes] - bt @ z)
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
        One DST solve and one layer solve per step, from _layer_columns
        and _layer_factor.
        """
        ell = self.linear_term
        tau = self._tau_solve
        nodes, b, bt = self._layer_columns
        lu = self._layer_factor
        x0 = np.zeros(self.mesh.n_interior)
        x0[nodes] = lu.solve(ell[nodes])
        r0 = ell - b @ x0[nodes]

        def step(r):
            y = tau(r)
            c = bt @ y
            w = lu.solve(c - r[nodes])
            az = r.copy()
            az[nodes] = c
            az -= b @ w
            y[nodes] -= w
            return y, az

        return x0, r0, step

    @functools.cached_property
    def _layer_columns(self):
        """The layer nodes, B from _layer and B^T (a CSC view of B's
        arrays, so no copy)."""
        nodes, b = self._layer()
        return nodes, b, b.T

    @functools.cached_property
    def _layer_factor(self):
        """The factor (scipy splu) of A_LL, B's layer rows; A_LL itself
        is not kept."""
        from scipy.sparse.linalg import splu
        nodes, b, _ = self._layer_columns
        return splu(b[nodes].tocsc(), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def _layer(self):
        """The boundary layer of the p = 2 form and its columns: the
        nodes missing a neighbor at some offset of nonzero weight (their
        rows differ from the full stencil) plus every node a penalty row
        touches, ascending; and B = A[:, L] (n x |L|, CSR, read from the
        pair sites at the layer nodes), which stores no zeros."""
        diag, _, _, lowrank = self._require_p2()
        n = self.mesh.n_interior
        size, sites = self._starts.shape[1], self.stencil.sites
        full = np.ones(size, dtype=bool)  # every offset links it both ways
        for f, start in zip(self._steps, self._starts):
            full &= start & np.concatenate([np.zeros(f, bool), start[:-f]])
        in_layer = ~full[sites]
        in_layer[self.pen_indices] = True
        nodes = np.flatnonzero(in_layer)
        m = len(nodes)
        node_of = np.full(size, -1)
        node_of[sites] = np.arange(n)
        at = sites[nodes]
        # B^T in CSR, a row per layer node: the node, then per offset its
        # neighbors f sites down and up (-1 where no pair links them, a
        # pair starting at s linking s and s + f); scipy's counting
        # transpose to B's CSR leaves each row's columns ascending
        cols, vals = [nodes], [self._rowsum[nodes] + diag[nodes]]
        for f, w2, start in zip(self._steps, self._w2, self._starts):
            cols += [np.where((at >= f) & start[at - f], node_of[at - f], -1),
                     np.where(start[at], node_of[(at + f) % size], -1)]
            vals += [np.full(m, -w2)] * 2
        cols, vals = np.stack(cols, axis=1), np.stack(vals, axis=1)
        linked = cols >= 0
        indptr = np.concatenate([[0], np.cumsum(linked.sum(axis=1))])
        block = sp.csr_matrix((vals[linked], cols[linked], indptr),
                              shape=(m, n)).T.tocsr()
        if lowrank is not None:
            k = sp.csr_matrix((self.pen_coef, (self.pen_rowid,
                                               self.pen_indices)),
                              shape=(self.mesh.n_boundary, n))
            block = (block + k.T @ (sp.diags(lowrank) @ k[:, nodes])).tocsr()
        block.eliminate_zeros()
        return nodes, block

    @functools.cached_property
    def _symbol(self):
        """The symbol of P_tau, the Dirichlet tau-matrix of the interior
        p = 2 stencil at this horizon; usable for any exponent (pair
        weights rescale by delta^(p-2)).

        The interior nodes sit on a uniform lattice with equal weights,
        so away from the boundary the interior form is a convolution
        stencil. Its per-offset weights w(o) give the symbol
        lambda(theta) = sum_o 2 w(o) (1 - prod_a cos(theta_a o_a))
        over all signed offsets o, taken at theta_a = pi k / n_a,
        k = 1..n_a, on the n_1 x ... bounding grid of the stencil, which
        assemble() certified as a lattice with equal weights. The DST-II
        diagonalizes P_tau, so a row whose stencil stays on the mesh is
        the interior form's row. The penalty terms are left out.
        """
        shape = self.stencil.shape
        # each half-offset o stands for o and -o
        coef = 4.0 * self.offset_w * self.delta ** (self.p - 2.0)
        cosines = [np.cos(np.outer(np.pi * np.arange(1, n + 1) / n, o))
                   for n, o in zip(shape, self.stencil.offsets.T)]
        # sum over groups g of coef_g prod_a cosines[a][k_a, g]
        axes = "ijk"[:self.mesh.dim]
        return coef.sum() - np.einsum(
            ",".join(["g"] + [a + "g" for a in axes]) + "->" + axes,
            coef, *cosines)

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

    def _inner(self, v, a_b):
        """Rank-one residuals a_b s_b - k_b . v, one per boundary node."""
        return a_b * self.pen_sums - np.bincount(
            self.pen_rowid, weights=self.pen_coef * v[self.pen_indices],
            minlength=self.mesh.n_boundary)

    def interior_energy(self, u) -> float:
        """Ordered-pair double sum of kernel-weighted p-th power
        differences, summed per offset on the bounding grid, so a
        constant field gives exactly 0."""
        v, p = _field_values(self.mesh, u), self.p
        return float(sum(w2 * (d @ d if p == 2.0 else np.sum(np.abs(d) ** p))
                         for w2, d in zip(self._w2, self._differences(v))))

    def penalty_energy(self, u, a=None) -> float:
        """Boundary penalty at u; a defaults to the assembled datum."""
        v = _field_values(self.mesh, u)
        if a is None:
            a_b = self.a
        else:
            a_b = _field_values_boundary(self.mesh, a)
            _require_admitted_data(self.variant, a_b)
        if self.rank_one:
            return float(np.sum(self.pen_pref
                                * np.abs(self._inner(v, a_b)) ** self.p))
        idx, rowid = self.pen_indices, self.pen_rowid
        vals = self.pen_coef * np.abs(v[idx] - a_b[rowid]) ** self.p
        return float(np.sum(self.pen_pref[rowid] * vals))

    def energy(self, u) -> float:
        return self.interior_energy(u) + self.penalty_energy(u)

    def gradient(self, u):
        """Analytic gradient of the total energy, summed per offset
        (exactly 0 for a constant field); for p = 2 it equals
        2 A u - 2 l."""
        v, p = _field_values(self.mesh, u), self.p
        g = self._to_ends((p * w2 * _signed_power(d, p - 1.0) for w2, d
                           in zip(self._w2, self._differences(v))),
                          np.subtract)
        coef, rowid, idx = self.pen_coef, self.pen_rowid, self.pen_indices
        if self.rank_one:
            scale = self.pen_pref * p * _signed_power(self._inner(v, self.a),
                                                      p - 1.0)
            return g - np.bincount(idx, weights=coef * scale[rowid],
                                   minlength=len(v))
        dv = v[idx] - self.a[rowid]
        return g + np.bincount(idx, weights=self.pen_pref[rowid] * coef * p
                               * _signed_power(dv, p - 1.0), minlength=len(v))

    def hessian(self, u):
        """v -> H v, the Hessian at u with no matrix: per offset slice
        2 p (p - 1) w_k |Delta_k u|^(p-2), plus p (p - 1) pref_b times
        |inner_b|^(p-2) k_b k_b^T (rank-one) or k_b[j] |u_j - a_b|^(p-2)
        on the diagonal, each |.| floored as in _floored_power."""
        v = _field_values(self.mesh, u)
        c, e = self.p * (self.p - 1.0), self.p - 2.0
        slices = [c * w2 * _floored_power(d, e)
                  for w2, d in zip(self._w2, self._differences(v))]
        idx, rowid = self.pen_indices, self.pen_rowid
        if self.rank_one:
            scale = c * self.pen_pref * _floored_power(self._inner(v, self.a),
                                                       e)
        else:
            diag = np.bincount(idx, minlength=self.mesh.n_interior,
                               weights=c * self.pen_pref[rowid] * self.pen_coef
                               * _floored_power(v[idx] - self.a[rowid], e))

        def apply(w):
            out = self._to_ends((s * d for s, d
                                 in zip(slices, self._differences(w))),
                                np.subtract)
            if self.rank_one:
                return out + self._rank_one_apply(scale, w)
            return out + diag * w

        return apply

    # -- transforms ------------------------------------------------------

    def scaled(self, factor: float):
        """A new operator whose energy is factor times this one."""
        if not factor > 0:
            raise AssemblyError("scale factor must be positive", factor=factor)
        return self._derived(offset_w=self.offset_w * factor,
                             pen_pref=self.pen_pref * factor,
                             _w2=self._w2 * factor)

    def twin(self, p=None, a=None):
        """This operator's tables with exponent p and datum values a. The
        weights keep their delta^-p, so a p = 2 twin is delta^(2-p) times
        assemble()'s p = 2 operator, with the same minimizer."""
        return self._derived(p=self.p if p is None else float(p),
                             a=self.a if a is None else a)

    def _derived(self, **fields):
        """A copy with fields replaced, caches dropped, p = 2 form rebuilt."""
        out = object.__new__(EnergyOperator)
        out.__dict__.update(self.__dict__)
        for name in self._CACHES:
            out.__dict__.pop(name, None)
        out.__dict__.update(fields)
        out._p2 = None
        if out.p == 2.0:
            out._build_quadratic()
        return out


def _signed_power(d, e):
    """sign(d) |d|^e, which is d at e = 1 and finite at d = 0."""
    return d if e == 1.0 else np.sign(d) * np.abs(d) ** e


def _floored_power(d, e):
    """|d|^e with |d| floored at 1e-10 of its largest value (at 1 when
    every value is 0), so it is finite for e < 0."""
    d = np.abs(d)
    top = d.max(initial=0.0)
    return np.maximum(d, 1e-10 * top if top > 0.0 else 1.0) ** e


def _field_values_boundary(mesh, a):
    if isinstance(a, BoundaryData):
        if a.mesh is not mesh:
            raise AssemblyError("boundary data bound to a different mesh")
        return a.values
    v = np.asarray(a, dtype=float)
    if v.shape != (mesh.n_boundary,):
        raise AssemblyError("boundary data length does not match the mesh",
                            expected=mesh.n_boundary, got=list(v.shape))
    return v


def assemble(mesh: DomainMesh, R: KernelSpec, spec: PenaltySpec,
             delta: float, p: float = 2.0, a=None) -> EnergyOperator:
    """Assemble the discrete energy on a mesh.

    Requires delta >= 2 h so the kernel is resolved by the quadrature,
    validated kernels, zero data for the zero-datum variants, p = 2
    for the variants without a general-p statement, and a lattice mesh
    (MeshError otherwise; see geometry.lattice_stencil). One
    lattice_stencil serves the interior pairs and the penalty tables
    when their kernels share a support: the kernel R is evaluated once
    per half-offset. No exponent lists pairs: the energy, gradient,
    Hessian and boundary layer read the stencil's per-offset pair sites,
    and the p = 2 interior form is a convolution of the per-offset
    weights.
    """
    if not delta > 0:
        raise AssemblyError("horizon must be positive", delta=delta)
    if delta < 2.0 * mesh.h * (1.0 - 1e-12):
        raise AssemblyError("horizon must be at least two cells wide",
                            delta=delta, h=mesh.h)
    if not p > 1:
        raise AssemblyError("exponent must exceed 1", p=p)
    if p != 2.0 and spec.variant in QUADRATIC_ONLY_VARIANTS:
        raise AssemblyError(
            f"variant '{spec.variant}' is defined for p = 2 only",
            variant=spec.variant, p=p)
    _require_valid(R)
    if spec.kernel is not R:
        _require_valid(spec.kernel)
    a_vals = boundary_data(mesh, a).values
    _require_admitted_data(spec.variant, a_vals)

    # interior pairs, one weight per half-offset (the weights are equal)
    stencil = lattice_stencil(mesh, R.support * delta)
    q = mesh.interior_weights
    offset_w = (q[0] * q[0] * eval_scaled(ScaledKernel(R, delta, mesh.dim),
                                          stencil.lengths) / delta**p)

    # penalty tables
    if spec.variant in ("wang", "shi"):
        base = antiderivative_kernel(spec.kernel)
    else:
        base = spec.kernel
    indptr, indices, rowid, coef = _boundary_tables(mesh, base, delta,
                                                   stencil)
    w_b = mesh.boundary_weights
    if spec.variant == "wang":
        _, _, wrow, wcoef = _boundary_tables(
            mesh, antiderivative_kernel(base), delta, stencil)
        wbb = np.bincount(wrow, weights=wcoef, minlength=mesh.n_boundary)
        if np.any(wbb <= 0.0):
            bad = int(np.nonzero(wbb <= 0.0)[0][0])
            raise AssemblyError(
                "wang weight vanishes at a boundary node",
                node=bad, position=mesh.boundary_points[bad].tolist())
        pref = 2.0 * w_b / (delta**2 * wbb)
    elif spec.variant == "shi":
        # boundary nodes have zero boundary distance: max(delta^2, d) = delta^2
        mu = min(2.0 * delta, delta**2)
        pref = 4.0 * w_b / mu
        if spec.shi_delta_sq_prefactor:
            pref = pref / delta**2
    else:  # product, pointwise, dirac_diagonal (p = 2)
        pref = w_b / delta**p

    return EnergyOperator(mesh, delta, p, spec, a_vals, stencil, offset_w,
                          indptr, indices, rowid, coef, pref)


def mollify(mesh: DomainMesh, khat: KernelSpec, delta: float, u):
    """Kernel-smoothed field: at each node x,
    sum_j q_j Khat_delta(|x - x_j|) u_j / omega(x) with omega the same
    sum over 1. Returns values at the interior nodes and at the
    boundary nodes. A vanishing omega (support narrower than the mesh)
    raises MollifierError naming the node."""
    v = _field_values(mesh, u)
    stencil = lattice_stencil(mesh, khat.support * delta)
    scaled = ScaledKernel(khat, delta, mesh.dim)
    q = mesh.interior_weights
    k0 = float(eval_scaled(scaled, np.asarray(0.0)))
    smooth = _stencil_matrix(
        stencil, q[0] * eval_scaled(scaled, stencil.lengths), q * k0)
    omega = smooth @ np.ones(mesh.n_interior)
    numer = smooth @ v
    if np.any(omega <= _TINY):
        bad = int(np.nonzero(omega <= _TINY)[0][0])
        raise MollifierError(
            "mollifier weight vanishes at an interior node",
            node=bad, position=mesh.interior_points[bad].tolist(),
            radius=khat.support * delta)
    trace = trace_matrix(mesh, khat, delta, stencil)
    return Field(mesh, numer / omega), BoundaryData(mesh, trace @ v)


def trace_matrix(mesh: DomainMesh, khat: KernelSpec, delta: float,
                 stencil=None):
    """Boundary half of the mollifier as a row-normalized sparse
    (M x N) matrix T with T[b, j] = q_j Khat_delta(|x_b - x_j|) / omega_b.
    T @ u is the smoothed boundary trace of u, and T @ U for an
    N x k block gives k traces in one product. stencil, a
    lattice_stencil of this mesh such as an operator's, is reused when
    its radius is Khat's support. A vanishing omega_b raises
    MollifierError naming the node."""
    indptr, indices, rowid, coef = _boundary_tables(mesh, khat, delta,
                                                   stencil)
    omega = np.bincount(rowid, weights=coef, minlength=mesh.n_boundary)
    if np.any(omega <= _TINY):
        bad = int(np.nonzero(omega <= _TINY)[0][0])
        raise MollifierError(
            "mollifier weight vanishes at a boundary node",
            node=bad, position=mesh.boundary_points[bad].tolist(),
            radius=khat.support * delta)
    return sp.csr_matrix((coef / omega[rowid], indices, indptr),
                         shape=(mesh.n_boundary, mesh.n_interior))


def w_mass_matrix(mesh: DomainMesh, W: KernelSpec, delta: float):
    """Sparse symmetric mass form B[i,j] = q_i q_j W_delta(|x_i-x_j|),
    diagonal included, built per lattice offset; exact zeros are not
    stored."""
    stencil = lattice_stencil(mesh, W.support * delta)
    scaled = ScaledKernel(W, delta, mesh.dim)
    q = mesh.interior_weights
    k0 = float(eval_scaled(scaled, np.asarray(0.0)))
    return _stencil_matrix(
        stencil, q[0] * q[0] * eval_scaled(scaled, stencil.lengths),
        q * q * k0)
