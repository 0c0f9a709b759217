"""Nonlocal eigenpairs by one preconditioned block eigensolve.

The k smallest eigenpairs of A x = lambda B x come from a single call
to scipy's block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
started from a seeded Gaussian n x k block, so the modes are found
together and come back mass-orthonormal without deflation. Two mass
models: "L2" (diagonal quadrature weights) and "nonlocalW" (double-sum
kernel form); orthogonality for the normalized path is taken in the
same kernel inner product as its unit constraint. No mass matrix is
stored: the L2 mass is the weights times v, and the W mass B, one
translation-invariant lattice stencil, is applied as one FFT
convolution on the bounding grid (assembly._w_mass_map); the dense
oracle reads the sparse w_mass_matrix instead. A lower bound on the
mass form's smallest eigenvalue certifies it before any solve.
compare_mass_models solves nonlocalW as a continuation of L2: the W
mass is a kernel smoothing of the L2 weights, so the L2 modes are a
start block already close to the W modes, and LOBPCG, whose rate is
set by the angle between its start block and the target subspace,
needs far fewer blocks from them than from the seeded block.

A and the preconditioner are applied column by column. The
preconditioner is the stiffness operator's two-level map
(EnergyOperator.preconditioner: the boundary layer solved exactly by
its banded Cholesky factor, the rest by the grid-stencil DST), built
once per solve; a stiffness whose layer block is not positive definite
is refused there with SolverError. scipy stops a
column on the absolute test |r| <= tol; after the solve each mode's
residual |A x - lambda B x| is recomputed, and the mode is flagged
converged when that is at most tol * max(|lambda|, 1).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import (EnergyOperator, _w_mass_map, _w_stencil, w_mass_floor,
                       w_mass_matrix)
from .errors import MassFormError, SolverError
from .kernels import KernelSpec
from .minimize import SolveOptions

MASS_MODELS = ("L2", "nonlocalW")

_DROP = 1e-14


class EigenProblem:
    """Stiffness (a p = 2 operator with zero affine part) plus a mass
    model and a mode count. Refuses with MassFormError (payload
    min_symbol, scale) a mass form whose lower bound on its smallest
    eigenvalue is not > 1e-8 times a Gershgorin bound on its largest,
    which caps its condition number at 1e8: for L2 the least and the
    largest weight, for nonlocalW w_mass_floor and c_0 + sum_k 2 |c_k|
    on one W stencil (the stiffness's when the radii agree). It holds
    the mass as a map, not a matrix: the weights for L2, and for
    nonlocalW the spectrum of the W kernel box on the zero-padded
    bounding grid, about the size of one grid of float64."""

    def __init__(self, stiffness: EnergyOperator, mass: str = "L2",
                 k: int = 1, W: KernelSpec = None):
        if stiffness.p != 2.0:
            raise SolverError("eigenproblem requires a p = 2 stiffness",
                              p=stiffness.p)
        if (np.any(stiffness.linear_term != 0.0)
                or stiffness.constant_term != 0.0):
            raise SolverError(
                "eigenproblem requires zero boundary data "
                "(affine part of the form must vanish)")
        if mass not in MASS_MODELS:
            raise SolverError("unknown mass model", mass=mass,
                              supported=list(MASS_MODELS))
        if k < 1:
            raise SolverError("need at least one mode", k=k)
        if k > stiffness.mesh.n_interior:
            raise SolverError("more modes than interior nodes",
                              k=k, n=stiffness.mesh.n_interior)
        self.stiffness = stiffness
        self.mass = mass
        self.k = int(k)
        self.W = W
        mesh = stiffness.mesh
        delta = stiffness.delta
        if mass == "L2":
            weights = mesh.interior_weights
            self._mass = lambda v: (weights if v.ndim == 1
                                    else weights[:, None]) * v
            floor, scale = float(np.min(weights)), float(np.max(weights))
        else:
            if W is None:
                raise SolverError("nonlocalW mass requires a kernel W")
            stencil, c, c0 = _w_stencil(mesh, W, delta, stiffness.stencil)
            self._mass = _w_mass_map(stencil, c, c0)
            floor = w_mass_floor(mesh, W, delta, stencil)
            scale = c0 + 2.0 * float(np.sum(np.abs(c)))
        if not floor > 1e-8 * scale:
            raise MassFormError(
                "mass form is not positive definite to tolerance",
                mass=mass, min_symbol=floor, scale=scale,
                kernel=None if W is None else W.label)

    def apply_mass(self, v):
        """B @ v for a vector or an n x k block: the weights times v for
        L2, one rfftn/irfftn convolution over all k columns for
        nonlocalW (w_mass_matrix @ v to rounding)."""
        return self._mass(v)


@dataclass(frozen=True)
class EigenResult:
    """eigenfields holds one array of interior-node values per mode;
    iterations repeats, once per mode, the number of block iterations of
    the one solve that produced all k modes (at most max_iter; 0 when
    n < 5 k, where scipy solves the problem densely instead). For the
    nonlocalW result of compare_mass_models it counts only the blocks of
    the solve started from the L2 modes, not those of the L2 solve."""

    eigenvalues: np.ndarray
    eigenfields: tuple
    residuals: np.ndarray
    converged: tuple
    iterations: tuple
    mass_model: str
    delta: float
    h: float


def _columns(apply):
    """Block version of a vector map, applied column by column."""
    return lambda block: np.column_stack([apply(v) for v in block.T])


_EIGEN_DEFAULTS = SolveOptions(tol=1e-9, max_iter=2000)


def solve_eigen(prob: EigenProblem, opts: SolveOptions = _EIGEN_DEFAULTS,
                seed: int = 0, start=None) -> EigenResult:
    """First k eigenpairs, ascending, mass-orthonormal, from one block
    LOBPCG solve started from start, one array of node values per mode
    (compare_mass_models passes the L2 eigenfields), or when start is
    None from the block seeded by seed. Residual target per mode is
    tol * max(|lambda|, 1); a mode that misses it when the budget of
    opts.max_iter block iterations runs out is returned flagged
    non-converged."""
    from scipy.sparse.linalg import lobpcg
    op = prob.stiffness
    apply_a = _columns(op.apply_quadratic)
    apply_m = _columns(op.preconditioner())
    blocks = 0

    def counted_m(block):
        nonlocal blocks
        blocks += 1
        return apply_m(block)

    if start is None:
        x0 = np.random.default_rng(seed).standard_normal(
            (op.mesh.n_interior, prob.k))
    else:  # a fresh block per solve: lobpcg may write into its start
        x0 = np.column_stack(start)
    lams, xs = lobpcg(apply_a, x0, B=prob.apply_mass, M=counted_m,
                      largest=False, tol=opts.tol, maxiter=opts.max_iter)
    order = np.argsort(lams, kind="stable")
    lams, xs = lams[order], xs[:, order]
    resids = np.linalg.norm(apply_a(xs) - prob.apply_mass(xs) * lams, axis=0)
    # deterministic sign: entry of largest magnitude positive
    fields = tuple(-x if x[np.argmax(np.abs(x))] < 0 else x
                   for x in np.ascontiguousarray(xs.T))
    return EigenResult(
        eigenvalues=lams, eigenfields=fields, residuals=resids,
        converged=tuple(bool(r <= opts.tol * max(abs(lam), 1.0))
                        for lam, r in zip(lams, resids)),
        iterations=(min(blocks, opts.max_iter),) * prob.k,
        mass_model=prob.mass, delta=op.delta, h=op.mesh.h)


def dense_eigen(prob: EigenProblem):
    """Full symmetric generalized eigendecomposition on a densified
    operator; intended as an independent oracle at small node counts.
    The mass is densified apart from apply_mass: the L2 weights as a
    diagonal, or w_mass_matrix, the sparse stencil rows, for nonlocalW.
    Returns the first prob.k (eigenvalues, eigenvectors) columns,
    ascending."""
    op = prob.stiffness
    mesh = op.mesh
    a = _columns(op.apply_quadratic)(np.eye(mesh.n_interior))
    if prob.mass == "L2":
        b = np.diag(mesh.interior_weights)
    else:
        b = w_mass_matrix(mesh, prob.W, op.delta, op.stencil).toarray()
    evals, evecs = scipy.linalg.eigh(a, b)
    return evals[:prob.k], evecs[:, :prob.k]


@dataclass(frozen=True)
class MassComparison:
    l2: EigenResult
    w: EigenResult
    gaps: np.ndarray


def compare_mass_models(stiffness: EnergyOperator, W: KernelSpec, k: int,
                        opts: SolveOptions = _EIGEN_DEFAULTS, seed: int = 0
                        ) -> MassComparison:
    """Solve the same stiffness under both mass models and report the
    per-mode relative eigenvalue gap |l_L2 - l_W| / l_L2. L2 starts from
    the block seeded by seed, nonlocalW from the L2 eigenfields, so the
    seed picks only the L2 start; each solve certifies its own residuals
    against opts.tol."""
    res_l2 = solve_eigen(EigenProblem(stiffness, "L2", k), opts, seed)
    res_w = solve_eigen(EigenProblem(stiffness, "nonlocalW", k, W=W), opts,
                        start=res_l2.eigenfields)
    denom = np.where(np.abs(res_l2.eigenvalues) > _DROP,
                     np.abs(res_l2.eigenvalues), 1.0)
    gaps = np.abs(res_l2.eigenvalues - res_w.eigenvalues) / denom
    return MassComparison(res_l2, res_w, gaps)
