"""Nonlocal eigenpairs by one preconditioned block eigensolve.

The k smallest eigenpairs of A x = lambda B x come from a single call
to scipy's block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001),
started from a seeded Gaussian n x k block, so the modes are found
together and come back mass-orthonormal without deflation. Two mass
models: "L2" (diagonal quadrature weights) and "nonlocalW" (double-sum
kernel form); orthogonality for the normalized path is taken in the
same kernel inner product as its unit constraint. A lower bound on the
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
import scipy.sparse as sp

from .assembly import EnergyOperator, _w_stencil, w_mass_floor, w_mass_matrix
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
    on one W stencil (the stiffness's when the radii agree)."""

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
        # one array per mode that solve_eigen starts from instead of the
        # seeded block; only compare_mass_models sets it
        self._start = None
        mesh = stiffness.mesh
        delta = stiffness.delta
        if mass == "L2":
            self._b_mat = sp.diags(mesh.interior_weights, format="csr")
            floor = float(np.min(mesh.interior_weights))
            scale = float(np.max(mesh.interior_weights))
        else:
            if W is None:
                raise SolverError("nonlocalW mass requires a kernel W")
            stencil, c, c0 = _w_stencil(mesh, W, delta, stiffness.stencil)
            self._b_mat = w_mass_matrix(mesh, W, delta, stencil)
            floor = w_mass_floor(mesh, W, delta, stencil)
            scale = c0 + 2.0 * float(np.sum(np.abs(c)))
        if not floor > 1e-8 * scale:
            raise MassFormError(
                "mass form is not positive definite to tolerance",
                mass=mass, min_symbol=floor, scale=scale,
                kernel=None if W is None else W.label)

    def apply_mass(self, v):
        """B @ v for a vector or an n x k block."""
        return self._b_mat @ v


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
                seed: int = 0) -> EigenResult:
    """First k eigenpairs, ascending, mass-orthonormal, from one block
    LOBPCG solve whose start block is seeded by seed (for the nonlocalW
    solve of compare_mass_models: the L2 modes). Residual target per
    mode is tol * max(|lambda|, 1); a mode that misses it when the budget
    of opts.max_iter block iterations runs out is returned flagged
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

    if prob._start is None:
        x0 = np.random.default_rng(seed).standard_normal(
            (op.mesh.n_interior, prob.k))
    else:  # a fresh block per solve: lobpcg may write into its start
        x0 = np.column_stack(prob._start)
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
    Returns the first prob.k (eigenvalues, eigenvectors) columns,
    ascending."""
    op = prob.stiffness
    a = _columns(op.apply_quadratic)(np.eye(op.mesh.n_interior))
    evals, evecs = scipy.linalg.eigh(a, prob._b_mat.toarray())
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
    prob_w = EigenProblem(stiffness, "nonlocalW", k, W=W)
    prob_w._start = res_l2.eigenfields
    res_w = solve_eigen(prob_w, opts, seed)
    denom = np.where(np.abs(res_l2.eigenvalues) > _DROP,
                     np.abs(res_l2.eigenvalues), 1.0)
    gaps = np.abs(res_l2.eigenvalues - res_w.eigenvalues) / denom
    return MassComparison(res_l2, res_w, gaps)
