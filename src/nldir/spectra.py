"""Nonlocal eigenpairs by constrained Rayleigh-quotient minimization.

Mode m minimizes u^T A u over the mass-unit sphere, mass-orthogonal to
the previously computed modes; deflation always uses those nonlocal
modes themselves. Two mass models: "L2" (diagonal quadrature weights)
and "nonlocalW" (double-sum kernel form); orthogonality for the
normalized path is taken in the same kernel inner product as its unit
constraint.

The iteration is a single-vector locally optimal block scheme: the
next iterate is the Rayleigh-Ritz minimizer over span{x, P^-1 residual,
previous increment}, re-orthogonalized against earlier modes every
iteration. P is the stiffness operator's grid-stencil DST
preconditioner (EnergyOperator.preconditioner), built once for all
modes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import EnergyOperator, Field, w_mass_matrix
from .errors import MassFormError, SolverError
from .kernels import KernelSpec
from .minimize import SolveOptions

MASS_MODELS = ("L2", "nonlocalW")

_DROP = 1e-14


class EigenProblem:
    """Stiffness (a p = 2 operator with zero affine part) plus a mass
    model and a mode count. Verifies at construction that the mass form
    is positive definite to tolerance (smallest Ritz value > 1e-8)."""

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
        if mass == "L2":
            self._b_diag = mesh.interior_weights
            self._b_mat = None
            min_ritz = float(np.min(self._b_diag))
        else:
            if W is None:
                raise SolverError("nonlocalW mass requires a kernel W")
            self._b_diag = None
            self._b_mat = w_mass_matrix(mesh, W, stiffness.delta)
            min_ritz = self._smallest_mass_ritz()
        if not min_ritz > 1e-8:
            raise MassFormError(
                "mass form is not positive definite to tolerance",
                mass=mass, smallest_ritz=min_ritz,
                kernel=None if W is None else W.label)

    def apply_mass(self, v):
        if self._b_diag is not None:
            return self._b_diag * v
        return self._b_mat @ v

    def apply_stiffness(self, v):
        return self.stiffness.apply_quadratic(v)

    def _smallest_mass_ritz(self):
        """Smallest eigenvalue estimate of the mass form via the same
        locally optimal iteration with identity metric."""
        n = self.stiffness.mesh.n_interior
        diag = self._b_mat.diagonal()
        diag = np.where(np.abs(diag) > _DROP, np.abs(diag), 1.0)
        lam, _, _, _, _ = _lobpcg_mode(
            apply_a=lambda v: self._b_mat @ v,
            apply_b=lambda v: v,
            precond=lambda r: r / diag, n=n, prior=[], prior_b=[],
            tol=1e-6, max_iter=500, seed=1)
        return float(lam)


@dataclass(frozen=True)
class EigenResult:
    eigenvalues: np.ndarray
    eigenfields: tuple
    residuals: np.ndarray
    converged: tuple
    iterations: tuple
    mass_model: str
    delta: float
    h: float


def _b_orthonormalize(vectors, apply_b):
    """Modified Gram-Schmidt in the B inner product. Each candidate is
    scaled to unit length first so only true cancellation against the
    kept directions (not small magnitude) causes a drop."""
    kept, kept_b = [], []
    for v in vectors:
        lead = float(np.linalg.norm(v))
        if lead <= 0.0 or not np.isfinite(lead):
            continue
        w = v / lead
        bw = apply_b(w)
        pre = float(w @ bw)
        if pre <= 0.0:
            continue
        for u, bu in zip(kept, kept_b):
            w = w - (bu @ w) * u
        bw = apply_b(w)
        nrm2 = float(w @ bw)
        if nrm2 <= 1e-24 * pre or nrm2 <= 0.0:
            continue
        nrm = np.sqrt(nrm2)
        kept.append(w / nrm)
        kept_b.append(bw / nrm)
    return kept, kept_b


def _deflate(v, prior, prior_b):
    for u, bu in zip(prior, prior_b):
        v = v - (bu @ v) * u
    return v


def _lobpcg_mode(apply_a, apply_b, precond, n, prior, prior_b,
                 tol, max_iter, seed):
    """One eigenpair below the deflated subspace; precond maps a
    residual r to P^-1 r. Returns (lam, x, residual_norm, converged,
    iterations)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x = _deflate(x, prior, prior_b)
    bx = apply_b(x)
    nrm = float(x @ bx)
    if nrm <= 0.0:
        raise SolverError("start vector collapsed under deflation",
                          deflated=len(prior))
    x /= np.sqrt(nrm)
    bx = apply_b(x)
    p = None
    lam = float(x @ apply_a(x))
    res = np.inf
    for it in range(1, max_iter + 1):
        ax = apply_a(x)
        lam = float(x @ ax)
        r = ax - lam * bx
        res = float(np.linalg.norm(r))
        if res <= tol * max(abs(lam), 1.0):
            return lam, x, res, True, it
        w = _deflate(precond(r), prior, prior_b)
        basis = [x, w] if p is None else [x, w, p]
        vecs, _ = _b_orthonormalize(basis, apply_b)
        if len(vecs) < 2:
            return lam, x, res, False, it
        avecs = [apply_a(v) for v in vecs]
        m = len(vecs)
        small = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                small[i, j] = small[j, i] = vecs[i] @ avecs[j]
        evals, evecs = scipy.linalg.eigh(small)
        y = evecs[:, 0]
        x_new = sum(c * v for c, v in zip(y, vecs))
        # increment excludes the current-x component; spans the history
        p = sum(c * v for c, v in zip(y[1:], vecs[1:]))
        x = _deflate(x_new, prior, prior_b)
        bx = apply_b(x)
        nrm = float(x @ bx)
        if nrm <= 0.0:
            raise SolverError("iterate collapsed under deflation",
                              deflated=len(prior))
        x /= np.sqrt(nrm)
        bx = apply_b(x)
    return lam, x, res, False, max_iter


_EIGEN_DEFAULTS = SolveOptions(tol=1e-9, max_iter=2000)


def solve_eigen(prob: EigenProblem, opts: SolveOptions = _EIGEN_DEFAULTS
                ) -> EigenResult:
    """First k eigenpairs, ascending, mass-orthonormal. Residual target
    per mode is tol * max(|lambda|, 1); a mode that exhausts its budget
    is returned flagged non-converged."""
    op = prob.stiffness
    n = op.mesh.n_interior
    precond = op.preconditioner()
    prior, prior_b = [], []
    lams, fields, resids, okays, iters = [], [], [], [], []
    for mode in range(prob.k):
        lam, x, res, ok, it = _lobpcg_mode(
            prob.apply_stiffness, prob.apply_mass, precond, n,
            prior, prior_b, opts.tol, opts.max_iter,
            seed=opts.seed + 7919 * mode)
        # deterministic sign: entry of largest magnitude positive
        pivot = int(np.argmax(np.abs(x)))
        if x[pivot] < 0:
            x = -x
        prior.append(x)
        prior_b.append(prob.apply_mass(x))
        lams.append(lam)
        fields.append(Field(op.mesh, x))
        resids.append(res)
        okays.append(ok)
        iters.append(it)
    order = np.argsort(lams, kind="stable")
    return EigenResult(
        eigenvalues=np.asarray(lams)[order],
        eigenfields=tuple(fields[i] for i in order),
        residuals=np.asarray(resids)[order],
        converged=tuple(okays[i] for i in order),
        iterations=tuple(iters[i] for i in order),
        mass_model=prob.mass, delta=op.delta, h=op.mesh.h)


def dense_eigen(prob: EigenProblem, k: int = None):
    """Full symmetric generalized eigendecomposition on a densified
    operator; intended as an independent oracle at small node counts.
    Returns (eigenvalues, eigenvectors) columns ascending."""
    n = prob.stiffness.mesh.n_interior
    eye = np.eye(n)
    a = np.column_stack([prob.apply_stiffness(eye[:, i]) for i in range(n)])
    if prob._b_diag is not None:
        b = np.diag(prob._b_diag)
    else:
        b = prob._b_mat.toarray()
    evals, evecs = scipy.linalg.eigh(a, b)
    kk = prob.k if k is None else k
    return evals[:kk], evecs[:, :kk]


@dataclass(frozen=True)
class MassComparison:
    l2: EigenResult
    w: EigenResult
    gaps: np.ndarray


def compare_mass_models(stiffness: EnergyOperator, W: KernelSpec, k: int,
                        opts: SolveOptions = _EIGEN_DEFAULTS
                        ) -> MassComparison:
    """Solve the same stiffness under both mass models and report the
    per-mode relative eigenvalue gap |l_L2 - l_W| / l_L2."""
    res_l2 = solve_eigen(EigenProblem(stiffness, "L2", k), opts)
    res_w = solve_eigen(EigenProblem(stiffness, "nonlocalW", k, W=W), opts)
    denom = np.where(np.abs(res_l2.eigenvalues) > _DROP,
                     np.abs(res_l2.eigenvalues), 1.0)
    gaps = np.abs(res_l2.eigenvalues - res_w.eigenvalues) / denom
    return MassComparison(res_l2, res_w, gaps)
