"""Minimizers of assembled energies.

Two strictly deterministic solvers: conjugate gradients for the p = 2
quadratic form, deflated by the boundary layer (EnergyOperator.
deflated_cg: started from the exact layer solve, each step one
grid-stencil DST solve and one layer solve, and no matvec), so the
iteration count does not grow as delta falls; and damped inexact
Newton-CG for general p > 1 (Nocedal & Wright, Numerical Optimization,
ch. 7) from the minimizer of the operator's p = 2 twin, its Hessian
applied per offset slice with no matrix. Both declare convergence on
gradient_norm <= tol * (1 + |energy|); energy stall is never the
stopping test, and every result names its stop_reason.
"""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import EnergyOperator
from .errors import ConfigError, SolverError

_TINY = 1e-300
_ARMIJO = 1e-4  # a step must achieve this fraction of the predicted decrease
_SHRINK = 0.5   # step factor per rejected trial
_MIN_STEP = 1e-12  # the shortest trial step before the line search stalls
_START_TOL = 1e-8  # the tightest tolerance the p = 2 start is solved to


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        if not (isinstance(self.tol, numbers.Real) and 0.0 < self.tol < 1.0):
            raise ConfigError("tol must lie in (0, 1)", field="tol",
                              tol=self.tol)
        if isinstance(self.max_iter, bool) \
                or not isinstance(self.max_iter, numbers.Integral) \
                or self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1", field="max_iter",
                              max_iter=self.max_iter)

    @classmethod
    def from_dict(cls, data: dict):
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown solver option",
                              field=sorted(unknown)[0],
                              supported=sorted(known))
        return cls(**data)


@dataclass(frozen=True)
class SolveResult:
    """The final iterate (an array), its energy and gradient norm there
    (see _finish), the steps taken, the gradient test and the stop."""

    minimizer: np.ndarray
    energy: float
    gradient_norm: float
    iterations: int
    converged: bool
    stop_reason: str  # "gradient", "max_iter" or "line_search_stall"


def _finish(op, x, energy, gradient, iterations, opts, stop_reason):
    """The result at the final iterate x from op.energy(x) and
    op.gradient(x), so the converged flag is exact, not inherited from
    solver recurrences. Both are per-offset slice sums over the
    stencil, computed apart from the DST symbol and the layer columns
    that the solver iterated on: a wrong symbol or layer block moves
    the iterate but cannot pass its own gradient test."""
    gradient_norm = float(np.linalg.norm(gradient))
    converged = gradient_norm <= opts.tol * (1.0 + abs(energy))
    return SolveResult(x.copy(), energy, gradient_norm, iterations,
                       converged, stop_reason)


def _cg_iterates(x, r, step):
    """Conjugate gradients from x with residual r = l - A x, where
    step(r) returns the preconditioned residual z and A z as new arrays
    (never r itself): yields (x, r) after each update. x, r, the
    direction d and A d are updated in place, and each step's z and A z
    are dropped before the next step runs. A d follows by the recurrence
    A d = A z + beta A d, so no matvec runs. A direction with
    nonpositive curvature raises SolverError naming the probe vector."""
    d, ad = step(r)
    rz = float(r @ d)
    for iteration in itertools.count(1):
        dad = float(d @ ad)
        if dad <= 0.0:
            raise SolverError("nonpositive curvature direction encountered",
                              iteration=iteration, curvature=dad, probe=d)
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        yield x, r
        z, az = step(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        d *= beta
        d += z
        ad *= beta
        ad += az
        del z, az
        rz = rz_new


def solve_quadratic(op: EnergyOperator, opts: SolveOptions = SolveOptions()
                    ) -> SolveResult:
    """Deflated conjugate gradients on A u = l.

    op.deflated_cg() gives the start x0, its residual r0 = l - A x0 and
    the step r -> (z, A z) that _cg_iterates runs. Stops when the
    residual is small both relative to l and relative to the energy
    scale, tested at x0 too (0 iterations), with stop_reason
    "gradient": a zero l stops at x0 = 0 once the layer factor has
    certified A_LL positive definite. Exhausting the budget returns the
    last iterate with stop_reason "max_iter", flagged non-converged.
    The CG steps run on the DST symbol and the layer columns only; the
    energy and gradient that certify the result (see _finish) cost one
    fused pass of per-offset slice sums more (op._energy_and_gradient),
    paid on purpose so a wrong _symbol or _layer_columns cannot certify
    its own answer.
    """
    if op.p != 2.0:
        raise SolverError("quadratic solve requires an operator with p = 2",
                          p=op.p)
    ell = op.linear_term
    c0 = op.constant_term
    ell_norm = float(np.linalg.norm(ell))

    def small(x, r):
        # F(x) via r = l - A x: x^T A x = x.(l - r)
        f_val = -float(ell @ x) - float(x @ r) + c0
        r_norm = float(np.linalg.norm(r))
        return (r_norm <= opts.tol * max(ell_norm, _TINY)
                and 2.0 * r_norm <= opts.tol * (1.0 + abs(f_val)))

    x, r, step = op.deflated_cg()
    iterations, done = 0, small(x, r)
    if not done:
        for iterations, (x, r) in enumerate(_cg_iterates(x, r, step), 1):
            done = small(x, r)
            if done or iterations == opts.max_iter:
                break
    del r, step  # the certification reads x alone
    return _finish(op, x, *op._energy_and_gradient(x), iterations, opts,
                   "gradient" if done else "max_iter")


def solve_p_energy(op: EnergyOperator, opts: SolveOptions = SolveOptions()
                   ) -> SolveResult:
    """Damped inexact Newton-CG for any p > 1, from the minimizer of
    op.twin(p=2.0). Each step runs CG on H s = -g with
    M = op.preconditioner() and H = op.hessian(x) until |r| <= eta |g|,
    eta = min(0.5, |g|^(1/2)), then an Armijo backtracking that accepts a
    step if it lowers the energy or, where it leaves the energy
    unchanged to rounding, the gradient norm; only then is the trial
    gradient evaluated, and it is carried forward. Stops on the gradient
    test ("gradient"), after max_iter steps ("max_iter"), or when no
    step down to 1e-12 lowers either ("line_search_stall"), which a
    p < 2 row may reach where |.|^(p-2) is unbounded."""
    x = solve_quadratic(op.twin(p=2.0), SolveOptions(
        tol=max(opts.tol, _START_TOL))).minimizer
    precond = op.preconditioner()
    energy, g = op.energy(x), op.gradient(x)
    for iterations in itertools.count():
        g_norm = float(np.linalg.norm(g))
        small = g_norm <= opts.tol * (1.0 + abs(energy))
        if small or iterations == opts.max_iter:
            reason = "gradient" if small else "max_iter"
            break
        hessian = op.hessian(x)

        def step(r):
            z = precond(r)
            return z, hessian(z)

        target = min(0.5, np.sqrt(g_norm)) * g_norm
        for inner, (s, r) in enumerate(_cg_iterates(np.zeros_like(x), -g,
                                                    step), 1):
            if np.linalg.norm(r) <= target or inner == len(g):
                break
        slope, t = float(g @ s), 1.0
        while slope < 0.0 and t >= _MIN_STEP:
            trial = x + t * s
            e_trial, g_trial = op.energy(trial), None
            if e_trial <= energy + _ARMIJO * t * slope:
                if e_trial < energy:
                    break
                # the energy change is at rounding level: a step that
                # leaves the energy unchanged still counts if it lowers
                # the gradient norm (Hager & Zhang, SIAM J. Optim. 16,
                # 2005, switch to a derivative test there too)
                g_trial = op.gradient(trial)
                if np.linalg.norm(g_trial) < g_norm:
                    break
            t *= _SHRINK
        else:
            reason = "line_search_stall"
            break
        x, energy = trial, e_trial
        g = op.gradient(x) if g_trial is None else g_trial
    return _finish(op, x, energy, g, iterations, opts, reason)
