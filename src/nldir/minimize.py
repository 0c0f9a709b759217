"""Minimizers of assembled energies.

Two strictly deterministic solvers: conjugate gradients for the p = 2
quadratic form, deflated by the boundary layer (EnergyOperator.
deflated_cg: started from the exact layer solve, each step one
grid-stencil DST solve and one layer solve, and no matvec), so the
iteration count does not grow as delta falls; and preconditioned
nonlinear conjugate gradients (Polak-Ribiere with restart) plus an
Armijo line search for general p > 1, from a zero start by default,
preconditioned with EnergyOperator.preconditioner. Both declare
convergence on gradient_norm <= tol * (1 + |energy|); energy stall is
never the stopping test.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .assembly import EnergyOperator, Field, lp_norm
from .errors import ConfigError, SolverError

_TINY = 1e-300
_ARMIJO = 1e-4  # a step must achieve this fraction of the predicted decrease
_SHRINK = 0.5   # step factor per rejected trial


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 20000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)", field="tol",
                              tol=self.tol)
        if self.max_iter < 1:
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
    minimizer: Field
    energy: float
    gradient_norm: float
    iterations: int
    converged: bool
    max_iterate_norm: float


def _finish(op, x, iterations, opts, max_norm):
    """Recompute energy and gradient at the final iterate so the
    converged flag is exact, not inherited from solver recurrences."""
    energy = op.energy(x)
    gradient_norm = float(np.linalg.norm(op.gradient(x)))
    converged = gradient_norm <= opts.tol * (1.0 + abs(energy))
    max_norm = max(max_norm, lp_norm(op.mesh, x, op.p))
    return SolveResult(Field(op.mesh, x.copy()), energy, gradient_norm,
                       iterations, converged, max_norm)


def _cg_iterates(x, r, step):
    """Conjugate gradients from x with residual r = l - A x, where
    step(r) returns the preconditioned residual z and A z: yields
    (x, r) after each update, x updated in place. A d follows by the
    recurrence A d = A z + beta A d, so no matvec runs. A direction
    with nonpositive curvature raises SolverError naming the probe
    vector."""
    d, ad = step(r)
    rz = float(r @ d)
    for iteration in itertools.count(1):
        dad = float(d @ ad)
        if dad <= 0.0:
            raise SolverError("nonpositive curvature direction encountered",
                              iteration=iteration, curvature=dad, probe=d)
        alpha = rz / dad
        x += alpha * d
        r = r - alpha * ad  # a new array: step may return r itself as z
        yield x, r
        z, az = step(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        d = z + beta * d
        ad = az + beta * ad
        rz = rz_new


def solve_quadratic(op: EnergyOperator, opts: SolveOptions = SolveOptions()
                    ) -> SolveResult:
    """Deflated conjugate gradients on A u = l.

    op.deflated_cg() gives the start x0, its residual r0 = l - A x0 and
    the step r -> (z, A z) that _cg_iterates runs. Stops when the
    residual is small both relative to l and relative to the energy
    scale, tested at x0 too (0 iterations). Exhausting the budget
    returns the last iterate flagged non-converged; max_iterate_norm
    counts x0.
    """
    if op.p != 2.0:
        raise SolverError("quadratic solve requires an operator with p = 2",
                          p=op.p)
    ell = op.linear_term
    c0 = op.constant_term
    ell_norm = float(np.linalg.norm(ell))
    if ell_norm == 0.0:
        x = np.zeros(op.mesh.n_interior)
        return _finish(op, x, 0, opts, lp_norm(op.mesh, x, op.p))

    def small(x, r):
        # F(x) via r = l - A x: x^T A x = x.(l - r)
        f_val = -float(ell @ x) - float(x @ r) + c0
        r_norm = float(np.linalg.norm(r))
        return (r_norm <= opts.tol * max(ell_norm, _TINY)
                and 2.0 * r_norm <= opts.tol * (1.0 + abs(f_val)))

    x, r, step = op.deflated_cg()
    max_norm = lp_norm(op.mesh, x, op.p)
    iterations = 0
    if not small(x, r):
        for iterations, (x, r) in enumerate(_cg_iterates(x, r, step), 1):
            max_norm = max(max_norm, lp_norm(op.mesh, x, op.p))
            if small(x, r) or iterations == opts.max_iter:
                break
    return _finish(op, x, iterations, opts, max_norm)


def solve_p_energy(op: EnergyOperator, opts: SolveOptions = SolveOptions(),
                   x0=None) -> SolveResult:
    """Preconditioned nonlinear conjugate gradients for any p > 1.

    Polak-Ribiere coefficient clipped at zero, restart to steepest
    descent whenever the direction fails to descend, and an Armijo line
    search that halves the step until the energy falls by at least
    1e-4 times the predicted decrease. Line-search underflow stops
    the iteration; the converged flag then reflects the gradient test
    at the last iterate.
    """
    n = op.mesh.n_interior
    x = np.zeros(n) if x0 is None else np.array(
        x0.values if isinstance(x0, Field) else x0, dtype=float)
    precond = op.preconditioner()
    energy = op.energy(x)
    g = op.gradient(x)
    z = precond(g)
    d = -z
    gz = float(g @ z)
    max_norm = lp_norm(op.mesh, x, op.p)
    step = 1.0
    iterations = 0
    flat_count = 0
    for iterations in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opts.tol * (1.0 + abs(energy)):
            iterations -= 1
            break
        slope = float(g @ d)
        if slope >= 0.0:
            d = -z
            slope = -gz
        t = min(2.0 * step, 1e8)
        x_new = None
        stalled = False
        while True:
            trial = x + t * d
            e_trial = op.energy(trial)
            if e_trial <= energy + _ARMIJO * t * slope:
                x_new = trial
                break
            t *= _SHRINK
            if t <= 1e-18:
                stalled = True
                break
        if stalled:
            break
        # energy differences at the floating-point floor mean the line
        # search can no longer certify progress; stop after a streak
        if abs(energy - e_trial) <= 1e-15 * (1.0 + abs(energy)):
            flat_count += 1
            if flat_count >= 10:
                x = x_new
                break
        else:
            flat_count = 0
        step = t
        x = x_new
        energy = e_trial
        g_new = op.gradient(x)
        z_new = precond(g_new)
        gz_new = float(g_new @ z_new)
        beta = max(0.0, float(g_new @ (z_new - z)) / gz) if gz > 0 else 0.0
        d = -z_new + beta * d
        g, z, gz = g_new, z_new, gz_new
        max_norm = max(max_norm, lp_norm(op.mesh, x, op.p))
    return _finish(op, x, iterations, opts, max_norm)
