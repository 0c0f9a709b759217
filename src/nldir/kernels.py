"""Radial kernel profiles and the quadrature constants built from them.

Every profile is a function of the squared scaled radius s, so a kernel
evaluated at distance rho with horizon delta reads

    K_delta(rho) = delta**(-dim) * profile(rho**2 / delta**2).

The support bound r is stored as a radius in the unscaled variable:
profile(s) == 0 for s > r*r, and the scaled kernel vanishes beyond
rho > r*delta. This keeps the squared/unsquared convention out of call
sites.

Built-in profiles: "quartic" (1-s)_+^2, "cubic" (1-s)_+^3, and
"wendland" (1-sqrt(s))_+^4 (4 sqrt(s)+1). Quartic, cubic and every
minorant are one closed-form family, scale * (knot - s)_+^m, with
their upper antiderivatives; wendland, which is not a power of
(1 - s), is written out by hand. The wendland bump is the one
profile here whose radial function is positive definite in dimensions
up to 3, which matters when a profile is used as the mass kernel W; the
quartic and cubic profiles produce indefinite mass forms on fine grids.

The quadrature constants refine their midpoint ladder to a fixed
relative tolerance within 10**7 nodes: 1e-8 for sigma_r and
scaled_mass, 1e-10 for kernel_mass and so for normalize_w.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import KernelError, QuadratureError

_BUDGET = 10_000_000
_TINY = 1e-300


@dataclass(frozen=True)
class KernelSpec:
    """A radial profile in the squared scaled radius s.

    Parameters
    ----------
    label : str
        Identifier used in reports and config files.
    profile : callable
        Vectorized map s >= 0 -> profile value, zero for s > support**2.
    support : float
        Support radius r in the unscaled variable.
    """

    label: str
    profile: Callable[[np.ndarray], np.ndarray]
    support: float
    _anti: Optional["KernelSpec"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.support > 0:
            raise KernelError("kernel support radius must be positive",
                              kernel=self.label, support=self.support)

    def __call__(self, s):
        return self.profile(np.asarray(s, dtype=float))


def eval_scaled(kernel: KernelSpec, rho, delta: float, dim: int):
    """Evaluate delta**(-dim) * profile(rho**2/delta**2), zero beyond
    the scaled support radius r*delta."""
    if not 0 < delta < math.inf:
        raise KernelError("horizon must be positive and finite", delta=delta)
    if dim not in (1, 2, 3):
        raise KernelError("dimension must be 1, 2 or 3", dim=dim)
    rho = np.asarray(rho, dtype=float)
    vals = kernel.profile((rho / delta) ** 2) / delta**dim
    return np.where(rho <= kernel.support * delta, vals, 0.0)


def _power_family(label, scale, knot, m):
    """scale * t**m with t = knot - min(s, knot), support sqrt(knot),
    with its closed-form upper antiderivatives scale * t**(m+1)/(m+1)
    and scale * t**(m+2)/((m+1)(m+2))."""
    def member(divisor, power):
        def profile(s):
            t = knot - np.minimum(np.asarray(s, dtype=float), knot)
            return scale * t**power / divisor
        return profile

    r = float(np.sqrt(knot))
    return KernelSpec(
        label, member(1, m), r,
        _anti=KernelSpec(label + "_bar", member(m + 1, m + 1), r,
                         _anti=KernelSpec(label + "_bbar",
                                          member((m + 1) * (m + 2), m + 2), r)))


def _wendland(s):
    s = np.asarray(s, dtype=float)
    root = np.sqrt(np.minimum(s, 1.0))
    return np.where(s < 1.0, (1.0 - root) ** 4 * (4.0 * root + 1.0), 0.0)


def _wendland_bar(s):
    # int_s^1 wendland = 2 v^5 - 3 v^6 + (8/7) v^7 with v = 1 - sqrt(s)
    s = np.asarray(s, dtype=float)
    v = 1.0 - np.sqrt(np.minimum(s, 1.0))
    return v**5 * (2.0 + v * (-3.0 + v * (8.0 / 7.0)))


def _wendland_bbar(s):
    s = np.asarray(s, dtype=float)
    v = 1.0 - np.sqrt(np.minimum(s, 1.0))
    return v**6 * (2.0 / 3.0 + v * (-10.0 / 7.0 + v * (29.0 / 28.0 + v * (-16.0 / 63.0))))


QUARTIC = _power_family("quartic", 1.0, 1.0, 2)

CUBIC = _power_family("cubic", 1.0, 1.0, 3)

WENDLAND = KernelSpec(
    "wendland", _wendland, 1.0,
    _anti=KernelSpec("wendland_bar", _wendland_bar, 1.0,
                     _anti=KernelSpec("wendland_bbar", _wendland_bbar, 1.0)))


def _interpolated(label, grid, values):
    """Linear interpolation of values on the increasing grid, zero
    beyond its last point, which is the squared support radius."""
    def profile(s):
        return np.interp(np.asarray(s, dtype=float), grid, values, right=0.0)

    return KernelSpec(label, profile, float(np.sqrt(grid[-1])))


def tabulated_kernel(path):
    """Read a profile from a two-column CSV (s, value), strictly
    increasing in s. Values are linearly interpolated; the profile is
    zero beyond the last sample. Labelled with its catalog id
    "tabulated:<path>"."""
    try:
        data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise KernelError(f"cannot read tabulated kernel: {exc}", path=str(path))
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise KernelError("tabulated kernel needs two columns and at least two rows",
                          path=str(path), shape=list(data.shape))
    if not np.all(np.isfinite(data)):
        raise KernelError("tabulated kernel values must be finite", path=str(path),
                          row=int(np.argmin(np.all(np.isfinite(data), axis=1))))
    grid, vals = data[:, 0], data[:, 1]
    if grid[0] < 0:
        raise KernelError("tabulated kernel grid must start at s >= 0",
                          path=str(path), first=grid[0])
    if not np.all(np.diff(grid) > 0):
        bad = int(np.nonzero(np.diff(grid) <= 0)[0][0])
        raise KernelError("tabulated kernel grid must be strictly increasing",
                          path=str(path), row=bad + 1)
    return _interpolated(f"tabulated:{path}", grid, vals)


def minorant_kernel(base: KernelSpec, c2: float):
    """Quadratic minorant used for penalty coercivity arguments:
    (c1/c2**2)*(s-c2)**2 on [0, c2] with c1 = base.profile(c2), zero
    beyond. Lies below any nonincreasing base profile on its support.
    Labelled with its catalog id "minorant:<base label>:<c2>"."""
    if not 0 < c2 <= base.support**2 or c2 * c2 == 0.0:  # divides c1 below
        raise KernelError("minorant parameter must lie inside the base "
                          "support and have a nonzero square",
                          kernel=base.label, c2=c2, support=base.support)
    c1 = float(base.profile(np.asarray(c2, dtype=float)))
    if c1 <= 0:
        raise KernelError("base profile vanishes at the minorant knot",
                          kernel=base.label, c2=c2)
    return _power_family(f"minorant:{base.label}:{float(c2)!r}",
                         c1 / c2**2, c2, 2)


def kernel_by_id(spec_id: str) -> KernelSpec:
    """Resolve a catalog id: "quartic" | "cubic" | "wendland" |
    "tabulated:<path>" | "minorant:<base_id>:<c2>"."""
    builtin = {"quartic": QUARTIC, "cubic": CUBIC, "wendland": WENDLAND}
    if spec_id in builtin:
        return builtin[spec_id]
    if spec_id.startswith("tabulated:"):
        return tabulated_kernel(spec_id.split(":", 1)[1])
    if spec_id.startswith("minorant:"):
        parts = spec_id.split(":")
        if len(parts) != 3:
            raise KernelError("minorant id must be minorant:<base_id>:<c2>",
                              kernel_id=spec_id)
        try:
            c2 = float(parts[2])
        except ValueError:
            raise KernelError("minorant knot must be a number", kernel_id=spec_id)
        return minorant_kernel(kernel_by_id(parts[1]), c2)
    raise KernelError("unknown kernel id", kernel_id=spec_id,
                      catalog=sorted(builtin) + ["tabulated:<path>", "minorant:<id>:<c2>"])


def antiderivative_kernel(kernel: KernelSpec) -> KernelSpec:
    """Upper antiderivative profile s -> int_s^inf profile(t) dt, with
    the same support bound. Closed form when registered, otherwise a
    4096-cell tabulation with linear interpolation. Iterating twice
    yields the doubly integrated profile."""
    if kernel._anti is not None:
        return kernel._anti
    r2 = kernel.support**2
    grid = np.linspace(0.0, r2, 4097)
    vals = kernel.profile(grid)
    seg = 0.5 * (vals[:-1] + vals[1:]) * np.diff(grid)
    upper = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return _interpolated(kernel.label + "_bar", grid, upper)


class QuadResult(NamedTuple):
    """Quadrature value with its successive-refinement error estimate."""

    value: float
    error: float
    points: int


def _ladder(estimate, rel_tol, budget, what):
    """Richardson-extrapolated midpoint refinement: doubles the node
    count until successive extrapolants differ by < rel_tol relative."""
    n = 32
    prev = prev_rich = None
    while n <= budget:
        raw = estimate(n)
        if prev is not None:
            rich = raw + (raw - prev) / 3.0
            if prev_rich is not None:
                err = abs(rich - prev_rich)
                if err <= rel_tol * max(abs(rich), _TINY):
                    return QuadResult(float(rich), float(err), n)
            prev_rich = rich
        prev = raw
        n *= 2
    raise QuadratureError(
        f"{what} quadrature did not reach tolerance within the node budget",
        last=None if prev_rich is None else float(prev_rich),
        previous=None if prev is None else float(prev),
        budget=budget, rel_tol=rel_tol)


def _radial_moment(radial, radius, dim, p, rel_tol, what):
    """int_{R^dim} radial(|z|) |z_1|^p dz for a radial integrand with
    support radius `radius`: the sphere moment
    int_{S^(dim-1)} |w_1|^p dw = 2 pi^((dim-1)/2) G((p+1)/2) / G((dim+p)/2)
    times the 1D integral int_0^radius radial(r) r^(p+dim-1) dr, which
    the midpoint ladder evaluates on n nodes. The Gamma ratio is taken
    through log-Gamma, as each Gamma overflows above p of about 341 (a
    KernelError names p where even a log-Gamma overflows)."""
    if dim not in (1, 2, 3):
        raise KernelError("dimension must be 1, 2 or 3", dim=dim)
    try:
        sphere = 2.0 * math.pi ** ((dim - 1) / 2.0) * math.exp(
            math.lgamma((p + 1.0) / 2.0) - math.lgamma((dim + p) / 2.0))
    except OverflowError:
        raise KernelError("sphere moment overflows at this exponent",
                          p=p, dim=dim) from None

    def estimate(n):
        h = radius / n
        r = (np.arange(n) + 0.5) * h
        return sphere * float(np.sum(radial(r) * r ** (p + dim - 1)) * h)

    return _ladder(estimate, rel_tol, _BUDGET, what)


def sigma_r(kernel: KernelSpec, p: float, dim: int) -> QuadResult:
    """Directional p-th moment of the kernel,
    int_{R^dim} profile(|z|^2) |z_1|^p dz, by the radial midpoint
    ladder (any axis gives the same value for a radial profile).

    Raises QuadratureError (carrying the last two extrapolants) when the
    node budget runs out first.
    """
    if not 1 < p < math.inf:
        raise KernelError("exponent must be finite and exceed 1", p=p)
    return _radial_moment(lambda r: kernel.profile(r * r), kernel.support,
                          dim, p, 1e-8, f"sigma_R({kernel.label})")


def kernel_mass(kernel: KernelSpec, dim: int) -> QuadResult:
    """int_{R^dim} profile(|z|^2) dz over the support ball."""
    return _radial_moment(lambda r: kernel.profile(r * r), kernel.support,
                          dim, 0.0, 1e-10, f"mass({kernel.label})")


def scaled_mass(kernel: KernelSpec, delta: float, dim: int) -> QuadResult:
    """Mass of the scaled kernel over its support ball of radius
    r*delta; independent of delta up to quadrature error."""
    return _radial_moment(lambda r: eval_scaled(kernel, r, delta, dim),
                          kernel.support * delta, dim, 0.0, 1e-8,
                          f"scaled_mass({kernel.label})")


def normalize_w(kernel: KernelSpec, dim: int) -> KernelSpec:
    """Rescale the profile so its dim-dimensional mass is 1."""
    mass = kernel_mass(kernel, dim).value
    if mass <= _TINY:
        raise KernelError("cannot normalize a zero-mass profile",
                          kernel=kernel.label, mass=mass)
    factor = 1.0 / mass

    def profile(s):
        return factor * kernel.profile(np.asarray(s, dtype=float))

    return KernelSpec(kernel.label + "_normalized", profile, kernel.support)


@dataclass(frozen=True)
class CheckResult:
    condition: str
    passed: bool
    detail: str
    location: Optional[float] = None


@dataclass(frozen=True)
class ValidationReport:
    kernel: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def require(self):
        """Raise KernelError naming the failed conditions, if any."""
        bad = self.failures()
        if bad:
            raise KernelError("kernel failed validation: " + "; ".join(
                f"{c.condition}: {c.detail}" for c in bad),
                kernel=self.kernel, conditions=[c.condition for c in bad])


@np.errstate(invalid="ignore")  # a non-finite sample's differences are NaN
def validate_kernel(kernel: KernelSpec) -> ValidationReport:
    """Sampled checks of the kernel conditions: nonnegativity, monotone
    decrease (K2), compact support with a continuous edge (K3), and a
    difference-quotient smoothness proxy for C1 regularity (K1).

    The K1 proxy compares the largest slope jump on a grid and on its
    refinement: a genuine kink keeps the jump constant under refinement,
    while a C1 profile shrinks it. Profiles whose slope jumps are small
    against the overall slope scale (well-resolved tabulations) also
    pass. Failures are report entries, never exceptions.
    """
    samples = 257
    r2 = kernel.support**2
    inside = np.linspace(0.0, r2, samples)
    beyond = r2 * np.linspace(1.0, 2.0, 65)[1:]
    v_in = kernel.profile(inside)
    v_out = kernel.profile(beyond)
    scale = max(float(np.max(np.abs(v_in))), _TINY)
    checks = []

    # nonnegativity; a non-finite sample fails it too
    all_s = np.concatenate([inside, beyond])
    all_v = np.concatenate([v_in, v_out])
    finite = np.isfinite(all_v)
    neg = np.nonzero(~finite | (all_v < -1e-12 * scale))[0]
    if neg.size:
        i = int(neg[0])
        sign = "< 0" if finite[i] else "is not finite"
        checks.append(CheckResult("nonnegative", False,
                                  f"profile({all_s[i]:.6g}) = {all_v[i]:.3e} {sign}",
                                  float(all_s[i])))
    else:
        checks.append(CheckResult("nonnegative", True, "profile >= 0 at all samples"))

    # K2 monotone decrease
    rises = np.nonzero(np.diff(v_in) > 1e-10 * scale)[0]
    if rises.size:
        i = int(rises[0])
        checks.append(CheckResult(
            "K2 monotone", False,
            f"profile increases between s={inside[i]:.6g} and s={inside[i + 1]:.6g}",
            float(inside[i + 1])))
    else:
        checks.append(CheckResult("K2 monotone", True, "nonincreasing at all samples"))

    # K3 compact support
    spill = np.nonzero(np.abs(v_out) > 1e-12 * scale)[0]
    if spill.size:
        i = int(spill[0])
        checks.append(CheckResult(
            "K3 support", False,
            f"profile({beyond[i]:.6g}) = {v_out[i]:.3e} beyond support bound "
            f"{kernel.support:.6g}^2", float(beyond[i])))
    else:
        checks.append(CheckResult("K3 support", True,
                                  "zero at all samples beyond the support bound"))

    # continuity at the support edge
    edge = float(kernel.profile(np.asarray(r2)))
    if abs(edge) > 1e-8 * scale:
        checks.append(CheckResult("edge continuity", False,
                                  f"profile({r2:.6g}) = {edge:.3e}, expected 0",
                                  r2))
    else:
        checks.append(CheckResult("edge continuity", True,
                                  "profile vanishes at the support edge"))

    # K1 smoothness proxy
    span = 1.25 * r2

    def max_jump(n):
        # max slope jump over three sub-cell offsets: a kink's fractional
        # position inside a cell then cannot hide, so its measured jump
        # stays >= 5/6 of the slope discontinuity at every resolution
        step = span / (n - 1)
        best = (0.0, 0.0, _TINY)
        for shift in (0.0, step / 3.0, 2.0 * step / 3.0):
            grid = shift + step * np.arange(n)
            vals = kernel.profile(grid)
            slopes = np.diff(vals) / step
            jumps = np.abs(np.diff(slopes))
            if not jumps.size:
                continue
            i = int(np.argmax(jumps))
            cand = (float(jumps[i]), float(grid[i + 1]),
                    float(np.max(np.abs(slopes))))
            if cand[0] > best[0]:
                best = (cand[0], cand[1], max(cand[2], best[2]))
            else:
                best = (best[0], best[1], max(cand[2], best[2]))
        return best

    coarse_jump, _, _ = max_jump(samples)
    fine_jump, fine_loc, slope_scale = max_jump(2 * samples - 1)
    slope_scale = max(slope_scale, _TINY)
    smooth = (fine_jump <= 1e-10 * slope_scale
              or fine_jump <= 0.78 * coarse_jump
              or fine_jump <= 0.1 * slope_scale)
    if smooth:
        checks.append(CheckResult("K1 smoothness", True,
                                  "difference quotients continuous to tolerance"))
    else:
        checks.append(CheckResult(
            "K1 smoothness", False,
            f"slope jump {fine_jump:.3e} at s={fine_loc:.6g} does not shrink under "
            f"refinement (coarse {coarse_jump:.3e}, slope scale {slope_scale:.3e})",
            fine_loc))

    return ValidationReport(kernel.label, tuple(checks))
