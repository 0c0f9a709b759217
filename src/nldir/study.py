"""Horizon-sweep experiments: manufactured-solution errors, coercivity
probes, and penalty-variant comparisons.

A sweep couples the mesh to the horizon (h = delta/ratio), assembles
and minimizes at each delta in a strictly decreasing list, and records
the L2 error against the exact local solution, a smoothed boundary
trace norm, the energy, and the kernel constant sigma_R. Reports are
reproducible bit for bit given config and seed, except for the wall
time column. Error trends are asserted by the callers (tests), not
here; rates are reported as information only. solve_modes is where
eigen_mass picks the mass models and kernel_w becomes the W mass
kernel: nldir eigen only prints its results, and a sweep row, which
refuses "both", reports its single one.

The manufactured catalog is this laboratory's own choice of closed-form
local solutions (assembly.MANUFACTURED, whose ids are also boundary
data); the test suite checks that each solves its local problem.
"""

import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

import numpy as np

from . import assembly
from .assembly import (MANUFACTURED, ManufacturedCase, PenaltySpec,
                       lp_norm)
from .errors import ConfigError, NldirError
from .geometry import build_mesh
from .kernels import kernel_by_id, normalize_w, sigma_r, validate_kernel
from .minimize import SolveOptions, solve_p_energy, solve_quadratic

_TINY = 1e-300
_PROBE_BLOCK = 1 << 20  # field values per block of coercivity probes (8 MiB)

CSV_HEADER = "delta,h,penalty,p,l2_error,trace_norm,energy,sigma_r,seconds"
_KINDS = {float: numbers.Real, int: numbers.Integral}


def _has_type(value, typ):
    kind = _KINDS.get(typ, typ)
    return isinstance(value, kind) and isinstance(value, bool) is (kind is bool)


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one sweep. deltas must be strictly
    decreasing and the horizon/mesh ratio at least 2."""

    shape: dict
    deltas: tuple
    ratio: float = 4.0
    p: float = 2.0
    variant: str = "product"
    shi_delta_sq_prefactor: bool = False
    case: str = "zero"
    kernel_r: str = "quartic"
    kernel_k: str = "quartic"
    kernel_w: str = "wendland"
    kernel_khat: str = "quartic"
    solver: SolveOptions = field(default_factory=SolveOptions)
    seed: int = 0
    threads: int = 1
    eigen_modes: int = 0
    eigen_mass: str = "L2"
    variants: tuple = ()
    trials: int = 100
    out_csv: str = None
    out_json: str = None

    def __post_init__(self):
        # each value must have its field's type (a float field takes any
        # finite real number, an int field any integer, neither a bool);
        # deltas and variants become tuples, the deltas of finite floats
        for name, fld in self.__dataclass_fields__.items():
            value = getattr(self, name)
            if fld.type is tuple:
                try:
                    value = tuple(value)
                except TypeError:
                    value = None
                if value is None or name == "deltas" and not all(
                        _has_type(v, float) for v in value):
                    raise ConfigError(f"{name} must be a list", field=name,
                                      got=repr(getattr(self, name)))
                object.__setattr__(self, name, tuple(map(float, value))
                                   if name == "deltas" else value)
            elif not (value is None and fld.default is None
                      or _has_type(value, fld.type)):
                raise ConfigError(f"{name} has the wrong type", field=name,
                                  expected=fld.type.__name__,
                                  got=type(value).__name__)
            if not all(map(math.isfinite, self.deltas if name == "deltas"
                           else (value,) if fld.type is float else ())):
                raise ConfigError(f"{name} must be finite", field=name)
        if not self.deltas:
            raise ConfigError("need at least one delta", field="deltas")
        if any(d2 >= d1 for d1, d2 in zip(self.deltas, self.deltas[1:])):
            raise ConfigError("deltas must be strictly decreasing",
                              field="deltas", deltas=list(self.deltas))
        if any(d <= 0 for d in self.deltas):
            raise ConfigError("deltas must be positive", field="deltas",
                              deltas=list(self.deltas))
        if not self.ratio >= 2.0:
            raise ConfigError("horizon/mesh ratio must be at least 2",
                              field="ratio", ratio=self.ratio)
        if not self.p > 1.0:
            raise ConfigError("exponent must exceed 1", field="p", p=self.p)
        for name, names in (("variant", (self.variant,)),
                            ("variants", self.variants)):
            if any(v not in assembly.VARIANTS for v in names) \
                    or len(set(names)) < len(names):
                raise ConfigError(f"{name} must name distinct penalty "
                                  "variants", field=name,
                                  value=getattr(self, name),
                                  supported=list(assembly.VARIANTS))
        if self.eigen_modes < 0:
            raise ConfigError("eigen_modes must be nonnegative",
                              field="eigen_modes", value=self.eigen_modes)
        if self.eigen_mass not in ("L2", "nonlocalW", "both"):
            raise ConfigError("unknown eigen mass model", field="eigen_mass",
                              value=self.eigen_mass)
        if self.threads < 1:
            raise ConfigError("threads must be at least 1", field="threads",
                              value=self.threads)
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative", field="seed",
                              value=self.seed)

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object", field="config",
                              got=type(data).__name__)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown config field",
                              field=sorted(unknown)[0],
                              supported=sorted(known))
        kwargs = dict(data)
        if "solver" in kwargs and isinstance(kwargs["solver"], dict):
            kwargs["solver"] = SolveOptions.from_dict(kwargs["solver"])
        return cls(**kwargs)

    def to_dict(self):
        return {name: list(val) if isinstance(val, tuple) else val
                for name, val in asdict(self).items()}


@dataclass(frozen=True)
class SweepRow:
    delta: float
    h: float
    penalty: str
    p: float
    l2_error: float = None
    trace_norm: float = None
    energy: float = None
    sigma_r: float = None
    seconds: float = None
    ratio_to_limit: float = None
    converged: bool = None
    iterations: int = None
    stop_reason: str = None
    eigen_lambdas: tuple = None
    error: str = None


@dataclass(frozen=True)
class StudyReport:
    rows: tuple
    environment: dict

    def ok_rows(self):
        return [r for r in self.rows if r.error is None]


# -- manufactured catalog ----------------------------------------------


def manufactured_case(case_id: str) -> ManufacturedCase:
    if case_id not in MANUFACTURED:
        raise ConfigError("unknown manufactured case", case=case_id,
                          catalog=sorted(MANUFACTURED))
    return MANUFACTURED[case_id]


# -- sweeps --------------------------------------------------------------


def _shape_dim(shape: dict) -> int:
    return 1 if "interval" in shape else 2


def admitted_case(cfg: StudyConfig) -> ManufacturedCase:
    """The config's manufactured case; ConfigError when it has no exact
    solution for the shape's dimension at exponent p."""
    case = manufactured_case(cfg.case)
    dim = _shape_dim(cfg.shape)
    if not case.admits(dim, cfg.p):
        raise ConfigError("manufactured case does not admit this setup",
                          case=case.id, dim=dim, p=cfg.p)
    return case


def mesh_and_penalty(cfg: StudyConfig, delta):
    """The mesh (h = delta / ratio) and penalty of one horizon."""
    return (build_mesh(cfg.shape, delta / cfg.ratio),
            PenaltySpec(cfg.variant, kernel_by_id(cfg.kernel_k),
                        cfg.shi_delta_sq_prefactor))


def row_operator(cfg: StudyConfig, delta, datum=None):
    """The energy of one horizon at exponent cfg.p, with the boundary
    datum as assembly.boundary_data resolves it (None: zero)."""
    mesh, spec = mesh_and_penalty(cfg, delta)
    return assembly.assemble(mesh, kernel_by_id(cfg.kernel_r), spec, delta,
                             cfg.p, datum)


def solve_row(cfg: StudyConfig, case, delta):
    """One horizon's operator for the case's datum, its minimizer's
    SolveResult (deflated CG at p = 2, Newton-CG otherwise) and the
    minimizer's L2 error against the case's exact solution."""
    op = row_operator(cfg, delta, case.id)
    solve = solve_quadratic if cfg.p == 2.0 else solve_p_energy
    result = solve(op, cfg.solver)
    error = result.minimizer - case.exact(op.mesh.interior_points)
    return op, result, lp_norm(op.mesh, error, 2.0)


def solve_modes(cfg: StudyConfig, op):
    """The cfg.eigen_modes smallest eigenpairs of a zero-datum operator
    as one EigenResult per mass model of cfg.eigen_mass (nonlocalW: the
    normalized kernel_w; "both": L2, then nonlocalW started from the L2
    modes by compare_mass_models), solved to tol 1e-9 in at most 2,000
    LOBPCG blocks from a start seeded by cfg.seed."""
    from .spectra import EigenProblem, compare_mass_models, solve_eigen
    w_kernel = None
    if cfg.eigen_mass != "L2":
        w_kernel = normalize_w(kernel_by_id(cfg.kernel_w), op.mesh.dim)
    if cfg.eigen_mass == "both":
        cmp = compare_mass_models(op, w_kernel, cfg.eigen_modes,
                                  seed=cfg.seed)
        return cmp.l2, cmp.w
    prob = EigenProblem(op, cfg.eigen_mass, cfg.eigen_modes, W=w_kernel)
    return (solve_eigen(prob, seed=cfg.seed),)


def _run_row(cfg: StudyConfig, case, delta, sigma):
    t0 = time.perf_counter()
    op, result, l2_error = solve_row(cfg, case, delta)
    mesh, u = op.mesh, result.minimizer

    trace = assembly.trace_matrix(mesh, kernel_by_id(cfg.kernel_khat), delta,
                                  op.stencil)
    trace_norm = float(np.sqrt(np.sum(
        mesh.boundary_weights * (trace @ u - op.a) ** 2)))
    grad_int = float(np.sum(mesh.interior_weights
                            * case.grad_power(mesh.interior_points, cfg.p)))
    ratio_to_limit = (result.energy / (sigma * grad_int)
                      if sigma * grad_int > _TINY else None)

    eigen_lambdas = None
    if cfg.eigen_modes > 0:
        # the datum enters only the affine part, so the stencil and the
        # penalty arrays of op serve the zero-datum stiffness unchanged
        (eig,) = solve_modes(cfg, op.twin(a=np.zeros(mesh.n_boundary)))
        eigen_lambdas = tuple(float(v) for v in eig.eigenvalues)

    row = SweepRow(delta=delta, h=mesh.h, penalty=cfg.variant, p=cfg.p,
                   l2_error=l2_error, trace_norm=trace_norm,
                   energy=result.energy, sigma_r=sigma,
                   seconds=time.perf_counter() - t0,
                   ratio_to_limit=ratio_to_limit,
                   converged=result.converged,
                   iterations=result.iterations,
                   stop_reason=result.stop_reason,
                   eigen_lambdas=eigen_lambdas)
    return row, u, mesh


def run_delta_sweep(cfg: StudyConfig) -> StudyReport:
    """One row per delta; a failing row records its reason and the
    remaining rows still run. Output files are written when the config
    names them."""
    report, _ = _sweep_with_fields(cfg)
    _write_outputs(report, cfg)
    return report


def _sweep_with_fields(cfg: StudyConfig):
    """The sweep's report and {delta: (field, mesh)} of its solved rows."""
    case = admitted_case(cfg)
    if cfg.eigen_modes > 0 and cfg.eigen_mass == "both":
        raise ConfigError("a sweep row solves one mass model",
                          field="eigen_mass", value=cfg.eigen_mass)
    R = kernel_by_id(cfg.kernel_r)
    validate_kernel(R).require()  # before sigma_r can spend its budget
    sigma = sigma_r(R, cfg.p, _shape_dim(cfg.shape)).value

    def one(delta):
        try:
            return _run_row(cfg, case, delta, sigma)
        except NldirError as exc:
            h = delta / cfg.ratio
            return (SweepRow(delta=delta, h=h, penalty=cfg.variant, p=cfg.p,
                             error=f"{type(exc).__name__}: {exc}"),
                    None, None)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(one, cfg.deltas))
    else:
        outcomes = [one(d) for d in cfg.deltas]

    rows = tuple(row for row, _, _ in outcomes)
    env = {
        "kernels": {"R": cfg.kernel_r, "K": cfg.kernel_k,
                    "W": cfg.kernel_w, "Khat": cfg.kernel_khat},
        "seed": cfg.seed,
        "case": cfg.case,
        "case_catalog_note": "manufactured cases are this laboratory's "
                             "own catalog",
        "variant": cfg.variant,
        "p": cfg.p,
        "ratio": cfg.ratio,
        "shape": cfg.shape,
        "version": _version(),
    }
    return StudyReport(rows, env), {row.delta: (u, mesh)
                                    for row, u, mesh in outcomes
                                    if u is not None}


def _version():
    from . import __version__
    return __version__


# -- coercivity ----------------------------------------------------------


@dataclass(frozen=True)
class CoercivityReport:
    variant: str
    delta: float
    trials: int
    skipped: int
    min_ratio: float
    c_n: float  # min_ratio scaled by the variant's horizon power
    ratios: tuple


def coercivity_probe(mesh, spec: PenaltySpec, khat, delta: float,
                     trials: int, seed: int = 0) -> CoercivityReport:
    """Minimum over random probe fields of
    penalty_energy(u) / ||smoothed trace of u||^2 with zero datum.
    Probes where both sides vanish are skipped. c_n rescales the minimum
    by the variant's power of delta (4 for shi_delta_sq_prefactor shi, 2
    for the rest at p = 2), comparable across horizons. The fields are
    drawn a trial at a time, smoothed in blocks of <= _PROBE_BLOCK values."""
    if trials < 10:
        raise ConfigError("need at least 10 trials", field="trials",
                          trials=trials)
    op = assembly.assemble(mesh, spec.kernel, spec, delta, 2.0,
                           np.zeros(mesh.n_boundary))
    trace = assembly.trace_matrix(mesh, khat, delta, op.stencil)
    rng = np.random.default_rng(seed)
    per_block = max(1, _PROBE_BLOCK // mesh.n_interior)
    ratios = []
    skipped = 0
    for start in range(0, trials, per_block):
        block = np.array([rng.standard_normal(mesh.n_interior)
                          for _ in range(min(per_block, trials - start))])
        traces_sq = mesh.boundary_weights @ (trace @ block.T) ** 2
        for u, trace_sq in zip(block, traces_sq.tolist()):
            pen = op.penalty_energy(u)
            if trace_sq <= _TINY:
                if pen <= _TINY:
                    skipped += 1
                    continue
                ratios.append(np.inf)
                continue
            ratios.append(pen / trace_sq)
    if not ratios:
        raise ConfigError("all probes were degenerate", trials=trials)
    min_ratio = float(min(ratios))
    power = 4 if spec.variant == "shi" and spec.shi_delta_sq_prefactor else 2
    return CoercivityReport(variant=spec.variant, delta=delta, trials=trials,
                            skipped=skipped, min_ratio=min_ratio,
                            c_n=min_ratio * delta**power, ratios=tuple(ratios))


# -- variant comparison ----------------------------------------------------


def compare_penalties(cfg: StudyConfig, variants) -> StudyReport:
    """Run the same sweep once per variant on identical meshes and
    record pairwise L2 distances between the variant minimizers at each
    delta (in the report environment)."""
    variants = list(variants)
    if not variants:
        raise ConfigError("need at least one variant", field="variants")
    rows, fields = [], {}
    for var in variants:
        report, fields[var] = _sweep_with_fields(
            replace(cfg, variant=var, variants=()))
        rows.extend(report.rows)
    distances = {}
    for va, vb in combinations(variants, 2):
        distances[f"{va}|{vb}"] = {
            repr(d): lp_norm(fields[va][d][1],
                             fields[va][d][0] - fields[vb][d][0], 2.0)
            for d in cfg.deltas if d in fields[va] and d in fields[vb]}
    merged = StudyReport(rows=tuple(rows), environment=dict(
        report.environment, variants=variants,
        pairwise_l2_distances=distances))
    _write_outputs(merged, cfg)
    return merged


# -- report output ---------------------------------------------------------


def _g17(value):
    if value is None:
        return ""
    return f"{value:.17g}"


def report_csv_text(report: StudyReport) -> str:
    lines = [CSV_HEADER]
    for r in report.ok_rows():
        lines.append(",".join([
            _g17(r.delta), _g17(r.h), r.penalty, _g17(r.p),
            _g17(r.l2_error), _g17(r.trace_norm), _g17(r.energy),
            _g17(r.sigma_r), _g17(r.seconds)]))
    return "\n".join(lines) + "\n"


def report_json_dict(report: StudyReport) -> dict:
    rows = []
    for r in report.rows:
        row = {"delta": r.delta, "h": r.h, "penalty": r.penalty, "p": r.p}
        if r.error is not None:
            row["error"] = r.error
        else:
            row.update(l2_error=r.l2_error, trace_norm=r.trace_norm,
                       energy=r.energy, sigma_r=r.sigma_r,
                       seconds=r.seconds, ratio_to_limit=r.ratio_to_limit,
                       converged=r.converged, iterations=r.iterations,
                       stop_reason=r.stop_reason)
            if r.eigen_lambdas is not None:
                row["eigen_lambdas"] = list(r.eigen_lambdas)
        rows.append(row)
    return {"rows": rows, "environment": report.environment}


def write_output(path, text: str, field: str):
    """Write text to path as UTF-8. ConfigError naming the config field
    that holds the path when the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write output file", field=field, path=path,
                          detail=str(exc)) from None


def _write_outputs(report: StudyReport, cfg: StudyConfig):
    if cfg.out_csv:
        write_output(cfg.out_csv, report_csv_text(report), "out_csv")
    if cfg.out_json:
        write_output(cfg.out_json,
                     json.dumps(report_json_dict(report), indent=1),
                     "out_json")
