"""One benchmark workload, run inside a fresh process.

run.py starts this file in fresh processes:

    python3 perfbench/harness.py setup --workload W --result OUT.json
    python3 perfbench/harness.py run --workload W --seed N --seconds S \
        --trace 0|1 --workdir DIR --result OUT.json [--smoke]

`setup` times `import nldir.cli` plus the lazy first-use set-up, then
the reference kernel, and exits.
`run` does the same set-up, then drives the workload through
`nldir.cli.dispatch` (what `nldir <subcommand>` runs), checks every
output, and writes timings, counts and check verdicts to OUT.json.

Nothing from numpy, scipy or nldir is imported before the set-up timer
starts, so the set-up time includes those imports.
"""

import argparse
import csv
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

UNIT_SQUARE = {"rect": [[0.0, 0.0], [1.0, 1.0]]}
UNIT_INTERVAL = {"interval": [0.0, 1.0]}

SIGMA_2D = math.pi / 24.0  # sigma_R of the quartic profile, p = 2, d = 2
DIRICHLET_SQUARE = (2 * math.pi**2, 5 * math.pi**2, 5 * math.pi**2)
EIGEN_TOL = 1e-9           # the residual target the eigen command solves to
PROBE_FLOORS = {"product": 10.0, "dirac_diagonal": 200.0}
# The host's speed drifts by up to 1.5x over minutes (see the README), so
# each untraced call and set-up is rescaled by a fixed reference kernel
# timed next to it, toward the speed where the kernel takes REFERENCE_S
# (about its median on the machine the benchmark was defined on).
REFERENCE_S = 0.35
# Only half of the kernel's slowdown is taken out: the kernel's own time
# is noisy, and in recorded runs the regression slope of log pass time on
# log kernel time was 0.6-0.9; halving it gave the steadiest run medians.
SENSITIVITY = 0.5


def rescale(seconds, reference_s):
    """`seconds` timed next to a kernel run of `reference_s`, rescaled."""
    return seconds * (REFERENCE_S / reference_s) ** SENSITIVITY
# min_ratio at 6 significant digits, as acceptance criterion 7 records it
PROBE_REFERENCE = {12345: {"product": "22.7813", "dirac_diagonal": "441.766"}}


@dataclass
class Outcome:
    """Verdicts and counts read from one pass's output files."""

    checks: list                  # (name, passed, detail)
    attempted: int
    failed: int
    rows: list                    # one dict per sweep row / mode / probe
    accuracy: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Part:
    """One input set of a workload: its dispatch calls and their checks."""

    name: str
    calls: tuple        # (subcommand, config) per dispatch call of one pass
    smoke_calls: tuple  # the same calls on inputs that run in about a second
    p: float            # exponent and dimension of the lazy set-up
    dim: int
    check: Callable     # (results, nldir seed, smoke) -> Outcome
    # LOBPCG iteration counts swing 757..2019 across start-vector seeds on
    # the eigen part, so it passes this seed instead of the run seed
    fixed_seed: int = None


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple        # run in this order, one after the other, each pass


def _sweep_checks(final_max):
    def check(results, seed, smoke):
        (rc, cfg, out), = results
        rows = json.loads(Path(out["json"]).read_text())["rows"]
        ok_rows = [r for r in rows if "error" not in r]
        errs = [r["l2_error"] for r in ok_rows]
        unconverged = [r["delta"] for r in ok_rows
                       if r["converged"] is not True]
        checks = [
            ("exit status 0", rc == 0, f"status {rc}"),
            ("one row per delta", len(rows) == len(cfg["deltas"]),
             f"{len(rows)} rows for {len(cfg['deltas'])} deltas"),
            ("no error rows", len(ok_rows) == len(rows),
             "; ".join(r["error"] for r in rows if "error" in r) or "none"),
            ("l2 errors strictly decrease",
             len(errs) >= 2 and all(a > b for a, b in zip(errs, errs[1:])),
             " > ".join(f"{e:.6g}" for e in errs)),
            (f"final l2 error <= {final_max}",
             bool(errs) and errs[-1] <= final_max,
             f"{errs[-1]:.6g}" if errs else "no rows"),
        ]
        table = [{"delta": r["delta"], "h": r["h"],
                  "iterations": r.get("iterations"),
                  "converged": r.get("converged"),
                  "l2_error": r.get("l2_error"), "error": r.get("error")}
                 for r in rows]
        failed = len(rows) - len(ok_rows) + len(unconverged)
        accuracy = {"l2_error": errs[-1] if errs else None,
                    "unconverged_deltas": unconverged}
        return Outcome(checks, len(rows), failed, table, accuracy)
    return check


def _eigen_checks(results, seed, smoke):
    (rc, cfg, out), = results
    k = cfg["eigen_modes"]
    modes = defaultdict(list)
    with open(out["csv"], encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            modes[rec["mass_model"]].append(
                (int(rec["mode"]), float(rec["lambda"]),
                 float(rec["residual"])))
    table, failed = [], 0
    for mass in ("L2", "nonlocalW"):
        for mode, lam, res in modes[mass]:
            target = EIGEN_TOL * max(abs(lam), 1.0)
            failed += res > target
            table.append({"mass_model": mass, "mode": mode, "lambda": lam,
                          "residual": res, "target": target})
    complete = all(len(modes[m]) == k for m in ("L2", "nonlocalW"))
    failed += 2 * k - sum(len(modes[m]) for m in ("L2", "nonlocalW"))
    rel = gap = math.inf
    if complete:
        l2 = [lam for _, lam, _ in modes["L2"]]
        w = [lam for _, lam, _ in modes["nonlocalW"]]
        rel = max(abs(lam / SIGMA_2D - ref) / ref
                  for lam, ref in zip(l2, DIRICHLET_SQUARE))
        gap = max(abs(a - b) / abs(a) for a, b in zip(l2, w))
    checks = [
        ("exit status 0", rc == 0, f"status {rc}"),
        (f"{k} modes per mass model", complete,
         ", ".join(f"{m}: {len(modes[m])}" for m in ("L2", "nonlocalW"))),
        ("residual <= 1e-9 max(|lambda|, 1)", complete and failed == 0,
         f"{failed} of {2 * k} above target"),
        ("lambda_rel_err <= 0.1", rel <= 0.1, f"{rel:.6g}"),
        ("L2-vs-W gap <= 0.05", gap <= 0.05, f"{gap:.6g}"),
    ]
    return Outcome(checks, 2 * k, failed, table, {"lambda_rel_err": rel})


def _probe_checks(results, seed, smoke):
    checks, table = [], []
    attempted = failed = 0
    for rc, cfg, out in results:
        rep = json.loads(Path(out["json"]).read_text())
        variant = rep["variant"]
        # an infinite ratio (zero smoothed trace) is written as null
        bad = sum(1 for r in rep["ratios"] if r is not None and not r > 0.0)
        floor = PROBE_FLOORS[variant]
        checks += [
            (f"{variant}: exit status 0", rc == 0, f"status {rc}"),
            (f"{variant}: every ratio > 0", bad == 0,
             f"{bad} of {len(rep['ratios'])} not positive"),
            (f"{variant}: min_ratio >= {floor:g}", rep["min_ratio"] >= floor,
             f"{rep['min_ratio']:.6g}"),
        ]
        expected = PROBE_REFERENCE.get(seed, {}).get(variant)
        if expected is not None and not smoke:
            got = f"{rep['min_ratio']:.6g}"
            checks.append((f"{variant}: seed {seed} reproduces {expected}",
                           got == expected, got))
        attempted += rep["trials"]
        failed += bad + rep["skipped"]
        table.append({"variant": variant, "trials": rep["trials"],
                      "skipped": rep["skipped"],
                      "min_ratio": rep["min_ratio"], "c_n": rep["c_n"]})
    return Outcome(checks, attempted, failed, table)


def _probe(variant, trials):
    return ("probe-coercivity",
            {"shape": UNIT_SQUARE, "deltas": [0.1], "ratio": 4.0,
             "variant": variant, "trials": trials})


def _square_sweep(deltas):
    return ("sweep", {"shape": UNIT_SQUARE, "deltas": deltas, "ratio": 4.0,
                      "case": "harmonic_x2_minus_y2", "variant": "product",
                      "p": 2.0})


def _interval_sweep(deltas):
    return ("sweep", {"shape": UNIT_INTERVAL, "deltas": deltas, "ratio": 4.0,
                      "case": "linear_x", "variant": "product", "p": 3.0,
                      "solver": {"tol": 1e-8}})


def _eigen(ratio):
    return ("eigen", {"shape": UNIT_SQUARE, "deltas": [0.05], "ratio": ratio,
                      "eigen_modes": 3, "eigen_mass": "both"})


SWEEP_SQUARE = Part("sweep_square_p2",
                    (_square_sweep([0.1, 0.05, 0.025, 0.0125]),),
                    (_square_sweep([0.1, 0.05]),),
                    2.0, 2, _sweep_checks(0.05))
SWEEP_INTERVAL = Part("sweep_interval_p3",
                      (_interval_sweep([0.1 / 2**k for k in range(6)]),),
                      (_interval_sweep([0.1, 0.05]),),
                      3.0, 1, _sweep_checks(0.03))
EIGEN = Part("eigen_square_k3", (_eigen(4.0),), (_eigen(2.0),),
             2.0, 2, _eigen_checks, fixed_seed=0)
PROBE = Part("probe_square",
             (_probe("product", 100), _probe("dirac_diagonal", 100)),
             (_probe("product", 10), _probe("dirac_diagonal", 10)),
             2.0, 2, _probe_checks)

# Two workloads of two parts each. A part alone is too short a pass on
# this noisy host, and four workloads leave too little time per run.
# "sweeps" builds a fresh mesh per delta and uses the linear CG and the
# p-solver; "eigen_probe" uses LOBPCG and reuses one (mesh, radius) for
# 204 neighbor searches. Each has what the other bypasses.
WORKLOADS = {w.name: w for w in (
    Workload("sweeps", (SWEEP_SQUARE, SWEEP_INTERVAL)),
    Workload("eigen_probe", (EIGEN, PROBE)),
)}

# Per-layer metrics of a traced run: (name, unit, spans it needs). Every
# ".s" metric is self time, a span's duration minus its children's.
# Counts read by a span's hook are lost when that span is unreadable.
PER_LAYER = (
    ("geometry.self_s", "s", ()),
    ("geometry.build_mesh.s", "s", ("geometry.build_mesh",)),
    ("geometry.neighbor_pairs.s", "s", ("geometry.neighbor_pairs",)),
    ("geometry.neighbor_pairs.calls", "count", ("geometry.neighbor_pairs",)),
    ("geometry.neighbor_pairs.reuse", "ratio", ("geometry.neighbor_pairs",)),
    ("geometry.pairs", "count", ("geometry.neighbor_pairs",)),
    ("kernels.self_s", "s", ()),
    ("kernels.eval_scaled.s", "s", ("kernels.eval_scaled",)),
    ("kernels.eval_scaled.points", "count", ("kernels.eval_scaled",)),
    ("kernels.sigma_r.s", "s", ("kernels.sigma_r",)),
    ("kernels.validate_kernel.calls", "count", ("kernels.validate_kernel",)),
    ("assembly.self_s", "s", ()),
    ("assembly.assemble.s", "s", ("assembly.assemble",)),
    ("assembly.assemble.calls", "count", ("assembly.assemble",)),
    ("assembly.apply_quadratic.s", "s", ("assembly.apply_quadratic",)),
    ("assembly.apply_quadratic.calls", "count",
     ("assembly.apply_quadratic",)),
    ("assembly.apply_quadratic.bytes", "bytes",
     ("assembly.apply_quadratic",)),
    ("assembly.energy.s", "s", ("assembly.energy",)),
    ("assembly.energy.calls", "count", ("assembly.energy",)),
    ("assembly.gradient.s", "s", ("assembly.gradient",)),
    ("assembly.gradient.calls", "count", ("assembly.gradient",)),
    ("assembly.mollify.s", "s", ("assembly.mollify",)),
    ("assembly.mollify.calls", "count", ("assembly.mollify",)),
    ("assembly.w_mass_matrix.s", "s", ("assembly.w_mass_matrix",)),
    ("minimize.self_s", "s", ()),
    ("minimize.solve_quadratic.s", "s", ("minimize.solve_quadratic",)),
    ("minimize.cg_iterations", "count", ("minimize.solve_quadratic",)),
    ("minimize.solve_p_energy.s", "s", ("minimize.solve_p_energy",)),
    ("minimize.ncg_iterations", "count", ("minimize.solve_p_energy",)),
    ("minimize.line_search_ratio", "ratio",
     ("minimize.solve_p_energy", "assembly.energy")),
    ("spectra.self_s", "s", ()),
    ("spectra.EigenProblem.s", "s", ("spectra.EigenProblem",)),
    ("spectra.solve_eigen.s", "s", ("spectra.solve_eigen",)),
    ("spectra.iterations.L2", "count", ("spectra.solve_eigen",)),
    ("spectra.iterations.nonlocalW", "count", ("spectra.solve_eigen",)),
    ("spectra.apply_mass.s", "s", ("spectra.apply_mass",)),
    ("spectra.apply_mass.calls", "count", ("spectra.apply_mass",)),
    ("study.self_s", "s", ()),
    ("study.manufactured_case.s", "s", ("study.manufactured_case",)),
    ("cli.self_s", "s", ()),
    ("trace.wall_s", "s", ()),
    ("trace.overhead_s", "s", ()),
    ("trace.self_coverage", "ratio", ()),
)


def layer_metrics(tracer, traced_wall, overhead):
    """Per-layer metrics from a tracer's spans and counts, given the wall
    time the spans cover and the traced-minus-untraced pass time. A
    metric whose boundary is absent reads 0 and is listed in `absent`."""
    summary = tracer.summary()
    names, counts = summary["names"], tracer.counts
    energy_in_solve = summary["by_parent"].get(
        ("minimize.solve_p_energy", "assembly.energy"), 0)
    np_calls = names.get("geometry.neighbor_pairs", (0,))[0]
    special = {
        "geometry.neighbor_pairs.reuse":
            len(tracer.pair_tables) / np_calls if np_calls else 0.0,
        "geometry.pairs": sum(tracer.pair_tables.values()),
        # NCG iterations per energy evaluation inside solve_p_energy
        # (line-search trials plus one start and one final evaluation)
        "minimize.line_search_ratio":
            counts["minimize.ncg_iterations"] / energy_in_solve
            if energy_in_solve else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.self_coverage":
            sum(entry[2] for entry in names.values()) / traced_wall,
    }
    metrics, absent = {}, []
    for name, unit, needs in PER_LAYER:
        counted = not name.endswith((".s", ".self_s", ".calls"))
        if any(n in tracer.absent
               or (counted and n in tracer.unreadable) for n in needs):
            absent.append(name)
            value = 0
        elif name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = summary["layers"][name.split(".", 1)[0]]
        elif name.endswith(".s"):
            value = names.get(name[:-2], (0, 0.0, 0.0))[2]
        elif name.endswith(".calls"):
            value = names.get(name[:-6], (0,))[0]
        else:
            value = counts[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent, summary


def _environment():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def _import_nldir():
    """Import nldir the way the `nldir` command does, through its CLI."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("nldir.cli")
    return sys.modules["nldir"]


def lazy_setup(nldir, workload):
    """The first-use set-up every run pays: the sympy manufactured
    catalog, the kernel constant sigma_R and the normalized mass kernel."""
    nldir.manufactured_case("zero")
    for part in workload.parts:
        nldir.sigma_r(nldir.QUARTIC, part.p, part.dim)
        nldir.normalize_w(nldir.WENDLAND, part.dim)


def reference_kernel():
    """A function that runs the fixed reference kernel once and returns
    its seconds. The kernel is scipy CSR matvecs and cKDTree ball-point
    counts, the two kinds of work that dominate nldir's passes, on
    inputs of its own that never change."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.spatial import cKDTree
    rng = np.random.default_rng(0)
    n, per_row = 100_000, 30   # 36 MB of CSR arrays, more than the caches
    matrix = sp.csr_matrix(
        (rng.standard_normal(n * per_row), rng.integers(0, n, n * per_row),
         np.arange(0, n * per_row + 1, per_row)), shape=(n, n))
    x = rng.standard_normal(n)
    points = rng.random((20_000, 2))

    def run():
        t0 = time.perf_counter()
        for _ in range(80):
            matrix @ x
        for _ in range(2):
            cKDTree(points).query_ball_point(points, 0.02, return_length=True)
        return time.perf_counter() - t0
    return run


def _write_configs(workload, workdir, seed, smoke):
    """Config files for one pass; returns (part, nldir seed, calls) per
    part, each call an (argv, config, outputs)."""
    prepared, i = [], 0
    for part in workload.parts:
        part_seed = seed if part.fixed_seed is None else part.fixed_seed
        calls = []
        for sub, cfg in part.smoke_calls if smoke else part.calls:
            out = {"json": str(workdir / f"call{i}.json"),
                   "csv": str(workdir / f"call{i}.csv")}
            cfg = dict(cfg)
            if sub in ("sweep", "probe-coercivity"):
                cfg["out_json"] = out["json"]
            if sub in ("sweep", "eigen"):
                cfg["out_csv"] = out["csv"]
            path = workdir / f"call{i}.config.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = [sub, "--config", str(path), "--threads", "1",
                    "--seed", str(part_seed)]
            calls.append((argv, cfg, out))
            i += 1
        prepared.append((part, part_seed, calls))
    return prepared


def _run_pass(cli, prepared, reference=None):
    """One pass: every call of every part, each timed on its own. Returns
    (call seconds, exit statuses) per part and, when `reference` is
    given, the reference kernel's seconds after each call."""
    parts, refs = [], []
    for _, _, calls in prepared:
        seconds, codes = [], []
        for argv, _, _ in calls:
            t0 = time.perf_counter()
            # look dispatch up on each call so the tracer's wrapper is used
            codes.append(cli.dispatch(argv))
            seconds.append(time.perf_counter() - t0)
            if reference is not None:
                refs.append(reference())
        parts.append((seconds, codes))
    return parts, refs


def at_reference_speed(timeline):
    """(pass, part, seconds) of each call in a timeline of ("call", pass,
    part, seconds) and ("ref", seconds) events, the seconds rescaled by
    the mean of the reference times just before and just after the call.
    The first pass runs before the kernel exists, so it has only after."""
    out = []
    for i, (kind, *event) in enumerate(timeline):
        if kind == "call":
            before = [e[1] for e in timeline[:i] if e[0] == "ref"][-1:]
            after = [e[1] for e in timeline[i + 1:] if e[0] == "ref"][:1]
            pass_no, part, seconds = event
            out.append((pass_no, part,
                        rescale(seconds, statistics.fmean(before + after))))
    return out


def _checked(prepared, parts, smoke):
    """Check each part's outputs; one Outcome for the pass, with check
    names and rows tagged by part and per-part accuracy."""
    merged = Outcome([], 0, 0, [])
    for (part, seed, calls), (_, codes) in zip(prepared, parts):
        results = [(rc, cfg, out) for rc, (_, cfg, out) in zip(codes, calls)]
        try:
            got = part.check(results, seed, smoke)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # missing or malformed output files fail the run, never crash it
            got = Outcome([("outputs readable", False,
                            f"{type(exc).__name__}: {exc}")], 1, 1, [])
        merged.checks += [(f"{part.name}: {name}", ok, detail)
                          for name, ok, detail in got.checks]
        merged.attempted += got.attempted
        merged.failed += got.failed
        merged.rows += [{"part": part.name, **row} for row in got.rows]
        merged.accuracy[part.name] = dict(
            got.accuracy, attempted=got.attempted, failed=got.failed)
    return merged


def _merge_checks(checks):
    """One verdict per check name: passed only if it passed on every
    pass; the detail comes from the first failing pass, else the last."""
    merged = {}
    for name, ok, detail in checks:
        if merged.get(name, (True,))[0]:
            merged[name] = (ok, detail)
    return [{"name": n, "passed": ok, "detail": d}
            for n, (ok, d) in merged.items()]


def _row_counts(tracer):
    """n_interior, n_boundary and interior pairs of each mesh the traced
    pass built, in build order (one mesh per sweep row or command)."""
    first_pairs = {}
    for (serial, _), pairs in tracer.pair_tables.items():
        first_pairs.setdefault(serial, pairs)
    return [{"n_interior": int(m.n_interior), "n_boundary": int(m.n_boundary),
             "n_pairs": first_pairs.get(i)}
            for i, m in enumerate(tracer.meshes)]


def run(args):
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    t0 = time.perf_counter()
    nldir = _import_nldir()
    t_import = time.perf_counter()
    if tracer is not None:
        tracer.install()
    lazy_setup(nldir, workload)
    t_setup = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    cli = sys.modules["nldir.cli"]
    prepared = _write_configs(workload, workdir, args.seed, args.smoke)
    passes, outcomes, reference = [], [], None
    timeline = []   # ("call", pass, part, seconds) and ("ref", seconds)
    start = time.perf_counter()
    while True:
        parts, refs = _run_pass(cli, prepared, reference)
        calls = [("call", len(passes), part.name, t)
                 for (part, _, _), (seconds, _) in zip(prepared, parts)
                 for t in seconds]
        passes.append(sum(event[3] for event in calls))
        if len(passes) == 1:
            # peak of set-up plus one pass, whatever the pass count; the
            # reference kernel's arrays are made after it
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if not args.trace:
                reference = reference_kernel()
                refs = [reference()]
        refs = [("ref", r) for r in refs]
        timeline += ([e for pair in zip(calls, refs) for e in pair]
                     if len(refs) == len(calls) else calls + refs)
        outcomes.append(_checked(prepared, parts, args.smoke))
        # at least two untraced passes, then as many as fit in --seconds
        if args.trace or (len(passes) >= 2 and time.perf_counter() - start
                          + max(passes) > args.seconds):
            break

    # each pass and part rescaled; as timed when traced
    scaled = (at_reference_speed(timeline) if reference is not None
              else [event[1:] for event in timeline])
    scaled_passes, part_s = [0.0] * len(passes), defaultdict(
        lambda: [0.0] * len(passes))
    for pass_no, part, seconds in scaled:
        scaled_passes[pass_no] += seconds
        part_s[part][pass_no] += seconds
    result = {
        "workload": workload.name, "seed": args.seed,
        "nldir_seeds": {part.name: seed for part, seed, _ in prepared},
        "smoke": args.smoke, "trace": args.trace,
        "setup_s": t_setup - t0, "passes_s": passes,
        "scaled_passes_s": scaled_passes, "parts_s": part_s,
        "reference_s": [e[1] for e in timeline if e[0] == "ref"],
    }
    extra_checks = []
    if tracer is not None:
        # passes[0] ran untraced; now one traced pass of the same inputs
        tracer.install()
        parts, _ = _run_pass(cli, prepared)
        tracer.uninstall()
        traced_s = sum(sum(seconds) for seconds, _ in parts)
        outcomes.append(_checked(prepared, parts, args.smoke))
        metrics, absent, summary = layer_metrics(
            tracer, (t_setup - t_import) + traced_s, traced_s - passes[0])
        coverage = metrics["trace.self_coverage"]["value"]
        extra_checks.append(
            ("span self times sum to the traced wall within 5%",
             abs(coverage - 1.0) <= 0.05, f"{coverage:.4f}"))
        tracer.write_spans(workdir / "spans.csv")
        result.update(
            traced_pass_s=traced_s, layer_metrics=metrics, absent=absent,
            absent_boundaries=tracer.absent + sorted(tracer.unreadable),
            layer_self_s=summary["layers"], row_counts=_row_counts(tracer),
            eigen_iterations=tracer.eigen_iterations)

    result.update(
        checks=_merge_checks([c for o in outcomes for c in o.checks]
                             + extra_checks),
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        rows=outcomes[-1].rows, accuracy=outcomes[-1].accuracy,
        peak_rss_mib=peak_kib / 1024.0,
        environment=_environment())
    return result


def setup_only(args):
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    lazy_setup(_import_nldir(), workload)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "reference_s": reference_kernel()()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    result = run(args) if args.mode == "run" else setup_only(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
