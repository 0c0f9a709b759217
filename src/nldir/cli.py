"""Command-line frontend.

Subcommands: sigma, validate-kernel, solve, eigen, sweep, compare,
probe-coercivity. Experiment state lives entirely in the JSON config
and the output files; the config file is never modified. Exit status 0
on success, 1 on a domain error (machine-readable JSON on stderr), 2 on
a usage error. Human-readable numbers print with 6 significant digits;
machine files carry 17.
"""

import argparse
import io
import json
import sys
from dataclasses import replace

import numpy as np

from . import study
from .errors import ConfigError, NldirError
from .kernels import kernel_by_id, normalize_w, sigma_r, validate_kernel
from .spectra import compare_mass_models
from .study import StudyConfig


def _parser():
    ap = argparse.ArgumentParser(
        prog="nldir",
        description="Laboratory for penalized nonlocal Dirichlet energies: "
                    "kernel constants, minimizers, spectra, horizon sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--out", help="override the primary output path")
        sp.add_argument("--threads", type=int,
                        help="override the config's row thread count")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--verbose", action="store_true")
        return sp

    sp = add("sigma", "print the kernel constant sigma_R")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--dim", type=int, required=True)

    sp = add("validate-kernel", "run the kernel admissibility checks")
    sp.add_argument("--kernel", required=True)

    add("solve", "minimize one assembled energy and save the field")
    add("eigen", "compute nonlocal eigenpairs, CSV output")
    add("sweep", "run a horizon sweep from a config")
    add("compare", "sweep several penalty variants on identical meshes")
    add("probe-coercivity", "random-probe coercivity ratios")
    return ap


def _load_config(args) -> StudyConfig:
    if not args.config:
        raise ConfigError("this command requires --config", field="config")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config file not found", field="config",
                          path=args.config)
    except json.JSONDecodeError as exc:
        raise ConfigError("config file is not valid JSON", field="config",
                          path=args.config, detail=str(exc))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8
        raise ConfigError("cannot read config file", field="config",
                          path=args.config, detail=str(exc)) from None
    cfg = StudyConfig.from_dict(data)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_csv=args.out)
    if args.verbose:
        print(f"config: {json.dumps(cfg.to_dict())}", file=sys.stderr)
    return cfg


def _cmd_sigma(args):
    value = sigma_r(kernel_by_id(args.kernel), args.p, args.dim).value
    print(f"{value:.6g}")
    return 0


def _cmd_validate_kernel(args):
    report = validate_kernel(kernel_by_id(args.kernel))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.condition}: {check.detail}")
    report.require()
    return 0


def _cmd_solve(args):
    cfg = _load_config(args)
    delta = cfg.deltas[0]
    op, result, err = study.solve_row(cfg, study.admitted_case(cfg), delta)
    mesh = op.mesh
    if cfg.out_csv:
        text = io.StringIO()
        np.savetxt(text, np.column_stack([mesh.interior_points,
                                          result.minimizer]),
                   fmt="%.17g", delimiter=",", comments="",
                   header=",".join("xyz"[:mesh.dim]) + ",u")
        study.write_output(cfg.out_csv, text.getvalue(), "out_csv")
    print(f"delta {delta:.6g}  nodes {mesh.n_interior}  "
          f"energy {result.energy:.6g}  grad {result.gradient_norm:.6g}  "
          f"iterations {result.iterations}  converged {result.converged}  "
          f"stop {result.stop_reason}  l2_error {err:.6g}")
    return 0


def _cmd_eigen(args):
    cfg = _load_config(args)
    if cfg.eigen_modes < 1:
        raise ConfigError("eigen requires eigen_modes >= 1 in the config",
                          field="eigen_modes", value=cfg.eigen_modes)
    # one zero-datum operator, so both mass models share its layer factor
    op = study.row_operator(cfg, cfg.deltas[0])
    if cfg.eigen_mass == "both":
        cmp = compare_mass_models(
            op, normalize_w(kernel_by_id(cfg.kernel_w), op.mesh.dim),
            cfg.eigen_modes, seed=cfg.seed)
        results = (cmp.l2, cmp.w)
    else:
        results = (study.solve_modes(cfg, op, cfg.eigen_mass),)
    lines = ["mode,lambda,residual,mass_model,delta,h"]
    for res in results:
        mass = res.mass_model
        for mode in range(cfg.eigen_modes):
            lines.append(",".join([
                str(mode + 1), f"{res.eigenvalues[mode]:.17g}",
                f"{res.residuals[mode]:.17g}", mass,
                f"{res.delta:.17g}", f"{res.h:.17g}"]))
            print(f"mode {mode + 1} ({mass}): lambda "
                  f"{res.eigenvalues[mode]:.6g} residual "
                  f"{res.residuals[mode]:.6g}")
    if cfg.out_csv:
        study.write_output(cfg.out_csv, "\n".join(lines) + "\n", "out_csv")
    return 0


def _print_report(report):
    print(study.CSV_HEADER.replace(",", "  "))
    for r in report.rows:
        if r.error is not None:
            print(f"{r.delta:.6g}  {r.h:.6g}  {r.penalty}  {r.p:.6g}  "
                  f"ERROR {r.error}", file=sys.stderr)
        else:
            print(f"{r.delta:.6g}  {r.h:.6g}  {r.penalty}  {r.p:.6g}  "
                  f"{r.l2_error:.6g}  {r.trace_norm:.6g}  {r.energy:.6g}  "
                  f"{r.sigma_r:.6g}  {r.seconds:.6g}")


def _cmd_sweep(args):
    cfg = _load_config(args)
    report = study.run_delta_sweep(cfg)
    _print_report(report)
    return 0 if report.ok_rows() else 1


def _cmd_compare(args):
    cfg = _load_config(args)
    report = study.compare_penalties(cfg, cfg.variants)
    _print_report(report)
    for key, dists in report.environment["pairwise_l2_distances"].items():
        for dstr, dist in dists.items():
            print(f"distance {key} at delta {float(dstr):.6g}: {dist:.6g}")
    return 0 if report.ok_rows() else 1


def _cmd_probe(args):
    cfg = _load_config(args)
    delta = cfg.deltas[0]
    mesh, spec = study.mesh_and_penalty(cfg, delta)
    report = study.coercivity_probe(mesh, spec,
                                    kernel_by_id(cfg.kernel_khat), delta,
                                    cfg.trials, cfg.seed)
    print(f"variant {report.variant}  delta {report.delta:.6g}  "
          f"trials {report.trials}  skipped {report.skipped}  "
          f"min_ratio {report.min_ratio:.6g}  c_n {report.c_n:.6g}")
    # --out, stored as out_csv, wins over the config's out_json
    field = "out_json" if cfg.out_json and not args.out else "out_csv"
    if getattr(cfg, field):
        payload = {"variant": report.variant, "delta": report.delta,
                   "trials": report.trials, "skipped": report.skipped,
                   "min_ratio": report.min_ratio, "c_n": report.c_n,
                   "ratios": [None if np.isinf(r) else r
                              for r in report.ratios]}
        study.write_output(getattr(cfg, field),
                           json.dumps(payload, indent=1), field)
    return 0


_HANDLERS = {
    "sigma": _cmd_sigma,
    "validate-kernel": _cmd_validate_kernel,
    "solve": _cmd_solve,
    "eigen": _cmd_eigen,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "probe-coercivity": _cmd_probe,
}


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except NldirError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
