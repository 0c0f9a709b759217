"""nldir benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S \
        --trace 0|1 [--smoke]

Run from the root of a source checkout; nldir is imported from ./src.
With --trace 0 the workload runs untraced for about S seconds and the
last line of stdout is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json. With --trace 1 it runs one untraced and one
traced pass and reports the per-layer metrics instead. --smoke runs the
same calls on small inputs, for the benchmark's own tests. --workload all
runs every workload in turn, each in its own processes.

Every run checks the program's outputs. A failed check prints
`"correct": false` with no metrics and exits 1; a run that cannot start
(no ./src/nldir) or whose worker crashes prints no result and exits 2
or 1. All files the run writes go to ./.perfbench_work/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import WORKLOADS, rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "nldir"
# the end-to-end metrics of BENCHMARK.json: the ones that exist and are
# nonzero on every workload; the others are printed above the result
REPORTED = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_SAMPLES = 5     # fresh processes whose set-up times give setup_s
DEADLINE_S = 170.0    # the whole run, all processes included
# one BLAS/OpenMP thread, matching nldir's --threads 1
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def _tail(samples):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return f"p{q:g}", cut[round(q * 10) - 1]
    return None, None


def _source_identity():
    """Git commit when the checkout is a repository, and a digest of the
    nldir sources either way."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if got.returncode == 0:
            commit = got.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return commit, digest.hexdigest()[:16]


def _harness(mode, args, result, deadline, extra=()):
    """Run harness.py in a fresh process; its output goes to files in the
    work directory. Returns the parsed result, or exits 1 on a crash."""
    env = dict(os.environ, **PINNED)
    cmd = [sys.executable, str(HERE / "harness.py"), mode,
           "--workload", args.workload, "--result", str(result), *extra]
    log = result.with_suffix(".log")
    with open(log, "w", encoding="utf-8") as out:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=out,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.is_file():
        text = log.read_text(encoding="utf-8", errors="replace")
        print(f"perfbench: harness {mode} failed ({code}):\n{text[-4000:]}",
              file=sys.stderr)
        sys.exit(1)
    return json.loads(result.read_text(encoding="utf-8"))


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no nldir sources at {PACKAGE}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    codes = [run_workload(argparse.Namespace(**{**vars(args),
                                                 "workload": name}))
             for name in WORKLOADS]
    return max(codes)


def run_workload(args):
    """Run one workload, print its report and result line; returns the
    exit status."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setups = []   # (set-up seconds, reference seconds) per fresh process
    if not args.trace:
        for i in range(1 if args.smoke else SETUP_SAMPLES):
            got = _harness("setup", args, workdir / f"setup{i}.json", deadline)
            setups.append((got["setup_s"], got["reference_s"]))
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.smoke:
        extra.append("--smoke")
    res = _harness("run", args, workdir / "run.json", deadline, extra)
    # a traced run has only its own set-up, not rescaled
    setup_raw = [t for t, _ in setups] or [res["setup_s"]]
    setup_scaled = [rescale(t, r) for t, r in setups] or setup_raw
    commit, source = _source_identity()
    env = dict(res["environment"], git_commit=commit, source_sha256=source,
               threads=1, seed=args.seed,
               nldir_seeds=",".join(f"{k}:{v}"
                                    for k, v in res["nldir_seeds"].items()))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for check in res["checks"]:
        print(f"check {'PASS' if check['passed'] else 'FAIL'} "
              f"{check['name']}: {check['detail']}")
    for row in res["rows"]:
        print("row " + " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                                for k, v in row.items()))
    for i, row in enumerate(res.get("row_counts", [])):
        print(f"mesh {i} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for mass, its in res.get("eigen_iterations", []):
        print(f"eigen iterations {mass}: {list(its)}")

    raw, passes = res["passes_s"], res["scaled_passes_s"]
    # a traced run times no reference kernel, so nothing is rescaled
    speed = "rescaled" if res["reference_s"] else "as timed"
    tail_name, tail_value = _tail(passes)
    tail = (f"{tail_name} {tail_value:.6g} s" if tail_name
            else "no percentile has 10 samples beyond it")
    end_to_end = [
        ("wall_s", statistics.median(passes), "s",
         f"median of {len(passes)} untraced passes {speed}; {tail}"),
        ("wall_raw_s", statistics.median(raw), "s",
         "the same passes as timed, not rescaled"),
        ("setup_s", statistics.median(setup_scaled), "s",
         f"median of {len(setup_scaled)} fresh processes "
         + ("rescaled" if setups else "as timed")),
        ("setup_raw_s", statistics.median(setup_raw), "s",
         "the same set-ups as timed, not rescaled"),
        ("peak_rss_mb", res["peak_rss_mib"], "MiB",
         "workload process, set-up and first pass"),
        ("failed_ratio", res["failed"] / res["attempted"], "1",
         f"{res['failed']} of {res['attempted']} operations"),
    ]
    # each part's own figures, printed but not in BENCHMARK.json
    for part, acc in res["accuracy"].items():
        seconds = res["parts_s"][part]
        end_to_end += [
            (f"{part}.wall_s", statistics.median(seconds), "s",
             f"median of {len(seconds)} untraced passes {speed}"),
            (f"{part}.failed_ratio", acc["failed"] / acc["attempted"], "1",
             f"{acc['failed']} of {acc['attempted']} operations"
             + (f"; unconverged deltas {acc['unconverged_deltas']}"
                if "unconverged_deltas" in acc else "")),
        ]
        if "l2_error" in acc:
            end_to_end.append((f"{part}.l2_error", acc["l2_error"], "1",
                               "final sweep row"))
        if "lambda_rel_err" in acc:
            end_to_end.append((f"{part}.lambda_rel_err",
                               acc["lambda_rel_err"], "1",
                               "L2 mass, modes 1-3"))
    print("passes_s " + " ".join(f"{x:.4f}" for x in raw))
    print("reference_s " + " ".join(f"{x:.4f}" for x in res["reference_s"]))
    for name, value, unit, note in end_to_end:
        print(f"metric {name} {_fmt(value)} {unit} ({note})")
    if args.trace:
        print("layer self_s " + " ".join(
            f"{k}={v:.6g}" for k, v in res["layer_self_s"].items()))
        for name, m in res["layer_metrics"].items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        print(f"absent boundaries: {res['absent_boundaries'] or 'none'}; "
              f"metrics reported as absent: {res['absent'] or 'none'}")

    correct = all(check["passed"] for check in res["checks"])
    metrics = {}
    if correct and args.trace:
        metrics = res["layer_metrics"]
    elif correct:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in end_to_end
                   if name in REPORTED}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
