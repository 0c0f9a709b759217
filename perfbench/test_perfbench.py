"""Tests of the benchmark itself, on the --smoke inputs.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_workloads_and_layer_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == \
        [name for name, _, _ in harness.PER_LAYER]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, unit, _ in harness.PER_LAYER}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace):
    got = _run("--workload", workload, "--seed", "12345", "--seconds", "0.1",
               "--trace", str(trace), "--smoke")
    assert got.returncode == 0, got.stdout + got.stderr
    lines = got.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert not any(line.startswith("check FAIL") for line in lines)
    names = ["wall_s", "setup_s", "peak_rss_mb", "failed_ratio"]
    for part in harness.WORKLOADS[workload].parts:
        names += [f"{part.name}.wall_s", f"{part.name}.failed_ratio"]
        if part.check is harness._eigen_checks:
            names.append(f"{part.name}.lambda_rel_err")
        elif part.calls[0][0] == "sweep":
            names.append(f"{part.name}.l2_error")
    for name in names:
        assert any(line.startswith(f"metric {name} ") for line in lines)
    if trace:
        assert result["metrics"]["trace.self_coverage"]["value"] == \
            pytest.approx(1.0, abs=0.05)
    # unconverged p = 3 rows count as failed operations without failing
    # the run; every other workload's operations all succeed
    if workload == "sweeps":
        assert 0 <= result["failed"] <= result["attempted"]
    else:
        assert result["failed"] == 0


def test_missing_or_changed_boundary_is_reported_absent(monkeypatch):
    nldir = harness._import_nldir()
    monkeypatch.delattr(nldir.geometry, "neighbor_pairs")
    # a solver whose result no longer carries an iteration count
    monkeypatch.setattr(nldir.minimize, "solve_quadratic",
                        lambda *args, **kwargs: object())
    tracer = Tracer()
    tracer.install()
    try:
        mesh = nldir.build_mesh({"interval": [0.0, 1.0]}, 0.05)
        op = nldir.assembly.assemble(
            mesh, nldir.QUARTIC, nldir.PenaltySpec("product", nldir.QUARTIC),
            0.2)
        nldir.minimize.solve_quadratic(op)
    finally:
        tracer.uninstall()
    metrics, absent, _ = harness.layer_metrics(tracer, 1.0, 0.0)
    assert tracer.absent == ["geometry.neighbor_pairs"]
    assert tracer.unreadable == {"minimize.solve_quadratic"}
    assert set(absent) == {
        "geometry.neighbor_pairs.s", "geometry.neighbor_pairs.calls",
        "geometry.neighbor_pairs.reuse", "geometry.pairs",
        "minimize.cg_iterations"}
    assert metrics["geometry.pairs"]["value"] == 0
    assert metrics["minimize.solve_quadratic.s"]["value"] > 0
    assert metrics["assembly.assemble.calls"]["value"] == 1
    assert metrics["geometry.build_mesh.s"]["value"] > 0
    assert getattr(nldir.assembly.assemble, "__wrapped__", None) is None


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = _run("--workload", "eigen_probe", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
