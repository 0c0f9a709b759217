"""Command-line behavior through in-process dispatch.

Exit-code contract: 0 success, 1 domain error with a JSON payload on
stderr, 2 usage error from the argument parser. Human output prints 6
significant digits; files carry 17.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nldir
from nldir import study
from nldir.cli import dispatch
from nldir.study import CSV_HEADER, StudyConfig


def write_config(tmp_path, **overrides):
    data = {"shape": {"interval": [0.0, 1.0]}, "deltas": [0.2],
            "case": "linear_x", "threads": 1}
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_import_defers_spatial_and_sympy():
    # the scipy modules load inside the functions that need them, and
    # sympy not at all, keeping start-up short
    code = ("import sys, nldir.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'sympy', 'scipy.fft', "
            "'scipy.sparse.linalg') if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nldir.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_pipeline_commands_leave_scipy_spatial_unloaded(tmp_path):
    # assembly, trace and mass matrices come from lattice offsets, so a
    # square sweep, an eigen solve and a coercivity probe never load the
    # k-d tree
    def config(name, **overrides):
        path = write_config(tmp_path, shape={"rect": [[0.0, 0.0],
                                                      [1.0, 1.0]]},
                            **overrides)
        return str(path.rename(tmp_path / name))

    calls = [("sweep", config("sweep.json", case="harmonic_x2_minus_y2")),
             ("eigen", config("eigen.json", case="zero", eigen_modes=1,
                              eigen_mass="both")),
             ("probe-coercivity", config("probe.json", case="zero",
                                         trials=10))]
    code = "\n".join([
        "import sys",
        "from nldir.cli import dispatch",
        f"codes = [dispatch([cmd, '--config', cfg, '--out', cfg + '.out'])"
        f" for cmd, cfg in {calls!r}]",
        "print(codes, 'scipy.spatial' in sys.modules)"])
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nldir.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0] False"


def test_p2_pipeline_commands_build_no_pair_lists(tmp_path, monkeypatch):
    # the energy, the gradient, the Hessian and the boundary layer read
    # per-offset grid slices for every p: a square sweep row, a
    # coercivity probe and a p = 3 sweep row (Newton-CG) never build a
    # sparse stencil matrix; an eigen solve under both masses builds one,
    # the W mass matrix. No operator keeps a list of its pairs.
    real = nldir.assembly._stencil_matrix
    built = []

    def counted(stencil, weights, diagonal=None):
        built.append(sys._getframe(1).f_code.co_name)
        return real(stencil, weights, diagonal)

    monkeypatch.setattr(nldir.assembly, "_stencil_matrix", counted)

    def run(name, command, **overrides):
        path = write_config(tmp_path, **overrides)
        cfg = str(path.rename(tmp_path / name))
        assert dispatch([command, "--config", cfg, "--out", cfg + ".out"]) \
            == 0
        got = list(built)
        built.clear()
        return got

    square = {"rect": [[0.0, 0.0], [1.0, 1.0]]}
    assert run("sweep.json", "sweep", shape=square,
               case="harmonic_x2_minus_y2") == []
    assert run("eigen.json", "eigen", shape=square, case="zero",
               eigen_modes=1, eigen_mass="both") == ["w_mass_matrix"]
    assert run("probe.json", "probe-coercivity", shape=square, case="zero",
               trials=10) == []
    assert run("p3.json", "sweep", p=3.0) == []
    assert run("p3_square.json", "sweep", shape=square, p=3.0,
               deltas=[0.2]) == []
    assert not any(hasattr(nldir.EnergyOperator, name)
                   for name in ("_pairs", "pair_i", "pair_j", "pair_w"))


def test_catalog_and_sweep_run_without_sympy(tmp_path):
    # a None entry in sys.modules makes every `import sympy` raise
    config = write_config(tmp_path)
    rows = tmp_path / "rows.csv"
    code = "\n".join([
        "import sys",
        "sys.modules['sympy'] = None",
        "from nldir import manufactured_case",
        "from nldir.cli import dispatch",
        "for cid in ('zero', 'linear_x', 'harmonic_x2_minus_y2', "
        "'harmonic_xy'):",
        "    manufactured_case(cid)",
        f"sys.exit(dispatch(['sweep', '--config', {str(config)!r}, "
        f"'--out', {str(rows)!r}]))"])
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nldir.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert len(rows.read_text().splitlines()) == 2


# ----------------------------------------------------------------- sigma

def test_sigma_quartic_1d(capsys):
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "2", "--dim", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.152381"


def test_sigma_quartic_2d(capsys):
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "2", "--dim", "2"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.1309"


def test_sigma_quartic_3d(capsys):
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "2", "--dim", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0.106382"  # 32 pi / 945


def test_sigma_at_a_large_exponent(capsys):
    # p = 1000 overflows each Gamma of the sphere moment, not their ratio
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "1e3",
                     "--dim", "1"])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert math.isfinite(value) and value > 0.0


def test_sigma_unknown_kernel_gives_json_error(capsys):
    code = dispatch(["sigma", "--kernel", "gauss", "--p", "2", "--dim", "1"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "KernelError"


def test_sigma_bad_exponent_is_domain_error(capsys):
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "1", "--dim", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]


def _strict_json(text):
    # JSON proper has no NaN or Infinity, which json.loads would accept
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("kernel, p", [
    ("quartic", "inf"),  # would run the ladder to its node budget
    ("quartic", "nan"),
    ("minorant:quartic:1e-300", "2"),  # the knot's square underflows
])
def test_sigma_refusal_is_strict_json(capsys, kernel, p):
    code = dispatch(["sigma", "--kernel", kernel, "--p", p, "--dim", "1"])
    assert code == 1
    assert _strict_json(capsys.readouterr().err.strip())["error"] \
        == "KernelError"


def test_array_payloads_are_strict_json():
    # an ndarray's non-finite entries, and a large array's non-finite
    # norm, are written as strings like a list's, not as bare NaN
    small = np.array([np.nan, 1.0, np.inf])
    large = np.full(40, -np.inf)
    payload = nldir.MeshError("x", a=small, b=small.reshape(3, 1),
                              c=large).payload()
    text = json.dumps(payload, allow_nan=False)
    assert _strict_json(text)["a"] == ["nan", 1.0, "inf"]
    assert payload["b"] == [["nan"], [1.0], ["inf"]]
    assert payload["c"] == {"size": 40, "norm": "inf"}


# -------------------------------------------------------- validate-kernel

def test_validate_kernel_passes_quartic(capsys):
    code = dispatch(["validate-kernel", "--kernel", "quartic"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 3
    assert "FAIL" not in out


def test_validate_kernel_flags_increasing_tabulation(tmp_path, capsys):
    path = tmp_path / "rising.csv"
    s = np.linspace(0.0, 1.2, 200)
    np.savetxt(path, np.column_stack([s, 0.1 + s]), delimiter=",")
    code = dispatch(["validate-kernel", "--kernel", f"tabulated:{path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    payload = json.loads(captured.err.strip())
    assert payload["error"] == "KernelError"
    assert any("K2" in c for c in payload["conditions"])


@pytest.mark.parametrize("rows", ["0,1\n0.5,nan\n1,0\n",
                                  "0,inf\n0.5,0.25\n1,0\n"])
def test_non_finite_tabulation_fails_validation_and_solve(tmp_path, capsys,
                                                          rows):
    # a NaN or infinite sample is refused as the file is read, naming its
    # row, so neither validate-kernel nor a solve (nor sigma, which would
    # run its ladder to the node budget) gets a kernel to work on
    path = tmp_path / "bad.csv"
    path.write_text(rows)
    row = 1 if "nan" in rows else 0
    config = write_config(tmp_path, kernel_r=f"tabulated:{path}")
    for argv in (["validate-kernel", "--kernel", f"tabulated:{path}"],
                 ["sigma", "--kernel", f"tabulated:{path}", "--p", "2",
                  "--dim", "1"],
                 ["solve", "--config", str(config)]):
        code = dispatch(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        payload = _strict_json(captured.err.strip())
        assert payload["error"] == "KernelError"
        assert payload["row"] == row


def test_an_overflowing_sphere_moment_is_a_kernel_error(tmp_path, capsys):
    # at p = 1e308 the log-Gamma of the sphere moment overflows; sigma
    # and a sweep (which computes sigma_R before its rows) refuse it
    code = dispatch(["sigma", "--kernel", "quartic", "--p", "1e308",
                     "--dim", "2"])
    payload = _strict_json(capsys.readouterr().err.strip())
    assert code == 1
    assert payload["error"] == "KernelError" and payload["p"] == 1e308
    config = write_config(tmp_path, p=1e308)
    code = dispatch(["sweep", "--config", str(config)])
    payload = _strict_json(capsys.readouterr().err.strip())
    assert code == 1
    assert payload["error"] == "KernelError" and payload["p"] == 1e308


def test_a_cell_size_too_small_to_lay_out_is_a_mesh_error(tmp_path, capsys):
    # delta = 1e-300 asks for about 4e300 cells: solve refuses it with a
    # MeshError and a sweep records it as that row's error
    config = write_config(tmp_path, deltas=[1e-300])
    code = dispatch(["solve", "--config", str(config)])
    payload = _strict_json(capsys.readouterr().err.strip())
    assert code == 1
    assert payload["error"] == "MeshError" and payload["h"] == 2.5e-301
    rows = tmp_path / "rows.json"
    config = write_config(tmp_path, deltas=[0.1, 1e-300], out_json=str(rows))
    assert dispatch(["sweep", "--config", str(config)]) == 0
    capsys.readouterr()
    got = json.loads(rows.read_text())["rows"]
    assert "error" not in got[0]
    assert got[1]["error"].startswith("MeshError: ")


# ------------------------------------------------------------ usage errors

def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["sweep", "--frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["optimize"]) == 2
    capsys.readouterr()


def test_sigma_has_no_rel_tol_flag(capsys):
    # sigma's midpoint ladder stops at the fixed tolerance 1e-8, and
    # neither kernel command reads a config, so the config commands'
    # flags are usage errors there
    kernel_commands = (["sigma", "--kernel", "quartic", "--p", "2",
                        "--dim", "1"],
                       ["validate-kernel", "--kernel", "quartic"])
    extras = (["--rel-tol", "1e-6"], ["--config", "c.json"],
              ["--out", "o.csv"], ["--threads", "1"], ["--seed", "1"],
              ["--verbose"])
    for argv in kernel_commands:
        for extra in extras:
            assert dispatch(argv + extra) == 2, extra
            assert extra[0] in capsys.readouterr().err


# ---------------------------------------------------------------- config

def test_missing_config_flag(capsys):
    code = dispatch(["sweep"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["field"] == "config"


def test_config_file_not_found(capsys):
    code = dispatch(["sweep", "--config", "/nonexistent/config.json"])
    assert code == 1
    assert "not found" in json.loads(capsys.readouterr().err.strip())["message"]


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = dispatch(["sweep", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert "detail" in payload


def test_config_unknown_field_named(tmp_path, capsys):
    path = write_config(tmp_path, horizon=0.2)
    code = dispatch(["sweep", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["field"] == "horizon"


def test_solver_seed_is_refused(tmp_path, capsys):
    # the eigen start block is seeded by the top-level seed alone, so a
    # seed among the solver options would be accepted and ignored
    path = write_config(tmp_path, solver={"tol": 1e-8, "seed": 7})
    assert dispatch(["sweep", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert payload["field"] == "seed"


@pytest.mark.parametrize("config, field", [
    (5, "config"),
    ([{"a": 1}], "config"),
    ({"solver": 5}, "solver"),
    ({"deltas": 0.1}, "deltas"),
    ({"threads": "2"}, "threads"),
    ({"ratio": "4"}, "ratio"),
    ({"p": "3"}, "p"),
    ({"kernel_r": 5}, "kernel_r"),
    ({"shi_delta_sq_prefactor": "yes"}, "shi_delta_sq_prefactor"),
    ({"solver": {"tol": "1e-8"}}, "tol"),
    ({"seed": -1}, "seed"),
    ({"deltas": [True]}, "deltas"),
    ({"deltas": ["0.1"]}, "deltas"),
    (b"{\xff}", "config"),  # not UTF-8
    (None, "config"),  # the config path is a directory
    ({"p": math.inf}, "p"),  # json.dumps writes Infinity and NaN
    ({"deltas": [0.2, math.nan]}, "deltas"),
    ({"ratio": math.inf}, "ratio"),
    ({"variant": "nope"}, "variant"),
    ({"variants": ["product", "nope"]}, "variants"),
    ({"variants": ["product", "product"]}, "variants"),
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, config, field):
    # a value of the wrong JSON type or range, or a config file that
    # cannot be read, exits 1 with a ConfigError naming its field, not
    # with a Python traceback or a silently accepted value
    if isinstance(config, dict):
        path = write_config(tmp_path, **config)
    elif config is None:
        path = tmp_path
    else:
        path = tmp_path / "config.json"
        path.write_bytes(config if isinstance(config, bytes)
                         else json.dumps(config).encode())
    assert dispatch(["sweep", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigError"
    assert payload["field"] == field


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert dispatch(["sweep", "--config", str(path), "--seed", "-1"]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert (payload["error"], payload["field"]) == ("ConfigError", "seed")


@pytest.mark.parametrize("command, overrides", [
    ("solve", {}),
    ("sweep", {}),
    ("sweep", {"out_json": "missing/rows.json"}),
    ("compare", {"variants": ["product", "pointwise"]}),
    ("eigen", {"case": "zero", "eigen_modes": 1}),
    ("probe-coercivity", {"case": "zero", "trials": 10}),
])
def test_unwritable_output_is_a_config_error(tmp_path, monkeypatch, capsys,
                                             command, overrides):
    # an output path in a missing directory exits 1 with a ConfigError
    # naming the config field and the path, not with a traceback
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, **overrides)
    argv = [command, "--config", str(path)]
    field, out = "out_json", overrides.get("out_json")
    if out is None:
        field, out = "out_csv", "missing/out.csv"
        argv += ["--out", out]
    assert dispatch(argv) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert (payload["error"], payload["field"], payload["path"]) \
        == ("ConfigError", field, out)


@pytest.mark.parametrize("shape", [
    {"interval": "ab"},
    {"interval": [0]},
    {"interval": [0, "x"]},
    {"rect": 5},
    {"rect": [[0, 0], [1]]},
    {"polygon": [[0, 0], [1, 0], [1]]},
])
def test_malformed_shape_is_a_mesh_error(tmp_path, capsys, shape):
    # coordinates that are not numbers of the shape's layout exit 1 with
    # a MeshError naming the shape kind, not with a Python traceback
    path = write_config(tmp_path, shape=shape)
    assert dispatch(["solve", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "MeshError"
    assert payload["kind"] == next(iter(shape))


@pytest.mark.parametrize("command, overrides", [
    ("solve", {}),
    ("eigen", {"case": "zero", "eigen_modes": 2, "eigen_mass": "both"}),
    ("probe-coercivity", {"case": "zero", "trials": 10}),
])
def test_single_delta_commands_run_the_first_delta(tmp_path, capsys,
                                                   command, overrides):
    # solve, eigen and probe-coercivity run deltas[0] and ignore the
    # rest of the list: stdout and the written file are the same as for
    # a config listing the first delta alone
    outputs = []
    for deltas in ([0.2, 0.1], [0.2]):
        run = tmp_path / str(len(deltas))
        run.mkdir()
        path = write_config(run, deltas=deltas, **overrides)
        out = run / "out"
        assert dispatch([command, "--config", str(path),
                         "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_text()))
    assert outputs[0] == outputs[1]


def test_threads_default_is_the_config_default(tmp_path, capsys,
                                               monkeypatch):
    # a config without threads runs its rows serially: the CLI neither
    # reads the environment nor counts CPUs
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"shape": {"interval": [0.0, 1.0]},
                                "deltas": [0.2], "case": "linear_x"}))
    monkeypatch.setenv("NLDIR_THREADS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code = dispatch(["sweep", "--config", str(path), "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    line = next(l for l in captured.err.splitlines() if l.startswith("config:"))
    assert json.loads(line[len("config:"):])["threads"] == 1


def test_threads_flag_beats_config(tmp_path, capsys):
    path = write_config(tmp_path, threads=3)
    code = dispatch(["sweep", "--config", str(path), "--threads", "2",
                     "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    line = next(l for l in captured.err.splitlines() if l.startswith("config:"))
    assert json.loads(line[len("config:"):])["threads"] == 2


def test_seed_override_visible_in_verbose(tmp_path, capsys):
    path = write_config(tmp_path)
    code = dispatch(["sweep", "--config", str(path), "--seed", "99",
                     "--verbose"])
    captured = capsys.readouterr()
    assert code == 0
    line = next(l for l in captured.err.splitlines() if l.startswith("config:"))
    assert json.loads(line[len("config:"):])["seed"] == 99


# ----------------------------------------------------------------- sweep

def test_sweep_writes_csv_and_leaves_config_alone(tmp_path, capsys):
    path = write_config(tmp_path, deltas=[0.2, 0.1])
    before = path.read_bytes()
    out = tmp_path / "rows.csv"
    code = dispatch(["sweep", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert path.read_bytes() == before
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    # machine precision: 17 significant digits for delta
    assert lines[1].split(",")[0] == f"{0.2:.17g}"
    assert CSV_HEADER.replace(",", "  ") in captured.out


def test_sweep_all_rows_failing_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, deltas=[8.0])
    code = dispatch(["sweep", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "ERROR" in captured.err


# ----------------------------------------------------------------- solve

def test_solve_writes_field_csv(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "field.csv"
    code = dispatch(["solve", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "l2_error" in captured.out
    assert "converged True" in captured.out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,u"
    assert len(lines) == 1 + 20   # h = 0.05 on the unit interval
    x0, u0 = lines[1].split(",")
    assert float(x0) == pytest.approx(0.025)
    assert len(u0) >= 17   # full precision written


def test_solve_rejects_the_case_the_sweep_rejects(tmp_path, capsys):
    # x^2 - y^2 is the minimizer at p = 2 only, so its error at p = 3
    # would measure nothing; solve refuses it as the sweep does
    path = write_config(tmp_path, shape={"rect": [[0.0, 0.0], [1.0, 1.0]]},
                        case="harmonic_x2_minus_y2", p=3.0)
    payloads = []
    for command in ("solve", "sweep"):
        assert dispatch([command, "--config", str(path)]) == 1
        payloads.append(json.loads(capsys.readouterr().err.strip()))
    assert payloads[0] == payloads[1]
    assert payloads[0]["error"] == "ConfigError"
    assert (payloads[0]["case"], payloads[0]["dim"], payloads[0]["p"]) \
        == ("harmonic_x2_minus_y2", 2, 3.0)


@pytest.mark.parametrize("overrides", [
    {},
    {"shape": {"rect": [[0.0, 0.0], [1.0, 1.0]]},
     "case": "harmonic_x2_minus_y2"},
    {"p": 3.0, "solver": {"tol": 1e-8}},
])
def test_solve_field_is_the_sweep_minimizer(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "field.csv"
    assert dispatch(["solve", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = StudyConfig.from_dict(json.loads(path.read_text()))
    _, fields = study._sweep_with_fields(cfg)
    u, mesh = fields[cfg.deltas[0]]
    written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(written, np.column_stack([mesh.interior_points,
                                                    u]))


# ----------------------------------------------------------------- eigen

def test_eigen_csv_both_masses(tmp_path, capsys):
    path = write_config(tmp_path, case="zero", eigen_modes=2,
                        eigen_mass="both")
    out = tmp_path / "modes.csv"
    code = dispatch(["eigen", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "mode,lambda,residual,mass_model,delta,h"
    assert len(lines) == 5
    assert lines[1].split(",")[3] == "L2"
    assert lines[3].split(",")[3] == "nonlocalW"
    assert captured.out.count("mode 1") == 2


def test_eigen_requires_modes_in_config(tmp_path, capsys):
    path = write_config(tmp_path, case="zero")
    code = dispatch(["eigen", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["field"] == "eigen_modes"


def test_eigen_l2_lambdas_are_the_sweep_rows(tmp_path, capsys):
    # the row twins its datum operator to zero data; the command
    # assembles zero data directly; both solve with the same budget
    path = write_config(tmp_path, eigen_modes=2, eigen_mass="both")
    out = tmp_path / "modes.csv"
    assert dispatch(["eigen", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    lambdas = [float(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]
               if line.split(",")[3] == "L2"]
    cfg = StudyConfig.from_dict(dict(json.loads(path.read_text()),
                                     eigen_mass="L2"))
    row, = study.run_delta_sweep(cfg).rows
    assert lambdas == list(row.eigen_lambdas)


def test_eigen_at_p3_gives_the_sweep_rows_error(tmp_path, capsys):
    path = write_config(tmp_path, eigen_modes=1, p=3.0)
    assert dispatch(["eigen", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "SolverError"
    row, = study.run_delta_sweep(
        StudyConfig.from_dict(json.loads(path.read_text()))).rows
    assert row.error == f"SolverError: {payload['message']}"


# --------------------------------------------------------------- compare

def test_compare_prints_distances(tmp_path, capsys):
    path = write_config(tmp_path, variants=["product", "wang"])
    code = dispatch(["compare", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "distance product|wang at delta 0.2:" in captured.out


def test_compare_requires_variants(tmp_path, capsys):
    path = write_config(tmp_path)
    code = dispatch(["compare", "--config", str(path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["field"] == "variants"


# ------------------------------------------------------------------ probe

def test_probe_coercivity_reports_and_saves(tmp_path, capsys):
    path = write_config(tmp_path, case="zero", trials=10,
                        out_json=str(tmp_path / "probe.json"))
    code = dispatch(["probe-coercivity", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "min_ratio" in captured.out
    doc = json.loads((tmp_path / "probe.json").read_text())
    assert doc["variant"] == "product"
    assert len(doc["ratios"]) == 10
    assert doc["min_ratio"] > 0


def test_probe_coercivity_refuses_p_other_than_2(tmp_path, capsys):
    # the probe's penalty energy is the p = 2 form, whatever p says
    path = write_config(tmp_path, case="zero", trials=10, p=3.0)
    assert dispatch(["probe-coercivity", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ConfigError" and payload["field"] == "p"


def test_a_penalty_that_imposes_nothing_is_refused(tmp_path, capsys):
    # on the interval at delta = 0.2, ratio 4, this minorant's support
    # reaches no interior node from either end, so no datum is imposed:
    # solve and eigen exit 1 and the sweep row records the refusal
    path = write_config(tmp_path, kernel_k="minorant:quartic:0.01",
                        eigen_modes=1)
    for command in ("solve", "eigen"):
        assert dispatch([command, "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "AssemblyError" and payload["node"] == 0
    assert dispatch(["sweep", "--config", str(path)]) == 1
    assert "AssemblyError: penalty kernel row" in capsys.readouterr().err


def test_probe_coercivity_out_flag_wins_over_out_json(tmp_path):
    # --out writes the report there; a config's out_json alone still
    # gets it, as does an out_csv alone
    cfg_json, flag_json = tmp_path / "cfg.json", tmp_path / "flag.json"
    path = write_config(tmp_path, case="zero", trials=10,
                        out_json=str(cfg_json))
    assert dispatch(["probe-coercivity", "--config", str(path),
                     "--out", str(flag_json)]) == 0
    assert not cfg_json.exists()
    report = json.loads(flag_json.read_text())
    assert len(report["ratios"]) == 10
    assert dispatch(["probe-coercivity", "--config", str(path)]) == 0
    assert json.loads(cfg_json.read_text()) == report
    csv_only = tmp_path / "csv_only.json"
    path = write_config(tmp_path, case="zero", trials=10,
                        out_csv=str(csv_only))
    assert dispatch(["probe-coercivity", "--config", str(path)]) == 0
    assert json.loads(csv_only.read_text()) == report
