"""Sweep driver, manufactured catalog, coercivity probes, reports.

Coercivity fixtures below were frozen from a 100-trial pilot on the
unit square with this exact code and seed (12345): product penalty
min_ratio 22.78 at delta=0.1 (c_n 0.228) and 100.48 at delta=0.05
(c_n 0.251); dirac_diagonal 441.77 (c_n 4.42) and 1955.6 (c_n 4.89).
Thresholds keep a factor-two margin from those measurements. The
module-level tests run a lighter interval version; the full square
pilot is re-executed in the acceptance gate.
"""

import json

import numpy as np
import pytest

from nldir import (ConfigError, EigenProblem, KernelError, PenaltySpec,
                   SolveOptions,
                   StudyConfig, StudyReport, assemble, boundary_data,
                   build_mesh, coercivity_probe, compare_penalties,
                   manufactured_case, report_csv_text, report_json_dict,
                   run_delta_sweep, solve_eigen)
from nldir.kernels import QUARTIC, KernelSpec, kernel_by_id, normalize_w
from nldir import study
from nldir.study import CSV_HEADER

LINEAR_CFG = StudyConfig(shape={"interval": [0.0, 1.0]},
                         deltas=(0.2, 0.1, 0.05), case="linear_x")


def rows_equal_modulo_seconds(a, b):
    for ra, rb in zip(a, b):
        for name in ("delta", "h", "penalty", "p", "l2_error", "trace_norm",
                     "energy", "sigma_r", "ratio_to_limit", "converged",
                     "iterations", "eigen_lambdas", "error"):
            if getattr(ra, name) != getattr(rb, name):
                return False
    return len(a) == len(b)


# --------------------------------------------------------------- config

def test_config_round_trips_through_dict():
    cfg = StudyConfig(shape={"rect": [[0.0, 0.0], [1.0, 1.0]]},
                      deltas=(0.2, 0.1), ratio=8.0, p=3.0, case="zero",
                      solver=SolveOptions(tol=1e-8), eigen_modes=2,
                      variants=("product", "wang"))
    back = StudyConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_from_dict_names_unknown_field():
    with pytest.raises(ConfigError) as exc:
        StudyConfig.from_dict({"shape": {"interval": [0, 1]},
                               "deltas": [0.2], "mesh_size": 0.05})
    assert exc.value.info["field"] == "mesh_size"
    assert "deltas" in exc.value.info["supported"]


@pytest.mark.parametrize("bad", [
    dict(deltas=()),
    dict(deltas=(0.1, 0.2)),
    dict(deltas=(0.2, 0.2)),
    dict(deltas=(0.2, -0.1)),
    dict(deltas=(0.2,), ratio=1.5),
    dict(deltas=(0.2,), p=1.0),
    dict(deltas=(0.2,), eigen_modes=-1),
    dict(deltas=(0.2,), eigen_mass="diag"),
    dict(deltas=(0.2,), threads=0),
    dict(deltas=(0.2,), seed=-1),
    dict(deltas=(True,)),
    dict(deltas=("0.1",)),
    dict(deltas=(0.2,), p=float("inf")),
    dict(deltas=(0.2, float("nan"))),
    dict(deltas=(0.2,), ratio=float("inf")),
    dict(deltas=(0.2,), variant="nope"),
    dict(deltas=(0.2,), variants=("product", "nope")),
    dict(deltas=(0.2,), variants=("product", "product")),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        StudyConfig(shape={"interval": [0.0, 1.0]}, **bad)


def test_nested_solver_options_parse():
    cfg = StudyConfig.from_dict({
        "shape": {"interval": [0.0, 1.0]}, "deltas": [0.2],
        "solver": {"tol": 1e-7, "max_iter": 500}})
    assert cfg.solver.tol == 1e-7
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({
            "shape": {"interval": [0.0, 1.0]}, "deltas": [0.2],
            "solver": {"tol": 1e-7, "verbosity": 3}})


# -------------------------------------------------------------- catalog

def test_catalog_contents():
    for cid in ("zero", "linear_x", "harmonic_x2_minus_y2", "harmonic_xy"):
        case = manufactured_case(cid)
        assert case.id == cid
    with pytest.raises(ConfigError) as exc:
        manufactured_case("quartic_bump")
    assert "harmonic_xy" in exc.value.info["catalog"]


def test_catalog_admits_rules():
    assert manufactured_case("zero").admits(1, 3.0)
    assert manufactured_case("linear_x").admits(2, 4.5)
    harm = manufactured_case("harmonic_xy")
    assert harm.admits(2, 2.0)
    assert not harm.admits(1, 2.0)
    assert not harm.admits(2, 3.0)


def test_catalog_exact_values():
    pts1 = np.array([[0.25], [0.5]])
    assert np.allclose(manufactured_case("linear_x").exact(pts1), [0.25, 0.5])
    assert np.all(manufactured_case("zero").exact(pts1) == 0.0)
    pts2 = np.array([[0.5, 0.25], [1.0, 1.0]])
    assert np.allclose(manufactured_case("harmonic_x2_minus_y2").exact(pts2),
                       [0.1875, 0.0])
    # |grad(x^2-y^2)|^2 = 4(x^2+y^2)
    assert np.allclose(
        manufactured_case("harmonic_x2_minus_y2").grad_power(pts2, 2.0),
        [4 * (0.25 + 0.0625), 8.0])
    assert np.allclose(manufactured_case("linear_x").grad_power(pts1, 3.0),
                       [1.0, 1.0])


CASE_IDS = ("zero", "linear_x", "harmonic_x2_minus_y2", "harmonic_xy")


def test_catalog_solves_its_local_problems():
    # difference quotients with step 0.1 are exact for quadratics up to
    # rounding: the harmonic entries have a vanishing 5-point Laplacian,
    # the affine ones vanishing second differences, and |grad u|^2 is the
    # sum of the squared central differences
    pts = np.random.default_rng(31).uniform(-1.0, 1.0, (64, 2))
    h = 0.1
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    for cid in CASE_IDS:
        case = manufactured_case(cid)
        u = case.exact
        uxx = (u(pts + ex) - 2.0 * u(pts) + u(pts - ex)) / h**2
        uyy = (u(pts + ey) - 2.0 * u(pts) + u(pts - ey)) / h**2
        uxy = (u(pts + ex + ey) - u(pts + ex - ey) - u(pts - ex + ey)
               + u(pts - ex - ey)) / (4.0 * h**2)
        if cid.startswith("harmonic_"):
            assert np.max(np.abs(uxx + uyy)) <= 1e-10, cid
        else:
            assert np.max(np.abs([uxx, uyy, uxy])) <= 1e-10, cid
        gx = (u(pts + ex) - u(pts - ex)) / (2.0 * h)
        gy = (u(pts + ey) - u(pts - ey)) / (2.0 * h)
        assert np.allclose(case.grad_power(pts, 2.0), gx**2 + gy**2,
                           rtol=1e-10, atol=1e-10), cid


@pytest.mark.parametrize("shape", [{"interval": [0.0, 1.0]},
                                   {"rect": [[0.0, 0.0], [1.0, 1.0]]}])
def test_boundary_data_is_the_exact_solution(shape):
    mesh = build_mesh(shape, 0.125)
    for cid in CASE_IDS:
        case = manufactured_case(cid)
        if case.admits(mesh.dim, 2.0):
            assert np.array_equal(boundary_data(mesh, case.id),
                                  case.exact(mesh.boundary_points)), cid


def test_incompatible_case_is_rejected_up_front():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="harmonic_xy")
    with pytest.raises(ConfigError):
        run_delta_sweep(cfg)


# --------------------------------------------------------------- sweeps

def test_linear_sweep_trends():
    rep = run_delta_sweep(LINEAR_CFG)
    rows = rep.ok_rows()
    assert len(rows) == 3
    l2 = [r.l2_error for r in rows]
    tr = [r.trace_norm for r in rows]
    assert l2[0] > l2[1] > l2[2]
    assert tr[0] > tr[1] > tr[2]
    gaps = [abs(r.ratio_to_limit - 1.0) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in rows:
        assert 0.85 <= r.ratio_to_limit <= 1.25
        assert r.converged
        assert r.sigma_r == pytest.approx(16.0 / 105.0, rel=1e-6)
        assert r.h == pytest.approx(r.delta / 4.0, rel=1e-12)
        assert r.seconds >= 0.0


def test_failing_row_is_recorded_not_raised():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(8.0, 0.2),
                      case="linear_x")
    rep = run_delta_sweep(cfg)
    assert len(rep.rows) == 2
    bad, good = rep.rows
    assert bad.error is not None and bad.error.startswith("MeshError")
    assert bad.l2_error is None
    assert good.error is None
    assert rep.ok_rows() == [good]


def test_sweep_validates_r_before_sigma_r(tmp_path, monkeypatch):
    # sigma_r on an inadmissible kernel may spend its quadrature budget
    # on a meaningless moment; the sweep refuses R first
    path = tmp_path / "negative.csv"
    path.write_text("0,1\n0.5,-0.5\n1,0\n")

    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma_r ran on an invalid kernel")

    monkeypatch.setattr(study, "sigma_r", no_sigma)
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="linear_x", kernel_r=f"tabulated:{path}")
    with pytest.raises(KernelError) as exc:
        run_delta_sweep(cfg)
    assert exc.value.info["conditions"] == ["nonnegative", "K2 monotone",
                                            "K1 smoothness"]


def test_sweep_deterministic_modulo_seconds():
    r1 = run_delta_sweep(LINEAR_CFG)
    r2 = run_delta_sweep(LINEAR_CFG)
    assert rows_equal_modulo_seconds(r1.rows, r2.rows)


def test_threaded_sweep_matches_serial():
    import dataclasses
    threaded = dataclasses.replace(LINEAR_CFG, threads=3)
    r1 = run_delta_sweep(LINEAR_CFG)
    r2 = run_delta_sweep(threaded)
    assert rows_equal_modulo_seconds(r1.rows, r2.rows)


def test_sweep_environment_stamp():
    rep = run_delta_sweep(LINEAR_CFG)
    env = rep.environment
    assert env["kernels"]["R"] == "quartic"
    assert env["case"] == "linear_x"
    assert env["shape"] == {"interval": [0.0, 1.0]}
    assert env["ratio"] == 4.0
    assert "version" in env


def test_eigen_rows_carry_lambdas():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="zero", eigen_modes=2)
    rep = run_delta_sweep(cfg)
    row = rep.ok_rows()[0]
    assert len(row.eigen_lambdas) == 2
    assert 0.0 < row.eigen_lambdas[0] < row.eigen_lambdas[1]


@pytest.mark.parametrize("run", [
    run_delta_sweep, lambda cfg: compare_penalties(cfg, ["product"])],
    ids=["sweep", "compare"])
def test_sweep_rejects_both_mass_models(run):
    # a row records one eigenvalue list; "both" belongs to the eigen command
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="zero", eigen_modes=1, eigen_mass="both")
    with pytest.raises(ConfigError) as info:
        run(cfg)
    assert info.value.info["field"] == "eigen_mass"


def test_eigen_row_reuses_the_row_operator(monkeypatch):
    # the zero-datum stiffness, the trace matrix and the W mass form
    # (kernel_w has the stiffness's support) share the row operator's
    # stencil, so the row builds one lattice stencil
    build = study.assembly.lattice_stencil
    for mass in ("L2", "nonlocalW"):
        cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                          case="linear_x", eigen_modes=1, eigen_mass=mass)
        calls = []

        def counted(mesh, radius):
            calls.append(radius)
            return build(mesh, radius)

        monkeypatch.setattr(study.assembly, "lattice_stencil", counted)
        row = run_delta_sweep(cfg).ok_rows()[0]
        assert len(calls) == 1, mass
        monkeypatch.undo()
        mesh = build_mesh(cfg.shape, 0.2 / cfg.ratio)
        op0 = assemble(mesh, kernel_by_id(cfg.kernel_r),
                       PenaltySpec(cfg.variant, kernel_by_id(cfg.kernel_k)),
                       0.2, cfg.p, np.zeros(mesh.n_boundary))
        W = (None if mass == "L2"
             else normalize_w(kernel_by_id(cfg.kernel_w), mesh.dim))
        eig = solve_eigen(EigenProblem(op0, mass, 1, W=W),
                          SolveOptions(tol=1e-9, max_iter=2000),
                          seed=cfg.seed)
        assert row.eigen_lambdas == tuple(float(v) for v in eig.eigenvalues)


def test_square_p2_row_solves_without_a_matvec(monkeypatch):
    # the deflated CG step returns A z from its DST and layer solves, so
    # inside solve_quadratic apply_quadratic never runs
    inside, calls = [False], []
    solve = study.solve_quadratic
    apply_quadratic = study.assembly.EnergyOperator.apply_quadratic

    def counted_solve(*args, **kwargs):
        inside[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            inside[0] = False

    def counted_apply(self, u):
        calls.append(inside[0])
        return apply_quadratic(self, u)

    monkeypatch.setattr(study, "solve_quadratic", counted_solve)
    monkeypatch.setattr(study.assembly.EnergyOperator, "apply_quadratic",
                        counted_apply)
    cfg = StudyConfig(shape={"rect": [[0.0, 0.0], [1.0, 1.0]]},
                      deltas=(0.1,), case="harmonic_x2_minus_y2")
    row = run_delta_sweep(cfg).ok_rows()[0]
    assert row.converged and row.iterations >= 1
    assert not any(calls)


def test_zero_case_minimizer_is_zero():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="zero")
    row = run_delta_sweep(cfg).ok_rows()[0]
    assert row.l2_error == 0.0
    assert row.energy == 0.0
    assert row.ratio_to_limit is None


# -------------------------------------------------------------- reports

def test_csv_text_layout():
    rep = run_delta_sweep(LINEAR_CFG)
    text = report_csv_text(rep)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == f"{0.2:.17g}"
    assert first[2] == "product"
    assert len(first) == len(CSV_HEADER.split(","))


def test_json_mirror_includes_error_rows():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(8.0, 0.2),
                      case="linear_x")
    rep = run_delta_sweep(cfg)
    doc = report_json_dict(rep)
    assert len(doc["rows"]) == 2
    assert "error" in doc["rows"][0]
    assert "l2_error" in doc["rows"][1]
    assert doc["environment"]["case"] == "linear_x"


def test_output_files_written(tmp_path):
    import dataclasses
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    cfg = dataclasses.replace(LINEAR_CFG, deltas=(0.2,),
                              out_csv=str(csv_path), out_json=str(json_path))
    run_delta_sweep(cfg)
    assert csv_path.read_text().startswith(CSV_HEADER)
    doc = json.loads(json_path.read_text())
    assert len(doc["rows"]) == 1


# -------------------------------------------------------- penalty compare

def test_compare_penalties_distances_shrink():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2, 0.1),
                      case="linear_x")
    rep = compare_penalties(cfg, ["product", "wang"])
    assert len(rep.rows) == 4
    dist = rep.environment["pairwise_l2_distances"]["product|wang"]
    assert dist[repr(0.1)] < dist[repr(0.2)] < 0.05
    assert rep.environment["variants"] == ["product", "wang"]


def test_compare_requires_a_variant():
    with pytest.raises(ConfigError):
        compare_penalties(LINEAR_CFG, [])


def test_compare_same_variant_gives_zero_distance():
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]}, deltas=(0.2,),
                      case="linear_x")
    rep = compare_penalties(cfg, ["product", "product"])
    dist = rep.environment["pairwise_l2_distances"]["product|product"]
    assert dist[repr(0.2)] == 0.0


# ------------------------------------------------------------- coercivity

def test_coercivity_interval_fixture():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    rep = coercivity_probe(mesh, PenaltySpec("product", QUARTIC), QUARTIC,
                           0.2, trials=20, seed=7)
    # pilot with this seed measured min_ratio 7.11; keep 2x margin
    assert rep.min_ratio >= 3.5
    assert rep.skipped == 0
    assert len(rep.ratios) == 20
    assert all(r > 0 for r in rep.ratios)
    assert rep.c_n == pytest.approx(rep.min_ratio * 0.04, rel=1e-12)


@pytest.mark.parametrize("spec", [
    PenaltySpec("product", QUARTIC),
    # carries delta^-4, so c_n must rescale by delta^4
    PenaltySpec("shi", QUARTIC, shi_delta_sq_prefactor=True),
], ids=["product", "shi_prefactor"])
def test_coercivity_cn_stable_under_horizon_halving(spec):
    reports = []
    for delta in (0.2, 0.1):
        mesh = build_mesh({"interval": [0.0, 1.0]}, delta / 4.0)
        reports.append(coercivity_probe(mesh, spec, QUARTIC, delta,
                                        trials=20, seed=7))
    ratio = reports[1].c_n / reports[0].c_n
    assert 0.5 <= ratio <= 2.0


def test_coercivity_blocks_of_trials_match_one_block(monkeypatch):
    # blocks of 3 trials (the last one short) draw the same fields in
    # the same order as one block of all 20
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    args = (mesh, PenaltySpec("product", QUARTIC), QUARTIC, 0.2)
    whole = coercivity_probe(*args, trials=20, seed=7)
    monkeypatch.setattr(study, "_PROBE_BLOCK", 3 * mesh.n_interior)
    blocked = coercivity_probe(*args, trials=20, seed=7)
    assert len(blocked.ratios) == 20
    np.testing.assert_allclose(blocked.ratios, whole.ratios, rtol=1e-12)


def test_coercivity_requires_ten_trials():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    with pytest.raises(ConfigError):
        coercivity_probe(mesh, PenaltySpec("product", QUARTIC), QUARTIC,
                         0.2, trials=5)


class ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def test_coercivity_all_degenerate_probes_error(monkeypatch):
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: ZeroRng())
    with pytest.raises(ConfigError) as exc:
        coercivity_probe(mesh, PenaltySpec("product", QUARTIC), QUARTIC,
                         0.2, trials=10)
    assert "degenerate" in str(exc.value)


class MixedRng:
    """First field drawn is all zero (degenerate), the rest are
    genuine; coercivity_probe draws a block of fields per call."""

    def __init__(self, inner):
        self.calls = 0
        self.inner = inner

    def standard_normal(self, shape):
        self.calls += 1
        block = self.inner.standard_normal(shape)
        if self.calls == 1:
            block[0] = 0.0
        return block


def test_coercivity_skips_degenerate_probes(monkeypatch):
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    inner = np.random.default_rng(3)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: MixedRng(inner))
    rep = coercivity_probe(mesh, PenaltySpec("product", QUARTIC),
                           QUARTIC, 0.2, trials=10)
    assert rep.skipped == 1
    assert len(rep.ratios) == 9


class SpikeRng:
    """Field visible to the penalty kernel but not to a narrower
    mollifier: nonzero only at nodes 0.125 and 0.875 of the h=0.05
    interval mesh."""

    def standard_normal(self, shape):
        u = np.zeros(shape)
        u[..., 2] = 1.0    # x = 0.125
        u[..., -3] = 1.0   # x = 0.875
        return u


def test_coercivity_infinite_ratio_when_trace_vanishes(monkeypatch):
    # penalty radius 0.2 sees the spikes; mollifier radius 0.1 does not
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.05)
    narrow = KernelSpec("narrow",
                        lambda s: np.maximum(1.0 - np.asarray(s), 0.0) ** 2,
                        0.5)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: SpikeRng())
    rep = coercivity_probe(mesh, PenaltySpec("product", QUARTIC), narrow,
                           0.2, trials=10)
    assert np.isinf(rep.min_ratio)
    assert rep.skipped == 0
