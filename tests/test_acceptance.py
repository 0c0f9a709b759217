"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test records exactly one [PASS]/[FAIL] line with the measured
numbers and asserts the same condition; the conftest hook replays the
recorded lines as a terminal summary block after the run. Frozen
reference values used here:

  - kernel constant for the quartic profile: 16/105 (d=1), pi/24 (d=2),
    both derived by hand from the radial moment integral;
  - Dirichlet Laplacian ground eigenvalue pi^2 on the unit interval;
  - coercivity pilot on the unit square (100 trials, seed 12345, this
    code): product min_ratio 22.78 at delta=0.1, dirac_diagonal 441.77;
    thresholds below keep a factor-two margin.
"""

import time

import numpy as np

from nldir import (EigenProblem, PenaltySpec, SolveOptions, StudyConfig,
                   assemble, build_mesh, coercivity_probe,
                   compare_mass_models, dense_eigen, lp_norm,
                   run_delta_sweep, solve_eigen)
from nldir.kernels import (QUARTIC, WENDLAND, kernel_mass, normalize_w,
                           scaled_mass, sigma_r)

import test_assembly as reference

SIGMA_1D = 16.0 / 105.0
SIGMA_2D = np.pi / 24.0


GATE_LINES = []


def gate(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    GATE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_kernel_constant_oracles():
    t0 = time.perf_counter()
    v1 = sigma_r(QUARTIC, 2.0, 1).value
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    v2 = sigma_r(QUARTIC, 2.0, 2).value
    t2 = time.perf_counter() - t0
    e1 = abs(v1 - SIGMA_1D) / SIGMA_1D
    e2 = abs(v2 - SIGMA_2D) / SIGMA_2D
    ok = e1 <= 1e-6 and e2 <= 1e-6 and t1 <= 5.0 and t2 <= 5.0
    gate(1, ok, f"sigma rel err {e1:.2e} (1D), {e2:.2e} (2D); "
                f"times {t1:.2f}s/{t2:.2f}s (budget 5s each, tol 1e-6)")


def test_criterion_02_energy_bounded_by_local_limit():
    t0 = time.perf_counter()
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.00625)
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), 0.05)
    u = np.sin(np.pi * mesh.interior_points[:, 0])
    nonlocal_energy = op.interior_energy(u)
    bound = SIGMA_1D * (np.pi ** 2 / 2.0) * 1.1
    elapsed = time.perf_counter() - t0
    ok = nonlocal_energy <= bound and elapsed <= 10.0
    gate(2, ok, f"sin(pi x) interior energy {nonlocal_energy:.6f} <= "
                f"sigma*||u'||^2*1.1 = {bound:.6f}; {elapsed:.2f}s (budget 10s)")


def test_criterion_03_harmonic_square_convergence():
    t0 = time.perf_counter()
    cfg = StudyConfig(shape={"rect": [[0.0, 0.0], [1.0, 1.0]]},
                      deltas=(0.2, 0.1, 0.05), ratio=4.0,
                      case="harmonic_x2_minus_y2", variant="product")
    rows = run_delta_sweep(cfg).ok_rows()
    errs = [r.l2_error for r in rows]
    elapsed = time.perf_counter() - t0
    ok = (len(errs) == 3 and errs[0] > errs[1] > errs[2]
          and errs[2] <= 0.05 and elapsed <= 300.0)
    gate(3, ok, f"square x^2-y^2 errors {[f'{e:.4f}' for e in errs]} "
                f"strictly decreasing, final <= 0.05; {elapsed:.1f}s "
                f"(budget 300s)")


def test_criterion_04_p3_linear_limit():
    t0 = time.perf_counter()
    cfg = StudyConfig(shape={"interval": [0.0, 1.0]},
                      deltas=(0.1, 0.05, 0.025), ratio=4.0, p=3.0,
                      case="linear_x", variant="product",
                      solver=SolveOptions(tol=1e-8))
    rows = run_delta_sweep(cfg).ok_rows()
    errs = [r.l2_error for r in rows]
    converged = [r.converged for r in rows]
    elapsed = time.perf_counter() - t0
    ok = (len(errs) == 3 and errs[0] > errs[1] > errs[2]
          and errs[2] <= 0.03 and all(converged) and elapsed <= 120.0)
    gate(4, ok, f"p=3 errors vs u(x)=x {[f'{e:.5f}' for e in errs]} "
                f"strictly decreasing, final <= 0.03; converged "
                f"{converged}; {elapsed:.1f}s (budget 120s)")


def test_criterion_05_eigenvalue_convergence():
    rels = []
    for delta in (0.08, 0.04, 0.02):
        mesh = build_mesh({"interval": [0.0, 1.0]}, delta / 8.0)
        op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), delta)
        res = solve_eigen(EigenProblem(op, "L2", k=1))
        rels.append(abs(res.eigenvalues[0] / SIGMA_1D - np.pi ** 2)
                    / np.pi ** 2)
    # orthonormality of the first three modes at the smallest horizon
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.02 / 8.0)
    op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), 0.02)
    prob = EigenProblem(op, "L2", k=3)
    res = solve_eigen(prob)
    xs = np.column_stack(res.eigenfields)
    gram = xs.T @ (mesh.interior_weights[:, None] * xs)
    ortho = float(np.max(np.abs(gram - np.eye(3))))
    # dense-oracle agreement on a small mesh
    mesh_s = build_mesh({"interval": [0.0, 1.0]}, 0.01)   # 100 nodes
    op_s = assemble(mesh_s, QUARTIC, PenaltySpec("product", QUARTIC), 0.08)
    prob_s = EigenProblem(op_s, "L2", k=3)
    res_s = solve_eigen(prob_s)
    evals, _ = dense_eigen(prob_s)
    dense_gap = float(np.max(np.abs(res_s.eigenvalues - evals)
                             / np.abs(evals)))
    ok = (rels[0] > rels[1] > rels[2] and rels[2] <= 0.1
          and ortho <= 1e-8 and dense_gap <= 1e-8)
    gate(5, ok, f"lambda1 rel errs {[f'{r:.4f}' for r in rels]} decreasing, "
                f"final <= 0.1; orthonormality {ortho:.2e} <= 1e-8; "
                f"dense gap {dense_gap:.2e} <= 1e-8")


def test_criterion_06_mass_model_gap():
    gaps = []
    for delta in (0.04, 0.02):
        mesh = build_mesh({"interval": [0.0, 1.0]}, delta / 8.0)
        op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), delta)
        cmp = compare_mass_models(op, normalize_w(WENDLAND, 1), k=1)
        gaps.append(float(cmp.gaps[0]))
    ok = gaps[1] <= 0.05 and gaps[1] < gaps[0]
    gate(6, ok, f"L2-vs-W lambda1 gaps {gaps[0]:.2e} -> {gaps[1]:.2e}, "
                f"final <= 0.05 and shrinking")


def test_criterion_07_coercivity():
    results = {}
    for variant in ("product", "dirac_diagonal"):
        per_delta = []
        for delta in (0.1, 0.05):
            mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, delta / 4.0)
            rep = coercivity_probe(mesh, PenaltySpec(variant, QUARTIC),
                                   QUARTIC, delta, trials=100, seed=12345)
            per_delta.append(rep)
        results[variant] = per_delta
    floors = {"product": 10.0, "dirac_diagonal": 200.0}
    ok = True
    details = []
    for variant, (r1, r2) in results.items():
        violations = sum(1 for r in r1.ratios if not r > 0.0)
        stability = r2.c_n / r1.c_n
        ok = ok and violations == 0 and r1.min_ratio >= floors[variant] \
            and 0.5 <= stability <= 2.0
        details.append(f"{variant}: min_ratio {r1.min_ratio:.1f} "
                       f"(floor {floors[variant]:.0f}), violations "
                       f"{violations}, c_n ratio {stability:.2f}")
    gate(7, ok, "100 probes at delta=0.1, C_n tracks delta^2 -- "
                + "; ".join(details))


def test_criterion_08_gradient_correctness():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.1)
    rng = np.random.default_rng(101)
    worst = 0.0
    for p in (2.0, 3.0, 4.0):
        a = rng.uniform(-1.0, 1.0, mesh.n_boundary)
        op = assemble(mesh, QUARTIC, PenaltySpec("product", QUARTIC), 0.3,
                      p=p, a=a)
        for _ in range(20):
            u = rng.standard_normal(mesh.n_interior)
            step = 1e-5 * (1.0 + float(np.max(np.abs(u))))
            g = op.gradient(u)
            g_fd = reference.fd_gradient(op, u, step)
            worst = max(worst, float(np.linalg.norm(g - g_fd)
                                     / max(np.linalg.norm(g), 1e-300)))
    ok = worst <= 1e-6
    gate(8, ok, f"p in 2,3,4 x 20 fields: worst FD gradient rel err "
                f"{worst:.2e} <= 1e-6")


def test_criterion_09_invariance_suite():
    rng = np.random.default_rng(103)
    base = build_mesh({"interval": [0.0, 1.0]}, 0.1)
    spec = PenaltySpec("product", QUARTIC)
    a0 = rng.uniform(-1.0, 1.0, base.n_boundary)
    op0 = assemble(base, QUARTIC, spec, 0.3, a=a0)

    translation = 0
    for shift in rng.uniform(-5.0, 5.0, 10):
        moved = build_mesh({"interval": [shift, 1.0 + shift]}, 0.1)
        op1 = assemble(moved, QUARTIC, spec, 0.3, a=a0)
        for _ in range(10):
            u = rng.standard_normal(base.n_interior)
            if reference.rel(op1.interior_energy(u),
                             op0.interior_energy(u)) <= 1e-12:
                translation += 1

    covariance = 0
    for _ in range(100):
        u = rng.standard_normal(base.n_interior)
        a = rng.uniform(-1.0, 1.0, base.n_boundary)
        c = float(rng.uniform(-10.0, 10.0))
        e0 = op0.twin(a=a).energy(u)
        e1 = op0.twin(a=a + c).energy(u + c)
        if reference.rel(e1, e0) <= 1e-11:
            covariance += 1

    scaling = 0
    for _ in range(100):
        cfac = float(rng.uniform(0.1, 10.0))
        u = rng.standard_normal(base.n_interior)
        sc = reference.scaled_operator(op0, cfac)
        g0, g1 = op0.gradient(u), sc.gradient(u)
        if (np.linalg.norm(g1 - cfac * g0)
                <= 1e-12 * (1 + np.linalg.norm(cfac * g0))):
            scaling += 1

    mass = 0
    for _ in range(100):
        delta = float(rng.uniform(0.05, 3.0))
        dim = int(rng.integers(1, 3))
        m_scaled = scaled_mass(QUARTIC, delta, dim).value
        m_base = kernel_mass(QUARTIC, dim).value
        if abs(m_scaled - m_base) / m_base <= 1e-6:
            mass += 1

    ok = translation == 100 and covariance == 100 and scaling == 100 \
        and mass == 100
    gate(9, ok, f"translation {translation}/100, shift covariance "
                f"{covariance}/100, scaling {scaling}/100, kernel mass "
                f"under rescaling {mass}/100")


def test_criterion_10_brute_force_equivalence():
    interval = build_mesh({"interval": [0.0, 1.0]}, 0.1)       # 12 nodes
    square = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)  # 32
    rng = np.random.default_rng(107)
    worst = 0.0
    for mesh, delta in ((interval, 0.3), (square, 0.5)):
        u = rng.standard_normal(mesh.n_interior)
        for variant in ("product", "pointwise", "dirac_diagonal", "wang",
                        "shi"):
            a = (np.zeros(mesh.n_boundary)
                 if variant in ("dirac_diagonal", "shi")
                 else rng.uniform(-1.0, 1.0, mesh.n_boundary))
            op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC),
                          delta, a=a)
            worst = max(worst, reference.rel(
                op.interior_energy(u),
                reference.naive_interior(mesh, delta, 2.0, u)))
            worst = max(worst, reference.rel(
                op.penalty_energy(u),
                reference.naive_penalty(mesh, delta, 2.0, variant, u, a)))
    ok = worst <= 1e-12
    gate(10, ok, f"all five penalties on <=100-node meshes: worst rel "
                 f"deviation from the O(N^2) double loop {worst:.2e} <= 1e-12")
