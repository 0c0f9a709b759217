"""Eigenpair computation against dense oracles and analytic limits.

Oracles: scipy's dense symmetric generalized solver on densified forms
(small meshes only), and the Dirichlet Laplacian spectrum pi^2 k^2 on
[0,1] resp. pi^2 (k^2+m^2) on the unit square, which the nonlocal
eigenvalues approach as sigma * that after dividing by the kernel
constant sigma (16/105 for the quartic profile in 1D, pi/24 in 2D).
"""

import functools
import warnings

import numpy as np
import pytest

from nldir import (EigenProblem, EigenResult, EnergyOperator, MassFormError,
                   PenaltySpec,
                   SolveOptions, SolverError, assemble, build_mesh,
                   compare_mass_models, dense_eigen, solve_eigen)
from nldir.assembly import w_mass_floor, w_mass_matrix
from nldir.geometry import lattice_stencil
from nldir.kernels import (CUBIC, QUARTIC, WENDLAND, KernelSpec,
                           eval_scaled, normalize_w)

from test_assembly import scaled_operator

SIGMA_1D = 16.0 / 105.0
SIGMA_2D = np.pi / 24.0

INTERVAL = build_mesh({"interval": [0.0, 1.0]}, 0.025)
SQUARE = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.125)
L_SHAPE = build_mesh({"polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5],
                                  [0.5, 0.5], [0.5, 1.0], [0.0, 1.0]]},
                     0.0625)
PENTAGON = build_mesh({"polygon": [[0.0, 0.0], [1.1, 0.1], [1.4, 0.9],
                                   [0.6, 1.5], [-0.2, 0.8]]}, 0.08)


def stiffness(mesh, delta, variant="product"):
    return assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC), delta)


def gram(prob, res):
    xs = np.column_stack(res.eigenfields)
    bxs = np.column_stack([prob.apply_mass(xs[:, i])
                           for i in range(xs.shape[1])])
    return xs.T @ bxs


# ----------------------------------------------------------- dense oracle

def test_interval_matches_dense_oracle():
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=4)
    res = solve_eigen(prob)
    evals, evecs = dense_eigen(prob)
    assert np.all(np.abs(res.eigenvalues - evals) <= 1e-8 * np.abs(evals))
    # simple spectrum: vectors line up after mass normalization
    for i in range(4):
        x = res.eigenfields[i]
        y = evecs[:, i]
        y = y / np.sqrt(float(y @ prob.apply_mass(y)))
        assert abs(abs(float(x @ prob.apply_mass(y))) - 1.0) <= 1e-7


@pytest.mark.parametrize("mass", ["L2", "nonlocalW"])
@pytest.mark.parametrize("mesh, delta", [(SQUARE, 0.3), (L_SHAPE, 0.25),
                                         (PENTAGON, 0.24)],
                         ids=["square", "l_shape", "pentagon"])
def test_square_matches_dense_oracle(mesh, delta, mass):
    op = stiffness(mesh, delta)
    prob = EigenProblem(op, mass, k=3, W=normalize_w(WENDLAND, 2))
    res = solve_eigen(prob)
    evals, _ = dense_eigen(prob)
    assert np.all(np.abs(res.eigenvalues - evals) <= 1e-8 * np.abs(evals))


def test_dense_oracle_under_w_mass():
    W = normalize_w(WENDLAND, 1)
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "nonlocalW", k=3, W=W)
    res = solve_eigen(prob)
    evals, _ = dense_eigen(prob)
    assert np.all(np.abs(res.eigenvalues - evals) <= 1e-8 * np.abs(evals))


# ------------------------------------------------------- result invariants

def test_eigen_result_invariants():
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=3)
    res = solve_eigen(prob)
    assert isinstance(res, EigenResult)
    lam = res.eigenvalues
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.all(lam >= -1e-8)
    g = gram(prob, res)
    assert np.max(np.abs(g - np.eye(3))) <= 1e-8
    assert all(res.converged)
    for i in range(3):
        x = res.eigenfields[i]
        # with zero data the quadratic energy is the Rayleigh numerator
        assert float(x @ op.apply_quadratic(x)) == pytest.approx(lam[i],
                                                                 rel=1e-8)
        r = op.apply_quadratic(x) - lam[i] * prob.apply_mass(x)
        assert np.linalg.norm(r) <= 1e-9 * max(abs(lam[i]), 1.0) * 1.001
    assert res.mass_model == "L2"
    assert res.delta == 0.1
    assert res.h == INTERVAL.h


def test_single_mode_unit_mass_norm():
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=1)
    res = solve_eigen(prob)
    x = res.eigenfields[0]
    assert float(x @ prob.apply_mass(x)) == pytest.approx(1.0, abs=1e-10)


def test_solve_eigen_deterministic():
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=2)
    r1 = solve_eigen(prob)
    r2 = solve_eigen(prob)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenfields[0], r2.eigenfields[0])


def test_seed_does_not_change_the_spectrum():
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=2)
    r1 = solve_eigen(prob, SolveOptions(tol=1e-9, max_iter=2000), seed=0)
    r2 = solve_eigen(prob, SolveOptions(tol=1e-9, max_iter=2000), seed=123)
    assert np.allclose(r1.eigenvalues, r2.eigenvalues, rtol=1e-7)


def test_spectrum_scales_with_the_form():
    op = stiffness(INTERVAL, 0.1)
    res0 = solve_eigen(EigenProblem(op, "L2", k=2))
    res1 = solve_eigen(EigenProblem(scaled_operator(op, 4.2), "L2", k=2))
    assert np.allclose(res1.eigenvalues, 4.2 * res0.eigenvalues, rtol=1e-8)
    prob = EigenProblem(op, "L2", k=2)
    for i in range(2):
        x0 = res0.eigenfields[i]
        x1 = res1.eigenfields[i]
        assert abs(abs(float(x0 @ prob.apply_mass(x1))) - 1.0) <= 1e-7


@pytest.mark.parametrize("k", [1, 3])
def test_budget_exhaustion_is_flagged(k):
    op = stiffness(INTERVAL, 0.1)
    prob = EigenProblem(op, "L2", k=k)
    # scipy warns, after the iterations and after its postprocessing,
    # that it stopped short of its own tolerance
    with pytest.warns(UserWarning, match="Exited at iteration 3"), \
            pytest.warns(UserWarning, match="Exited postprocessing"):
        res = solve_eigen(prob, SolveOptions(tol=1e-12, max_iter=3))
    assert not any(res.converged)
    assert np.all(np.isfinite(res.eigenvalues))
    assert res.iterations == (3,) * k
    for i in range(k):
        x = res.eigenfields[i]
        r = op.apply_quadratic(x) - res.eigenvalues[i] * prob.apply_mass(x)
        assert res.residuals[i] == pytest.approx(np.linalg.norm(r),
                                                 rel=1e-12)


def test_certified_modes_raise_no_solver_warning():
    # the command-line eigen solve on the unit square: delta = 0.05,
    # ratio 4, k = 3, both mass models, seed 0. With the DST solve alone
    # scipy stopped after 64 and 72 blocks and warned 4 times, "not
    # reaching the requested tolerance", for modes that then passed the
    # certified residual test
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05 / 4.0)
    op = stiffness(mesh, 0.05)
    opts = SolveOptions(tol=1e-9, max_iter=20000)
    W = normalize_w(WENDLAND, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cmp = compare_mass_models(op, W, 3, opts)
        results = [solve_eigen(EigenProblem(op, "L2", 3), opts),
                   solve_eigen(EigenProblem(op, "nonlocalW", 3, W=W), opts),
                   cmp.l2, cmp.w]
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    assert all(all(res.converged) for res in results)


# ------------------------------------------------------- analytic limits

def test_interval_ground_mode_near_dirichlet_laplacian():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.01)
    op = stiffness(mesh, 0.08)
    res = solve_eigen(EigenProblem(op, "L2", k=1))
    rel = abs(res.eigenvalues[0] / SIGMA_1D - np.pi ** 2) / np.pi ** 2
    assert rel <= 0.15


def test_square_modes_near_dirichlet_laplacian():
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.025)
    op = stiffness(mesh, 0.1)
    res = solve_eigen(EigenProblem(op, "L2", k=3))
    lam = res.eigenvalues / SIGMA_2D
    assert abs(lam[0] - 2 * np.pi ** 2) / (2 * np.pi ** 2) <= 0.2
    for v in lam[1:]:
        assert abs(v - 5 * np.pi ** 2) / (5 * np.pi ** 2) <= 0.2
    # the (1,2)/(2,1) pair is exactly degenerate on the square
    assert abs(lam[1] - lam[2]) <= 1e-6 * lam[1]


# ----------------------------------------------------------- mass models

def test_unit_sampling_kernel_reproduces_l2_mass():
    # constant profile, support below the node spacing: the kernel mass
    # form collapses to the diagonal quadrature weights, so both mass
    # models must produce the same spectrum
    delta, h = 0.1, INTERVAL.h
    unit = KernelSpec("unit_sample",
                      lambda s: np.full_like(np.asarray(s, float), delta / h),
                      0.2)
    op = stiffness(INTERVAL, delta)
    cmp = compare_mass_models(op, unit, k=2)
    assert np.all(cmp.gaps <= 1e-10)


def test_wendland_mass_gap_is_small():
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.01)
    op = stiffness(mesh, 0.08)
    cmp = compare_mass_models(op, normalize_w(WENDLAND, 1), k=1)
    assert cmp.gaps[0] <= 0.05
    assert cmp.l2.mass_model == "L2"
    assert cmp.w.mass_model == "nonlocalW"


def test_both_mass_models_factor_the_layer_once(monkeypatch):
    # the layer blocks and their factor are cached on the stiffness, so
    # the second solve of compare_mass_models reuses the first's
    built = []
    layer = EnergyOperator._layer_columns.func

    def counted(self):
        built.append(self)
        return layer(self)

    cached = functools.cached_property(counted)
    cached.__set_name__(EnergyOperator, "_layer_columns")
    monkeypatch.setattr(EnergyOperator, "_layer_columns", cached)
    op = stiffness(SQUARE, 0.3)
    compare_mass_models(op, normalize_w(WENDLAND, 2), k=2)
    assert built == [op]


def test_w_modes_from_the_l2_start_match_the_dense_oracle():
    # compare_mass_models starts nonlocalW from the L2 modes; the start
    # block must not change what the solve converges to
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.025)
    assert mesh.n_interior == 1600
    W = normalize_w(WENDLAND, 2)
    op = stiffness(mesh, 0.1)
    cmp = compare_mass_models(op, W, k=3)
    evals, _ = dense_eigen(EigenProblem(op, "nonlocalW", 3, W=W))
    assert all(cmp.w.converged)
    assert np.all(np.abs(cmp.w.eigenvalues - evals) <= 1e-8 * evals)
    # 6 blocks from the L2 modes, 14 for L2 from the seeded block
    assert max(cmp.w.iterations) < max(cmp.l2.iterations)


def test_seeded_start_finds_the_fourth_of_two_close_modes():
    # on the 1 x 1.28 rectangle the dense lambda_4 = 9.0957 and lambda_5
    # = 9.1283 lie 0.4 % apart; LOBPCG converges only inside the span
    # its start block reaches, and a start from the tau symbol's four
    # lowest DST modes certified lambda_5 as lambda_4 in 9 blocks. The
    # seeded start takes 32 blocks and finds lambda_4
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.28]]}, 0.025)
    assert mesh.n_interior == 2040
    op = stiffness(mesh, 0.1)
    lams = {}
    for prob in (EigenProblem(op, "L2", 4),
                 EigenProblem(op, "nonlocalW", 4, W=normalize_w(WENDLAND, 2))):
        res = solve_eigen(prob)
        evals, _ = dense_eigen(prob)
        assert all(res.converged), prob.mass
        assert np.all(np.abs(res.eigenvalues - evals) <= 1e-8 * evals), \
            prob.mass
        lams[prob.mass] = res.eigenvalues
    assert lams["L2"][3] == pytest.approx(9.09572885, rel=1e-8)


def test_w_solve_continues_from_the_l2_modes():
    # the W mass is a kernel smoothing of the L2 weights, so the L2 modes
    # are close to the W modes: 6 blocks, against 16 from the seeded start
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.0125)
    assert mesh.n_interior == 6400
    W = normalize_w(WENDLAND, 2)
    op = stiffness(mesh, 0.05)
    cmp = compare_mass_models(op, W, k=3)
    assert all(cmp.w.converged)
    assert max(cmp.w.iterations) <= 8
    cold = solve_eigen(EigenProblem(op, "nonlocalW", 3, W=W))
    assert all(cold.converged)
    assert np.all(np.abs(cmp.w.eigenvalues - cold.eigenvalues)
                  <= 1e-9 * cold.eigenvalues)
    # the L2 half is the seeded solve_eigen, bit for bit
    l2 = solve_eigen(EigenProblem(op, "L2", 3))
    assert np.array_equal(cmp.l2.eigenvalues, l2.eigenvalues)


def test_indefinite_w_kernel_is_refused():
    op = stiffness(INTERVAL, 0.1)
    with pytest.raises(MassFormError) as exc:
        EigenProblem(op, "nonlocalW", k=1, W=QUARTIC)
    assert exc.value.info["min_symbol"] <= 1e-8
    assert exc.value.info["kernel"] == "quartic"


def _symbol_min(mesh, W, delta, points):
    """min over theta in [0, pi]^d, on points * n_a + 1 angles per axis,
    of the stencil's symbol c_0 + 2 Re sum_k c_k exp(i theta . o_k), with
    c = q^2 W_delta(|o|) and o_k the half-offsets."""
    stencil = lattice_stencil(mesh, W.support * delta)
    q2 = mesh.interior_weights[0] ** 2
    c = q2 * eval_scaled(W, stencil.lengths, delta, mesh.dim)
    waves = [np.exp(1j * np.outer(np.linspace(0.0, np.pi, n * points + 1), o))
             for n, o in zip(stencil.shape, stencil.offsets.T)]
    axes = "ijk"[:mesh.dim]
    f = np.einsum(",".join(["k"] + [a + "k" for a in axes]) + "->" + axes,
                  c, *waves).real
    return q2 * float(eval_scaled(W, np.asarray(0.0), delta, mesh.dim)) \
        + 2.0 * f.min()


@pytest.mark.parametrize("kernel", [QUARTIC, CUBIC, WENDLAND],
                         ids=lambda k: k.label)
@pytest.mark.parametrize("mesh, delta", [(INTERVAL, 0.1), (SQUARE, 0.3),
                                         (L_SHAPE, 0.25), (PENTAGON, 0.24)],
                         ids=["interval", "square", "l_shape", "pentagon"])
def test_w_mass_floor_bounds_the_smallest_eigenvalue(mesh, delta, kernel):
    # a principal section of a Toeplitz form has no eigenvalue below its
    # symbol's minimum, and the floor lies below that minimum as well,
    # here taken on a grid 64 times the bounding grid's per axis
    W = normalize_w(kernel, mesh.dim)
    floor = w_mass_floor(mesh, W, delta)
    dense = np.linalg.eigvalsh(w_mass_matrix(mesh, W, delta).toarray())
    assert floor <= dense[0]
    assert floor <= _symbol_min(mesh, W, delta, 64)


def test_indefinite_w_mass_at_ratio_8_is_refused():
    # the cubic W mass form on the unit square at delta = 0.05, ratio 8,
    # has a sine mode of negative Rayleigh quotient; a Ritz estimate of
    # its smallest eigenvalue came out positive and accepted it
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05 / 8.0)
    with pytest.raises(MassFormError) as exc:
        EigenProblem(stiffness(mesh, 0.05), "nonlocalW", k=2,
                     W=normalize_w(CUBIC, 2))
    assert exc.value.info["min_symbol"] < 0.0
    assert exc.value.info["kernel"] == "cubic_normalized"


def test_positive_w_mass_at_ratio_8_is_accepted_and_certified():
    # B scales like h^d: the wendland W mass form on the unit square at
    # delta = 0.05, ratio 8, has a floor of 4.9e-9, below an absolute
    # 1e-8 but far above 1e-8 times its Gershgorin bound 3.9e-5
    mesh = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.05 / 8.0)
    prob = EigenProblem(stiffness(mesh, 0.05), "nonlocalW", k=1,
                        W=normalize_w(WENDLAND, 2))
    floor = w_mass_floor(mesh, prob.W, 0.05)
    assert 0.0 < floor < 1e-8
    res = solve_eigen(prob)
    assert res.converged == (True,)


def test_mass_form_refusal_names_its_gershgorin_bound():
    # the floor is compared with 1e-8 times c_0 + sum_k 2 |c_k|, which on
    # a mesh with a full-stencil node is B's largest absolute row sum
    with pytest.raises(MassFormError) as exc:
        EigenProblem(stiffness(INTERVAL, 0.1), "nonlocalW", k=1, W=QUARTIC)
    dense = w_mass_matrix(INTERVAL, QUARTIC, 0.1).toarray()
    want = np.abs(dense).sum(axis=1).max()
    assert abs(exc.value.info["scale"] - want) <= 1e-13 * want


# ------------------------------------------------------------- validation

def test_eigenproblem_rejects_bad_input():
    op = stiffness(INTERVAL, 0.1)
    with pytest.raises(SolverError):
        EigenProblem(op, "lumped", k=1)
    with pytest.raises(SolverError):
        EigenProblem(op, "L2", k=0)
    with pytest.raises(SolverError):
        EigenProblem(op, "L2", k=INTERVAL.n_interior + 1)
    with pytest.raises(SolverError):
        EigenProblem(op, "nonlocalW", k=1)   # missing W
    p3 = assemble(INTERVAL, QUARTIC, PenaltySpec("product", QUARTIC), 0.1,
                  p=3.0)
    with pytest.raises(SolverError):
        EigenProblem(p3, "L2", k=1)


def test_eigenproblem_rejects_inhomogeneous_data():
    op = assemble(INTERVAL, QUARTIC, PenaltySpec("product", QUARTIC), 0.1,
                  a="linear_x")
    with pytest.raises(SolverError):
        EigenProblem(op, "L2", k=1)
