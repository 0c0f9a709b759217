"""Solver behavior: oracle agreement, descent, determinism, failure modes.

The dense oracle densifies the quadratic form column by column and
calls numpy's direct solver; the iterative minimizer must land on the
same point. Newton-CG runs are checked for monotone energy along
growing iteration budgets (the path is deterministic, so prefixes
coincide), against the conjugate-gradient result at p = 2, and for the
gradient test they certify or the reason they stop.
"""

from dataclasses import replace

import numpy as np
import pytest

from nldir import (ConfigError, EigenProblem, EnergyOperator, MeshError,
                   PenaltySpec, SolveOptions, SolveResult, SolverError,
                   StudyConfig, assemble, build_mesh, lp_norm,
                   run_delta_sweep, solve_eigen, solve_p_energy,
                   solve_quadratic)
from nldir.assembly import PER_NODE_VARIANTS, VARIANTS, ZERO_DATA_VARIANTS
from nldir.kernels import QUARTIC

from test_assembly import scaled_operator

COARSE = build_mesh({"interval": [0.0, 1.0]}, 0.1)
FINE = build_mesh({"interval": [0.0, 1.0]}, 0.025)
SQUARE = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.125)
L_SHAPE = build_mesh({"polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5],
                                  [0.5, 0.5], [0.5, 1.0], [0.0, 1.0]]},
                     0.0625)
PENTAGON = build_mesh({"polygon": [[0.0, 0.0], [1.1, 0.1], [1.4, 0.9],
                                   [0.6, 1.5], [-0.2, 0.8]]}, 0.08)
UNIT_SQUARE = {"rect": [[0.0, 0.0], [1.0, 1.0]]}
LAYERED = build_mesh(UNIT_SQUARE, 0.05)
WIDE = build_mesh({"rect": [[0.0, 0.0], [2.0, 1.0]]}, 0.13)


def make_op(mesh, variant, delta, p=2.0, a=None):
    return assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC), delta,
                    p=p, a=a)


def densify(op):
    n = op.mesh.n_interior
    eye = np.eye(n)
    return np.column_stack([op.apply_quadratic(eye[k]) for k in range(n)])


# ------------------------------------------------------------ dense oracle

@pytest.mark.parametrize("variant", VARIANTS)
def test_pcg_lands_on_dense_solution(variant):
    a = None if variant in ZERO_DATA_VARIANTS else "linear_x"
    op = make_op(COARSE, variant, 0.3, a=a)
    res = solve_quadratic(op, SolveOptions(tol=1e-12))
    x_star = np.linalg.solve(densify(op), op.linear_term)
    err = np.linalg.norm(res.minimizer - x_star) \
        / max(np.linalg.norm(x_star), 1e-300)
    if variant in ZERO_DATA_VARIANTS:
        assert np.all(res.minimizer == 0.0)
    else:
        assert err <= 1e-8


def test_pcg_dense_agreement_2d():
    op = make_op(SQUARE, "product", 0.5, a="harmonic_xy")
    res = solve_quadratic(op, SolveOptions(tol=1e-12))
    x_star = np.linalg.solve(densify(op), op.linear_term)
    assert np.linalg.norm(res.minimizer - x_star) \
        <= 1e-8 * np.linalg.norm(x_star)
    assert res.converged


def test_result_fields_are_recomputed_at_the_minimizer():
    op = make_op(COARSE, "product", 0.3, a="linear_x")
    res = solve_quadratic(op)
    x = res.minimizer
    assert res.energy == op.energy(x)
    assert res.gradient_norm == float(np.linalg.norm(op.gradient(x)))
    assert res.converged == (res.gradient_norm
                             <= 1e-10 * (1.0 + abs(res.energy)))


def test_zero_datum_returns_zero_immediately():
    for variant in VARIANTS:
        op = make_op(COARSE, variant, 0.3, a=None)
        res = solve_quadratic(op)
        assert np.all(res.minimizer == 0.0)
        assert res.iterations == 0
        assert res.energy == 0.0
        assert res.converged
        assert res.stop_reason == "gradient"


def test_linear_datum_recovers_linear_profile():
    op = make_op(FINE, "product", 0.1, a="linear_x")
    res = solve_quadratic(op)
    assert res.converged
    exact = FINE.interior_points[:, 0]
    err = lp_norm(FINE, res.minimizer - exact)
    assert err <= 0.05


def test_scaling_energy_does_not_move_the_argmin():
    op = make_op(COARSE, "product", 0.3, a="linear_x")
    res0 = solve_quadratic(op, SolveOptions(tol=1e-12))
    res1 = solve_quadratic(scaled_operator(op, 3.7), SolveOptions(tol=1e-12))
    assert np.max(np.abs(res1.minimizer - res0.minimizer)) \
        <= 1e-8


def test_pcg_is_deterministic():
    op = make_op(SQUARE, "product", 0.5, a="harmonic_x2_minus_y2")
    r1 = solve_quadratic(op)
    r2 = solve_quadratic(op)
    assert np.array_equal(r1.minimizer, r2.minimizer)
    assert r1.iterations == r2.iterations
    assert r1.energy == r2.energy


def test_budget_exhaustion_flags_nonconvergence():
    # on SQUARE at delta = 0.5 the boundary layer is the whole mesh and
    # the preconditioner is A^-1; here the layer is 256 of 400 nodes
    op = make_op(LAYERED, "product", 0.2, a="harmonic_xy")
    res = solve_quadratic(op, SolveOptions(tol=1e-12, max_iter=2))
    assert res.iterations == 2
    assert not res.converged
    assert res.stop_reason == "max_iter"
    assert np.all(np.isfinite(res.minimizer))


def test_quadratic_solver_requires_p2():
    op = make_op(COARSE, "product", 0.3, p=3.0, a="linear_x")
    with pytest.raises(SolverError):
        solve_quadratic(op)


class DiagonalOp:
    """Stand-in with the form u^T D u - 2 sum(u) and no preconditioning:
    CG starts at x0 (zero by default) and steps r -> (r, D r)."""

    def __init__(self, mesh, d, x0=None):
        self.mesh = mesh
        self.p = 2.0
        self._d = d
        self.linear_term = np.ones(mesh.n_interior)
        self.constant_term = 0.0
        self._x0 = np.zeros(mesh.n_interior) if x0 is None else x0

    def deflated_cg(self):
        x0 = self._x0.copy()
        return x0, self.linear_term - self._d * x0, lambda r: (r, self._d * r)

    def energy(self, u):
        return float(u @ (self._d * u) - 2.0 * (self.linear_term @ u))

    def gradient(self, u):
        return 2.0 * (self._d * u - self.linear_term)


class IndefiniteOp(DiagonalOp):
    """Diagonal stand-in whose form has one negative direction."""

    def __init__(self, mesh):
        d = np.ones(mesh.n_interior)
        d[-1] = -1.0
        super().__init__(mesh, d)


def test_negative_curvature_raises_with_probe():
    with pytest.raises(SolverError) as exc:
        solve_quadratic(IndefiniteOp(COARSE))
    info = exc.value.info
    assert info["curvature"] <= 0.0
    assert "iteration" in info
    assert len(info["probe"]) == COARSE.n_interior


# ------------------------------------------------------------ preconditioner

def densify_preconditioner(op):
    apply = op.preconditioner()
    eye = np.eye(op.mesh.n_interior)
    return np.column_stack([apply(e) for e in eye])


PENALTIES = [PenaltySpec(variant, QUARTIC) for variant in VARIANTS] \
    + [PenaltySpec("shi", QUARTIC, shi_delta_sq_prefactor=True)]


@pytest.mark.parametrize("mesh, delta", [
    (COARSE, 0.3), (SQUARE, 0.5), (L_SHAPE, 0.25), (PENTAGON, 0.24),
    (LAYERED, 0.2), (WIDE, 0.3)])
def test_preconditioner_is_symmetric_positive_definite(mesh, delta):
    # the spectrum of M A is that of C^T M C with A = C C^T. On SQUARE
    # at delta = 0.5 the boundary layer is the whole mesh and M = A^-1;
    # elsewhere it is a strict subset. Off the layer the form is the
    # stencil the DST solve inverts; a penalty of per-entry rows (a
    # diagonal) outweighs the DST-II's reflected couplings on the layer,
    # so M A >= 1. Per-node rows (one rank per boundary node) cannot,
    # and M A dips below 1, at worst by 2.3e-4 on these meshes. The
    # largest value is 2.4.
    for spec in PENALTIES:
        op = assemble(mesh, QUARTIC, spec, delta)
        pinv = densify_preconditioner(op)
        assert np.linalg.norm(pinv - pinv.T) <= 1e-12 * np.linalg.norm(pinv)
        assert np.linalg.eigvalsh(0.5 * (pinv + pinv.T))[0] > 0.0
        chol = np.linalg.cholesky(densify(op))
        spectrum = np.linalg.eigvalsh(chol.T @ (0.5 * (pinv + pinv.T))
                                      @ chol)
        floor = 1.0 - (1e-3 if op.variant in PER_NODE_VARIANTS else 1e-10)
        assert floor <= spectrum[0] and spectrum[-1] <= 4.0, spec


@pytest.mark.parametrize("mesh, delta, k", [
    (COARSE, 0.3, (3,)),
    (SQUARE, 0.25, (1, 3)),
    (WIDE, 0.3, (1, 2)),
])
def test_preconditioner_inverts_the_stencil_on_grid_modes(mesh, delta, k):
    # a DST-II mode prod_a sin(pi k_a (x_a - lo_a) / L_a) is an
    # eigenvector of the infinite-lattice stencil; at the node nearest
    # the center, more than delta from the boundary, the operator applies
    # that stencil alone, so its ratio there is the symbol the DST solve
    # divides by. The 2 x 1 rect has cells of 2/15 x 1/8.
    op = make_op(mesh, "product", delta)
    lo = mesh.boundary_points.min(axis=0)
    extent = mesh.boundary_points.max(axis=0) - lo
    v = np.prod(np.sin(np.pi * np.array(k) * (mesh.interior_points - lo)
                       / extent), axis=1)
    center = int(np.argmin(np.linalg.norm(
        mesh.interior_points - (lo + extent / 2), axis=1)))
    symbol = op.apply_quadratic(v)[center] / v[center]
    want = v / symbol
    got = op._tau_solve(v)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("variant", ["product", "pointwise", "wang"])
@pytest.mark.parametrize("mesh, delta", [(L_SHAPE, 0.25), (PENTAGON, 0.24)])
def test_pcg_dense_agreement_on_polygons(mesh, delta, variant):
    op = make_op(mesh, variant, delta, a="harmonic_xy")
    res = solve_quadratic(op, SolveOptions(tol=1e-12))
    x_star = np.linalg.solve(densify(op), op.linear_term)
    assert res.converged
    assert np.linalg.norm(res.minimizer - x_star) \
        <= 1e-9 * np.linalg.norm(x_star)


def test_pcg_iterations_on_the_fine_square():
    # Jacobi preconditioning took 322 iterations on this solve, the DST
    # solve alone 65, the two-level map 8
    op = make_op(build_mesh(UNIT_SQUARE, 0.025 / 4.0), "product", 0.025,
                 a="harmonic_x2_minus_y2")
    res = solve_quadratic(op)
    assert res.converged
    assert res.iterations <= 12


@pytest.mark.parametrize("delta", [0.1, 0.05, 0.025])
def test_pcg_iterations_do_not_grow_as_delta_falls(delta):
    # the DST solve alone took 25 / 41 / 65 iterations, the two-level
    # map takes 7 / 8 / 8
    op = make_op(build_mesh(UNIT_SQUARE, delta / 4.0), "product", delta,
                 a="harmonic_x2_minus_y2")
    res = solve_quadratic(op)
    assert res.converged
    assert res.iterations <= 10


def test_eigen_iterations_per_mode_at_6400_nodes():
    # Jacobi preconditioning took 442 / 281 / 260 iterations per mode,
    # the DST solve alone 64, the two-level map 16
    mesh = build_mesh(UNIT_SQUARE, 0.0125)
    assert mesh.n_interior == 6400
    res = solve_eigen(EigenProblem(make_op(mesh, "product", 0.05), "L2", 3))
    assert all(res.converged)
    assert max(res.iterations) <= 24


def test_preconditioner_refuses_off_lattice_nodes():
    # the preconditioner reads the lattice that assemble certified, so
    # an off-lattice mesh is refused before any operator exists
    rng = np.random.default_rng(3)
    pts = SQUARE.interior_points
    mesh = replace(SQUARE, interior_points=pts + rng.normal(
        scale=1e-3 * SQUARE.h, size=pts.shape))
    with pytest.raises(MeshError, match="off a uniform lattice"):
        make_op(mesh, "product", 0.5, a="harmonic_xy")


def test_preconditioner_refuses_unequal_weights():
    weights = SQUARE.interior_weights.copy()
    weights[0] *= 1.5
    mesh = replace(SQUARE, interior_weights=weights)
    with pytest.raises(MeshError,
                       match="interior weights are not the lattice cell "
                             "measure"):
        make_op(mesh, "product", 0.5, a="harmonic_xy")


def test_preconditioner_refuses_a_nonpositive_symbol():
    op = make_op(SQUARE, "product", 0.5, a="harmonic_xy")
    flat = EnergyOperator(
        op.mesh, op.delta, op.p, op.spec, op.a, op.stencil,
        np.zeros_like(op.offset_w), op.pen, op.pen_node, op.pen_pref)
    with pytest.raises(SolverError) as exc:
        flat.preconditioner()
    assert exc.value.info["reason"] == "symbol_not_positive"
    assert exc.value.info["min_symbol"] <= 0.0


@pytest.mark.parametrize("variant, datum", [
    ("product", "linear_x"), ("pointwise", "linear_x"),
    ("product", "zero"), ("pointwise", "zero")],
    ids=["product", "pointwise", "product-zero", "pointwise-zero"])
def test_an_indefinite_layer_block_is_refused(variant, datum):
    # a negated penalty makes the energy indefinite, with a positive
    # interior symbol; the layer's Cholesky factor must refuse it, or CG
    # would certify a saddle point, at zero datum its start x = 0
    op = make_op(build_mesh(UNIT_SQUARE, 0.025), variant, 0.1, a=datum)
    flipped = EnergyOperator(
        op.mesh, op.delta, op.p, op.spec, op.a, op.stencil, op.offset_w,
        op.pen, op.pen_node, -op.pen_pref)
    for build in (solve_quadratic, EnergyOperator.preconditioner):
        with pytest.raises(SolverError) as exc:
            build(flipped)
        assert exc.value.info["reason"] == "layer_not_positive_definite"
        assert 1 <= exc.value.info["minor"] <= exc.value.info["n_layer"]


# ------------------------------------------------------------ Newton-CG

def test_newton_agrees_with_pcg_at_p2():
    op = make_op(COARSE, "product", 0.3, a="linear_x")
    opts = SolveOptions(tol=1e-6)
    quad = solve_quadratic(op, opts)
    nl = solve_p_energy(op, opts)
    assert nl.converged
    assert lp_norm(COARSE, nl.minimizer - quad.minimizer) \
        <= 1e-4


def test_p3_zero_datum_stays_at_zero():
    op = make_op(COARSE, "product", 0.3, p=3.0, a=None)
    res = solve_p_energy(op, SolveOptions(tol=1e-8))
    assert np.all(res.minimizer == 0.0)
    assert res.iterations == 0
    assert res.converged


def test_p3_linear_datum_recovers_linear_profile():
    op = make_op(FINE, "product", 0.1, p=3.0, a="linear_x")
    res = solve_p_energy(op, SolveOptions(tol=1e-8))
    exact = FINE.interior_points[:, 0]
    assert lp_norm(FINE, res.minimizer - exact, p=2.0) <= 0.05
    assert res.converged
    assert res.stop_reason == "gradient"


def test_newton_energy_monotone_in_budget():
    op = make_op(COARSE, "product", 0.3, p=3.0, a="linear_x")
    energies = []
    for budget in (1, 2, 4, 8, 16, 32):
        res = solve_p_energy(op, SolveOptions(tol=1e-13, max_iter=budget))
        energies.append(res.energy)
        if budget == 1:
            assert res.iterations == 1 and not res.converged
            assert res.stop_reason == "max_iter"
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))


def test_newton_evaluates_the_gradient_once_per_iterate(monkeypatch):
    # the start and each accepted step take one gradient; the result
    # reuses the last one instead of evaluating it again
    op = make_op(COARSE, "product", 0.3, p=3.0, a="linear_x")
    calls = []
    gradient = EnergyOperator.gradient

    def counted(self, u):
        if self is op:
            calls.append(1)
        return gradient(self, u)

    monkeypatch.setattr(EnergyOperator, "gradient", counted)
    res = solve_p_energy(op, SolveOptions(tol=1e-8))
    assert res.converged and res.iterations >= 2
    assert len(calls) == res.iterations + 1
    assert res.gradient_norm == float(np.linalg.norm(
        gradient(op, res.minimizer)))
    assert res.energy == op.energy(res.minimizer)


def test_newton_warm_start_at_minimum_stops_immediately():
    # a p = 2 operator is its own twin, so Newton starts at the minimizer
    op = make_op(COARSE, "product", 0.3, a="linear_x")
    opts = SolveOptions(tol=1e-6)
    res = solve_p_energy(op, opts)
    assert res.iterations == 0
    assert res.converged and res.stop_reason == "gradient"
    assert np.array_equal(res.minimizer,
                          solve_quadratic(op, opts).minimizer)


def test_newton_is_deterministic():
    op = make_op(COARSE, "pointwise", 0.3, p=2.5, a="linear_x")
    r1 = solve_p_energy(op, SolveOptions(tol=1e-8))
    r2 = solve_p_energy(op, SolveOptions(tol=1e-8))
    assert np.array_equal(r1.minimizer, r2.minimizer)
    assert r1.iterations == r2.iterations


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("variant", ["product", "pointwise"])
def test_p2_twin_has_the_p2_minimizer(variant, p):
    # Newton-CG starts from the twin's minimizer: the twin keeps the
    # delta^-p weights, so it is delta^(2-p) times the p = 2 operator
    mesh = build_mesh(UNIT_SQUARE, 0.05)
    op = make_op(mesh, variant, 0.2, p=p, a="harmonic_xy")
    twin = op.twin(p=2.0)
    quad = make_op(mesh, variant, 0.2, a="harmonic_xy")
    u = np.random.default_rng(83).standard_normal(mesh.n_interior)
    assert twin.energy(u) == pytest.approx(0.2 ** (2.0 - p) * quad.energy(u),
                                           rel=1e-13)
    want = solve_quadratic(quad, SolveOptions(tol=1e-12)).minimizer
    got = solve_quadratic(twin, SolveOptions(tol=1e-12)).minimizer
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_newton_certifies_the_2d_p3_pointwise_sweep():
    # nonlinear CG left the delta = 0.05 row at its flat-energy stop
    cfg = StudyConfig(shape=UNIT_SQUARE, deltas=(0.1, 0.05), ratio=4.0,
                      p=3.0, case="linear_x", variant="pointwise",
                      solver=SolveOptions(tol=1e-8))
    rows = run_delta_sweep(cfg).rows
    assert [r.error for r in rows] == [None, None]
    assert all(r.converged and r.stop_reason == "gradient" for r in rows)
    assert all(r.iterations <= 10 for r in rows)


def test_p15_row_certifies_or_names_its_stall():
    # |.|^(p-2) is unbounded where a residual vanishes, so a p < 2 row
    # may stop short; it must then say why, and report the true gradient
    mesh = build_mesh({"interval": [0.0, 1.0]}, 0.00625 / 4.0)
    op = make_op(mesh, "product", 0.00625, p=1.5, a="linear_x")
    res = solve_p_energy(op, SolveOptions(tol=1e-8))
    x = res.minimizer
    assert res.gradient_norm == float(np.linalg.norm(op.gradient(x)))
    assert res.energy == op.energy(x)
    if res.converged:
        assert res.stop_reason == "gradient"
    else:
        assert res.stop_reason in ("line_search_stall", "max_iter")


def test_newton_stalls_when_no_step_lowers_the_energy():
    # at a gradient norm of about 1e-9 the Armijo margin 1e-4 t slope
    # rounds away, so a step that leaves the energy unchanged must not
    # count as a decrease: the solve names its stall instead of spending
    # its whole budget on steps that change nothing
    op = make_op(COARSE, "product", 0.3, p=3.0, a="linear_x")
    res = solve_p_energy(op, SolveOptions(tol=1e-10, max_iter=200))
    assert res.stop_reason == "line_search_stall"
    assert not res.converged and res.iterations < 200
    assert res.gradient_norm == float(np.linalg.norm(
        op.gradient(res.minimizer)))


def test_operator_owns_its_datum():
    # assemble() and twin() keep a read-only copy of the datum, so the
    # caller's array may change afterwards: the energy and the solve,
    # whose linear term is cached on first use, keep the first datum
    u = np.random.default_rng(131).standard_normal(LAYERED.n_interior)
    a = LAYERED.boundary_points[:, 0] * LAYERED.boundary_points[:, 1]
    b = a.copy()
    op = make_op(LAYERED, "product", 0.2, a=a)
    twin = make_op(LAYERED, "product", 0.2).twin(a=b)
    energy = op.energy(u)
    first = solve_quadratic(op)
    a[:] = 1.0
    b[:] = 1.0
    for each in (op, twin):
        assert each.energy(u) == energy
        res = solve_quadratic(each)
        assert res.converged and res.stop_reason == "gradient"
        assert res.energy == first.energy
        assert np.array_equal(res.minimizer, first.minimizer)
    assert not op.a.flags.writeable and not twin.a.flags.writeable


def test_iterates_stay_bounded_across_horizons():
    # minimizers approximate u(x) = x, so their norm must stay O(1)
    norms = []
    for delta in (0.2, 0.1, 0.05):
        mesh = build_mesh({"interval": [0.0, 1.0]}, delta / 4.0)
        op = make_op(mesh, "product", delta, a="linear_x")
        norm = lp_norm(mesh, solve_quadratic(op).minimizer, 2.0)
        assert np.isfinite(norm)
        norms.append(norm)
    assert max(norms) <= 2.0
    assert max(norms) / min(norms) <= 10.0


# ------------------------------------------------------------ options

def test_options_validate_ranges():
    for bad in (dict(tol=0.0), dict(tol=1.0), dict(max_iter=0)):
        with pytest.raises(ConfigError):
            SolveOptions(**bad)


def test_options_from_dict_names_unknown_key():
    with pytest.raises(ConfigError) as exc:
        SolveOptions.from_dict({"tol": 1e-8, "momentum": 0.9})
    assert exc.value.info["field"] == "momentum"
    assert "tol" in exc.value.info["supported"]
    opts = SolveOptions.from_dict({"tol": 1e-8, "max_iter": 50})
    assert opts.tol == 1e-8 and opts.max_iter == 50


def test_result_is_frozen():
    op = make_op(COARSE, "product", 0.3, a="linear_x")
    res = solve_quadratic(op)
    assert isinstance(res, SolveResult)
    assert isinstance(res.minimizer, np.ndarray)
    assert res.minimizer.shape == (COARSE.n_interior,)
    with pytest.raises(AttributeError):
        res.energy = 0.0
