"""Energy assembly against an independent O(N^2) reference.

The reference below re-derives everything from closed forms, bypassing
the package's kernel evaluation and neighbor search entirely. For the
quartic profile r(s) = (1-s)_+^2 of the squared scaled radius, the
upper antiderivatives used by the wang/shi penalties are

    rbar(s)    = int_s^1 r       = (1-s)_+^3 / 3
    rbarbar(s) = int_s^1 rbar    = (1-s)_+^4 / 12

and the scaled kernel is k_delta(t) = delta^(-d) r((t/delta)^2).

Energies checked at 1e-12 relative: the ordered-pair interior double
sum (1/delta^p) sum_{i!=j} q_i q_j k_delta(|x_i-x_j|) |u_i-u_j|^p and
all five boundary penalties as stated in the assembly module.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from nldir import (AssemblyError, ConfigError, EnergyOperator, KernelError,
                   MeshError, MollifierError, PenaltySpec, assemble,
                   boundary_data, build_mesh, lp_norm, mollify,
                   w_mass_matrix)
from nldir.assembly import VARIANTS, ZERO_DATA_VARIANTS, trace_matrix
from nldir.kernels import QUARTIC, WENDLAND, KernelSpec, normalize_w

INTERVAL = build_mesh({"interval": [0.0, 1.0]}, 0.1)       # 10 + 2 nodes
SQUARE = build_mesh({"rect": [[0.0, 0.0], [1.0, 1.0]]}, 0.25)  # 16 + 16
L_SHAPE = build_mesh({"polygon": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5],
                                  [0.5, 0.5], [0.5, 1.0], [0.0, 1.0]]},
                     0.125)                                # 48 + 32


# ------------------------------------------------------ independent reference

def r_quartic(s):
    return np.maximum(1.0 - s, 0.0) ** 2


def rbar_quartic(s):
    return np.maximum(1.0 - s, 0.0) ** 3 / 3.0


def rbarbar_quartic(s):
    return np.maximum(1.0 - s, 0.0) ** 4 / 12.0


def k_scaled(profile, t, delta, dim):
    return profile((t / delta) ** 2) / delta ** dim


def naive_interior(mesh, delta, p, u):
    pts, q = mesh.interior_points, mesh.interior_weights
    total = 0.0
    for i in range(mesh.n_interior):
        for j in range(mesh.n_interior):
            if i == j:
                continue
            t = float(np.linalg.norm(pts[i] - pts[j]))
            total += q[i] * q[j] * k_scaled(r_quartic, t, delta, mesh.dim) \
                * abs(u[i] - u[j]) ** p
    return total / delta ** p


def naive_penalty(mesh, delta, p, variant, u, a):
    pts, q = mesh.interior_points, mesh.interior_weights
    d = mesh.dim
    total = 0.0
    for b in range(mesh.n_boundary):
        xb = mesh.boundary_points[b]
        wb = mesh.boundary_weights[b]
        t = np.linalg.norm(pts - xb, axis=1)
        if variant in ("product", "pointwise", "dirac_diagonal"):
            kb = q * k_scaled(r_quartic, t, delta, d)
        else:
            kb = q * k_scaled(rbar_quartic, t, delta, d)
        if variant == "product":
            total += wb * abs((kb @ u - a[b] * np.sum(kb)) / delta) ** p
        elif variant == "pointwise":
            total += wb / delta ** p * float(kb @ np.abs(u - a[b]) ** p)
        elif variant == "dirac_diagonal":
            total += wb / delta ** 2 * float(kb @ u ** 2)
        elif variant == "wang":
            wbb = float(q @ k_scaled(rbarbar_quartic, t, delta, d))
            inner = float(kb @ u - a[b] * np.sum(kb))
            total += 2.0 * wb / (delta ** 2 * wbb) * inner ** 2
        else:  # shi, boundary distance zero so mu = delta^2
            total += 4.0 * wb / delta ** 2 * float(kb @ u ** 2)
    return total


def make_op(mesh, variant, delta, p=2.0, a=None, seed=0):
    rng = np.random.default_rng(seed)
    if a is None and variant not in ZERO_DATA_VARIANTS:
        a = rng.uniform(-1.0, 1.0, mesh.n_boundary)
    spec = PenaltySpec(variant, QUARTIC)
    return assemble(mesh, QUARTIC, spec, delta, p=p, a=a)


def scaled_operator(op, f):
    """op's tables with its energy times f, built by the constructor."""
    return EnergyOperator(op.mesh, op.delta, op.p, op.spec, op.a, op.stencil,
                          op.offset_w * f, op.pen, op.pen_node,
                          op.pen_pref * f)


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


# ------------------------------------------------- brute-force equivalence

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("mesh,delta", [(INTERVAL, 0.3), (SQUARE, 0.5)])
def test_energies_match_double_loop(variant, mesh, delta):
    rng = np.random.default_rng(42)
    u = rng.standard_normal(mesh.n_interior)
    a = (np.zeros(mesh.n_boundary) if variant in ZERO_DATA_VARIANTS
         else rng.uniform(-1.0, 1.0, mesh.n_boundary))
    op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC), delta, a=a)
    assert rel(op.interior_energy(u), naive_interior(mesh, delta, 2.0, u)) \
        <= 1e-12
    assert rel(op.penalty_energy(u),
               naive_penalty(mesh, delta, 2.0, variant, u, a)) <= 1e-12
    want = naive_interior(mesh, delta, 2.0, u) \
        + naive_penalty(mesh, delta, 2.0, variant, u, a)
    assert rel(op.energy(u), want) <= 1e-12


@pytest.mark.parametrize("variant,p,mesh,delta", [
    ("product", 3.0, INTERVAL, 0.3), ("pointwise", 2.5, INTERVAL, 0.3),
    ("product", 1.5, INTERVAL, 0.3), ("pointwise", 1.5, INTERVAL, 0.3),
    ("product", 3.0, SQUARE, 0.5), ("pointwise", 3.0, SQUARE, 0.5)],
    ids=["product-3.0", "pointwise-2.5", "product-1.5", "pointwise-1.5",
         "product-3.0-square", "pointwise-3.0-square"])
def test_general_p_matches_double_loop(variant, p, mesh, delta):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(mesh.n_interior)
    a = rng.uniform(-1.0, 1.0, mesh.n_boundary)
    op = assemble(mesh, QUARTIC, PenaltySpec(variant, QUARTIC), delta,
                  p=p, a=a)
    assert rel(op.interior_energy(u),
               naive_interior(mesh, delta, p, u)) <= 1e-12
    assert rel(op.penalty_energy(u),
               naive_penalty(mesh, delta, p, variant, u, a)) <= 1e-12


def test_shi_alternate_prefactor_divides_by_delta_sq():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(INTERVAL.n_interior)
    base = assemble(INTERVAL, QUARTIC, PenaltySpec("shi", QUARTIC), 0.3)
    alt = assemble(INTERVAL, QUARTIC,
                   PenaltySpec("shi", QUARTIC, shi_delta_sq_prefactor=True),
                   0.3)
    assert rel(alt.penalty_energy(u),
               base.penalty_energy(u) / 0.3 ** 2) <= 1e-13


# ------------------------------------------------------------- p = 2 form

def quadratic_energy(op, u):
    """u^T A u - 2 l^T u + c0 from the operator's p = 2 form."""
    return float(u @ op.apply_quadratic(u) - 2.0 * (op.linear_term @ u)
                 + op.constant_term)


@pytest.mark.parametrize("variant", VARIANTS)
def test_quadratic_form_matches_direct_energy(variant):
    for mesh, delta in [(INTERVAL, 0.25), (SQUARE, 0.5)]:
        op = make_op(mesh, variant, delta, seed=3)
        rng = np.random.default_rng(13)
        for _ in range(5):
            u = rng.standard_normal(mesh.n_interior)
            assert rel(quadratic_energy(op, u), op.energy(u)) <= 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_is_two_au_minus_two_ell(variant):
    op = make_op(SQUARE, variant, 0.5, seed=8)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(SQUARE.n_interior)
    want = 2.0 * (op.apply_quadratic(u) - op.linear_term)
    got = op.gradient(u)
    assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))


def test_quadratic_form_refused_for_other_p():
    op = make_op(INTERVAL, "product", 0.25, p=3.0, seed=1)
    with pytest.raises(AssemblyError):
        op.apply_quadratic(np.zeros(INTERVAL.n_interior))
    with pytest.raises(AssemblyError):
        _ = op.linear_term


def test_matching_constant_data_gives_zero_penalty():
    c = 0.7
    u = np.full(SQUARE.n_interior, c)
    a = np.full(SQUARE.n_boundary, c)
    for variant in ("product", "pointwise", "wang"):
        op = assemble(SQUARE, QUARTIC, PenaltySpec(variant, QUARTIC), 0.5, a=a)
        assert op.interior_energy(u) == 0.0
        assert abs(op.penalty_energy(u)) <= 1e-13


# ------------------------------------------------------- gradient by FD

def fd_gradient(op, u, step):
    g = np.empty_like(u)
    for k in range(u.size):
        up = u.copy()
        um = u.copy()
        up[k] += step
        um[k] -= step
        g[k] = (op.energy(up) - op.energy(um)) / (2.0 * step)
    return g


@pytest.mark.parametrize("variant,p", [
    ("product", 2.0), ("pointwise", 2.0), ("dirac_diagonal", 2.0),
    ("wang", 2.0), ("shi", 2.0),
    ("product", 3.0), ("pointwise", 3.0),
    ("product", 4.0), ("pointwise", 4.0),
    ("product", 1.5), ("pointwise", 1.5),
])
def test_gradient_matches_finite_differences(variant, p):
    op = make_op(INTERVAL, variant, 0.3, p=p, seed=17)
    rng = np.random.default_rng(23)
    for _ in range(3):
        u = rng.standard_normal(INTERVAL.n_interior)
        step = 1e-5 * (1.0 + float(np.max(np.abs(u))))
        g = op.gradient(u)
        g_fd = fd_gradient(op, u, step)
        err = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g), 1e-300)
        assert err <= 1e-6


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("variant", ["product", "pointwise"])
@pytest.mark.parametrize("mesh,delta", [(INTERVAL, 0.3), (SQUARE, 0.5),
                                        (L_SHAPE, 0.3)])
def test_hessian_matches_central_differences_of_the_gradient(mesh, delta,
                                                             variant, p):
    # rank-one (product) and diagonal (pointwise) penalty forms; at a
    # random field no difference or residual comes near the floor
    op = make_op(mesh, variant, delta, p=p, seed=19)
    u = np.random.default_rng(29).standard_normal(mesh.n_interior)
    hess = op.hessian(u)
    step = 1e-6
    eye = np.eye(mesh.n_interior)
    got = np.column_stack([hess(e) for e in eye])
    want = np.column_stack([(op.gradient(u + step * e)
                             - op.gradient(u - step * e)) / (2.0 * step)
                            for e in eye])
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


# --------------------------------------------------------- invariances

def test_translation_invariance_hundred_cases():
    rng = np.random.default_rng(31)
    base = build_mesh({"interval": [0.0, 1.0]}, 0.1)
    spec = PenaltySpec("product", QUARTIC)
    a = rng.uniform(-1.0, 1.0, base.n_boundary)
    op0 = assemble(base, QUARTIC, spec, 0.3, a=a)
    cases = 0
    for shift in rng.uniform(-5.0, 5.0, 10):
        moved = build_mesh({"interval": [shift, 1.0 + shift]}, 0.1)
        op1 = assemble(moved, QUARTIC, spec, 0.3, a=a)
        for _ in range(10):
            u = rng.standard_normal(base.n_interior)
            assert rel(op1.interior_energy(u), op0.interior_energy(u)) <= 1e-12
            assert rel(op1.energy(u), op0.energy(u)) <= 1e-12
            cases += 1
    assert cases >= 100


def test_shift_covariance_hundred_cases():
    # adding a constant to both the field and the datum keeps the energy
    rng = np.random.default_rng(37)
    cases = 0
    for variant in ("product", "pointwise", "wang"):
        op = make_op(SQUARE, variant, 0.5, seed=41)
        for _ in range(34):
            u = rng.standard_normal(SQUARE.n_interior)
            a = rng.uniform(-1.0, 1.0, SQUARE.n_boundary)
            c = float(rng.uniform(-10.0, 10.0))
            e0 = op.twin(a=a).energy(u)
            e1 = op.twin(a=a + c).energy(u + c)
            assert rel(e1, e0) <= 1e-11
            cases += 1
    assert cases >= 100


def test_positive_scaling_hundred_cases():
    rng = np.random.default_rng(43)
    ops = [make_op(INTERVAL, "product", 0.3, seed=47),
           make_op(INTERVAL, "pointwise", 0.3, p=3.0, seed=53)]
    cases = 0
    for op in ops:
        for _ in range(50):
            c = float(rng.uniform(0.1, 10.0))
            u = rng.standard_normal(INTERVAL.n_interior)
            sc = scaled_operator(op, c)
            assert rel(sc.energy(u), c * op.energy(u)) <= 1e-12
            g0, g1 = op.gradient(u), sc.gradient(u)
            assert np.linalg.norm(g1 - c * g0) \
                <= 1e-12 * (1 + np.linalg.norm(c * g0))
            cases += 1
    assert cases >= 100


def test_scaled_quadratic_form_consistent():
    op = make_op(SQUARE, "wang", 0.5, seed=59)
    sc = scaled_operator(op, 3.7)
    rng = np.random.default_rng(61)
    u = rng.standard_normal(SQUARE.n_interior)
    assert rel(quadratic_energy(sc, u), 3.7 * quadratic_energy(op, u)) <= 1e-12
    assert np.allclose(sc.apply_quadratic(u), 3.7 * op.apply_quadratic(u),
                       rtol=1e-12, atol=0)
    assert sc.constant_term == pytest.approx(3.7 * op.constant_term, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_scaled_operator_never_reads_stale_pair_lists(p):
    # the per-offset pair weights of the slices, and the tau symbol and
    # the layer columns built on first use, scale with the operator: one
    # scaled after its caches exist must not read the unscaled weights
    rng = np.random.default_rng(67)
    u = rng.standard_normal(L_SHAPE.n_interior)
    v = rng.standard_normal(L_SHAPE.n_interior)
    f = 3.7
    for built_first in (False, True):
        op = make_op(L_SHAPE, "product", 0.3, p=p, seed=71)
        if built_first:
            _ = op._symbol
            if p == 2.0:
                _ = op._layer_columns
        sc = scaled_operator(op, f)
        assert rel(sc.energy(u), f * op.energy(u)) <= 1e-14
        g = f * op.gradient(u)
        assert np.linalg.norm(sc.gradient(u) - g) <= 1e-14 * np.linalg.norm(g)
        hv = f * op.hessian(u)(v)
        assert np.linalg.norm(sc.hessian(u)(v) - hv) \
            <= 1e-14 * np.linalg.norm(hv)
        if p == 2.0:
            aq = f * op.apply_quadratic(u)
            assert np.linalg.norm(sc.apply_quadratic(u) - aq) \
                <= 1e-14 * np.linalg.norm(aq)
        assert np.array_equal(sc._w2, op._w2 * f)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_scaled_operator_never_reads_a_stale_factor(p):
    # the DST solve, the layer blocks and the layer factor are built on
    # first use and cached; an operator scaled after that builds its own
    # from the scaled weights. Scaling A and l by f scales P^-1 and the
    # deflated step's z by 1/f and keeps x0 and A z
    rng = np.random.default_rng(73)
    r = rng.standard_normal(L_SHAPE.n_interior)
    f = 3.7
    for built_first in (False, True):
        op = make_op(L_SHAPE, "product", 0.3, p=p, seed=71)
        if built_first:
            op.preconditioner()
        sc = scaled_operator(op, f)
        want = op.preconditioner()(r) / f
        got = sc.preconditioner()(r)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        if p == 2.0:
            x0, r0, step = op.deflated_cg()
            sx0, sr0, sstep = sc.deflated_cg()
            assert np.linalg.norm(sx0 - x0) <= 1e-12 * np.linalg.norm(x0)
            assert np.linalg.norm(sr0 - f * r0) \
                <= 1e-12 * np.linalg.norm(f * op.linear_term)
            (z, az), (sz, saz) = step(r), sstep(r)
            assert np.linalg.norm(sz - z / f) <= 1e-12 * np.linalg.norm(z / f)
            assert np.linalg.norm(saz - az) <= 1e-12 * np.linalg.norm(az)


def test_operator_is_freed_without_the_cycle_collector():
    # the first-use caches (the tau symbol, the DST solve, the layer
    # columns and factor) hold arrays and closures over arrays, never
    # the operator, so dropping the last reference frees it at once
    rng = np.random.default_rng(79)
    u = rng.standard_normal(L_SHAPE.n_interior)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for variant, p in (("product", 2.0), ("pointwise", 3.0)):
            op = make_op(L_SHAPE, variant, 0.3, p=p, seed=71)
            op.preconditioner()(u)
            if op.p == 2.0:
                op.apply_quadratic(u)
                op.deflated_cg()
            ref = weakref.ref(op)
            del op
            assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------------------- mollifier

def test_mollify_reproduces_constants():
    u = np.full(SQUARE.n_interior, 2.5)
    smooth, trace = mollify(SQUARE, QUARTIC, 0.5, u)
    assert np.allclose(smooth, 2.5, rtol=1e-13)
    assert np.allclose(trace, 2.5, rtol=1e-13)


def test_mollify_linear_trace_near_datum():
    u = INTERVAL.interior_points[:, 0].copy()
    _, trace = mollify(INTERVAL, QUARTIC, 0.3, u)
    # kernel average of x over one-sided neighborhoods of 0 and 1
    assert abs(trace[0] - 0.0) < 0.2
    assert abs(trace[1] - 1.0) < 0.2
    assert trace[0] < trace[1]


def test_mollify_boundary_starvation_names_node():
    u = np.ones(INTERVAL.n_interior)
    with pytest.raises(MollifierError) as exc:
        mollify(INTERVAL, QUARTIC, 0.05, u)   # radius 0.05 = first gap
    assert "node" in exc.value.info
    assert "position" in exc.value.info


@pytest.mark.parametrize("mesh, delta", [(INTERVAL, 0.3), (SQUARE, 0.5),
                                         (L_SHAPE, 0.3)])
def test_trace_matrix_block_matches_mollify(mesh, delta):
    block = np.random.default_rng(97).standard_normal((mesh.n_interior, 7))
    traces = trace_matrix(mesh, QUARTIC, delta) @ block
    pts, q = mesh.interior_points, mesh.interior_weights
    for k in range(block.shape[1]):
        want = mollify(mesh, QUARTIC, delta, block[:, k])[1]
        assert np.max(np.abs(traces[:, k] - want)) \
            <= 1e-14 * np.max(np.abs(want))
        # independent closed-form reference, one boundary node at a time
        for b, xb in enumerate(mesh.boundary_points):
            kb = q * k_scaled(r_quartic, np.linalg.norm(pts - xb, axis=1),
                              delta, mesh.dim)
            assert rel(traces[b, k], kb @ block[:, k] / kb.sum()) <= 1e-12


@pytest.mark.parametrize("mesh, delta", [(INTERVAL, 0.3), (SQUARE, 0.5),
                                         (L_SHAPE, 0.3)])
def test_mollify_is_the_row_normalized_mass_matrix(mesh, delta):
    # the interior smoothing is w_mass_matrix with kernel Khat over its
    # row sums: the node weight q_i of B[i, j] = q_i q_j Khat cancels
    u = np.random.default_rng(101).standard_normal(mesh.n_interior)
    mass = w_mass_matrix(mesh, QUARTIC, delta)
    want = (mass @ u) / (mass @ np.ones(mesh.n_interior))
    got = mollify(mesh, QUARTIC, delta, u)[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_trace_matrix_boundary_starvation_names_node():
    with pytest.raises(MollifierError) as exc:
        trace_matrix(INTERVAL, QUARTIC, 0.05)   # radius 0.05 = first gap
    assert exc.value.info["node"] == 0
    assert exc.value.info["position"] == [0.0]


def test_mollify_dead_kernel_names_interior_node():
    dead = KernelSpec("dead", lambda s: np.zeros_like(np.asarray(s, float)),
                      1.0)
    u = np.ones(INTERVAL.n_interior)
    with pytest.raises(MollifierError) as exc:
        mollify(INTERVAL, dead, 0.3, u)
    assert "interior" in str(exc.value)


# ------------------------------------------------------------ mass matrix

@pytest.mark.parametrize("mesh, delta", [(INTERVAL, 0.3), (SQUARE, 0.5)],
                         ids=["interval", "square"])
def test_mass_matrix_matches_double_loop(mesh, delta):
    # B[i, j] = q_i q_j W_delta(|x_i - x_j|) over every node pair, i = j
    # included, from the closed-form quartic profile
    pts, q = mesh.interior_points, mesh.interior_weights
    n = mesh.n_interior
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            t = float(np.linalg.norm(pts[i] - pts[j]))
            ref[i, j] = q[i] * q[j] * k_scaled(r_quartic, t, delta, mesh.dim)
    got = w_mass_matrix(mesh, QUARTIC, delta).toarray()
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mass_matrix_symmetric_with_positive_diagonal():
    W = normalize_w(WENDLAND, 1)
    B = w_mass_matrix(INTERVAL, W, 0.3)
    dense = B.toarray()
    assert np.allclose(dense, dense.T, atol=0)
    assert np.all(np.diag(dense) > 0)


# ---------------------------------------------------------- input checking

def test_assemble_rejects_bad_settings():
    spec = PenaltySpec("product", QUARTIC)
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, -0.1)
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, 0.15)   # below two cells
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, 0.3, p=1.0)
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, 0.3, p=0.5)


@pytest.mark.parametrize("variant", ["dirac_diagonal", "wang", "shi"])
def test_quadratic_only_variants_reject_other_p(variant):
    spec = PenaltySpec(variant, QUARTIC)
    with pytest.raises(AssemblyError) as exc:
        assemble(INTERVAL, QUARTIC, spec, 0.3, p=3.0)
    assert variant in str(exc.value)


@pytest.mark.parametrize("variant", ZERO_DATA_VARIANTS)
def test_zero_data_variants_reject_nonzero_datum(variant):
    spec = PenaltySpec(variant, QUARTIC)
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, 0.3, a="linear_x")
    op = assemble(INTERVAL, QUARTIC, spec, 0.3)
    with pytest.raises(AssemblyError):
        op.twin(a=np.ones(INTERVAL.n_boundary))


@pytest.mark.parametrize("variant, change", [
    ("wang", {"p": 3.0}),
    ("dirac_diagonal", {"a": np.ones(2)}),
    ("product", {"p": 0.5}),
    ("product", {"a": np.ones(7)}),
    # at p = inf every weight and prefactor would be inf, the energy NaN
    ("product", {"p": np.inf}),
])
def test_twin_checks_what_assemble_checks(variant, change):
    # a twin's exponent and datum pass assemble()'s checks, so a bad one
    # is refused at once instead of in a later energy() call
    spec = PenaltySpec(variant, QUARTIC)
    with pytest.raises(AssemblyError):
        assemble(INTERVAL, QUARTIC, spec, 0.3, p=change.get("p", 2.0),
                 a=change.get("a"))
    op = assemble(INTERVAL, QUARTIC, spec, 0.3)
    with pytest.raises(AssemblyError):
        op.twin(**change)


def test_an_infinite_horizon_is_refused():
    # an infinite window has no cell count: refused before any stencil
    spec = PenaltySpec("product", QUARTIC)
    with pytest.raises(AssemblyError, match="finite") as exc:
        assemble(INTERVAL, QUARTIC, spec, np.inf)
    assert exc.value.info == {"delta": np.inf}
    with pytest.raises(MeshError, match="finite"):
        w_mass_matrix(INTERVAL, WENDLAND, np.inf)


@pytest.mark.parametrize("variant, shi_delta_sq", [
    (v, False) for v in VARIANTS] + [("shi", True)])
def test_twin_datum_matches_a_fresh_assembly(variant, shi_delta_sq):
    # twin(a=...) is the one way to change an operator's datum: its
    # penalty energy is the one assemble(..., a=...) gives, bit for bit
    rng = np.random.default_rng(113)
    spec = PenaltySpec(variant, QUARTIC, shi_delta_sq)
    op = assemble(SQUARE, QUARTIC, spec, 0.5)
    for _ in range(5):
        a = (np.zeros(SQUARE.n_boundary) if variant in ZERO_DATA_VARIANTS
             else rng.uniform(-1.0, 1.0, SQUARE.n_boundary))
        u = rng.standard_normal(SQUARE.n_interior)
        fresh = assemble(SQUARE, QUARTIC, spec, 0.5, a=a)
        assert op.twin(a=a).penalty_energy(u) == fresh.penalty_energy(u)


def test_assemble_rejects_invalid_kernel():
    tent = KernelSpec("tent", lambda s: np.maximum(1.0 - np.asarray(s), 0.0),
                      1.0)
    with pytest.raises(KernelError) as exc:
        assemble(INTERVAL, tent, PenaltySpec("product", tent), 0.3)
    assert "conditions" in exc.value.info


def test_penalty_spec_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        PenaltySpec("huber", QUARTIC)


def test_field_and_data_length_checks():
    # nodal input is one number per node of the mesh; anything else, a
    # non-numeric value included, is refused naming the expected length
    op = make_op(INTERVAL, "product", 0.3)
    n, m = INTERVAL.n_interior, INTERVAL.n_boundary
    for expected, call in [
            (n, lambda: op.energy(np.zeros(3))),
            (n, lambda: op.energy("abc")),
            (n, lambda: mollify(INTERVAL, QUARTIC, 0.3, [[1.0]])),
            (n, lambda: lp_norm(INTERVAL, [1.0])),
            (m, lambda: boundary_data(INTERVAL, np.zeros(5))),
            (m, lambda: op.twin(a="linear_x")),
            (m, lambda: assemble(INTERVAL, QUARTIC, op.spec, 0.3,
                                 a={"x": 1}))]:
        with pytest.raises(AssemblyError) as exc:
            call()
        assert exc.value.info["expected"] == expected
    u = INTERVAL.interior_points[:, 0] ** 2
    assert op.energy(u.tolist()) == op.energy(u)
    assert boundary_data(INTERVAL, [0, 1]).tolist() == [0.0, 1.0]


def test_complex_input_is_refused_not_cast_to_its_real_part():
    # casting dropped the imaginary part: energy(1j * ones) read 0.0
    op = make_op(INTERVAL, "product", 0.3)
    n, m = INTERVAL.n_interior, INTERVAL.n_boundary
    for expected, call in [
            (n, lambda: op.energy(1j * np.ones(n))),
            (n, lambda: op.gradient([1j] * n)),
            (n, lambda: op.apply_quadratic(np.ones(n, dtype=complex))),
            (m, lambda: op.twin(a=np.ones(m) + 0j)),
            (m, lambda: assemble(INTERVAL, QUARTIC, op.spec, 0.3,
                                 a=[1j, 0.0]))]:
        with pytest.raises(AssemblyError, match="real") as exc:
            call()
        assert exc.value.info["expected"] == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_datum_is_refused_naming_its_node(bad):
    # a NaN datum reached the solver, which spent its whole budget at
    # energy NaN; it is refused where the datum is admitted instead
    a = np.zeros(SQUARE.n_boundary)
    a[[3, 9]] = bad
    spec = PenaltySpec("product", QUARTIC)
    op = assemble(SQUARE, QUARTIC, spec, 0.5)
    for call in (lambda: assemble(SQUARE, QUARTIC, spec, 0.5, a=a),
                 lambda: op.twin(a=a)):
        with pytest.raises(AssemblyError, match="finite") as exc:
            call()
        info = exc.value.info
        assert info["node"] == 3 and info["count"] == 2
        assert np.array_equal(info["point"], SQUARE.boundary_points[3])
        json.dumps(exc.value.payload(), allow_nan=False)


def test_operator_rejects_foreign_field():
    op = make_op(INTERVAL, "product", 0.3)
    with pytest.raises(AssemblyError):
        op.energy(np.zeros(7))


# ------------------------------------------------------------ boundary data

def test_boundary_data_catalog():
    assert np.all(boundary_data(INTERVAL, None) == 0.0)
    assert np.all(boundary_data(INTERVAL, "zero") == 0.0)
    lin = boundary_data(INTERVAL, "linear_x")
    assert sorted(lin.tolist()) == [0.0, 1.0]
    harm = boundary_data(SQUARE, "harmonic_x2_minus_y2")
    pts = SQUARE.boundary_points
    assert np.allclose(harm, pts[:, 0] ** 2 - pts[:, 1] ** 2)
    xy = boundary_data(SQUARE, "harmonic_xy")
    assert np.allclose(xy, pts[:, 0] * pts[:, 1])


def test_boundary_data_harmonic_needs_2d():
    with pytest.raises(ConfigError):
        boundary_data(INTERVAL, "harmonic_xy")


def test_boundary_data_unknown_name_lists_catalog():
    with pytest.raises(ConfigError) as exc:
        boundary_data(INTERVAL, "bessel")
    assert "catalog" in exc.value.info
    assert "linear_x" in exc.value.info["catalog"]


# ------------------------------------------------------------------- lp_norm

def test_lp_norm_is_weighted_quadrature():
    rng = np.random.default_rng(89)
    v = rng.standard_normal(INTERVAL.n_interior)
    q = INTERVAL.interior_weights
    assert lp_norm(INTERVAL, v) == pytest.approx(
        float(np.sqrt(np.sum(q * v ** 2))), rel=1e-14)
    assert lp_norm(INTERVAL, v, p=3.0) == pytest.approx(
        float(np.sum(q * np.abs(v) ** 3) ** (1 / 3)), rel=1e-14)
