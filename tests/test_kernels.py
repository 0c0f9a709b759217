"""Kernel profiles, scaling, quadrature constants, admissibility.

The closed-form oracle values below were derived by hand from the
profile definitions (profiles are functions of the squared scaled
radius s, supported on s <= support**2):

  quartic  (1-s)_+^2, radius form (1-r^2)^2
    1D mass      int_{-1}^{1} (1-r^2)^2 dr                 = 16/15
    sigma d=1    int_{-1}^{1} r^2 (1-r^2)^2 dr             = 16/105
    sigma d=2    int_{B_1} z_1^2 (1-|z|^2)^2 dz            = pi/24
    sigma d=3    (4 pi/3) int_0^1 r^4 (1-r^2)^2 dr        = 32 pi/945
    3D mass      4 pi int_0^1 r^2 (1-r^2)^2 dr             = 32 pi/105
    sigma d=1, p=3   2 int_0^1 r^3 (1-r^2)^2 dr            = 1/12
  cubic    (1-s)_+^3
    1D mass      2 int_0^1 (1-r^2)^3 dr                    = 32/35
    sigma d=1    2 int_0^1 r^2 (1-r^2)^3 dr                = 32/315
  wendland (1-sqrt(s))_+^4 (4 sqrt(s)+1), radius form (1-r)^4(4r+1)
    1D mass      2 int_0^1 (1-r)^4 (4r+1) dr               = 2/3
    2D mass      2 pi int_0^1 (1-r)^4 (4r+1) r dr          = pi/7
    sigma d=3    (4 pi/3) int_0^1 r^4 (1-r)^4 (4r+1) dr    = 2 pi/315
  upper antiderivatives (Kbar(s) = int_s^inf K, applied twice):
    quartic: (1-s)_+^3/3,  (1-s)_+^4/12
    cubic:   (1-s)_+^4/4,  (1-s)_+^5/20
    wendland at 0: 1/7 and 5/252
"""

import math
import warnings

import numpy as np
import pytest

from nldir import (CUBIC, QUARTIC, WENDLAND, KernelError, KernelSpec,
                   QuadratureError, antiderivative_kernel,
                   eval_scaled, kernel_by_id, kernel_mass, minorant_kernel,
                   normalize_w, scaled_mass, sigma_r, tabulated_kernel,
                   validate_kernel)
from nldir.kernels import _ladder

SIGMA_QUARTIC_1D = 16.0 / 105.0
SIGMA_QUARTIC_2D = np.pi / 24.0
SIGMA_CUBIC_1D = 32.0 / 315.0
MASS_QUARTIC_1D = 16.0 / 15.0
MASS_CUBIC_1D = 32.0 / 35.0
MASS_WENDLAND_1D = 2.0 / 3.0
MASS_WENDLAND_2D = np.pi / 7.0
SIGMA_QUARTIC_3D = 32.0 * np.pi / 945.0
MASS_QUARTIC_3D = 32.0 * np.pi / 105.0
SIGMA_QUARTIC_1D_P3 = 1.0 / 12.0
SIGMA_WENDLAND_3D = 2.0 * np.pi / 315.0


def test_sigma_quartic_1d_oracle():
    res = sigma_r(QUARTIC, 2, 1)
    assert abs(res.value - SIGMA_QUARTIC_1D) <= 1e-6 * SIGMA_QUARTIC_1D


def test_sigma_quartic_2d_oracle():
    res = sigma_r(QUARTIC, 2, 2)
    assert abs(res.value - SIGMA_QUARTIC_2D) <= 1e-6 * SIGMA_QUARTIC_2D


def test_sigma_cubic_1d_oracle():
    res = sigma_r(CUBIC, 2, 1)
    assert abs(res.value - SIGMA_CUBIC_1D) <= 1e-6 * SIGMA_CUBIC_1D


def test_radial_moments_match_closed_forms():
    # three dimensions and a non-square exponent go through the same
    # radial quadrature as the 1D and 2D moments
    cases = [(sigma_r(QUARTIC, 2, 3), SIGMA_QUARTIC_3D),
             (kernel_mass(QUARTIC, 3), MASS_QUARTIC_3D),
             (sigma_r(QUARTIC, 3, 1), SIGMA_QUARTIC_1D_P3),
             (sigma_r(WENDLAND, 2, 3), SIGMA_WENDLAND_3D)]
    for res, exact in cases:
        assert abs(res.value - exact) <= 1e-8 * exact


def test_sigma_reports_quadrature_estimate_error():
    res = sigma_r(QUARTIC, 2, 1)
    assert res.error <= 1e-6 * res.value
    assert res.points >= 32


def test_sigma_rejects_bad_exponent_and_dim():
    with pytest.raises(KernelError):
        sigma_r(QUARTIC, 1.0, 1)
    with pytest.raises(KernelError):
        sigma_r(QUARTIC, 2.0, 4)
    with pytest.raises(KernelError):
        sigma_r(QUARTIC, math.inf, 1)  # would exhaust the node budget


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma_at_a_large_exponent_is_finite(dim):
    # each Gamma of the sphere moment overflows above p of about 341,
    # their ratio does not; in 1D the quartic moment is
    # 2 (1/1001 - 2/1003 + 1/1005) = 16 / (1001 1003 1005)
    res = sigma_r(QUARTIC, 1000.0, dim)
    assert math.isfinite(res.value) and res.value > 0.0
    if dim == 1:
        exact = 16.0 / (1001.0 * 1003.0 * 1005.0)
        assert abs(res.value - exact) <= 1e-7 * exact


def test_sigma_budget_exhaustion_carries_extrapolants():
    # sigma_r's own ladder for the 2D quartic at p = 2: the sphere moment
    # pi times the midpoint sum of profile(r^2) r^3 on (0, 1); at
    # tolerance 1e-14 it runs out of a 5,000-node budget
    def estimate(n):
        h = 1.0 / n
        r = (np.arange(n) + 0.5) * h
        return math.pi * float(np.sum(QUARTIC.profile(r * r) * r**3) * h)

    with pytest.raises(QuadratureError) as err:
        _ladder(estimate, 1e-14, 5000, "sigma_R(quartic)")
    assert "last" in err.value.info
    assert err.value.info["last"] is not None


def test_kernel_mass_oracles():
    assert abs(kernel_mass(QUARTIC, 1).value - MASS_QUARTIC_1D) <= 1e-8
    assert abs(kernel_mass(CUBIC, 1).value - MASS_CUBIC_1D) <= 1e-8
    assert abs(kernel_mass(WENDLAND, 1).value - MASS_WENDLAND_1D) <= 1e-8
    assert abs(kernel_mass(WENDLAND, 2).value - MASS_WENDLAND_2D) <= 1e-8


def test_eval_scaled_contract_values():
    # delta^-d profile(rho^2/delta^2), hard zero beyond radius r*delta
    assert eval_scaled(QUARTIC, np.array(0.0), 0.5, 1) == 2.0
    assert eval_scaled(QUARTIC, np.array(0.6), 0.5, 1) == 0.0
    assert abs(eval_scaled(QUARTIC, np.array(0.125), 0.25, 2) - 9.0) <= 1e-14


def test_eval_scaled_zero_beyond_scaled_support():
    rho = np.linspace(0.100001, 1.0, 57)
    assert np.all(eval_scaled(WENDLAND, rho, 0.1, 2) == 0.0)


def test_scaled_kernel_rejects_bad_parameters():
    with pytest.raises(KernelError):
        eval_scaled(QUARTIC, np.array(0.0), 0.0, 1)
    with pytest.raises(KernelError):
        eval_scaled(QUARTIC, np.array(0.0), 0.1, 0)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_eval_scaled_refuses_a_non_finite_horizon(delta):
    # an infinite horizon would scale every weight to 0
    with pytest.raises(KernelError) as exc:
        eval_scaled(QUARTIC, np.array([0.0, 0.5]), delta, 1)
    assert "finite" in str(exc.value)


def test_antiderivative_closed_forms():
    qbar = antiderivative_kernel(QUARTIC)
    assert abs(qbar(0.0) - 1.0 / 3.0) <= 1e-15
    assert abs(qbar(0.5) - 0.5**3 / 3.0) <= 1e-15
    qbb = antiderivative_kernel(qbar)
    assert abs(qbb(0.0) - 1.0 / 12.0) <= 1e-15
    cbar = antiderivative_kernel(CUBIC)
    assert abs(cbar(0.0) - 0.25) <= 1e-15
    assert abs(antiderivative_kernel(cbar)(0.0) - 0.05) <= 1e-15


def test_power_family_is_the_written_out_chain():
    # quartic, cubic and every minorant are scale * (knot - s)_+^m with
    # closed-form upper antiderivatives; the expressions below are the
    # profiles written out one by one, and they agree bit for bit on a
    # grid that runs past the knot
    s = np.linspace(0.0, 1.5, 30001)
    t = 1.0 - np.minimum(s, 1.0)
    chains = [(QUARTIC, "quartic", 1.0, [t**2, t**3 / 3.0, t**4 / 12.0]),
              (CUBIC, "cubic", 1.0, [t**3, t**4 / 4.0, t**5 / 20.0])]
    for base, c2 in ((QUARTIC, 0.3), (CUBIC, 0.5), (WENDLAND, 0.123456789)):
        scale = float(base(c2)) / c2**2
        inside = s <= c2
        chains.append((minorant_kernel(base, c2),
                       f"minorant:{base.label}:{c2!r}", float(np.sqrt(c2)),
                       [np.where(inside, scale * (s - c2) ** 2, 0.0),
                        np.where(inside, scale * (c2 - s) ** 3 / 3.0, 0.0),
                        np.where(inside, scale * (c2 - s) ** 4 / 12.0, 0.0)]))
    for kernel, label, support, profiles in chains:
        for suffix, expected in zip(("", "_bar", "_bbar"), profiles):
            assert kernel.label == label + suffix
            assert kernel.support == support
            assert np.array_equal(kernel(s), expected)
            kernel = antiderivative_kernel(kernel)


def test_wendland_antiderivative_values():
    wbar = antiderivative_kernel(WENDLAND)
    wbb = antiderivative_kernel(wbar)
    assert abs(wbar(0.0) - 1.0 / 7.0) <= 1e-14
    assert abs(wbb(0.0) - 5.0 / 252.0) <= 1e-14


def test_antiderivative_matches_numerical_integral():
    # independent check of the closed forms: Kbar(s) = int_s^{r^2} K,
    # and Kbbar, the antiderivative of Kbar, the same way
    rng = np.random.default_rng(11)
    bases = [QUARTIC, CUBIC, WENDLAND, minorant_kernel(CUBIC, 0.4)]
    for base in bases + [antiderivative_kernel(k) for k in bases]:
        bar = antiderivative_kernel(base)
        r2 = base.support**2
        for s0 in rng.uniform(0.0, r2, 20):
            grid = np.linspace(s0, r2, 20001)
            ref = np.trapezoid(base(grid), grid)
            assert abs(bar(float(s0)) - ref) <= 1e-7 * max(ref, 1e-3)


def test_antiderivative_numeric_fallback_for_tabulated(tmp_path):
    # a tabulation of the quartic must reproduce the closed-form bar
    s = np.linspace(0.0, 1.0, 4001)
    path = tmp_path / "quartic_tab.csv"
    np.savetxt(path, np.column_stack([s, (1.0 - s) ** 2]), delimiter=",")
    tab = tabulated_kernel(str(path))
    bar_tab = antiderivative_kernel(tab)
    bar_exact = antiderivative_kernel(QUARTIC)
    for s0 in np.linspace(0.0, 1.0, 13):
        assert abs(bar_tab(s0) - bar_exact(s0)) <= 1e-6


def test_tabulated_kernel_validation_errors(tmp_path):
    bad_one_col = tmp_path / "one.csv"
    bad_one_col.write_text("0.0\n1.0\n")
    with pytest.raises(KernelError):
        tabulated_kernel(str(bad_one_col))
    bad_order = tmp_path / "order.csv"
    bad_order.write_text("0.5,1.0\n0.2,0.5\n")
    with pytest.raises(KernelError):
        tabulated_kernel(str(bad_order))
    bad_neg = tmp_path / "neg.csv"
    bad_neg.write_text("-0.5,1.0\n0.2,0.5\n")
    with pytest.raises(KernelError):
        tabulated_kernel(str(bad_neg))


@pytest.mark.parametrize("rows, row", [("0,1\n0.5,nan\n1,0\n", 1),
                                       ("0,inf\n0.5,0.25\n1,0\n", 0),
                                       ("0,1\n0.5,0.25\ninf,0\n", 2)])
def test_tabulated_kernel_refuses_non_finite_values(tmp_path, rows, row):
    path = tmp_path / "bad.csv"
    path.write_text(rows)
    with pytest.raises(KernelError, match="finite") as exc:
        tabulated_kernel(str(path))
    assert exc.value.info["row"] == row


def test_kernel_by_id_catalog():
    assert kernel_by_id("quartic") is QUARTIC
    assert kernel_by_id("cubic") is CUBIC
    assert kernel_by_id("wendland") is WENDLAND
    with pytest.raises(KernelError) as err:
        kernel_by_id("parabolic")
    assert "catalog" in err.value.info


def test_kernel_by_id_minorant_and_tabulated(tmp_path):
    mk = kernel_by_id("minorant:quartic:0.5")
    assert mk.support <= QUARTIC.support
    assert mk.label == "minorant:quartic:0.5"   # labels are catalog ids
    s = np.linspace(0.0, 1.0, 101)
    path = tmp_path / "tab.csv"
    np.savetxt(path, np.column_stack([s, (1.0 - s) ** 2]), delimiter=",")
    tk = kernel_by_id(f"tabulated:{path}")
    assert abs(tk(0.25) - 0.5625) <= 1e-12
    assert tk.label == f"tabulated:{path}"


def test_minorant_kernel_sits_below_its_base():
    # (c1/c2^2)(s - c2)^2 on [0, c2] with c1 = base(c2) minorizes any
    # convex nonincreasing profile on that range
    for c2 in (0.3, 0.5, 0.8):
        mk = minorant_kernel(QUARTIC, c2)
        s = np.linspace(0.0, 1.0, 401)
        assert np.all(mk(s) <= QUARTIC(s) + 1e-12)
        assert abs(mk(0.0) - QUARTIC(c2) / c2**2 * c2**2) <= 1e-14
        assert np.all(mk(s[s > c2]) == 0.0)


def test_minorant_kernel_closed_form_antiderivatives():
    mk = minorant_kernel(QUARTIC, 0.5)
    bar = antiderivative_kernel(mk)
    c1 = float(QUARTIC(0.5))
    # int_0^{c2} (c1/c2^2)(s-c2)^2 ds = c1 c2 / 3
    assert abs(bar(0.0) - c1 * 0.5 / 3.0) <= 1e-12
    bbar = antiderivative_kernel(bar)
    assert abs(bbar(0.0) - c1 * 0.25 / 12.0) <= 1e-12


def test_minorant_kernel_rejects_bad_touch_point():
    with pytest.raises(KernelError):
        minorant_kernel(QUARTIC, 1.5)
    with pytest.raises(KernelError):
        minorant_kernel(QUARTIC, 0.0)
    with pytest.raises(KernelError):
        minorant_kernel(QUARTIC, 1e-300)  # c2**2 underflows to zero


def test_normalize_w_unit_mass():
    for dim in (1, 2):
        for base in (QUARTIC, WENDLAND):
            wn = normalize_w(base, dim)
            assert abs(kernel_mass(wn, dim).value - 1.0) <= 1e-8
            assert wn.label.endswith("_normalized")


def test_normalize_w_rejects_zero_mass():
    zero = KernelSpec("null", lambda s: np.zeros_like(np.asarray(s)), 1.0)
    with pytest.raises(KernelError):
        normalize_w(zero, 1)


def test_scaled_mass_invariant_under_horizon():
    # int K_delta = int K for every delta: 100 seeded combinations
    rng = np.random.default_rng(5)
    kernels = [QUARTIC, CUBIC, WENDLAND]
    count = 0
    for _ in range(100):
        base = kernels[rng.integers(len(kernels))]
        dim = int(rng.integers(1, 3))
        delta = float(rng.uniform(0.01, 2.0))
        ref = kernel_mass(base, dim).value
        val = scaled_mass(base, delta, dim).value
        assert abs(val - ref) <= 1e-6 * ref
        count += 1
    assert count == 100


def test_validate_kernel_passes_catalog():
    for base in (QUARTIC, CUBIC, WENDLAND):
        report = validate_kernel(base)
        assert report.passed, [c.condition for c in report.failures()]


def test_validate_kernel_flags_negativity():
    neg = KernelSpec("dip", lambda s: 1.0 - 2.0 * np.asarray(s), 1.0)
    report = validate_kernel(neg)
    failed = {c.condition for c in report.failures()}
    assert "nonnegative" in failed


def test_validate_kernel_flags_nonmonotone(tmp_path):
    s = np.linspace(0.0, 1.0, 101)
    path = tmp_path / "up.csv"
    np.savetxt(path, np.column_stack([s, 0.1 + s]), delimiter=",")
    report = validate_kernel(tabulated_kernel(str(path)))
    failed = {c.condition for c in report.failures()}
    assert "K2 monotone" in failed


@pytest.mark.parametrize("rows", ["0,1\n0.5,nan\n1,0\n",
                                  "0,inf\n0.5,0.25\n1,0\n"])
def test_validate_kernel_flags_non_finite_samples(rows):
    # a NaN or an infinite sample of a profile (interpolated here, as
    # tabulated_kernel refuses such a file) fails nonnegativity at its
    # s; the other four conditions are still reported, and no numpy
    # warning is
    grid, vals = np.array([line.split(",") for line in rows.split()],
                          dtype=float).T
    kernel = KernelSpec("bad", lambda s: np.interp(s, grid, vals, right=0.0),
                        1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_kernel(kernel)
    assert len(report.checks) == 5
    failed = report.failures()
    assert [c.condition for c in failed] == ["nonnegative"]
    assert "is not finite" in failed[0].detail
    assert not np.isfinite(kernel(failed[0].location))


def test_validate_kernel_flags_support_violation():
    # positive beyond the declared support radius
    wide = KernelSpec("wide", lambda s: np.full_like(np.asarray(s, float), 0.5),
                      1.0)
    report = validate_kernel(wide)
    failed = {c.condition for c in report.failures()}
    assert "K3 support" in failed


def test_validate_kernel_flags_kink():
    kink = KernelSpec(
        "tent", lambda s: np.maximum(1.0 - np.asarray(s, float), 0.0), 1.0)
    report = validate_kernel(kink)
    failed = {c.condition for c in report.failures()}
    assert "K1 smoothness" in failed


def test_validate_kernel_accepts_fine_tabulation(tmp_path):
    s = np.linspace(0.0, 1.0, 2001)
    path = tmp_path / "fine.csv"
    np.savetxt(path, np.column_stack([s, (1.0 - s) ** 2]), delimiter=",")
    report = validate_kernel(tabulated_kernel(str(path)))
    assert report.passed, [c.condition for c in report.failures()]


def test_kernel_spec_requires_positive_support():
    with pytest.raises(KernelError):
        KernelSpec("bad", lambda s: np.asarray(s), 0.0)


def test_quadrature_result_well_within_five_seconds():
    import time
    t0 = time.perf_counter()
    sigma_r(QUARTIC, 2, 1)
    sigma_r(QUARTIC, 2, 2)
    assert time.perf_counter() - t0 < 5.0
