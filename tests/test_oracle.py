"""Grid oracle checks: exact cases, convergence rates, and flagged failures."""

import math
import random

import numpy as np
import pytest

from spikecert.oracle import (
    PolynomialField,
    AxisVanishingReport,
    MeridionalGrid,
    check_axis_vanishing,
    check_conjugation,
    check_divergence,
    check_reconstruction_scaling,
    default_grid,
    standard_checks,
)


# ---------------------------------------------------------------- grid basics


def test_grid_rejects_axis():
    with pytest.raises(ValueError, match="rho_min"):
        MeridionalGrid(rho_min=0.0)
    with pytest.raises(ValueError, match="rho_min"):
        MeridionalGrid(rho_min=-0.5)


def test_grid_rejects_degenerate_extent():
    with pytest.raises(ValueError):
        MeridionalGrid(rho_min=2.0, rho_max=1.0)
    with pytest.raises(ValueError):
        MeridionalGrid(zeta_min=3.0, zeta_max=3.0)
    with pytest.raises(ValueError):
        MeridionalGrid(n_rho=1)


def test_grid_spacing():
    g = MeridionalGrid(0.1, 6.0, -6.0, 6.0, 60, 121)
    assert g.h_rho == pytest.approx(5.9 / 59, rel=1e-15)
    assert g.h_zeta == pytest.approx(0.1, rel=1e-15)
    rho, zeta = g.nodes()
    assert rho.shape == (60, 121)
    assert rho[0, 0] == 0.1 and rho[-1, 0] == 6.0
    assert zeta[0, 0] == -6.0 and zeta[0, -1] == 6.0


def test_default_grid_shape():
    g = default_grid()
    assert (g.n_rho, g.n_zeta) == (256, 256)
    assert g.rho_min == 0.1


def test_field_rejects_nonfinite_and_wrong_rank():
    g = MeridionalGrid(n_rho=16, n_zeta=16)
    for check in (check_conjugation, check_divergence):
        with pytest.raises(ValueError, match="non-finite"):
            check(lambda r, z: np.where(r > 3.0, np.nan, r * z), g)
        with pytest.raises(ValueError, match="does not match"):
            check(lambda r, z: r[:, 0], g)


def test_field_shape_must_match_grid():
    g = MeridionalGrid(n_rho=16, n_zeta=16)
    with pytest.raises(ValueError, match="does not match"):
        check_conjugation(lambda r, z: np.zeros((8, 8)), g)


# -------------------------------------------------------------- conjugation


def test_conjugation_quadratic_times_linear_is_exact():
    # f = r^2 z makes both sides vanish identically; only the rounding
    # amplification of the cancelling r-derivatives survives.
    d = check_conjugation(lambda r, z: r * r * z)
    assert d <= 1e-6


def test_conjugation_quartic_matches_constant_eight():
    # Analytically both sides equal 8; the grid picks up the quartic's
    # second-order truncation, largest at the inner radius.
    d = check_conjugation(lambda r, z: r ** 4)
    assert 0.0 < d <= 0.05


def test_conjugation_quartic_shrinks_under_refinement():
    g1 = MeridionalGrid(n_rho=128, n_zeta=128)
    g2 = MeridionalGrid(n_rho=255, n_zeta=255)
    d1 = check_conjugation(lambda r, z: r ** 4, g1)
    d2 = check_conjugation(lambda r, z: r ** 4, g2)
    assert d2 < d1


def test_conjugation_gaussian_second_order():
    # the f_r / r term drags the max discrepancy toward the inner edge
    # on coarse grids, so the clean second-order window needs the
    # default resolution before the halved grid
    f = lambda r, z: r ** 3 * np.exp(-r * r - z * z)
    g1 = MeridionalGrid(n_rho=256, n_zeta=256)
    g2 = MeridionalGrid(n_rho=511, n_zeta=511)
    ratio = check_conjugation(f, g1) / check_conjugation(f, g2)
    assert 3.5 <= ratio <= 4.5


def test_conjugation_polynomial_route_exact():
    # analytic derivatives leave only float operation-order noise
    r2z = PolynomialField([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert check_conjugation(r2z) <= 1e-12
    r4 = PolynomialField([[0.0], [0.0], [0.0], [0.0], [1.0]])
    assert check_conjugation(r4) <= 1e-12


def test_conjugation_polynomial_route_random():
    rng = random.Random(7)
    for _ in range(20):
        c = [[rng.uniform(-2.0, 2.0) for _ in range(4)] for _ in range(5)]
        d = check_conjugation(PolynomialField(c), MeridionalGrid(n_rho=32, n_zeta=32))
        assert d <= 1e-11


def test_polynomial_field_validation_and_derivatives():
    with pytest.raises(ValueError, match="2d"):
        PolynomialField(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        PolynomialField([[np.inf]])
    p = PolynomialField([[0.0], [0.0], [0.0], [1.0]])  # rho^3
    assert p.deriv(1, 0).coeffs[2, 0] == 3.0
    assert p.deriv(4, 0).coeffs.shape == (1, 1)
    assert p.deriv(0, 2).coeffs[0, 0] == 0.0
    r, z = default_grid().nodes()
    assert np.allclose(p.eval(r, z), r ** 3)


def test_conjugation_accepts_sampled_field():
    # a callable is sampled on the nodes: the same values given as a
    # callable of the node arrays give the same discrepancy
    g = MeridionalGrid(n_rho=64, n_zeta=64)
    f = lambda r, z: r ** 3 * np.exp(-r * r - z * z)
    values = f(*g.nodes())
    assert check_conjugation(f, g) == check_conjugation(lambda r, z: values, g)


# --------------------------------------------------------------- divergence


def test_divergence_quartic_linear_stream():
    # psi = rho^4 zeta gives u^rho = -rho and u^zeta = 4 zeta, whose
    # divergence -1 - 3 + 4 cancels; fourth-order stencils are exact on
    # quartics so only rounding remains.
    d = check_divergence(lambda r, z: r ** 4 * z)
    assert d <= 1e-6


def test_divergence_quartic_cubic_stream():
    d = check_divergence(lambda r, z: r ** 4 * z ** 3)
    g = default_grid()
    assert d <= g.h_rho ** 2 + g.h_zeta ** 2


def test_divergence_zero_stream_is_zero():
    assert check_divergence(lambda r, z: np.zeros_like(r)) == 0.0


def test_divergence_polynomials_exact_to_rounding():
    # Streams rho^4 q(zeta) with deg q <= 4 keep both velocity
    # components polynomial after the rho^{-3} division, so every
    # stencil in the pipeline is exact and the cancellation survives.
    rng = random.Random(20260818)
    g = MeridionalGrid(n_rho=48, n_zeta=48)
    rho, zeta = g.nodes()
    for _ in range(10):
        q = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        psi = rho ** 4 * sum(c * zeta ** j for j, c in enumerate(q))
        psi = psi + rng.uniform(-1.0, 1.0)
        scale = max(1.0, float(np.abs(psi).max()))
        d = check_divergence(lambda r, z: psi, g)
        assert d <= 1e-6 * scale


def test_divergence_blind_to_radial_streams():
    # a stream depending on rho alone produces u^rho = 0 and a u^zeta
    # that is constant along zeta, so the residual is pure rounding
    # whatever the degree
    g = MeridionalGrid(n_rho=48, n_zeta=48)
    d = check_divergence(lambda r, z: r ** 7 + 2.0 * r ** 5, g)
    assert d <= 1e-12 * 6.0 ** 7


def test_divergence_needs_wide_enough_grid():
    with pytest.raises(ValueError, match="at least 9"):
        check_divergence(lambda r, z: r, MeridionalGrid(n_rho=8, n_zeta=16))


def test_divergence_fourth_order_away_from_axis():
    # with the inner radius at 1 the rho^{-3} weight is tame and the
    # two differencing passes show their nominal fourth-order rate
    f = lambda r, z: np.exp(-((r - 2.5) ** 2) - z * z)
    g1 = MeridionalGrid(1.0, 6.0, -3.0, 3.0, 64, 64)
    g2 = MeridionalGrid(1.0, 6.0, -3.0, 3.0, 127, 127)
    ratio = check_divergence(f, g1) / check_divergence(f, g2)
    assert 8.0 < ratio < 40.0


# ------------------------------------------------------------ axis vanishing


def test_axis_quadratic_gaussian_exponent_four():
    rep = check_axis_vanishing(lambda r, z: r * r * np.exp(-r * r - z * z))
    assert isinstance(rep, AxisVanishingReport)
    assert rep.passed
    assert rep.exponent == pytest.approx(4.0, abs=0.05)
    # I(eps) = 2 sqrt(pi) eps^4 (1 - eps^2) e^{-eps^2}
    want = 2.0 * math.sqrt(math.pi) * 0.1 ** 4 * (1 - 0.01) * math.exp(-0.01)
    assert rep.values[0] == pytest.approx(want, rel=1e-6)


def test_axis_zero_profile_passes_vacuously():
    rep = check_axis_vanishing(lambda r, z: np.zeros_like(z) * r)
    assert rep.passed
    assert rep.exponent == math.inf
    assert all(v == 0.0 for v in rep.values)


def test_axis_linear_profile_flagged():
    # W = rho e^{-zeta^2} has boundary term sqrt(pi) eps^3: exponent 3,
    # below the required rate.
    rep = check_axis_vanishing(lambda r, z: r * np.exp(-z * z))
    assert not rep.passed
    assert rep.exponent == pytest.approx(3.0, abs=1e-3)
    assert rep.values[0] == pytest.approx(math.sqrt(math.pi) * 1e-3, rel=1e-6)


def test_axis_radii_validation():
    w = lambda r, z: r * r * np.exp(-z * z)
    with pytest.raises(ValueError, match="decreasing"):
        check_axis_vanishing(w, epsilons=(0.01, 0.1))
    with pytest.raises(ValueError, match="positive"):
        check_axis_vanishing(w, epsilons=(0.1, -0.05))
    with pytest.raises(ValueError, match="two radii"):
        check_axis_vanishing(w, epsilons=(0.1,))


def test_axis_custom_weight():
    # phi = e^{-zeta^2} squares the Gaussian weight but leaves the
    # eps^4 rate alone.
    rep = check_axis_vanishing(
        lambda r, z: r * r * np.exp(-r * r - z * z), phi=lambda z: np.exp(-z * z)
    )
    assert rep.passed
    assert rep.exponent == pytest.approx(4.0, abs=0.05)


# ------------------------------------------------------------ reconstruction


def test_reconstruction_products_and_integral():
    rep = check_reconstruction_scaling(1.0, 1.0, [0.0, 0.5, 0.9, 0.999])
    assert rep.passed
    assert rep.spread < 1e-12
    assert all(p == pytest.approx(1.0, rel=1e-14) for p in rep.products)
    # closed form omega_sup ln(T*/eps) at eps = 1e-6
    assert rep.closed_form == pytest.approx(13.815510557964274, abs=1e-12)
    assert rep.partial_integral == pytest.approx(rep.closed_form, rel=1e-9)


def test_reconstruction_halving_epsilon_adds_log_two():
    a = check_reconstruction_scaling(2.5, 1.0, [0.5], epsilon=1e-6)
    b = check_reconstruction_scaling(2.5, 1.0, [0.5], epsilon=5e-7)
    assert b.partial_integral - a.partial_integral == pytest.approx(
        2.5 * math.log(2.0), rel=1e-8
    )


def test_reconstruction_scales_with_omega_sup():
    a = check_reconstruction_scaling(1.0, 1.0, [0.0])
    b = check_reconstruction_scaling(7.0, 1.0, [0.0])
    assert b.partial_integral == pytest.approx(7.0 * a.partial_integral, rel=1e-10)
    assert b.products[0] == pytest.approx(7.0, rel=1e-14)


def test_reconstruction_rejects_times_at_or_past_blowup():
    with pytest.raises(ValueError, match="not before"):
        check_reconstruction_scaling(1.0, 1.0, [0.5, 1.0])
    with pytest.raises(ValueError, match="not before"):
        check_reconstruction_scaling(1.0, 1.0, [1.5])
    with pytest.raises(ValueError, match="nonnegative"):
        check_reconstruction_scaling(1.0, 1.0, [-0.1])


def test_reconstruction_parameter_validation():
    with pytest.raises(ValueError, match="omega_sup"):
        check_reconstruction_scaling(0.0, 1.0, [0.5])
    with pytest.raises(ValueError, match="T_star"):
        check_reconstruction_scaling(1.0, -1.0, [])
    with pytest.raises(ValueError, match="epsilon"):
        check_reconstruction_scaling(1.0, 1.0, [0.5], epsilon=2.0)
    with pytest.raises(ValueError, match="epsilon"):
        check_reconstruction_scaling(1.0, 1.0, [0.5], epsilon=0.0)


# ------------------------------------------------------------ standard table


def test_standard_checks_all_pass_on_default_grid():
    rows = standard_checks()
    assert len(rows) == 8
    for r in rows:
        assert set(r) == {"check", "value", "criterion", "passed"}
        assert r["passed"], f"{r['check']}: {r['value']} vs {r['criterion']}"


def test_standard_checks_on_coarse_grid_still_pass():
    # the polynomial rows run analytically and the convergence row is
    # pinned to the reference pair, so a coarse grid only rescales the
    # divergence rows, which stay at rounding level
    rows = standard_checks(MeridionalGrid(n_rho=32, n_zeta=32))
    names = [r["check"] for r in rows]
    assert "conjugation h->h/2 ratio" in names
    assert all(r["passed"] for r in rows)


# the row-name prefixes by which the command line used to keep one suite's
# rows out of the full battery
SUITE_PREFIX = {
    "conjugation": "conjugation",
    "divergence": "divergence",
    "axis": "axis",
    "reconstruction": "blowup",
}


def test_each_suite_builds_the_rows_the_full_battery_has_for_it():
    grid = MeridionalGrid(n_rho=32, n_zeta=32)
    everything = standard_checks(grid)
    suites = {name: standard_checks(grid, name) for name in SUITE_PREFIX}
    for name, prefix in SUITE_PREFIX.items():
        assert suites[name] == [r for r in everything if r["check"].startswith(prefix)]
    assert [r for rows in suites.values() for r in rows] == everything


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="banana"):
        standard_checks(MeridionalGrid(n_rho=32, n_zeta=32), "banana")
