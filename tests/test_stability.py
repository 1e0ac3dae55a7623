"""Inverse certification and tail coercivity.

The inverse tests lean on an extended-precision oracle: the float64
inverse polished by two Newton steps in np.longdouble is accurate to
far below the certified slack, so the certified upper bound must clear
it on every trial.  Coercivity values are frozen from a 40-digit mpmath
evaluation of the envelope formula.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import spikecert.stability as stability_module
from spikecert.basis import reference_model
from spikecert.errors import CertificationError
from spikecert.interval import IntervalScalar, exp_iv, intpow_iv, sqrt_iv
from spikecert.matrix import IntervalMatrix
from spikecert.operator import OperatorConfig, assemble_jacobian
from spikecert.spaces import (
    SOURCE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    load_certificate,
)
from spikecert.stability import (
    CoercivityReport,
    InverseReport,
    certify_inverse,
    certify_tail_coercivity,
    interaction_envelope,
    inverse_bound_from_norms,
)

from mutants import mutant_module
from oracles import make_interval

ONE_POINT = IntervalScalar(1.0, 1.0)


def point_matrix(rows):
    a = np.array(rows, dtype=np.float64)
    return IntervalMatrix.from_point(a)


# ---------------------------------------------------------------------------
# certify_inverse


def test_identity_certifies():
    rep = certify_inverse(point_matrix(np.eye(3)))
    assert rep.verified
    assert rep.E_norm.hi < 1e-10
    assert rep.M.contains(1.0)
    assert rep.R_norm.contains(1.0)


def test_diagonal_inverse_norm():
    rep = certify_inverse(point_matrix([[2.0, 0.0], [0.0, 4.0]]))
    assert rep.verified
    # row-sum norm of diag(1/2, 1/4) is 1/2
    assert rep.M.contains(0.5)
    assert rep.M.width < 1e-12


def test_symmetric_two_by_two():
    # inverse of [[2,1],[1,2]] is (1/3)[[2,-1],[-1,2]], row-sum norm 1
    rep = certify_inverse(point_matrix([[2.0, 1.0], [1.0, 2.0]]))
    assert rep.verified
    assert rep.M.contains(1.0)
    assert rep.M.width < 1e-12


def test_singular_midpoint_is_a_verdict():
    rep = certify_inverse(point_matrix([[1.0, 1.0], [1.0, 1.0]]))
    assert not rep.verified
    assert "singular" in rep.diagnostic
    assert rep.R_norm is rep.E_norm is rep.M is None


def test_non_finite_jacobian_midpoint_is_named():
    # [1, inf] has midpoint inf, and numpy would invert its matrix to NaN
    # without raising: the verdict names the Jacobian, not the inverse
    lo = np.array([[2.0, 1.0], [0.0, 3.0]])
    hi = np.array([[2.0, math.inf], [0.0, 3.0]])
    rep = certify_inverse(IntervalMatrix(lo, hi))
    assert not rep.verified
    assert rep.diagnostic == "Jacobian midpoint has non-finite entries; no candidate inverse"
    assert rep.R_norm is rep.E_norm is rep.M is None


def test_interval_containing_singular_matrix_fails():
    # midpoint is the singular all-ones matrix
    lo = np.array([[1.0, 1.0], [1.0, 0.9]])
    hi = np.array([[1.0, 1.0], [1.0, 1.1]])
    rep = certify_inverse(IntervalMatrix(lo, hi))
    assert not rep.verified


def test_wide_radii_defeat_certification():
    # the matrix is fine but the enclosure admits singular members
    a = np.eye(2)
    rep = certify_inverse(IntervalMatrix(a - 1.5, a + 1.5))
    assert not rep.verified
    assert rep.M is None
    assert "not below one" in rep.diagnostic


def test_non_square_rejected():
    with pytest.raises(CertificationError):
        certify_inverse(IntervalMatrix(np.zeros((2, 3)), np.zeros((2, 3))))


def test_non_matrix_rejected():
    with pytest.raises(CertificationError):
        certify_inverse(np.eye(2))


def test_zero_profile_jacobian_pipeline():
    cfg = OperatorConfig(reference_model(1.0), make_interval(0.005, 0.0), truncation_N=8)
    J = assemble_jacobian(CoefficientVector(), cfg)
    rep = certify_inverse(J)
    assert rep.verified
    # diagonal symbol is smallest at j=1, namely 1 + 0.5 + 0.005
    assert rep.M.contains(1.0 / 1.505)


def test_inverse_oracle_longdouble():
    """Certified M.hi clears the true inverse norm on 1000 random trials.

    The oracle inverse is float64 polished by two Newton steps X <-
    X(2I - AX) in 80-bit extended precision, giving ~1e-17 relative
    error for these well-conditioned draws, far below the slack the
    bound carries.
    """
    rng = np.random.default_rng(20240817)
    verified = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        rep = certify_inverse(IntervalMatrix.from_point(a))
        if not rep.verified:
            continue
        verified += 1
        al = a.astype(np.longdouble)
        x = np.linalg.inv(a).astype(np.longdouble)
        eye2 = np.longdouble(2.0) * np.eye(n, dtype=np.longdouble)
        for _ in range(2):
            x = x @ (eye2 - al @ x)
        true_norm = float(np.abs(x).sum(axis=1).max())
        assert rep.M.hi >= true_norm * (1.0 - 1e-12)
        assert rep.M.lo <= true_norm * (1.0 + 1e-12)
    assert verified >= 950


def test_widening_radii_never_shrinks_residual_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        r = 10.0 ** rng.uniform(-14, -6)
        base = IntervalMatrix(a - r, a + r)
        fat = IntervalMatrix(a - 2 * r, a + 2 * r)
        e1 = certify_inverse(base).E_norm
        e2 = certify_inverse(fat).E_norm
        assert e2.hi >= e1.hi


# ---------------------------------------------------------------------------
# the residual norm against exact rational arithmetic


def exact_residual_norm(R, Jp):
    """||I - R @ Jp||_inf of two float matrices, in exact rationals."""
    n = len(R)
    Rq = [[Fraction(x) for x in row] for row in R.tolist()]
    Jq = [[Fraction(x) for x in row] for row in Jp.tolist()]
    return max(
        sum(abs((i == j) - sum(Rq[i][k] * Jq[k][j] for k in range(n))) for j in range(n))
        for i in range(n)
    )


def worst_corners(J, R):
    """Per row i, the corner of J that pushes every entry of row i of
    R @ J' away from the identity: the corners the radius term must cover."""
    mid = J.midpoint()
    away = np.sign(R @ mid - np.eye(len(R)))
    for i in range(len(R)):
        up = np.sign(R[i])[:, None] * away[i][None, :] >= 0.0
        yield np.where(up, J.hi, J.lo)


def check_oracle_on_random_matrices(module):
    # E_norm.lo <= ||I - R J'||_inf <= E_norm.hi, exactly, at the midpoint
    # of J and at corners of it, for point and interval J up to 8 x 8, some
    # of them graded over many decades
    rng = np.random.default_rng(1999)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        if trial % 3 == 2:
            a *= 10.0 ** rng.integers(-6, 7, (n, 1))
        r = 0.0 if trial % 2 == 0 else 10.0 ** rng.uniform(-9, -3)
        J = IntervalMatrix(a - r * np.abs(a), a + r * np.abs(a))
        R = np.linalg.inv(J.midpoint())
        e = module.certify_inverse(J).E_norm
        points = [J.midpoint()]
        if r:
            points += list(worst_corners(J, R))
            points += [np.where(rng.random((n, n)) < 0.5, J.lo, J.hi) for _ in range(2)]
        for Jp in points:
            exact = exact_residual_norm(R, Jp)
            assert e.lo <= exact <= e.hi, (trial, e, float(exact))


def check_oracle_on_edge_cases(module):
    # (R, J) with exact ||I - R J||_inf: fl(1/3) * 3 rounds to exactly 1 but
    # is 1 - 2^-54; a residual of 1 that an R of 0 leaves; and a row whose
    # float sum 1 + 2^-53 + 2^-53 rounds twice to 1
    third = np.array([[1.0 / 3.0]])
    tie = np.zeros((3, 3))
    tie[0, 1:] = 2.0**-53
    cases = [
        (third, 3.0 * np.eye(1), Fraction(1, 2**54)),
        (np.zeros((2, 2)), np.eye(2), Fraction(1)),
        (tie, np.eye(3), 1 + Fraction(1, 2**52)),
    ]
    for R, Jp, exact in cases:
        assert exact_residual_norm(R, Jp) == exact
        J = IntervalMatrix.from_point(Jp)
        e = module._residual_norm(R, J, J.midpoint())
        assert e.lo <= exact <= e.hi, (R, e)


def test_residual_norm_contains_exact_on_random_matrices():
    check_oracle_on_random_matrices(stability_module)


def test_residual_norm_contains_exact_on_edge_cases():
    check_oracle_on_edge_cases(stability_module)


@pytest.mark.parametrize(
    "old, new, check",
    [
        ("    rho += rad\n", "", check_oracle_on_random_matrices),
        ("rho *= g  #", "rho *= 0.0  #", check_oracle_on_edge_cases),
        ("(t + v) * (1.0 + 2.0 * g)", "(t + v)", check_oracle_on_edge_cases),
        ("(1.0 - 2.0 * g) * sa", "(1.0 + 2.0 * g) * sa", check_oracle_on_edge_cases),
    ],
    ids=["no_radius_term", "no_gamma_term", "no_factor", "lo_rounded_up"],
)
def test_residual_norm_mutant_fails_its_oracle(monkeypatch, old, new, check):
    mutant = mutant_module(monkeypatch, stability_module, old, new)
    with pytest.raises(AssertionError):
        check(mutant)


def test_overflowing_product_is_a_verdict():
    # mid J = I, so R = I, but two radii of 1.5e308 in row 0 overflow the row
    # sum of |R| @ rad J: E_norm is [0, inf], never NaN, and M is not formed
    lo, hi = np.eye(3), np.eye(3)
    lo[0, 1:], hi[0, 1:] = -1.5e308, 1.5e308
    rep = certify_inverse(IntervalMatrix(lo, hi))
    assert not rep.verified and rep.M is None
    assert (rep.E_norm.lo, rep.E_norm.hi) == (0.0, math.inf)
    assert rep.diagnostic == (
        "residual norm upper bound inf is not below one; the inverse is not certified"
    )
    # R @ mid J itself overflowing to inf, and to inf - inf = NaN
    J = IntervalMatrix.from_point(np.full((2, 2), 1e10))
    for R in (np.full((2, 2), 1e300), np.array([[1e300, -1e300], [0.0, 1.0]])):
        e = stability_module._residual_norm(R, J, J.midpoint())
        assert (e.lo, e.hi) == (0.0, math.inf)


# ---------------------------------------------------------------------------
# inverse_bound_from_norms


def test_declared_norms_reproduction():
    rep = inverse_bound_from_norms(482.540, 1.2435e-4)
    assert rep.verified
    # 482.540 / (1 - 1.2435e-4) to 17 digits: 482.60001131140659
    assert rep.M.contains(482.60001131140659)
    assert abs(rep.M.mid - 482.600) <= 1e-3
    assert rep.M.width < 1e-9


def test_declared_norms_interval_inputs():
    rep = inverse_bound_from_norms(
        make_interval(482.540, 1e-3), make_interval(1.2435e-4, 1e-8)
    )
    assert rep.verified
    assert rep.M.contains(482.60001131140659)
    assert rep.M.width >= 2e-3


def test_residual_norm_at_one_fails():
    rep = inverse_bound_from_norms(3.0, 1.0)
    assert not rep.verified
    assert rep.M is None
    assert rep.E_norm.hi == 1.0
    assert "not below one" in rep.diagnostic


def test_negative_norm_rejected():
    with pytest.raises(CertificationError, match="approximate inverse must be nonnegative"):
        inverse_bound_from_norms(-1.0, 0.5)
    with pytest.raises(CertificationError, match="residual norm must be nonnegative"):
        inverse_bound_from_norms(1.0, IntervalScalar(-0.5, 0.5))


# ---------------------------------------------------------------------------
# interaction_envelope


def single_mode_certificate(j, value):
    return ProfileCertificate(
        coefficients=CoefficientVector({j: value}),
        nu=make_interval(0.005, 0.0),
        sigma=0.05,
    )


def check_single_mode_envelope(module):
    cert = single_mode_certificate(450, ONE_POINT)
    env = module.interaction_envelope(cert, 1.0, 451)
    # 451^{7/2} e^{-0.08} to 17 digits: 1798350491.8008263
    assert env.contains(1798350491.8008263)
    assert env.width / env.hi < 1e-12


def test_envelope_single_mode_value():
    check_single_mode_envelope(stability_module)


def test_envelope_bundled_certificate(bundled_certificate_path):
    cert = load_certificate(bundled_certificate_path)
    env = interaction_envelope(cert, 0.125, 1200)
    # 40-digit evaluation of the factored formula: 1.53389087940455092e-31
    assert env.contains(1.53389087940455092e-31)
    assert env.hi <= 1e-12
    env2 = interaction_envelope(cert, 0.125, 1300)
    assert env2.contains(6.8093550854670385e-35)
    assert env2.hi < env.lo


def test_envelope_empty_profile_is_zero():
    cert = ProfileCertificate(
        coefficients=CoefficientVector(),
        nu=make_interval(0.005, 0.0),
        sigma=0.05,
    )
    env = interaction_envelope(cert, 0.125, 1200)
    assert env.lo == 0.0 and env.hi == 0.0


def test_envelope_inside_support_rejected():
    cert = single_mode_certificate(450, ONE_POINT)
    with pytest.raises(CertificationError):
        interaction_envelope(cert, 1.0, 450)
    with pytest.raises(CertificationError):
        interaction_envelope(cert, 1.0, True)
    with pytest.raises(CertificationError):
        interaction_envelope(cert, -1.0, 451)


def test_envelope_scales_linearly_in_c_prof():
    cert = single_mode_certificate(450, ONE_POINT)
    a = interaction_envelope(cert, 1.0, 500)
    b = interaction_envelope(cert, 0.25, 500)
    assert b.contains(a.mid * 0.25)


# ---------------------------------------------------------------------------
# certify_tail_coercivity


@pytest.fixture(scope="module")
def bundled(bundled_certificate_path):
    return load_certificate(bundled_certificate_path)


def reference_config(nu, N=450):
    return OperatorConfig(reference_model(1.0), nu, truncation_N=N)


def test_zero_profile_gamma_is_exact(bundled):
    cert = ProfileCertificate(
        coefficients=CoefficientVector(),
        nu=bundled.nu,
        sigma=0.05,
    )
    rep = certify_tail_coercivity(cert, reference_config(bundled.nu), 0.125, j_min=1200)
    assert rep.verified
    assert rep.monotone_tail_verified
    # nu carries the decimal value 0.005, so nu * 1200^2 encloses 7200
    assert rep.gamma.contains(7200.0)
    assert 7199.9 <= rep.gamma.lo <= 7200.0
    assert rep.j_min == 1200


def test_bundled_certificate_coercivity(bundled):
    cfg = reference_config(bundled.nu)
    rep = certify_tail_coercivity(bundled, cfg, 0.125, j_min=1200)
    assert rep.verified
    assert rep.monotone_tail_verified
    assert rep.gamma.contains(7200.0)
    assert 7199.9 <= rep.gamma.lo <= 7200.0
    # the envelope shaves an invisibly small amount off the diagonal
    at_j_min = cfg.nu * 1200.0 ** 2 - interaction_envelope(bundled, 0.125, 1200)
    assert bits(rep.gamma) == bits(at_j_min)
    assert rep.diagnostic == ""


def test_window_minimum_sits_at_the_left_edge(bundled):
    cfg = reference_config(bundled.nu)
    rep = certify_tail_coercivity(bundled, cfg, 0.125, j_min=1200)
    vals, _ = scalar_window_scan(bundled, cfg, 0.125, 1200, 8)
    assert all(vals[j].lo <= vals[j + 1].lo for j in range(1200, 1208))
    assert bits(rep.gamma) == bits(vals[1200])
    assert bits(rep.gamma) != bits(vals[1201])


def test_zero_nu_is_a_verdict(bundled):
    rep = certify_tail_coercivity(
        bundled, reference_config(IntervalScalar(0.0, 0.0)), 0.125, j_min=1200
    )
    assert not rep.verified
    assert not rep.monotone_tail_verified
    assert rep.gamma.hi <= 0.0
    assert "not positive" in rep.diagnostic


def check_non_monotone_tail_verdict(module):
    # 40 modes and j_min = 41: e^{-0.08} (42/41)^{7/2} = 1.00435..., so the
    # envelope may still grow past j_min and the gap there bounds nothing
    rng = random.Random(40)
    entries = {
        k: make_interval(rng.uniform(-1e-5, 1e-5) * math.exp(-0.08 * k), 0.0) for k in range(1, 41)
    }
    cert = ProfileCertificate(
        coefficients=CoefficientVector(entries),
        nu=make_interval(0.005, 0.0),
        sigma=0.05,
    )
    rep = module.certify_tail_coercivity(cert, reference_config(cert.nu, N=40), 0.125, j_min=41)
    assert rep.gamma.lo > 0.0  # the gap at j_min alone would pass
    assert not rep.monotone_tail_verified
    assert not rep.verified
    assert rep.diagnostic == "envelope ratio bound 1.0043508681889308 at j=41 is not below one"


def test_non_monotone_tail_is_a_verdict_naming_the_ratio():
    check_non_monotone_tail_verdict(stability_module)


@pytest.mark.parametrize(
    "check",
    [check_single_mode_envelope, check_non_monotone_tail_verdict],
    ids=["envelope", "ratio"],
)
def test_source_rate_mutant_in_the_tail_fails_its_oracle(monkeypatch, check):
    # the tail's rate is X's; Y's rate in its place leaves gamma at j_min =
    # 1200 and criterion 03 as they were, but moves the envelope and its ratio
    mutant = mutant_module(
        monkeypatch,
        stability_module,
        "_TAU = IntervalScalar(PROFILE_SPACE.tau, PROFILE_SPACE.tau)",
        f"_TAU = IntervalScalar({SOURCE_SPACE.tau!r}, {SOURCE_SPACE.tau!r})",
    )
    with pytest.raises(AssertionError):
        check(mutant)


def test_j_min_must_clear_truncation(bundled):
    with pytest.raises(CertificationError):
        certify_tail_coercivity(bundled, reference_config(bundled.nu), 0.125, j_min=450)
    with pytest.raises(CertificationError):
        certify_tail_coercivity(bundled, reference_config(bundled.nu, N=8), 0.125, j_min=300)


def test_bad_window_arguments(bundled):
    cfg = reference_config(bundled.nu)
    for j_min in (0, -3, 1200.0):
        with pytest.raises(CertificationError, match=r"^j_min: must be (at least 1|an int), got "):
            certify_tail_coercivity(bundled, cfg, 0.125, j_min=j_min)
    with pytest.raises(TypeError, match="window"):
        certify_tail_coercivity(bundled, cfg, 0.125, j_min=1200, window=2048)


def test_envelope_ratio_bound_value():
    """The one-step ratio the tail argument checks is comfortably below 1.

    e^{-0.08} (1201/1200)^{7/2} to 17 digits: 0.92581157483925992.  The
    factors in either order give the same bits.
    """
    tau = IntervalScalar(0.08, 0.08)
    ratio = stability_module._decay_ratio(1200)
    assert ratio.contains(0.92581157483925992)
    assert ratio.hi < 1.0
    step = IntervalScalar(1201.0, 1201.0) / IntervalScalar(1200.0, 1200.0)
    growth = sqrt_iv(intpow_iv(step, 7))
    assert bits(ratio) == bits(exp_iv(-tau) * growth) == bits(growth * exp_iv(-tau))


def test_gamma_lower_bound_holds_far_beyond_window(bundled):
    """Spot-check the global claim at indices far past j_min."""
    cfg = reference_config(bundled.nu)
    rep = certify_tail_coercivity(bundled, cfg, 0.125, j_min=1200)
    for j in (1300, 2000, 5000, 25000):
        val = cfg.nu * float(j * j) - interaction_envelope(bundled, 0.125, j)
        assert val.lo >= rep.gamma.lo


def test_gamma_past_the_int64_square(bundled):
    # j_min^2 = 1.6e19 exceeds the int64 range, where an integer array of
    # modes would wrap; the stage squares a Python int
    rep = certify_tail_coercivity(bundled, reference_config(bundled.nu), 0.125, j_min=4_000_000_000)
    assert rep.verified
    assert rep.gamma.contains(8e16)


def check_gamma_encloses_nu_times_the_exact_square(module, nu):
    # on an empty profile gamma is nu * j_min^2 alone; from j_min^2 >= 2^56
    # the square has no exact double, and rounded to nearest it can land
    # above the exact one: at 268,435,459 it pushes gamma.lo above nu.lo j^2
    cert = ProfileCertificate(coefficients=CoefficientVector(), nu=nu, sigma=0.05)
    for j_min in (268_435_459, 2**53 - 1):
        gamma = module.certify_tail_coercivity(cert, reference_config(nu), 0.125, j_min=j_min).gamma
        square = j_min * j_min
        assert Fraction(gamma.lo) <= Fraction(nu.lo) * square, j_min
        assert Fraction(nu.hi) * square <= Fraction(gamma.hi), j_min


def test_gamma_encloses_nu_times_the_exact_square(bundled):
    check_gamma_encloses_nu_times_the_exact_square(stability_module, bundled.nu)


def test_rounded_square_mutant_fails_its_oracle(monkeypatch, bundled):
    mutant = mutant_module(
        monkeypatch, stability_module, "nu * (j * j)", "nu * float(j_min * j_min)"
    )
    with pytest.raises(AssertionError):
        check_gamma_encloses_nu_times_the_exact_square(mutant, bundled.nu)


def test_j_min_past_exact_floats_is_refused(bundled):
    # the stage reads j_min + 1 as a float, exact only up to 2^53
    for j_min in (2**53, 10**400):
        with pytest.raises(CertificationError, match=rf"^j_min: must be at most {2**53 - 1}, got "):
            certify_tail_coercivity(bundled, reference_config(bundled.nu), 0.125, j_min=j_min)


def test_report_types(bundled):
    rep = certify_tail_coercivity(bundled, reference_config(bundled.nu), 0.125, j_min=1200)
    assert isinstance(rep, CoercivityReport)
    inv = inverse_bound_from_norms(2.0, 0.5)
    assert isinstance(inv, InverseReport)
    assert inv.M.contains(4.0)


# ---------------------------------------------------------------------------
# the gap at j_min against a scalar scan of the window after it: where the
# ratio test passes, the lemma puts the minimum at j_min, bit for bit


def scalar_window_scan(cert, cfg, C_prof, j_min, window):
    """nu*j^2 - interaction_envelope(j) mode by mode and the running minima
    over [j_min, j_min + window]; the bitwise reference."""
    values = {}
    lo_min = np.inf
    hi_min = np.inf
    for j in range(j_min, j_min + window + 1):
        val = cfg.nu * float(j * j) - interaction_envelope(cert, C_prof, j)
        values[j] = val
        lo_min = min(lo_min, val.lo)
        hi_min = min(hi_min, val.hi)
    return values, IntervalScalar(float(lo_min), float(hi_min))


def bits(x):
    return float(x.lo).hex(), float(x.hi).hex()


@pytest.mark.parametrize(
    "window, stride",
    [
        (2048, None),  # the old audit window, one-point gammas every 128 modes
        (0, None),
        (20, 7),  # one-point gammas at every 7th mode
        (9, 7),
    ],
)
def test_window_scan_matches_scalar_loop(bundled, window, stride):
    # gamma has the bits of the scan minimum over the window, and the gamma
    # with j_min moved to a mode of the window is that mode's scan entry
    cfg = reference_config(bundled.nu)
    rep = certify_tail_coercivity(bundled, cfg, 0.125, j_min=1200)
    values, gamma = scalar_window_scan(bundled, cfg, 0.125, 1200, window)
    assert bits(rep.gamma) == bits(gamma)
    assert rep.verified == (rep.monotone_tail_verified and gamma.lo > 0.0)
    spots = sorted({*list(values)[:: stride or max(1, window // 16)], 1200 + window})
    assert [
        bits(certify_tail_coercivity(bundled, cfg, 0.125, j_min=j).gamma) for j in spots
    ] == [bits(values[j]) for j in spots]


def test_window_scan_matches_scalar_loop_on_random_profiles():
    # mixed signs, nonzero radii, exactly zero coefficients, empty profiles,
    # C_prof = 0, and nu and j_min varied; every profile that passes the
    # ratio test has the gamma of the scan, and at least 200 verify.  j_min
    # starts at 44, where X's one-step ratio e^{-0.08} ((j+1)/j)^{7/2} first
    # drops below one; test_non_monotone_tail_is_a_verdict_naming_the_ratio
    # takes the branch below it
    rng = random.Random(61)
    verified = 0
    for _ in range(400):
        N = rng.randint(1, 40)
        entries = {}
        for k in rng.sample(range(1, N + 1), rng.randint(0, min(N, 6))):
            mid = 0.0 if rng.random() < 0.2 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 1)
            entries[k] = make_interval(mid, rng.choice([0.0, 1e-6]))
        cert = ProfileCertificate(
            coefficients=CoefficientVector(entries),
            nu=make_interval(rng.choice([0.0, 0.005, 0.02, 1.5]), rng.choice([0.0, 1e-9])),
            sigma=0.05,
        )
        cfg = OperatorConfig(reference_model(1.0), cert.nu, truncation_N=N)
        C_prof = rng.choice([0.0, 0.125, 3.0, 1e6])
        j_min = max(N + 1, 44) + rng.randint(0, 120)
        rep = certify_tail_coercivity(cert, cfg, C_prof, j_min=j_min)
        assert rep.verified == (rep.monotone_tail_verified and rep.gamma.lo > 0.0)
        if rep.monotone_tail_verified:
            _, gamma = scalar_window_scan(cert, cfg, C_prof, j_min, 64)
            assert bits(rep.gamma) == bits(gamma), (entries, cert.nu, j_min)
        verified += rep.verified
    assert verified >= 200


def test_window_scan_computes_the_envelope_total_once(bundled, monkeypatch):
    # each scalar exp_iv of the stage: one per support mode for the
    # j-independent total, one for the envelope at j_min, one for the ratio
    calls = []

    def counting_exp_iv(x):
        calls.append(x)
        return exp_iv(x)

    monkeypatch.setattr(stability_module, "exp_iv", counting_exp_iv)
    certify_tail_coercivity(bundled, reference_config(bundled.nu), 0.125, j_min=1200)
    assert len(calls) == len(bundled.coefficients) + 2
