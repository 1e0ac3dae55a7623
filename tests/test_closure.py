"""Contraction products and the periodic image overlap.

Overlap oracles are 50-digit mpmath evaluations: the nearest-image
log10 is -pi^2/(sigma^2 ln 10) and the shell sums are enumerated
directly.  The certified values must sit above the oracle (they are
upper bounds) and, at the reference concentration, within 1e-9 of it.
"""

import math
import random
import time

import pytest

from spikecert import closure
from spikecert.closure import (
    ClosureReport,
    image_overlap_bound,
    nk_closure,
    torus_closure,
)
from spikecert.errors import CertificationError
from spikecert.interval import (
    IntervalError,
    IntervalScalar,
    exp_iv,
    interval_from_decimal,
)
from spikecert.spaces import load_certificate


def point(x):
    return IntervalScalar(float(x), float(x))


# ---------------------------------------------------------------------------
# nk_closure


def test_reference_scalar_closure():
    rep = nk_closure(
        interval_from_decimal("8.421739e-12"),
        interval_from_decimal("482.6"),
        interval_from_decimal("1.1e4"),
    )
    # 2 * 8.421739e-12 * 482.6 * 1.1e4 = 8.94152873108e-5 exactly in decimal
    assert rep.product.contains(8.94152873108e-5)
    assert rep.product.width < 1e-18
    assert rep.verdict
    assert rep.margin.contains(1.0 - 8.94152873108e-5)


def test_zero_delta_closes_trivially():
    rep = nk_closure(point(0.0), point(482.6), point(1.1e4))
    assert rep.product.lo == 0.0 and rep.product.hi == 0.0
    assert rep.verdict
    assert rep.margin.lo == 1.0 and rep.margin.hi == 1.0


def test_constructed_failure():
    rep = nk_closure(point(1e-7), point(1e3), point(1e4))
    assert rep.product.contains(2.0)
    assert not rep.verdict
    assert rep.margin.contains(-1.0)


def test_product_exactly_one_fails():
    # 2 * 0.5 * 1 * 1 lands exactly on the boundary; the test is strict
    rep = nk_closure(point(0.5), point(1.0), point(1.0))
    assert rep.product.hi == 1.0
    assert not rep.verdict


def test_invalid_inputs_rejected():
    with pytest.raises(CertificationError, match="delta must be nonnegative"):
        nk_closure(point(-1e-12), point(1.0), point(1.0))
    with pytest.raises(CertificationError, match="eps must be nonnegative"):
        torus_closure(point(0.0), point(-1e-12), point(1.0), point(1.0))
    # a NaN operand is refused when it becomes an interval
    for args in ((math.nan, 1.0, 1.0), (0.0, 1.0, math.nan)):
        with pytest.raises(IntervalError, match="NaN"):
            nk_closure(*args)
    with pytest.raises(IntervalError, match="NaN"):
        torus_closure(0.0, math.nan, 1.0, 1.0)


def test_report_invariant_enforced():
    # the verdict and the margin are read off the product, so no report can
    # state a verdict its product contradicts
    with pytest.raises(TypeError):
        ClosureReport(product=point(2.0), verdict=True)
    for p, closes in ((2.0, False), (1.0, False), (math.nextafter(1.0, 0.0), True)):
        rep = ClosureReport(product=point(p))
        assert rep.verdict is closes
        assert rep.margin == point(1.0) - point(p)


# ---------------------------------------------------------------------------
# torus_closure


def test_reference_torus_closure():
    rep = torus_closure(
        interval_from_decimal("8.421739e-12"),
        interval_from_decimal("1.42e-20"),
        interval_from_decimal("482.6"),
        interval_from_decimal("1.1e4"),
    )
    # 2 * (8.421739e-12 + 1.42e-20) * 482.6 * 1.1e4 to 17 digits
    assert rep.product.contains(8.9415287461564240e-5)
    assert rep.verdict


def test_transfer_error_dominating():
    rep = torus_closure(point(0.0), point(1e-4), point(1e3), point(1e4))
    assert rep.product.contains(2e3)
    assert not rep.verdict


def test_all_zero_closure():
    rep = torus_closure(point(0.0), point(0.0), point(0.0), point(0.0))
    assert rep.product.lo == 0.0 and rep.product.hi == 0.0
    assert rep.verdict


def test_torus_product_exceeds_scalar_product():
    d, m, k = point(1e-10), point(100.0), point(100.0)
    base = nk_closure(d, m, k)
    bumped = torus_closure(d, point(1e-12), m, k)
    assert bumped.product.lo > base.product.lo


def test_closure_monotonicity():
    """Increasing any factor never flips a failing verdict to passing."""
    rng = random.Random(20240818)
    for _ in range(200):
        d = rng.uniform(0.0, 2e-4)
        e = rng.uniform(0.0, 1e-5)
        m = rng.uniform(0.0, 200.0)
        k = rng.uniform(0.0, 100.0)
        base = torus_closure(point(d), point(e), point(m), point(k))
        which = rng.randrange(4)
        grown = [d, e, m, k]
        grown[which] *= 1.0 + rng.uniform(0.0, 3.0)
        bumped = torus_closure(*(point(v) for v in grown))
        assert bumped.product.hi >= base.product.hi
        if not base.verdict:
            assert not bumped.verdict


# ---------------------------------------------------------------------------
# image_overlap_bound


def test_nearest_image_reference_concentration():
    ov = image_overlap_bound(0.05, lattice_radius=3, nearest_only=True)
    # -pi^2 / (0.05^2 ln 10) to 20 digits: -1714.5258919844626294
    assert ov.log10_value >= -1714.5258919844626294
    assert ov.log10_value <= -1714.5258919844626294 + 1e-9


def test_nearest_image_wide_concentration():
    ov = image_overlap_bound(10.0, lattice_radius=3, nearest_only=True)
    assert ov.log10_value >= -0.042863147299611570495
    assert ov.log10_value <= -0.042863147299611570495 + 1e-12


def test_full_lattice_sum_reference_concentration():
    ov = image_overlap_bound(0.05, lattice_radius=3)
    # six nearest images dominate: log10(6) - 1714.5258919... to 20
    # digits: -1713.7477407340791762
    assert ov.log10_value >= -1713.7477407340791762
    assert ov.log10_value <= -1713.7477407340791762 + 1e-9


def test_full_lattice_sum_clears_enumerated_shells():
    ov = image_overlap_bound(10.0, lattice_radius=3)
    # direct 50-digit enumeration of the |n| <= 3 shells gives
    # log10 = 1.8512321005862803; the certified bound must clear it
    # (the linearized tail is deliberately slack at this scale)
    assert ov.log10_value >= 1.8512321005862803
    assert ov.log10_value < 10.0


def test_zero_radius_is_refused():
    # radius 0 enumerates no image, and a transfer error of exactly 0 would
    # close any sigma; radius 1 already gives the six nearest images
    with pytest.raises(CertificationError, match="lattice_radius must be >= 1, got 0"):
        image_overlap_bound(0.05, lattice_radius=0)


def test_radius_one_still_covers_the_six_images():
    ov = image_overlap_bound(0.05, lattice_radius=1)
    assert ov.log10_value >= -1713.7477407340791762


def test_overlap_validation():
    with pytest.raises(CertificationError):
        image_overlap_bound(0.0, lattice_radius=3)
    with pytest.raises(CertificationError):
        image_overlap_bound(-1.0, lattice_radius=3)
    with pytest.raises(CertificationError):
        image_overlap_bound(math.inf, lattice_radius=3)
    with pytest.raises(CertificationError):
        image_overlap_bound(0.05, lattice_radius=-1)
    with pytest.raises(CertificationError):
        image_overlap_bound(0.05, lattice_radius=True)


def test_overlap_is_formed_once_per_checked_arguments():
    # the bound is cached on the checked float sigma and int radius, after
    # the checks: a repeat call, sigma 10 as an int included, reads the
    # cache, and a radius True is refused even once radius 1 is cached
    first = image_overlap_bound(0.05, lattice_radius=1)
    before = closure._overlap_bound.cache_info()
    assert image_overlap_bound(0.05, lattice_radius=1) is first
    assert image_overlap_bound(10, lattice_radius=3) is image_overlap_bound(10.0, lattice_radius=3)
    after = closure._overlap_bound.cache_info()
    assert after.hits - before.hits >= 2
    with pytest.raises(CertificationError):
        image_overlap_bound(0.05, lattice_radius=True)


@pytest.mark.parametrize(
    "sigma, log10_hex",
    [
        (0.05, "-0x1.ac6fdafbf3afdp+10"),
        (10.0, "0x1.ed10aef1ffacep+1"),
        (300.0, "0x1.b8f3dc6cf7b52p+3"),  # a long walk that still passes
    ],
)
def test_overlap_values_are_pinned(sigma, log10_hex):
    ov = image_overlap_bound(sigma, lattice_radius=3)
    assert ov.log10_value == float.fromhex(log10_hex)


def test_hopeless_tail_is_refused_before_the_walk():
    # the tail ratio at sigma = 1e4 stays above 1 - 1e-6 up to the last
    # shell the walk may reach, so the bound is refused at once
    t0 = time.perf_counter()
    with pytest.raises(CertificationError) as err:
        image_overlap_bound(1e4, lattice_radius=3)
    assert time.perf_counter() - t0 < 1.0
    assert str(err.value) == (
        "lattice tail at sigma=10000.0 does not reach geometric domination "
        "within 200000 shells"
    )


def test_log_linear_consistency():
    """Promoted overlap bound dominates a direct linear-domain sum."""
    from spikecert.interval import PI

    sig2 = point(10.0) * point(10.0)
    direct = IntervalScalar(0.0, 0.0)
    for n1 in range(-3, 4):
        for n2 in range(-3, 4):
            for n3 in range(-3, 4):
                m = n1 * n1 + n2 * n2 + n3 * n3
                if 0 < m <= 9:
                    direct = direct + exp_iv(-(PI * PI) * float(m) / sig2)
    promoted = image_overlap_bound(10.0, lattice_radius=3).to_interval()
    assert promoted.hi >= direct.lo
    nearest = image_overlap_bound(10.0, lattice_radius=3, nearest_only=True).to_interval()
    single = exp_iv(-(PI * PI) / sig2)
    assert nearest.hi >= single.lo


def test_saturating_promotion_at_reference_scale():
    ov = image_overlap_bound(0.05, lattice_radius=3)
    iv = ov.to_interval()
    assert iv.lo == 0.0
    assert 0.0 < iv.hi <= 1e-300


# ---------------------------------------------------------------------------
# declared constants reproduce their verdict


def test_bundled_certificate_closes(bundled_certificate_path):
    cert = load_certificate(bundled_certificate_path)
    rep = nk_closure(
        cert.constant("delta"), cert.constant("M"), cert.constant("K")
    )
    assert rep.verdict
    assert rep.product.contains(8.94152873108e-5)
    torus = torus_closure(
        cert.constant("delta"),
        cert.constant("eps_T3"),
        cert.constant("M"),
        cert.constant("K"),
    )
    assert torus.verdict
    assert torus.product.contains(8.9415287461564240e-5)
