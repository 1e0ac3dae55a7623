"""Closure constants: recovery supremum, bilinear bound, Lipschitz product.

Frozen digits come from 40-digit mpmath evaluations of the same
formulas under the same convention (rates are the real numbers the
float arguments denote, differences taken exactly).
"""

import math
import random

import numpy as np
import pytest

import spikecert.constants as constants_module
from spikecert.basis import reference_model
from spikecert.constants import (
    ConstantsReport,
    RecoveryMapResult,
    _ceil_two_significant,
    _recovery_scan,
    certify_constants,
    convolution_constant,
    level_multiplier,
    lipschitz_constant,
    recovery_mapping_constant,
)
from spikecert.errors import CertificationError
from spikecert.interval import (
    ONE,
    ZERO,
    IntervalScalar,
    exp_iv,
    interval_from_decimal,
    intpow_iv,
    sqrt_iv,
)
from spikecert.matrix import IntervalMatrix, pow_seven_halves_row
from spikecert.operator import OperatorConfig, apply_quadratic
from spikecert.spaces import (
    PROFILE_SPACE,
    SOURCE_SPACE,
    CoefficientVector,
)

from mutants import mutant_module
from oracles import make_interval, norm


def point(x):
    return IntervalScalar(float(x), float(x))


# ---------------------------------------------------------------------------
# recovery_mapping_constant


def buffer(tau, tau_prime):
    """The recovery scan's buffer tau' - tau, enclosed from the two floats."""
    return point(tau_prime) - point(tau)


def check_reference_supremum(module):
    res = module.recovery_mapping_constant()
    assert res.argmax_k == 2500
    # sup_k k^{7/2}(1+k^2)^{-1/2} e^{-bk} with b = 0.081-0.08 taken in
    # floats, to 20 digits: 25651560.017843597190
    assert res.value.contains(25651560.017843597190)
    assert res.value.width / res.value.hi < 1e-12
    # five significant figures land on the quoted headline
    assert 2.56515e7 <= res.value.lo and res.value.hi <= 2.56525e7
    return res


def test_reference_supremum():
    res = check_reference_supremum(constants_module)
    # the scan of the buffer tau_Y - tau_X between the audit's two spaces
    scan = _recovery_scan(buffer(PROFILE_SPACE.tau, SOURCE_SPACE.tau))
    assert (bits(res.value), res.argmax_k) == (bits(scan.value), scan.argmax_k)


def test_source_rate_mutant_in_the_buffer_fails_the_reference(monkeypatch):
    # Y's rate in place of X's leaves the recovery scan no buffer: the
    # reference supremum (and criterion 04) cannot be formed at all
    mutant = mutant_module(
        monkeypatch,
        constants_module,
        "PROFILE_SPACE.tau, PROFILE_SPACE.tau",
        "SOURCE_SPACE.tau, SOURCE_SPACE.tau",
    )
    with pytest.raises(ZeroDivisionError):
        check_reference_supremum(mutant)


def test_wide_buffer_supremum():
    res = _recovery_scan(buffer(0.5, 1.0))
    assert res.argmax_k == 5
    # 5^{7/2} 26^{-1/2} e^{-2.5} to 17 digits: 4.4995816442435560
    assert res.value.contains(4.4995816442435560)
    b = point(0.5)
    m4, m5, m6 = (level_multiplier(k, b) for k in (4, 5, 6))
    assert m5.lo > m4.hi and m5.lo > m6.hi


def test_argmax_tracks_stationary_point():
    for tau, tau_prime in ((0.08, 0.081), (0.5, 1.0), (0.1, 0.35)):
        res = _recovery_scan(buffer(tau, tau_prime))
        k_star = 2.5 / (tau_prime - tau)
        assert abs(res.argmax_k - k_star) <= 1.0


def test_reference_supremum_is_formed_once():
    # a constant of the program: every call returns the one object, with
    # the bits of a fresh scan of the two spaces' buffer
    first = recovery_mapping_constant()
    assert recovery_mapping_constant() is first
    fresh = _recovery_scan(constants_module._BUFFER)
    assert (bits(first.value), first.argmax_k) == (bits(fresh.value), fresh.argmax_k)


def test_supremum_dominates_log_spaced_grid():
    res = recovery_mapping_constant()
    b = buffer(0.08, 0.081)
    grid = sorted(
        {int(round(10 ** (e / 4.0))) for e in range(0, 25)} | set(range(2496, 2505))
    )
    for k in grid:
        assert res.value.hi >= level_multiplier(k, b).lo


def test_level_multiplier_rejects_bad_index():
    with pytest.raises(CertificationError):
        level_multiplier(0, point(0.001))
    with pytest.raises(CertificationError):
        level_multiplier(True, point(0.001))


# -- the bracket against the full scan over k = 1..k_end it replaced


def scan_end(tau, tau_prime):
    b = buffer(tau, tau_prime)
    return b, int(math.ceil(4.5 / b.lo)) + 1


def scalar_recovery_scan(tau, tau_prime, multiplier=None):
    """The running supremum over k = 1..k_end, one scalar level multiplier at
    a time (``constants.level_multiplier`` unless another is given), as
    the recovery scan once computed it."""
    multiplier = multiplier or constants_module.level_multiplier
    b, k_end = scan_end(tau, tau_prime)
    best_hi = -1.0
    best_lo = -1.0
    argmax = 1
    for k in range(1, k_end + 1):
        m = multiplier(k, b)
        if m.hi > best_hi:
            best_hi = m.hi
            argmax = k
        if m.lo > best_lo:
            best_lo = m.lo
    return IntervalScalar(best_lo, best_hi), argmax


def level_multipliers(k, rate):
    """level_multiplier(k, rate) for each level of an int array k, as a row
    whose entries have the bits of the scalar function."""
    kk = IntervalMatrix.from_point(k[None, :].astype(np.float64))
    one_plus = IntervalMatrix.from_point((1 + k * k)[None, :].astype(np.float64))
    return pow_seven_halves_row(kk) / one_plus.sqrt() * (-(rate * kk)).exp()


def full_recovery_scan(tau, tau_prime):
    """scalar_recovery_scan of level_multiplier, all levels in one row."""
    b, k_end = scan_end(tau, tau_prime)
    row = level_multipliers(np.arange(1, k_end + 1), b)
    lo, hi = row.lo[0], row.hi[0]
    return IntervalScalar(float(lo.max()), float(hi.max())), int(np.argmax(hi)) + 1


def bits(x):
    return float(x.lo).hex(), float(x.hi).hex()


@pytest.mark.parametrize(
    "tau, tau_prime, k_end",
    [
        (0.08, 0.081, 4501),  # the audit's scan end
        (0.0, 0.002199, 2048),
        (0.0, 0.0021975, 2049),
        (0.5, 1.0, 10),
        (0.1, 0.35, 20),
    ],
)
def test_recovery_scan_matches_scalar_loop(tau, tau_prime, k_end):
    b, end = scan_end(tau, tau_prime)
    assert end == k_end
    res = _recovery_scan(b)
    value, argmax = scalar_recovery_scan(tau, tau_prime)
    assert bits(res.value) == bits(value)
    assert res.argmax_k == argmax
    row = level_multipliers(np.arange(1, k_end + 1), b)
    for k in range(1, k_end + 1):
        assert bits(row.entry(0, k - 1)) == bits(level_multiplier(k, b)), k


def sweep_pairs():
    """200 seeded (tau, tau') pairs with b log-uniform in [10^-3.7, 4], and
    the thinnest buffer the audit meets."""
    rng = random.Random(17)
    pairs = []
    for _ in range(200):
        tau = rng.uniform(0.0, 0.5)
        pairs.append((tau, tau + 10 ** rng.uniform(-3.7, math.log10(4.0))))
    return pairs + [(0.08, 0.08001)]


def test_bracket_matches_full_scan_on_seeded_sweep():
    for tau, tau_prime in sweep_pairs():
        res = _recovery_scan(buffer(tau, tau_prime))
        value, argmax = full_recovery_scan(tau, tau_prime)
        assert (bits(res.value), res.argmax_k) == (bits(value), argmax), (tau, tau_prime)


@pytest.mark.parametrize("tau, tau_prime", [(0.08, 0.081), (0.08, 0.08001), (0.5, 1.0)])
def test_bracket_evaluates_a_bounded_number_of_levels(monkeypatch, tau, tau_prime):
    calls = []

    def counted(k, rate):
        calls.append(k)
        return level_multiplier(k, rate)

    monkeypatch.setattr(constants_module, "level_multiplier", counted)
    _recovery_scan(buffer(tau, tau_prime))
    assert len(calls) <= 16
    assert len(set(calls)) == len(calls)  # no level twice


def log_concave_standin(peak, rel_width=1e-3, scale=8.0):
    """A log-concave stand-in multiplier e^{-((k - peak)/scale)^2}, as
    intervals [(1 - rel_width) v, v], whose maximum sits at ``peak``
    whatever b is."""

    def multiplier(k, rate):
        v = math.exp(-(((k - peak) / scale) ** 2))
        return IntervalScalar(v * (1.0 - rel_width), v)

    return multiplier


# b = 0.05 puts k0 = round(2.5/b) at 50 and the scan end at 91
WIDENING = (0.0, 0.05)
WIDENING_PEAKS = [2, 20, 50, 75, 90, 150]  # 150: still rising at the scan end


def check_standin_peaks(monkeypatch, module):
    tau, tau_prime = WIDENING
    for peak in WIDENING_PEAKS:
        standin = log_concave_standin(peak)
        monkeypatch.setattr(module, "level_multiplier", standin)
        res = module._recovery_scan(buffer(tau, tau_prime))
        value, argmax = scalar_recovery_scan(tau, tau_prime, standin)
        assert (bits(res.value), res.argmax_k) == (bits(value), argmax), peak


def test_bracket_widens_to_a_peak_far_from_k0(monkeypatch):
    b, k_end = scan_end(*WIDENING)
    assert round(2.5 / b.mid) == 50 and k_end == 91
    check_standin_peaks(monkeypatch, constants_module)


@pytest.mark.parametrize(
    "old",
    [
        "a > 1 and not f(a - 1).hi < f(a).lo",
        "z < k_end and not f(z + 1).hi < f(z).lo",
    ],
    ids=["left", "right"],
)
def test_widening_mutant_misses_a_far_peak(monkeypatch, old):
    mutant = mutant_module(monkeypatch, constants_module, f"while {old}:", "while False:")
    with pytest.raises(AssertionError):
        check_standin_peaks(monkeypatch, mutant)


def test_recovery_argmax_is_the_first_of_tied_levels(monkeypatch):
    # log-concave stand-ins whose two top levels, peak and peak + 1, tie
    # exactly, below, at and above k0 = 5 and at the scan end 10: argmax
    # must stay at the first of them
    for peak in (1, 3, 5, 7, 9):
        standin = log_concave_standin(peak + 0.5, rel_width=0.5, scale=2.0)
        assert standin(peak, None) == standin(peak + 1, None)
        monkeypatch.setattr(constants_module, "level_multiplier", standin)
        res = _recovery_scan(buffer(0.5, 1.0))
        value, argmax = scalar_recovery_scan(0.5, 1.0)
        assert (res.argmax_k, bits(res.value)) == (argmax, bits(value)), peak
        assert (argmax, bits(value)) == (peak, bits(standin(peak, None))), peak


# ---------------------------------------------------------------------------
# convolution_constant


# the whole-space constant 2^3 sqrt(G) S^2 for the buffer 0.081 - 0.08 taken
# in floats (0.00100000000000000089), in 30-digit mpmath: S summed to
# k = 120,000 plus its tail bound, G = 1/(e^{2 beta} - 1)
WHOLE_SPACE = 13181.3891232766848
# the same with S summed to the cutoff 8192 plus its tail bound
AT_CUTOFF = 13183.9334029991810


def test_zero_interaction_gives_zero():
    c = convolution_constant(reference_model(0.0))
    assert c.lo == 0.0 and c.hi == 0.0


def check_whole_space_value(module):
    c = module.convolution_constant(reference_model(1.0))
    assert c.contains(AT_CUTOFF)
    assert WHOLE_SPACE <= c.lo and c.hi <= 1.001 * WHOLE_SPACE
    assert c.width / c.hi < 1e-10


def test_whole_space_reference_value():
    check_whole_space_value(constants_module)


def test_whole_space_constant_is_formed_once(monkeypatch):
    # a constant of the program: the coupling-free factor is formed on the
    # first call and read by every later one, whatever the coupling
    first = constants_module._whole_space_factor()
    calls = []
    monkeypatch.setattr(constants_module, "row_sum", calls.append)
    assert bits(convolution_constant(reference_model(2.0))) == bits(point(2.0) * first)
    assert constants_module._whole_space_factor() is first and calls == []


# S without its tail, and G summed on the modes up to twice the cutoff
TAIL_MUTANTS = {
    "no_tail": (".exp()) + tail", ".exp())"),
    "truncated_G": (
        "ONE / (exp_iv(_BUFFER) - ONE)",
        "row_sum((-(_BUFFER * IntervalMatrix.from_point("
        "np.arange(2 * _CUTOFF, 0, -1, dtype=np.float64)[None, :]))).exp())",
    ),
}


@pytest.mark.parametrize("name", sorted(TAIL_MUTANTS))
def test_tail_mutants_miss_the_whole_space_value(monkeypatch, name):
    mutant = mutant_module(monkeypatch, constants_module, *TAIL_MUTANTS[name])
    with pytest.raises(AssertionError):
        check_whole_space_value(mutant)


def test_reference_value_small_truncation():
    # the per-N reference below, pinned: 8 sqrt(sum_{j<=20} e^{-2 beta j})
    # (sum_{k<=10} q_k)^2 to 18 digits: 230.384978436606481
    c = scalar_convolution_constant(reference_model(1.0), 10, PROFILE_SPACE, SOURCE_SPACE)
    assert c.contains(230.384978436606481)
    assert c.width / c.hi < 1e-10


def test_reference_value_full_truncation():
    c = scalar_convolution_constant(reference_model(1.0), 450, PROFILE_SPACE, SOURCE_SPACE)
    assert c.contains(7232.48369617838866)
    assert c.width / c.hi < 1e-10


def test_constant_grows_with_truncation():
    # the constant on modes <= N rises with N towards the whole-space one,
    # which lies above it at every N
    model = reference_model(1.0)
    c = convolution_constant(model)
    below = ZERO
    for N in (16, 128, 450, 2048, 20000):
        truncated = scalar_convolution_constant(model, N, PROFILE_SPACE, SOURCE_SPACE)
        assert below.hi < truncated.lo and truncated.hi < c.lo, N
        below = truncated


def test_constant_scales_with_interaction_bound():
    c1 = convolution_constant(reference_model(1.0))
    c3 = convolution_constant(reference_model(3.0))
    assert c3.contains(3.0 * c1.mid)


def scalar_convolution_constant(model, N, X, Y):
    """The bilinear bound on modes <= N as two scalar loops, one term at a
    time, from the top mode down, as convolution_constant once computed it,
    for spaces with s_Y - s_X = 1 (the per-mode power p = 1/2) and an even
    s_X."""
    assert (Y.s - X.s, X.s % 2) == (1.0, 0.0)
    two_beta = IntervalScalar(Y.tau, Y.tau) - IntervalScalar(X.tau, X.tau)
    beta = two_beta * 0.5
    s1 = ZERO
    for k in range(N, 0, -1):
        one_plus = IntervalScalar(float(1 + k * k), float(1 + k * k))
        s1 = s1 + ONE / sqrt_iv(one_plus) * exp_iv(-(beta * float(k)))
    geo = ZERO
    for j in range(2 * N, 0, -1):
        geo = geo + exp_iv(-(two_beta * float(j)))
    pref = intpow_iv(IntervalScalar(2.0, 2.0), int(X.s) // 2)
    return pref * model.interaction_bound * sqrt_iv(geo) * s1 * s1


def scalar_whole_space_constant(model, n, X, Y):
    """convolution_constant with the cutoff n: S as a scalar loop from n down
    to 1 plus its tail bound, and G in closed form, for the spaces of
    scalar_convolution_constant."""
    assert (Y.s - X.s, X.s % 2) == (1.0, 0.0)
    two_beta = IntervalScalar(Y.tau, Y.tau) - IntervalScalar(X.tau, X.tau)
    beta = two_beta * 0.5
    s = ZERO
    for k in range(n, 0, -1):
        s = s + ONE / sqrt_iv(point(1 + k * k)) * exp_iv(-(beta * float(k)))
    edge = point(1 + (n + 1) * (n + 1))
    s = s + ONE / sqrt_iv(edge) * exp_iv(-(beta * float(n + 1))) / (ONE - exp_iv(-beta))
    geo = ONE / (exp_iv(two_beta) - ONE)
    pref = intpow_iv(IntervalScalar(2.0, 2.0), int(X.s) // 2)
    return model.interaction_bound * (pref * sqrt_iv(geo) * s * s)


@pytest.mark.parametrize("n", [1, 7, 128, 450, constants_module._CUTOFF])
# the audit's pair, the one convolution_constant has: p = (s_Y - s_X)/2 = 1/2
@pytest.mark.parametrize("X, Y", [(PROFILE_SPACE, SOURCE_SPACE)], ids=["p0.5"])
def test_convolution_constant_matches_scalar_loops(monkeypatch, n, X, Y):
    # at the cutoff n, formed afresh; each cutoff bounds the whole space
    factor = constants_module._whole_space_factor
    monkeypatch.setattr(constants_module, "_CUTOFF", n)
    monkeypatch.setattr(constants_module, "_whole_space_factor", factor.__wrapped__)
    model = reference_model(1.0)
    c = convolution_constant(model)
    assert bits(c) == bits(scalar_whole_space_constant(model, n, X, Y))
    assert c.lo >= WHOLE_SPACE


def test_rayleigh_ratio_never_exceeds_bound():
    """Randomized lower-bound oracle for the bilinear inequality.

    1000 random sparse pairs on modes <= 12; every certified Rayleigh
    quotient must sit below the certified constant.
    """
    model = reference_model(1.0)
    cfg = OperatorConfig(model, make_interval(0.005, 0.0), truncation_N=12)
    c = convolution_constant(model)
    rng = random.Random(20240818)

    def draw():
        n = rng.randint(1, 12)
        modes = rng.sample(range(1, 13), n)
        return CoefficientVector.from_dict(
            {j: point(rng.uniform(-1.0, 1.0)) for j in modes}
        )

    for _ in range(1000):
        u, v = draw(), draw()
        q = apply_quadratic(u, v, cfg)
        denom = norm(u, SOURCE_SPACE) * norm(v, SOURCE_SPACE)
        if denom.lo <= 0.0:
            continue
        ratio = norm(q, PROFILE_SPACE) / denom
        assert ratio.lo <= c.hi


# ---------------------------------------------------------------------------
# lipschitz_constant


def test_headline_product():
    k = lipschitz_constant(
        interval_from_decimal("2.5652e7"), interval_from_decimal("4.2872e-4")
    )
    # 2.5652e7 * 4.2872e-4 = 10997.52544 exactly in decimal
    assert k.contains(10997.52544)
    assert k.hi == 11000.0


def test_unit_and_zero_cases():
    zero = lipschitz_constant(point(0.0), point(5.0))
    assert zero.lo == 0.0 and zero.hi == 0.0
    one = lipschitz_constant(point(1.0), point(1.0))
    assert one.lo == 1.0 and one.hi == 1.0


def test_negative_inputs_rejected():
    with pytest.raises(CertificationError):
        lipschitz_constant(point(-1.0), point(1.0))
    with pytest.raises(CertificationError):
        lipschitz_constant(point(1.0), point(-2.0))


def test_ceil_two_significant():
    assert _ceil_two_significant(10997.52544) == 11000.0
    assert _ceil_two_significant(1.0) == 1.0
    assert _ceil_two_significant(0.0) == 0.0
    assert _ceil_two_significant(11000.0) == 11000.0
    v = _ceil_two_significant(0.99)
    assert 0.99 <= v < 0.9901
    assert _ceil_two_significant(0.991) == 1.0
    with pytest.raises(CertificationError):
        _ceil_two_significant(-1.0)
    with pytest.raises(CertificationError):
        _ceil_two_significant(math.inf)


# ---------------------------------------------------------------------------
# report assembly


def test_report_invariant_enforced():
    with pytest.raises(CertificationError):
        ConstantsReport(
            C_rec_map=point(10.0), argmax_k=1, C_conv=point(10.0), K=point(99.0)
        )


def test_certify_constants_computes_when_undeclared():
    rec = recovery_mapping_constant()
    rep = certify_constants(rec, reference_model(1.0))
    assert (rep.C_rec_map, rep.argmax_k) == (rec.value, rec.argmax_k)
    assert rep.C_conv.contains(AT_CUTOFF)
    product = rep.C_rec_map * rep.C_conv
    assert rep.K.hi >= product.hi
    # two significant figures of the ~3.382e11 product
    assert rep.K.hi == 3.4e11
    assert isinstance(rec, RecoveryMapResult)
