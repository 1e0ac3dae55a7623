"""Closure constants: recovery supremum, bilinear bound, Lipschitz product.

Frozen digits come from 40-digit mpmath evaluations of the same
formulas under the same convention (rates are the real numbers the
float arguments denote, differences taken exactly).
"""

import math
import random

import pytest

import spikecert.constants as constants_module
from spikecert.basis import reference_model
from spikecert.constants import (
    ConstantsReport,
    RecoveryMapResult,
    _ceil_two_significant,
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
    # both endpoints, bit for bit, as the full scalar scan gives them
    assert bits(res.value) == ("0x1.876968049165ap+24", "0x1.8769680491662p+24")
    value, argmax = scalar_recovery_scan()
    assert (bits(res.value), res.argmax_k) == (bits(value), argmax)


def test_source_rate_mutant_in_the_buffer_fails_the_reference(monkeypatch):
    # Y's rate in place of X's leaves the recovery bracket no buffer: the
    # reference supremum (and criterion 04) cannot be formed at all
    mutant = mutant_module(
        monkeypatch,
        constants_module,
        "PROFILE_SPACE.tau, PROFILE_SPACE.tau",
        "SOURCE_SPACE.tau, SOURCE_SPACE.tau",
    )
    with pytest.raises(ZeroDivisionError):
        check_reference_supremum(mutant)


def test_argmax_tracks_stationary_point():
    b = buffer()
    k_star = 2.5 / b.mid
    assert abs(recovery_mapping_constant().argmax_k - k_star) <= 1.0


def test_reference_supremum_is_formed_once():
    # a constant of the program: every call returns the one object, with
    # the bits of a fresh evaluation
    first = recovery_mapping_constant()
    assert recovery_mapping_constant() is first
    fresh = recovery_mapping_constant.__wrapped__()
    assert (bits(first.value), first.argmax_k) == (bits(fresh.value), fresh.argmax_k)


def test_supremum_dominates_log_spaced_grid():
    res = recovery_mapping_constant()
    grid = sorted(
        {int(round(10 ** (e / 4.0))) for e in range(0, 25)} | set(range(2496, 2505))
    )
    for k in grid:
        assert res.value.hi >= level_multiplier(k).lo


def test_level_multiplier_rejects_bad_index():
    with pytest.raises(CertificationError):
        level_multiplier(0)
    with pytest.raises(CertificationError):
        level_multiplier(True)


# -- the fixed bracket against the full scalar scan over k = 1..4501

# the scan end ceil(4.5/b) + 1: from there on the one-step ratio bound
# e^{-b} ((k+1)/k)^{7/2} is below one, so f only falls
K_END = 4501


def buffer():
    """The buffer tau_Y - tau_X, enclosed from the two spaces' floats."""
    return point(SOURCE_SPACE.tau) - point(PROFILE_SPACE.tau)


def scalar_recovery_scan(multiplier=None):
    """The running supremum over k = 1..K_END, one scalar level multiplier
    at a time (``constants.level_multiplier`` unless another is given): a
    later level replaces the maximum only when strictly above it."""
    multiplier = multiplier or constants_module.level_multiplier
    best_hi = -1.0
    best_lo = -1.0
    argmax = 1
    for k in range(1, K_END + 1):
        m = multiplier(k)
        if m.hi > best_hi:
            best_hi = m.hi
            argmax = k
        if m.lo > best_lo:
            best_lo = m.lo
    return IntervalScalar(best_lo, best_hi), argmax


def bits(x):
    return float(x.lo).hex(), float(x.hi).hex()


# the rates of the audit's two spaces, X and Y, which fix the buffer
AUDIT_RATES = [(0.08, 0.081)]


@pytest.mark.parametrize("tau, tau_prime, k_end", [(*AUDIT_RATES[0], K_END)])
def test_recovery_scan_matches_scalar_loop(tau, tau_prime, k_end):
    assert (PROFILE_SPACE.tau, SOURCE_SPACE.tau) == (tau, tau_prime)
    assert math.ceil(4.5 / buffer().lo) + 1 == k_end
    res = recovery_mapping_constant()
    value, argmax = scalar_recovery_scan()
    assert (bits(res.value), res.argmax_k) == (bits(value), argmax)


@pytest.mark.parametrize("tau, tau_prime", AUDIT_RATES)
def test_bracket_evaluates_a_bounded_number_of_levels(monkeypatch, tau, tau_prime):
    assert (PROFILE_SPACE.tau, SOURCE_SPACE.tau) == (tau, tau_prime)
    calls = []

    def counted(k):
        calls.append(k)
        return level_multiplier(k)

    monkeypatch.setattr(constants_module, "level_multiplier", counted)
    recovery_mapping_constant.__wrapped__()
    assert calls == list(range(2497, 2504))  # seven levels, each once


def log_concave_standin(peak, rel_width=1e-3, scale=8.0):
    """A log-concave stand-in multiplier e^{-((k - peak)/scale)^2}, as
    intervals [(1 - rel_width) v, v], whose maximum sits at ``peak``."""

    def multiplier(k):
        v = math.exp(-(((k - peak) / scale) ** 2))
        return IntervalScalar(v * (1.0 - rel_width), v)

    return multiplier


# peaks far below, just outside, inside and above the bracket 2498..2502
FAR_PEAKS = [1, 2400, 2496, 2497, 2503, 2504, 2600, 4000]
INSIDE_PEAKS = [2498, 2500, 2502]


def check_standin_peaks(monkeypatch, module):
    for peak in INSIDE_PEAKS:
        standin = log_concave_standin(peak)
        monkeypatch.setattr(module, "level_multiplier", standin)
        res = module.recovery_mapping_constant.__wrapped__()
        value, argmax = scalar_recovery_scan(standin)
        assert (bits(res.value), res.argmax_k) == (bits(value), argmax), peak
    for peak in FAR_PEAKS:
        monkeypatch.setattr(module, "level_multiplier", log_concave_standin(peak))
        with pytest.raises(CertificationError, match="not certified"):
            module.recovery_mapping_constant.__wrapped__()


def test_bracket_refuses_a_peak_outside_it(monkeypatch):
    check_standin_peaks(monkeypatch, constants_module)


@pytest.mark.parametrize(
    "old",
    ["f[k0 - 3].hi < f[k0 - 2].lo", "f[k0 + 3].hi < f[k0 + 2].lo"],
    ids=["left", "right"],
)
def test_edge_mutant_misses_a_far_peak(monkeypatch, old):
    mutant = mutant_module(monkeypatch, constants_module, f"if not {old}:", "if False:")
    with pytest.raises(pytest.fail.Exception):
        check_standin_peaks(monkeypatch, mutant)


def test_recovery_argmax_is_the_first_of_tied_levels(monkeypatch):
    # log-concave stand-ins whose two top levels, peak and peak + 1, tie
    # exactly inside the bracket: argmax must stay at the first of them
    for peak in (2498, 2499, 2500, 2501):
        standin = log_concave_standin(peak + 0.5, rel_width=0.1, scale=2.0)
        assert standin(peak) == standin(peak + 1)
        monkeypatch.setattr(constants_module, "level_multiplier", standin)
        res = recovery_mapping_constant.__wrapped__()
        value, argmax = scalar_recovery_scan(standin)
        assert (res.argmax_k, bits(res.value)) == (argmax, bits(value)), peak
        assert (argmax, bits(value)) == (peak, bits(standin(peak))), peak


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
        return CoefficientVector(
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
