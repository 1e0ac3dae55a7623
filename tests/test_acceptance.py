"""Acceptance battery: the eleven headline checks, one line printed each.

Every test ends by printing a single ``[criterion NN] label: PASS`` line
with the measured runtime, so ``pytest -v -s tests/test_acceptance.py``
reads as a checklist.  Runtime budgets are asserted, not just printed.
High-precision oracles are shared with the module tests.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from spikecert.closure import image_overlap_bound, nk_closure, torus_closure
from spikecert.constants import lipschitz_constant, recovery_mapping_constant
from spikecert.interval import IntervalScalar, arith, exp_iv, interval_from_decimal
from spikecert.matrix import IntervalMatrix, inf_norm
from spikecert.operator import OperatorConfig, apply_G, assemble_jacobian
from spikecert.oracle import check_reconstruction_scaling, default_grid, standard_checks
from spikecert.residual import certify_residual
from spikecert.spaces import (
    PROFILE_SPACE,
    CoefficientVector,
    ProfileCertificate,
    load_certificate,
)
from spikecert.stability import (
    certify_inverse,
    certify_tail_coercivity,
    inverse_bound_from_norms,
)
from spikecert.basis import reference_model
from spikecert.audit import AuditConfig, run_audit

from test_operator import brute_G
from test_residual import mp_space_norm

mpmath.mp.dps = 40

DELTA = interval_from_decimal("8.421739e-12")
M_DECL = interval_from_decimal("482.6")
K_DECL = interval_from_decimal("1.1e4")
EPS_T3 = interval_from_decimal("1.42e-20")


def iv(x):
    return IntervalScalar(float(x), float(x))


def best_of(fn, repeats=7):
    """Steady-state runtime: warm once, then keep the fastest repeat."""
    fn()
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def report(num, label, elapsed, budget):
    print(
        f"[criterion {num:02d}] {label}: PASS "
        f"({elapsed * 1e3:.3f} ms, budget {budget * 1e3:.0f} ms)"
    )


# --------------------------------------------------------------- criterion 1


def test_criterion_01_scalar_closure_reproduction(bundled_certificate_path):
    def work():
        return (
            nk_closure(DELTA, M_DECL, K_DECL),
            torus_closure(DELTA, EPS_T3, M_DECL, K_DECL),
        )

    (local, torus), elapsed = best_of(work)
    for rep in (local, torus):
        assert rep.verdict
        assert 8.90e-5 <= rep.product.lo <= rep.product.hi <= 8.95e-5
    assert elapsed < 1e-3

    # the three circulating roundings of the product must be on record
    log_text = run_audit(bundled_certificate_path, AuditConfig(timestamp="t")).log.render()
    for variant in ("8.9e-05", "8.9328e-05", "8.9415e-05"):
        assert variant in log_text
    report(1, "scalar closure reproduction", elapsed, 1e-3)


# --------------------------------------------------------------- criterion 2


def test_criterion_02_inverse_bound_format_and_soundness():
    t0 = time.perf_counter()
    rep = inverse_bound_from_norms(
        interval_from_decimal("482.540"), interval_from_decimal("1.2435e-4")
    )
    assert rep.verified
    assert 482.599 <= rep.M.lo <= rep.M.hi <= 482.601

    rng = np.random.default_rng(20260818)
    certified = 0
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        out = certify_inverse(IntervalMatrix.from_point(a))
        if not out.verified:
            continue
        certified += 1
        al = a.astype(np.longdouble)
        x = np.linalg.inv(a).astype(np.longdouble)
        eye2 = np.longdouble(2.0) * np.eye(n, dtype=np.longdouble)
        for _ in range(2):
            x = x @ (eye2 - al @ x)
        true_norm = float(np.abs(x).sum(axis=1).max())
        if out.M.hi < true_norm:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert certified >= 950
    assert violations == 0
    assert elapsed < 30.0
    report(2, f"inverse bound, {certified}/1000 certified, 0 violations", elapsed, 30.0)


# --------------------------------------------------------------- criterion 3


def test_criterion_03_tail_coercivity(bundled_certificate_path):
    cert = load_certificate(bundled_certificate_path)
    cfg = OperatorConfig(
        model=reference_model(1.0), nu=cert.nu, truncation_N=450
    )

    def work():
        return certify_tail_coercivity(cert, cfg, interval_from_decimal("0.125"), j_min=1200)

    t0 = time.perf_counter()
    rep = work()
    elapsed = time.perf_counter() - t0
    assert rep.verified
    assert rep.monotone_tail_verified
    assert 7199.9 <= rep.gamma.lo <= 7200.0
    assert rep.gamma.lo >= 7182.4
    assert elapsed < 5.0
    report(3, f"tail coercivity, gamma.lo = {rep.gamma.lo:.6f}", elapsed, 5.0)


# --------------------------------------------------------------- criterion 4


def test_criterion_04_recovery_mapping_constant():
    t0 = time.perf_counter()
    rep = recovery_mapping_constant()
    elapsed = time.perf_counter() - t0
    assert rep.argmax_k == 2500
    # the quoted 2.5652e7 is a five-significant-digit rounding; the
    # certified interval must sit inside that rounding window and
    # contain the supremum itself (mpmath, 20 digits)
    assert 2.56515e7 <= rep.value.lo <= rep.value.hi < 2.56525e7
    assert rep.value.contains(25651560.017843597190)
    assert rep.value.width / rep.value.lo < 1e-6
    assert elapsed < 5.0
    report(4, f"recovery constant, argmax k = {rep.argmax_k}", elapsed, 5.0)


# --------------------------------------------------------------- criterion 5


def test_criterion_05_lipschitz_headline():
    def work():
        return lipschitz_constant(
            interval_from_decimal("2.5652e7"), interval_from_decimal("4.2872e-4")
        )

    K, elapsed = best_of(work)
    # lower endpoint carries the true product, which rounds to 1.0998e4
    # at five significant digits; the headline ceiling is exactly 1.1e4
    assert 1.09975e4 <= K.lo < 1.09985e4
    assert K.hi == 1.1e4
    assert elapsed < 1e-3
    report(5, "lipschitz headline K = 1.1e4", elapsed, 1e-3)


# --------------------------------------------------------------- criterion 6


def test_criterion_06_torus_overlap_magnitude():
    def work():
        return image_overlap_bound(0.05, lattice_radius=3, nearest_only=True)

    mag, elapsed = best_of(work)
    assert -1714.6 <= mag.log10_value <= -1714.4
    assert elapsed < 1e-3
    # the full lattice sum sits above the per-image scale by the shell
    # multiplicity, still absurdly small
    full = image_overlap_bound(0.05, lattice_radius=3)
    assert mag.log10_value <= full.log10_value <= -1713.7
    report(6, f"overlap log10 = {mag.log10_value:.4f}", elapsed, 1e-3)


# --------------------------------------------------------------- criterion 7


def test_criterion_07_residual_soundness_against_brute_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    violations = 0
    for _ in range(200):
        N = rng.randint(1, 12)
        coupling = rng.uniform(0.0, 1.0)
        crec = rng.uniform(0.0, 1.0)
        nu = rng.uniform(1e-3, 0.05)
        support = rng.sample(range(1, N + 1), rng.randint(1, N))
        c = {
            j: (1.0 if rng.random() < 0.5 else -1.0)
            * rng.uniform(0.1, 1.0)
            * math.exp(-0.08 * j)
            for j in support
        }
        coeffs = CoefficientVector(tuple((j, iv(x)) for j, x in c.items()), N)
        cert = ProfileCertificate(
            coefficients=coeffs, nu=iv(nu), sigma=0.05
        )
        cfg = OperatorConfig(
            model=reference_model(coupling, coupling_rec=crec),
            nu=iv(nu),
            truncation_N=N,
        )
        rep = certify_residual(cert, cfg)
        exact = mp_space_norm(brute_G(c, coupling, crec, nu, N), PROFILE_SPACE)
        if mpmath.mpf(rep.delta.hi) < exact * (1 - mpmath.mpf("1e-30")):
            violations += 1

    zero = certify_residual(
        ProfileCertificate(
            coefficients=CoefficientVector(), nu=iv(0.005), sigma=0.05
        ),
        OperatorConfig(model=reference_model(1.0), nu=iv(0.005), truncation_N=10),
    )
    assert (zero.delta.lo, zero.delta.hi) == (0.0, 0.0)

    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    report(7, "residual soundness, 200 profiles, 0 violations", elapsed, 60.0)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_containment_fuzz_hundred_thousand():
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    trials = 0

    for _ in range(60_000):
        a_lo = rng.uniform(-1e6, 1e6)
        a = IntervalScalar(a_lo, a_lo + rng.uniform(0.0, 10.0))
        b_lo = rng.uniform(-1e6, 1e6)
        b = IntervalScalar(b_lo, b_lo + rng.uniform(0.0, 10.0))
        op = rng.choice(("add", "sub", "mul", "div"))
        if op == "div" and b.lo <= 0.0 <= b.hi:
            op = "mul"
        r = arith(op, a, b)
        pa = Fraction(rng.uniform(a.lo, a.hi))
        pb = Fraction(rng.uniform(b.lo, b.hi))
        exact = {
            "add": pa + pb,
            "sub": pa - pb,
            "mul": pa * pb,
            "div": pa / pb if pb else None,
        }[op]
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        trials += 1

    for _ in range(20_000):
        lo = rng.uniform(-700.0, 700.0)
        x = IntervalScalar(lo, lo + rng.uniform(0.0, 2.0))
        r = exp_iv(x)
        point = rng.uniform(x.lo, x.hi)
        exact = mpmath.exp(mpmath.mpf(point))
        assert mpmath.mpf(r.lo) <= exact <= mpmath.mpf(r.hi)
        trials += 1

    for k in range(20_000):
        n = rng.randint(1, 5)
        a = np.array([[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)])
        if k % 2:
            rad = rng.uniform(0.0, 1e-3)
            m = IntervalMatrix(a - rad, a + rad)
            sample = a + np.array(
                [[rng.uniform(-rad, rad) for _ in range(n)] for _ in range(n)]
            )
        else:
            m = IntervalMatrix.from_point(a)
            sample = a
        r = inf_norm(m)
        exact = max(
            sum(abs(Fraction(float(v))) for v in row) for row in sample
        )
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        trials += 1

    elapsed = time.perf_counter() - t0
    assert trials == 100_000
    assert elapsed < 30.0
    report(8, "containment fuzz, 100000 trials, 0 violations", elapsed, 30.0)


# --------------------------------------------------------------- criterion 9


def test_criterion_09_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    worst = 0.0
    for _ in range(25):
        N = rng.randint(2, 12)
        cfg = OperatorConfig(
            model=reference_model(
                rng.uniform(0.0, 1.0), coupling_rec=rng.uniform(0.0, 1.0)
            ),
            nu=iv(rng.uniform(1e-3, 0.05)),
            truncation_N=N,
        )
        c = {
            j: rng.uniform(-0.5, 0.5)
            for j in rng.sample(range(1, N + 1), rng.randint(1, N))
        }
        J = assemble_jacobian(
            CoefficientVector(tuple((j, iv(x)) for j, x in c.items()), N), cfg
        )
        h = 1e-6

        def g_mid(x):
            v = CoefficientVector(
                tuple((j, iv(xj)) for j, xj in x.items() if xj != 0.0), N
            )
            out = apply_G(v, cfg)
            return np.array([out.get(j).mid for j in range(1, N + 1)])

        for m in range(1, N + 1):
            xp, xm = dict(c), dict(c)
            xp[m] = xp.get(m, 0.0) + h
            xm[m] = xm.get(m, 0.0) - h
            fd = (g_mid(xp) - g_mid(xm)) / (2 * h)
            for j in range(1, N + 1):
                e = J.entry(j - 1, m - 1)
                scale = max(abs(fd[j - 1]), e.mag(), 1.0)
                worst = max(worst, abs(e.mid - fd[j - 1]) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 30.0
    report(9, f"jacobian vs finite differences, worst rel {worst:.2e}", elapsed, 30.0)


# -------------------------------------------------------------- criterion 10


def test_criterion_10_calculus_oracle():
    t0 = time.perf_counter()
    rows = {r["check"]: r for r in standard_checks(default_grid())}

    assert rows["conjugation r^2 z"]["value"] <= 1e-12
    assert rows["conjugation r^4"]["value"] <= 1e-12
    assert 3.5 <= rows["conjugation h->h/2 ratio"]["value"] <= 4.5
    # the stencils are exact on this stream field; what remains is float
    # evaluation noise, orders of magnitude below any h^2 truncation
    assert rows["divergence rho^4 zeta"]["value"] <= 1e-10

    rec = check_reconstruction_scaling(1.0, 1.0, (0.0, 0.5, 0.9, 0.99), epsilon=1e-6)
    assert rec.spread <= 1e-12
    assert abs(rec.partial_integral - math.log(1e6)) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, "calculus oracle battery", elapsed, 10.0)


# -------------------------------------------------------------- criterion 11


def test_criterion_11_end_to_end_audit(bundled_certificate_path, tmp_path):
    t0 = time.perf_counter()
    cfg = AuditConfig(timestamp="2026-08-18T00:00:00Z")
    first = run_audit(bundled_certificate_path, cfg)
    second = run_audit(bundled_certificate_path, cfg)
    assert first.exit_code == 0
    assert "VERIFIED" in first.log.status
    assert first.log.render() == second.log.render()
    for tag, _ in first.log:
        assert tag in ("EXEC", "PREC", "TASK", "STEP", "RSLT", "CALC", "VERDICT", "STATUS")

    doc = json.loads(bundled_certificate_path.read_text())
    flipped = 0
    for name in doc["constants"]:
        bad = json.loads(bundled_certificate_path.read_text())
        bad["constants"][name]["mid"] = repr(float(bad["constants"][name]["mid"]) * 1e9)
        path = tmp_path / f"tamper_{name}.json"
        path.write_text(json.dumps(bad))
        out = run_audit(path, cfg)
        assert out.exit_code == 1, name
        flipped += 1
    assert flipped == 9

    elapsed = time.perf_counter() - t0
    report(11, f"end-to-end audit, {flipped}/9 tampers rejected", elapsed, 60.0)
