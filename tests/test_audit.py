"""Audit driver: grammar invariants, trust gates, tamper matrix, exit codes."""

import dataclasses
import json
import pathlib
import time
import warnings

import pytest

from spikecert import audit
from spikecert.audit import (
    AUDIT_MAGIC,
    AUDIT_TAGS,
    AuditConfig,
    AuditLog,
    run_audit,
)
from spikecert.basis import reference_model
from spikecert.cli import main

from mutants import mutant_module

FAST = AuditConfig(timestamp="2026-08-18T00:00:00Z")

DECLARED = [
    "delta",
    "M",
    "K",
    "C_prof",
    "gamma",
    "C_rec_ker",
    "C_rec_map",
    "C_conv",
    "eps_T3",
]


@pytest.fixture()
def bundled(bundled_certificate_path):
    return bundled_certificate_path


def tampered_copy(src, tmp_path, name, factor=1e9):
    doc = json.loads(pathlib.Path(src).read_text())
    entry = doc["constants"][name]
    entry["mid"] = repr(float(entry["mid"]) * factor)
    out = tmp_path / f"tampered_{name}.json"
    out.write_text(json.dumps(doc))
    return out


# ------------------------------------------------------------- log grammar


def test_log_rejects_empty_and_unknown_tags():
    with pytest.raises(ValueError, match="empty"):
        AuditLog([])
    with pytest.raises(ValueError, match="unknown audit tag"):
        AuditLog([("NOPE", "x"), ("STATUS", "certificate REJECTED: y")])


def test_log_requires_single_trailing_status():
    with pytest.raises(ValueError, match="STATUS"):
        AuditLog([("EXEC", AUDIT_MAGIC)])
    with pytest.raises(ValueError, match="STATUS"):
        AuditLog([("STATUS", "a"), ("EXEC", AUDIT_MAGIC)])
    with pytest.raises(ValueError, match="STATUS"):
        AuditLog([("STATUS", "a"), ("STATUS", "b")])


def test_log_allows_at_most_one_verdict():
    with pytest.raises(ValueError, match="VERDICT"):
        AuditLog(
            [
                ("VERDICT", "x < 1"),
                ("VERDICT", "y < 1"),
                ("STATUS", "certificate REJECTED: dup"),
            ]
        )
    log = AuditLog([("VERDICT", "x < 1"), ("STATUS", "ok VERIFIED")])
    assert log.status == "ok VERIFIED"


def test_log_render_format():
    log = AuditLog([("EXEC", AUDIT_MAGIC), ("STATUS", "certificate VERIFIED")])
    text = log.render()
    assert text == f"[EXEC] {AUDIT_MAGIC}\n[STATUS] certificate VERIFIED\n"


# -------------------------------------------------------------- happy path


def test_bundled_certificate_verifies(bundled):
    result = run_audit(bundled, FAST)
    assert result.exit_code == 0
    assert result.verified
    assert "VERIFIED" in result.log.status
    lines = list(result.log)
    assert lines[0] == ("EXEC", AUDIT_MAGIC)
    assert all(tag in AUDIT_TAGS for tag, _ in lines)


def test_bundled_log_structure(bundled):
    text = run_audit(bundled, FAST).log.render()
    for needle in (
        "residual delta (declared)",
        "inverse bound M (declared)",
        "coercivity gamma (computed",
        "recovery mapping constant (computed)",
        "argmax k = 2500",
        "transfer error (declared)",
        "local product 2 delta M K",
        "torus product 2 (delta + eps) M K",
        "[VERDICT] 8.941529e-05 < 1.000000e+00",
    ):
        assert needle in text, needle


def test_digit_variants_surfaced(bundled):
    # three different roundings of the closure product circulate in the
    # source material; the log must put all three on record
    text = run_audit(bundled, FAST).log.render()
    assert "8.9e-05" in text
    assert "8.9328e-05" in text
    assert "8.9415e-05" in text


def test_rslt_lines_marked_declared_or_computed(bundled):
    for tag, line in run_audit(bundled, FAST).log:
        if tag == "RSLT":
            assert "(declared)" in line or "(computed" in line, line


def test_determinism_modulo_timestamp(bundled):
    a = run_audit(bundled).log.render()
    b = run_audit(bundled).log.render()
    strip = lambda t: [l for l in t.splitlines() if not l.startswith("[EXEC] run started")]
    assert strip(a) == strip(b)


def test_fixed_timestamp_injection(bundled):
    text = run_audit(bundled, FAST).log.render()
    assert "[EXEC] run started 2026-08-18T00:00:00Z" in text


def test_precision_line_is_fixed_binary64(bundled):
    # the arithmetic is binary64 throughout; no knob requests more bits
    with pytest.raises(TypeError):
        AuditConfig(precision=212)
    prec = [line for tag, line in run_audit(bundled, FAST).log if tag == "PREC"]
    assert prec == ["binary64 interval endpoints, outward rounding, 53 mantissa bits"]


# ------------------------------------------------------------ tamper matrix


@pytest.mark.parametrize("name", DECLARED)
def test_tampering_any_declared_constant_flips_to_failure(bundled, tmp_path, name):
    path = tampered_copy(bundled, tmp_path, name)
    result = run_audit(path, FAST)
    assert result.exit_code == 1, name
    assert not result.verified
    assert "VERIFIED" not in result.log.status
    assert "REJECTED" in result.log.status


def test_tampered_k_names_the_gate(bundled, tmp_path):
    result = run_audit(tampered_copy(bundled, tmp_path, "K"), FAST)
    assert "K" in result.log.status
    assert any(
        tag == "RSLT" and "lipschitz constant K" in line and "FAIL" in line
        for tag, line in result.log
    )


def test_tampered_delta_fails_closure_not_gates(bundled, tmp_path):
    result = run_audit(tampered_copy(bundled, tmp_path, "delta"), FAST)
    assert "closure product reaches one" in result.log.status
    text = result.log.render()
    assert "[VERDICT]" in text
    assert ">= 1.000000e+00" in text


def test_small_downward_change_still_verifies(bundled, tmp_path):
    # shrinking delta only widens the margin; the audit is a one-sided
    # soundness check, not an equality test
    path = tampered_copy(bundled, tmp_path, "delta", factor=0.5)
    assert run_audit(path, FAST).exit_code == 0


# ----------------------------------------- declared intervals across a gate
#
# Every declared constant of the bundled certificate is a point, lo = hi, so
# a gate that tests the wrong endpoint decides it as the right one does.
# Each case declares one constant with a radius that puts the two endpoints
# on either side of the gate's bound; the gate, and not its endpoint-swap
# mutant, gives the verdict the case names.


def declared_copy(src, tmp_path, name, mid, rad):
    doc = json.loads(pathlib.Path(src).read_text())
    doc["constants"][name] = {"mid": mid, "rad": rad}
    out = tmp_path / f"declared_{name}.json"
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize(
    "name, mid, rad, label, verdict, old, new",
    [
        # [0.115, 0.135] reaches past the cap 0.125
        (
            "C_prof", "0.125", "0.01", "profile envelope constant", "FAIL",
            "declared.hi <= cap,", "declared.lo <= cap,",
        ),
        # [7170, 7210] reaches past the certified lower bound 7200
        (
            "gamma", "7190", "20", "coercivity gamma", "FAIL",
            "declared.hi <= coer.gamma.lo,", "declared.lo <= coer.gamma.hi,",
        ),
        # [2.5642e7, 2.5662e7] straddles the computed 2.565156e7; its upper
        # end bounds the supremum, its lower end does not
        (
            "C_rec_map", "2.5652e7", "1e4", "recovery mapping constant", "pass",
            "rec.value.hi <= rec_map.hi <=", "rec.value.hi <= rec_map.lo <=",
        ),
        # [10400, 10600] reaches below 0.95 C_rec_map C_conv = 10447.65
        (
            "K", "1.05e4", "100", "lipschitz constant K", "FAIL",
            "0.95 * product.lo <= k.lo and k.hi <=", "0.95 * product.lo <= k.hi and k.lo <=",
        ),
    ],
    ids=["cap", "gamma", "C_rec_map", "K"],
)
def test_declared_interval_across_a_gate(
    bundled, tmp_path, monkeypatch, name, mid, rad, label, verdict, old, new
):
    path = declared_copy(bundled, tmp_path, name, mid, rad)

    def check(run):
        result = run(path, FAST)
        lines = [text for tag, text in result.log if text.startswith(f"{label} (declared)")]
        assert len(lines) == 1 and lines[0].endswith(f": {verdict}"), lines
        if verdict == "FAIL":
            assert result.exit_code == 1
            assert result.log.status == f"certificate REJECTED: {name}"
        else:
            assert result.exit_code == 0 and result.verified

    check(run_audit)
    mutant = mutant_module(monkeypatch, audit, old, new)
    with pytest.raises(AssertionError):
        check(mutant.run_audit)


# --------------------------------------------------------------- zero profile


def test_zero_profile_coupling_zero_trivially_closes(tmp_path):
    doc = {
        "format_version": "1.0",
        "nu": {"mid": "0.005", "rad": "0"},
        "sigma": "0.05",
        "tau": "0.08",
        "modes": [],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    cfg = AuditConfig(
        coupling=0.0,
        truncation_N=16,
        timestamp="2026-08-18T00:00:00Z",
    )
    result = run_audit(path, cfg)
    text = result.log.render()
    assert result.exit_code == 0, text
    assert "residual delta (computed) = [0.000000e+00, 0.000000e+00]" in text
    assert "inverse bound M (computed)" in text
    assert "VERIFIED" in result.log.status


# ------------------------------------------------------------ constant-free


def test_constant_free_bundled_audit_fails_fast(bundled, tmp_path):
    # every closure input recomputed at N = 450, the Jacobian included; the
    # audit must reach its verdict well within a minute
    doc = json.loads(pathlib.Path(bundled).read_text())
    del doc["constants"]
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    result = run_audit(path, AuditConfig(timestamp="2026-08-18T00:00:00Z"))
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: M"
    assert any(
        tag == "RSLT" and line.startswith("inverse bound M not certified") and "FAIL" in line
        for tag, line in result.log
    )
    assert elapsed < 20.0, f"constant-free audit took {elapsed:.1f} s"


def test_constant_free_audit_past_j_min_assembles_no_jacobian(bundled, tmp_path):
    # at N = 2048 the tail scan's j_min = 1200 fails on the options alone, so
    # the N x N Jacobian and its inverse are not built for a verdict it
    # cannot change
    doc = json.loads(pathlib.Path(bundled).read_text())
    del doc["constants"]
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    result = run_audit(path, AuditConfig(truncation_N=2048, timestamp="2026-08-18T00:00:00Z"))
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: gamma"
    assert (
        "CALC",
        "inverse bound M skipped: the tail stage needs j_min=1200 above the truncation N=2048",
    ) in result.log.lines
    assert (
        "RSLT",
        "tail coercivity stage failed: j_min=1200 must exceed the truncation N=2048: FAIL",
    ) in result.log.lines
    assert elapsed < 5.0, f"audit took {elapsed:.1f} s"


def test_constant_free_audit_with_tau_past_tau_prime_assembles_no_jacobian(bundled, tmp_path):
    # tau = 0.081, the source rate: a certificate whose tau is not X's rate
    # is refused at load, so the 2048 x 2048 Jacobian is never built
    doc = json.loads(pathlib.Path(bundled).read_text())
    del doc["constants"]
    doc["tau"] = "0.081"
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    cfg = AuditConfig(truncation_N=2048, j_min=4096, timestamp="2026-08-18T00:00:00Z")
    t0 = time.perf_counter()
    result = run_audit(path, cfg)
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 2
    assert result.log.status == (
        "certificate REJECTED, unreadable: tau: the audit runs in the profile space X, "
        "whose rate is 0.08; got 0.081"
    )
    assert [text for tag, text in result.log if tag == "TASK"] == ["certificate load"]
    assert elapsed < 1.0, f"audit took {elapsed:.1f} s"


def test_constant_free_audit_builds_each_slab_once(bundled, tmp_path, monkeypatch):
    # the five-mode shape at N = 128: one 256 x 5 slab per source mode for
    # G, then one 128 x 128 slab per source mode feeding both A_c and A_{Kc}
    import spikecert.audit

    calls = []

    def counted_model(*args):
        model = reference_model(*args)

        def interaction_block(k, ls, n):
            calls.append((k, len(ls), n))
            return model.interaction_block(k, ls, n)

        return dataclasses.replace(model, interaction_block=interaction_block)

    monkeypatch.setattr(spikecert.audit, "reference_model", counted_model)
    doc = json.loads(pathlib.Path(bundled).read_text())
    del doc["constants"]
    doc["modes"] = [dict(m, j=j) for m, j in zip(doc["modes"], (1, 14, 43, 85, 128))]
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    result = run_audit(path, AuditConfig(truncation_N=128, timestamp="2026-08-18T00:00:00Z"))
    assert result.exit_code == 1
    modes = [1, 14, 43, 85, 128]
    assert calls == [(k, 5, 256) for k in modes] + [(k, 128, 128) for k in modes]


# ---------------------------------------------------------------- bad input


def test_missing_file_exits_two(tmp_path):
    result = run_audit(tmp_path / "nope.json", FAST)
    assert result.exit_code == 2
    assert not result.verified
    assert "VERIFIED" not in result.log.status


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = run_audit(path, FAST)
    assert result.exit_code == 2
    assert "unreadable" in result.log.status


def test_wrong_schema_exits_two(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"format_version": "1.0"}))
    result = run_audit(path, FAST)
    assert result.exit_code == 2


def test_exit_code_matches_status_contract(bundled, tmp_path):
    # exit 0 if and only if the status line contains VERIFIED
    runs = [run_audit(bundled, FAST)]
    runs.append(run_audit(tampered_copy(bundled, tmp_path, "M"), FAST))
    runs.append(run_audit(tmp_path / "absent.json", FAST))
    for result in runs:
        assert (result.exit_code == 0) == ("VERIFIED" in result.log.status)


# ------------------------------------------------ content that stops a stage


def edited_copy(src, tmp_path, drop=(), **fields):
    doc = json.loads(pathlib.Path(src).read_text())
    doc.update(fields)
    for name in drop:
        del doc["constants"][name]
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize(
    "fields, drop, cfg, name, line",
    [
        # no declared eps_T3, and sigma^2 underflows, so the overlap bound divides by zero
        ({"sigma": "1e-300"}, ("eps_T3",), FAST, "eps_T3", "transfer error not computable"),
        # no declared M and modes past the truncation the Jacobian is built at
        ({}, ("M",), AuditConfig(truncation_N=100), "M", "inverse bound M not computable"),
    ],
    ids=["sigma", "modes"],
)
def test_stage_that_cannot_compute_rejects_with_a_log(
    bundled, tmp_path, fields, drop, cfg, name, line
):
    result = run_audit(edited_copy(bundled, tmp_path, drop, **fields), cfg)
    assert result.exit_code == 1
    assert not result.verified
    assert result.log.lines[-1] == ("STATUS", f"certificate REJECTED: {name}")
    assert ("VERDICT", "closure product not computable") in result.log.lines
    fails = [text for tag, text in result.log if text.startswith(line)]
    assert len(fails) == 1 and fails[0].endswith(": FAIL")
    assert ("RSLT", fails[0]) in result.log.lines


def test_tau_past_tau_prime_through_the_cli(bundled, tmp_path, capsys):
    path = edited_copy(bundled, tmp_path, tau="0.09")
    code = main(["audit", "--profile", str(path)])
    out, err = capsys.readouterr()
    status = (
        "certificate REJECTED, unreadable: tau: the audit runs in the profile space X, "
        "whose rate is 0.08; got 0.09"
    )
    assert code == 2
    assert out.splitlines()[-1] == f"[STATUS] {status}"
    assert err == f"spikecert: {status}\n"


def test_certificate_tau_cannot_shrink_the_recovery_constant(bundled, tmp_path, capsys):
    # at tau = 0.02 the recovery buffer 0.081 - tau made the recomputed
    # C_rec_map 8.82e2 in place of 2.565e7, so a declared C_rec_map of 900
    # and K of 0.39 passed every gate and the audit ended VERIFIED; the audit
    # runs in X alone, and the certificate is refused
    doc = json.loads(pathlib.Path(bundled).read_text())
    doc["tau"] = "0.02"
    doc["constants"]["C_rec_map"] = {"mid": "900", "rad": "0"}
    doc["constants"]["K"] = {"mid": "0.39", "rad": "0"}
    path = tmp_path / "tau_002.json"
    path.write_text(json.dumps(doc))
    result = run_audit(path, FAST)
    assert result.exit_code == 2
    assert not result.verified
    assert result.log.status.startswith("certificate REJECTED, unreadable: tau: ")
    code = main(["audit", "--profile", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "VERIFIED" not in out
    assert err.startswith("spikecert: certificate REJECTED, unreadable: tau: ")


# ------------------------------------------- branches the stages rarely take

# the benchmark's constant-free five-mode certificate for seed 1, operation 0
FIVE_MODE = {
    "format_version": "1.0",
    "nu": {"mid": "0.005", "rad": "0"},
    "sigma": "0.05",
    "tau": "0.08",
    "modes": [
        {"j": 1, "mid": "4.392462723878003", "rad": "0"},
        {"j": 14, "mid": "1.6638903978051567", "rad": "0"},
        {"j": 43, "mid": "-0.16519131907730616", "rad": "0"},
        {"j": 85, "mid": "-0.005041822683302163", "rad": "0"},
        {"j": 128, "mid": "0.00019050304549742103", "rad": "0"},
    ],
}


@pytest.fixture()
def five_mode(tmp_path):
    path = tmp_path / "five_mode.json"
    path.write_text(json.dumps(FIVE_MODE))
    return path


def test_tail_that_is_not_coercive_rejects_gamma(five_mode):
    cfg = AuditConfig(truncation_N=128, j_min=129, timestamp="2026-08-18T00:00:00Z")
    result = run_audit(five_mode, cfg)
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: closure product reaches one, gamma"
    assert (
        "RSLT",
        "tail coercivity not certified: coercivity lower bound -2415.6690528403483 "
        "at j=129 is not positive: FAIL",
    ) in result.log.lines


def test_residual_neither_declared_nor_computable(five_mode):
    # N = 64 lies below the certificate's mode 128: no residual, no Jacobian
    result = run_audit(five_mode, AuditConfig(truncation_N=64, timestamp="2026-08-18T00:00:00Z"))
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: M, delta"
    assert ("RSLT", "residual delta: neither declared nor computable: FAIL") in result.log.lines


def test_overflowing_coupling_rejects_k_without_numpy_warnings(five_mode):
    # every product of the 1e300 coupling overflows; numpy's warnings are
    # turned into errors, and the audit still ends in its own verdict
    cfg = AuditConfig(truncation_N=128, coupling=1e300, timestamp="2026-08-18T00:00:00Z")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_audit(five_mode, cfg)
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: K, M"
    assert (
        "RSLT",
        "lipschitz constant K not computable: cannot round inf to two significant digits: FAIL",
    ) in result.log.lines
    assert (
        "RSLT",
        "inverse bound M not certified: Jacobian midpoint has non-finite entries; "
        "no candidate inverse: FAIL",
    ) in result.log.lines


def test_declared_k_without_c_conv_passes_ungated(bundled, tmp_path):
    result = run_audit(edited_copy(bundled, tmp_path, drop=("C_conv",)), FAST)
    assert (
        "RSLT",
        "lipschitz constant K (declared) = [1.100000e+04, 1.100000e+04], "
        "no C_conv declared, admitted without the consistency gate",
    ) in result.log.lines
