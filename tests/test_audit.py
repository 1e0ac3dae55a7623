"""Audit driver: grammar invariants, trust gates, tamper matrix, exit codes."""

import copy
import dataclasses
import json
import pathlib
import re
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spikecert import audit, basis, matrix, operator
from spikecert.audit import (
    AUDIT_MAGIC,
    AUDIT_TAGS,
    AuditConfig,
    AuditLog,
    run_audit,
    run_stage,
)
from spikecert.basis import reference_model
from spikecert.cli import main
from spikecert.closure import image_overlap_bound
from spikecert.config import MAX_J_MIN, MAX_MODES
from spikecert.errors import CertificationError
from spikecert.operator import OperatorConfig
from spikecert.spaces import load_certificate
from spikecert.stability import certify_tail_coercivity

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
        # [2.5647e7, 2.5657e7] straddles the computed 2.565156e7; its upper
        # end bounds the supremum, its lower end does not (and its product
        # with C_conv stays below the declared K)
        (
            "C_rec_map", "2.5652e7", "5e3", "recovery mapping constant", "pass",
            "rec.value.hi <= rec_map.hi <=", "rec.value.hi <= rec_map.lo <=",
        ),
        # [10900, 11100] straddles C_rec_map C_conv = 10997.53: the closure
        # reads K as an upper bound, so its upper end must bound the product
        (
            "K", "1.1e4", "100", "lipschitz constant K", "pass",
            "product.hi <= k.hi <=", "product.hi <= k.lo <=",
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


def constant_free_five_modes(bundled, tmp_path):
    """The bundled five-mode shape at modes 1, 14, 43, 85 and 128, with no
    declared constants."""
    doc = json.loads(pathlib.Path(bundled).read_text())
    del doc["constants"]
    doc["modes"] = [dict(m, j=j) for m, j in zip(doc["modes"], (1, 14, 43, 85, 128))]
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    return path


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
    path = constant_free_five_modes(bundled, tmp_path)
    result = run_audit(path, AuditConfig(truncation_N=128, timestamp="2026-08-18T00:00:00Z"))
    assert result.exit_code == 1
    modes = [1, 14, 43, 85, 128]
    assert calls == [(k, 5, 256) for k in modes] + [(k, 128, 128) for k in modes]


def test_constant_free_audit_splits_no_slab(bundled, tmp_path, monkeypatch):
    # the slabs arrive split, so matrix._mid_rad sees no array larger than
    # 5 x 128, the support times N (a slab is 5 x 256 for G and 128 x 128
    # for the Jacobian): each call's weights, split once, and the quotient
    # table, 1 x 256, where this audit is the first to form it
    inputs = []

    def counted(x):
        inputs.append(x.lo.shape)
        return matrix._mid_rad(x)

    for module in (basis, operator):
        monkeypatch.setattr(module, "_mid_rad", counted)
    path = constant_free_five_modes(bundled, tmp_path)
    result = run_audit(path, AuditConfig(truncation_N=128, timestamp="2026-08-18T00:00:00Z"))
    assert result.exit_code == 1
    assert all(rows * cols <= 5 * 128 for rows, cols in inputs), inputs
    assert [s for s in inputs if s[0] > 1] == [(5, 5), (5, 128)]


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


def _value_paths(node, path=()):
    """Every place in a JSON document that holds a value, as a key path."""
    keys = range(len(node)) if isinstance(node, list) else node if isinstance(node, dict) else ()
    for key in keys:
        yield path + (key,)
        yield from _value_paths(node[key], path + (key,))


def _field_names(path):
    """The words an exit-2 status may name the field at ``path`` by: any
    mode entry for a mode (a repeated index is named where it repeats)."""
    if path[0] == "constants" and len(path) > 1:
        return (f"constants.{path[1]}", f"constant {path[1]}")
    return (path[0],)


BUNDLED_DOC = json.loads(
    (pathlib.Path(audit.__file__).parent / "data" / "reference_certificate.json").read_text()
)
HOSTILE = st.one_of(
    st.sampled_from(
        [None, True, False, 0, -1, 2**64, -(2**64), 0.5, float("nan"), float("inf"),
         "", " ", "nan", "NaN", "-nan", "sNaN", "inf", "-Infinity", "+inf", "1e", "0x1p3",
         "1_0", "--1", "-0", "-1e-3", [], [1], {}]
    ),
    # huge and tiny exponents, past the decimal context's range too
    st.builds(
        "{}e{}".format, st.sampled_from(["1", "-1", "9.99", "+5", "0"]), st.integers(-(10**7), 10**7)
    ),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.dictionaries(
        st.sampled_from(["mid", "rad", "j"]),
        st.sampled_from(["1", "-1e-3", "1e999999", "1e-1000000", 1, None, {"mid": "1"}]),
        max_size=3,
    ),
)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_value_paths(BUNDLED_DOC))), HOSTILE),
        min_size=1,
        max_size=2,
    )
)
def test_hostile_field_values_never_raise(tmp_path_factory, mutations):
    # one or two fields of the bundled certificate replaced by hostile JSON
    # values: the audit returns, an exit-2 status names a replaced field,
    # and no run takes 2 s.  Deeper paths go first, so a later replacement
    # of a parent cannot strand one of its children
    doc = copy.deepcopy(BUNDLED_DOC)
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    path = tmp_path_factory.mktemp("hostile") / "certificate.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    result = run_audit(path, FAST)
    assert time.perf_counter() - t0 < 2.0
    status = result.log.status
    assert (result.exit_code == 0) == ("VERIFIED" in status)
    if result.exit_code == 2:
        reason = status.partition("unreadable: ")[2]
        names = [name for m in mutations for name in _field_names(m[0])]
        assert any(re.search(rf"(?<![\w.]){re.escape(n)}\b", reason) for n in names), (
            status,
            mutations,
        )


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


def test_options_past_their_ceilings_fail_their_stages(bundled):
    # a j_min whose successor has no exact float, and a lattice radius whose
    # enumeration would outlast the audit: AuditConfig refuses each when it
    # is built, and the stage that reads it refuses it in the same words
    cert = load_certificate(bundled)
    op_cfg = OperatorConfig(model=reference_model(1.0), nu=cert.nu, truncation_N=450)
    messages = [
        "j_min: must be at most 9007199254740991, got 9007199254740992",
        "lattice_radius: must be at most 64, got 65",
    ]
    stages = [
        lambda: certify_tail_coercivity(cert, op_cfg, 0.125, j_min=2**53),
        lambda: image_overlap_bound(cert.sigma, 65),
    ]
    for message, stage, past in zip(messages, stages, ({"j_min": 2**53}, {"lattice_radius": 65})):
        with pytest.raises(ValueError) as built:
            dataclasses.replace(FAST, **past)
        with pytest.raises(CertificationError) as refused:
            stage()
        assert str(built.value) == str(refused.value) == message


def test_warm_audits_divide_no_matrix(bundled, tmp_path, monkeypatch):
    # the quotient table and C_conv's whole-space factor, the only matrix
    # quotients, are formed once per process, so audits after the first
    # divide no matrix and keep their logs
    runs = [
        (bundled, FAST),
        (constant_free_five_modes(bundled, tmp_path), dataclasses.replace(FAST, truncation_N=128)),
    ]
    first = [run_audit(path, cfg) for path, cfg in runs]
    assert [r.exit_code for r in first] == [0, 1]

    def no_division(a, b, up):
        raise AssertionError("a warm audit divided a matrix")

    monkeypatch.setattr(matrix, "_np_div", no_division)
    again = [run_audit(path, cfg).log.render() for path, cfg in runs]
    assert again == [r.log.render() for r in first]


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


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")], ids=repr)
@pytest.mark.parametrize("field", ["coupling", "coupling_rec"])
def test_unusable_coupling_is_refused_at_construction(field, value):
    # run_audit used to meet such a coupling and end its log with exit 2;
    # AuditConfig refuses it when it is built, naming the field
    reason = f"must be a finite float, got {value!r}"
    if value == -1.0:
        reason = "must be nonnegative, got -1"
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(FAST, **{field: value})
    assert str(exc.value) == f"{field}: {reason}"


@pytest.mark.parametrize(
    "field, value, reason",
    [
        # True is the int 1 to Python, and gave a VERIFIED audit
        ("lattice_radius", True, "must be an int, got True"),
        ("truncation_N", 64.0, "must be an int, got 64.0"),
        # a string coupling raised TypeError out of run_audit
        ("coupling", "1", "must be a finite float, got '1'"),
        ("coupling_rec", 2, "must be a finite float, got 2"),
        ("timestamp", 20261021, "must be one line of text, got 20261021"),
    ],
)
def test_a_field_of_another_type_is_refused_at_construction(field, value, reason):
    with pytest.raises(ValueError) as exc:
        AuditConfig(**{field: value})
    assert str(exc.value) == f"{field}: {reason}"


def test_a_truncation_far_past_its_ceiling_is_refused_before_anything_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            AuditConfig(truncation_N=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "truncation_N: must be at most 2048, got 1000000"
    # the constructor alone ran: no model, no row of 10^6 entries
    assert peak < 64 * 1024


def test_a_config_cannot_be_changed_once_built():
    with pytest.raises(dataclasses.FrozenInstanceError):
        FAST.truncation_N = 10**6
    assert FAST.truncation_N == 450


def test_a_timestamp_that_forges_a_status_line_is_refused(bundled, tmp_path):
    # on a certificate with M = 1e20 the audit exited 1, yet the third line
    # of its log read "[STATUS] certificate VERIFIED, ..."
    stamp = "2026\n[STATUS] certificate VERIFIED, closure margin >= 9.999106e-01"
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(FAST, timestamp=stamp)
    assert str(exc.value) == f"timestamp: must be one line of text, got {stamp!r}"
    result = run_audit(declared_copy(bundled, tmp_path, "M", "1e20", "0"), FAST)
    statuses = [line for line in result.log.render().splitlines() if line.startswith("[STATUS]")]
    assert result.exit_code == 1
    assert statuses == ["[STATUS] certificate REJECTED: closure product reaches one"]
    with pytest.raises(ValueError, match="line break"):
        AuditLog([("EXEC", f"run started {stamp}"), ("STATUS", "certificate REJECTED")])


@pytest.mark.parametrize("where", ["constants key", "tau", "path"])
def test_text_with_a_line_break_keeps_one_log_line_per_entry(bundled, tmp_path, where):
    # each rendered 6 lines for 5 entries; the constants key and the path
    # forged a second "[STATUS] certificate VERIFIED" line
    doc = json.loads(pathlib.Path(bundled).read_text())
    path = tmp_path / "certificate.json"
    if where == "constants key":
        doc["constants"]["X\n[STATUS] certificate VERIFIED"] = {"mid": "1", "rad": "0"}
    elif where == "tau":
        doc["tau"] = "0.02\n"
    else:
        path = tmp_path / "x\n[STATUS] certificate VERIFIED.json"
    path.write_text("{" if where == "path" else json.dumps(doc))
    result = run_audit(path, FAST)
    rendered = result.log.render().splitlines()
    assert result.exit_code == 2
    assert len(rendered) == len(result.log.lines) == 5
    assert [line for line in rendered if line.startswith("[STATUS]")] == [rendered[-1]]


def test_declared_k_below_its_product_fails_the_gate(bundled, tmp_path):
    # 1.0448e4 is 5 % below the declared C_rec_map * C_conv = 1.099753e4;
    # the closure reads K as an upper bound, and this one exited 0 VERIFIED
    result = run_audit(declared_copy(bundled, tmp_path, "K", "1.0448e4", "0"), FAST)
    assert result.exit_code == 1
    assert result.log.status == "certificate REJECTED: K"


BUNDLED_CERT = load_certificate(
    pathlib.Path(audit.__file__).parent / "data" / "reference_certificate.json"
)
COUPLINGS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@seed(20261021)
@settings(max_examples=80, deadline=None, database=None)
@given(
    stage=st.sampled_from(["residual", "inverse", "tail", "constants"]),
    coupling=COUPLINGS,
    coupling_rec=st.none() | COUPLINGS,
    modes=st.integers(1, MAX_MODES),
    j_min=st.integers(1, MAX_J_MIN),
)
def test_run_stage_never_raises_for_a_config_that_constructs(
    stage, coupling, coupling_rec, modes, j_min
):
    if stage == "inverse":
        modes = min(modes, 64)  # keeps the dense inverse small
    cfg = AuditConfig(coupling, coupling_rec, truncation_N=modes, j_min=j_min)
    log, code = run_stage(stage, BUNDLED_CERT, cfg)
    assert code == (0 if log.status == f"{stage} stage passed" else 1), log.status
    assert log.status.startswith(f"{stage} stage ")


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
