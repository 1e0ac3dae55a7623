"""Command line driver: subcommands, config merging, exit codes."""

import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

import spikecert
import spikecert.audit
import spikecert.cli as cli
from spikecert.audit import AuditConfig, run_audit
from spikecert.cli import main
from spikecert.config import MAX_J_MIN, MAX_LATTICE_RADIUS, MAX_MODES
from spikecert.matrix import IntervalMatrix
from spikecert.spaces import PROFILE_SPACE, load_certificate

AUDIT_FAST = ["--modes", "64"]
REPO = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- audit


def test_audit_bundled_verifies(capsys, bundled_certificate_path):
    code, out, _ = run(capsys, "audit", "--profile", str(bundled_certificate_path))
    assert code == 0
    assert out.startswith("[EXEC] NS_GHOST_SPIKE_AUDIT_v1.0\n")
    assert "certificate VERIFIED" in out


def test_audit_writes_out_file(capsys, tmp_path, bundled_certificate_path):
    out_path = tmp_path / "log.txt"
    code, out, _ = run(
        capsys,
        "audit",
        "--profile",
        str(bundled_certificate_path),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out


def test_audit_missing_profile_flag(capsys):
    code, _, err = run(capsys, "audit")
    assert code == 2
    assert "--profile is required" in err


@pytest.mark.parametrize("flag, value", [("--coupling", "nan"), ("--coupling-rec", "inf")])
def test_audit_refuses_a_non_finite_model_option(capsys, bundled_certificate_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--profile", str(bundled_certificate_path), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid finite float value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--profile", "cert.json", "--coupling", "1e999"],
        ["constants", "--coupling", "nan"],
        ["gen-profile", "--out", "cert.json", "--sigma", "inf"],
        ["gen-profile", "--out", "cert.json", "--amplitude", "nan"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_float_options_refuse_non_finite_values(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: invalid finite float value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["closure", "--M", "1", "--K", "1"], "--delta", "abc"),
        (["closure", "--delta", "1", "--K", "1"], "--M", "1e400"),
        (["closure", "--delta", "1", "--M", "1"], "--K", "nan"),
        # an empty eps used to drop the torus product without a word
        (["closure", "--delta", "1", "--M", "1", "--K", "1"], "--eps", ""),
        (["gen-profile", "--out", "cert.json"], "--nu", "sNaN"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_decimal_options_refuse_what_does_not_parse(capsys, monkeypatch, argv, flag, value):
    # refused by the parser, exit 2 naming the flag, before any handler runs
    monkeypatch.setattr(cli, "_HANDLERS", {})
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    message = f"argument {flag}: not a finite decimal within double range: {value!r}"
    assert message in capsys.readouterr().err


def test_config_refuses_a_decimal_that_does_not_parse(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = 1e400\n")
    argv = ["closure", "--delta", "1", "--M", "1", "--K", "1"]
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert out == ""
    assert "bad config file: eps = '1e400': not a finite decimal within double range" in err


def test_closure_decimal_options_reach_the_handler_as_exact_strings(monkeypatch):
    seen = {}
    monkeypatch.setitem(cli._HANDLERS, "closure", lambda args: seen.update(vars(args)) or 0)
    argv = ["--delta", "8.4217390000000000000001e-12", "--M", "482.6", "--K", "1.1e4"]
    assert main(["closure", *argv, "--eps", "1.42e-20"]) == 0
    assert (seen["delta"], seen["M"], seen["K"], seen["eps"]) == (
        "8.4217390000000000000001e-12",
        "482.6",
        "1.1e4",
        "1.42e-20",
    )


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["constants"], "--coupling", "-1"),
        (["audit", "--profile", None], "--coupling", "-1"),
        (["audit", "--profile", None], "--coupling-rec", "-2"),
        (["residual", "--profile", None], "--coupling-rec", "-2"),
        (["closure", "--M", "1", "--K", "1"], "--delta", "-1e-12"),
        (["closure", "--delta", "1", "--K", "1"], "--M", "-0.5"),
        (["closure", "--delta", "1", "--M", "1"], "--K", "-1"),
        (["closure", "--delta", "1", "--M", "1", "--K", "1"], "--eps", "-0.5"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_negative_couplings_and_closure_constants_exit_two_naming_the_option(
    capsys, bundled_certificate_path, argv, flag, value
):
    # a negative value was taken, and the stage or the closure products
    # refused it with exit 1; `audit` then printed no log and no STATUS line
    argv = [str(bundled_certificate_path) if a is None else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be nonnegative, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, argv",
    [
        ("coupling = -1", ["constants"]),
        ("coupling-rec = -2", ["audit", "--profile", None]),
        ("delta = -1e-12", ["closure", "--M", "1", "--K", "1"]),
        ("M = -0.5", ["closure", "--delta", "1", "--K", "1"]),
        ("K = -1", ["closure", "--delta", "1", "--M", "1"]),
        ("eps = -0.5", ["closure", "--delta", "1", "--M", "1", "--K", "1"]),
    ],
    ids=["coupling", "coupling_rec", "delta", "M", "K", "eps"],
)
def test_config_refuses_negative_couplings_and_closure_constants(
    capsys, tmp_path, bundled_certificate_path, line, argv
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    argv = [str(bundled_certificate_path) if a is None else a for a in argv]
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    key, value = (part.strip() for part in line.split("="))
    assert code == 2
    assert out == ""
    assert f"bad config file: {key.replace('-', '_')} = '{value}': must be nonnegative" in err


@pytest.mark.parametrize("value", ["1e999", "-1e999"])
def test_audit_refuses_sigma_beyond_double_range(capsys, tmp_path, bundled_certificate_path, value):
    doc = json.loads(bundled_certificate_path.read_text())
    doc["sigma"] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "audit", "--profile", str(path), *AUDIT_FAST)
    assert code == 2
    assert f"REJECTED, unreadable: sigma: decimal {value} beyond double range" in out


@pytest.mark.parametrize(
    "where, key, message",
    [
        ("nu", "mid", "nu: decimal 1e1000000 + 0 above double range"),
        (
            "modes[1]",
            "rad",
            "modes[1]: decimal +3.5821094821093145628109321453214e-3 - 1e1000000 "
            "below double range",
        ),
        ("constants.M", "mid", "constants.M: decimal 1e1000000 + 0 above double range"),
    ],
    ids=["nu.mid", "modes[1].rad", "constants.M.mid"],
)
def test_audit_refuses_a_decimal_exponent_past_the_decimal_range(
    capsys, tmp_path, bundled_certificate_path, where, key, message
):
    # mid +- rad beyond the decimal context's Emax used to end in a
    # decimal.Overflow traceback
    doc = json.loads(bundled_certificate_path.read_text())
    fields = {"nu": doc["nu"], "modes[1]": doc["modes"][1], "constants.M": doc["constants"]["M"]}
    fields[where][key] = "1e1000000"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "audit", "--profile", str(path), *AUDIT_FAST)
    assert code == 2
    assert out.endswith(f"[STATUS] certificate REJECTED, unreadable: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--modes", "0"], "argument --modes: must be at least 1, got 0"),
        # the ceiling + 1, refused before any handler allocates anything
        (["audit", "--modes", "2049"], "argument --modes: must be at most 2048, got 2049"),
        (["audit", "--j-min", "0"], "argument --j-min: must be at least 1, got 0"),
        # j_min + 1 must be an exact float, 2^53 at most
        (
            ["tail", "--j-min", "9007199254740992"],
            "argument --j-min: must be at most 9007199254740991, got 9007199254740992",
        ),
        (["audit", "--lattice-radius", "65"], "argument --lattice-radius: must be at most 64, got 65"),
        (
            ["audit", "--lattice-radius", "-1"],
            "argument --lattice-radius: must be at least 1, got -1",
        ),
        # radius 0 would enumerate no image at all: a transfer error of exactly 0
        (
            ["audit", "--lattice-radius", "0"],
            "argument --lattice-radius: must be at least 1, got 0",
        ),
        (["audit", "--modes", "1.5"], "argument --modes: invalid int value: '1.5'"),
        (["residual", "--modes", "-3"], "argument --modes: must be at least 1, got -3"),
        (["gen-profile", "--modes", "0"], "argument --modes: must be at least 1, got 0"),
        (["oracle", "--grid", "1"], "argument --grid: must be at least 9, got 1"),
        (["oracle", "divergence", "--grid", "8"], "argument --grid: must be at least 9, got 8"),
        (["oracle", "--grid", "1025"], "argument --grid: must be at most 1024, got 1025"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_integer_options_refuse_values_out_of_range(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_HANDLERS", {})  # no handler may run
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "out.txt"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_integer_options_accept_their_bounds(monkeypatch):
    seen = {}
    monkeypatch.setitem(cli._HANDLERS, "audit", lambda args: seen.update(vars(args)) or 0)
    argv = ["--modes", str(MAX_MODES), "--j-min", "1", "--lattice-radius", "1"]
    assert main(["audit", "--profile", "p.json", *argv]) == 0
    assert (seen["modes"], seen["j_min"], seen["lattice_radius"]) == (MAX_MODES, 1, 1)
    argv = ["--j-min", str(MAX_J_MIN), "--lattice-radius", str(MAX_LATTICE_RADIUS)]
    assert main(["audit", "--profile", "p.json", *argv]) == 0
    assert (seen["j_min"], seen["lattice_radius"]) == (2**53 - 1, 64)
    for grid in (9, 1024):
        monkeypatch.setitem(cli._HANDLERS, "oracle", lambda args: seen.update(vars(args)) or 0)
        assert main(["oracle", "--grid", str(grid)]) == 0
        assert seen["grid"] == grid


@pytest.mark.parametrize(
    "line, message",
    [
        ("modes = 100000000", "modes = '100000000': must be at most 2048, got 100000000"),
        ("modes = 0", "modes = '0': must be at least 1, got 0"),
        ("lattice-radius = -1", "lattice_radius = '-1': must be at least 1, got -1"),
        ("lattice-radius = 0", "lattice_radius = '0': must be at least 1, got 0"),
        ("lattice-radius = 65", "lattice_radius = '65': must be at most 64, got 65"),
        ("grid = 8", "grid = '8': must be at least 9, got 8"),
        ("grid = 1025", "grid = '1025': must be at most 1024, got 1025"),
    ],
    ids=[
        "modes-above-ceiling",
        "modes-zero",
        "lattice-radius-negative",
        "lattice-radius-zero",
        "lattice-radius-above-ceiling",
        "grid-below-floor",
        "grid-above-ceiling",
    ],
)
def test_config_refuses_integers_out_of_range(capsys, tmp_path, monkeypatch, line, message):
    monkeypatch.setattr(cli, "_HANDLERS", {})  # no handler may run
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "--config", str(cfg), "audit", "--profile", "cert.json")
    assert code == 2
    assert out == ""
    assert f"bad config file: {message}" in err


@pytest.mark.parametrize(
    "field, flag, accepted, refused, reason",
    [
        ("coupling", "--coupling", "0", "-1", "must be nonnegative, got -1"),
        ("coupling_rec", "--coupling-rec", "0", "-2", "must be nonnegative, got -2"),
        ("truncation_N", "--modes", "1", "0", "must be at least 1, got 0"),
        ("truncation_N", "--modes", "2048", "2049", "must be at most 2048, got 2049"),
        ("j_min", "--j-min", "1", "0", "must be at least 1, got 0"),
        (
            "j_min", "--j-min", str(MAX_J_MIN), str(MAX_J_MIN + 1),
            f"must be at most {MAX_J_MIN}, got {MAX_J_MIN + 1}",
        ),
        ("lattice_radius", "--lattice-radius", "1", "0", "must be at least 1, got 0"),
        ("lattice_radius", "--lattice-radius", "64", "65", "must be at most 64, got 65"),
    ],
    ids=[
        "coupling-floor",
        "coupling_rec-floor",
        "modes-floor",
        "modes-ceiling",
        "j_min-floor",
        "j_min-ceiling",
        "lattice_radius-floor",
        "lattice_radius-ceiling",
    ],
)
def test_each_bound_reads_alike_as_flag_config_key_and_constructor(
    capsys, tmp_path, monkeypatch, field, flag, accepted, refused, reason
):
    # one check in spikecert.config serves all three, with one wording
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "audit", lambda args: seen.append(cli._audit_config(args)))
    convert = float if field.startswith("coupling") else int
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {accepted}\n")
    main(["audit", "--profile", "p.json", f"{flag}={accepted}"])
    main(["--config", str(cfg), "audit", "--profile", "p.json"])
    value = convert(accepted)
    assert seen == [AuditConfig(**{field: value})] * 2

    with pytest.raises(SystemExit) as exc:
        main(["audit", "--profile", "p.json", f"{flag}={refused}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument {flag}: {reason}\n")
    cfg.write_text(f"{key} = {refused}\n")
    code, out, err = run(capsys, "--config", str(cfg), "audit", "--profile", "p.json")
    assert (code, out) == (2, "")
    assert err == f"spikecert: bad config file: {key} = '{refused}': {reason}\n"
    with pytest.raises(ValueError) as exc:
        AuditConfig(**{field: convert(refused)})
    assert str(exc.value) == f"{field}: {reason}"


@pytest.mark.parametrize("command", ["audit", "tail"])
def test_j_min_of_401_digits_exits_two_naming_it(capsys, bundled_certificate_path, command):
    # its square overflows a float: refused before any stage runs, not a
    # traceback without a status line
    with pytest.raises(SystemExit) as exc:
        main([command, "--profile", str(bundled_certificate_path), "--j-min", "1" * 401])
    assert exc.value.code == 2
    assert f"argument --j-min: must be at most {MAX_J_MIN}, got 111" in capsys.readouterr().err


def test_lattice_radius_far_past_its_ceiling_exits_two_at_once(tmp_path, bundled_certificate_path):
    # without declared constants the audit bounds the image overlap, whose
    # (2R + 1)^3 lattice points at R = 100000 would take weeks to enumerate
    doc = json.loads(bundled_certificate_path.read_text())
    del doc["constants"]
    path = tmp_path / "constant_free.json"
    path.write_text(json.dumps(doc))
    child = subprocess.run(
        [sys.executable, "-m", "spikecert.cli", "audit", "--profile", str(path),
         "--lattice-radius", "100000"],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(spikecert.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert child.returncode == 2
    assert child.stdout == ""
    assert "argument --lattice-radius: must be at most 64, got 100000" in child.stderr


def test_audit_nonexistent_file(capsys, tmp_path):
    code, out, _ = run(capsys, "audit", "--profile", str(tmp_path / "no.json"))
    assert code == 2
    assert "REJECTED, unreadable" in out


# ------------------------------------------------------------------- closure


def test_closure_bundled_constants(capsys):
    code, out, _ = run(
        capsys, "closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4"
    )
    assert code == 0
    assert "local verdict = True" in out


def test_closure_torus_variant(capsys):
    code, out, _ = run(
        capsys,
        "closure",
        "--delta",
        "8.421739e-12",
        "--M",
        "482.6",
        "--K",
        "1.1e4",
        "--eps",
        "1.42e-20",
    )
    assert code == 0
    assert "torus verdict = True" in out
    assert "torus product" in out


def test_closure_failure_exits_one(capsys):
    # 2 * 8.42e-12 * 482.6 * 1e12 is about 8.1, no contraction
    code, out, _ = run(
        capsys, "closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1e12"
    )
    assert code == 1
    assert "local verdict = False" in out


def test_closure_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closure", "--delta", "1e-12"])
    assert exc.value.code == 2


# --------------------------------------------------------------- gen-profile


def test_gen_profile_deterministic(capsys, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    for path in (a, b):
        code, _, _ = run(
            capsys, "gen-profile", "--modes", "12", "--seed", "7", "--out", str(path)
        )
        assert code == 0
    run(capsys, "gen-profile", "--modes", "12", "--seed", "8", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_profile_respects_envelope(capsys, tmp_path):
    path = tmp_path / "p.json"
    run(capsys, "gen-profile", "--modes", "12", "--seed", "3", "--out", str(path))
    cert = load_certificate(path)
    assert len(cert.coefficients) == 12
    for j, c in cert.coefficients.items():
        assert abs(c.mid) <= math.exp(-PROFILE_SPACE.tau * j)
        assert abs(c.mid) > 0.0


def test_gen_profile_requires_out(capsys):
    code, _, err = run(capsys, "gen-profile", "--modes", "4")
    assert code == 2
    assert "--out" in err


def test_generated_profile_is_honestly_rejected(capsys, tmp_path):
    # a random profile is not a fixed point; its residual is enormous
    # and the audit must say so rather than wave it through
    path = tmp_path / "rand.json"
    run(capsys, "gen-profile", "--modes", "12", "--seed", "7", "--out", str(path))
    code, out, _ = run(capsys, "audit", "--profile", str(path), *AUDIT_FAST)
    assert code == 1
    assert "certificate REJECTED" in out
    assert ">= 1.000000e+00" in out


# ------------------------------------------- residual / inverse / tail / constants


def test_residual_on_generated_profile(capsys, tmp_path):
    path = tmp_path / "r.json"
    run(capsys, "gen-profile", "--modes", "10", "--seed", "7", "--out", str(path))
    code, out, _ = run(
        capsys, "residual", "--profile", str(path), "--modes", "64"
    )
    assert code == 0
    assert out.startswith("[TASK] residual bound\n[RSLT] residual delta (computed) = [")
    assert out.endswith("\n[STATUS] residual stage passed\n")
    code2, out2, _ = run(
        capsys, "residual", "--profile", str(path), "--modes", "64"
    )
    assert out2 == out


@pytest.mark.parametrize(
    "stage, status",
    [
        ("residual", "residual stage passed"),
        # the declared M = 482.6 drives the bundled audit; the computed one
        # does not certify at N = 450
        ("inverse", "inverse stage REJECTED: M"),
        ("tail", "tail stage passed"),
        ("constants", "constants stage passed"),
    ],
)
def test_stage_sets_declared_constants_aside(capsys, bundled_certificate_path, stage, status):
    # the bundled certificate declares every constant; a stage computes its
    # own, prints none of them and verifies nothing
    argv = [] if stage == "constants" else ["--profile", str(bundled_certificate_path)]
    code, out, _ = run(capsys, stage, *argv)
    assert "(declared)" not in out
    assert "VERIFIED" not in out and "verified = True" not in out
    assert out.splitlines()[-1] == f"[STATUS] {status}"
    assert code == (0 if status.endswith("passed") else 1)


def wide_jacobian(c, cfg):
    # every point matrix within 2 of the identity: no E below one exists
    return IntervalMatrix(np.eye(2) - 2.0, np.eye(2) + 2.0)


def test_inverse_contractive_norm_required(capsys, monkeypatch, bundled_certificate_path):
    monkeypatch.setattr(spikecert.audit, "assemble_jacobian", wide_jacobian)
    code, out, _ = run(capsys, "inverse", "--profile", str(bundled_certificate_path))
    assert code == 1
    assert out.startswith("[TASK] inverse bound\n[RSLT] inverse bound M not certified: ")
    assert "residual norm upper bound" in out and "is not below one" in out
    assert out.endswith(": FAIL\n[STATUS] inverse stage REJECTED: M\n")


def test_inverse_without_a_candidate_inverse(capsys, monkeypatch, bundled_certificate_path):
    # a singular midpoint leaves no R, so no norm was ever formed
    monkeypatch.setattr(
        spikecert.audit,
        "assemble_jacobian",
        lambda c, cfg: IntervalMatrix.from_point(np.ones((2, 2))),
    )
    code, out, _ = run(capsys, "inverse", "--profile", str(bundled_certificate_path))
    assert code == 1
    assert out == (
        "[TASK] inverse bound\n"
        "[RSLT] inverse bound M not certified: "
        "midpoint matrix is singular; no candidate inverse: FAIL\n"
        "[STATUS] inverse stage REJECTED: M\n"
    )


def test_inverse_past_j_min_still_computes_m(capsys, tmp_path):
    # the audit skips M when its tail stage must fail (j_min = 1200 is not
    # above N = 1201); the inverse stage alone has no tail stage to wait for
    path = tmp_path / "small.json"
    run(capsys, "gen-profile", "--modes", "3", "--seed", "1", "--out", str(path))
    argv = ["--profile", str(path), "--modes", "1201", "--coupling", "0"]
    code, out, _ = run(capsys, "inverse", *argv)
    assert code == 0
    assert "[RSLT] inverse bound M (computed) = [" in out
    assert "skipped" not in out


def test_stage_of_an_unreadable_certificate_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    for stage in ("residual", "inverse", "tail"):
        code, out, err = run(capsys, stage, "--profile", str(path))
        assert (code, out) == (2, ""), stage
        assert "unreadable input" in err and "invalid JSON" in err, stage


# ---------------------------------------------------------------- tail


def test_tail_bundled(capsys, bundled_certificate_path):
    code, out, _ = run(capsys, "tail", "--profile", str(bundled_certificate_path))
    assert code == 0
    assert "[CALC] coercivity gamma (computed, j_min=1200) = [7.200000e+03" in out
    assert out.endswith("\n[STATUS] tail stage passed\n")


# ---------------------------------------------------------------- oracle


def test_oracle_conjugation_suite(capsys):
    code, out, _ = run(capsys, "oracle", "conjugation", "--grid", "128")
    assert code == 0
    rows = [l for l in out.splitlines() if l.strip()]
    assert len(rows) == 3
    assert all(row.endswith("pass") for row in rows)


def test_oracle_bad_suite_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "banana"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- config


def test_config_file_sets_defaults(capsys, tmp_path, bundled_certificate_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tail settings\nj-min = 1300\n")
    code, out, _ = run(
        capsys,
        "--config",
        str(cfg),
        "tail",
        "--profile",
        str(bundled_certificate_path),
    )
    assert code == 0
    assert "gamma (computed, j_min=1300)" in out


def test_explicit_flag_beats_config(capsys, tmp_path, bundled_certificate_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j-min = 1300\n")
    code, out, _ = run(
        capsys,
        "--config",
        str(cfg),
        "tail",
        "--profile",
        str(bundled_certificate_path),
        "--j-min",
        "1250",
    )
    assert code == 0
    assert "gamma (computed, j_min=1250)" in out


def test_malformed_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("j-min 1300\n")
    code, _, err = run(capsys, "--config", str(cfg), "closure", "--delta", "1e-12",
                       "--M", "1", "--K", "1")
    assert code == 2
    assert "bad config file" in err


def test_unknown_config_key_rejected(capsys, tmp_path):
    closure = ["closure", "--delta", "1e-12", "--M", "1", "--K", "1"]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("windw = 64\nprecision = 212\n")
    code, _, err = run(capsys, "--config", str(cfg), *closure)
    assert code == 2
    assert "bad config file: unknown key 'windw'" in err
    # a key of another subcommand is not unknown
    cfg.write_text("lattice-radius = 2\n")
    code, _, _ = run(capsys, "--config", str(cfg), *closure)
    assert code == 0


# ---------------------------------------------------------------- usage


def test_no_subcommand_prints_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage:" in err


@pytest.mark.parametrize(
    "argv",
    [
        [cmd, "--profile", "cert.json", *flag]
        for cmd in ("audit", "residual")
        for flag in (["--model", "x"], ["--seed", "1"], ["--precision", "128"])
    ]
    + [["constants", "--kernel-cap", "200"]]
    + [[cmd, "--profile", "cert.json", "--window", "64"] for cmd in ("audit", "tail")]
    # the tail bound reads no basis model
    + [["tail", "--profile", "cert.json", flag, "1"] for flag in ("--coupling", "--coupling-rec")]
    # the recovery constant reads the source-space rate, which no option sets
    + [["audit", "--profile", "cert.json", "--tau-prime", "0.081"]]
    + [["constants", "--tau-prime", "0.081"]]
    # every rate is the fixed profile space's, so neither sets one
    + [["constants", "--tau", "0.08"], ["gen-profile", "--out", "cert.json", "--tau", "0.08"]]
    # C_conv bounds the whole space, and K reads no recovery coupling
    + [["constants", "--modes", "128"], ["constants", "--coupling-rec", "1"]]
    # a stage takes no bound and no viscosity on trust: it reads the
    # certificate, as the audit does
    + [["inverse", "--profile", "cert.json", flag, "1"] for flag in ("--r-norm", "--e-norm")]
    + [["tail", "--profile", "cert.json", "--c-prof", "1e-300"]]
    + [["residual", "--profile", "cert.json", "--nu", "1e12"]],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_removed_window_config_key_is_unknown(capsys, tmp_path, bundled_certificate_path):
    # the tail bound is the gap at j_min alone; no subcommand reads a window
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 64\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "audit", "--profile", str(bundled_certificate_path)
    )
    assert code == 2
    assert out == ""
    assert "bad config file: unknown key 'window'" in err


def test_removed_tau_prime_config_key_is_unknown(capsys, tmp_path, bundled_certificate_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau-prime = 0.081\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "audit", "--profile", str(bundled_certificate_path)
    )
    assert code == 2
    assert out == ""
    assert "bad config file: unknown key 'tau_prime'" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_config_value_its_option_cannot_convert(capsys, tmp_path, bundled_certificate_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("j-min = x\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "tail", "--profile", str(bundled_certificate_path)
    )
    assert code == 2
    assert out == ""
    assert "bad config file: j_min = 'x' is not a valid int" in err


def test_config_refuses_a_non_finite_float(capsys, tmp_path, bundled_certificate_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = nan\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "audit", "--profile", str(bundled_certificate_path)
    )
    assert code == 2
    assert out == ""
    assert "bad config file: coupling = 'nan' is not a valid finite float" in err


def test_config_values_take_the_type_of_their_option(monkeypatch, tmp_path):
    # ints and floats are converted; decimal strings stay exact strings
    seen = {}
    for command in ("residual", "gen-profile"):
        monkeypatch.setitem(cli._HANDLERS, command, lambda args: seen.update(vars(args)) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modes = 64\ncoupling = 0.5\nnu = 0.0050000000000000000001\n")
    assert main(["--config", str(cfg), "residual", "--profile", "p.json"]) == 0
    assert seen["modes"] == 64 and isinstance(seen["modes"], int)
    assert seen["coupling"] == 0.5
    assert main(["--config", str(cfg), "gen-profile", "--out", "p.json"]) == 0
    assert seen["nu"] == "0.0050000000000000000001"


def test_bare_audit_flags_give_the_default_audit_config(monkeypatch):
    seen = []
    monkeypatch.setattr(
        spikecert.audit, "run_audit", lambda path, cfg: seen.append(cfg) or run_audit(path, cfg)
    )
    monkeypatch.setattr(cli, "_emit", lambda text, out: None)
    assert main(["audit", "--profile", "absent.json"]) == 2
    assert seen == [AuditConfig()]


# ------------------------------------------------------------------- README


def readme_command_lines():
    """Every `spikecert ...` line of the README's "Command line" section."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("spikecert ")]


def test_readme_command_lines_are_not_usage_errors(
    capsys, monkeypatch, tmp_path, bundled_certificate_path
):
    # each line runs as written and in order, with cert.json bound to the
    # bundled certificate and /tmp/p.json and run.cfg under tmp_path; the
    # audit line names the bundled certificate relative to the checkout
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j-min = 1200\n")
    bind = {
        "cert.json": str(bundled_certificate_path),
        "/tmp/p.json": str(tmp_path / "p.json"),
        "run.cfg": str(cfg),
    }
    monkeypatch.chdir(REPO)
    lines = readme_command_lines()
    shown = set()
    for line in lines:
        argv = [bind.get(word, word) for word in shlex.split(line)[1:]]
        shown.update(word for word in argv if word in cli._HANDLERS)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        assert code != 2, (line, capsys.readouterr().err)
    # the section shows every subcommand
    assert shown == set(cli._HANDLERS)
