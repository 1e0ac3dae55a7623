"""Command line driver: subcommands, config merging, exit codes."""

import json
import math
import pathlib
import shlex
from types import SimpleNamespace

import numpy as np
import pytest

import spikecert.audit
import spikecert.cli as cli
import spikecert.operator
from spikecert.audit import AuditConfig, run_audit
from spikecert.cli import main
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
        (["residual", "--profile", "p.json"], "--nu", "inf"),
        (["inverse", "--e-norm", "0.5"], "--r-norm", "1e999"),
        (["inverse", "--r-norm", "2"], "--e-norm", "0.5.1"),
        (["tail", "--profile", "p.json"], "--c-prof", "Infinity"),
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
    "argv, message",
    [
        (["audit", "--modes", "0"], "argument --modes: must be at least 1, got 0"),
        # the ceiling + 1, refused before any handler allocates anything
        (["audit", "--modes", "2049"], "argument --modes: must be at most 2048, got 2049"),
        (["audit", "--j-min", "0"], "argument --j-min: must be at least 1, got 0"),
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
    argv = ["--modes", str(cli._MAX_MODES), "--j-min", "1", "--lattice-radius", "1"]
    assert main(["audit", "--profile", "p.json", *argv]) == 0
    assert (seen["modes"], seen["j_min"], seen["lattice_radius"]) == (cli._MAX_MODES, 1, 1)
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
        ("grid = 8", "grid = '8': must be at least 9, got 8"),
        ("grid = 1025", "grid = '1025': must be at most 1024, got 1025"),
    ],
    ids=[
        "modes-above-ceiling",
        "modes-zero",
        "lattice-radius-negative",
        "lattice-radius-zero",
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


# ------------------------------------------------------- residual / inverse


def test_residual_on_generated_profile(capsys, tmp_path):
    path = tmp_path / "r.json"
    run(capsys, "gen-profile", "--modes", "10", "--seed", "7", "--out", str(path))
    code, out, _ = run(
        capsys, "residual", "--profile", str(path), "--modes", "64"
    )
    assert code == 0
    assert "delta_fin" in out and "delta_tail" in out
    code2, out2, _ = run(
        capsys, "residual", "--profile", str(path), "--modes", "64"
    )
    assert out2 == out


def test_residual_nu_override_changes_delta(capsys, tmp_path):
    path = tmp_path / "r.json"
    run(capsys, "gen-profile", "--modes", "10", "--seed", "7", "--out", str(path))
    _, base, _ = run(capsys, "residual", "--profile", str(path), "--modes", "64")
    # the dissipation term must swamp the quadratic part to show up at
    # seven printed digits, hence the absurd viscosity
    _, moved, _ = run(
        capsys, "residual", "--profile", str(path), "--modes", "64", "--nu", "1e12"
    )
    assert moved != base


def test_inverse_from_declared_norms(capsys):
    code, out, _ = run(
        capsys, "inverse", "--r-norm", "482.540", "--e-norm", "1.2435e-4"
    )
    assert code == 0
    assert "M      = [4.826000e+02" in out
    assert "verified = True" in out


def test_inverse_norm_flags_must_pair(capsys):
    code, _, err = run(capsys, "inverse", "--r-norm", "482.540")
    assert code == 2
    assert "together" in err


def test_inverse_contractive_norm_required(capsys):
    code, out, _ = run(capsys, "inverse", "--r-norm", "482.540", "--e-norm", "1.5")
    assert code == 1
    assert "E_norm = [1.500000e+00, 1.500000e+00]" in out
    assert "M      = (not certified)" in out
    assert "verified = False" in out


def test_inverse_without_a_candidate_inverse(capsys, monkeypatch):
    # a singular midpoint leaves no R, so no norm was ever formed
    monkeypatch.setattr(cli, "load_certificate", lambda path: SimpleNamespace(coefficients=None))
    monkeypatch.setattr(cli, "_op_config", lambda args, cert: None)
    monkeypatch.setattr(
        spikecert.operator,
        "assemble_jacobian",
        lambda c, cfg: IntervalMatrix.from_point(np.ones((2, 2))),
    )
    code, out, _ = run(capsys, "inverse", "--profile", "cert.json")
    assert code == 1
    assert out == (
        "R_norm = (not computed)\n"
        "E_norm = (not computed)\n"
        "M      = (not certified)\n"
        "verified = False\n"
        "diagnostic = midpoint matrix is singular; no candidate inverse\n"
    )


# ---------------------------------------------------------------- tail


def test_tail_bundled(capsys, bundled_certificate_path):
    code, out, _ = run(capsys, "tail", "--profile", str(bundled_certificate_path))
    assert code == 0
    assert "gamma = [7.200000e+03" in out
    assert "verified = True" in out


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
    assert "j_min = 1300" in out


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
    assert "j_min = 1250" in out


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
    # the recovery scan runs up to the source-space rate, which no option sets
    + [["audit", "--profile", "cert.json", "--tau-prime", "0.081"]]
    + [["constants", "--tau-prime", "0.081"]]
    # every rate is the fixed profile space's, so neither sets one
    + [["constants", "--tau", "0.08"], ["gen-profile", "--out", "cert.json", "--tau", "0.08"]],
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
    monkeypatch.setitem(cli._HANDLERS, "residual", lambda args: seen.update(vars(args)) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modes = 64\ncoupling = 0.5\nnu = 0.0050000000000000000001\n")
    assert main(["--config", str(cfg), "residual", "--profile", "p.json"]) == 0
    assert seen["modes"] == 64 and isinstance(seen["modes"], int)
    assert seen["coupling"] == 0.5
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
