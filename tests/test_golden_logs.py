"""Audit logs and CLI outputs compared byte for byte with golden copies.

A change that only restructures the arithmetic or the stages must leave
every one of these outputs unchanged.  Each case builds its input here,
runs the audit (timestamp fixed) or a CLI subcommand, and compares the text
with ``tests/golden/<case>.txt``.  To regenerate the golden copies, after
a change that is meant to alter an output:

    PYTHONPATH=src python tests/test_golden_logs.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

import spikecert
from spikecert.audit import AuditConfig, run_audit
from spikecert.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
BUNDLED = pathlib.Path(spikecert.__file__).parent / "data" / "reference_certificate.json"
STAMP = "2026-08-18T00:00:00Z"

DECLARED = ("delta", "M", "K", "C_prof", "gamma", "C_rec_ker", "C_rec_map", "C_conv", "eps_T3")
SCALES = {"up": 1e9, "down": 1e-9}


def _bundled() -> dict:
    return json.loads(BUNDLED.read_text())


def _audit(doc: dict, tmp: pathlib.Path, **cfg) -> str:
    path = tmp / "certificate.json"
    path.write_text(json.dumps(doc))
    return run_audit(path, AuditConfig(timestamp=STAMP, **cfg)).log.render()


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue() + f"exit code {code}\n"


def _scaled(name: str, factor: float):
    def case(tmp):
        doc = _bundled()
        entry = doc["constants"][name]
        entry["mid"] = repr(float(entry["mid"]) * factor)
        return _audit(doc, tmp)

    return case


def _constant_free(at):
    # the bundled five-mode shape at modes ``at``, truncated at the last one
    def case(tmp):
        doc = _bundled()
        del doc["constants"]
        doc["modes"] = [dict(m, j=j) for m, j in zip(doc["modes"], at)]
        return _audit(doc, tmp, truncation_N=at[-1])

    return case


def _generated(seed: int, modes: int, sigma: str):
    def case(tmp):
        path = tmp / "generated.json"
        argv = ["gen-profile", "--seed", str(seed), "--modes", str(modes)]
        _cli(argv + ["--sigma", sigma, "--out", str(path)])
        return _audit(json.loads(path.read_text()), tmp, truncation_N=modes)

    return case


def _empty_profile(tmp):
    doc = {
        "format_version": "1.0",
        "nu": {"mid": "0.005", "rad": "0"},
        "sigma": "0.05",
        "tau": "0.08",
        "modes": [],
    }
    return _audit(doc, tmp, coupling=0.0, truncation_N=16)


def _wide_sigma(lattice_radius: int):
    # no declared eps_T3 and a lattice tail that never reaches geometric
    # domination: the audit ends REJECTED: eps_T3
    def case(tmp):
        doc = _bundled()
        doc["sigma"] = "1e4"
        del doc["constants"]["eps_T3"]
        return _audit(doc, tmp, lattice_radius=lattice_radius)

    return case


CASES = {
    "bundled": lambda tmp: _audit(_bundled(), tmp),
    "constant_free_N128": _constant_free((1, 14, 43, 85, 128)),
    "constant_free_N450": _constant_free((1, 50, 150, 300, 450)),
    **{
        f"scaled_{name}_{way}": _scaled(name, factor)
        for name in DECLARED
        for way, factor in SCALES.items()
    },
    "generated_seed1": _generated(1, 40, "0.05"),
    "generated_seed2": _generated(2, 64, "0.3"),
    "empty_profile_coupling0": _empty_profile,
    "sigma_1e4_radius3": _wide_sigma(3),
    "sigma_1e4_radius1": _wide_sigma(1),
    "cli_closure": lambda tmp: _cli(
        ["closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4", "--eps", "1.42e-20"]
    ),
    "cli_constants_128": lambda tmp: _cli(["constants", "--modes", "128"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_copy(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert CASES[name](tmp_path) == expected


def test_every_golden_copy_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(case(pathlib.Path(tmp)), encoding="utf-8")
        sys.stdout.write(f"wrote {name}\n")
