"""Audit logs and CLI outputs compared byte for byte with golden copies.

A change that only restructures the arithmetic or the stages must leave
every one of these outputs unchanged.  Each case builds its input here,
runs the audit (timestamp fixed) or a CLI subcommand, and compares the text
with ``tests/golden/<case>.txt``.  On each certificate without declared
constants, the `residual`, `inverse`, `tail` and `constants` subcommands
must print that stage's block of the golden log.  To regenerate the golden
copies, after a change that is meant to alter an output:

    PYTHONPATH=src python tests/test_golden_logs.py
"""

import concurrent.futures
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading

import pytest

import spikecert
from spikecert import basis, constants, matrix
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


def _constant_free_doc(at) -> dict:
    # the bundled five-mode shape at modes ``at``, without declared constants
    doc = _bundled()
    del doc["constants"]
    doc["modes"] = [dict(m, j=j) for m, j in zip(doc["modes"], at)]
    return doc


def _generated_doc(seed: int, modes: int, sigma: str):
    def build(tmp):
        path = tmp / "generated.json"
        argv = ["gen-profile", "--seed", str(seed), "--modes", str(modes)]
        _cli(argv + ["--sigma", sigma, "--out", str(path)])
        return json.loads(path.read_text())

    return build


EMPTY_PROFILE = {
    "format_version": "1.0",
    "nu": {"mid": "0.005", "rad": "0"},
    "sigma": "0.05",
    "tau": "0.08",
    "modes": [],
}

# the certificates without declared constants, each a builder of the document
# (given a scratch directory) and the AuditConfig fields its audit sets
CONSTANT_FREE = {
    "constant_free_N128": (
        lambda tmp: _constant_free_doc((1, 14, 43, 85, 128)),
        {"truncation_N": 128},
    ),
    "constant_free_N450": (
        lambda tmp: _constant_free_doc((1, 50, 150, 300, 450)),
        {"truncation_N": 450},
    ),
    "generated_seed1": (_generated_doc(1, 40, "0.05"), {"truncation_N": 40}),
    "generated_seed2": (_generated_doc(2, 64, "0.3"), {"truncation_N": 64}),
    "empty_profile_coupling0": (lambda tmp: EMPTY_PROFILE, {"coupling": 0.0, "truncation_N": 16}),
}


def _constant_free(name):
    build, cfg = CONSTANT_FREE[name]
    return lambda tmp: _audit(build(tmp), tmp, **cfg)


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
    **{name: _constant_free(name) for name in CONSTANT_FREE},
    **{
        f"scaled_{name}_{way}": _scaled(name, factor)
        for name in DECLARED
        for way, factor in SCALES.items()
    },
    "sigma_1e4_radius3": _wide_sigma(3),
    "sigma_1e4_radius1": _wide_sigma(1),
    "cli_closure": lambda tmp: _cli(
        ["closure", "--delta", "8.421739e-12", "--M", "482.6", "--K", "1.1e4", "--eps", "1.42e-20"]
    ),
    "cli_constants": lambda tmp: _cli(["constants"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_copy(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert CASES[name](tmp_path) == expected


def test_every_golden_copy_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


# each stage subcommand, the TASK line of its block, and the one gate that
# block has on a certificate without declared constants
STAGES = {
    "residual": ("residual bound", "delta"),
    "inverse": ("inverse bound", "M"),
    "tail": ("tail coercivity", "gamma"),
    "constants": ("constants", "K"),
}


def _stage_block(log: str, task: str) -> str:
    """The lines of ``log`` from ``[TASK] task`` up to the next TASK line."""
    lines = log.splitlines(keepends=True)
    start = lines.index(f"[TASK] {task}\n")
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("[TASK] "))
    return "".join(lines[start:end])


@pytest.mark.parametrize("stage", sorted(STAGES))
@pytest.mark.parametrize("name", sorted(CONSTANT_FREE))
def test_stage_subcommand_prints_its_block_of_the_audit_log(name, stage, tmp_path):
    build, cfg = CONSTANT_FREE[name]
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(build(tmp_path)))
    task, gate = STAGES[stage]
    argv = [stage]
    if stage != "constants":  # the only stage that reads no certificate
        argv += ["--profile", str(path), "--modes", str(cfg["truncation_N"])]
    if stage != "tail" and "coupling" in cfg:  # the only stage without a model
        argv += ["--coupling", repr(cfg["coupling"])]
    block = _stage_block((GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), task)
    failed = any(line.endswith(": FAIL") for line in block.splitlines())
    status = f"{stage} stage REJECTED: {gate}" if failed else f"{stage} stage passed"
    assert _cli(argv) == f"{block}[STATUS] {status}\nexit code {int(failed)}\n"


# N = 450, then N = 128, then N = 450 again: the tables the audit keeps for
# the whole process (the weights of X, k^{7/2}, the quotients) are formed by
# the first audit at each N and serve the others, and the constants of the
# program (the recovery supremum, C_conv's factor) by the first audit of all
WARM_SEQUENCE = (
    ("bundled", None, 450),
    ("constant_free_N128", (1, 14, 43, 85, 128), 128),
    ("bundled", None, 450),
)


def _clear_process_caches():
    matrix._endpoint_table.cache_clear()
    basis._split_table.cache_clear()
    constants._whole_space_factor.cache_clear()
    constants.recovery_mapping_constant.cache_clear()


def test_one_process_keeps_each_log(tmp_path):
    # from empty process-wide caches, whatever ran before in this process
    _clear_process_caches()
    src = str(pathlib.Path(spikecert.__file__).resolve().parents[1])
    for name, at, modes in WARM_SEQUENCE:
        doc = _bundled() if at is None else _constant_free_doc(at)
        text = _audit(doc, tmp_path, truncation_N=modes)
        assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name
        child = subprocess.run(
            [sys.executable, "-m", "spikecert.cli", "audit",
             "--profile", str(tmp_path / "certificate.json"), "--modes", str(modes)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == (0 if at is None else 1), child.stderr
        assert re.sub(r"run started \S+", f"run started {STAMP}", child.stdout) == text, name


def test_concurrent_audits_give_the_serial_logs(tmp_path):
    # 4 threads x 3 audits from empty process-wide caches, started together,
    # so the threads form the same tables at once
    _clear_process_caches()
    paths = {}
    for name, at, _ in WARM_SEQUENCE:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(_bundled() if at is None else _constant_free_doc(at)))
    start = threading.Barrier(4)

    def worker(_):
        start.wait(timeout=60)
        return [
            run_audit(paths[name], AuditConfig(timestamp=STAMP, truncation_N=modes)).log.render()
            for name, _, modes in WARM_SEQUENCE
        ]

    with concurrent.futures.ThreadPoolExecutor(4) as pool:
        logs = list(pool.map(worker, range(4), timeout=300))
    serial = [(GOLDEN / f"{name}.txt").read_text(encoding="utf-8") for name, _, _ in WARM_SEQUENCE]
    assert logs == [serial] * 4


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(case(pathlib.Path(tmp)), encoding="utf-8")
        sys.stdout.write(f"wrote {name}\n")
