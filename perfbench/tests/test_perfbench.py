"""Tests of the benchmark itself: generators, output checks, tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

import checks
import run
import workloads
from spikecert.audit import AUDIT_MAGIC, AuditConfig, AuditLog, run_audit
from spikecert.cli import main as cli_main
from spikecert.spaces import load_certificate

BUNDLED = json.loads(run.BUNDLED.read_text())
FAST = AuditConfig(window=64)


@pytest.fixture(scope="module")
def verified_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("audit") / "cert.json"
    workloads.write_json(workloads.declared_certificate(BUNDLED, 3, 0), path)
    result = run_audit(path, FAST)
    assert result.exit_code == 0
    return result.log.render()


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, i: workloads.declared_certificate(BUNDLED, seed, i),
        workloads.computed_certificate,
        workloads.closure_args,
    ],
    ids=["declared", "computed", "cli"],
)
def test_generators_are_deterministic_per_seed(make):
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    assert make(7, 0) != make(7, 1)


def test_declared_keeps_radii_and_constants_and_stays_within_ten_percent():
    for seed in range(20):
        doc = workloads.declared_certificate(BUNDLED, seed, 0)
        assert doc["constants"] == BUNDLED["constants"]
        for new, old in zip(doc["modes"], BUNDLED["modes"]):
            assert new["j"] == old["j"] and new["rad"] == old["rad"]
            ratio = Fraction(new["mid"]) / Fraction(old["mid"])
            assert Fraction(9, 10) <= ratio <= Fraction(11, 10)


def test_computed_never_emits_a_mode_above_its_truncation(tmp_path):
    for seed in range(50):
        for index in range(4):
            doc = workloads.computed_certificate(seed, index)
            modes = [row["j"] for row in doc["modes"]]
            assert max(modes) <= workloads.COMPUTED_N
            assert "constants" not in doc
    cert = load_certificate(workloads.write_json(doc, tmp_path / "c.json"))
    assert cert.coefficients.max_mode <= workloads.COMPUTED_N


def test_closure_args_alternate_and_stay_a_factor_two_from_one():
    for seed in range(10):
        for index in range(10):
            args = workloads.closure_args(seed, index)
            assert args.closes == (index % 2 == 0)
            assert args.exact_product <= Fraction(1, 2) or args.exact_product >= 2
            assert args.exact_product == workloads.torus_product(
                args.delta, args.M, args.K, args.eps
            )


# -- audit output check --------------------------------------------------------


def test_expected_audit_passes(verified_log):
    assert checks.check_audit(verified_log, 0, 0, AuditLog, AUDIT_MAGIC) is None


def test_tampered_status_is_a_failure(verified_log):
    tampered = verified_log.replace("certificate VERIFIED", "certificate REJECTED")
    assert checks.check_audit(tampered, 0, 0, AuditLog, AUDIT_MAGIC) is not None
    doubled = verified_log + verified_log.splitlines()[-1] + "\n"
    assert "grammar" in checks.check_audit(doubled, 0, 0, AuditLog, AUDIT_MAGIC)
    untagged = verified_log.replace("[STATUS]", "STATUS")
    assert "grammar" in checks.check_audit(untagged, 0, 0, AuditLog, AUDIT_MAGIC)


def test_wrong_exit_code_is_a_failure(verified_log):
    assert "exit code" in checks.check_audit(verified_log, 1, 0, AuditLog, AUDIT_MAGIC)
    assert "exit code 2" in checks.check_audit(verified_log, 2, 2, AuditLog, AUDIT_MAGIC)


# -- CLI output check ----------------------------------------------------------


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("index", [0, 1])
def test_cli_closure_output_passes_the_exact_check(index):
    args = workloads.closure_args(11, index)
    code, out = _cli(args.argv())
    assert checks.check_closure_cli(out, code, args) is None


def test_cli_check_rejects_wrong_verdict_exit_code_and_digits():
    args = workloads.closure_args(11, 0)
    code, out = _cli(args.argv())
    assert checks.check_closure_cli(out, 1 - code, args) is not None
    flipped = out.replace("torus verdict = True", "torus verdict = False")
    assert checks.check_closure_cli(flipped, code, args) is not None
    line = next(l for l in out.splitlines() if l.startswith("torus product"))
    hi = line.rsplit(", ", 1)[1].rstrip("]")
    wrong = out.replace(line, line.replace(hi, f"{float(hi) * 1.001:.6e}"))
    assert "disagrees" in checks.check_closure_cli(wrong, code, args)


# -- tracer --------------------------------------------------------------------


def _snapshot():
    from spikecert.interval import IntervalScalar

    mods = {n: dict(m.__dict__) for n, m in sys.modules.items() if n.split(".")[0] == "spikecert"}
    return mods, dict(IntervalScalar.__dict__)


def test_tracer_counts_spans_and_restores_every_original(tmp_path):
    from tracer import Tracer

    path = workloads.write_json(workloads.declared_certificate(BUNDLED, 5, 0), tmp_path / "c.json")
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        assert _snapshot() != before
        tracer.begin_op()
        result = sys.modules["spikecert.audit"].run_audit(path, FAST)
    assert _snapshot() == before
    assert result.exit_code == 0

    op = tracer.op_summary(0)
    assert op["stability.envelope_calls"] == FAST.window + 1
    assert op["constants.recovery.calls"] == 1
    assert op["operator.apply_quadratic_calls"] == 2
    assert "operator.jacobian.busy_s" not in op
    busy, own = op["audit.run_audit.busy_s"], op["audit.run_audit.self_s"]
    children = sum(
        op[f"{name}.busy_s"]
        for name in ("spaces.load", "residual.certify", "stability.tail", "constants.recovery", "closure.products")
    )
    assert own == pytest.approx(busy - children, abs=1e-9)
    layer = run.per_layer(tracer.summary())
    assert layer["audit.stage_coverage"] > 0.95
    assert layer["operator.jacobian_s"] == 0.0


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(run.per_layer({})) | {
        "interval.add_ns", "interval.mul_ns", "interval.div_ns", "interval.exp_ns",
        "interval.sqrt_ns", "interval.ptimes_n450_ms", "cli.interp_s", "cli.import_s",
        "oracle.import_s", "cli.self_s", "trace.overhead_s",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {m["name"] for m in spec["end_to_end"]} == {"op_s", "setup_s", "peak_rss_mb", "ok_rate"}


def test_summarize_takes_median_times_and_first_operation_values():
    from tracer import summarize

    ops = [
        {"a.busy_s": 1.0, "a.calls": 3, "width": 5.0},
        {"a.busy_s": 3.0, "a.calls": 3, "width": 7.0},
        {"a.busy_s": 2.0, "a.calls": 3},
    ]
    assert summarize(ops) == {"a.busy_s": 2.0, "a.calls": 3, "width": 5.0}
    assert summarize([]) == {}
