"""Audit benchmark for spikecert.

    python3 perfbench/run.py --workload {declared,computed,cli} --seed N \
        --seconds S --trace {0,1} [--out FILE]

Run from the root of a source checkout; the program is imported from `src/`.
Each workload is a closed loop: one caller, one operation at a time, each
starting when the previous one has finished, on inputs generated from the
seed (README.md beside this file says why each workload exists).

With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json, measured on the program as shipped.  With --trace 1 it
reports the per-layer metrics: spans and counts recorded by wrapping the
program's public functions (tracer.py), cold-start probes and interval
micro-timings (probes.py).  The last line of standard output is the result
object; the line before it records the machine and every operation's time.
Exit code 0 means the run completed, whatever the correctness verdict; any
other code means there is no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "spikecert" / "data" / "reference_certificate.json"

WORKLOADS = ("declared", "computed", "cli")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
# shares of --seconds given to untraced and traced operations in a traced run
UNTRACED_SHARE = 0.4
TRACED_SHARE = 0.6
LAYERS = (
    "audit", "spaces", "residual", "operator", "basis",
    "stability", "constants", "closure", "interval",
)

# one operation: index -> (wall seconds, failure reason or None)
Op = Callable[[int], Tuple[float, Optional[str]]]


class Loop:
    """Closed-loop runner: times operations and collects failures."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.failures: List[str] = []

    def run(self, budget_s: float, op: Op) -> List[float]:
        """Run op(0), op(1), ... until the next one would likely end past the
        budget; return the wall times of this call's operations."""
        start = time.perf_counter()
        first = len(self.times)
        index = 0
        while True:
            seconds, failure = op(index)
            index += 1
            self.times.append(seconds)
            if failure is not None:
                self.failures.append(failure)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.times[first:]) > budget_s:
                return self.times[first:]

    @property
    def attempted(self) -> int:
        return len(self.times)


# -- workloads -----------------------------------------------------------------


class AuditWorkload:
    """`declared` and `computed`: `run_audit` in this process."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        import spikecert.audit

        self.audit = spikecert.audit
        self.work = work
        self.tracer = None
        if name == "declared":
            bundled = json.loads(BUNDLED.read_text())
            self.make = lambda i: workloads.declared_certificate(bundled, seed, i)
            self.config = None
            self.expected_exit = 0
        else:
            self.make = lambda i: workloads.computed_certificate(seed, i)
            self.config = spikecert.audit.AuditConfig(truncation_N=workloads.COMPUTED_N)
            self.expected_exit = 1
        self.warm_up = name == "declared"

    def prepare(self) -> None:
        if self.warm_up:
            self.op(-1)

    def op(self, index: int) -> Tuple[float, Optional[str]]:
        path = workloads.write_json(self.make(index), self.work / f"cert{index}.json")
        if self.tracer is not None:
            self.tracer.begin_op()
        start = time.perf_counter()
        try:
            # looked up on each call, so the tracer's wrapper runs when installed
            result = self.audit.run_audit(path, self.config)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            failure = f"{type(exc).__name__}: {exc}"
        else:
            failure = None
        seconds = time.perf_counter() - start
        if failure is None:
            failure = checks.check_audit(
                result.log.render(),
                result.exit_code,
                self.expected_exit,
                self.audit.AuditLog,
                self.audit.AUDIT_MAGIC,
            )
        return seconds, failure

    def traced(self, loop: Loop, budget_s: float) -> Dict[str, float]:
        from tracer import Tracer

        self.tracer = Tracer()
        try:
            with self.tracer:
                loop.run(budget_s, self.op)
        finally:
            tracer, self.tracer = self.tracer, None
        return tracer.summary()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    """`cli`: one fresh `python -m spikecert.cli closure ...` child per operation."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.env = probes.child_env(SRC)
        self.max_rss_mb = 0.0
        self.traces: Optional[List[Dict[str, float]]] = None

    def prepare(self) -> None:
        pass

    def op(self, index: int) -> Tuple[float, Optional[str]]:
        args = workloads.closure_args(self.seed, index)
        trace_path = self.work / "trace.json"
        if self.traces is None:
            head = [sys.executable, "-m", "spikecert.cli"]
        else:
            trace_path.unlink(missing_ok=True)
            head = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path)]
        code, out, err, seconds, rss = probes.run_child(
            head + args.argv(), self.env, self.work
        )
        self.max_rss_mb = max(self.max_rss_mb, rss)
        failure = checks.check_closure_cli(out, code, args)
        if failure is not None and err.strip():
            failure += f" (stderr: {err.strip().splitlines()[-1]})"
        elif failure is None and self.traces is not None:
            self.traces.append(json.loads(trace_path.read_text()))
        return seconds, failure

    def traced(self, loop: Loop, budget_s: float) -> Dict[str, float]:
        """Run children that install the wrappers themselves (traced_cli.py)."""
        from tracer import summarize

        self.traces = []
        try:
            loop.run(budget_s, self.op)
        finally:
            traces, self.traces = self.traces, None
        return summarize(traces)

    def peak_rss_mb(self) -> float:
        return self.max_rss_mb


# -- metrics -------------------------------------------------------------------


def end_to_end(workload, loop: Loop, setup: List[float]) -> Dict[str, float]:
    return {
        "op_s": statistics.median(loop.times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": workload.peak_rss_mb(),
        "ok_rate": (loop.attempted - len(loop.failures)) / loop.attempted,
    }


def per_layer(trace: Dict[str, float]) -> Dict[str, float]:
    """Name the figures of a traced run (tracer.summarize) as per-layer
    metrics; a figure the trace lacks belongs to a stage that did not run,
    and is 0."""

    def t(key: str) -> float:
        return trace.get(key, 0.0)

    run_busy = t("audit.run_audit.busy_s")
    calls = t("basis.interaction_calls")
    out = {
        "audit.self_s": t("audit.run_audit.self_s"),
        "audit.stage_coverage": 1.0 - t("audit.run_audit.self_s") / run_busy if run_busy else 0.0,
        "spaces.load_s": t("spaces.load.busy_s"),
        "residual.certify_s": t("residual.certify.busy_s"),
        "residual.delta_width_rel": t("residual.delta_width_rel"),
        "operator.jacobian_s": t("operator.jacobian.busy_s"),
        "operator.apply_quadratic_calls": t("operator.apply_quadratic_calls"),
        "basis.interaction_calls": calls,
        "basis.interaction_nonzero_ratio": t("basis.interaction_nonzero") / calls if calls else 0.0,
        "stability.inverse_s": t("stability.inverse.busy_s"),
        "stability.E_norm_hi": t("stability.E_norm_hi"),
        "stability.M_hi": t("stability.M_hi"),
        "stability.inverse_verified": t("stability.inverse_verified"),
        "stability.tail_s": t("stability.tail.busy_s"),
        "stability.envelope_calls": t("stability.envelope_calls"),
        "stability.gamma_lo": t("stability.gamma_lo"),
        "constants.recovery_s": t("constants.recovery.busy_s"),
        "constants.recovery_scans": t("constants.recovery.calls"),
        "constants.level_multiplier_calls": t("constants.level_multiplier_calls"),
        "constants.convolution_s": t("constants.convolution.busy_s"),
        "constants.K_hi": t("constants.K_hi"),
        "constants.C_rec_map_width_rel": t("constants.C_rec_map_width_rel"),
        "closure.overlap_s": t("closure.overlap.busy_s"),
        "closure.products_s": t("closure.products.busy_s"),
        "closure.product_hi": t("closure.product_hi"),
        "closure.product_width_rel": t("closure.product_width_rel"),
        "interval.ptimes_s": t("interval.ptimes.busy_s"),
    }
    for kind in ("mul", "add", "div", "exp", "sqrt", "intpow"):
        out[f"interval.{kind}_calls"] = t(f"interval.{kind}_calls")
    for layer in LAYERS:
        out[f"{layer}.failures"] = t(f"{layer}.failures")
    return out


def traced_run(workload, seconds: float, seed: int, work: Path) -> Tuple[Loop, Dict[str, float]]:
    metrics = probes.interval_micro(seed)
    metrics["cli.interp_s"] = probes.interpreter_seconds(SRC, work, PROBE_REPEATS)
    imports = probes.importtime_seconds(SRC, work, PROBE_REPEATS)
    metrics["cli.import_s"] = imports["spikecert"]
    metrics["oracle.import_s"] = imports["spikecert.oracle"]

    workload.prepare()
    loop = Loop()
    untraced_s = statistics.median(loop.run(UNTRACED_SHARE * seconds, workload.op))
    first_traced = loop.attempted
    metrics.update(per_layer(workload.traced(loop, TRACED_SHARE * seconds)))
    metrics["trace.overhead_s"] = statistics.median(loop.times[first_traced:]) - untraced_s
    metrics["cli.self_s"] = (
        untraced_s - metrics["cli.import_s"] - metrics["cli.interp_s"]
        if isinstance(workload, CliWorkload)
        else 0.0
    )
    return loop, metrics


# -- entry point -----------------------------------------------------------------


def declared_metrics(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="also write the full record as JSON to this file")
    args = parser.parse_args(argv)

    if not (SRC / "spikecert" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}; run from a checkout\n")
        return 2
    units = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        cls = CliWorkload if args.workload == "cli" else AuditWorkload
        workload = cls(args.workload, args.seed, work)
        if args.trace:
            loop, values = traced_run(workload, args.seconds, args.seed, work)
        else:
            setup = probes.import_seconds(SRC, work, SETUP_REPEATS)
            workload.prepare()
            loop = Loop()
            loop.run(args.seconds, workload.op)
            values = end_to_end(workload, loop, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    bad = sorted(k for k in units if k in values and not math.isfinite(values[k]))
    if missing or bad:
        sys.stderr.write(f"perfbench: metrics not measured {missing}, non-finite {bad}\n")
        return 1
    for failure in loop.failures[:10]:
        sys.stderr.write(f"perfbench: failed operation: {failure}\n")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "machine": probes.machine_record(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_seconds": loop.times,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({**record, "result": result}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
