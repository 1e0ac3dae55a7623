"""Fresh-interpreter probes, interval micro-timings and the machine record.

Every child process is started one at a time and waited for before the next
starts.  Children run with `PYTHONPATH` pointing at the checkout's `src`,
so they import the program from source, as the in-process workloads do.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import spikecert; "
    "print(time.perf_counter() - t)"
)


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(
    argv: Sequence[str], env: Dict[str, str], out_dir: Path
) -> Tuple[int, str, str, float, float]:
    """Run one child to completion: (exit code, stdout, stderr, wall s, max RSS MB).

    Output goes to files rather than pipes so the child can be reaped with
    `os.wait4`, which reports the resource usage of that child alone.
    """
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(),
        err_path.read_text(),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def import_seconds(src: Path, out_dir: Path, repeats: int) -> List[float]:
    """`import spikecert` wall seconds, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        code, out, err, _, _ = run_child(
            [sys.executable, "-c", _IMPORT_TIMER], child_env(src), out_dir
        )
        if code != 0:
            raise RuntimeError(f"import spikecert failed: {err.strip()}")
        times.append(float(out.strip()))
    return times


def interpreter_seconds(src: Path, out_dir: Path, repeats: int) -> float:
    """Median wall seconds of a bare `python -c pass`."""
    env = child_env(src)
    return statistics.median(
        run_child([sys.executable, "-c", "pass"], env, out_dir)[3] for _ in range(repeats)
    )


def importtime_seconds(src: Path, out_dir: Path, repeats: int) -> Dict[str, float]:
    """Median cumulative import seconds of `spikecert` and `spikecert.oracle`
    as `-X importtime` reports them."""
    samples: Dict[str, List[float]] = {"spikecert": [], "spikecert.oracle": []}
    line = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$")
    for _ in range(repeats):
        code, _, err, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import spikecert"],
            child_env(src),
            out_dir,
        )
        if code != 0:
            raise RuntimeError("import spikecert failed under -X importtime")
        for raw in err.splitlines():
            m = line.match(raw)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) for name, v in samples.items()}


# -- interval kernels ----------------------------------------------------------


def _ns_per_call(fn, calls: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def interval_micro(seed: int, calls: int = 2_000, repeats: int = 5) -> Dict[str, float]:
    """Nanoseconds per scalar interval operation and milliseconds per
    `point_times_interval` at n = 450, each a median over `repeats`."""
    import numpy as np
    from spikecert.interval import (
        IntervalMatrix,
        IntervalScalar,
        exp_iv,
        point_times_interval,
        sqrt_iv,
    )

    a = IntervalScalar(1.1, 1.3)
    b = IntervalScalar(0.7, 0.9)
    x = IntervalScalar(0.3, 0.4)
    out = {
        "interval.add_ns": _ns_per_call(lambda: a + b, calls, repeats),
        "interval.mul_ns": _ns_per_call(lambda: a * b, calls, repeats),
        "interval.div_ns": _ns_per_call(lambda: a / b, calls, repeats),
        "interval.exp_ns": _ns_per_call(lambda: exp_iv(x), calls, repeats),
        "interval.sqrt_ns": _ns_per_call(lambda: sqrt_iv(a), calls, repeats),
    }
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((450, 450))
    lo = rng.standard_normal((450, 450))
    B = IntervalMatrix(lo, lo + 1e-3 * rng.random((450, 450)))
    point_times_interval(A, B)
    ms = []
    for _ in range(repeats):
        start = time.perf_counter()
        point_times_interval(A, B)
        ms.append((time.perf_counter() - start) * 1e3)
    out["interval.ptimes_n450_ms"] = statistics.median(ms)
    return out


# -- machine record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({l.split()[-1] for l in maps.splitlines() if "openblas" in l.lower()})
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_record(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }
