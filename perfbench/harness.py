"""Shared measurement loop, launch timing and run metadata."""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working files of a run (journals, span files, server logs); ignored by git.
OUT = ROOT / ".perfbench_out"
#: Threading pins applied before numpy loads, here and in every child;
#: ``TMPDIR`` keeps temporary files inside the checkout.
THREAD_ENV = {
    "TMPDIR": str(OUT),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def host_info() -> dict:
    import numpy

    sha = "absent"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or "absent"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs))


def quantile(xs, q: float) -> float:
    """The ``q`` quantile (``0 < q < 1``) by linear interpolation."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    if lo == pos or xs[lo] == xs[lo + 1]:
        return float(xs[lo])
    return float(xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo))


def launch_ready_s(code: str, launches: int) -> "list[float]":
    """Seconds from launching ``python3 -c code`` until it prints ``ready``."""
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up launch failed: {line!r}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(elapsed)
    return times


def timed(op):
    """Run ``op()`` with the collector off; returns ``(seconds, result)``.

    Garbage is collected before the op, never during it.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = op()
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return dt, out


class OpLoop:
    """Untimed warm-up, then timed ops until the time budget is spent.

    ``check(result)`` returns ``(attempted, failed)`` for one op's
    answers and runs outside the timing.
    """

    def __init__(self, op, check) -> None:
        self.op = op
        self.check = check
        self.attempted = 0
        self.failed = 0

    def run_checked(self) -> float:
        dt, out = timed(self.op)
        attempted, failed = self.check(out)
        self.attempted += attempted
        self.failed += failed
        return dt

    def run(self, seconds: float) -> "list[float]":
        self.run_checked()  # warm-up: caches fill, lazy imports load
        times: "list[float]" = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.run_checked())
        return times


def fresh_dir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
