"""Shared pieces of the benchmark: environment, clocks, samples, result.

Nothing here imports numpy or ``repro``: :func:`pin_environment` must
run before either is imported, so the thread pools of the BLAS
libraries start pinned to one thread.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: Thread-pool knobs of the BLAS/OpenMP libraries NumPy may load.  All
#: are pinned to 1, for the benchmark and for the server subprocess.
PINNED_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Program switches that would change what a timed run measures.
CLEARED_VARS = ("REPRO_BACKEND", "REPRO_EXECUTOR", "REPRO_TRACE", "REPRO_FAULTS")

clock = time.perf_counter


def pin_environment() -> None:
    """Fix the process environment before numpy or repro is imported.

    The process, and so the server it starts, also runs on one CPU: a
    light-phase request then hands over between client and server on a
    running CPU, instead of waking an idle virtual CPU of the shared
    host, whose delay swings with the host's load.  On a 2-CPU host
    this took the quartile spread of the light-phase p50s over sets of
    five to ten runs from 0.10-0.64 to 0.05-0.21.
    """
    for name in PINNED_THREAD_VARS:
        os.environ[name] = "1"
    for name in CLEARED_VARS:
        os.environ.pop(name, None)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def checkout_root() -> Path:
    """The directory holding ``perfbench/`` (and, normally, ``src/``)."""
    return Path(__file__).resolve().parent.parent


def source_commit(root: Path) -> str:
    """The git commit of the checkout, or a note when there is none."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment_record(root: Path) -> dict:
    """What the numbers depend on besides the code: recorded per run."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": source_commit(root),
        "pinned": {name: os.environ.get(name) for name in PINNED_THREAD_VARS},
        "cpus": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
    }


def median(values) -> float:
    return float(statistics.median(values))


def iqm(values) -> float:
    """Interquartile mean: the mean of the samples left after dropping
    the lowest and the highest ``len // 4``.

    The end-to-end estimator.  The host's speed drifts in spells of
    seconds, so the samples of one run spread around the run's average
    speed; their median jumps between the fast and the slow spells,
    while a mean follows the average.  Trimming the outer quarters
    keeps one stalled sample (a slow fsync, a collector pause) from
    moving it.  Up to three samples it is the plain mean.
    """
    ordered = sorted(values)
    trim = len(ordered) // 4
    return float(statistics.fmean(ordered[trim:len(ordered) - trim]))


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Outcome:
    """Attempted and failed operations of one run, and its mismatches."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        """Record a correctness check; a failing one makes the run wrong."""
        if not ok:
            self.mismatches.append(what)
            log(f"MISMATCH: {what}")
