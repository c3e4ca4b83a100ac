"""Shared helpers of the FSim benchmark: sample statistics, process
probes, the environment stamp and the bitwise score comparison.

Nothing here imports :mod:`repro`, so the entry point can refuse to run
(with a non-zero exit) before the program under test is even looked for.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import statistics
import struct
import subprocess
import sys
import time
import traceback
from typing import Dict, Iterable, List, Optional, Sequence

#: The checkout root: the benchmark lives in ``<root>/fsimbench``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where runs keep their files (graph files, WAL, server log).  It lies
#: inside the checkout and is ignored by git.
RUN_DIR = ROOT / ".bench_build" / "fsimbench"

#: A tail is reported only when a run holds this many samples of an
#: operation, and then as the highest percentile with ten samples
#: beyond it.
TAIL_MIN_SAMPLES = 40
TAIL_BEYOND = 10


#: Single-threaded BLAS: each workload runs serial on purpose, and a
#: BLAS thread pool would add threads beyond the two CPUs' budget.
SERIAL_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: the program
    from this checkout's ``src/``, with single-threaded BLAS."""
    env = dict(os.environ, **SERIAL_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# sample statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Optional[dict]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it,
    or None with fewer than ``TAIL_MIN_SAMPLES`` samples (such a
    percentile would be no tail)."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[n - TAIL_BEYOND - 1],
        "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "samples": n,
    }


def quartile_spread(values: Sequence[float]) -> dict:
    """Median and spread (Q3 - Q1) / median of repeated runs' values."""
    values = list(values)
    mid = median(values)
    if len(values) < 2:
        return {"median": mid, "q1": mid, "q3": mid, "spread": 0.0,
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": mid, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# process probes
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


# ----------------------------------------------------------------------
# bitwise score comparison
# ----------------------------------------------------------------------
def score_bits(values: Iterable[float]) -> bytes:
    """The IEEE-754 bytes of a float sequence (big-endian doubles)."""
    values = list(values)
    return struct.pack(f">{len(values)}d", *values)


def scores_digest(scores: dict) -> str:
    """sha256 over the ordered pairs and the exact bits of their scores."""
    digest = hashlib.sha256()
    digest.update(repr(list(scores.keys())).encode())
    digest.update(score_bits(scores.values()))
    return digest.hexdigest()


def same_scores(a: dict, b: dict) -> bool:
    """True when two ``{pair: score}`` maps hold the same pairs in the
    same order with bit-identical scores."""
    return (
        len(a) == len(b)
        and list(a.keys()) == list(b.keys())
        and score_bits(a.values()) == score_bits(b.values())
    )


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _source_stamp() -> dict:
    """The git commit of the checkout, or a digest of ``src/`` when the
    checkout is not a git work tree of its own."""
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError(ROOT / ".git")
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        if commit:
            return {"git_commit": commit}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"src_sha256": digest.hexdigest()}


def environment() -> dict:
    """nproc, Python, numpy and its BLAS, and the source revision."""
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        pass
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }
    stamp.update(_source_stamp())
    return stamp


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=False), flush=True)


def fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"fsimbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def ms(seconds: float) -> float:
    return seconds * 1000.0


def timing_ms(seconds: Sequence[float]) -> dict:
    """Median, tail (when there are enough samples) and sample count of
    a list of durations, in milliseconds."""
    out = {"p50": ms(median(seconds)), "samples": len(seconds)}
    high = tail(seconds)
    if high is not None:
        out["tail"] = dict(high, value=ms(high["value"]))
    return out


class Recorder:
    """Timed operations of one run, grouped in rounds.

    Every round performs the same operations, so the share of failed
    operations does not depend on how many rounds fit in a run.
    """

    def __init__(self):
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: (operations completed, their summed time) per round
        self.rounds: List[tuple] = []

    def begin_round(self) -> None:
        self.rounds.append((0, 0.0))

    def op(self, kind: str, fn, *args):
        """Run one operation, timing it.  A raised error counts as a
        failed operation, is kept for the report, and returns None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # an operation fault: counted, run goes on
            self.failed += 1
            if len(self.errors) < 4:
                self.errors.append(traceback.format_exc(limit=4))
            return None
        elapsed = time.perf_counter() - start
        (self.reads if kind == "read" else self.writes).append(elapsed)
        done, spent = self.rounds[-1]
        self.rounds[-1] = (done + 1, spent + elapsed)
        return out

    def outcome(self, ok: bool) -> None:
        """Count an untimed operation that either succeeded or failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def ops_per_s(self) -> float:
        """Median over rounds of operations per second of operation
        time: a stalled round moves it no more than one sample."""
        rates = [done / spent for done, spent in self.rounds if spent > 0]
        return median(rates)

    def report(self) -> dict:
        return {"reads_s": self.reads, "writes_s": self.writes,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "ops_per_s": self.ops_per_s()}
