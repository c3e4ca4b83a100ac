"""Per-worker scaling of the parallel runtime (Figure 9a).

The paper's Section 3.4 observation -- iteration k reads only iteration
k-1 scores, so pair updates parallelize without conflicts -- is served
by :mod:`repro.runtime`: ``FSimEngine.run(workers=w)`` with ``w > 1``
forks a pool for the run and shards every large sweep's dirty pairs
across it.  This benchmark times that public entry point on the
Figure-9 workload (FSimbj{ub, theta=1} over the NELL / ACMCit
emulators, densified like ``bench_backend_speedup.py``):

- **serial**: ``run(workers=1)``, the baseline every worker count must
  reproduce bit for bit;
- **per worker count**: ``run(workers=w)``, end to end -- compile
  (serial in every case), the pool fork and the sharded sweeps.

Each cell is the median of ``ROUNDS`` runs after one untimed warm-up
(plan lowering is cached per graph), split into the ``engine.compile``
and ``engine.iterate`` phases.  Scores, iteration counts and
per-iteration deltas are asserted **bitwise identical** to serial for
every measured cell, and each parallel cell must have forked a pool, so
a silent serial fallback cannot pass.  A worker count slower than
serial is recorded as a ``loss``.  The speedup gate applies only to
manual runs on machines with >= 2 cores.

Writes ``BENCH_parallel.json``.  Run standalone:

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT):  # allow standalone execution
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from fsimbench.common import environment  # noqa: E402
from repro.core.config import FSimConfig  # noqa: E402
from repro.core.engine import FSimEngine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.graph.noise import densify  # noqa: E402
from repro.obs.profiling import PhaseProfile, profiled  # noqa: E402
from repro.runtime import ForkExecutor, fork_available  # noqa: E402
from repro.simulation import Variant  # noqa: E402

RESULT_PATH = REPO_ROOT / "BENCH_parallel.json"

#: (dataset, density factor) -- the Figure-9 ladder; the last row is the
#: headline workload (fig9-acmcit-x5 in fsimbench).
WORKLOADS = (
    ("nell", 10),
    ("acmcit", 5),
)

ROUNDS = 3

#: Required end-to-end speedup at the best worker count on the
#: headline workload -- only enforced on multi-core machines.
SPEEDUP_GATE = 1.2


def default_worker_counts():
    cores = environment()["nproc"] or 1
    counts = [c for c in (2, 4, 8) if c <= max(cores, 2)]
    return counts or [2]


def _config() -> FSimConfig:
    return FSimConfig(
        variant=Variant.BJ, theta=1.0, use_upper_bound=True, backend="numpy",
    )


def _workload_graph(name: str, factor: int, seed: int = 0):
    base = load_dataset(name, scale=1.0, seed=seed)
    return base if factor == 1 else densify(base, float(factor), seed)


def _time_runs(graph, workers: int, rounds: int):
    """Median wall clock and phase split of ``rounds`` runs, the last
    result, and the number of pools the runs forked."""
    config = _config()
    FSimEngine(graph, graph, config).run(workers=workers)  # warm-up
    pools_before = ForkExecutor.pools_created
    walls, compiles, iterates = [], [], []
    result = None
    for _ in range(rounds):
        profile = PhaseProfile()
        start = time.perf_counter()
        with profiled(profile):
            result = FSimEngine(graph, graph, config).run(workers=workers)
        walls.append(time.perf_counter() - start)
        phases = profile.snapshot()
        compiles.append(phases["engine.compile"]["total"])
        iterates.append(phases["engine.iterate"]["total"])
    timing = {
        "seconds": round(statistics.median(walls), 4),
        "compile_seconds": round(statistics.median(compiles), 4),
        "iterate_seconds": round(statistics.median(iterates), 4),
    }
    return timing, result, ForkExecutor.pools_created - pools_before


def run_workload(name: str, factor: int, worker_counts=None,
                 rounds: int = ROUNDS) -> dict:
    worker_counts = worker_counts or default_worker_counts()
    graph = _workload_graph(name, factor)
    serial_timing, serial, _ = _time_runs(graph, 1, rounds)
    row = {
        "workload": f"{name} x{factor}, FSimbj{{ub, theta=1}}",
        "candidate_pairs": int(serial.num_candidates),
        "iterations": int(serial.iterations),
        "serial": serial_timing,
        "workers": {},
    }
    for workers in worker_counts:
        timing, result, pools = _time_runs(graph, workers, rounds)
        assert result.scores == serial.scores, (
            f"{name} x{factor}: parallel scores diverge at "
            f"workers={workers}"
        )
        assert result.iterations == serial.iterations
        assert result.deltas == serial.deltas
        assert pools >= rounds, (
            f"{name} x{factor}: workers={workers} forked {pools} pools "
            f"in {rounds} runs (ran serially)"
        )
        speedup = serial_timing["seconds"] / timing["seconds"]
        row["workers"][str(workers)] = dict(
            timing,
            speedup_vs_serial=round(speedup, 2),
            outcome="win" if speedup > 1.0 else "loss",
            bitwise_identical=True,
        )
    return row


def run_benchmark(workloads=WORKLOADS, worker_counts=None,
                  rounds: int = ROUNDS) -> dict:
    if not fork_available():
        raise SystemExit("bench_parallel needs the fork start method")
    stamp = environment()
    return {
        "cpu_count": stamp["nproc"],
        "environment": stamp,
        "rounds": rounds,
        "note": (
            "end-to-end FSimEngine.run(workers=w), median of the rounds "
            "after one warm-up; bitwise parity vs serial and a forked "
            "pool are asserted for every cell; a cell slower than "
            f"serial is a loss.  The speedup gate (>= {SPEEDUP_GATE}x "
            "at the best worker count on acmcit_x5) applies to manual "
            "runs on multi-core machines -- CI records scaling with "
            "--no-gate"
        ),
        "workloads": {
            f"{name}_x{factor}": run_workload(
                name, factor, worker_counts, rounds
            )
            for name, factor in workloads
        },
    }


def render(report: dict) -> str:
    lines = [
        "== Parallel scaling of FSimEngine.run(workers=w) "
        f"(cpus={report['cpu_count']}) =="
    ]
    for key, row in report["workloads"].items():
        serial = row["serial"]
        lines.append(
            f"{key:>12}: {row['candidate_pairs']} candidate pairs, "
            f"serial {serial['seconds']:.3f}s (compile "
            f"{serial['compile_seconds']:.3f}s, iterate "
            f"{serial['iterate_seconds']:.3f}s, {row['iterations']} "
            "iterations)"
        )
        for workers, cell in row["workers"].items():
            lines.append(
                f"{'':>12}  w={workers}: {cell['seconds']:>7.3f}s "
                f"(iterate {cell['iterate_seconds']:.3f}s, "
                f"{cell['speedup_vs_serial']:>5.2f}x, {cell['outcome']}, "
                "bitwise identical)"
            )
    return "\n".join(lines)


def write_report(report: dict, path=RESULT_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, no speedup gate, no BENCH_parallel.json write",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="record scaling and assert bitwise parity, but never fail "
             "on wall clock (for shared CI runners, whose noisy "
             "neighbors make speedup thresholds flaky)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_benchmark(workloads=(("nell", 5),),
                               worker_counts=[2], rounds=1)
        print(render(report))
        return 0
    report = run_benchmark()
    print(render(report))
    write_report(report)
    print(f"wrote {RESULT_PATH}")
    if args.no_gate:
        print("speedup gate disabled (--no-gate); parity was asserted")
        return 0
    if (report["cpu_count"] or 1) < 2:
        print("single-core machine: speedup gate skipped")
        return 0
    headline = report["workloads"]["acmcit_x5"]
    best = max(
        cell["speedup_vs_serial"] for cell in headline["workers"].values()
    )
    if best < SPEEDUP_GATE:
        print(f"speedup gate failed: best {best:.2f}x < {SPEEDUP_GATE}x")
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_parallel_scaling(benchmark):
    from conftest import run_once

    report = run_once(benchmark, run_benchmark)
    write_report(report)
    for row in report["workloads"].values():
        for cell in row["workers"].values():
            assert cell["bitwise_identical"]


if __name__ == "__main__":
    raise SystemExit(main())
