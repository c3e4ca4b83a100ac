"""Compile time, iterate time and peak RSS of one 10^4-node FSim solve.

The ROADMAP north star asks the reproduction to handle graphs two
orders of magnitude past the paper's tables.  This benchmark builds a
synthetic self-similarity workload at that scale -- 10^4 nodes and
about 10^6 candidate pairs under FSimbj with theta = 1 (the Figure-9
configuration) -- and solves it once on the numpy backend, serially,
with the compiled arena in RAM.

The solve runs in its **own subprocess**, so its peak RSS (``VmHWM``)
is the solve's alone, and an out-of-memory kill is recorded as
``{"oom": true}`` instead of taking the benchmark down.  The run
records compile seconds, iterate seconds, the iteration count, the
arena bytes, peak RSS and the SHA-256 of the full score vector: a
later change that moves any score bit on this workload changes that
digest.  ``--smoke`` solves a 400-node workload and also asserts its
scores bitwise equal to the reference python engine's.

Writes ``BENCH_scale.json`` with an environment stamp (nproc, Python,
numpy, source revision).  Run standalone:

    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke]
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for path in (REPO_ROOT / "src", REPO_ROOT):  # allow standalone execution
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from fsimbench.common import (  # noqa: E402
    child_env,
    environment,
    same_scores,
    vm_hwm_mb,
)

RESULT_PATH = REPO_ROOT / "BENCH_scale.json"

#: Full-scale workload (10^4 nodes, ~10^6 candidate pairs).
FULL_NODES = 10_000
FULL_LABELS = 100
FULL_EDGES_PER_NODE = 5

CHILD_MARKER = "BENCH_SCALE_CHILD_RESULT "


# ----------------------------------------------------------------------
# child process: one solve, RSS self-report
# ----------------------------------------------------------------------
def _workload(spec: dict):
    from repro.core.config import FSimConfig
    from repro.graph.generators import random_graph, uniform_labels
    from repro.simulation import Variant

    n = spec["nodes"]
    graph = random_graph(
        n, spec["edges"],
        uniform_labels(n, spec["labels"], seed=spec["seed"]),
        seed=spec["seed"] + 1,
    )
    config = FSimConfig(
        variant=Variant.BJ, label_function="indicator", theta=1.0,
        backend="numpy",
    )
    return graph, config


def run_child(spec: dict) -> dict:
    """Compile and iterate the workload; return the measurement."""
    import numpy as np

    from repro.core.compile import compile_fsim
    from repro.core.vectorized import VectorizedFSimEngine

    graph, config = _workload(spec)
    t0 = time.perf_counter()
    compiled = compile_fsim(graph, graph, config)
    compile_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    scores, iterations, converged, _ = VectorizedFSimEngine(
        compiled
    ).iterate()
    iterate_seconds = time.perf_counter() - t0
    result = {
        "candidate_pairs": int(compiled.num_feasible),
        "updatable_pairs": int(compiled.num_updatable),
        "arena_bytes": int(sum(compiled.arena_nbytes().values())),
        "compile_seconds": compile_seconds,
        "iterate_seconds": iterate_seconds,
        "iterations": int(iterations),
        "converged": bool(converged),
        "scores_sha256": hashlib.sha256(
            np.asarray(scores, dtype=np.float64).tobytes()
        ).hexdigest(),
        "peak_rss_mb": vm_hwm_mb(),
    }
    if spec["check_reference"]:
        from repro.core import fsim_matrix

        reference = fsim_matrix(
            graph, graph, config=config.with_options(backend="python")
        )
        result["reference_bitwise"] = (
            same_scores(reference.scores, compiled.result_scores(scores))
            and reference.iterations == iterations
        )
    return result


# ----------------------------------------------------------------------
# parent: the solve in a subprocess, the report
# ----------------------------------------------------------------------
def run_solve(spec: dict, timeout: float) -> dict:
    """The solve in its own interpreter; OOM recorded, not fatal."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", json.dumps(spec)],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
    )
    for line in proc.stdout.splitlines():
        if line.startswith(CHILD_MARKER):
            return json.loads(line[len(CHILD_MARKER):])
    # The kernel's OOM killer delivers SIGKILL (returncode -9);
    # MemoryError unwinds with a traceback.
    return {
        "oom": proc.returncode == -9 or "MemoryError" in proc.stderr,
        "error": f"child exited {proc.returncode}",
        "stderr_tail": proc.stderr.strip().splitlines()[-3:],
    }


def run_benchmark(nodes: int = FULL_NODES, labels: int = FULL_LABELS,
                  edges_per_node: int = FULL_EDGES_PER_NODE,
                  seed: int = 97, timeout: float = 3600.0,
                  smoke: bool = False) -> dict:
    spec = {
        "nodes": nodes,
        "edges": nodes * edges_per_node,
        "labels": labels,
        "seed": seed,
        "check_reference": smoke,
    }
    print(f"[bench_scale] solving n={nodes} ...", flush=True)
    return {
        "benchmark": "bench_scale",
        "smoke": smoke,
        "environment": environment(),
        "workload": dict(spec, variant="BJ", theta=1.0,
                         label_function="indicator", backend="numpy"),
        "run": run_solve(spec, timeout),
    }


def render(report: dict) -> str:
    run = report["run"]
    if "peak_rss_mb" not in run:
        return (f"# bench_scale: {'OOM' if run.get('oom') else 'FAILED'} "
                f"({run.get('error')})")
    line = (
        f"# bench_scale: n={report['workload']['nodes']}, "
        f"{run['candidate_pairs']} pairs, {run['iterations']} iters, "
        f"compile {run['compile_seconds']:.2f}s, "
        f"iterate {run['iterate_seconds']:.2f}s, "
        f"peak RSS {run['peak_rss_mb']:.0f} MB, "
        f"scores sha256 {run['scores_sha256'][:16]}"
    )
    if "reference_bitwise" in run:
        line += f", reference bitwise={run['reference_bitwise']}"
    return line


def write_report(report: dict, path=RESULT_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="400-node workload (CI), scores asserted "
                             "bitwise against the reference engine")
    parser.add_argument("--child", metavar="SPEC",
                        help="internal: run the solve and print its "
                             "measurement")
    parser.add_argument("--nodes", type=int, default=FULL_NODES)
    parser.add_argument("--labels", type=int, default=FULL_LABELS)
    parser.add_argument("--edges-per-node", type=int,
                        default=FULL_EDGES_PER_NODE)
    args = parser.parse_args(argv)

    if args.child:
        result = run_child(json.loads(args.child))
        print(CHILD_MARKER + json.dumps(result))
        return 0

    if args.smoke:
        report = run_benchmark(nodes=400, labels=8, edges_per_node=4,
                               timeout=600.0, smoke=True)
    else:
        report = run_benchmark(nodes=args.nodes, labels=args.labels,
                               edges_per_node=args.edges_per_node)
    print(render(report))
    write_report(report)
    print(f"wrote {RESULT_PATH}")
    run = report["run"]
    if "scores_sha256" not in run:
        return 1
    if run.get("reference_bitwise") is False:
        print("FAIL: scores diverged from the reference engine")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
