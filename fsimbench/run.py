"""FSim benchmark: one command for the three workloads.

    python3 fsimbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fsimbench/run.py --workload NAME --repeat K [--seed N] ...

Run from the root of a checkout; the program under test is ``src/repro``
of that checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the environment stamp and the
figures a single metric name cannot carry (tails with their sample
counts, write latencies, server-side layers).

``--repeat K`` runs the workload K times, seeds N..N+K-1, each in its
own process, and prints each end-to-end metric's median and quartile
spread ((Q3 - Q1) / median); it then makes one traced run of seed N and
prints the tracing overhead on ``read_p50_ms``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    SERIAL_ENV,
    SRC,
    child_env,
    emit,
    fail,
    median,
    metric,
    quartile_spread,
    timing_ms,
)

WORKLOADS = ("fig9-acmcit-x5", "stream-rand-3e3", "service-nell-x5")
BATCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "batch.py")
#: Longest wait for one line from a load process.
LINE_TIMEOUT = 170.0


def _read_tagged(proc, tag: str) -> dict:
    """The JSON payload of the next ``TAG {...}`` line of a child."""
    deadline = time.monotonic() + LINE_TIMEOUT
    while True:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise RuntimeError(f"no {tag} line within {LINE_TIMEOUT}s")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"load process ended without a {tag} line")
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])


def _launch(args, setup_only: bool):
    command = [sys.executable, BATCH, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    launched_at = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, env=child_env(),
                            cwd=str(ROOT))
    return proc, launched_at


def _finish(proc) -> None:
    try:
        code = proc.wait(timeout=LINE_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
        raise RuntimeError("load process did not exit")
    finally:
        proc.stdout.close()
    if code != 0:
        raise RuntimeError(f"load process exited with code {code}")


def run_batch(args) -> dict:
    """fig9-acmcit-x5 / stream-rand-3e3: set-up launches, then one load
    process that measures (see batch.py)."""
    from inputs import SETUP_REPEATS  # imports repro: src/ was checked

    setups = []
    setup_ok = True
    repeats = SETUP_REPEATS[args.workload]
    for index in range(repeats):
        last = index == repeats - 1
        proc, launched_at = _launch(args, setup_only=not last)
        try:
            ready = _read_tagged(proc, "READY")
            setups.append(ready["answer_at"] - launched_at)
            setup_ok = setup_ok and ready["correct"]
            if last:
                out = _read_tagged(proc, "RESULT")
        except BaseException:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            raise
        _finish(proc)
    out["setups_s"] = setups
    out["correct"] = out["correct"] and setup_ok
    return out


def measure(args) -> dict:
    if args.workload == "service-nell-x5":
        import service

        return service.run(args)
    return run_batch(args)


def single(args) -> int:
    from common import environment

    out = measure(args)
    reads, writes = out["reads_s"], out["writes_s"]
    if not reads:
        fail("the run completed no read")
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(),
        "read_ms": timing_ms(reads),
        "setups_s": out["setups_s"],
        "verdict": out["verdict"],
        "first_read_sha256": out["first_read_sha256"],
    }
    if writes:
        detail["write_ms"] = timing_ms(writes)
    detail.update(out["detail"])
    if out.get("errors"):
        detail["errors"] = out["errors"]
    read_p50 = detail["read_ms"]["p50"]
    if args.trace:
        detail["traced_read_p50_ms"] = read_p50
        metrics = out["layers"]
        if metrics is None:
            fail("the traced run recorded no layered solve")
    else:
        metrics = {
            "read_p50_ms": metric(read_p50, "ms"),
            "ops_per_s": metric(out["ops_per_s"], "1/s"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
            "setup_s": metric(median(out["setups_s"]), "s"),
        }
    emit({"detail": detail})
    emit({"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
          "failed": int(out["failed"]), "metrics": metrics})
    return 0


def _child_result(args, seed: int, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(ROOT), timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"seed {seed} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def repeat(args) -> int:
    """K runs on consecutive seeds: median and spread per metric."""
    runs = [_child_result(args, args.seed + i, 0) for i in range(args.repeat)]
    names = list(runs[0]["result"]["metrics"])
    summary = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        summary[name] = dict(quartile_spread(values), values=values)
    for figure, key in (("write_ms", "p50"), ("write_ms", "tail"),
                        ("read_ms", "tail")):
        values = [run["detail"][figure][key] for run in runs
                  if key in run["detail"].get(figure, {})]
        if values and len(values) == len(runs):
            if key == "tail":
                values = [value["value"] for value in values]
            summary[f"detail.{figure}.{key}"] = dict(
                quartile_spread(values), values=values)
    shares = sorted({run["result"]["failed"] / run["result"]["attempted"]
                     for run in runs})
    traced = _child_result(args, args.seed, 1)
    untraced_p50 = runs[0]["result"]["metrics"]["read_p50_ms"]["value"]
    report = {
        "workload": args.workload, "runs": args.repeat,
        "first_seed": args.seed, "seconds": args.seconds,
        "correct": all(run["result"]["correct"] for run in runs)
        and traced["result"]["correct"],
        "failed_shares": shares,
        "metrics": summary,
        "traced_vs_untraced_same_scores": (
            traced["detail"]["first_read_sha256"]
            == runs[0]["detail"]["first_read_sha256"]),
        "tracing_overhead_ms": (traced["detail"]["traced_read_p50_ms"]
                                - untraced_p50),
        "traced": traced,
    }
    print(json.dumps(report, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="FSim benchmark (see fsimbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run K seeds and print medians and spreads")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(1, str(SRC))
    os.environ.update(SERIAL_ENV)  # before numpy loads in this process
    if args.repeat:
        return repeat(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
