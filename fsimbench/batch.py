"""The load process of the two library workloads.

``fig9-acmcit-x5``
    Reads only: each read is a cold all-pairs ``fsim_matrix`` solve of
    the ACMCit emulator x5 against itself (plan caches cleared first).

``stream-rand-3e3``
    Rounds of writes and reads on a 3e3-node random graph.  A write
    toggles one edge through a replay-mode ``IncrementalFSim`` and calls
    ``compute()``; a read is a cold ``fsim_matrix`` solve of a replica
    graph that received the same edits.  A round removes two seeded
    edges (one write each) and reads, then adds them back and reads.

The parent (``run.py``) launches this file and times the launch up to
the ``READY`` line's answer time: that is ``setup_s``.  With
``--setup-only`` the process exits there; otherwise it measures for
``--seconds`` of wall time, in whole rounds, then runs the post-run
checks and prints one ``RESULT`` line.  ``--trace 1`` runs the same
operations with every read assembled from timed layer calls
(:mod:`layers`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.api import fsim_matrix
from repro.core.engine import FSimEngine
from repro.core.plan import clear_plan_caches
from repro.streaming import IncrementalFSim

import inputs
from checks import (
    Verdict,
    answer_properties,
    check_equal,
    check_iterations,
    check_reference_step,
    check_same_scores,
)
from common import Recorder, median, scores_digest, vm_hwm_mb
from layers import LayerLedger, layered_solve, level_scores


def _ready(answer_at: float, verdict: Verdict) -> None:
    print("READY " + json.dumps({"answer_at": answer_at,
                                 "correct": verdict.ok,
                                 "verdict": verdict.report()}), flush=True)


def _reference_levels(answer, picker) -> list:
    """Consecutive trajectory levels to re-derive by reference: the last
    sweep and one seeded earlier one, with the sampled pairs.  Taking
    them out of the answer lets its compiled arena be freed."""
    last = answer.iterations
    levels = []
    for level in sorted({last, picker.level(last)}):
        prev = level_scores(answer, level - 1)
        new = level_scores(answer, level)
        pairs = picker.pairs(list(new.keys()), inputs.REFERENCE_SAMPLES)
        levels.append((prev, {pair: new[pair] for pair in pairs}))
    return levels


def _reference_check(verdict: Verdict, graph, config, levels) -> None:
    """One Equation-3 step of the dict-based reference engine from each
    previous level reproduces the sampled pairs bit for bit."""
    reference = FSimEngine(graph, graph, config)
    for prev, sampled in levels:
        verdict.run("reference_step", check_reference_step,
                    reference, prev, sampled, list(sampled))


def _api_solve(graph, config, clear: bool):
    if clear:
        clear_plan_caches()
    return fsim_matrix(graph, graph, config=config)


# ----------------------------------------------------------------------
# fig9-acmcit-x5
# ----------------------------------------------------------------------
def run_fig9(args, verdict: Verdict) -> dict:
    graph = inputs.fig9_graph()
    config = inputs.fig9_config()
    # The first answer comes from the layer calls with the trajectory
    # kept, so the reference engine can re-derive its last sweeps; every
    # read is then checked against it bit for bit.
    first = layered_solve(graph, graph, config, clear_caches=True,
                          keep_trajectory=True)
    answer_at = time.monotonic()
    answer_properties(verdict, first.scores, first.iterations, graph, config)
    levels = _reference_levels(first, inputs.OpPicker(args.seed))
    first.compiled = first.trajectory = None
    _ready(answer_at, verdict)
    if args.setup_only:
        return {}
    rec = Recorder()
    ledger = LayerLedger()
    first_read = None
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        rec.begin_round()
        if args.trace:
            out = rec.op("read", layered_solve, graph, graph, config, True)
            if out is None:
                continue
            ledger.add(out.layers)
            scores, iterations = out.scores, out.iterations
        else:
            out = rec.op("read", _api_solve, graph, config, True)
            if out is None:
                continue
            scores, iterations = out.scores, out.iterations
        verdict.run("read_vs_layered", check_same_scores, first.scores,
                    scores)
        verdict.run("repeat_iterations", check_equal,
                    first.iterations, iterations, "iterations")
        first_read = first_read or scores
    peak = vm_hwm_mb()
    _reference_check(verdict, graph, config, levels)
    return {"rec": rec, "ledger": ledger, "peak_rss_mb": peak,
            "first_read": first_read, "detail": {}}


# ----------------------------------------------------------------------
# stream-rand-3e3
# ----------------------------------------------------------------------
def _edit(session, op: str, edge) -> object:
    if op == "remove":
        session.log1.remove_edge(*edge)
    else:
        session.log1.add_edge(*edge)
    return session.compute()


def run_stream(args, verdict: Verdict) -> dict:
    graph = inputs.stream_graph()
    replica = inputs.stream_graph()
    config = inputs.stream_config()
    first = fsim_matrix(replica, replica, config=config)
    answer_at = time.monotonic()
    answer_properties(verdict, first.scores, first.iterations, replica,
                      config)
    _ready(answer_at, verdict)
    if args.setup_only:
        return {}
    # The writes' session is primed after the first answer, outside
    # setup_s: it is the measured operations' own set-up.
    session = IncrementalFSim(graph, graph, config, mode="replay")
    primed = session.compute()
    verdict.run("session_vs_cold", check_same_scores, first.scores,
                primed.scores)
    picker = inputs.OpPicker(args.seed)
    rec = Recorder()
    ledger = LayerLedger()
    stats0 = dict(session.stats)
    first_read = last = None
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        rec.begin_round()
        edges = picker.edges(graph, inputs.STREAM_EDGES_PER_ROUND)
        for op in ("remove", "add"):
            streamed = None
            for edge in edges:
                streamed = rec.op("write", _edit, session, op, edge)
                if op == "remove":
                    replica.remove_edge(*edge)
                else:
                    replica.add_edge(*edge)
                if streamed is not None:
                    verdict.run("write_iterations", check_iterations,
                                streamed.iterations, config)
            if args.trace:
                out = rec.op("read", layered_solve, replica, replica,
                              config, False)
                if out is not None:
                    ledger.add(out.layers)
            else:
                out = rec.op("read", _api_solve, replica, config, False)
            if out is None:
                continue
            answer_properties(verdict, out.scores, out.iterations, replica,
                              config)
            if streamed is not None:
                verdict.run("stream_vs_cold", check_same_scores,
                            out.scores, streamed.scores)
                verdict.run("stream_vs_cold_iterations", check_equal,
                            out.iterations, streamed.iterations,
                            "iterations")
            first_read = first_read or out
            last = out
    peak = vm_hwm_mb()
    writes = len(rec.writes) or 1
    patches = session.stats["compiled_patches"] - stats0["compiled_patches"]
    recompiles = (session.stats["full_recompiles"]
                  - stats0["full_recompiles"])
    detail = {
        "stream.patch_ratio": patches / writes,
        "stream.full_recompiles": recompiles,
    }
    if last is not None:
        check = layered_solve(replica, replica, config, clear_caches=False,
                              keep_trajectory=True)
        verdict.run("layered_vs_api", check_same_scores, last.scores,
                    check.scores)
        _reference_check(verdict, replica, config,
                         _reference_levels(check, picker))
    return {"rec": rec, "ledger": ledger, "peak_rss_mb": peak,
            "first_read": first_read.scores if first_read else None,
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(inputs.FIG9, inputs.STREAM),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    verdict = Verdict()
    runner = run_fig9 if args.workload == inputs.FIG9 else run_stream
    out = runner(args, verdict)
    if args.setup_only:
        return 0
    rec: Recorder = out["rec"]
    result = dict(rec.report())
    result.update({
        "peak_rss_mb": out["peak_rss_mb"],
        "correct": verdict.ok,
        "verdict": verdict.report(),
        "detail": out["detail"],
        # Equal between a traced and an untraced run of one seed.
        "first_read_sha256": (scores_digest(out["first_read"])
                              if out["first_read"] is not None else None),
    })
    if args.trace:
        ledger: LayerLedger = out["ledger"]
        result["layers"] = ledger.metrics() if ledger.solves else None
        if rec.writes:
            result["detail"]["stream.compute_ms"] = 1000.0 * median(
                rec.writes)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
