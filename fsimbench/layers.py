"""An all-pairs solve assembled from the layers' public functions, each
call timed from here.

``fsim_matrix`` runs plan lowering, compilation, the Jacobi iteration
and result materialization in one call.  :func:`layered_solve` makes
the same calls one by one -- ``core.plan.lower_graph``,
``core.compile.compile_fsim``, ``VectorizedFSimEngine.iterate`` with a
timed ``sweep=`` callback and ``CompiledFSim.result_scores`` -- so its
scores must equal ``fsim_matrix``'s bit for bit, and the differential
checks hold it to that.  No span lives inside the program: every timer
wraps a call made from this file.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.compile import compile_fsim
from repro.core.plan import clear_plan_caches, lower_graph
from repro.core.vectorized import VectorizedFSimEngine

from common import median, ms


class LayeredAnswer:
    """Scores, iteration facts and per-layer timings of one solve."""

    def __init__(self, scores, iterations, converged, trajectory, layers):
        self.scores: Dict = scores
        self.iterations: int = iterations
        self.converged: bool = converged
        #: Arena score levels (level 0 = initial) when requested.
        self.trajectory: Optional[List[np.ndarray]] = trajectory
        #: Per-layer timings and work counts (see :func:`layered_solve`).
        self.layers: dict = layers
        self.compiled = None


def _match_structures(compiled) -> list:
    out = []
    for term in (compiled.out_term, compiled.in_term):
        if term is not None and term.family == "match":
            out.append(term.structures[0])
    return out


def layered_solve(graph1, graph2, config, clear_caches: bool,
                  keep_trajectory: bool = False) -> LayeredAnswer:
    """Solve through the layer calls, timing each one.

    ``clear_caches`` drops the plan and label-table caches first (a
    cold solve).  The returned ``layers`` holds ``plan.lower_s``,
    ``compile.s``, ``iterate.s``, ``result.s``, the per-sweep times,
    and the work counts ``pairs``, ``match_entries``, ``arena_bytes``,
    ``sweeps``, ``pair_updates`` and ``entries_visited``.
    """
    if clear_caches:
        clear_plan_caches()
    t0 = time.perf_counter()
    lower_graph(graph1)
    if graph2 is not graph1:
        lower_graph(graph2)
    t1 = time.perf_counter()
    compiled = compile_fsim(graph1, graph2, config)
    t2 = time.perf_counter()
    engine = VectorizedFSimEngine(compiled)
    structures = _match_structures(compiled)
    num_updatable = compiled.num_updatable
    sweep_s: List[float] = []
    work = {"pair_updates": 0, "entries_visited": 0}

    def timed_sweep(scores: np.ndarray, upd: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        values = engine.sweep(scores, upd)
        sweep_s.append(time.perf_counter() - start)
        work["pair_updates"] += int(upd.size)
        for structure in structures:
            if upd.size == num_updatable:
                work["entries_visited"] += int(structure.ent_arena.size)
            else:
                work["entries_visited"] += int(
                    structure.ent_count[upd].sum()
                )
        return values

    trajectory: Optional[List[np.ndarray]] = [] if keep_trajectory else None
    t3 = time.perf_counter()
    scores, iterations, converged, _ = engine.iterate(
        sweep=timed_sweep, trajectory=trajectory
    )
    t4 = time.perf_counter()
    result = compiled.result_scores(scores)
    t5 = time.perf_counter()
    layers = {
        "plan.lower_s": t1 - t0,
        "compile.s": t2 - t1,
        "iterate.s": t4 - t3,
        "result.s": t5 - t4,
        "sweep_s": sweep_s,
        "pairs": int(num_updatable),
        "match_entries": int(sum(s.ent_arena.size for s in structures)),
        "arena_bytes": int(sum(compiled.arena_nbytes().values())),
        "sweeps": len(sweep_s),
        "pair_updates": work["pair_updates"],
        "entries_visited": work["entries_visited"],
    }
    answer = LayeredAnswer(result, iterations, converged, trajectory, layers)
    answer.compiled = compiled
    return answer


def level_scores(answer: LayeredAnswer, level: int) -> Dict:
    """The ``{pair: score}`` map of one trajectory level."""
    return answer.compiled.result_scores(answer.trajectory[level])


class LayerLedger:
    """Accumulates :func:`layered_solve` timings into the per-layer
    metrics of a traced run."""

    def __init__(self):
        self.solves: List[dict] = []

    def add(self, layers: dict) -> None:
        self.solves.append(layers)

    def metrics(self) -> Dict[str, dict]:
        solves = self.solves
        if not solves:
            raise ValueError("no layered solve was recorded")

        def p50(key: str) -> float:
            return median([solve[key] for solve in solves])

        sweeps = [s for solve in solves for s in solve["sweep_s"]]
        iterate_s = sum(solve["iterate.s"] for solve in solves)
        entries = sum(solve["entries_visited"] for solve in solves)
        return {
            "plan.lower_ms": {"value": ms(p50("plan.lower_s")),
                              "unit": "ms"},
            "compile.ms": {"value": ms(p50("compile.s")), "unit": "ms"},
            "compile.pairs": {"value": p50("pairs"), "unit": "count"},
            "compile.match_entries": {"value": p50("match_entries"),
                                      "unit": "count"},
            "compile.arena_mb": {"value": p50("arena_bytes") / 2 ** 20,
                                 "unit": "MB"},
            "iterate.ms": {"value": ms(p50("iterate.s")), "unit": "ms"},
            "iterate.sweep_p50_ms": {"value": ms(median(sweeps)),
                                     "unit": "ms"},
            "iterate.entries_per_s": {"value": entries / iterate_s,
                                      "unit": "1/s"},
            "iterate.sweeps": {"value": p50("sweeps"), "unit": "count"},
            "iterate.pair_updates": {"value": p50("pair_updates"),
                                     "unit": "count"},
            "result.ms": {"value": ms(p50("result.s")), "unit": "ms"},
        }
