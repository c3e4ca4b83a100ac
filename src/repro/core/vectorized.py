"""The vectorized FSim engine: Algorithm 1 over compiled numpy arrays.

Runs the same fixed-point iteration as :class:`repro.core.engine.FSimEngine`
but on the integer-indexed representation of :mod:`repro.core.compile`:

- the s/b mapping terms become segment-max reductions
  (``np.maximum.reduceat`` over precomputed per-source groups) followed
  by per-pair segment sums;
- the cross/SimRank term becomes a per-pair segment sum;
- the dp/bj greedy matching runs in one *position-major* kernel
  (:func:`greedy_matching_sums`): an entry's weight and repr tie-break
  are functions of its arena pair alone, so ranking the arena once per
  sweep (:func:`greedy_rank`) orders every problem's entries.  One sort
  lines each problem's entries up in that order; step ``k`` then takes
  the ``k``-th entry of every live problem at once.  Slots are disjoint
  across problems, so a step has no conflicts, and each problem's sum
  accumulates in its own visit order -- bit for bit the reference's.
  The last few long problems finish in a short sequential loop;
- after each sweep, the *incremental scheduler* re-queues only the pairs
  whose Equation-3 inputs changed (``dirty_tolerance`` widens "changed"
  to ``|change| > tol``; the default 0.0 keeps the trajectory bitwise
  identical to the reference engine, because recomputing a pair from
  unchanged inputs reproduces its value exactly).

The engine is selected through ``FSimConfig(backend=...)`` -- see
:meth:`repro.core.engine.FSimEngine.run` for the dispatch rules and
docs/PERF.md for the design notes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.compile import (
    CompiledFSim,
    DirectionTerm,
    MatchStructure,
    compile_fsim,
    ragged_indices,
    segment_sum,
)
from repro.obs.profiling import (
    observe_greedy_kernel,
    observe_iterations,
    phase,
)

#: Arena-pair score changes larger than this re-queue the dependent pairs
#: for the next sweep.  0.0 (exact) is sound for any configuration: a
#: pair none of whose inputs changed recomputes to the same float.
DEFAULT_DIRTY_TOLERANCE = 0.0

SweepFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Once fewer problems than this are still matching, the greedy kernel
#: finishes them one entry at a time: for so few problems a numpy step
#: per entry costs more than a plain loop (hub problems run long).
TAIL_PROBLEMS = 48


def greedy_rank(scores: np.ndarray, tie_rank: np.ndarray) -> np.ndarray:
    """The reference greedy's visit rank of every arena pair.

    Sorting the arena by ``(-score, repr-rank)`` orders the entries of
    *every* matching problem at once.  Pairs with score <= 0, which the
    reference greedy never visits, get the sentinel ``len(scores)``.
    """
    order = np.lexsort((tie_rank, -scores))
    num_positive = int(np.count_nonzero(scores > 0.0))
    rank = np.full(len(scores), len(scores), dtype=np.int64)
    rank[order[:num_positive]] = np.arange(num_positive, dtype=np.int64)
    return rank


def greedy_matching_sums(
    structure: MatchStructure, rank: np.ndarray, scores: np.ndarray,
    upd: np.ndarray,
) -> Tuple[np.ndarray, int, int]:
    """Greedy max-weight matching sums of the problems at ``upd``.

    Position-major: one argsort by ``problem * (sentinel + 1) + rank``
    puts each problem's positive entries first, in visit order.  With
    problems ordered longest first, the problems that still have an
    entry at step ``k`` are a prefix; step ``k`` checks the ``k``-th
    entry of every live problem against the used-slot masks in one
    vectorized pass and adds the survivors' weights.  A problem leaves
    once it has ``cap`` matches or runs out of entries.  When fewer than
    :data:`TAIL_PROBLEMS` remain, each finishes in a sequential loop.
    Every sum accumulates in its problem's visit order, so the result is
    bitwise the reference's.

    Returns ``(totals, steps, tail_problems)``.
    """
    num = len(upd)
    totals = np.zeros(num, dtype=np.float64)
    if num == 0 or structure.ent_arena.size == 0:
        return totals, 0, 0
    sentinel = len(rank)
    if num == len(structure.ent_count):  # full sweep
        counts = structure.ent_count
        caps = structure.cap
        entries = None
        ent_rank = rank[structure.ent_arena]
    else:
        counts = structure.ent_count[upd]
        caps = structure.cap[upd]
        entries = ragged_indices(structure.ent_start[upd], counts)
        ent_rank = rank[structure.ent_arena[entries]]
    # Sort: each problem's positive entries first, in visit order.
    starts = np.cumsum(counts) - counts
    seen = np.zeros(ent_rank.size + 1, dtype=np.int64)
    np.cumsum(ent_rank < sentinel, out=seen[1:])
    positive = seen[starts + counts] - seen[starts]
    del seen
    key = np.repeat(np.arange(num, dtype=np.int64) * (sentinel + 1), counts)
    key += ent_rank
    del ent_rank
    order = np.argsort(key)
    del key
    if entries is not None:
        order = entries[order]
        del entries
    # Order problems longest first: the live ones are always a prefix.
    live = np.argsort(-positive, kind="stable")[:np.count_nonzero(positive)]
    length = positive[live]
    pos = starts[live]
    left = caps[live]
    lslot, rslot, arena = (
        structure.ent_lslot, structure.ent_rslot, structure.ent_arena
    )
    lused = np.zeros(structure.num_lslots, dtype=bool)
    rused = np.zeros(structure.num_rslots, dtype=bool)
    # Steps: the k-th entry of every live problem at once; no two share
    # a slot, so the stamps of one step never conflict.
    step = 0
    while live.size >= TAIL_PROBLEMS:
        ent = order[pos]
        lefts = lslot[ent]
        rights = rslot[ent]
        won = np.flatnonzero(~(lused[lefts] | rused[rights]))
        step += 1
        pos += 1
        keep = None
        if won.size:
            lused[lefts[won]] = True
            rused[rights[won]] = True
            totals[live[won]] += scores[arena[ent[won]]]
            left[won] -= 1
            saturated = won[left[won] == 0]
            if saturated.size:
                keep = length > step
                keep[saturated] = False
        if keep is None and length[-1] <= step:
            keep = length > step
        if keep is not None:
            live, length, pos, left = (
                live[keep], length[keep], pos[keep], left[keep]
            )
    # Tail: the few problems left finish one entry at a time.  Their
    # slots are their own, so per-problem sets replace the masks.
    for p, start, end, n in zip(
        live.tolist(), pos.tolist(), (pos + length - step).tolist(),
        left.tolist(),
    ):
        ent = order[start:end]
        lefts = lslot[ent]
        rights = rslot[ent]
        free = np.flatnonzero(~(lused[lefts] | rused[rights]))
        taken_l: set = set()
        taken_r: set = set()
        total = float(totals[p])
        for a, b, w in zip(
            lefts[free].tolist(), rights[free].tolist(),
            scores[arena[ent[free]]].tolist(),
        ):
            if a in taken_l or b in taken_r:
                continue
            taken_l.add(a)
            taken_r.add(b)
            total += w
            n -= 1
            if n == 0:
                break
        totals[p] = total
    return totals, step, int(live.size)


class VectorizedFSimEngine:
    """Array-program evaluator for one compiled FSim instance."""

    def __init__(self, compiled: CompiledFSim,
                 dirty_tolerance: float = DEFAULT_DIRTY_TOLERANCE):
        self.compiled = compiled
        self.dirty_tolerance = float(dirty_tolerance)
        #: Per-sweep cache of the arena greedy rank (both directions of a
        #: sweep read the same pre-sweep scores).
        self._rank_cache = None

    # ------------------------------------------------------------------
    # one synchronous sweep over the dirty pairs
    # ------------------------------------------------------------------
    def sweep(self, scores: np.ndarray, upd: np.ndarray) -> np.ndarray:
        """Equation-3 values of the pairs at positions ``upd`` (reading
        the pre-sweep ``scores`` only, Jacobi style)."""
        compiled = self.compiled
        cfg = compiled.config
        self._rank_cache = None
        out_vals: object = 0.0
        in_vals: object = 0.0
        if compiled.out_term is not None:
            out_vals = self._term(scores, upd, compiled.out_term)
        if compiled.in_term is not None:
            in_vals = self._term(scores, upd, compiled.in_term)
        raw = (
            cfg.w_out * out_vals
            + cfg.w_in * in_vals
            + cfg.w_label * compiled.upd_label[upd]
        )
        return np.minimum(np.maximum(raw, 0.0), 1.0)

    def _term(self, scores: np.ndarray, upd: np.ndarray,
              term: DirectionTerm) -> np.ndarray:
        if term.family == "sb":
            forward, backward = term.structures
            total = self._sb_totals(scores, upd, forward)
            if backward is not None:
                total = total + self._sb_totals(scores, upd, backward)
        elif term.family == "cross":
            (structure,) = term.structures
            if upd.size == len(self.compiled.upd_arena):  # full sweep
                total = segment_sum(
                    scores[structure.ent_arena], structure.ent_count
                )
            else:
                counts = structure.ent_count[upd]
                idx = ragged_indices(structure.ent_start[upd], counts)
                total = segment_sum(scores[structure.ent_arena[idx]], counts)
        else:
            total = self._match_totals(scores, upd, term)
        conv = term.conv[upd]
        values = conv.copy()
        active = np.isnan(conv)
        if active.any():
            values[active] = np.minimum(
                total[active] / term.denom[upd][active], 1.0
            )
        return values

    def _sb_totals(self, scores, upd, structure) -> np.ndarray:
        """Sum over sources of the best feasible target weight.

        Each group maximum is floored at 0.0 like the reference
        ``_best_match_sum`` (its running best starts at 0.0, so a source
        whose feasible targets all score negative -- possible through
        negative pinned values -- contributes nothing).
        """
        if upd.size == len(self.compiled.upd_arena):  # full sweep
            weights = scores[structure.ent_arena]
            grp_counts = structure.grp_count
            starts = structure.grp_pos_full
        else:
            ent_counts = structure.ent_count[upd]
            idx = ragged_indices(structure.ent_start[upd], ent_counts)
            weights = scores[structure.ent_arena[idx]]
            grp_counts = structure.grp_count[upd]
            gidx = ragged_indices(structure.grp_start[upd], grp_counts)
            lengths = structure.grp_len[gidx]
            starts = np.cumsum(lengths) - lengths
        if starts.size:
            maxima = np.maximum(np.maximum.reduceat(weights, starts), 0.0)
        else:
            maxima = np.empty(0, dtype=np.float64)
        return segment_sum(maxima, grp_counts)

    def _match_totals(self, scores, upd, term: DirectionTerm) -> np.ndarray:
        if self._rank_cache is None:
            self._rank_cache = greedy_rank(scores, self.compiled.tie_rank)
        (structure,) = term.structures
        totals, steps, tail = greedy_matching_sums(
            structure, self._rank_cache, scores, upd
        )
        observe_greedy_kernel(steps, tail)
        return totals

    # ------------------------------------------------------------------
    # the fixed-point loop with the dirty-pair scheduler
    # ------------------------------------------------------------------
    def iterate(
        self,
        sweep: Optional[SweepFn] = None,
        scores_init: Optional[np.ndarray] = None,
        upd0: Optional[np.ndarray] = None,
        trajectory: Optional[List[np.ndarray]] = None,
    ) -> Tuple[np.ndarray, int, bool, List[float]]:
        """Run Algorithm 1 to convergence; returns
        ``(scores, iterations, converged, deltas)``.

        ``scores_init`` / ``upd0`` warm-start the fixed point (Theorem 1
        guarantees convergence from any starting vector): iteration
        begins from the given arena score array with only the given
        ``upd_arena`` positions scheduled, instead of the
        L-initialization with everything scheduled.  The streaming layer
        (:mod:`repro.streaming`) uses this to resume from a previous
        result after a graph delta, seeding the scheduler with the
        delta's frontier.

        When ``trajectory`` is a list, a copy of the full arena score
        array is appended before the first sweep and after every sweep
        (the per-iteration Jacobi trajectory) -- the state
        :meth:`iterate_incremental` replays.  Memory is
        ``(iterations + 1) * num_feasible`` floats.
        """
        compiled = self.compiled
        sweep = sweep or self.sweep
        if scores_init is None:
            scores = compiled.scores0.copy()
        else:
            scores = np.array(scores_init, dtype=np.float64, copy=True)
        if upd0 is None:
            upd = np.arange(len(compiled.upd_arena), dtype=np.int64)
        else:
            upd = np.unique(np.asarray(upd0, dtype=np.int64))
        if trajectory is not None:
            trajectory.append(scores.copy())
        deltas: List[float] = []
        converged = False
        iterations = 0
        epsilon = compiled.config.epsilon
        with phase("engine.iterate"):
            for _ in range(compiled.config.iteration_budget()):
                iterations += 1
                if upd.size:
                    new_values = sweep(scores, upd)
                    arena_ids = compiled.upd_arena[upd]
                    change = np.abs(new_values - scores[arena_ids])
                    delta = float(change.max())
                    scores[arena_ids] = new_values
                    dirty = arena_ids[change > self.dirty_tolerance]
                else:
                    delta = 0.0
                    dirty = np.empty(0, dtype=np.int64)
                deltas.append(delta)
                if trajectory is not None:
                    trajectory.append(scores.copy())
                if delta < epsilon:
                    converged = True
                    break
                upd = compiled.dependents(dirty)
        observe_iterations(iterations, converged)
        return scores, iterations, converged, deltas

    def iterate_incremental(
        self,
        trajectory: List[np.ndarray],
        touched: np.ndarray,
        dirty0: Optional[np.ndarray] = None,
        sweep: Optional[SweepFn] = None,
    ) -> Tuple[np.ndarray, int, bool, List[float]]:
        """Replay the cold Jacobi trajectory after a structural delta.

        With ``dirty_tolerance == 0.0`` the scheduled iteration of
        :meth:`iterate` follows the full Jacobi trajectory bit for bit
        (a pair none of whose inputs changed recomputes to the same
        float), so the cold run after a graph delta is a deterministic
        function of the compiled instance.  This method computes that
        *exact* trajectory incrementally from the previous run's:

        - ``trajectory`` holds the previous run's per-iteration arena
          score arrays (``trajectory[0]`` must already hold the *new*
          initial scores; later levels hold the previous run's values,
          with NaN in any slot that has no usable history).  It is
          mutated in place into the new run's trajectory.
        - ``touched`` are the ``upd_arena`` positions whose update rule
          changed (entry lists, denominators, label term) -- they are
          re-swept every iteration.  Positions with NaN history must be
          included.
        - ``dirty0`` are arena pair-ids whose level-0 scores differ from
          the previous run's (label-driven initial changes).

        Every other pair is re-swept only once its Equation-3 inputs
        diverge from the previous trajectory, and the divergence
        frontier is tracked *bitwise*: a pair that recomputes to its
        previous-run value (common under clamping) re-converges and
        stops propagating.  The returned ``(scores, iterations,
        converged, deltas)`` is bitwise identical to a cold
        :meth:`iterate` on the same compiled instance.
        """
        compiled = self.compiled
        sweep = sweep or self.sweep
        epsilon = compiled.config.epsilon
        num_updatable = compiled.num_updatable
        touched = np.unique(np.asarray(touched, dtype=np.int64))
        if dirty0 is None:
            dirty_arena = np.empty(0, dtype=np.int64)
        else:
            dirty_arena = np.unique(np.asarray(dirty0, dtype=np.int64))
        deltas: List[float] = []
        converged = False
        iterations = 0
        with phase("engine.iterate"):
            for level in range(1, compiled.config.iteration_budget() + 1):
                iterations += 1
                prev = trajectory[level - 1]
                if level >= len(trajectory):
                    # Beyond the previous run's horizon: no history to
                    # replay against, fall back to full sweeps.
                    cur = prev.copy()
                    trajectory.append(cur)
                    upd = np.arange(num_updatable, dtype=np.int64)
                else:
                    cur = trajectory[level]
                    deps = compiled.dependents(dirty_arena)
                    if deps.size >= num_updatable:
                        upd = deps  # full sweep; touched is a subset
                    else:
                        upd = np.union1d(touched, deps)
                if upd.size:
                    new_values = sweep(prev, upd)
                    arena_ids = compiled.upd_arena[upd]
                    previous_run = cur[arena_ids]
                    cur[arena_ids] = new_values
                    # NaN history compares unequal to everything, so
                    # pairs without usable history always propagate.
                    with np.errstate(invalid="ignore"):
                        changed = new_values != previous_run
                    dirty_arena = arena_ids[changed]
                else:
                    dirty_arena = np.empty(0, dtype=np.int64)
                delta = float(np.abs(cur - prev).max()) if cur.size else 0.0
                deltas.append(delta)
                if delta < epsilon:
                    converged = True
                    break
        observe_iterations(iterations, converged)
        del trajectory[iterations + 1:]
        return trajectory[iterations], iterations, converged, deltas


def run_vectorized(engine, executor=None):
    """Run ``engine``'s computation on the numpy backend.

    ``engine`` is a :class:`repro.core.engine.FSimEngine`; the caller has
    already checked :func:`repro.core.engine.vectorized_fallback_reason`.
    ``executor`` (an :class:`repro.runtime.executor.Executor`, or
    ``None`` to resolve one from ``config.workers``) runs the sweeps;
    every executor returns the same
    :class:`~repro.core.engine.FSimResult` bit for bit.
    """
    from repro.core.engine import FSimResult
    from repro.runtime import resolve_executor

    compiled = compile_fsim(engine.graph1, engine.graph2, engine.config)
    vectorized = VectorizedFSimEngine(compiled)
    if executor is None:
        executor = resolve_executor(engine.config)
    with executor.sweep_session(vectorized) as sweep:
        scores, iterations, converged, deltas = vectorized.iterate(
            sweep=sweep
        )
    return FSimResult(
        scores=compiled.result_scores(scores),
        config=engine.config,
        iterations=iterations,
        converged=converged,
        deltas=deltas,
        num_candidates=compiled.num_candidates,
        fallback=engine.result_fallback(),
    )
