"""Executor implementations for the unified parallel runtime.

An :class:`Executor` exposes three workload shapes:

``sweep_session(vectorized)``
    Context manager yielding a drop-in ``sweep(scores, upd)`` for the
    vectorized fixed-point loop (or ``None`` to keep the caller's own
    serial sweep).  The parallel form shards the dirty pair positions
    into contiguous ranges.

``pair_session(engine, shards)``
    Context manager yielding ``step(prev) -> (scores, max_delta)`` for
    the reference (dict) engine: one synchronous Jacobi iteration over
    the pre-sharded candidate pairs, with the max-delta reduction done
    shard-locally in the workers (or ``None`` for serial).

``run_queries(engines)``
    Whole-query sharding for multi-query batches.  Returns a list of
    ``(position, scores, iterations, converged, deltas, num_candidates)``
    tuples, or ``None`` to make the caller run serially.

There are two executors.  :class:`SerialExecutor` runs everything in
process; :class:`ForkExecutor` forks a pool per session, so engines and
compiled arrays reach the workers copy-on-write and nothing but the
per-sweep score vectors is pickled.  Pools are created **lazily**: a
session that never crosses the parallel threshold (every sweep's dirty
set is tiny) never forks a process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import warnings
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.core.engine import update_pairs
from repro.exceptions import ConfigError

#: Sweeps with fewer dirty positions than this never leave the parent
#: process: per-task dispatch overhead (hundreds of microseconds per
#: worker) dwarfs the vectorized sweep arithmetic below it.  Also the
#: pool-fork gate -- a session whose sweeps all stay below it never
#: creates a pool at all.
MIN_PARALLEL_UPD = 1024

#: Same gate for the reference (dict) engine's pair updates.  A python
#: ``update_pair`` costs orders of magnitude more than one vectorized
#: lane, so its break-even sits far lower than MIN_PARALLEL_UPD.
MIN_PARALLEL_PAIRS = 64


def fork_available() -> bool:
    """Whether this platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def round_robin_shards(items: Sequence, workers: int) -> List[list]:
    """Round-robin shards of ``items``, one per worker (input order kept
    within each shard).  The single sharding policy of the runtime:
    the dict-engine pair shards and the whole-query shards both use it,
    so parent loops and workers agree on ordering by construction.
    """
    items = list(items)
    workers = max(int(workers), 1)
    return [items[index::workers] for index in range(workers)]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: State inherited through fork by ForkExecutor pools, keyed by a
#: per-session token (set immediately before the lazy pool creation, so
#: concurrent sessions from different threads never clobber each other;
#: every task names its token).
_FORK_SHARED: Dict[int, dict] = {}

_FORK_TOKENS = itertools.count(1)


def _fork_sweep_worker(args):
    token, scores, upd = args
    return _FORK_SHARED[token]["vectorized"].sweep(scores, upd)


def _fork_pair_worker(args):
    token, shard_index, prev = args
    state = _FORK_SHARED[token]
    return update_pairs(state["engine"], state["shards"][shard_index], prev)


def _fork_query_worker(args) -> List[tuple]:
    token, shard_index = args
    state = _FORK_SHARED[token]
    rows = []
    for position in state["query_shards"][shard_index]:
        result = state["engines"][position].run(workers=1)
        # The fallback callable is a bound method of the worker's engine
        # copy; the parent reattaches its own instead of pickling it.
        rows.append((
            position, result.scores, result.iterations, result.converged,
            result.deltas, result.num_candidates,
        ))
    return rows


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class Executor:
    """Serial base protocol; the fork executor overrides the sessions.

    Every session degrades to ``None`` (= caller runs its own serial
    path) rather than failing, so callers keep one loop for both.
    """

    workers = 1

    @contextmanager
    def sweep_session(self, vectorized):
        """Yield a parallel ``sweep(scores, upd)`` or ``None``."""
        yield None

    @contextmanager
    def pair_session(self, engine, shards: Sequence[list]):
        """Yield a parallel ``step(prev) -> (scores, delta)`` or ``None``."""
        yield None

    def run_queries(self, engines: Sequence) -> Optional[List[tuple]]:
        """Whole-query sharding; ``None`` = caller runs serially."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """The in-process path: every session yields ``None``."""


class ForkExecutor(Executor):
    """A pool forked per session, state inherited copy-on-write.

    Nothing is pickled on the way in (engines and compiled arrays reach
    the workers through fork), so configs holding unpicklable callables
    run in parallel too.  The pool is forked lazily on first use and
    torn down when the session ends, so an executor holds no resources
    between sessions and one instance may serve concurrent sessions
    from several threads.  POSIX only.
    """

    #: Pools forked by every ForkExecutor in this process (the parity
    #: tests assert on it, so a silent serial fallback cannot pass).
    pools_created = 0

    def __init__(self, workers: int):
        self.workers = max(int(workers), 1)
        self._context = multiprocessing.get_context("fork")

    def _fork(self, processes: int):
        ForkExecutor.pools_created += 1
        return self._context.Pool(processes=processes)

    @contextmanager
    def _forked_pool(self, state: dict):
        """Yield ``(ensure_pool, token)``; the pool forks on the first
        ``ensure_pool()`` call and is terminated on exit."""
        holder: dict = {"pool": None}
        token = next(_FORK_TOKENS)

        def ensure_pool():
            if holder["pool"] is None:
                holder["pool"] = self._fork(self.workers)
            return holder["pool"]

        _FORK_SHARED[token] = state
        try:
            yield ensure_pool, token
        finally:
            pool = holder["pool"]
            if pool is not None:
                pool.terminate()
                pool.join()
            _FORK_SHARED.pop(token, None)

    @contextmanager
    def sweep_session(self, vectorized):
        import numpy as np

        threshold = max(self.workers, MIN_PARALLEL_UPD)
        if int(vectorized.compiled.num_updatable) < threshold:
            # Every sweep is a subset of upd_arena: nothing to gain.
            yield None
            return
        with self._forked_pool(
            {"vectorized": vectorized}
        ) as (ensure_pool, token):

            def sweep(scores, upd):
                if upd.size < threshold:
                    return vectorized.sweep(scores, upd)
                shards = np.array_split(upd, self.workers)
                parts = ensure_pool().map(
                    _fork_sweep_worker,
                    [(token, scores, shard)
                     for shard in shards if shard.size],
                )
                return np.concatenate(parts)

            yield sweep

    @contextmanager
    def pair_session(self, engine, shards):
        shards = list(shards)
        total = sum(len(shard) for shard in shards)
        if total < max(self.workers, MIN_PARALLEL_PAIRS):
            # Per-iteration dispatch plus pickling the previous score
            # dict dwarfs a handful of ``update_pair`` calls.
            yield None
            return
        with self._forked_pool(
            {"engine": engine, "shards": shards}
        ) as (ensure_pool, token):
            indices = [i for i, shard in enumerate(shards) if shard]

            def step(prev):
                parts = ensure_pool().map(
                    _fork_pair_worker, [(token, i, prev) for i in indices]
                )
                merged: dict = {}
                delta = 0.0
                for partial, local in parts:
                    merged.update(partial)
                    if local > delta:
                        delta = local
                return merged, delta

            yield step

    def run_queries(self, engines):
        if len(engines) < 2 or self.workers < 2:
            return None
        _warm_shared_plans(engines)
        workers = min(self.workers, len(engines))
        token = next(_FORK_TOKENS)
        _FORK_SHARED[token] = {
            "engines": list(engines),
            "query_shards": round_robin_shards(range(len(engines)), workers),
        }
        try:
            with self._fork(workers) as pool:
                partials = pool.map(
                    _fork_query_worker, [(token, i) for i in range(workers)]
                )
        finally:
            _FORK_SHARED.pop(token, None)
        return [row for partial in partials for row in partial]


def _warm_shared_plans(engines) -> None:
    """Pre-lower graphs shared by several numpy-backed engines so forked
    workers inherit the cached plan instead of recompiling it each."""
    shared_counts: Dict[int, int] = {}
    for engine in engines:
        for graph in (engine.graph1, engine.graph2):
            shared_counts[id(graph)] = shared_counts.get(id(graph), 0) + 1
    warmed = set()
    for engine in engines:
        if engine._resolve_backend() != "numpy":
            continue
        from repro.core.plan import lower_graph  # numpy-only dependency

        for graph in (engine.graph1, engine.graph2):
            if shared_counts[id(graph)] > 1 and id(graph) not in warmed:
                warmed.add(id(graph))
                lower_graph(graph)


_SERIAL = SerialExecutor()


def resolve_executor(config=None, workers: Optional[int] = None) -> Executor:
    """The executor for ``workers`` (default ``config.workers``).

    One worker runs serially; more fork a pool per session.  Where the
    platform cannot fork, ``workers > 1`` warns and runs serially --
    results are bitwise identical either way.
    """
    if workers is None:
        workers = getattr(config, "workers", 1)
    workers = int(workers)
    if workers < 1:
        raise ConfigError(f"workers must be positive, got {workers}")
    if workers == 1:
        return _SERIAL
    if not fork_available():
        warnings.warn(
            "fork start method unavailable; running serially",
            RuntimeWarning, stacklevel=2,
        )
        return _SERIAL
    return ForkExecutor(workers)
