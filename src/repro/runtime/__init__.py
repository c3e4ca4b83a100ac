"""The unified executor runtime (Section 3.4 / Figure 9a, as a layer).

Iteration k of Algorithm 1 reads only iteration k-1 scores, so pair
updates parallelize without conflicts.  Every parallel caller runs on
one :class:`~repro.runtime.executor.Executor` over one in-RAM compiled
arena:

- :class:`~repro.runtime.executor.SerialExecutor` -- the in-process
  reference path (``workers == 1``);
- :class:`~repro.runtime.executor.ForkExecutor` -- a pool forked per
  run with the immutable state inherited copy-on-write (zero pickling
  of engines/compiled arrays; POSIX only);
- :class:`~repro.runtime.executor.SharedMemoryExecutor` -- a
  **persistent** worker pool (reused across queries, batches and
  streaming updates) with the sweep state double-buffered in
  ``multiprocessing.shared_memory``: each sweep ships only pair-id
  range descriptors, workers write their range's Equation-3 values
  straight into the shared output buffer.  Works under both fork and
  spawn start methods.

Executors are resolved from ``FSimConfig(workers=..., executor=...)``
(or per-call overrides) by :func:`resolve_executor`; pooled instances
are cached process-wide by :func:`get_executor` so repeated queries
share one pool.  All executors produce results bitwise identical to
serial iteration -- see ``tests/test_runtime.py``.
"""

from repro.runtime.executor import (
    EXECUTOR_KINDS,
    Executor,
    ForkExecutor,
    SerialExecutor,
    SharedMemoryExecutor,
    SweepChannel,
    evict_idle_executors,
    executor_registry_stats,
    get_executor,
    preferred_start_method,
    resolve_executor,
    shutdown_all,
    shutdown_executors,
    update_pairs,
)

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "ForkExecutor",
    "SerialExecutor",
    "SharedMemoryExecutor",
    "SweepChannel",
    "evict_idle_executors",
    "executor_registry_stats",
    "get_executor",
    "preferred_start_method",
    "resolve_executor",
    "shutdown_all",
    "shutdown_executors",
    "update_pairs",
]
