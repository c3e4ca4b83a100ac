"""The unified executor runtime (Section 3.4 / Figure 9a, as a layer).

Iteration k of Algorithm 1 reads only iteration k-1 scores, so pair
updates parallelize without conflicts.  Every parallel caller runs on
one :class:`~repro.runtime.executor.Executor` over one in-RAM compiled
arena, and ``workers`` is the only knob:

- ``workers == 1`` -- :class:`~repro.runtime.executor.SerialExecutor`,
  the in-process reference path;
- ``workers > 1`` -- :class:`~repro.runtime.executor.ForkExecutor`, a
  pool forked per session with the engine and compiled arrays
  inherited copy-on-write (nothing pickled on the way in).

:func:`resolve_executor` maps ``FSimConfig(workers=...)`` (or a per-call
override) to one of them.  The platform rule: parallel where fork
exists, serial with a ``RuntimeWarning`` elsewhere.  Either way the
results are bitwise identical to serial iteration -- see
``tests/test_runtime.py``.
"""

from repro.runtime.executor import (
    Executor,
    ForkExecutor,
    SerialExecutor,
    fork_available,
    resolve_executor,
    update_pairs,
)

__all__ = [
    "Executor",
    "ForkExecutor",
    "SerialExecutor",
    "fork_available",
    "resolve_executor",
    "update_pairs",
]
