"""Per-phase profiling hooks for the engine and runtime layers.

:func:`phase` is the one instrumentation primitive the compute layers
use -- ``with phase("engine.compile"):`` around a hot section records
its duration into up to three places at once:

- the process-wide metrics histogram
  ``repro_phase_seconds{phase=...}`` (always-on distribution across
  all graphs and configs);
- the **active** :class:`PhaseProfile`, when one is installed via
  :func:`profiled` -- the store installs the queried pair's profile
  around each execution, which is what produces the per
  ``(graph, config)`` compile/iterate split in ``store.stats()``;
- the ambient trace sink (:func:`repro.obs.tracing.span` semantics),
  so a traced request's trace shows the same phases as spans.

When the registry is disabled and neither a profile nor a sink is
active, :func:`phase` returns a shared inert context manager without
reading a clock -- the no-op mode the overhead benchmark gates.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Optional

from repro.obs import metrics, tracing

PHASE_HISTOGRAM = "repro_phase_seconds"
ITERATIONS_HISTOGRAM = "repro_engine_iterations"
GREEDY_STEPS_COUNTER = "repro_kernel_greedy_steps_total"
GREEDY_TAIL_COUNTER = "repro_kernel_tail_problems_total"


class PhaseProfile:
    """Bounded per-phase accumulators: count / total / min / max.

    One per :class:`~repro.service.store.PairState`; phases observed
    while the profile is active (plan lowering, compile, iterate,
    iterations-to-converge) accumulate here
    and surface through ``store.stats()``.
    """

    def __init__(self):
        self._phases: Dict[str, list] = {}
        self._lock = threading.Lock()

    def record(self, name: str, value: float) -> None:
        with self._lock:
            entry = self._phases.get(name)
            if entry is None:
                self._phases[name] = [1, value, value, value]
            else:
                entry[0] += 1
                entry[1] += value
                if value < entry[2]:
                    entry[2] = value
                if value > entry[3]:
                    entry[3] = value

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            return {
                name: {"count": entry[0], "total": entry[1],
                       "min": entry[2], "max": entry[3]}
                for name, entry in self._phases.items()
            }

    def __bool__(self) -> bool:
        return bool(self._phases)


_ACTIVE: "ContextVar[Optional[PhaseProfile]]" = ContextVar(
    "repro_obs_phase_profile", default=None
)


@contextmanager
def profiled(profile: Optional[PhaseProfile]):
    """Install ``profile`` as the active phase accumulator."""
    token = _ACTIVE.set(profile)
    try:
        yield profile
    finally:
        _ACTIVE.reset(token)


def active_profile() -> Optional[PhaseProfile]:
    return _ACTIVE.get()


class _PhaseTimer:
    __slots__ = ("name", "profile", "start", "_t0")

    def __init__(self, name: str, profile: Optional[PhaseProfile]):
        self.name = name
        self.profile = profile

    def __enter__(self) -> "_PhaseTimer":
        self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self._t0
        if metrics.REGISTRY.enabled:
            metrics.histogram(
                PHASE_HISTOGRAM,
                "Duration of one engine/runtime/storage phase.",
                phase=self.name,
            ).observe(duration)
        if self.profile is not None:
            self.profile.record(self.name, duration)
        tracing.emit_span(self.name, self.start, duration)


def phase(name: str):
    """Time one named phase (see module docstring).  Inert and
    clock-free when observability is fully off."""
    profile = _ACTIVE.get()
    if profile is None and not metrics.REGISTRY.enabled \
            and not tracing.active_handles():
        return tracing._NULL_TIMER
    return _PhaseTimer(name, profile)


def observe_greedy_kernel(steps: int, tail_problems: int) -> None:
    """Record one direction-sweep of the dp/bj greedy-matching kernel."""
    if metrics.REGISTRY.enabled:
        metrics.counter(
            GREEDY_STEPS_COUNTER,
            "Vectorized steps of the greedy-matching kernel.",
        ).inc(steps)
        metrics.counter(
            GREEDY_TAIL_COUNTER,
            "Matching problems the greedy kernel finished sequentially.",
        ).inc(tail_problems)


def observe_iterations(iterations: int, converged: bool) -> None:
    """Record one fixed-point run's iterations-to-converge."""
    if metrics.REGISTRY.enabled:
        metrics.histogram(
            ITERATIONS_HISTOGRAM,
            "Iterations one fixed-point run took to converge.",
            buckets=metrics.COUNT_BUCKETS,
            converged=str(bool(converged)).lower(),
        ).observe(iterations)
    profile = _ACTIVE.get()
    if profile is not None:
        profile.record("iterations", float(iterations))
