"""repro.obs: the observability layer of the whole service stack.

One horizontal subsystem, three instruments, every layer reports
through it (see docs/OBSERVABILITY.md for the full metric/span
catalog):

- :mod:`repro.obs.metrics` -- the process-wide registry of counters,
  gauges and bounded-memory histograms (p50/p95/p99 from log-spaced
  buckets), rendered as Prometheus text by the ``metrics`` service op
  and folded structured into the ``stats`` report.
  ``configure(enabled=False)`` (or ``REPRO_OBS=off``) turns every
  mutator into a single boolean check -- the no-op mode
  ``benchmarks/bench_observability.py`` gates against;
- :mod:`repro.obs.tracing` -- trace ids and spans: created in the
  clients, carried as an optional ``trace`` field on the NDJSON
  protocol (and on WAL records across the ``replicate`` stream),
  recorded around scheduler queueing, batch coalescing, lock waits,
  store execution, engine sweeps, snapshot restores and WAL fsyncs,
  and retired into per-server ring buffers (recent + slow-query log)
  that the ``trace`` op serves;
- :mod:`repro.obs.profiling` -- :func:`~repro.obs.profiling.phase`
  timers in the compute layers (plan lowering, compile, iterate)
  feeding the phase histogram, the ambient
  trace, and the per-``(graph, config)`` profile in store stats;
- :mod:`repro.obs.log` -- the one shared structured-logging config:
  ``event=... key=value`` lines with deterministic field order, tied
  to traces by ``trace_id`` fields.

The second story (correctness + operability, see the same doc):

- :mod:`repro.obs.audit` -- the :class:`ShadowAuditor` samples live
  read requests and re-executes them on the pure-python reference
  configuration off the hot path, asserting bitwise score parity in
  production (``repro_audit_total{result=...}``);
- :mod:`repro.obs.slo` -- declarative objectives evaluated over
  rolling windows with multi-window multi-burn-rate alerting
  (``repro_slo_burn_rate{slo=...}``, the ``alerts`` stats section);
- :mod:`repro.obs.flight` -- the :class:`FlightRecorder` dumps a
  self-contained NDJSON forensic bundle (traces, metrics, events,
  config, the diverged request) on audit divergence, SLO alerts,
  scheduler overload or unhandled server errors;
- :mod:`repro.obs.federate` -- re-labels and merges per-instance
  scrapes into one fleet view (``repro stats --cluster``, the
  ``cluster_metrics`` op).

Instrumentation never changes computed values: scores produced with
observability on are bitwise identical to no-op mode (asserted by the
overhead benchmark and the parity suites).
"""

from repro.obs.audit import ShadowAuditor
from repro.obs.flight import FlightRecorder, list_bundles, read_bundle
from repro.obs.metrics import (
    COUNT_BUCKETS,
    REGISTRY,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure,
    counter,
    enabled,
    gauge,
    histogram,
    parse_exposition,
    render_exposition,
)
from repro.obs.slo import Objective, SLOEngine, default_objectives
from repro.obs.profiling import (
    PhaseProfile,
    observe_iterations,
    phase,
    profiled,
)
from repro.obs.tracing import (
    TraceHandle,
    TraceRecorder,
    current_trace_id,
    emit_span,
    new_trace_id,
    span,
    use_sink,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Objective",
    "PhaseProfile",
    "REGISTRY",
    "SLOEngine",
    "ShadowAuditor",
    "TIME_BUCKETS",
    "TraceHandle",
    "TraceRecorder",
    "configure",
    "counter",
    "current_trace_id",
    "default_objectives",
    "emit_span",
    "enabled",
    "gauge",
    "histogram",
    "list_bundles",
    "new_trace_id",
    "observe_iterations",
    "parse_exposition",
    "phase",
    "profiled",
    "read_bundle",
    "render_exposition",
    "span",
    "use_sink",
]
