"""Tests for the second observability story: audit, SLO, flight, fleet.

Four subsystems, one contract:

- the **ShadowAuditor** proves bitwise parity on live traffic -- every
  sampled read re-executes on the reference configuration and must
  fingerprint identically, with concurrent mutations voided by the
  version watermark instead of reported as false divergences;
- the **SLOEngine** turns raw counters into a multi-window multi-burn
  alert lifecycle (pending needs two consecutive bad evaluations, a
  resolved alert increments ``resolved_total``);
- the **FlightRecorder** dumps an atomic, strictly-parseable NDJSON
  bundle the moment any of them complains;
- **federation** folds N instances' scrapes into one fleet view.

The E2E acceptance test at the bottom drives all four through a real
server: clean concurrent traffic audits 100% match, one injected
``corrupt-scores`` fault produces exactly one divergence whose flight
bundle carries the originating trace.
"""

import json
import math
import threading
import time

import pytest

from repro.core import FSimConfig
from repro.core.config import score_key
from repro.graph.generators import random_graph, uniform_labels
from repro.obs import federate, log as obs_log, metrics
from repro.obs.audit import (
    ShadowAuditor,
    fingerprint_scores,
    fingerprint_topk,
)
from repro.obs.flight import (
    FlightRecorder,
    bundle_kinds,
    list_bundles,
    read_bundle,
)
from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.slo import Objective, SLOEngine, default_objectives
from repro.service import (
    GraphStore,
    ServerThread,
    ServiceClient,
    WriteAheadLog,
)
from repro.service.wal import FaultInjector
from repro.simulation import Variant


def make_graph(num_nodes=14, num_edges=32, labels=3, seed=5):
    return random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, labels, seed=seed), seed=seed + 1,
    )


def numpy_config(**overrides):
    options = dict(variant=Variant.B, label_function="indicator",
                   backend="numpy")
    options.update(overrides)
    return FSimConfig(**options)


def wait_for(predicate, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def fresh_registry():
    prior = metrics.enabled()
    metrics.configure(enabled=True)
    metrics.REGISTRY.reset()
    yield metrics.REGISTRY
    metrics.REGISTRY.reset()
    metrics.configure(enabled=prior)


def audited_store(graphs=2, **auditor_kwargs):
    """A store with two registered graphs and a manual (unstarted)
    auditor tapped in."""
    store = GraphStore(default_config=numpy_config())
    for index in range(graphs):
        store.register(f"g{index + 1}", make_graph(seed=5 + index))
    auditor = ShadowAuditor(store, auditor_kwargs.pop("sampling", 1.0),
                            **auditor_kwargs)
    store.auditor = auditor
    return store, auditor


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_scores_fingerprint_is_order_insensitive(self):
        scores = {("a", "x"): 0.25, ("b", "y"): 1.0 / 3.0}
        reordered = dict(reversed(list(scores.items())))
        assert fingerprint_scores(scores) == fingerprint_scores(reordered)

    def test_scores_fingerprint_sees_the_last_mantissa_bit(self):
        scores = {("a", "x"): 1.0 / 3.0}
        nudged = {("a", "x"): math.nextafter(1.0 / 3.0, math.inf)}
        assert fingerprint_scores(scores) != fingerprint_scores(nudged)

    def test_topk_fingerprint_sees_order_and_scores(self):
        from repro.core.topk import TopKResult

        result = TopKResult(query="q", partners=[("a", 0.9), ("b", 0.8)],
                            iterations=3, certified=True)
        swapped = TopKResult(query="q", partners=[("b", 0.8), ("a", 0.9)],
                             iterations=3, certified=True)
        assert fingerprint_topk([result]) == fingerprint_topk([result])
        assert fingerprint_topk([result]) != fingerprint_topk([swapped])


# ----------------------------------------------------------------------
# auditor mechanics (no server)
# ----------------------------------------------------------------------
class TestShadowAuditor:
    def test_sampling_bounds_are_validated(self):
        store = GraphStore(default_config=numpy_config())
        with pytest.raises(ValueError):
            ShadowAuditor(store, -0.1)
        with pytest.raises(ValueError):
            ShadowAuditor(store, 1.01)

    def test_sampling_zero_captures_nothing(self, fresh_registry):
        store, auditor = audited_store(sampling=0.0)
        store.fsim("g1", "g2")
        assert auditor.counts["captured"] == 0
        store.close()

    def test_full_queue_drops_and_counts(self, fresh_registry):
        # capacity=1 and no worker thread: the second capture must be
        # dropped without blocking the (serving) caller.
        store, auditor = audited_store(capacity=1)
        store.fsim("g1", "g2")
        store.topk("g1", "g2", [0], 3)
        assert auditor.counts["captured"] == 2
        assert auditor.counts["dropped"] == 1
        dropped = fresh_registry.get("repro_audit_dropped_total")
        assert dropped is not None and dropped.value == 1
        auditor.close()
        store.close()

    def test_version_moved_voids_the_audit(self, fresh_registry):
        from repro.streaming.delta import DeltaOp

        store, auditor = audited_store()
        store.fsim("g1", "g2")
        assert auditor.counts["captured"] == 1
        # Mutate g1 after capture but before execution: the watermark
        # check must void the audit, never report a false divergence.
        store.mutate("g1", [DeltaOp("add_node", "zz", "L0")])
        auditor.start()
        assert auditor.drain(timeout=30)
        assert auditor.counts["skipped_version_moved"] == 1
        assert auditor.counts["diverged"] == 0
        store.close()

    def test_match_and_forced_divergence(self, fresh_registry):
        store, auditor = audited_store()
        store.fsim("g1", "g2")
        auditor.start()
        assert auditor.drain(timeout=30)
        assert auditor.counts["match"] == 1

        auditor.fault = FaultInjector("corrupt-scores:1")
        events = []
        sink = lambda event, fields: events.append((event, dict(fields)))
        obs_log.add_sink(sink)
        try:
            store.topk("g1", "g2", [0, 1], 3)
            assert auditor.drain(timeout=30)
        finally:
            obs_log.remove_sink(sink)
        assert auditor.counts["diverged"] == 1
        diverged = [fields for event, fields in events
                    if event == "audit.diverged"]
        assert len(diverged) == 1
        assert diverged[0]["op"] == "topk"
        assert diverged[0]["live_fingerprint"] != \
            diverged[0]["reference_fingerprint"]
        stats = auditor.stats()
        assert stats["match_rate"] == 0.5
        assert stats["executed"] == 2
        store.close()

    def test_reference_config_is_the_independent_path(self):
        config = numpy_config(workers=4)
        reference = ShadowAuditor._reference_config(config)
        assert reference.backend == "python"
        assert reference.workers == 1
        # The scoring semantics must be untouched -- only the execution
        # strategy changes.
        assert score_key(reference) == score_key(config)


# ----------------------------------------------------------------------
# SLO engine (deterministic time)
# ----------------------------------------------------------------------
def ratio_objective(**overrides):
    options = dict(
        objective=0.9,
        bad=("err_total", None),
        totals=(("req_total", None),),
        fast_windows=(10.0, 20.0), slow_windows=(30.0, 60.0),
        fast_burn=2.0, slow_burn=1.0,
    )
    options.update(overrides)
    return Objective("avail", "ratio", **options)


class TestSLOEngine:
    def test_window_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            SLOEngine([], window_scale=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Objective("x", "weather", objective=0.9)
        with pytest.raises(ValueError):
            Objective("x", "ratio")  # needs objective=
        with pytest.raises(ValueError):
            Objective("x", "bound")  # needs bound=

    def test_default_objectives_cover_the_stack(self):
        names = {objective.name for objective in default_objectives()}
        assert names == {"availability", "latency_p99",
                         "replication_lag", "audit_match"}

    def test_ratio_lifecycle_pending_firing_resolved(self):
        registry = MetricsRegistry(enabled=True)
        engine = SLOEngine([ratio_objective()], registry=registry)
        req = registry.counter("req_total", "")
        err = registry.counter("err_total", "")

        assert engine.evaluate(now=0.0) == []  # one sample: burn 0
        req.inc(10)
        err.inc(10)  # 100% errors, budget 10% -> burn 10 >= 2
        transitions = engine.evaluate(now=1.0)
        assert [t["transition"] for t in transitions] == ["pending"]
        req.inc(10)
        err.inc(10)
        transitions = engine.evaluate(now=2.0)
        assert [t["transition"] for t in transitions] == ["firing"]
        assert engine.firing() == ["avail"]
        gauge = registry.get("repro_slo_burn_rate", slo="avail")
        assert gauge is not None and gauge.value >= 2.0

        # Clean traffic; old errors age out of every window.
        req.inc(1000)
        transitions = engine.evaluate(now=100.0)
        engine.evaluate(now=101.0)
        transitions += engine.evaluate(now=102.0)
        resolved = [t for t in transitions if t["transition"] == "resolved"]
        assert len(resolved) == 1
        report = engine.report()["objectives"]["avail"]
        assert report["state"] == "inactive"
        assert report["fired_total"] == 1
        assert report["resolved_total"] == 1
        assert engine.firing() == []

    def test_single_spike_never_pages(self):
        # pending -> firing requires the condition on two consecutive
        # evaluations; a one-tick blip goes pending -> inactive.
        registry = MetricsRegistry(enabled=True)
        engine = SLOEngine([ratio_objective()], registry=registry)
        req = registry.counter("req_total", "")
        err = registry.counter("err_total", "")
        engine.evaluate(now=0.0)
        req.inc(10)
        err.inc(10)
        assert [t["transition"] for t in engine.evaluate(now=1.0)] == \
            ["pending"]
        req.inc(1000)  # the blip is over
        transitions = engine.evaluate(now=2.0)
        assert [t["transition"] for t in transitions] == ["inactive"]
        assert engine.report()["objectives"]["avail"]["fired_total"] == 0

    def test_both_fast_windows_must_agree(self):
        # Errors only inside the short window (long window still
        # clean) must not satisfy the fast rule by itself; with the
        # slow windows also clean the alert stays inactive.
        registry = MetricsRegistry(enabled=True)
        objective = ratio_objective(fast_windows=(2.0, 100.0),
                                    slow_windows=(200.0, 400.0))
        engine = SLOEngine([objective], registry=registry)
        req = registry.counter("req_total", "")
        err = registry.counter("err_total", "")
        engine.evaluate(now=0.0)
        req.inc(100000)  # clean traffic lands inside the long window
        for tick in range(1, 50):
            engine.evaluate(now=float(tick))
        req.inc(10)
        err.inc(2)  # 20% of the *recent* traffic errored
        transitions = engine.evaluate(now=50.0)
        burns = engine.report()["objectives"]["avail"]["burns"]
        assert burns["fast_short"] >= objective.fast_burn
        assert burns["fast_long"] < objective.fast_burn
        assert transitions == []

    def test_bound_objective_tracks_a_gauge(self):
        registry = MetricsRegistry(enabled=True)
        objective = Objective(
            "lag", "bound", bound=10.0, metric="lag_records",
            fast_windows=(2.0, 4.0), slow_windows=(4.0, 8.0),
            fast_burn=1.0, slow_burn=1.0,
        )
        engine = SLOEngine([objective], registry=registry)
        assert engine.evaluate(now=0.0) == []  # gauge absent: no sample
        gauge = registry.gauge("lag_records", "")
        gauge.set(100.0)
        engine.evaluate(now=1.0)
        transitions = engine.evaluate(now=2.0)
        assert [t["transition"] for t in transitions] == ["pending"]
        transitions = engine.evaluate(now=3.0)
        assert [t["transition"] for t in transitions] == ["firing"]
        gauge.set(0.0)
        # at t=20 the 100s have aged out of retention entirely
        transitions = engine.evaluate(now=20.0)
        assert [t["transition"] for t in transitions] == ["resolved"]

    def test_latency_objective_counts_slow_fraction(self):
        registry = MetricsRegistry(enabled=True)
        objective = Objective(
            "lat", "latency", objective=0.5, threshold=0.1,
            metric="req_seconds",
            fast_windows=(10.0, 20.0), slow_windows=(30.0, 60.0),
            fast_burn=1.5, slow_burn=1.0,
        )
        engine = SLOEngine([objective], registry=registry)
        hist = registry.histogram("req_seconds", "")
        engine.evaluate(now=0.0)
        for _ in range(10):
            hist.observe(5.0)  # all above threshold: slow fraction 1.0
        engine.evaluate(now=1.0)
        burns = engine.report()["objectives"]["lat"]["burns"]
        assert burns["fast_short"] == pytest.approx(2.0)  # 1.0 / 0.5


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_memory_only_mode_counts_but_writes_nothing(self):
        clock = [0.0]
        recorder = FlightRecorder(None, min_interval=5.0,
                                  time_source=lambda: clock[0])
        assert recorder.trigger("manual") is None
        clock[0] = 1.0
        assert recorder.trigger("manual") is None  # inside rate window
        clock[0] = 2.0
        recorder.trigger("manual", force=True)
        stats = recorder.stats()
        assert stats["triggered"] == 3
        assert stats["suppressed"] == 1
        assert stats["written"] == 0
        assert stats["bundles"] == 0

    def test_bundle_round_trip(self, tmp_path):
        recorder = FlightRecorder(
            tmp_path, instance="127.0.0.1:7464", min_interval=0.0,
            context_provider=lambda: {"role": "primary", "wal_seq": 41},
            trace_lookup=lambda trace_id: {"trace_id": trace_id,
                                           "spans": [{"name": "s"}]},
        )
        recorder.record_event("replica.connected", peer="10.0.0.2")
        recorder.snapshot_metrics(force=True)
        path = recorder.trigger(
            "audit_divergence",
            detail={"request": {"op": "fsim"}, "live_fingerprint": "aa",
                    "reference_fingerprint": "bb"},
            trace_id="t-123",
        )
        assert path is not None
        records = read_bundle(path)
        kinds = bundle_kinds(records)
        assert kinds["header"] == 1
        assert kinds["context"] == 1
        assert kinds["detail"] == 1
        assert kinds["metrics"] == 1
        assert kinds["metrics_snapshot"] == 1
        assert kinds["trace"] == 1
        assert kinds["event"] >= 1
        header = records[0]
        assert header["reason"] == "audit_divergence"
        assert header["trace_id"] == "t-123"
        assert header["instance"] == "127.0.0.1:7464"
        detail = next(r for r in records if r["kind"] == "detail")["detail"]
        assert detail["live_fingerprint"] != detail["reference_fingerprint"]
        context = next(r for r in records
                       if r["kind"] == "context")["context"]
        assert context["wal_seq"] == 41
        trace = next(r for r in records if r["kind"] == "trace")["trace"]
        assert trace["trace_id"] == "t-123"
        # no stray temp files: the dump is atomic
        assert list(tmp_path.glob("*.tmp")) == []
        rows = list_bundles(tmp_path)
        assert len(rows) == 1
        assert rows[0]["reason"] == "audit_divergence"
        assert rows[0]["trace_id"] == "t-123"
        assert rows[0]["bytes"] > 0

    def test_spool_prunes_to_max_bundles(self, tmp_path):
        clock = [1000.0]
        recorder = FlightRecorder(tmp_path, max_bundles=3, min_interval=0.0,
                                  time_source=lambda: clock[0])
        paths = []
        for index in range(5):
            clock[0] += 1.0
            paths.append(recorder.trigger("manual", force=True))
        remaining = sorted(p.name for p in tmp_path.glob("flight-*"))
        assert len(remaining) == 3
        # oldest two deleted, newest three kept
        expected = sorted(p.split("/")[-1] for p in paths[2:])
        assert remaining == expected

    def test_read_bundle_is_strict(self, tmp_path):
        bad = tmp_path / "flight-x.ndjson"
        bad.write_text('{"kind": "header"}\nnot json\n')
        with pytest.raises(ValueError, match="not JSON"):
            read_bundle(bad)
        bad.write_text('{"kind": "detail"}\n')
        with pytest.raises(ValueError, match="missing header"):
            read_bundle(bad)
        bad.write_text('{"no_kind": 1}\n')
        with pytest.raises(ValueError, match="'kind' tag"):
            read_bundle(bad)

    def test_event_ring_is_bounded(self):
        recorder = FlightRecorder(None, event_capacity=4)
        for index in range(10):
            recorder.record_event("e", index=index)
        stats = recorder.stats()
        assert stats["events_buffered"] == 4


# ----------------------------------------------------------------------
# federation
# ----------------------------------------------------------------------
def _exposition(counter_value, gauge_value, connected):
    registry = MetricsRegistry(enabled=True)
    registry.counter("repro_requests_total", "Requests.",
                     op="fsim").inc(counter_value)
    registry.gauge("repro_replica_lag_records", "Lag.").set(gauge_value)
    registry.gauge("repro_replica_connected", "Link.").set(connected)
    return registry.exposition()


class TestFederation:
    def test_relabel_stamps_every_sample(self):
        families = parse_exposition(_exposition(3, 1.0, 1.0))
        stamped = federate.relabel(families, "10.0.0.1:7464", "primary")
        for family in stamped.values():
            for _name, labels, _value in family["samples"]:
                assert labels["instance"] == "10.0.0.1:7464"
                assert labels["role"] == "primary"

    def test_aggregate_sums_counters_and_hints_gauges(self):
        scrapes = [
            {"instance": "a", "role": "primary", "ok": True,
             "exposition": _exposition(3, 0.0, 1.0)},
            {"instance": "b", "role": "replica", "ok": True,
             "exposition": _exposition(5, 40.0, 0.0)},
        ]
        merged = federate.merge_scrapes(scrapes)
        aggregated = merged["aggregated"]
        requests = aggregated["repro_requests_total"]["samples"]
        assert [value for _n, _l, value in requests] == [8.0]
        lag = aggregated["repro_replica_lag_records"]["samples"]
        assert [value for _n, _l, value in lag] == [40.0]  # max: worst
        connected = aggregated["repro_replica_connected"]["samples"]
        assert [value for _n, _l, value in connected] == [0.0]  # min
        assert merged["down"] == []
        # the merged exposition keeps per-instance series apart
        families = parse_exposition(merged["exposition"])
        instances = {
            labels.get("instance")
            for _n, labels, _v in
            families["repro_requests_total"]["samples"]
        }
        assert instances == {"a", "b"}

    def test_down_instances_are_reported_not_merged(self):
        scrapes = [
            {"instance": "a", "role": "primary", "ok": True,
             "exposition": _exposition(1, 0.0, 1.0)},
            {"instance": "b", "role": "replica", "ok": False,
             "error": "connection refused"},
        ]
        merged = federate.merge_scrapes(scrapes)
        assert merged["down"] == ["b"]
        samples = merged["aggregated"]["repro_requests_total"]["samples"]
        assert [value for _n, _l, value in samples] == [1.0]

    def test_instance_summary_reads_the_stats_report(self):
        stats = {
            "health": {"status": "degraded",
                       "reasons": ["SLO alert firing: replication_lag"]},
            "server": {"requests_served": 17},
            "replication": {"role": "replica",
                            "tail": {"lag_records": 12,
                                     "lag_seconds": 0.5}},
            "alerts": {"firing": ["replication_lag"],
                       "objectives": {"replication_lag": {
                           "burns": {"fast_short": 1.8}}}},
            "audit": {"match_rate": 1.0, "sampling": 0.01},
        }
        summary = federate.instance_summary(stats)
        assert summary["role"] == "replica"
        assert summary["health"] == "degraded"
        assert summary["lag_records"] == 12
        assert summary["burn_rates"] == {"replication_lag": 1.8}
        assert summary["firing"] == ["replication_lag"]
        assert summary["audit_match_rate"] == 1.0

    def test_cluster_table_renders_up_and_down_rows(self):
        rows = [
            {"instance": "a:1", "ok": True,
             "summary": {"role": "primary", "health": "ok",
                         "burn_rates": {"availability": 0.01},
                         "audit_match_rate": 0.9995,
                         "firing": []}},
            {"instance": "b:2", "ok": False, "error": "refused"},
        ]
        table = federate.cluster_table(rows)
        lines = table.splitlines()
        assert lines[0].split()[:3] == ["instance", "role", "health"]
        assert "primary" in lines[1] and "0.9995" in lines[1]
        assert "down" in lines[2] and "refused" in lines[2]


# ----------------------------------------------------------------------
# E2E: the audit acceptance drill
# ----------------------------------------------------------------------
class TestAuditEndToEnd:
    def test_clean_traffic_matches_and_divergence_is_forensic(
            self, tmp_path, fresh_registry):
        spool = tmp_path / "flight"
        store = GraphStore(default_config=numpy_config())
        store.register("g1", make_graph(seed=5))
        store.register("g2", make_graph(seed=9))
        store.register("g3", make_graph(seed=13))
        harness = ServerThread(store, audit_sampling=1.0,
                               audit_capacity=512, flight_dir=spool,
                               slo_interval=0.2)
        harness.start()
        client = ServiceClient(port=harness.port, tracing=True)
        mutator = ServiceClient(port=harness.port)
        stop = threading.Event()

        def mutate_loop():
            serial = 0
            while not stop.is_set():
                serial += 1
                mutator.mutate("g3", [("add_node", f"m{serial}", "L0")])
                time.sleep(0.002)

        thread = threading.Thread(target=mutate_loop, daemon=True)
        thread.start()
        try:
            # Concurrent queries under two configs while g3 churns.
            for round_index in range(6):
                params = (None if round_index % 2 == 0
                          else {"theta": 0.5})
                client.fsim("g1", "g2", params=params)
                client.topk("g1", 0, k=3, graph2="g2", params=params)
                client.matrix(["g1", "g2"], "g3", params=params)
                client.fsim("g2", "g3", params=params)
        finally:
            stop.set()
            thread.join(timeout=10)
        auditor = harness.server.auditor
        assert auditor.drain(timeout=60)
        counts = dict(auditor.counts)
        # Every audit that scored, scored bitwise-identical; audits
        # torn by the concurrent mutator were voided, not failed.
        assert counts["diverged"] == 0
        assert counts["error"] == 0
        assert counts["match"] > 0
        assert counts["executed"] == counts["captured"] - counts["dropped"]

        # Now the drill: corrupt the next live fingerprint input.
        auditor.fault = FaultInjector("corrupt-scores:1")
        client.fsim("g1", "g2")
        origin_trace = client.last_trace_id
        assert origin_trace
        assert auditor.drain(timeout=60)
        wait_for(lambda: auditor.counts["diverged"] == 1,
                 message="divergence recorded")

        stats = client.stats()
        assert stats["audit"]["diverged"] == 1
        counter = fresh_registry.get("repro_audit_total", result="diverged")
        assert counter is not None and counter.value == 1

        # The flight bundle is the forensic record: header carries the
        # originating trace id, detail both fingerprints, trace the
        # merged client->server spans.
        rows = wait_for(
            lambda: [row for row in list_bundles(spool)
                     if row["reason"] == "audit_divergence"],
            message="divergence bundle spooled")
        assert rows[0]["trace_id"] == origin_trace
        records = read_bundle(rows[0]["path"])
        kinds = bundle_kinds(records)
        for kind in ("header", "context", "detail", "metrics", "trace"):
            assert kinds.get(kind, 0) >= 1, kinds
        detail = next(r for r in records if r["kind"] == "detail")["detail"]
        assert detail["request"]["op"] == "fsim"
        assert detail["request"]["graph1"] == "g1"
        assert detail["live_fingerprint"] != detail["reference_fingerprint"]
        trace = next(r for r in records if r["kind"] == "trace")["trace"]
        assert trace["trace_id"] == origin_trace
        span_names = {span["name"] for span in trace["spans"]}
        assert "server.dispatch" in span_names
        assert "store.fsim" in span_names

        # ... and the CLI can read it back.
        from repro import cli
        assert cli.main(["flight", "show", rows[0]["path"]]) == 0
        assert cli.main(["flight", "diff", rows[0]["path"]]) == 0

        client.close()
        mutator.close()
        harness.stop()

    def test_audit_off_taps_nothing(self, fresh_registry):
        store = GraphStore(default_config=numpy_config())
        store.register("g1", make_graph(seed=5))
        store.register("g2", make_graph(seed=9))
        harness = ServerThread(store)  # audit_sampling defaults to 0.0
        harness.start()
        assert harness.server.auditor is None
        with ServiceClient(port=harness.port) as client:
            client.fsim("g1", "g2")
            assert "audit" not in client.stats()
        assert fresh_registry.get("repro_audit_total",
                                  result="match") is None
        harness.stop()


# ----------------------------------------------------------------------
# E2E: server-integrated SLO lifecycle
# ----------------------------------------------------------------------
class TestServerSLOIntegration:
    def test_audit_match_slo_fires_degrades_health_then_resolves(
            self, tmp_path, fresh_registry):
        spool = tmp_path / "flight"
        store = GraphStore(default_config=numpy_config())
        store.register("g1", make_graph(seed=5))
        store.register("g2", make_graph(seed=9))
        harness = ServerThread(store, audit_sampling=1.0,
                               audit_capacity=512, flight_dir=spool,
                               slo_interval=0.02, slo_window_scale=2e-5)
        harness.start()
        client = ServiceClient(port=harness.port)
        auditor = harness.server.auditor
        engine = harness.server.slo

        # Every audit diverges until further notice.
        auditor.fault = FaultInjector(",".join(
            f"corrupt-scores:{n}" for n in range(1, 200)))
        deadline = time.time() + 30
        while time.time() < deadline and \
                "audit_match" not in engine.firing():
            client.fsim("g1", "g2")
            auditor.drain(timeout=30)
            time.sleep(0.02)
        assert "audit_match" in engine.firing()

        stats = client.stats()
        assert stats["health"]["status"] == "degraded"
        assert any("audit_match" in reason
                   for reason in stats["health"]["reasons"])
        alert = stats["alerts"]["objectives"]["audit_match"]
        assert alert["state"] == "firing"
        assert alert["fired_total"] >= 1
        wait_for(
            lambda: any(row["reason"] == "slo_alert"
                        for row in list_bundles(spool)),
            message="slo_alert flight bundle")

        # Recovery: stop corrupting, pump matching traffic until the
        # windows drain and the alert resolves.
        auditor.fault = None
        deadline = time.time() + 60
        while time.time() < deadline and \
                "audit_match" in engine.firing():
            client.fsim("g1", "g2")
            auditor.drain(timeout=30)
            time.sleep(0.05)
        assert "audit_match" not in engine.firing()
        report = engine.report()["objectives"]["audit_match"]
        assert report["resolved_total"] >= 1
        assert client.stats()["health"]["status"] == "ok"
        client.close()
        harness.stop()


# ----------------------------------------------------------------------
# E2E: fleet view over the wire
# ----------------------------------------------------------------------
class TestClusterView:
    def test_cluster_metrics_scrapes_advertised_followers(
            self, tmp_path, fresh_registry):
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path / "wal"))
        graph = make_graph(seed=5)
        source = {
            "nodes": [[node, graph.label(node)] for node in graph.nodes()],
            "edges": [list(edge) for edge in graph.edges()],
        }
        store.register("g1", graph, source=source)
        primary = ServerThread(store).start()
        replica = ServerThread(
            GraphStore(default_config=numpy_config()),
            replicate_from=f"127.0.0.1:{primary.port}",
        ).start()
        wait_for(lambda: replica.server.tail.connected,
                 message="replica connected")
        wait_for(lambda: primary.server.replication.advertised(),
                 message="follower advertised its address")

        with ServiceClient(port=primary.port) as client:
            client.fsim("g1", "g1")
            view = client.cluster_metrics()
        assert view["down"] == []
        roles = {row["instance"]: row["summary"]["role"]
                 for row in view["instances"] if row["ok"]}
        assert sorted(roles.values()) == ["primary", "replica"]
        # the merged exposition parses and keeps instances apart
        families = parse_exposition(view["exposition"])
        instances = {
            labels.get("instance")
            for family in families.values()
            for _n, labels, _v in family["samples"]
        }
        assert instances == set(roles)
        table = federate.cluster_table(view["instances"])
        assert "primary" in table and "replica" in table

        replica.stop()
        primary.stop()
