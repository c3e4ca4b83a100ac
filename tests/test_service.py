"""Tests for repro.service: store, scheduler, server, snapshots.

The service's load-bearing contract mirrors the runtime's: every
response is **bitwise identical** to the corresponding direct library
call on the same graph state -- micro-batching, result caches, resident
sessions and snapshot restores change latency, never values.  Parity
baselines rebuild graphs through the same construction sequence (never
``graph.copy()``, which reorders adjacency and legitimately perturbs
the last ulp).
"""

import json
import random
import socket
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, fsim_matrix
from repro.core.compile import MatchStructure
from repro.core.config import score_key
from repro.core.plan import clear_plan_caches, plan_cache_stats
from repro.core.topk import TopKSearch
from repro.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
)
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.obs import metrics
from repro.core import compile as compile_module
from repro.service import ClientPool, GraphStore, ServerThread, ServiceClient
from repro.service.client import (
    ServiceConnectionError,
    wire_partners,
    wire_scores,
)
from repro.service.server import (
    INVALID_OP,
    MAX_REQUEST_LINE,
    OVERSIZED_OP,
    UNKNOWN_OP,
)
from repro.service.snapshot import (
    graph_fingerprint,
    restore_snapshot,
    save_snapshot,
)
from repro.service.store import LruCache
from repro.simulation import Variant
from repro.streaming.delta import DeltaOp


def make_graph(num_nodes=18, num_edges=45, labels=3, seed=5):
    """Deterministic graph; calling twice yields bitwise-equal twins."""
    return random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, labels, seed=seed), seed=seed + 1,
    )


def numpy_config(**overrides):
    options = dict(variant=Variant.B, label_function="indicator",
                   backend="numpy")
    options.update(overrides)
    return FSimConfig(**options)


def even_first(u, v):
    return u % 2 == 0


def odd_first(u, v):
    return u % 2 == 1


# ----------------------------------------------------------------------
# store primitives
# ----------------------------------------------------------------------
class TestLruCache:
    def test_hit_miss_eviction_counters(self):
        cache = LruCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts b (a was just touched)
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats == {"size": 2, "capacity": 2, "hits": 1,
                         "misses": 2, "evictions": 1}


class TestGraphStore:
    def test_register_and_duplicate(self):
        store = GraphStore()
        store.register("g", make_graph())
        with pytest.raises(ServiceError):
            store.register("g", make_graph())
        store.register("g", make_graph(), replace=True)
        with pytest.raises(ServiceError):
            store.graph("missing")
        store.close()

    def test_unknown_config_param_rejected(self):
        store = GraphStore()
        store.register("g", make_graph())
        with pytest.raises(ServiceError):
            store.resolve_config("g", {"not_a_knob": 1})
        store.close()

    def test_pair_state_keys_on_score_fields_only(self):
        """Configs that differ only in execution fields share one pair
        state (and its result cache); any score field splits them."""
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        pair = store.pair("g", "g", numpy_config())
        shared = numpy_config(backend="python", workers=2)
        assert store.pair("g", "g", shared) is pair
        for changed in (numpy_config(theta=0.5),
                        numpy_config(pinned_pairs={(0, 1): 1.0}),
                        numpy_config(backend="python",
                                     candidate_filter=even_first)):
            assert store.pair("g", "g", changed) is not pair
        store.close()

    def test_fsim_result_cache_hits_until_mutation(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        first = store.fsim("g", "g")
        assert store.fsim("g", "g") is first  # version-keyed cache hit
        pair = store.pair("g", "g", store.default_config)
        assert pair.results.hits == 1
        node_pair = next(iter(make_graph().edges()))
        store.mutate("g", [DeltaOp("remove_edge", *node_pair)])
        second = store.fsim("g", "g")
        assert second is not first
        replica = make_graph()
        replica.remove_edge(*node_pair)
        direct = fsim_matrix(replica, replica, config=store.default_config)
        assert second.scores == direct.scores
        assert second.deltas == direct.deltas
        store.close()

    def test_mutation_error_reports_partial_application(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph()
        edge = next(iter(graph.edges()))
        store.register("g", graph)
        with pytest.raises(ServiceError, match="after 1 applied"):
            store.mutate("g", [
                DeltaOp("remove_edge", *edge),
                DeltaOp("remove_edge", "no-such", "edge"),
            ])
        assert not graph.has_edge(*edge)  # first op stayed applied
        result = store.fsim("g", "g")
        replica = make_graph()
        replica.remove_edge(*edge)
        assert result.scores == fsim_matrix(
            replica, replica, config=store.default_config
        ).scores
        store.close()

    def test_journal_trim_forces_cold_resync_not_wrong_answers(self,
                                                               monkeypatch):
        import repro.service.store as store_module

        monkeypatch.setattr(store_module, "JOURNAL_CAP", 2)
        store = GraphStore(default_config=numpy_config())
        graph = make_graph(num_nodes=22, num_edges=60)
        store.register("g", graph)
        store.fsim("g", "g")  # session established
        edges = list(graph.edges())
        # 4 mutations with cap 2: the session's sync window is lost.
        store.mutate("g", [DeltaOp("remove_edge", *edges[i])
                           for i in range(4)])
        result = store.fsim("g", "g")
        pair = store.pair("g", "g", store.default_config)
        assert pair.session.stats["out_of_band_resyncs"] == 1
        replica = make_graph(num_nodes=22, num_edges=60)
        for i in range(4):
            replica.remove_edge(*edges[i])
        assert result.scores == fsim_matrix(
            replica, replica, config=store.default_config
        ).scores
        store.close()

    def test_pair_lru_eviction_drops_pair_state(self):
        store = GraphStore(default_config=numpy_config(), max_pairs=1)
        store.register("a", make_graph(seed=5))
        store.register("b", make_graph(seed=9))
        first = store.fsim("a", "a")
        store.fsim("b", "b")  # evicts the (a, a) pair state
        assert store._pair_evictions == 1
        assert store.peek_pair("a", "a", store.default_config) is None
        assert store.fsim("a", "a").scores == first.scores
        store.close()

    def test_matrix_batches_and_caches(self):
        store = GraphStore(default_config=numpy_config())
        for index, seed in enumerate((5, 9, 13)):
            store.register(f"g{index}", make_graph(seed=seed))
        results = store.matrix(["g0", "g1"], "g2")
        again = store.matrix(["g0", "g1", "g0"], "g2")
        assert again[0] is results[0] and again[1] is results[1]
        assert again[2] is results[0]
        direct = fsim_matrix(
            make_graph(seed=5), make_graph(seed=13),
            config=store.default_config,
        )
        assert results[0].scores == direct.scores
        store.close()

    def test_matrix_config_comes_from_the_data_graph(self):
        """Coalesced matrix batches may mix query graphs registered
        under different defaults; the shared data graph's config (plus
        request params) must govern every entry -- never the first
        query graph's."""
        store = GraphStore(default_config=numpy_config())
        store.register("q", make_graph(seed=5),
                       config=numpy_config(theta=0.9))
        store.register("data", make_graph(seed=13))
        (result,) = store.matrix(["q"], "data")
        direct = fsim_matrix(make_graph(seed=5), make_graph(seed=13),
                             config=numpy_config())  # data's config
        assert result.scores == direct.scores
        store.close()

    def test_stats_expose_plan_cache(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        stats = store.stats()
        for key in ("plan_hits", "plan_misses", "plan_evictions",
                    "table_evictions", "plan_adoptions"):
            assert key in stats["plan_cache"]
        assert "executors" not in stats  # sweeps run in-process
        assert stats["graphs"]["g"]["mutations"] == 0
        assert stats["pairs"]["g|g"]["session"] is True
        store.close()


# ----------------------------------------------------------------------
# server + scheduler behavior
# ----------------------------------------------------------------------
class TestServer:
    def test_basic_ops_and_errors(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        with ServerThread(store) as server:
            with ServiceClient(port=server.port) as client:
                assert client.ping() == {"pong": True}
                assert client.graphs() == ["g"]
                with pytest.raises(ServiceError, match="unknown graph"):
                    client.fsim("nope")
                with pytest.raises(ServiceError, match="unknown op"):
                    client.request("frobnicate")
                with pytest.raises(ServiceError, match="missing"):
                    client.request("fsim")
                stats = client.stats()
                assert stats["server"]["requests_served"] >= 1

    def test_oversized_line_gets_typed_error_and_connection_survives(self):
        def oversized_count():
            child = metrics.REGISTRY.get("repro_requests_total",
                                         op=OVERSIZED_OP)
            return child.value if child is not None else 0.0

        pad = b"x" * (MAX_REQUEST_LINE + 64)
        before = oversized_count()
        with ServerThread(GraphStore()) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10.0) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b'{"id":1,"op":"ping","pad":"' + pad + b'"}\n')
                sock.sendall(b'{"id":2,"op":"ping"}\n')
                rejected = json.loads(reader.readline())
                pong = json.loads(reader.readline())
        assert rejected["ok"] is False
        assert "exceeds" in rejected["error"]
        assert pong == {"id": 2, "ok": True, "result": {"pong": True}}
        if metrics.enabled():
            assert oversized_count() == before + 1

    def test_library_client_surfaces_the_oversized_reason(self):
        with ServerThread(GraphStore()) as server:
            with ServiceClient(port=server.port, timeout=10.0) as client:
                with pytest.raises(ServiceError, match="exceeds"):
                    client.request("ping", pad="x" * MAX_REQUEST_LINE)
                assert client.ping() == {"pong": True}

    def test_request_metric_labels_stay_bounded(self):
        """Client-chosen ops and unparseable lines are answered with a
        typed error on a live connection and counted under two fixed
        labels, never one series per distinct op."""
        def series(name):
            prefix = name + "{"
            return {line.split(" ")[0] for line in
                    metrics.REGISTRY.exposition().splitlines()
                    if line.startswith(prefix)}

        def count(op):
            child = metrics.REGISTRY.get("repro_requests_total", op=op)
            return child.value if child is not None else 0.0

        bogus = [{"id": i, "op": f"bogus-{i}"} for i in range(500)]
        bogus.append({"id": 500, "op": {"nested": "op"}})
        lines = [json.dumps(request).encode() for request in bogus]
        lines += [b"not json", b"[1,2]"]
        before = {op: count(op) for op in (UNKNOWN_OP, INVALID_OP)}
        families = ("repro_requests_total", "repro_request_seconds_count")
        series_before = {name: series(name) for name in families}
        with ServerThread(GraphStore()) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10.0) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"".join(line + b"\n" for line in lines))
                replies = [json.loads(reader.readline()) for _ in lines]
                sock.sendall(b'{"id":"last","op":"ping"}\n')
                pong = json.loads(reader.readline())
        assert all(reply["ok"] is False and reply["error"]
                   for reply in replies)
        assert pong == {"id": "last", "ok": True,
                        "result": {"pong": True}}
        if metrics.enabled():
            for name in families:  # at most unknown, invalid and ping
                assert len(series(name) - series_before[name]) <= 3
            assert count(UNKNOWN_OP) == before[UNKNOWN_OP] + 501
            assert count(INVALID_OP) == before[INVALID_OP] + 2

    @pytest.mark.parametrize("params", [
        {"shards": 2},
        {"workers": 2, "executor": "fork"},
        {"arena_backend": "memmap"},
        ["variant", "dp"],
        {"backend": "python"},
    ])
    def test_register_rejects_non_score_params(self, params):
        with ServerThread(GraphStore()) as server:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError, match="param"):
                    client.register(
                        "tiny", nodes=[["a", "L"], ["b", "L"]],
                        edges=[["a", "b"]], params=params,
                    )
                assert client.graphs() == []

    def test_register_inline_and_query(self):
        with ServerThread(GraphStore()) as server:
            with ServiceClient(port=server.port) as client:
                client.register(
                    "tiny",
                    nodes=[["a", "L"], ["b", "L"], ["c", "M"]],
                    edges=[["a", "b"], ["b", "c"]],
                    params={"label_function": "indicator"},
                )
                result = client.fsim("tiny")
                graph = LabeledDigraph("tiny")
                for node, label in (("a", "L"), ("b", "L"), ("c", "M")):
                    graph.add_node(node, label)
                graph.add_edge("a", "b")
                graph.add_edge("b", "c")
                direct = fsim_matrix(
                    graph, graph,
                    config=FSimConfig(label_function="indicator"),
                )
                assert wire_scores(result) == direct.scores

    def test_topk_requests_coalesce_into_one_batch(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph(num_nodes=24, num_edges=70)
        store.register("g", graph)
        queries = list(graph.nodes())[:6]
        responses = {}
        with ServerThread(store, window=0.15) as server:

            def ask(query):
                with ServiceClient(port=server.port) as client:
                    responses[query] = client.topk("g", query, k=3)

            threads = [threading.Thread(target=ask, args=(q,))
                       for q in queries]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with ServiceClient(port=server.port) as client:
                stats = client.stats()["scheduler"]
        assert stats["coalesced_batches"] >= 1
        assert stats["largest_batch"] >= 2
        replica = make_graph(num_nodes=24, num_edges=70)
        search = TopKSearch(replica, replica, store.default_config)
        for query in queries:
            assert wire_partners(responses[query]) == \
                search.search(query, 3).partners

    def test_bad_query_fails_alone_not_its_batch(self):
        store = GraphStore(default_config=numpy_config())
        graph = make_graph()
        store.register("g", graph)
        good = graph.nodes()[0]
        outcomes = {}
        with ServerThread(store, window=0.15) as server:

            def ask(tag, query):
                try:
                    with ServiceClient(port=server.port) as client:
                        outcomes[tag] = client.topk("g", query, k=2)
                except ServiceError as exc:
                    outcomes[tag] = exc

            threads = [
                threading.Thread(target=ask, args=("good", good)),
                threading.Thread(target=ask, args=("bad", "ghost-node")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert isinstance(outcomes["bad"], ServiceError)
        replica = make_graph()
        expected = TopKSearch(replica, replica,
                              store.default_config).search(good, 2)
        assert wire_partners(outcomes["good"]) == expected.partners

    def test_shutdown_completes_with_idle_connections_open(self):
        """An idle keep-alive client must not deadlock stop() (Python
        3.12.1+ Server.wait_closed blocks until handlers finish)."""
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        server = ServerThread(store).start()
        idle = ServiceClient(port=server.port)
        idle.ping()  # connection established and then left open
        try:
            server.stop(timeout=10.0)  # raises on timeout = deadlock
        finally:
            idle.close()

    def test_admission_control_rejects_past_max_pending(self):
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph(num_nodes=30, num_edges=90))
        rejected = []
        completed = []
        with ServerThread(store, window=0.3, max_pending=1) as server:

            def ask(index):
                try:
                    with ServiceClient(port=server.port) as client:
                        completed.append(client.topk(
                            "g", make_graph(num_nodes=30, num_edges=90)
                            .nodes()[index], k=2,
                        ))
                except ServiceOverloadedError as exc:
                    rejected.append(exc)

            threads = [threading.Thread(target=ask, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # With max_pending=1 and a 300ms window, at least one of the
        # four concurrent requests must have been turned away -- and
        # the rejection is the typed overload error, not a failure.
        assert rejected
        assert completed  # the admitted ones still answered


# ----------------------------------------------------------------------
# warm snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_roundtrip_answers_first_query_without_recompiling(self,
                                                               tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        warm = store.fsim("g", "g")
        meta = save_snapshot(store, "g", path)
        assert meta["session"] is True
        store.close()

        clear_plan_caches()
        fresh = GraphStore(default_config=numpy_config())
        restore_snapshot(fresh, path, graph=make_graph())
        first = fresh.fsim("g", "g")
        stats = plan_cache_stats()
        # The acceptance bar: a snapshot-restored server answers its
        # first query with NO plan misses (nothing was re-lowered, the
        # adopted plan + restored result served it).
        assert stats["plan_misses"] == 0
        assert stats["plan_adoptions"] == 1
        pair = fresh.pair("g", "g", fresh.default_config)
        assert pair.session.stats["cold_runs"] == 0
        assert first.scores == warm.scores
        assert first.deltas == warm.deltas
        fresh.close()

    def test_restore_continues_incrementally_with_parity(self, tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        fresh = GraphStore(default_config=numpy_config())
        live = make_graph()
        restore_snapshot(fresh, path, graph=live)
        edge = next(iter(live.edges()))
        fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
        result = fresh.fsim("g", "g")
        pair = fresh.pair("g", "g", fresh.default_config)
        assert pair.session.stats["cold_runs"] == 0
        assert pair.session.stats["incremental_runs"] == 1
        replica = make_graph()
        replica.remove_edge(*edge)
        direct = fsim_matrix(replica, replica, config=fresh.default_config)
        assert result.scores == direct.scores
        assert result.deltas == direct.deltas
        fresh.close()

    def test_snapshot_with_legacy_match_slots_restores_warm(
            self, tmp_path, monkeypatch):
        """Snapshots whose dp/bj match structures still carry the
        by-arena ``ba_*`` slots of the earlier layout stay readable."""
        path = tmp_path / "g.snap"
        config = numpy_config(variant=Variant.DP)
        store = GraphStore(default_config=config)
        store.register("g", make_graph())
        warm = store.fsim("g", "g")

        def legacy_state(structure):
            slots = {name: getattr(structure, name)
                     for name in MatchStructure.__slots__}
            for name in ("ba_indptr", "ba_prob", "ba_lslot", "ba_rslot"):
                slots[name] = np.zeros(1, dtype=np.int64)
            return None, slots

        with monkeypatch.context() as patched:
            patched.setattr(MatchStructure, "__getstate__", legacy_state,
                            raising=False)
            save_snapshot(store, "g", path)
        store.close()
        assert b"ba_indptr" in path.read_bytes()

        fresh = GraphStore(default_config=config)
        restore_snapshot(fresh, path, graph=make_graph(), config=config)
        first = fresh.fsim("g", "g")
        pair = fresh.pair("g", "g", config)
        assert pair.session.stats["cold_runs"] == 0
        assert first.scores == warm.scores
        assert first.deltas == warm.deltas
        fresh.close()

    @pytest.mark.parametrize("layout", ["memmap", "no_trajectory"])
    def test_snapshot_in_earlier_runtime_layout_restores(
            self, tmp_path, monkeypatch, layout):
        """Snapshots written while the config still had ``shards`` /
        ``arena_backend`` keep restoring: configs carrying those
        attributes, compiled arenas with a pickled file-backed slab
        store and memmap slabs, and replay state without a trajectory
        (a sharded session's).  Scores stay bitwise a cold solve's."""
        path = tmp_path / "g.snap"
        config = numpy_config(variant=Variant.DP)
        store = GraphStore(default_config=config)
        store.register("g", make_graph())
        store.fsim("g", "g")
        object.__setattr__(config, "shards", 2)
        object.__setattr__(config, "arena_backend", "memmap")
        session = store.pair("g", "g", config).session
        compiled = session._compiled

        class SlabStore:
            def __getstate__(self):
                return {}

        SlabStore.__module__ = "repro.core.compile"
        SlabStore.__qualname__ = SlabStore.__name__ = "_SlabStore"
        if layout == "memmap":
            structure = compiled.out_term.structures[0]
            slab = np.memmap(tmp_path / "slab.bin", mode="w+",
                             dtype=structure.ent_arena.dtype,
                             shape=structure.ent_arena.shape)
            slab[:] = structure.ent_arena
            structure.ent_arena = slab
            compiled._slab_store = SlabStore()
        else:
            session._final = session._trajectory[-1]
            session._trajectory = None
        with monkeypatch.context() as patched:
            patched.setattr(compile_module, "_SlabStore", SlabStore,
                            raising=False)
            save_snapshot(store, "g", path)
        store.close()
        raw = path.read_bytes()
        assert b"arena_backend" in raw
        if layout == "memmap":
            assert b"_SlabStore" in raw

        served = numpy_config(variant=Variant.DP)
        fresh = GraphStore(default_config=served)
        live = make_graph()
        restore_snapshot(fresh, path, graph=live, config=served)
        assert fresh.restored_snapshots == 1
        first = fresh.fsim("g", "g")
        cold = fsim_matrix(make_graph(), make_graph(), config=served)
        assert first.scores == cold.scores
        assert first.deltas == cold.deltas
        pair = fresh.pair("g", "g", served)
        assert pair.session.stats["cold_runs"] == 0
        assert not hasattr(pair.session._compiled, "_slab_store")
        edge = next(iter(live.edges()))
        fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
        edited = make_graph()
        edited.remove_edge(*edge)
        after = fresh.fsim("g", "g")
        cold = fsim_matrix(edited, edited, config=served)
        assert after.scores == cold.scores
        assert after.deltas == cold.deltas
        fresh.close()

    @pytest.mark.parametrize("served", [True, False])
    def test_snapshot_with_executor_config_restores_in_process(
            self, tmp_path, served):
        """Snapshots written while the config still had ``executor``
        (a store run with ``executor="shared_memory", workers=2``)
        restore warm, with or without a served config, and are served
        with ``workers=1``: scores match a cold solve bitwise before
        and after one edge edit."""
        path = tmp_path / "g.snap"
        config = numpy_config(variant=Variant.DP)
        store = GraphStore(default_config=config)
        store.register("g", make_graph())
        store.fsim("g", "g")
        object.__setattr__(config, "executor", "shared_memory")
        object.__setattr__(config, "workers", 2)
        save_snapshot(store, "g", path)
        store.close()
        assert b"shared_memory" in path.read_bytes()

        plain = numpy_config(variant=Variant.DP)
        fresh = GraphStore(default_config=plain)
        live = make_graph()
        restore_snapshot(fresh, path, graph=live,
                         config=plain if served else None)
        registered = fresh.graph("g").config
        assert registered == plain
        assert "executor" not in vars(registered)
        first = fresh.fsim("g", "g")
        cold = fsim_matrix(make_graph(), make_graph(), config=plain)
        assert first.scores == cold.scores
        assert first.deltas == cold.deltas
        pair = fresh.pair("g", "g", plain)
        assert pair.session.stats["cold_runs"] == 0
        assert pair.session.executor.workers == 1
        edge = next(iter(live.edges()))
        fresh.mutate("g", [DeltaOp("remove_edge", *edge)])
        edited = make_graph()
        edited.remove_edge(*edge)
        after = fresh.fsim("g", "g")
        cold = fsim_matrix(edited, edited, config=plain)
        assert after.scores == cold.scores
        assert after.deltas == cold.deltas
        assert pair.session.stats["cold_runs"] == 0
        assert pair.session.stats["compiled_patches"] == 1
        fresh.close()

    def test_stale_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        drifted = make_graph()
        drifted.remove_edge(*next(iter(drifted.edges())))
        fresh = GraphStore(default_config=numpy_config())
        with pytest.raises(SnapshotError, match="stale"):
            restore_snapshot(fresh, path, graph=drifted)
        assert fresh.graph_names() == []  # nothing half-registered
        fresh.close()

    def test_restore_under_different_config_is_stale(self, tmp_path):
        """A server restarted with different flags must not silently
        serve the old config's scores from a snapshot."""
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=numpy_config(theta=0.0))
        store.register("g", make_graph())
        store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        fresh = GraphStore(default_config=numpy_config(theta=0.8))
        with pytest.raises(SnapshotError, match="different config"):
            restore_snapshot(fresh, path, graph=make_graph(),
                             config=fresh.default_config)
        # Same flags (even with an orthogonal workers setting, which
        # never changes values) restore fine -- served in-process.
        fresh2 = GraphStore(default_config=numpy_config(theta=0.0,
                                                        workers=2))
        assert fresh2.default_config.workers == 1
        restore_snapshot(fresh2, path, graph=make_graph(),
                         config=fresh2.default_config)
        fresh2.close()

    @pytest.mark.parametrize("field", ["pinned_pairs", "candidate_filter"])
    def test_snapshot_under_other_score_field_restores_cold(
            self, tmp_path, field):
        """``pinned_pairs`` and ``candidate_filter`` change scores, so a
        snapshot taken under one value is stale under another: restore
        refuses it, and a cold registration serves fresh scores."""
        if field == "pinned_pairs":
            served = numpy_config()
            cold = fsim_matrix(make_graph(), make_graph(), config=served)
            lowest = min(cold.scores, key=cold.scores.get)
            assert cold.scores[lowest] < 1.0
            taken = numpy_config(pinned_pairs={lowest: 1.0})
        else:
            served = numpy_config(backend="python",
                                  candidate_filter=odd_first)
            taken = numpy_config(backend="python",
                                 candidate_filter=even_first)
        path = tmp_path / "g.snap"
        store = GraphStore(default_config=taken)
        store.register("g", make_graph())
        stale = store.fsim("g", "g")
        save_snapshot(store, "g", path)
        store.close()

        fresh = GraphStore(default_config=served)
        with pytest.raises(SnapshotError, match="different config"):
            restore_snapshot(fresh, path, graph=make_graph(), config=served)
        assert fresh.graph_names() == []
        fresh.register("g", make_graph())
        first = fresh.fsim("g", "g")
        cold = fsim_matrix(make_graph(), make_graph(), config=served)
        assert first.scores == cold.scores
        assert first.scores != stale.scores
        fresh.close()

    def test_corrupt_snapshot_is_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(SnapshotError, match="unreadable"):
            restore_snapshot(GraphStore(), path)
        with pytest.raises(SnapshotError, match="no snapshot"):
            restore_snapshot(GraphStore(), tmp_path / "absent.snap")

    def test_fingerprint_tracks_structure_and_config(self):
        config = numpy_config()
        base = graph_fingerprint(make_graph(), config)
        assert graph_fingerprint(make_graph(), config) == base
        mutated = make_graph()
        mutated.remove_edge(*next(iter(mutated.edges())))
        assert graph_fingerprint(mutated, config) != base
        for other_config in (numpy_config(theta=0.5),
                             numpy_config(pinned_pairs={(0, 1): 1.0})):
            assert score_key(other_config) != score_key(config)
            assert graph_fingerprint(make_graph(), other_config) != base
        # Execution fields never change a score, so never the key.
        python = numpy_config(backend="python", workers=2)
        assert graph_fingerprint(make_graph(), python) == base

    def test_snapshot_ops_over_the_wire(self, tmp_path):
        path = str(tmp_path / "wire.snap")
        store = GraphStore(default_config=numpy_config())
        store.register("g", make_graph())
        with ServerThread(store) as server:
            with ServiceClient(port=server.port) as client:
                warm = client.fsim("g")
                meta = client.snapshot_save("g", path)
                assert meta["bytes"] > 0
        fresh_store = GraphStore(default_config=numpy_config())
        with ServerThread(fresh_store) as server:
            with ServiceClient(port=server.port) as client:
                client.snapshot_restore(path)
                assert client.graphs() == ["g"]
                restored = client.fsim("g")
                assert restored["scores"] == warm["scores"]
                stats = client.stats()
                assert stats["restored_snapshots"] == 1


# ----------------------------------------------------------------------
# concurrent sessions: the interleaving property test (both backends)
# ----------------------------------------------------------------------
class TestConcurrentInterleavings:
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(["python", "numpy"]),
    )
    def test_interleaved_queries_and_mutations_match_serial_library(
        self, seed, backend,
    ):
        """Two graphs, one server, concurrent mixed traffic in rounds:
        every response must be bitwise identical to a serial library
        call on an identically built replica at the same version."""
        rng = random.Random(seed)
        specs = {
            "ga": dict(num_nodes=14, num_edges=34, labels=3, seed=seed % 97),
            "gb": dict(num_nodes=12, num_edges=30, labels=2,
                       seed=seed % 89 + 1),
        }
        config = FSimConfig(variant=Variant.B, label_function="indicator",
                            backend=backend)
        store = GraphStore(default_config=config)
        graphs = {name: make_graph(**spec) for name, spec in specs.items()}
        replicas = {name: make_graph(**spec) for name, spec in specs.items()}
        for name, graph in graphs.items():
            store.register(name, graph)
        with ServerThread(store, window=0.02) as server:
            for _round in range(3):
                jobs = []
                for name in specs:
                    jobs.append(("fsim", name, None))
                    query = rng.choice(replicas[name].nodes())
                    jobs.append(("topk", name, query))
                responses = {}

                def run_job(tag, job):
                    kind, name, query = job
                    with ServiceClient(port=server.port) as client:
                        if kind == "fsim":
                            responses[tag] = client.fsim(name)
                        else:
                            responses[tag] = client.topk(name, query, k=3)

                threads = [
                    threading.Thread(target=run_job, args=(tag, job))
                    for tag, job in enumerate(jobs)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                # Queries mutate nothing: serial library calls on the
                # replicas at the same version must agree bitwise.
                for tag, (kind, name, query) in enumerate(jobs):
                    replica = replicas[name]
                    if kind == "fsim":
                        direct = fsim_matrix(replica, replica, config=config)
                        assert wire_scores(responses[tag]) == direct.scores
                        assert responses[tag]["iterations"] == \
                            direct.iterations
                    else:
                        direct = TopKSearch(replica, replica,
                                            config).search(query, 3)
                        assert wire_partners(responses[tag]) == \
                            direct.partners
                        assert responses[tag]["certified"] == \
                            direct.certified
                # Between rounds: mutate each graph through the service
                # and mirror the edit on the replica.
                with ServiceClient(port=server.port) as client:
                    for name in specs:
                        edges = list(replicas[name].edges())
                        if not edges:
                            continue
                        edge = rng.choice(edges)
                        client.mutate(name, [("remove_edge", *edge)])
                        replicas[name].remove_edge(*edge)


# ----------------------------------------------------------------------
# CLI integration (`serve` wiring is exercised via query/mutate)
# ----------------------------------------------------------------------
class TestCli:
    def test_query_and_mutate_subcommands(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import load_graph, save_graph

        # The CLI speaks strings (like file-loaded graphs): write the
        # test graph through the v/e format first.
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        graph = load_graph(graph_path, name="g")
        store = GraphStore(default_config=numpy_config())
        store.register("g", graph)
        script = tmp_path / "edits.txt"
        edge = next(iter(graph.edges()))
        script.write_text(f"remove_edge {edge[0]} {edge[1]}\n")
        with ServerThread(store) as server:
            port = str(server.port)
            assert main(["query", "--port", port, "--op", "ping"]) == 0
            assert main(["query", "--port", port, "--op", "graphs"]) == 0
            assert main(["query", "--port", port, "--op", "fsim",
                         "--graph1", "g", "--top", "3"]) == 0
            assert main(["query", "--port", port, "--op", "topk",
                         "--graph1", "g", "--query", graph.nodes()[0],
                         "-k", "2"]) == 0
            assert main(["mutate", "--port", port, "--graph", "g",
                         "--script", str(script)]) == 0
            assert main(["query", "--port", port, "--op", "stats"]) == 0
        output = capsys.readouterr().out
        assert "pong" in output
        assert "applied 1 op(s)" in output

    def test_mutate_rejects_g2_targeted_scripts(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "two-graph.txt"
        script.write_text("add_edge a b\ng2 remove_edge x y\n")
        with pytest.raises(SystemExit, match="addresses g2"):
            main(["mutate", "--port", "1", "--graph", "g",
                  "--script", str(script)])

    def test_serve_parser_accepts_service_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--graph", "g=/tmp/g.txt", "--port", "0",
            "--window", "0.01", "--snapshot-dir", "/tmp/snaps",
        ])
        assert args.handler.__name__ == "_cmd_serve"
        assert args.graph == ["g=/tmp/g.txt"]


# ----------------------------------------------------------------------
# ClientPool (extracted from bench_service)
# ----------------------------------------------------------------------
class TestClientPool:
    def test_pool_opens_wraps_and_closes(self):
        with ServerThread(GraphStore()) as server:
            with ClientPool(server.port, 3) as pool:
                assert len(pool) == 3
                assert len(set(map(id, pool))) == 3  # distinct sockets
                assert pool.client(0) is pool.client(3)  # wraparound
                assert pool.client(2) is pool.clients[2]
                for client in pool:
                    assert client.ping()["pong"] is True
            # close() drained the pool and is idempotent
            assert len(pool) == 0
            pool.close()

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ClientPool(12345, 0)

    def test_connect_failure_propagates(self):
        # A bound-but-closed ephemeral port: nothing is listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceConnectionError):
            ClientPool(port, 2, timeout=2.0)

    def test_forwards_client_kwargs(self):
        with ServerThread(GraphStore()) as server:
            with ClientPool(server.port, 2, tracing=True) as pool:
                pool.client(0).graphs()  # ping is deliberately untraced
                assert pool.client(0).last_trace_id is not None
                assert pool.client(1).last_trace_id is None
