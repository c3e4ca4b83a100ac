"""Durability tests: WAL, crash recovery, fault injection, self-healing.

The durable store's contract extends the service's bitwise-parity bar
across process death: a store recovered from snapshots + WAL replay
answers every query with exactly the floats the pre-crash store would
have produced for the acknowledged mutation prefix, and a retried
mutation (same client request id) is applied exactly once no matter
where the crash landed.  Parity baselines rebuild graphs through the
same construction sequence (never ``graph.copy()``).

Crash tests come in two speeds: in-process (``FaultInjector.crash``
monkeypatched to raise :class:`SimulatedCrash`, a ``BaseException`` no
store code catches) and a real kill-and-recover suite that runs
``python -m repro serve`` in a subprocess, lets an injected fault
``os._exit(137)`` it mid-mutation-stream, restarts it and checks the
recovered scores over the wire.
"""

import asyncio
import hashlib
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import FSimConfig, fsim_matrix
from repro.exceptions import (
    ServiceConnectionError,
    ServiceError,
    ServiceRetryError,
    WalCorruptionError,
    WalError,
)
from repro.graph.generators import random_graph, uniform_labels
from repro.graph.io import load_graph, save_graph
from repro.service import (
    AsyncServiceClient,
    FaultInjector,
    GraphStore,
    ServerThread,
    ServiceClient,
    WriteAheadLog,
    read_wal,
    recover_store,
)
from repro.service.client import is_retryable, wire_scores
from repro.service.snapshot import loads_payload
from repro.service.wal import (
    WAL_FILENAME,
    SimulatedCrash,
    repair_wal,
)
from repro.simulation import Variant
from repro.streaming.delta import DeltaOp

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_graph(num_nodes=18, num_edges=45, labels=3, seed=5):
    """Deterministic graph in *canonical construction order*.

    The generator's interleaved construction is normalized to
    all-nodes-then-all-edges (the order ``nodes()``/``edges()`` iterate
    and the order every durable rebuild path uses -- inline WAL
    sources, v/e text files), so a replayed twin is adjacency-order
    identical and scores match bitwise.
    """
    from repro.graph.digraph import LabeledDigraph

    generated = random_graph(
        num_nodes, num_edges,
        uniform_labels(num_nodes, labels, seed=seed), seed=seed + 1,
    )
    graph = LabeledDigraph(generated.name)
    for node in generated.nodes():
        graph.add_node(node, generated.label(node))
    for source, target in generated.edges():
        graph.add_edge(source, target)
    return graph


def numpy_config(**overrides):
    options = dict(variant=Variant.B, label_function="indicator",
                   backend="numpy")
    options.update(overrides)
    return FSimConfig(**options)


def format1_fingerprint(graph, config):
    """A snapshot fingerprint as format 1 wrote it: the graph, then a
    13-field config identity that ended in ``backend``."""
    hasher = hashlib.sha256()
    hasher.update(b"format:1\n")
    for node in graph.nodes():
        hasher.update(f"v\t{node!r}\t{graph.label(node)!r}\n".encode())
    for source, target in graph.edges():
        hasher.update(f"e\t{source!r}\t{target!r}\n".encode())
    label = config.label_function
    identity = (
        config.variant.value, config.w_out, config.w_in,
        label if isinstance(label, str) else repr(label), config.theta,
        config.use_upper_bound, config.alpha, config.beta, config.epsilon,
        config.max_iterations, config.matching_mode, config.normalizer,
        config.backend,
    )
    hasher.update(repr(identity).encode())
    return hasher.hexdigest()


def register_durable(store, name="g", graph=None):
    """Register with an inline source so WAL replay can rebuild the
    graph through the identical construction sequence (nodes and edges
    in insertion order -> bitwise-equal scores)."""
    if graph is None:
        graph = make_graph()
    source = {
        "nodes": [[node, graph.label(node)] for node in graph.nodes()],
        "edges": [list(edge) for edge in graph.edges()],
    }
    store.register(name, graph, source=source)
    return graph


def mutation_stream(count=8):
    """Deterministic always-valid mutation batches: each adds a fresh
    node and wires it to an existing one (fresh node -> no duplicate
    edges, no rejections -- crash points stay the interesting part)."""
    return [
        [DeltaOp("add_node", 1000 + index, index % 3),
         DeltaOp("add_edge", 1000 + index, index % 18)]
        for index in range(count)
    ]


def reference_scores(batches, config, graph_factory=make_graph):
    """Serial baseline: fresh graph, apply ``batches`` once, fsim.

    ``graph_factory`` must rebuild the graph through the same
    construction sequence as the store under test (text-file-loaded
    graphs have string node ids; generator graphs have ints)."""
    store = GraphStore(default_config=config)
    store.register("ref", graph_factory())
    for ops in batches:
        store.mutate("ref", ops)
    result = store.fsim("ref", "ref")
    scores = dict(result.scores)
    version = store.graph("ref").graph.version
    store.close()
    return scores, version


def raising_injector(spec):
    """A FaultInjector whose crash raises instead of killing pytest."""
    injector = FaultInjector(spec)

    def _crash():
        raise SimulatedCrash(f"injected crash ({spec})")

    injector.crash = _crash
    return injector


# ----------------------------------------------------------------------
# WAL format and scanning
# ----------------------------------------------------------------------
class TestWalFormat:
    def test_append_read_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path, sync="always") as wal:
            s1 = wal.append({"kind": "register", "graph": "g",
                             "source": {"path": "x"}, "replace": False})
            s2 = wal.append({"kind": "mutate", "graph": "g",
                             "ops": [["add_edge", 1, 2]], "rid": "r1"})
        assert (s1, s2) == (1, 2)
        outcome = read_wal(tmp_path / WAL_FILENAME)
        assert not outcome.torn
        assert [r["seq"] for r in outcome.records] == [1, 2]
        assert outcome.records[1]["ops"] == [["add_edge", 1, 2]]
        assert outcome.records[1]["rid"] == "r1"

    def test_reopen_continues_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append({"kind": "unregister", "graph": "g"})
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 1
            assert wal.append({"kind": "unregister", "graph": "g"}) == 2

    def test_unknown_kind_and_unserializable_record(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            with pytest.raises(WalError):
                wal.append({"kind": "nonsense"})
            with pytest.raises(WalError):
                wal.append({"kind": "mutate", "graph": "g",
                            "ops": [["add_node", object(), 0]]})
            assert wal.last_seq == 0  # nothing consumed a seq

    def test_missing_and_empty_files_are_valid_empty_logs(self, tmp_path):
        assert read_wal(tmp_path / "absent.wal").records == []
        empty = tmp_path / WAL_FILENAME
        empty.write_bytes(b"")
        assert read_wal(empty) == ([], 0, 0)

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        with WriteAheadLog(tmp_path, sync="always") as wal:
            wal.append({"kind": "unregister", "graph": "a"})
            wal.append({"kind": "unregister", "graph": "b"})
        clean = path.read_bytes()
        path.write_bytes(clean + b'deadbeef {"kind":"mutate"')  # torn
        outcome = read_wal(path)
        assert outcome.torn
        assert len(outcome.records) == 2  # the tail is excluded, not fatal
        removed = repair_wal(path)
        assert removed > 0
        assert path.read_bytes() == clean
        assert not read_wal(path).torn

    def test_invalid_final_terminated_record_is_torn_not_corrupt(
            self, tmp_path):
        path = tmp_path / WAL_FILENAME
        with WriteAheadLog(tmp_path, sync="always") as wal:
            wal.append({"kind": "unregister", "graph": "a"})
        line = WriteAheadLog.encode({"kind": "unregister", "graph": "b",
                                     "seq": 2})
        with open(path, "ab") as handle:
            handle.write(FaultInjector.corrupt(line))  # bad CRC, has \n
        outcome = read_wal(path)
        assert outcome.torn and len(outcome.records) == 1

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        with WriteAheadLog(tmp_path, sync="always") as wal:
            wal.append({"kind": "unregister", "graph": "a"})
            wal.append({"kind": "unregister", "graph": "b"})
        data = path.read_bytes()
        first_newline = data.find(b"\n")
        mangled = FaultInjector.corrupt(data[:first_newline]) \
            + data[first_newline:]
        path.write_bytes(mangled)
        with pytest.raises(WalCorruptionError):
            read_wal(path)
        with pytest.raises(WalCorruptionError):
            recover_store(tmp_path, config=numpy_config())

    def test_rotate_is_atomic_under_crash(self, tmp_path):
        injector = raising_injector("crash-before-rotate-rename:1")
        wal = WriteAheadLog(tmp_path, sync="always",
                            fault_injector=injector)
        wal.append({"kind": "unregister", "graph": "a"})
        with pytest.raises(SimulatedCrash):
            wal.rotate({"kind": "checkpoint", "graphs": {}, "rids": {}})
        # The old log survives untouched (crash fell before the rename).
        outcome = read_wal(tmp_path / WAL_FILENAME)
        assert [r["kind"] for r in outcome.records] == ["unregister"]

    def test_rotate_replaces_log_with_checkpoint(self, tmp_path):
        with WriteAheadLog(tmp_path, sync="always") as wal:
            for _ in range(5):
                wal.append({"kind": "unregister", "graph": "a"})
            report = wal.rotate({"kind": "checkpoint",
                                 "graphs": {"a": 5}, "rids": {}})
            assert report["checkpoint_seq"] == 6
            wal.append({"kind": "unregister", "graph": "b"})
        records = read_wal(tmp_path / WAL_FILENAME).records
        assert [r["kind"] for r in records] == ["checkpoint", "unregister"]
        assert [r["seq"] for r in records] == [6, 7]


# ----------------------------------------------------------------------
# fault injection plumbing
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_spec_parsing_rejects_unknown_and_malformed(self):
        with pytest.raises(WalError):
            FaultInjector("no-such-fault:1")
        with pytest.raises(WalError):
            FaultInjector("disk-full")
        assert FaultInjector("disk-full:2,torn-append:3").faults == [
            ("disk-full", 2), ("torn-append", 3)]

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FaultInjector.ENV_VAR, raising=False)
        assert FaultInjector.from_env() is None
        monkeypatch.setenv(FaultInjector.ENV_VAR, "disk-full:1")
        assert FaultInjector.from_env().faults == [("disk-full", 1)]

    def test_disk_full_fails_append_without_applying(self, tmp_path):
        store = GraphStore(
            default_config=numpy_config(),
            wal=WriteAheadLog(tmp_path, sync="always",
                              fault_injector=FaultInjector("disk-full:2")),
        )
        register_durable(store)
        version = store.graph("g").graph.version
        with pytest.raises(OSError):
            store.mutate("g", [DeltaOp("add_edge", 0, 2)], rid="r1")
        # WAL-before-apply: the failed append left the graph untouched,
        # and the rid was never consumed -- a retry applies cleanly.
        assert store.graph("g").graph.version == version
        outcome = store.mutate("g", [DeltaOp("add_edge", 0, 2)], rid="r1")
        assert "deduped" not in outcome
        store.close()


# ----------------------------------------------------------------------
# in-process crash / recover (SimulatedCrash)
# ----------------------------------------------------------------------
CRASH_POINTS = ["crash-before-append", "crash-after-append",
                "crash-after-fsync", "torn-append"]


class TestCrashRecovery:
    @pytest.mark.parametrize("fault", CRASH_POINTS)
    def test_kill_mid_stream_then_recover_bitwise(self, tmp_path, fault):
        config = numpy_config()
        batches = mutation_stream(count=8)
        crash_at = 5  # appends: 1 register + mutations; crash mid-stream
        store = GraphStore(
            default_config=config,
            wal=WriteAheadLog(
                tmp_path, sync="always",
                fault_injector=raising_injector(f"{fault}:{crash_at}"),
            ),
        )
        register_durable(store)
        acked = []
        pending = list(enumerate(batches))
        crashed = False
        for index, ops in list(pending):
            try:
                store.mutate("g", ops, rid=f"rid-{index}")
            except SimulatedCrash:
                crashed = True
                break
            acked.append(index)
            pending.pop(0)
        assert crashed, "the injected fault never fired"
        # Deliberately NOT store.close(): that would be a clean
        # shutdown.  The 'process' just died with its handles open.
        del store

        recovered, report = recover_store(tmp_path, config=config)
        if fault == "torn-append":
            assert report.truncated_bytes > 0
        # Every *acknowledged* mutation survived the crash...
        for index in acked:
            retry = recovered.mutate("g", batches[index],
                                     rid=f"rid-{index}")
            assert retry.get("deduped"), (
                f"acked mutation {index} was lost across the crash")
        # ...and the unacknowledged suffix retries to exactly-once
        # (deduped when the record hit the log pre-crash, fresh apply
        # otherwise -- either way applied exactly once).
        for index, ops in pending:
            recovered.mutate("g", ops, rid=f"rid-{index}")
        expected_scores, expected_version = reference_scores(
            batches, config)
        assert recovered.graph("g").graph.version == expected_version
        assert dict(recovered.fsim("g", "g").scores) == expected_scores
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        for index, ops in enumerate(mutation_stream(count=5)):
            store.mutate("g", ops, rid=f"rid-{index}")
        expected = dict(store.fsim("g", "g").scores)
        store.close()
        for _ in range(3):  # recover repeatedly from the same directory
            recovered, _report = recover_store(tmp_path, config=config)
            assert dict(recovered.fsim("g", "g").scores) == expected
            recovered.close()


# ----------------------------------------------------------------------
# exactly-once request ids
# ----------------------------------------------------------------------
class TestRidDedup:
    def test_same_rid_applies_once(self, tmp_path):
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path))
        register_durable(store)
        first = store.mutate("g", [DeltaOp("add_edge", 0, 2)], rid="r")
        version = store.graph("g").graph.version
        second = store.mutate("g", [DeltaOp("add_edge", 0, 2)], rid="r")
        assert second.get("deduped") is True
        assert second["version"] == first["version"]
        assert store.graph("g").graph.version == version
        assert store.deduped_mutations == 1
        # The WAL holds exactly one record for the rid.
        store.close()
        records = read_wal(tmp_path / WAL_FILENAME).records
        assert sum(r.get("rid") == "r" for r in records) == 1

    def test_failed_outcome_is_remembered(self, tmp_path):
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path))
        register_durable(store)
        bad = [DeltaOp("remove_edge", "missing", "also-missing")]
        with pytest.raises(ServiceError):
            store.mutate("g", bad, rid="r")
        version = store.graph("g").graph.version
        with pytest.raises(ServiceError):
            store.mutate("g", bad, rid="r")  # replayed from the rid map
        assert store.graph("g").graph.version == version
        store.close()

    def test_dedup_survives_recovery_and_compaction(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)], rid="pre-compact")
        store.compact()  # rid now lives in the checkpoint record only
        store.mutate("g", [DeltaOp("add_edge", 1, 3)], rid="post-compact")
        version = store.graph("g").graph.version
        store.close()
        recovered, report = recover_store(tmp_path, config=config)
        assert report.recovered_rids >= 1
        for rid, ops in (("pre-compact", [DeltaOp("add_edge", 0, 2)]),
                         ("post-compact", [DeltaOp("add_edge", 1, 3)])):
            assert recovered.mutate("g", ops, rid=rid).get("deduped")
        assert recovered.graph("g").graph.version == version
        recovered.close()


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_autocompaction_bounds_log_size(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"),
                           wal_compact_bytes=512)
        register_durable(store)
        for index in range(40):
            store.mutate("g", [DeltaOp("add_node", 2000 + index, 0)],
                         rid=f"rid-{index}")
        assert store.compactions >= 1
        assert (tmp_path / "g.snap").exists()
        assert store.wal.size_bytes() < 40 * 64  # bounded, not 40 records
        expected = dict(store.fsim("g", "g").scores)
        version = store.graph("g").graph.version
        store.close()
        recovered, report = recover_store(tmp_path, config=config)
        assert dict(recovered.fsim("g", "g").scores) == expected
        assert recovered.graph("g").graph.version == version
        recovered.close()

    def test_compaction_snapshot_is_opportunistic(self, tmp_path):
        """A mutation-only graph compacts without computing fsim."""
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path))
        register_durable(store)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)])
        store.compact()
        stats = store.stats()
        assert stats["graphs"]["g"]["wal_seq"] >= 2
        # No pair state was materialized just to snapshot.
        assert stats["pairs"] == {}
        store.close()

    def test_unregistered_graph_snapshot_removed(self, tmp_path):
        store = GraphStore(default_config=numpy_config(),
                          wal=WriteAheadLog(tmp_path))
        register_durable(store, "a")
        register_durable(store, "b", make_graph(seed=9))
        store.compact()
        assert (tmp_path / "b.snap").exists()
        store.unregister("b")
        store.compact()
        assert not (tmp_path / "b.snap").exists()
        recovered, _ = recover_store(tmp_path, config=numpy_config())
        assert recovered.graph_names() == ["a"]
        recovered.close()
        store.close()


# ----------------------------------------------------------------------
# snapshot + WAL edge cases
# ----------------------------------------------------------------------
class TestSnapshotWalEdgeCases:
    def test_stale_snapshot_with_newer_wal_suffix(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)])
        store.compact()  # snapshot at this watermark
        suffix = [[DeltaOp("add_node", 3000, 1)],
                  [DeltaOp("add_edge", 3000, 4)]]
        for ops in suffix:
            store.mutate("g", ops)  # newer than the snapshot
        expected = dict(store.fsim("g", "g").scores)
        version = store.graph("g").graph.version
        store.close()
        recovered, report = recover_store(tmp_path, config=config)
        assert report.snapshots_warm + report.snapshots_cold == 1
        assert report.replayed_mutations == len(suffix)
        assert recovered.graph("g").graph.version == version
        assert dict(recovered.fsim("g", "g").scores) == expected
        recovered.close()

    def test_wal_without_snapshot(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        nodes = [[i, i % 3] for i in range(8)]
        edges = [[i, (i + 1) % 8] for i in range(8)]
        from repro.graph.digraph import LabeledDigraph

        graph = LabeledDigraph("g")
        for node, label in nodes:
            graph.add_node(node, label)
        for a, b in edges:
            graph.add_edge(a, b)
        store.register("g", graph,
                       source={"nodes": nodes, "edges": edges})
        store.mutate("g", [DeltaOp("add_edge", 0, 4)])
        expected = dict(store.fsim("g", "g").scores)
        store.close()
        assert not list(tmp_path.glob("*.snap"))
        recovered, report = recover_store(tmp_path, config=config)
        assert report.replayed_registers == 1
        assert dict(recovered.fsim("g", "g").scores) == expected
        recovered.close()

    @pytest.mark.parametrize("strict_config", [True, False])
    def test_executor_era_snapshot_and_register_recover_in_process(
            self, tmp_path, strict_config):
        """A WAL directory written by a store run with
        ``executor="shared_memory", workers=2`` -- a compaction
        snapshot whose pickled config carries both, then a ``register``
        record with those params -- recovers bitwise, with
        (``strict_config``) and without a served config, and every
        graph is served with ``workers=1``."""
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        object.__setattr__(config, "executor", "shared_memory")
        object.__setattr__(config, "workers", 2)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)])
        store.fsim("g", "g")
        store.compact()  # the snapshot pickles the executor-era config
        (snapshot,) = tmp_path.glob("*.snap")
        assert b"shared_memory" in snapshot.read_bytes()
        other = make_graph(seed=9)
        store.register("h", other, source={
            "nodes": [[node, other.label(node)] for node in other.nodes()],
            "edges": [list(edge) for edge in other.edges()],
            "params": {"workers": 2, "executor": "shared_memory"},
        })
        store.mutate("g", [DeltaOp("add_node", 3000, 1),
                           DeltaOp("add_edge", 3000, 4)])
        store.mutate("h", [DeltaOp("remove_edge",
                                   *next(iter(other.edges())))])
        expected = {name: dict(store.fsim(name, name).scores)
                    for name in ("g", "h")}
        store.close()
        recovered, report = recover_store(tmp_path, config=numpy_config(),
                                          strict_config=strict_config)
        assert report.snapshots_warm == 1
        assert report.replayed_registers == 1
        for name in ("g", "h"):
            served = recovered.graph(name).config
            assert served == numpy_config()
            assert "executor" not in vars(served)
            assert dict(recovered.fsim(name, name).scores) == expected[name]
        recovered.close()

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_format1_snapshot_and_backend_register_recover_warm(
            self, tmp_path, caplog, backend):
        """A WAL directory from before the score key -- a format-1
        compaction snapshot and a ``register`` record whose params
        carry ``backend`` -- recovers warm and bitwise, also under a
        served config with another backend; the recorded ``backend``
        is dropped with a warning."""
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)])
        store.fsim("g", "g")
        store.compact()
        (snapshot,) = tmp_path.glob("*.snap")
        payload = loads_payload(snapshot.read_bytes())
        payload["format"] = 1
        payload["fingerprint"] = format1_fingerprint(payload["graph"],
                                                     payload["config"])
        snapshot.write_bytes(pickle.dumps(payload))
        other = make_graph(seed=9)
        store.register("h", other, numpy_config(variant=Variant.DP),
                       source={
            "nodes": [[node, other.label(node)] for node in other.nodes()],
            "edges": [list(edge) for edge in other.edges()],
            "params": {"variant": "dp", "backend": "numpy"},
        })
        store.mutate("g", [DeltaOp("add_node", 3000, 1),
                           DeltaOp("add_edge", 3000, 4)])
        store.mutate("h", [DeltaOp("remove_edge",
                                   *next(iter(other.edges())))])
        expected = {name: dict(store.fsim(name, name).scores)
                    for name in ("g", "h")}
        store.close()
        served = numpy_config(backend=backend)
        with caplog.at_level("WARNING", logger="repro.service.recovery"):
            recovered, report = recover_store(tmp_path, config=served,
                                              strict_config=True)
        assert report.snapshots_warm == 1
        assert report.snapshots_cold == 0
        assert report.replayed_registers == 1
        assert "dropped execution params backend" in caplog.text
        assert recovered.graph("h").config == served.with_options(
            variant=Variant.DP)
        for name in ("g", "h"):
            assert dict(recovered.fsim(name, name).scores) == expected[name]
        pair = recovered.pair("g", "g", recovered.graph("g").config)
        assert pair.session.stats["cold_runs"] == 0
        recovered.close()

    def test_register_with_retired_execution_params_replays(
            self, tmp_path, caplog):
        """``register`` records written before params were validated
        may carry execution fields (two of them since removed from the
        config); replay drops them, logs it, and recovers bitwise."""
        config = numpy_config(variant=Variant.DP)
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path, sync="always"))
        graph = make_graph()
        params = {"variant": "dp", "workers": 2, "executor": "fork",
                  "shards": 2, "arena_backend": "memmap"}
        store.register("g", graph, config, source={
            "nodes": [[node, graph.label(node)] for node in graph.nodes()],
            "edges": [list(edge) for edge in graph.edges()],
            "params": params,
        })
        batches = mutation_stream(3)
        for ops in batches:
            store.mutate("g", ops)
        store.close()
        with caplog.at_level("WARNING", logger="repro.service.recovery"):
            recovered, report = recover_store(tmp_path,
                                              config=numpy_config())
        assert report.replayed_registers == 1
        assert report.lost_graphs == []
        assert "arena_backend, executor, shards, workers" in caplog.text
        assert recovered.graph("g").config == config
        expected, _ = reference_scores(batches, config)
        assert dict(recovered.fsim("g", "g").scores) == expected
        recovered.close()

    def test_empty_wal_directory(self, tmp_path):
        recovered, report = recover_store(tmp_path, config=numpy_config())
        assert recovered.graph_names() == []
        assert report.records_read == 0
        # The attached log is live: durability starts immediately.
        register_durable(recovered)
        recovered.mutate("g", [DeltaOp("add_edge", 0, 2)])
        recovered.close()
        again, report2 = recover_store(tmp_path, config=numpy_config())
        assert again.graph_names() == ["g"]
        assert report2.replayed_mutations == 1
        again.close()

    def test_duplicate_sequence_numbers_skipped(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        nodes = [[i, 0] for i in range(4)]
        lines = [
            WriteAheadLog.encode({"kind": "register", "graph": "g",
                                  "source": {"nodes": nodes, "edges": []},
                                  "replace": False, "seq": 1}),
            WriteAheadLog.encode({"kind": "mutate", "graph": "g",
                                  "ops": [["add_edge", 0, 1]],
                                  "rid": None, "seq": 2}),
            # a duplicated seq 2 (e.g. a replayed shipping artifact)
            WriteAheadLog.encode({"kind": "mutate", "graph": "g",
                                  "ops": [["add_edge", 0, 1]],
                                  "rid": None, "seq": 2}),
            WriteAheadLog.encode({"kind": "mutate", "graph": "g",
                                  "ops": [["add_edge", 1, 2]],
                                  "rid": None, "seq": 3}),
        ]
        path.write_bytes(b"".join(lines))
        recovered, report = recover_store(tmp_path, config=numpy_config())
        assert report.skipped_duplicates == 1
        assert report.replayed_mutations == 2
        graph = recovered.graph("g").graph
        assert graph.num_edges == 2  # the duplicate did not double-apply
        recovered.close()

    def test_mutations_for_unknown_graph_are_skipped(self, tmp_path):
        path = tmp_path / WAL_FILENAME
        # A mutate record for a graph that was registered programmatically
        # (source=None -> never logged): replay cannot rebuild it.
        path.write_bytes(WriteAheadLog.encode(
            {"kind": "mutate", "graph": "ghost",
             "ops": [["add_edge", 0, 1]], "rid": None, "seq": 1}))
        recovered, report = recover_store(tmp_path, config=numpy_config())
        assert report.skipped_unknown_graph == 1
        assert recovered.graph_names() == []
        recovered.close()


# ----------------------------------------------------------------------
# server integration (in-process)
# ----------------------------------------------------------------------
class TestServerDurability:
    def test_wire_mutations_are_durable_and_deduped(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="batch"))
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        with ServerThread(store) as harness:
            with ServiceClient(port=harness.port, timeout=30.0) as client:
                client.register("g", path=str(graph_path))
                # Text-loaded graphs have string node ids.
                first = client.mutate("g", [("add_edge", "0", "2")],
                                      rid="w1")
                again = client.mutate("g", [("add_edge", "0", "2")],
                                      rid="w1")
                assert again.get("deduped") is True
                assert again["version"] == first["version"]
                stats = client.stats()
                assert stats["wal"]["last_seq"] >= 2
                assert stats["wal"]["deduped_mutations"] == 1
                expected = wire_scores(client.fsim("g", "g"))
        recovered, report = recover_store(tmp_path, config=config)
        assert report.replayed_registers == 1
        assert dict(recovered.fsim("g", "g").scores) == expected
        assert recovered.mutate("g", [DeltaOp("add_edge", "0", "2")],
                                rid="w1").get("deduped")
        recovered.close()

    def test_server_compacts_in_background(self, tmp_path):
        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="batch"),
                           wal_compact_bytes=256)
        with ServerThread(store, compact_interval=0.05) as harness:
            assert store.wal_autocompact is False  # server owns compaction
            with ServiceClient(port=harness.port, timeout=30.0) as client:
                client.register("g", nodes=[[i, 0] for i in range(6)],
                                edges=[[i, (i + 1) % 6] for i in range(6)])
                for index in range(30):
                    client.mutate("g", [("add_node", 5000 + index, 0)])
                deadline = time.time() + 5.0
                while store.compactions == 0 and time.time() < deadline:
                    time.sleep(0.02)
        assert store.compactions >= 1
        assert (tmp_path / "g.snap").exists()
        recovered, _report = recover_store(tmp_path, config=config)
        assert recovered.graph("g").graph.num_nodes == 36
        recovered.close()

    def test_drain_timeout_configurable_and_abort_typed(self):
        from repro.service import FSimServer, MicroBatchScheduler

        server = FSimServer(drain_timeout=1.5)
        assert server.drain_timeout == 1.5

        async def _exercise_abort():
            scheduler = MicroBatchScheduler(GraphStore(), window=60.0)
            task = asyncio.ensure_future(
                scheduler.submit("fsim", {"graph1": "g", "graph2": "g",
                                          "params": None}))
            await asyncio.sleep(0.05)  # queued, window not yet elapsed
            aborted = scheduler.abort_pending("shutting down")
            assert aborted == 1
            with pytest.raises(ServiceError, match="shutting down"):
                await task

        asyncio.run(_exercise_abort())


# ----------------------------------------------------------------------
# client robustness
# ----------------------------------------------------------------------
class TestClientTimeouts:
    def test_unresponsive_server_raises_typed_error_fast(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            client = ServiceClient(port=port, timeout=0.3)
            start = time.time()
            with pytest.raises(ServiceConnectionError):
                client.ping()  # accepted but never answered
            assert time.time() - start < 5.0
            client.close()
        finally:
            listener.close()

    def test_connect_refused_is_typed(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        with pytest.raises(ServiceConnectionError):
            ServiceClient(port=port, timeout=0.5)

    def test_server_close_mid_session_is_typed(self):
        store = GraphStore(default_config=numpy_config())
        harness = ServerThread(store).start()
        client = ServiceClient(port=harness.port, timeout=5.0)
        assert client.ping() == {"pong": True}
        harness.stop()
        with pytest.raises(ServiceConnectionError):
            client.ping()
        client.close()

    def test_retryable_classification(self):
        assert is_retryable(ServiceConnectionError("x"))
        from repro.exceptions import ServiceOverloadedError

        assert is_retryable(ServiceOverloadedError("x"))
        assert not is_retryable(ServiceError("bad request"))
        assert not is_retryable(ServiceRetryError("exhausted"))


class TestSelfHealingClient:
    @staticmethod
    def _free_port():
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_reconnects_across_server_restart(self, tmp_path):
        config = numpy_config()
        port = self._free_port()
        store_a = GraphStore(default_config=config,
                             wal=WriteAheadLog(tmp_path, sync="always"))
        harness_a = ServerThread(store_a, port=port).start()

        async def _phase_one(client):
            await client.register(
                "g", nodes=[[i, 0] for i in range(6)],
                edges=[[i, (i + 1) % 6] for i in range(6)])
            return await client.mutate("g", [("add_edge", 1, 4)])

        async def _phase_two(client):
            # Resent mutation (explicit rid reuse) must dedup against
            # the recovered store; a fresh query must succeed after the
            # client silently reconnects.
            outcome = await client.mutate("g", [("add_edge", 0, 3)],
                                          rid="healed")
            result = await client.fsim("g", "g")
            return outcome, result

        async def _run():
            client = AsyncServiceClient(port=port, timeout=10.0,
                                        max_retries=8, backoff=0.05)
            await _phase_one(client)
            first = await client.mutate("g", [("add_edge", 0, 3)],
                                        rid="healed")
            return client, first

        loop = asyncio.new_event_loop()
        try:
            client, first = loop.run_until_complete(_run())
            harness_a.stop()  # crash substitute: connection drops

            # While the server is down, the retry budget exhausts into
            # the terminal typed error.
            impatient = AsyncServiceClient(port=port, timeout=0.5,
                                           max_retries=1, backoff=0.01)
            with pytest.raises(ServiceRetryError):
                loop.run_until_complete(impatient.request("ping"))
            loop.run_until_complete(impatient.close())

            recovered, _report = recover_store(tmp_path, config=config)
            harness_b = ServerThread(recovered, port=port).start()
            try:
                outcome, result = loop.run_until_complete(
                    _phase_two(client))
                assert outcome.get("deduped") is True
                assert outcome["version"] == first["version"]
                assert client.stats["reconnects"] >= 2
                assert result["converged"]
            finally:
                loop.run_until_complete(client.close())
                harness_b.stop()
        finally:
            loop.close()


# ----------------------------------------------------------------------
# kill -9 a real server, recover, verify over the wire
# ----------------------------------------------------------------------
class TestKillAndRecover:
    @staticmethod
    def _spawn_server(tmp_path, graph_path, fault=None, sync="always"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop(FaultInjector.ENV_VAR, None)
        if fault:
            env[FaultInjector.ENV_VAR] = fault
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", f"g={graph_path}",
             "--wal-dir", str(tmp_path / "wal"),
             "--wal-sync", sync,
             "--port", "0", "--window", "0.001",
             "--variant", "b", "--label-function", "indicator",
             "--backend", "numpy"],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        port = None
        deadline = time.time() + 60.0
        while time.time() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith("# ready on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            process.kill()
            raise AssertionError("server never printed its ready line")
        return process, port

    @staticmethod
    def _reap(process):
        """Collect the server's exit code; never hang the suite on a
        wedged subprocess (kill it and fail visibly instead)."""
        process.stdout.close()
        try:
            return process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
            raise AssertionError("server subprocess failed to exit")

    @pytest.mark.parametrize("fault", ["crash-after-append:4",
                                       "torn-append:4"])
    def test_sigkill_mid_stream_recovers_bitwise(self, tmp_path, fault):
        config = numpy_config()
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        batches = [[("add_node", 4000 + i, i % 3)] for i in range(6)]

        process, port = self._spawn_server(tmp_path, graph_path,
                                           fault=fault)
        acked, unacked = [], []
        try:
            client = ServiceClient(port=port, timeout=15.0)
            for index, ops in enumerate(batches):
                try:
                    client.mutate("g", ops, rid=f"rid-{index}")
                    acked.append(index)
                except ServiceConnectionError:
                    unacked.append(index)
                    break
            client.close()
        finally:
            exit_code = self._reap(process)
        assert exit_code == 137, "the injected fault should have killed it"
        assert unacked, "the crash should interrupt the stream"
        unacked.extend(range(unacked[-1] + 1, len(batches)))

        # Restart over the same WAL directory, no fault this time.
        process, port = self._spawn_server(tmp_path, graph_path)
        try:
            client = ServiceClient(port=port, timeout=15.0)
            # A well-behaved client resends everything unacknowledged
            # with the original rids (self-healing behavior, spelled
            # out): acked ones must dedup, unacked apply exactly once.
            for index in acked:
                assert client.mutate("g", batches[index],
                                     rid=f"rid-{index}").get("deduped")
            for index in unacked:
                client.mutate("g", batches[index], rid=f"rid-{index}")
            observed = wire_scores(client.fsim("g", "g"))
            version = client.stats()["graphs"]["g"]["version"]
            client.shutdown()
            client.close()
        finally:
            assert self._reap(process) == 0

        ops_batches = [[DeltaOp(*op) for op in batch]
                       for batch in batches]
        expected_scores, expected_version = reference_scores(
            ops_batches, config,
            graph_factory=lambda: load_graph(graph_path, name="g"))
        assert version == expected_version
        assert observed == expected_scores

    def test_clean_restart_resumes_from_shutdown_compaction(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        save_graph(make_graph(), graph_path)
        process, port = self._spawn_server(tmp_path, graph_path)
        try:
            client = ServiceClient(port=port, timeout=15.0)
            # Text-loaded graphs have string node ids.
            client.mutate("g", [("add_edge", "0", "2")], rid="only")
            baseline = wire_scores(client.fsim("g", "g"))
            client.shutdown()
            client.close()
        finally:
            assert self._reap(process) == 0
        # The clean shutdown compacted: snapshot exists, log is short.
        assert (tmp_path / "wal" / "g.snap").exists()
        process, port = self._spawn_server(tmp_path, graph_path)
        try:
            client = ServiceClient(port=port, timeout=15.0)
            assert client.mutate("g", [("add_edge", "0", "2")],
                                 rid="only").get("deduped")
            assert wire_scores(client.fsim("g", "g")) == baseline
            client.shutdown()
            client.close()
        finally:
            assert self._reap(process) == 0


# ----------------------------------------------------------------------
# offline recovery CLI
# ----------------------------------------------------------------------
class TestRecoverCommand:
    def test_prints_fingerprint_and_counts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.snapshot import graph_fingerprint

        config = numpy_config()
        store = GraphStore(default_config=config,
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        store.mutate("g", [DeltaOp("add_edge", 0, 2)])
        expected = graph_fingerprint(store.graph("g").graph, config)
        store.close()

        code = main(["recover", "--wal-dir", str(tmp_path),
                     "--variant", "b", "--label-function", "indicator",
                     "--backend", "numpy", "--strict-config"])
        captured = capsys.readouterr().out
        assert code == 0
        assert f"fingerprint={expected}" in captured
        assert "1 mutation(s) replayed" in captured

    def test_offline_recovery_does_not_touch_disk(self, tmp_path):
        store = GraphStore(default_config=numpy_config(),
                           wal=WriteAheadLog(tmp_path, sync="always"))
        register_durable(store)
        store.close()
        wal_path = tmp_path / WAL_FILENAME
        before = wal_path.read_bytes()
        # Simulate a torn tail; attach=False must not repair it.
        wal_path.write_bytes(before + b"torn")
        recover_store(tmp_path, config=numpy_config(), attach=False)
        assert wal_path.read_bytes() == before + b"torn"
