"""The ``service-nell-x5`` workload: a durable ``repro serve`` process
driven by one closed-loop keep-alive connection.

Each round:

1. remove a seeded edge, then read all-pairs scores back (``fsim``);
2. add the edge back, then read back again;
3. send ``SERVICE_TOPK_PER_ROUND`` ``topk`` reads for distinct seeded
   nodes (every read follows an edit, so none is a cache hit);
4. send one request line over the server's 4 MiB limit on a second,
   short-lived connection.  It counts as failed unless the server
   answers it with a typed error and the connection stays usable.

A write is the ``mutate`` round trip plus its ``fsim`` read-back.  The
answers are checked against a replica graph that receives the same
edits: every read-back must equal ``fsim_matrix`` on the replica bit for
bit, and the first ``topk`` of each round must equal ``TopKSearch`` on
the replica.  The server's output goes to a log file, so nothing it
prints can fill a pipe.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

import inputs
from checks import (
    Verdict,
    answer_properties,
    check_equal,
    check_same_partners,
    check_same_scores,
    check_topk,
)
from common import (
    RUN_DIR,
    Recorder,
    child_env,
    median,
    ms,
    scores_digest,
    vm_hwm_mb,
)

#: Seconds to wait for a launched server's ``# ready on`` line.
READY_TIMEOUT = 60.0
GRAPH_NAME = "nell"


class ServerProcess:
    """One ``python -m repro serve`` process with a fresh WAL directory."""

    def __init__(self, workdir, graph_path, index: int):
        self.wal_dir = workdir / f"wal-{index}"
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.log_path = workdir / f"server-{index}.log"
        self._log = open(self.log_path, "wb")
        self.launched_at = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--graph", f"{GRAPH_NAME}={graph_path}",
             "--port", "0", "--wal-dir", str(self.wal_dir),
             "--wal-sync", "always", *inputs.SERVICE_SERVE_ARGS],
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=child_env(),
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                for line in handle:
                    if line.startswith(b"# ready on "):
                        return int(line.rsplit(b":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not become ready; see "
                           f"{self.log_path}")

    def stop(self) -> None:
        """Ask for a clean shutdown, then make sure the process ended."""
        if self.proc.poll() is None:
            from repro.service.client import ServiceClient

            try:
                with ServiceClient(port=self.port, timeout=10.0) as client:
                    client.shutdown()
            except Exception:  # already gone or wedged: killed below
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def _oversized(port: int) -> bool:
    """Send one request line over the 4 MiB limit on its own connection;
    True only when a typed error comes back and the connection then
    still answers a ping."""
    pad = b"x" * inputs.OVERSIZED_BYTES
    line = b'{"id":1,"op":"ping","pad":"' + pad + b'"}\n'
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(line)
            reply = json.loads(reader.readline() or b"null")
            if not isinstance(reply, dict) or reply.get("ok") is not False \
                    or not reply.get("error"):
                return False
            sock.sendall(b'{"id":2,"op":"ping"}\n')
            pong = json.loads(reader.readline() or b"null")
            return isinstance(pong, dict) and pong.get("ok") is True
    except (OSError, ValueError):
        return False


class SpanLog:
    """Server-side span durations of traced requests, by op."""

    def __init__(self):
        self.by_op: Dict[str, Dict[str, List[float]]] = {}

    def add(self, op: str, trace: dict) -> None:
        spans = self.by_op.setdefault(op, {})
        own: Dict[str, float] = {}
        for span in trace.get("spans", ()):
            spans.setdefault(span["name"], []).append(span["duration"])
            own[span["name"]] = own.get(span["name"], 0.0) + span["duration"]
        if "store.topk" in own:
            spans.setdefault("topk.loop", []).append(
                own["store.topk"] - own.get("engine.compile", 0.0))

    def p50_ms(self, op: str, name: str) -> Optional[float]:
        values = self.by_op.get(op, {}).get(name)
        return ms(median(values)) if values else None


def _layers(ledger, spans: SpanLog) -> dict:
    """Per-layer metrics of a traced run.  ``compile.ms`` and
    ``iterate.ms`` are the server's own time per ``topk`` (its
    ``engine.compile`` span and the rest of ``store.topk``, the top-k
    loop): the read this workload times.  The server records no span
    for the other layers of a ``topk``, so the rest come from the
    replica's reference solves of the same graph and configuration,
    whose compile is the one every ``topk`` builds (same pairs, match
    entries and arena)."""
    metrics = ledger.metrics()
    for name, span in (("compile.ms", "engine.compile"),
                       ("iterate.ms", "topk.loop")):
        value = spans.p50_ms("topk", span)
        if value is None:
            raise RuntimeError(f"no {span} span in any traced topk")
        metrics[name] = {"value": value, "unit": "ms"}
    return metrics


def _pair_stats(stats: dict) -> dict:
    entry = stats["pairs"][f"{GRAPH_NAME}|{GRAPH_NAME}"]
    return {"hits": entry["hits"], "misses": entry["misses"],
            **entry.get("session_stats", {})}


def run(args) -> dict:
    """One run of the workload; returns the pieces ``run.py`` prints."""
    from repro.core.api import fsim_matrix
    from repro.core.topk import TopKSearch
    from repro.graph.io import load_graph, save_graph
    from repro.service.client import ServiceClient, wire_partners, wire_scores

    from layers import LayerLedger, layered_solve

    workdir = RUN_DIR / inputs.SERVICE
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    graph_path = workdir / "nell.tsv"
    save_graph(inputs.service_graph(), graph_path)
    replica = load_graph(str(graph_path))
    config = inputs.service_config()
    verdict = Verdict()
    k = inputs.SERVICE_TOPK_K
    first_query = sorted(replica.nodes(), key=repr)[0]
    first_expected = TopKSearch(replica, replica, config).search(
        first_query, k).partners

    setups: List[float] = []
    server: Optional[ServerProcess] = None
    try:
        for index in range(inputs.SETUP_REPEATS[inputs.SERVICE]):
            if server is not None:
                server.stop()
            server = ServerProcess(workdir, graph_path, index)
            with ServiceClient(port=server.port) as client:
                answer = client.topk(GRAPH_NAME, first_query, k=k)
            setups.append(time.monotonic() - server.launched_at)
            partners = wire_partners(answer)
            verdict.run("topk_sorted", check_topk, first_query, partners, k)
            verdict.run("topk_vs_library", check_same_partners,
                        first_expected, partners)

        # Open the all-pairs session before measuring: the first read-back
        # would otherwise pay its cold start.
        with ServiceClient(port=server.port) as client:
            warm = client.fsim(GRAPH_NAME)
        verdict.run("fsim_vs_library", check_same_scores,
                    fsim_matrix(replica, replica, config=config).scores,
                    wire_scores(warm))

        picker = inputs.OpPicker(args.seed)
        rec = Recorder()
        spans = SpanLog()
        ledger = LayerLedger()
        wire_topk: List[float] = []
        wire_fsim: List[float] = []
        first_read = None
        client = ServiceClient(port=server.port, tracing=bool(args.trace))
        stats0 = _pair_stats(client.stats())

        def traced(op: str, trace_id: Optional[str], elapsed: float,
                   sink: Optional[list]) -> None:
            """Fetch one request's server spans (outside the timing)."""
            if not args.trace:
                return
            trace = client.trace_query(trace_id)["trace"]
            spans.add(op, trace)
            if sink is not None:
                sink.append(elapsed - trace["duration"])

        def write(kind: str, edge) -> tuple:
            """``mutate`` plus its ``fsim`` read-back."""
            start = time.perf_counter()
            client.mutate(GRAPH_NAME, [(kind, *edge)])
            mutate_s = time.perf_counter() - start
            mutate_trace = client.last_trace_id
            result = client.fsim(GRAPH_NAME)
            fsim_s = time.perf_counter() - start - mutate_s
            return result, mutate_trace, mutate_s, fsim_s

        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline:
            rec.begin_round()
            (edge,) = picker.edges(replica, 1)
            for kind in ("remove_edge", "add_edge"):
                out = rec.op("write", write, kind, edge)
                getattr(replica, kind)(*edge)
                if out is None:
                    continue
                result, mutate_trace, mutate_s, fsim_s = out
                traced("mutate", mutate_trace, mutate_s, None)
                traced("fsim", client.last_trace_id, fsim_s, wire_fsim)
                served = wire_scores(result)
                if args.trace:
                    expected = layered_solve(replica, replica, config,
                                             clear_caches=False)
                    ledger.add(expected.layers)
                else:
                    expected = fsim_matrix(replica, replica, config=config)
                verdict.run("fsim_vs_library", check_same_scores,
                            expected.scores, served)
                verdict.run("fsim_iterations", check_equal,
                            expected.iterations, result["iterations"],
                            "iterations")
                answer_properties(verdict, served, result["iterations"],
                                  replica, config)
                if first_read is None:
                    first_read = served
            queries = picker.nodes(replica, inputs.SERVICE_TOPK_PER_ROUND)
            for position, query in enumerate(queries):
                answer = rec.op("read", client.topk, GRAPH_NAME, query, k)
                if answer is None:
                    continue
                traced("topk", client.last_trace_id, rec.reads[-1],
                       wire_topk)
                partners = wire_partners(answer)
                verdict.run("topk_sorted", check_topk, query, partners, k)
                if position == 0:
                    expected = TopKSearch(replica, replica, config).search(
                        query, k).partners
                    verdict.run("topk_vs_library", check_same_partners,
                                expected, partners)
            rec.outcome(_oversized(server.port))
        stats1 = _pair_stats(client.stats())
        peak = vm_hwm_mb(server.proc.pid)
        client.ping()  # the keep-alive connection survived the run
        client.close()
    finally:
        if server is not None:
            server.stop()

    detail = {"wal_sync": "always", "server_log": str(server.log_path)}
    hits = stats1["hits"] - stats0["hits"]
    lookups = hits + stats1["misses"] - stats0["misses"]
    writes_n = len(rec.writes) or 1
    detail["store.cache_hit_ratio"] = hits / lookups if lookups else None
    detail["session.patch_ratio"] = (
        (stats1.get("compiled_patches", 0) - stats0.get("compiled_patches", 0))
        / writes_n
    )
    if args.trace:
        detail.update({
            "server.topk_p50_ms": spans.p50_ms("topk", "server.dispatch"),
            "wire.topk_ms": ms(median(wire_topk)) if wire_topk else None,
            "sched.queue_wait_p50_ms": spans.p50_ms("topk", "sched.queue"),
            "sched.lock_wait_p50_ms": spans.p50_ms("topk", "sched.lock_wait"),
            "sched.execute_p50_ms": spans.p50_ms("topk", "sched.execute"),
            "phase.compile_ms": spans.p50_ms("topk", "engine.compile"),
            # The top-k loop records no engine.iterate span of its own:
            # its time is store.topk minus the compile (with lowering).
            "phase.iterate_ms": spans.p50_ms("topk", "topk.loop"),
            "server.mutate_p50_ms": spans.p50_ms("mutate", "server.dispatch"),
            "server.fsim_p50_ms": spans.p50_ms("fsim", "server.dispatch"),
            "wire.fsim_ms": ms(median(wire_fsim)) if wire_fsim else None,
            "phase.wal_fsync_ms": spans.p50_ms("mutate", "wal.fsync"),
        })
    out = rec.report()
    out.update({
        "setups_s": setups, "peak_rss_mb": peak,
        "correct": verdict.ok, "verdict": verdict.report(),
        "detail": detail,
        "layers": _layers(ledger, spans) if ledger.solves else None,
        "first_read_sha256": scores_digest(first_read) if first_read else None,
    })
    return out
