"""Clients for the FSim query service: blocking and self-healing async.

One :class:`ServiceClient` holds one TCP connection with one request in
flight (thread-safe via an internal lock; concurrent load generators
should open one client per thread, like the benchmark does).  Methods
mirror the server ops and return the parsed ``result`` object;
``ok: false`` responses raise :class:`~repro.exceptions.ServiceError`
(or :class:`~repro.exceptions.ServiceOverloadedError` when the server's
admission control rejected the request -- catch it and back off).
Transport failures -- connect/read timeouts, resets, the server closing
mid-request -- raise the typed
:class:`~repro.exceptions.ServiceConnectionError` instead of leaking
``socket.timeout`` / ``ConnectionResetError``, and the constructor's
``timeout`` bounds *every* blocking wait, so a hung server can never
hang the client forever.

:class:`AsyncServiceClient` is the self-healing variant: it reconnects
with exponential backoff + jitter when the connection drops (server
crash, restart, network blip) and retries the request.  Retried
mutations are safe because every mutation carries a client-generated
request id (``rid``) that the server deduplicates durably -- a retry of
a mutation the crashed server already logged is acknowledged from the
WAL-recovered outcome, never applied twice.  When the retry budget runs
out the last retryable error is wrapped in the *terminal*
:class:`~repro.exceptions.ServiceRetryError`.

Helpers :func:`wire_scores` / :func:`wire_partners` convert the JSON
rows back into the dict/list shapes the library returns, so parity
checks against direct :func:`repro.core.api.fsim_matrix` /
``TopKSearch`` calls are one equality away.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading
import time
import uuid
from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs import tracing as obs_tracing
from repro.exceptions import (
    ReplicaLaggingError,
    ReplicaReadOnlyError,
    ServiceConnectionError,
    ServiceError,
    ServiceOverloadedError,
    ServiceRetryError,
)

Node = Hashable

#: Transport-level exceptions a client maps to ServiceConnectionError.
_TRANSPORT_ERRORS = (
    socket.timeout,
    ConnectionError,  # covers reset / refused / aborted / broken pipe
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    EOFError,
    OSError,
)


def is_retryable(exc: BaseException) -> bool:
    """Whether resending the request that raised ``exc`` can succeed.

    Connection errors are retryable (queries are idempotent, mutations
    are rid-deduplicated); overload is retryable after backoff; every
    other :class:`ServiceError` -- bad request, unknown graph,
    exhausted budget -- is deterministic and terminal.
    """
    if isinstance(exc, ServiceRetryError):
        return False
    return isinstance(exc, (ServiceConnectionError, ServiceOverloadedError))


def wire_scores(result: dict) -> Dict[Tuple[Node, Node], float]:
    """``result["scores"]`` rows as the library's ``{(u, v): score}``."""
    return {(u, v): score for u, v, score in result["scores"]}


def wire_partners(result: dict) -> List[Tuple[Node, float]]:
    """``result["partners"]`` rows as the library's ``[(node, score)]``."""
    return [(node, score) for node, score in result["partners"]]


def _parse_response(line: bytes, request_id) -> dict:
    response = json.loads(line)
    if response.get("id") is None and not response.get("ok"):
        # The server could not read the request far enough to learn its
        # id (e.g. an over-long line); its typed reason is the error.
        raise ServiceError(response.get("error", "unknown error"))
    if response.get("id") != request_id:
        raise ServiceError(
            f"response id {response.get('id')} does not match "
            f"request id {request_id}"
        )
    if not response.get("ok"):
        error = response.get("error", "unknown error")
        if response.get("overloaded"):
            raise ServiceOverloadedError(error)
        if response.get("lagging"):
            raise ReplicaLaggingError(
                error,
                lag_records=response.get("lag_records"),
                lag_seconds=response.get("lag_seconds"),
            )
        if response.get("readonly"):
            raise ReplicaReadOnlyError(response.get("primary"))
        raise ServiceError(error)
    return response.get("result", {})


def _wire_mutation_ops(ops: Sequence) -> List[list]:
    wire_ops = []
    for op in ops:
        fields = list(op)
        if not 2 <= len(fields) <= 3:
            raise ServiceError(
                f"mutation op must be (kind, a[, b]), got {op!r}"
            )
        wire_ops.append(fields)
    return wire_ops


#: Ops that are themselves observability reads -- auto-tracing them
#: would pollute the trace log with meta-traffic.
_UNTRACED_OPS = ("metrics", "trace", "stats", "ping")


class ServiceClient:
    """Blocking NDJSON-over-TCP client (see the module docstring).

    With ``tracing=True`` every query/mutation is stamped with a fresh
    ``trace`` id (unless the caller passed one), the client-side
    round-trip is recorded as a ``client.request`` span in the local
    ``trace_log`` ring, and ``last_trace_id`` names the most recent
    trace -- fetch the server-side spans with ``trace_query``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7464,
                 timeout: float = 120.0, tracing: bool = False,
                 trace_log_capacity: int = 64):
        self.timeout = timeout
        self.tracing = bool(tracing)
        self.trace_log: "deque[dict]" = deque(
            maxlen=int(trace_log_capacity)
        )
        self.last_trace_id: Optional[str] = None
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except _TRANSPORT_ERRORS as exc:
            raise ServiceConnectionError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        # The socket timeout persists past connect: it bounds every
        # send/recv below, so a wedged server surfaces as a typed
        # error after ``timeout`` seconds instead of a silent hang.
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._next_id = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request and return its ``result`` payload."""
        with self._lock:
            self._next_id += 1
            request_id = self._next_id
            message = {"id": request_id, "op": op}
            message.update(
                {k: v for k, v in fields.items() if v is not None}
            )
            if self.tracing and "trace" not in message \
                    and op not in _UNTRACED_OPS:
                message["trace"] = obs_tracing.new_trace_id()
            trace_id = message.get("trace")
            start_wall = time.time()
            t0 = time.perf_counter()
            try:
                try:
                    self._file.write(
                        json.dumps(message, separators=(",", ":")).encode()
                        + b"\n"
                    )
                    self._file.flush()
                    line = self._file.readline()
                except _TRANSPORT_ERRORS as exc:
                    raise ServiceConnectionError(
                        f"transport failure during {op!r}: {exc!r}"
                    ) from exc
            finally:
                if trace_id is not None:
                    self.last_trace_id = str(trace_id)
                    self.trace_log.append({
                        "trace_id": str(trace_id), "op": op,
                        "spans": [{
                            "name": "client.request", "start": start_wall,
                            "duration": time.perf_counter() - t0,
                            "tags": {"op": op},
                        }],
                    })
        if not line:
            raise ServiceConnectionError("server closed the connection")
        return _parse_response(line, request_id)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def graphs(self) -> List[str]:
        return self.request("graphs")["graphs"]

    def stats(self) -> dict:
        return self.request("stats")

    def metrics(self) -> dict:
        """The ``metrics`` op: Prometheus text exposition + enabled flag."""
        return self.request("metrics")

    def cluster_metrics(self, replicas: Optional[Sequence[str]] = None
                        ) -> dict:
        """The ``cluster_metrics`` op: the primary scrapes itself and
        its advertised followers (plus any extra ``replicas``
        addresses) and returns the merged fleet view."""
        return self.request(
            "cluster_metrics",
            replicas=list(replicas) if replicas else None,
        )

    def trace_query(self, trace_id: Optional[str] = None,
                    slow: bool = False, limit: int = 32) -> dict:
        """One merged trace by id (defaults to ``last_trace_id``), or
        the server's slow/recent trace rings."""
        if trace_id is None and not slow:
            trace_id = self.last_trace_id
        return self.request("trace", trace_id=trace_id,
                            slow=slow or None, limit=limit)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def register(self, name: str, path: Optional[str] = None,
                 nodes: Optional[Sequence] = None,
                 edges: Optional[Sequence] = None,
                 params: Optional[dict] = None,
                 replace: bool = False) -> dict:
        return self.request(
            "register", name=name, path=path, nodes=nodes, edges=edges,
            params=params, replace=replace or None,
        )

    def fsim(self, graph1: str, graph2: Optional[str] = None,
             params: Optional[dict] = None,
             top: Optional[int] = None,
             max_lag: Optional[int] = None,
             max_lag_seconds: Optional[float] = None) -> dict:
        """``max_lag`` / ``max_lag_seconds`` bound the staleness a read
        replica may serve this read at (rejected with a typed
        :class:`~repro.exceptions.ReplicaLaggingError` when violated);
        a primary always satisfies them."""
        return self.request(
            "fsim", graph1=graph1, graph2=graph2, params=params, top=top,
            max_lag=max_lag, max_lag_seconds=max_lag_seconds,
        )

    def topk(self, graph1: str, query: Node, k: int = 5,
             graph2: Optional[str] = None,
             params: Optional[dict] = None,
             max_lag: Optional[int] = None,
             max_lag_seconds: Optional[float] = None) -> dict:
        return self.request(
            "topk", graph1=graph1, graph2=graph2, query=query, k=k,
            params=params, max_lag=max_lag,
            max_lag_seconds=max_lag_seconds,
        )

    def matrix(self, graphs1: Sequence[str], graph2: str,
               params: Optional[dict] = None,
               top: Optional[int] = None,
               max_lag: Optional[int] = None,
               max_lag_seconds: Optional[float] = None) -> dict:
        return self.request(
            "matrix", graphs1=list(graphs1), graph2=graph2, params=params,
            top=top, max_lag=max_lag, max_lag_seconds=max_lag_seconds,
        )

    def mutate(self, graph: str, ops: Sequence,
               rid: Optional[str] = None) -> dict:
        """Apply mutations: ``ops`` is a list of ``(kind, a[, b])``.

        ``rid`` is an idempotency key: resending the same mutation with
        the same rid (e.g. after a
        :class:`~repro.exceptions.ServiceConnectionError` of unknown
        outcome) applies it at most once.
        """
        return self.request(
            "mutate", graph=graph, ops=_wire_mutation_ops(ops), rid=rid
        )

    def snapshot_save(self, graph: str, path: str) -> dict:
        return self.request("snapshot_save", graph=graph, path=path)

    def snapshot_restore(self, path: str, name: Optional[str] = None,
                         replace: bool = False) -> dict:
        return self.request(
            "snapshot_restore", path=path, name=name,
            replace=replace or None,
        )


class ClientPool:
    """A fixed-size pool of keep-alive :class:`ServiceClient` connections.

    One :class:`ServiceClient` holds one pipelined TCP connection with
    one request in flight, so a concurrent load source needs one client
    per worker -- and opening a fresh connection per request measures
    connect/teardown, not the service.  The pool opens ``size``
    connections once and keeps them alive for its lifetime: worker
    ``i`` uses ``pool.client(i)`` (or iterates ``pool``), every round
    and phase reuses the same sockets, and one ``close()`` (or the
    context manager exit) tears all of them down.

    All connections are opened eagerly in the constructor; a connect
    failure closes the already-opened ones before propagating, so a
    half-built pool never leaks sockets.  Extra keyword arguments are
    forwarded to every :class:`ServiceClient` (``timeout``,
    ``tracing``, ...).
    """

    def __init__(self, port: int, size: int, host: str = "127.0.0.1",
                 **client_kwargs):
        if int(size) < 1:
            raise ValueError(f"pool size must be positive, got {size}")
        self.clients: List[ServiceClient] = []
        try:
            for _ in range(int(size)):
                self.clients.append(
                    ServiceClient(host=host, port=port, **client_kwargs)
                )
        except BaseException:
            self.close()
            raise

    def client(self, index: int) -> ServiceClient:
        """The connection for worker ``index`` (wraps around)."""
        return self.clients[index % len(self.clients)]

    def __len__(self) -> int:
        return len(self.clients)

    def __iter__(self):
        return iter(self.clients)

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection (idempotent; close errors on one
        connection do not leak the rest)."""
        clients, self.clients = self.clients, []
        errors = []
        for client in clients:
            try:
                client.close()
            except Exception as exc:  # pragma: no cover - socket races
                errors.append(exc)
        if errors:
            raise errors[0]


class AsyncServiceClient:
    """Self-healing asyncio client: reconnect + retry with backoff.

    The connection is opened lazily and re-opened transparently after
    any transport failure.  A request that fails retryably (see
    :func:`is_retryable`) is resent up to ``max_retries`` times with
    exponential backoff (``backoff * 2**attempt``, capped at
    ``max_backoff``) plus full jitter -- a thundering herd of clients
    hitting a restarted server decorrelates itself.  Mutations carry a
    stable ``rid`` across every resend, so "the server crashed after
    logging but before acking" resolves to exactly-once application.

    One request is in flight at a time (internal lock); open one client
    per concurrent task.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7464,
                 timeout: float = 120.0, max_retries: int = 5,
                 backoff: float = 0.05, max_backoff: float = 2.0,
                 rng: Optional[random.Random] = None,
                 tracing: bool = False, trace_log_capacity: int = 64):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_retries = max(int(max_retries), 0)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._rng = rng or random.Random()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        self._next_id = 0
        self.stats = {"requests": 0, "reconnects": 0, "retries": 0}
        self.tracing = bool(tracing)
        self.trace_log: "deque[dict]" = deque(
            maxlen=int(trace_log_capacity)
        )
        self.last_trace_id: Optional[str] = None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        await self._drop_connection()
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port, limit=1 << 22),
                timeout=self.timeout,
            )
        except _TRANSPORT_ERRORS as exc:
            raise ServiceConnectionError(
                f"cannot connect to {self.host}:{self.port}: {exc!r}"
            ) from exc
        self.stats["reconnects"] += 1

    async def _drop_connection(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def close(self) -> None:
        await self._drop_connection()

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    async def _roundtrip(self, message: dict, request_id) -> dict:
        """One send/recv on the current connection (typed errors)."""
        await self._ensure_connected()
        try:
            self._writer.write(
                json.dumps(message, separators=(",", ":")).encode() + b"\n"
            )
            await asyncio.wait_for(self._writer.drain(),
                                   timeout=self.timeout)
            line = await asyncio.wait_for(self._reader.readline(),
                                          timeout=self.timeout)
        except _TRANSPORT_ERRORS as exc:
            raise ServiceConnectionError(
                f"transport failure during {message.get('op')!r}: {exc!r}"
            ) from exc
        if not line:
            raise ServiceConnectionError("server closed the connection")
        return _parse_response(line, request_id)

    async def request(self, op: str, **fields) -> dict:
        """Send one request, healing the connection as needed.

        The retry loop drops the connection on *any* transport error
        before resending (the stream may hold a half response), and
        backs off with full jitter between attempts.
        """
        async with self._lock:
            self._next_id += 1
            request_id = self._next_id
            message = {"id": request_id, "op": op}
            message.update(
                {k: v for k, v in fields.items() if v is not None}
            )
            if self.tracing and "trace" not in message \
                    and op not in _UNTRACED_OPS:
                message["trace"] = obs_tracing.new_trace_id()
            trace_id = message.get("trace")
            start_wall = time.time()
            t0 = time.perf_counter()
            self.stats["requests"] += 1
            last_error: Optional[Exception] = None
            try:
                for attempt in range(self.max_retries + 1):
                    if attempt:
                        self.stats["retries"] += 1
                        delay = min(self.backoff * (2 ** (attempt - 1)),
                                    self.max_backoff)
                        await asyncio.sleep(self._rng.uniform(0.0, delay))
                    try:
                        return await self._roundtrip(message, request_id)
                    except Exception as exc:
                        if not is_retryable(exc):
                            raise
                        last_error = exc
                        await self._drop_connection()
                raise ServiceRetryError(
                    f"{op!r} failed after {self.max_retries + 1} "
                    f"attempt(s): {last_error}"
                ) from last_error
            finally:
                if trace_id is not None:
                    # The trace id is stable across every resend, so
                    # retried hops merge into one trace server-side.
                    self.last_trace_id = str(trace_id)
                    self.trace_log.append({
                        "trace_id": str(trace_id), "op": op,
                        "spans": [{
                            "name": "client.request", "start": start_wall,
                            "duration": time.perf_counter() - t0,
                            "tags": {"op": op,
                                     "target":
                                     f"{self.host}:{self.port}"},
                        }],
                    })

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def graphs(self) -> List[str]:
        return (await self.request("graphs"))["graphs"]

    async def stats_report(self) -> dict:
        return await self.request("stats")

    async def metrics(self) -> dict:
        return await self.request("metrics")

    async def cluster_metrics(self, replicas: Optional[Sequence[str]]
                              = None) -> dict:
        return await self.request(
            "cluster_metrics",
            replicas=list(replicas) if replicas else None,
        )

    async def trace_query(self, trace_id: Optional[str] = None,
                          slow: bool = False, limit: int = 32) -> dict:
        if trace_id is None and not slow:
            trace_id = self.last_trace_id
        return await self.request("trace", trace_id=trace_id,
                                  slow=slow or None, limit=limit)

    async def shutdown(self) -> dict:
        return await self.request("shutdown")

    async def register(self, name: str, path: Optional[str] = None,
                       nodes: Optional[Sequence] = None,
                       edges: Optional[Sequence] = None,
                       params: Optional[dict] = None,
                       replace: bool = False) -> dict:
        return await self.request(
            "register", name=name, path=path, nodes=nodes, edges=edges,
            params=params, replace=replace or None,
        )

    async def fsim(self, graph1: str, graph2: Optional[str] = None,
                   params: Optional[dict] = None,
                   top: Optional[int] = None,
                   max_lag: Optional[int] = None,
                   max_lag_seconds: Optional[float] = None) -> dict:
        return await self.request(
            "fsim", graph1=graph1, graph2=graph2, params=params, top=top,
            max_lag=max_lag, max_lag_seconds=max_lag_seconds,
        )

    async def topk(self, graph1: str, query: Node, k: int = 5,
                   graph2: Optional[str] = None,
                   params: Optional[dict] = None,
                   max_lag: Optional[int] = None,
                   max_lag_seconds: Optional[float] = None) -> dict:
        return await self.request(
            "topk", graph1=graph1, graph2=graph2, query=query, k=k,
            params=params, max_lag=max_lag,
            max_lag_seconds=max_lag_seconds,
        )

    async def matrix(self, graphs1: Sequence[str], graph2: str,
                     params: Optional[dict] = None,
                     top: Optional[int] = None,
                     max_lag: Optional[int] = None,
                     max_lag_seconds: Optional[float] = None) -> dict:
        return await self.request(
            "matrix", graphs1=list(graphs1), graph2=graph2, params=params,
            top=top, max_lag=max_lag, max_lag_seconds=max_lag_seconds,
        )

    async def mutate(self, graph: str, ops: Sequence,
                     rid: Optional[str] = None) -> dict:
        """Apply mutations exactly once, even across crashes.

        A fresh ``rid`` is generated per *call* (not per attempt) and
        rides along every resend; the server's durable dedup map turns
        retries of an already-applied mutation into acknowledgements.
        """
        if rid is None:
            rid = uuid.uuid4().hex
        return await self.request(
            "mutate", graph=graph, ops=_wire_mutation_ops(ops), rid=rid
        )


def _split_address(address: str) -> Tuple[str, int]:
    host, _, port = str(address).rpartition(":")
    if not host or not port.isdigit():
        raise ServiceError(
            f"service address must be HOST:PORT, got {address!r}"
        )
    return host, int(port)


class ReplicaSetClient:
    """Reads scale across replicas; writes and failover hit the primary.

    Routing rules:

    - **reads** (``fsim`` / ``topk`` / ``matrix``) round-robin across
      replicas that are currently *healthy*; each read carries the
      client's default staleness bounds (``max_lag`` /
      ``max_lag_seconds``), so a replica that cannot prove freshness
      rejects instead of silently serving stale scores;
    - a replica that fails a read -- transport error, overload,
      :class:`~repro.exceptions.ReplicaLaggingError` -- enters a
      ``cooldown``-second health gate and the read **fails over**: next
      replica, then the primary.  Trying a replica whose cooldown
      expired *is* the liveness probe (no standing probe traffic);
      :meth:`probe` forces an immediate health sweep when wanted;
    - **writes** (``mutate`` / ``register`` / ...) go straight to the
      primary through a self-healing :class:`AsyncServiceClient`, so
      crash-restart exactly-once semantics carry over unchanged.

    Replica attempts are single-shot (``max_retries=0``) -- the set
    itself is the retry mechanism; only the primary client retries
    internally, because behind it there is nothing left to fail over
    to.
    """

    READ_FAILOVER = (ServiceConnectionError, ServiceOverloadedError,
                     ServiceRetryError, ReplicaLaggingError,
                     ReplicaReadOnlyError)

    def __init__(self, primary: str, replicas: Sequence[str] = (),
                 timeout: float = 120.0, max_retries: int = 5,
                 backoff: float = 0.05, max_backoff: float = 2.0,
                 max_lag: Optional[int] = None,
                 max_lag_seconds: Optional[float] = None,
                 cooldown: float = 1.0,
                 rng: Optional[random.Random] = None,
                 tracing: bool = False, trace_log_capacity: int = 64):
        self._time = time.monotonic
        self.tracing = bool(tracing)
        self.trace_log: "deque[dict]" = deque(
            maxlen=int(trace_log_capacity)
        )
        self.last_trace_id: Optional[str] = None
        host, port = _split_address(primary)
        self.primary_address = f"{host}:{port}"
        # Writes trace through the primary client's own stamping; reads
        # are stamped here (one id per logical read, shared by every
        # failover hop), so replica clients stay tracing=False.
        self.primary = AsyncServiceClient(
            host, port, timeout=timeout, max_retries=max_retries,
            backoff=backoff, max_backoff=max_backoff, rng=rng,
            tracing=tracing,
        )
        self.max_lag = max_lag
        self.max_lag_seconds = max_lag_seconds
        self.cooldown = float(cooldown)
        self._replicas: List[dict] = []
        for address in replicas:
            rhost, rport = _split_address(address)
            self._replicas.append({
                "address": f"{rhost}:{rport}",
                "client": AsyncServiceClient(
                    rhost, rport, timeout=timeout, max_retries=0,
                    backoff=backoff, max_backoff=max_backoff, rng=rng,
                ),
                "down_until": 0.0,
                "reads": 0,
                "failures": 0,
            })
        self._cursor = 0
        self.stats = {
            "replica_reads": 0,
            "primary_reads": 0,
            "failovers": 0,
            "writes": 0,
        }

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def _healthy(self, entry: dict) -> bool:
        return self._time() >= entry["down_until"]

    def _mark_down(self, entry: dict) -> None:
        entry["down_until"] = self._time() + self.cooldown
        entry["failures"] += 1

    async def probe(self) -> Dict[str, bool]:
        """Actively ping every replica; clears/sets the health gates."""
        health: Dict[str, bool] = {}
        for entry in self._replicas:
            try:
                await entry["client"].ping()
                entry["down_until"] = 0.0
                health[entry["address"]] = True
            except ServiceError:
                self._mark_down(entry)
                health[entry["address"]] = False
        return health

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _read(self, op: str, **fields) -> dict:
        fields.setdefault("max_lag", self.max_lag)
        fields.setdefault("max_lag_seconds", self.max_lag_seconds)
        if self.tracing and fields.get("trace") is None:
            # One id for the whole logical read: the replica attempt(s)
            # and a primary failover all record under the same trace.
            fields["trace"] = obs_tracing.new_trace_id()
        trace_id = fields.get("trace")
        if trace_id is not None:
            self.last_trace_id = str(trace_id)
        start_wall = time.time()
        t0 = time.perf_counter()
        try:
            attempted = False
            for offset in range(len(self._replicas)):
                entry = self._replicas[
                    (self._cursor + offset) % len(self._replicas)
                ]
                if not self._healthy(entry):
                    continue
                attempted = True
                try:
                    result = await entry["client"].request(op, **fields)
                except self.READ_FAILOVER:
                    self._mark_down(entry)
                    continue
                self._cursor = (self._cursor + offset + 1) \
                    % len(self._replicas)
                entry["reads"] += 1
                self.stats["replica_reads"] += 1
                return result
            if attempted or self._replicas:
                self.stats["failovers"] += 1
            # The primary satisfies any staleness bound by definition
            # (its dispatcher ignores the fields), so they ride along
            # untouched.
            self.stats["primary_reads"] += 1
            return await self.primary.request(op, **fields)
        finally:
            if trace_id is not None:
                self.trace_log.append({
                    "trace_id": str(trace_id), "op": op,
                    "spans": [{
                        "name": "client.request", "start": start_wall,
                        "duration": time.perf_counter() - t0,
                        "tags": {"op": op},
                    }],
                })

    # -- reads ---------------------------------------------------------
    async def fsim(self, graph1: str, graph2: Optional[str] = None,
                   params: Optional[dict] = None,
                   top: Optional[int] = None, **bounds) -> dict:
        return await self._read(
            "fsim", graph1=graph1, graph2=graph2, params=params, top=top,
            **bounds,
        )

    async def topk(self, graph1: str, query: Node, k: int = 5,
                   graph2: Optional[str] = None,
                   params: Optional[dict] = None, **bounds) -> dict:
        return await self._read(
            "topk", graph1=graph1, graph2=graph2, query=query, k=k,
            params=params, **bounds,
        )

    async def matrix(self, graphs1: Sequence[str], graph2: str,
                     params: Optional[dict] = None,
                     top: Optional[int] = None, **bounds) -> dict:
        return await self._read(
            "matrix", graphs1=list(graphs1), graph2=graph2,
            params=params, top=top, **bounds,
        )

    # -- writes / control (always the primary) -------------------------
    async def mutate(self, graph: str, ops: Sequence,
                     rid: Optional[str] = None) -> dict:
        self.stats["writes"] += 1
        try:
            return await self.primary.mutate(graph, ops, rid=rid)
        finally:
            if self.primary.last_trace_id is not None:
                self.last_trace_id = self.primary.last_trace_id

    async def register(self, *args, **kwargs) -> dict:
        self.stats["writes"] += 1
        try:
            return await self.primary.register(*args, **kwargs)
        finally:
            if self.primary.last_trace_id is not None:
                self.last_trace_id = self.primary.last_trace_id

    async def graphs(self) -> List[str]:
        return await self.primary.graphs()

    async def stats_report(self) -> dict:
        return await self.primary.stats_report()

    async def metrics(self) -> dict:
        return await self.primary.metrics()

    # -- fleet scraping ------------------------------------------------
    async def scrape_all(self, include_stats: bool = True) -> List[dict]:
        """One scrape row per endpoint (primary first, then replicas).

        Each row carries ``instance`` / ``role`` / ``ok`` plus the raw
        Prometheus ``exposition`` and (optionally) the full ``stats``
        report; an unreachable endpoint yields ``ok: false`` with the
        error instead of failing the sweep.  Feed the rows to
        :func:`repro.obs.federate.merge_scrapes` for the merged fleet
        view -- ``repro stats --cluster`` does.
        """
        endpoints = [(self.primary_address, "primary", self.primary)]
        endpoints.extend(
            (entry["address"], "replica", entry["client"])
            for entry in self._replicas
        )
        rows: List[dict] = []
        for address, role, client in endpoints:
            row: dict = {"instance": address, "role": role}
            try:
                row["exposition"] = \
                    (await client.metrics()).get("exposition", "")
                if include_stats:
                    row["stats"] = await client.stats_report()
                row["ok"] = True
            except ServiceError as exc:
                row["ok"] = False
                row["error"] = str(exc) or type(exc).__name__
            rows.append(row)
        return rows

    # -- traces --------------------------------------------------------
    async def fetch_trace(self, trace_id: Optional[str] = None
                          ) -> Optional[dict]:
        """The merged end-to-end trace for ``trace_id`` (defaults to
        the last read/write issued through this client).

        Queries the ``trace`` op on every endpoint -- a read that was
        served by a replica left its server-side spans there, a write
        (or a failed-over read) left them on the primary, and a
        replicated mutation left ``replica.apply`` spans on each
        follower -- then splices in the client-side ``client.request``
        spans and sorts everything by wall-clock start.
        """
        if trace_id is None:
            trace_id = self.last_trace_id or self.primary.last_trace_id
        if trace_id is None:
            return None
        trace_id = str(trace_id)
        merged: List[dict] = []
        op = None
        started = None
        status = "ok"
        clients = [entry["client"] for entry in self._replicas]
        clients.append(self.primary)
        for client in clients:
            try:
                result = await client.request("trace", trace_id=trace_id)
            except ServiceError:
                continue
            if not result.get("found"):
                continue
            found = result["trace"]
            merged.extend(found.get("spans", ()))
            op = op or found.get("op")
            if found.get("started") is not None:
                started = found["started"] if started is None \
                    else min(started, found["started"])
            if found.get("status") == "error":
                status = "error"
        for local in (*self.trace_log, *self.primary.trace_log):
            if local["trace_id"] == trace_id:
                merged.extend(local["spans"])
                op = op or local.get("op")
        if not merged:
            return None
        merged.sort(key=lambda span: span["start"])
        if started is None:
            started = merged[0]["start"]
        return {
            "trace_id": trace_id,
            "op": op,
            "started": started,
            "status": status,
            "duration": max(span["duration"] for span in merged),
            "spans": merged,
        }

    # ------------------------------------------------------------------
    async def close(self) -> None:
        await self.primary.close()
        for entry in self._replicas:
            await entry["client"].close()

    async def __aenter__(self) -> "ReplicaSetClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
