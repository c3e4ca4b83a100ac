"""repro.service: a long-lived FSim query service.

The PR 1-4 layers made single-shot work fast -- vectorized compilation
(:mod:`repro.core.plan`), batched multi-query execution
(``search_many`` / ``fsim_matrix_many``), incremental streaming
(:mod:`repro.streaming`) and a forked parallel runtime
(:mod:`repro.runtime`).  This subsystem keeps all of it *resident* and
serves it to concurrent clients, closing the ROADMAP gap between the
library and a system that "serves heavy traffic":

- :mod:`repro.service.store` -- named graphs registered once, each
  owning its plan, compiled arenas, an incremental session and
  LRU-bounded result caches with explicit statistics;
- :mod:`repro.service.scheduler` -- micro-batching: concurrent
  same-shape requests arriving within a small window coalesce into one
  batched library call (``search_many`` for top-k, one shared compute
  for identical matrix requests), with admission control when queues
  exceed their budget;
- :mod:`repro.service.server` -- the asyncio front end: newline-
  delimited JSON over TCP, pipelined per connection (stdlib only);
- :mod:`repro.service.snapshot` -- warm snapshots: plan + compiled
  arrays + converged scores serialized to disk and restored on restart
  behind a content fingerprint, so the first post-restart query answers
  without recompiling;
- :mod:`repro.service.client` -- a thin blocking client and a
  self-healing :class:`AsyncServiceClient` (reconnect + idempotent
  retry);
- :mod:`repro.service.wal` -- a write-ahead log: every mutation is
  CRC-framed and durable *before* it applies, with pluggable fsync
  policy and a fault-injection layer for crash testing;
- :mod:`repro.service.recovery` -- crash recovery: newest snapshots +
  WAL-suffix replay rebuild the pre-crash store bitwise-identically;
- :mod:`repro.service.replication` -- WAL-shipping read replicas: a
  follower bootstraps from the primary's warm snapshot payloads, tails
  the WAL over the wire through the same replay machinery and serves
  reads under a bounded-staleness contract, with a
  :class:`~repro.service.client.ReplicaSetClient` routing reads across
  healthy followers and failing over to the primary.

Responses are exactly what the corresponding direct library call
returns (parity is asserted in ``tests/test_service.py`` and
``benchmarks/bench_service.py``); batching changes latency and
throughput, never values.
"""

from repro.service.client import (
    AsyncServiceClient,
    ClientPool,
    ReplicaSetClient,
    ServiceClient,
)
from repro.service.recovery import RecoveryReport, WalReplayer, recover_store
from repro.service.replication import ReplicationHub, ReplicationTail
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import FSimServer, ServerThread
from repro.service.snapshot import load_snapshot, save_snapshot
from repro.service.store import GraphStore
from repro.service.wal import (
    FaultInjector,
    WriteAheadLog,
    read_wal,
    read_wal_since,
)

__all__ = [
    "AsyncServiceClient",
    "ClientPool",
    "FSimServer",
    "FaultInjector",
    "GraphStore",
    "MicroBatchScheduler",
    "RecoveryReport",
    "ReplicaSetClient",
    "ReplicationHub",
    "ReplicationTail",
    "ServerThread",
    "ServiceClient",
    "WalReplayer",
    "WriteAheadLog",
    "load_snapshot",
    "read_wal",
    "read_wal_since",
    "recover_store",
    "save_snapshot",
]
