"""The serving layer: :class:`RDFDatabase` as a long-lived concurrent
service.

Where the CLI answers one query per process, this package keeps the
store open and serves concurrent traffic without leaving the stdlib:

* :mod:`repro.server.rwlock` — a readers–writer lock so SPARQL
  updates serialize against in-flight queries (the online variant of
  the paper's update/maintenance problem);
* :mod:`repro.server.cache` — a version-keyed LRU result cache:
  keys embed ``Graph.version``, so any effective update invalidates
  every prior entry *by construction* (no invalidation protocol to
  get wrong);
* :mod:`repro.server.pool` — a bounded worker pool with admission
  control: a full queue rejects instead of buffering without bound
  (HTTP 503), per-request deadlines cancel in-flight work through
  :mod:`repro.cancellation` (HTTP 504);
* :mod:`repro.server.service` — :class:`ServingDatabase`, the
  transport-free core tying the above together (usable in-process);
* :mod:`repro.server.protocol` — the transport-independent request
  contract (routing, parameter merging, format negotiation, the
  400/503/504 status mapping);
* :mod:`repro.server.aserver` — the HTTP front-end, one asyncio event
  loop speaking a SPARQL-protocol subset (``GET/POST /sparql``,
  ``POST /update``, ``GET /healthz``, ``GET /stats``); idle and slow
  sockets cost a coroutine instead of a thread;
* :mod:`repro.server.loadgen` — a closed-loop load generator driving
  mixed Q1–Q10 + update traffic in-process or over HTTP;
* :mod:`repro.server.shard` (with :mod:`~repro.server.shardplan`,
  :mod:`~repro.server.shardwire`, :mod:`~repro.server.shard_worker`)
  — the multi-process sharded tier: instance triples hash-partitioned
  by subject across worker processes, scatter-gather query planning,
  and a per-shard version vector keying the result cache.
"""

from .aserver import ReproAsyncServer, serve_async
from .cache import CacheStats, QueryResultCache
from .loadgen import LoadgenConfig, LoadReport, run_load
from .pool import AdmissionError, WorkerPool
from .rwlock import ReadWriteLock
from .service import ServerConfig, ServingDatabase
from .shard import (ShardCluster, ShardedDatabase, ShardUnavailableError,
                    build_sharded_database)

__all__ = [
    "AdmissionError", "CacheStats", "LoadReport", "LoadgenConfig",
    "QueryResultCache", "ReadWriteLock", "ReproAsyncServer", "ServerConfig",
    "ServingDatabase", "ShardCluster", "ShardUnavailableError",
    "ShardedDatabase", "WorkerPool", "build_sharded_database", "run_load",
    "serve_async",
]
