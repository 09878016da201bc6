"""A closed-loop load generator for the serving layer's smoke checks.

Each of ``clients`` threads issues its next request the moment the
previous one completes, mixing the paper's Q1–Q10 workload
(:data:`repro.workloads.WORKLOAD_QUERIES`, drawn uniformly) with a
seeded ``INSERT DATA`` every ``update_every``-th request.  The target
is either an in-process :class:`~repro.server.service.ServingDatabase`
(no sockets) or a base URL driven through ``urllib`` (the full HTTP
stack, so 503/504 answers show up in ``statuses``).  Every latency
sample is kept, so the percentiles are exact.  Performance is measured
by ``bench/``, not here.
"""

from __future__ import annotations

import threading
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..cancellation import OperationCancelled
from ..obs.metrics import _percentile
from ..obs.tracing import Span
from ..rdf.graph import Graph
from ..workloads import WORKLOAD_QUERIES, instance_insertions
from .pool import AdmissionError
from .service import ServingDatabase

__all__ = ["LoadgenConfig", "LoadReport", "run_load", "update_texts"]

#: a transport maps (kind, text) -> HTTP-style status code
Transport = Callable[[str, str], int]


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    """One load-generation run's traffic shape."""

    clients: int = 4              #: concurrent closed-loop clients
    requests_per_client: int = 50
    update_every: int = 10        #: every Nth request is an update (0: none)
    update_size: int = 5          #: triples per INSERT DATA batch
    timeout: Optional[float] = 10.0  #: per-request deadline (in-process)
    seed: int = 20150413
    format: str = "json"          #: HTTP results serialization
    queries: Optional[Sequence[Tuple[str, str]]] = None  #: (id, sparql)


@dataclass(slots=True)
class LoadReport:
    """Aggregated outcome of one run (all samples retained)."""

    wall_seconds: float = 0.0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    statuses: Dict[int, int] = field(default_factory=dict)
    requests: int = 0
    queries: int = 0
    updates: int = 0

    def _percentiles(self, samples: List[float]) -> Dict[str, float]:
        ordered = sorted(samples) or [0.0]
        return {"p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                "p99": _percentile(ordered, 0.99),
                "mean": sum(ordered) / len(ordered), "max": ordered[-1]}

    @property
    def throughput(self) -> float:
        """Completed requests per second of wall-clock."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly summary with per-kind latency percentiles."""
        return {
            "requests": self.requests,
            "queries": self.queries,
            "updates": self.updates,
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput, 3),
            "statuses": {str(code): count
                         for code, count in sorted(self.statuses.items())},
            "latency_seconds": {
                kind: {name: round(value, 6) for name, value
                       in self._percentiles(samples).items()}
                for kind, samples in sorted(self.latencies.items())
            },
        }


def update_texts(graph: Graph, count: int, size: int,
                 seed: int) -> List[str]:
    """Seeded ``INSERT DATA`` requests shaped like ``graph``'s data."""
    texts = []
    for i in range(count):
        batch = instance_insertions(graph, size, seed=seed + i)
        if not batch.triples:
            break
        block = " ".join(t.n3() for t in batch.triples)
        texts.append(f"INSERT DATA {{ {block} }}")
    return texts


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------

def _inproc_transport(service: ServingDatabase,
                      config: LoadgenConfig) -> Transport:
    def call(kind: str, text: str) -> int:
        try:
            if kind == "update":
                service.update(text, timeout=config.timeout)
            else:
                service.query(text, timeout=config.timeout)
            return 200
        except OperationCancelled:
            return 504
        except AdmissionError:
            return 503
        except ValueError:
            return 400
    return call


def _http_transport(base_url: str, config: LoadgenConfig) -> Transport:
    base = base_url.rstrip("/")

    def call(kind: str, text: str) -> int:
        if kind == "update":
            url = f"{base}/update"
            payload = {"update": text}
        else:
            url = f"{base}/sparql"
            payload = {"query": text, "format": config.format}
        body = urllib.parse.urlencode(payload).encode()
        request = urllib.request.Request(
            url, data=body,
            headers={"Content-Type": "application/x-www-form-urlencoded"})
        try:
            with urllib.request.urlopen(request) as response:
                response.read()
                return int(response.status)
        except urllib.error.HTTPError as error:
            error.read()
            return int(error.code)
    return call


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

def run_load(target: Union[ServingDatabase, str],
             config: Optional[LoadgenConfig] = None,
             graph: Optional[Graph] = None) -> LoadReport:
    """Run one closed-loop experiment against ``target``.

    ``target`` is an in-process service — a :class:`ServingDatabase`
    or anything duck-typing its ``query``/``update`` surface, e.g. a
    :class:`~repro.server.shard.ShardedDatabase` — or a base URL
    string (HTTP).  ``graph`` shapes the generated updates; it
    defaults to a single-process service's own graph and is required
    for HTTP and sharded targets when updates are in the mix.
    """
    config = config if config is not None else LoadgenConfig()
    if isinstance(target, str):
        transport = _http_transport(target, config)
        if graph is None and config.update_every:
            raise ValueError("HTTP targets need `graph` to shape updates")
    else:
        transport = _inproc_transport(target, config)
        if graph is None:
            db = getattr(target, "db", None)  # sharded stores have no .db
            if db is not None:
                graph = db.graph
            elif config.update_every:
                raise ValueError(
                    "sharded targets need `graph` to shape updates")

    if config.queries is not None:
        query_pool = list(config.queries)
    else:
        query_pool = [(qid, query.to_sparql())
                      for qid, (__, query) in WORKLOAD_QUERIES.items()]
    if not query_pool:
        raise ValueError("empty query pool")

    updates_per_client = (config.requests_per_client // config.update_every
                          if config.update_every else 0)
    # update traffic is derived from the graph *before* any client
    # runs: reading the live graph mid-run would race its own updates
    update_pool = {
        index: update_texts(graph, updates_per_client, config.update_size,
                            seed=config.seed + 7919 * index)
        for index in range(config.clients)
    } if updates_per_client and graph is not None else {}
    report = LoadReport()
    report_lock = threading.Lock()

    def client(index: int) -> None:
        rng = Random(config.seed * 1031 + index)
        pending_updates = update_pool.get(index, [])
        local: List[Tuple[str, int, float]] = []
        for i in range(config.requests_per_client):
            is_update = (config.update_every
                         and (i + 1) % config.update_every == 0
                         and pending_updates)
            if is_update:
                kind, text = "update", pending_updates.pop()
            else:
                kind, text = "query", query_pool[
                    rng.randrange(len(query_pool))][1]
            stopwatch = Span("loadgen.request")
            status = transport(kind, text)
            stopwatch.finish()
            local.append((kind, status, stopwatch.duration))
        with report_lock:
            for kind, status, seconds in local:
                report.requests += 1
                if kind == "update":
                    report.updates += 1
                else:
                    report.queries += 1
                report.statuses[status] = report.statuses.get(status, 0) + 1
                report.latencies.setdefault(kind, []).append(seconds)

    wall = Span("loadgen.run")
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(config.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall.finish()
    report.wall_seconds = wall.duration
    return report

