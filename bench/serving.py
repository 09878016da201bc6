"""The three HTTP workloads: a real ``repro serve`` subprocess, driven by
a closed loop over two keep-alive connections.

Callers of a SPARQL endpoint wait for their reply, so the loop is closed:
a connection sends its next request when the previous one has been read.
The request body is read, its status and size checked, inside the timed
path; parsing and digesting it happens after the pass.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import RDFDatabase, Strategy
from repro.server import ServingDatabase, build_sharded_database
from repro.server.cache import QueryResultCache
from repro.server.shardplan import merge_bgp_rows, plan_query
from repro.sparql.parser import parse_query

from . import datasets, layers, queries, stats
from .harness import Recorder, Workload, clock
from .oracle import Expected
from .queries import Op
from .spec import FIXED_CONFIG, ROOT
from .tracing import Tracer

CONNECTIONS = int(FIXED_CONFIG["client_connections"])  # type: ignore[call-overload]
CACHE_SIZE = int(FIXED_CONFIG["cache_size"])  # type: ignore[call-overload]
SHARDS = int(FIXED_CONFIG["shards"])  # type: ignore[call-overload]
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------

#: The CPUs this process may use, before the generator pins itself.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPU = ALLOWED_CPUS[-1]


def server_cpus(shards: int) -> List[int]:
    """Where the server runs.  Left to the scheduler, the generator's
    threads and the server's wander over both cores and a run lands, by
    luck, in one of two regimes 1.5x apart in throughput (README,
    "Findings").  So the generator is pinned to the last CPU and the
    single-process server to the first; the sharded server needs the
    cores it shards over and keeps them all."""
    return ALLOWED_CPUS if shards else ALLOWED_CPUS[:1]


class ServerProcess:
    """``python -m repro serve`` as a subprocess in its own process group,
    so that the server and its shard workers can be reaped together on
    every exit path."""

    def __init__(self, graph_path: str, workdir: str, shards: int = 0):
        def in_child() -> None:
            # A shell that starts the benchmark as a background job
            # leaves SIGINT ignored; inherited, Python would never raise
            # the KeyboardInterrupt the server's clean shutdown hangs on.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            os.sched_setaffinity(0, server_cpus(shards))

        command = [sys.executable, "-m", "repro",
                   "--backend", str(FIXED_CONFIG["backend"]),
                   "serve", graph_path,
                   "--frontend", str(FIXED_CONFIG["frontend"]),
                   "--cache-size", str(CACHE_SIZE),
                   "--workers", str(FIXED_CONFIG["workers"]),
                   "--queue-depth", str(FIXED_CONFIG["queue_depth"]),
                   "--port", "0"]
        if shards:
            command += ["--shards", str(shards)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   REPRO_KERNELS=str(FIXED_CONFIG["kernels"]),
                   PYTHONHASHSEED="0")  # see bench/run.py
        self._stdout_path = os.path.join(workdir, "server.out")
        with open(self._stdout_path, "w") as out, \
                open(os.path.join(workdir, "server.err"), "w") as err:
            self.process = subprocess.Popen(
                command, cwd=workdir, env=env, stdout=out, stderr=err,
                start_new_session=True, preexec_fn=in_child)
        self.port = 0
        try:
            self._await_healthy()
        except BaseException:
            self.stop()
            raise

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not self.port:
            if self.process.poll() is not None:
                raise RuntimeError("the server exited during start-up "
                                   f"(code {self.process.returncode})")
            if time.monotonic() > deadline:
                raise RuntimeError("the server never announced its port")
            with open(self._stdout_path) as handle:
                line = handle.readline()
            if line.endswith("\n") and "http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
            else:
                time.sleep(0.01)
        probe = wire_request("GET", "/healthz")
        while True:
            try:
                lane = Lane(self, [])
                try:
                    if lane.exchange(probe)[0] == 200:
                        return
                finally:
                    lane.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("/healthz never answered 200")
            time.sleep(0.01)

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=REQUEST_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def pids(self) -> List[int]:
        """The server and its direct children (the shard workers)."""
        pids = [self.process.pid]
        task_dir = f"/proc/{self.process.pid}/task"
        try:
            for task in os.listdir(task_dir):
                with open(f"{task_dir}/{task}/children") as handle:
                    pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
        return pids

    def peak_rss_mb(self) -> float:
        """High-water resident set of the server, its workers summed in."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """Ctrl-C the server (it shuts its pool and shard workers down),
        then make sure nothing of its process group is left."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------

class Request(NamedTuple):
    op: Op
    wire: bytes   # the whole HTTP/1.1 request, encoded before any clock


def wire_request(method: str, target: str, body: str = "") -> bytes:
    head = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1"]
    if body:
        head += ["Content-Type: application/x-www-form-urlencoded",
                 f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n" + body).encode("ascii")


def http_request(op: Op) -> Request:
    if op.qid:
        return Request(op, wire_request(
            "GET", "/sparql?" + urllib.parse.urlencode({"query": op.text})))
    return Request(op, wire_request(
        "POST", "/update", urllib.parse.urlencode({"update": op.text})))


class Lane:
    """One keep-alive connection and the requests it sends, in order.

    A minimal HTTP/1.1 client over a plain socket: ``http.client`` spends
    a quarter of a millisecond of the generator's CPU per response on
    header parsing, which on a two-core box is the server's time.
    """

    def __init__(self, server: "ServerProcess", requests: List[Request]):
        self.server = server
        self.requests = requests
        self.sock = server.connect()

    def exchange(self, wire: bytes) -> Tuple[int, bytes]:
        """Send one request; read its Content-Length framed reply."""
        sock = self.sock
        sock.sendall(wire)
        received = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("the server closed the connection")
            received += chunk
            end = received.find(b"\r\n\r\n")
            if end >= 0:
                break
        head = received[:end].lower() + b"\r\n"
        status = int(head[9:12])
        at = head.index(b"content-length:") + 15
        remaining = int(head[at:head.index(b"\r\n", at)]) - (
            len(received) - end - 4)
        chunks = [received[end + 4:]]
        while remaining > 0:
            chunk = sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ConnectionError("the server closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return status, b"".join(chunks)

    def drive(self, expected: Expected, barrier: threading.Barrier,
              rec: Recorder, bodies: List[Tuple[str, bytes]],
              statuses: Dict[int, int], lags: List[float]) -> None:
        barrier.wait()
        finished = clock()
        for op, wire in self.requests:
            started = clock()
            lags.append(started - finished)
            try:
                status, payload = self.exchange(wire)
            except (OSError, ValueError):
                finished = clock()
                rec.op(op.kind, finished - started, False)
                self.sock.close()
                self.sock = self.server.connect()
                continue
            finished = clock()
            statuses[status] = statuses.get(status, 0) + 1
            if status != 200:
                ok = False
            elif op.qid:
                ok = expected.size_ok(op.qid, len(payload))
                bodies.append((op.qid, payload))
            else:
                ok = update_reply_ok(op, payload)
            rec.op(op.kind, finished - started, ok)

    def close(self) -> None:
        self.sock.close()


def update_reply_ok(op: Op, payload: bytes) -> bool:
    try:
        reply = json.loads(payload)
        field = "added" if op.kind == "insert" else "removed"
        return reply[field] == op.triples
    except (ValueError, KeyError, TypeError):
        return False


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class ServingWorkload(Workload):
    """Common to the three: spawn, drive, check, reap."""

    shards = 0
    #: queries whose answers a leftover churn record would change
    FINAL_PROBES: Tuple[str, ...] = ()

    def make_pool(self) -> None:
        """Choose, by seed, the lookups the lanes draw from."""
        raise NotImplementedError

    def lane_ops(self, lane: int) -> List[Op]:
        raise NotImplementedError

    def prepare(self) -> None:
        if CONNECTIONS > (os.cpu_count() or 1):
            raise SystemExit(
                f"{CONNECTIONS} client connections on {os.cpu_count()} "
                "CPU(s): the generator would measure itself")
        self.dataset = datasets.build(self.ctx.scale)
        self.expected = Expected(self.ctx.scale)
        self.expected.check_graph(self.dataset)
        self.dataset.graph = None  # type: ignore[assignment]
        self.graph_path = os.path.join(self.ctx.tmpdir, "graph.nt")
        with open(self.graph_path, "w", encoding="utf-8") as handle:
            handle.write(self.dataset.text)
        self.make_pool()
        self.plan = [[http_request(op) for op in self.lane_ops(lane)]
                     for lane in range(CONNECTIONS)]
        self.server: Optional[ServerProcess] = None
        self.lanes: List[Lane] = []
        self.bodies: List[Tuple[str, bytes]] = []
        self.statuses: Dict[int, int] = {}
        self.lags: List[float] = []

    def setup(self) -> None:
        os.sched_setaffinity(0, [GENERATOR_CPU])
        self.server = ServerProcess(self.graph_path, self.ctx.tmpdir,
                                    self.shards)
        self.lanes = [Lane(self.server, requests) for requests in self.plan]

    def teardown(self) -> None:
        for lane in self.lanes:
            lane.close()
        self.lanes = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_pass(self, rec: Recorder) -> Tuple[int, float]:
        barrier = threading.Barrier(len(self.lanes) + 1)
        parts = [(Recorder(), [], {}, []) for _ in self.lanes]
        threads = [threading.Thread(
            target=lane.drive, args=(self.expected, barrier) + part)
            for lane, part in zip(self.lanes, parts)]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = clock()
        for thread in threads:
            thread.join()
        wall = clock() - started
        self.bodies = []
        ops = 0
        for lane_rec, bodies, statuses, lags in parts:
            ops += len(lane_rec.samples)
            rec.merge(lane_rec)
            self.bodies += bodies
            self.lags += lags
            for status, count in statuses.items():
                self.statuses[status] = self.statuses.get(status, 0) + count
        for qid in self.FINAL_PROBES:
            status, payload = self.lanes[0].exchange(
                http_request(queries.query_op(qid)).wire)
            rec.check(status == 200 and self.expected.document_ok(
                qid, payload.decode()))
        return ops, wall

    def verify(self, rec: Recorder) -> None:
        for qid, payload in self.bodies:
            rec.check(self.expected.document_ok(qid, payload.decode()))
        self.bodies = []

    def peak_rss_mb(self) -> float:
        assert self.server is not None
        return self.server.peak_rss_mb()

    def server_stats(self) -> Dict[str, object]:
        status, payload = self.lanes[0].exchange(
            wire_request("GET", "/stats"))
        return json.loads(payload)["server"] if status == 200 else {}

    def diagnostics(self) -> Dict[str, float]:
        cache = self.server_stats().get("cache", {})
        return {
            "client.send_lag_ms": stats.median(self.lags) * 1e3,
            "server.cache.hit_rate": cache.get("hit_rate", 0.0),  # type: ignore[union-attr]
            "server.cache.evictions": cache.get("evictions", 0),  # type: ignore[union-attr]
            "server.pool.rejected_503": self.statuses.get(503, 0),
            "server.pool.timeouts_504": self.statuses.get(504, 0),
        }

    # -- the decomposed replay: the same requests, in-process ----------

    def interleaved(self) -> List[Op]:
        """The lanes' requests in the order a fair scheduler would send
        them: one thread, so the layers are timed without contention."""
        return [request.op for turn in zip(*self.plan) for request in turn]

    def open_service(self, graph):
        return ServingDatabase(
            RDFDatabase(graph, strategy=Strategy.SATURATION,
                        maintenance=str(FIXED_CONFIG["maintenance"]),
                        backend=str(FIXED_CONFIG["backend"])),
            cache_size=CACHE_SIZE)

    def trace_setup(self, tracer: Tracer) -> None:
        # the in-process replay (and the shard workers it may fork) is
        # not the generator: give it the machine back
        os.sched_setaffinity(0, ALLOWED_CPUS)
        explicit = layers.load_graph(tracer, self.dataset.text)
        saturated = layers.saturated_copy(tracer, explicit)
        self.service = self.open_service(explicit)
        self.shadow = layers.ShadowStore(tracer, explicit, saturated)
        self.shadow_cache = QueryResultCache(CACHE_SIZE)
        self.ops = self.interleaved()

    def trace_pass(self, tracer: Tracer) -> None:
        self.rows_out = self.json_bytes = 0
        for op in self.ops:
            with tracer.op(op.kind):
                if op.qid:
                    with tracer.span("server.service.query"):
                        outcome = self.service.query(op.text)
                    document = layers.traced_json(tracer, outcome.results)
                    self.rows_out += len(outcome.results)
                    self.json_bytes += len(document)
                    key = (op.text, self.shadow.explicit.version)
                    with tracer.span("server.cache.get"):
                        hit = self.shadow_cache.get(key)  # type: ignore[arg-type]
                    if hit is None:
                        results = layers.traced_select(
                            tracer, self.shadow.graph, op.text)
                        with tracer.span("server.cache.put"):
                            self.shadow_cache.put(key, results)  # type: ignore[arg-type]
                else:
                    with tracer.span("server.service.update"):
                        self.service.update(op.text)
                    self.shadow.update(op.text)

    def trace_teardown(self) -> None:
        self.service = self.shadow = None  # type: ignore[assignment]

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        values = layers.common_layer_metrics(tracer, self.dataset.triples)
        values.update(layers.answer_metrics(self.rows_out, self.json_bytes))
        if self.shadow is not None and self.shadow.derived:
            values["reasoning.incremental.derived_per_update"] = (
                sum(self.shadow.derived) / len(self.shadow.derived))
            values["reasoning.incremental.rederived_per_delete"] = (
                sum(self.shadow.rederived) / len(self.shadow.rederived))
        if not self.shards:
            # what the client saw per query, minus what the same sequence
            # costs in-process: HTTP parse, admission, queue wait, socket.
            # (Sharded, the difference is mostly one connection's query
            # queueing behind the other's scatter, not HTTP.)
            observed = stats.median(rec.latencies_ms(
                queries.PARAMETERISED_TEMPLATES))
            inside = (values["server.service.query_ms"]
                      + values["sparql.results.json_ms"])
            values["server.http.overhead_ms"] = observed - inside
            values["server.http.overhead_share"] = ((observed - inside)
                                                    / observed)
        return values


class ServeHot(ServingWorkload):
    """GET /sparql from a pool of 64 distinct lookups, Zipf s = 1.1: the
    working set fits the cache, so the engine does next to nothing and
    HTTP, admission, cache lookup and serialization are the cost."""

    POOL = 64
    ZIPF_S = 1.1

    def make_pool(self) -> None:
        # rank r is always a lookup of kind LOOKUP_MIX[r % 10]; the seed
        # picks which professor, student or department
        rng = self.ctx.rng
        shuffled = {kind: rng.sample(qids, len(qids)) for kind, qids in
                    queries.lookups_by_kind(
                        self.dataset.universities).items()}
        kinds = itertools.islice(itertools.cycle(queries.LOOKUP_MIX),
                                 self.POOL)
        self.pool = [queries.query_op(shuffled[kind].pop())
                     for kind in kinds]

    def lane_ops(self, lane: int) -> List[Op]:
        weights = queries.zipf_weights(len(self.pool), self.ZIPF_S)
        return self.ctx.rng.choices(self.pool, weights=weights,
                                    k=self.ctx.pass_ops // CONNECTIONS)


class ServeChurn(ServingWorkload):
    """90% lookups over 2,048 distinct texts (8x the cache; uniform
    within each kind), 10% POST /update of 5-triple records: the cache is
    too small and every update bumps the version it is keyed on, so each
    query runs the engine under the readers-writer lock beside the
    writers.

    Each connection deletes exactly the records it inserted earlier, so
    the final state is the base graph whatever the interleaving, and no
    lookup reads a triple the records write.
    """

    POOL = 2048
    UPDATE_SHARE = 0.10
    FINAL_PROBES = ("Q1", "Q6")

    def make_pool(self) -> None:
        self.pools = queries.lookups_by_kind(self.dataset.universities)
        # trim the largest kind until the pool is POOL texts
        surplus = sum(map(len, self.pools.values())) - self.POOL
        if surplus > 0:
            largest = max(self.pools.values(), key=len)
            del largest[len(largest) - surplus:]

    def lane_ops(self, lane: int) -> List[Op]:
        rng = self.ctx.rng
        count = self.ctx.pass_ops // CONNECTIONS
        records = max(1, round(count * self.UPDATE_SHARE / 2))
        updates = queries.paired_order(rng, [
            queries.update_pair("insert", queries.fresh_visitor_triples(
                lane * records + k, rng.randrange(self.dataset.universities)))
            for k in range(records)])
        slots = set(rng.sample(range(count), len(updates)))
        updates_iter = iter(updates)
        kinds = itertools.cycle(queries.LOOKUP_MIX)
        return [next(updates_iter) if slot in slots
                else queries.query_op(rng.choice(self.pools[next(kinds)]))
                for slot in range(count)]


class ShardChurn(ServeChurn):
    """The byte-identical request sequence of ``serve_churn`` against
    ``--shards 2``: the scatter / wire / merge path against its own
    single-process twin."""

    shards = SHARDS

    def open_service(self, graph):
        return build_sharded_database(
            graph, SHARDS, strategy=Strategy.SATURATION,
            backend=str(FIXED_CONFIG["backend"]), cache_size=CACHE_SIZE)

    def trace_setup(self, tracer: Tracer) -> None:
        super().trace_setup(tracer)
        self.busy_before = self._busy()
        self.scatter_busy = [0.0] * SHARDS
        self.fanouts: List[int] = []
        self.single_owner = 0
        self.plans = 0

    def _busy(self) -> List[float]:
        return [float(shard.get("busy_seconds") or 0.0)
                for shard in self.service.stats()["shards_detail"]]

    def trace_pass(self, tracer: Tracer) -> None:
        super().trace_pass(tracer)
        # the coordinator's own steps, on the pass's distinct queries
        cluster = self.service.cluster
        namespaces = self.service.namespaces
        busy_before = self._busy()
        for text in dict.fromkeys(op.text for op in self.ops if op.qid):
            parsed = parse_query(text, namespaces)
            with tracer.span("server.shardplan.plan_query"):
                plan = plan_query(parsed, SHARDS, True)
            self.plans += 1
            self.single_owner += plan.passthrough
            gathered = []
            for subplan in plan.subplans:
                self.fanouts.append(len(subplan.targets))
                request = {"op": "query", "text": subplan.text,
                           "reformulation_strategy": None}
                with tracer.span("server.shard.scatter"):
                    replies = cluster.scatter(
                        {shard: request for shard in subplan.targets})
                rows: list = []
                for shard in subplan.targets:
                    rows.extend(replies[shard]["rows"])
                gathered.append(rows)
            with tracer.span("server.shardplan.merge_bgp_rows"):
                merge_bgp_rows(plan, gathered)
        for shard, busy in enumerate(self._busy()):
            self.scatter_busy[shard] += busy - busy_before[shard]

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        busy = [after - before for before, after
                in zip(self.busy_before, self._busy())]
        values = super().layer_metrics(tracer, rec)
        scatters = tracer.durations("server.shard.scatter")
        values["server.shardplan.plan_us"] = layers.median_of(
            tracer, "server.shardplan.plan_query", 1e6)
        values["server.shardplan.merge_ms"] = layers.median_of(
            tracer, "server.shardplan.merge_bgp_rows", 1e3)
        values["server.shardplan.fanout_mean"] = (sum(self.fanouts)
                                                  / len(self.fanouts))
        values["server.shardplan.single_owner_share"] = (self.single_owner
                                                         / self.plans)
        # means, not medians: a few scatters return most of the rows
        values["server.shard.scatter_ms"] = (sum(scatters) / len(scatters)
                                             * 1e3)
        values["server.shard.worker_busy_s_max"] = max(busy)
        values["server.shard.worker_busy_s_sum"] = sum(busy)
        # per scatter, the wall time the busiest worker's own CPU does
        # not explain: pickling, the socket pair, wake-ups, and waiting
        # for the other worker when it is the slower one
        values["server.shard.wire_ms"] = (
            (sum(scatters) - max(self.scatter_busy)) / len(scatters) * 1e3)
        return values

    def trace_teardown(self) -> None:
        if self.service is not None:
            self.service.close()
        super().trace_teardown()
