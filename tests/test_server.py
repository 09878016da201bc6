"""The serving layer (repro.server): readers-writer lock, version-keyed
result cache, admission control and deadlines, the HTTP endpoint, and
the end-to-end differential test — every concurrent answer must equal
the single-threaded evaluator's answer for the same graph version."""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cancellation import CancellationToken, OperationCancelled
from repro.db import RDFDatabase, Strategy
from repro.obs import MetricsRegistry, pop_registry, push_registry
from repro.server import (AdmissionError, LoadgenConfig, QueryResultCache,
                          ReadWriteLock, ServerConfig, ServingDatabase,
                          WorkerPool, run_load, serve_async)
from repro.sparql.bindings import ResultSet
from repro.rdf.terms import Variable, URI
from repro.workloads import (LUBMConfig, WORKLOAD_QUERIES, generate_lubm,
                             instance_insertions)


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Serving counters must not leak between tests."""
    push_registry(MetricsRegistry())
    try:
        yield
    finally:
        pop_registry()


def _serving_db(graph, backend="hash", **kwargs) -> ServingDatabase:
    db = RDFDatabase(graph, strategy=Strategy.SATURATION, backend=backend)
    return ServingDatabase(db, **kwargs)


def _insert_text(graph, count=3, seed=11) -> str:
    batch = instance_insertions(graph, count, seed=seed)
    assert batch.triples
    return "INSERT DATA { " + " ".join(t.n3() for t in batch.triples) + " }"


Q2 = WORKLOAD_QUERIES["Q2"][1].to_sparql()


# ----------------------------------------------------------------------
# readers-writer lock
# ----------------------------------------------------------------------

class TestReadWriteLock:
    def test_readers_are_concurrent(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # all three hold the lock at once

        threads = [threading.Thread(target=reader) for __ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert lock.active_readers == 0

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write():
                writer_in.set()
                order.append("write")

        def reader():
            writer_in.wait(timeout=5.0)
            with lock.read():
                order.append("read")

        lock.acquire_read()  # hold the lock so the writer must wait
        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        lock.release_read()
        w.join(timeout=5.0)
        r.join(timeout=5.0)
        assert order == ["write", "read"]  # writer-preferring

    def test_timeout_raises_deadline(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        with pytest.raises(OperationCancelled) as info:
            lock.acquire_read(timeout=0.01)
        assert info.value.reason == "deadline"
        with pytest.raises(OperationCancelled):
            lock.acquire_write(timeout=0.01)
        lock.release_write()


# ----------------------------------------------------------------------
# version-keyed cache
# ----------------------------------------------------------------------

class TestQueryResultCache:
    def _results(self, tag: str) -> ResultSet:
        results = ResultSet([Variable("x")])
        results.add((URI(f"http://example.org/{tag}"),))
        return results

    def test_lru_eviction_and_counters(self):
        cache = QueryResultCache(capacity=2)
        k = lambda i, v=0: (f"q{i}", "rdfs", "hash", "saturation", v)
        cache.put(k(1), self._results("a"))
        cache.put(k(2), self._results("b"))
        assert cache.get(k(1)) is not None  # 1 is now most-recent
        cache.put(k(3), self._results("c"))  # evicts 2
        assert cache.get(k(2)) is None
        assert cache.get(k(1)) is not None
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.hits == 2 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_version_in_key_separates_generations(self):
        cache = QueryResultCache(capacity=8)
        old = ("q", "rdfs", "hash", "saturation", 1)
        new = ("q", "rdfs", "hash", "saturation", 2)
        cache.put(old, self._results("old"))
        assert cache.get(new) is None  # same query, new version: miss


# ----------------------------------------------------------------------
# worker pool and admission control
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_jobs_run_and_return(self):
        with WorkerPool(workers=2, queue_depth=4) as pool:
            assert pool.run(lambda: 21 * 2) == 42

    def test_full_queue_rejects_and_counts(self):
        from repro.obs import get_metrics
        release = threading.Event()
        started = threading.Event()
        with WorkerPool(workers=1, queue_depth=1) as pool:
            pool.submit(lambda: (started.set(), release.wait(5.0)))
            started.wait(timeout=5.0)   # worker is now occupied
            pool.submit(lambda: None)   # fills the queue (depth 1)
            with pytest.raises(AdmissionError):
                pool.submit(lambda: None)
            release.set()
        assert get_metrics().counter("server.rejected_backpressure").value == 1

    def test_expired_while_queued_is_dropped(self):
        release = threading.Event()
        started = threading.Event()
        ran = []
        with WorkerPool(workers=1, queue_depth=2) as pool:
            pool.submit(lambda: (started.set(), release.wait(5.0)))
            started.wait(timeout=5.0)
            token = CancellationToken(0.0)  # already expired
            job = pool.submit(lambda: ran.append(True), token)
            with pytest.raises(OperationCancelled):
                job.wait(0.05)
            release.set()
        assert ran == []  # the worker pre-checked the token and dropped it

    def test_wait_timeout_cancels_the_job(self):
        release = threading.Event()
        with WorkerPool(workers=1, queue_depth=2) as pool:
            token = CancellationToken(None)
            job = pool.submit(lambda: release.wait(5.0), token)
            with pytest.raises(OperationCancelled) as info:
                job.wait(0.02)
            assert info.value.reason == "deadline"
            assert token.expired  # the in-flight work was told to stop
            release.set()


# ----------------------------------------------------------------------
# the serving core
# ----------------------------------------------------------------------

class TestServingDatabase:
    def test_cache_hit_on_repeat_then_miss_after_update(self, lubm_small):
        svc = _serving_db(lubm_small)
        first = svc.query(Q2)
        again = svc.query(Q2)
        assert not first.cached and again.cached
        assert again.results == first.results
        assert svc.cache.stats().hit_rate > 0
        svc.cache.reset_stats()
        update = svc.update(_insert_text(svc.db.graph))
        assert update.added > 0 and update.version > first.version
        after = svc.query(Q2)
        assert not after.cached          # version changed: hit rate fell to 0
        assert after.version == update.version
        assert svc.cache.stats().hits == 0

    def test_deadline_raises_504_reason_and_counts(self, lubm_small):
        from repro.obs import get_metrics
        svc = _serving_db(lubm_small)
        with pytest.raises(OperationCancelled) as info:
            svc.query(Q2, token=CancellationToken(0.0))
        assert info.value.reason == "deadline"
        assert get_metrics().counter("server.deadline_exceeded").value == 1

    def test_ask_queries_are_answered_not_cached(self, lubm_small):
        svc = _serving_db(lubm_small)
        outcome = svc.query("ASK { ?s ?p ?o }")
        assert outcome.kind == "boolean" and outcome.boolean is True
        assert not svc.query("ASK { ?s ?p ?o }").cached

    def test_update_log_records_serialization_order(self, lubm_small):
        svc = _serving_db(lubm_small)
        svc.update(_insert_text(svc.db.graph, seed=1))
        svc.update(_insert_text(svc.db.graph, seed=2))
        log = svc.update_log()
        assert len(log) == 2
        assert log[0][0] < log[1][0]  # versions are monotone

    def test_stats_shape(self, lubm_small):
        svc = _serving_db(lubm_small)
        svc.query(Q2)
        stats = svc.stats()
        assert stats["served_queries"] == 1
        assert stats["cache"]["misses"] == 1
        assert "graph_version" in stats

    def test_stats_counters_are_exact_under_concurrency(self, lubm_small):
        """Regression for the unguarded counter bumps the concurrency
        lint flagged (SC301): hammering query/stats from several
        threads must lose no increments."""
        svc = _serving_db(lubm_small)
        per_thread, nthreads = 25, 4

        def hammer():
            for __ in range(per_thread):
                svc.query(Q2)
                svc.stats()

        threads = [threading.Thread(target=hammer)
                   for __ in range(nthreads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert svc.stats()["served_queries"] == per_thread * nthreads

    def test_update_log_reads_under_the_lock_with_timeout(self, lubm_small):
        """``update_log`` now snapshots under the read lock; the
        optional timeout keeps callers bounded."""
        svc = _serving_db(lubm_small)
        svc.update(_insert_text(svc.db.graph, seed=1))
        log = svc.update_log(timeout=1.0)
        assert len(log) == 1
        # the returned list is a copy, not the guarded field itself
        log.clear()
        assert len(svc.update_log()) == 1


# ----------------------------------------------------------------------
# the HTTP endpoint
# ----------------------------------------------------------------------

@pytest.fixture
def http_server(lubm_small):
    db = RDFDatabase(lubm_small, strategy=Strategy.SATURATION)
    server = serve_async(db, ServerConfig(port=0, workers=2, queue_depth=4,
                                          timeout=30.0))
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read()


def _post(url, payload):
    body = urllib.parse.urlencode(payload).encode()
    request = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/x-www-form-urlencoded"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read()


class TestHTTPEndpoint:
    def test_query_roundtrip_json_and_csv(self, http_server):
        url = (http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2}))
        status, headers, body = _get(url)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        rows = json.loads(body)["results"]["bindings"]
        assert rows
        status, headers, __ = _get(url)
        assert headers["X-Repro-Cache"] == "hit"
        status, headers, body = _get(url + "&format=csv")
        assert status == 200 and headers["Content-Type"].startswith("text/csv")
        assert len(body.decode().strip().split("\r\n")) == len(rows) + 1

    def test_update_bumps_version_and_invalidates(self, http_server):
        url = (http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2}))
        __, headers, __ = _get(url)
        version = headers["X-Repro-Graph-Version"]
        _get(url)
        text = _insert_text(http_server.service.db.graph)
        status, __, body = _post(http_server.base_url + "/update",
                                 {"update": text})
        assert status == 200
        reply = json.loads(body)
        assert reply["added"] > 0 and str(reply["version"]) != version
        __, headers, __ = _get(url)
        assert headers["X-Repro-Cache"] == "miss"
        assert headers["X-Repro-Graph-Version"] == str(reply["version"])

    def test_ask_and_bare_post_body(self, http_server):
        request = urllib.request.Request(
            http_server.base_url + "/sparql", data=b"ASK { ?s ?p ?o }",
            headers={"Content-Type": "application/sparql-query"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert json.loads(response.read())["boolean"] is True

    def test_healthz_and_stats(self, http_server):
        __, __, body = _get(http_server.base_url + "/healthz")
        health = json.loads(body)
        assert health["status"] == "ok" and health["triples"] > 0
        __, __, body = _get(http_server.base_url + "/stats")
        stats = json.loads(body)
        assert {"server", "pool", "obs"} <= set(stats)

    def test_syntax_error_is_400(self, http_server):
        url = (http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": "SELEC nonsense"}))
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(url)
        assert info.value.code == 400
        info.value.read()

    def test_missing_query_is_400_and_unknown_path_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(http_server.base_url + "/sparql")
        assert info.value.code == 400
        info.value.read()
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(http_server.base_url + "/nope")
        assert info.value.code == 404
        info.value.read()

    def test_deadline_is_504_and_counted(self, http_server):
        from repro.obs import get_metrics
        url = (http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2, "timeout": "0"}))
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(url)
        assert info.value.code == 504
        info.value.read()
        assert get_metrics().counter(
            "server.responses", endpoint="sparql", status=504).value == 1

    def test_full_admission_queue_is_503_and_counted(self, http_server):
        from repro.obs import get_metrics
        release = threading.Event()
        started = threading.Semaphore(0)
        pool = http_server.pool
        # occupy both workers, then fill the queue, so the next HTTP
        # request must be rejected at admission
        blockers = [pool.submit(lambda: (started.release(),
                                         release.wait(5.0)))
                    for __ in range(pool.workers)]
        for __ in range(pool.workers):
            assert started.acquire(timeout=5.0)
        fillers = [pool.submit(lambda: None)
                   for __ in range(pool.queue_depth)]
        url = (http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2}))
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(url)
            assert info.value.code == 503
            assert info.value.headers["Retry-After"] == "1"
            info.value.read()
        finally:
            release.set()
        for job in blockers + fillers:
            job.wait(5.0)
        assert get_metrics().counter(
            "server.rejected_backpressure").value >= 1
        assert get_metrics().counter(
            "server.responses", endpoint="sparql", status=503).value == 1


# ----------------------------------------------------------------------
# end-to-end: concurrent answers == single-threaded answers per version
# ----------------------------------------------------------------------

class TestConcurrentDifferential:
    @pytest.mark.parametrize("backend", ["hash", "columnar"])
    def test_every_concurrent_answer_matches_the_serial_engine(self, backend):
        graph = generate_lubm(LUBMConfig(departments=2))
        svc = _serving_db(graph, backend=backend)
        texts = [WORKLOAD_QUERIES[qid][1].to_sparql()
                 for qid in ("Q1", "Q2", "Q5", "Q8")]
        initial_version = svc.db.graph.version
        observed = []
        observed_lock = threading.Lock()
        errors = []

        def query_client(index: int) -> None:
            try:
                for round_ in range(6):
                    text = texts[(index + round_) % len(texts)]
                    outcome = svc.query(text)
                    rows = frozenset(outcome.results.rows())
                    with observed_lock:
                        observed.append((outcome.version, text, rows))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def update_client() -> None:
            try:
                for i in range(4):
                    svc.update(_insert_text(svc.db.graph, count=2,
                                            seed=100 + i))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=query_client, args=(i,))
                   for i in range(4)]
        threads.append(threading.Thread(target=update_client))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        assert observed

        # replay the serialized update history on a single-threaded
        # mirror and check every observed answer against it
        mirror = RDFDatabase(graph, strategy=Strategy.SATURATION,
                             backend=backend)
        log = svc.update_log()
        assert len(log) == 4
        checkpoints = {}  # served version -> expected answers per query

        def snapshot(version: int) -> None:
            checkpoints[version] = {
                text: frozenset(mirror.query(text).rows()) for text in texts}

        # versions observed by queries are exactly the update
        # boundaries: the RW lock admits no mid-update reads
        base_offset = initial_version  # mirror starts at its own version
        snapshot(initial_version)
        for version_after, text in log:
            mirror.update(text)
            snapshot(version_after)
        observed_versions = {version for version, __, __ in observed}
        assert observed_versions <= set(checkpoints), (
            f"queries observed non-boundary versions: "
            f"{observed_versions - set(checkpoints)}")
        for version, text, rows in observed:
            assert rows == checkpoints[version][text], (
                f"answer diverged at version {version} for {text!r}")
        assert base_offset == initial_version  # silence unused warning

    def test_loadgen_inproc_reports_and_caches(self, lubm_small):
        svc = _serving_db(lubm_small)
        report = run_load(svc, LoadgenConfig(clients=3,
                                             requests_per_client=12,
                                             update_every=6,
                                             update_size=2))
        assert report.requests == 36
        assert report.updates > 0 and report.queries > 0
        assert report.statuses.get(200, 0) == report.requests
        assert report.throughput > 0
        summary = report.to_dict()
        latencies = summary["latency_seconds"]["query"]
        assert latencies["p50"] <= latencies["p95"] <= latencies["p99"]
        # only 4 distinct query texts per ~30 queries: repeats must hit
        assert svc.cache.stats().hits > 0

    def test_loadgen_http_transport(self, http_server):
        report = run_load(http_server.base_url,
                          LoadgenConfig(clients=2, requests_per_client=6,
                                        update_every=0))
        assert report.requests == 12
        assert report.statuses.get(200, 0) == 12
