"""The HTTP front-end (repro.server.aserver): routes, parameters and
the 400/404/405/503/504 status mapping of the shared protocol, plus
keep-alive, lifecycle, and live requests served while idle and slow
connections are held open."""

import json
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.db import RDFDatabase, Strategy
from repro.obs import MetricsRegistry, get_metrics, pop_registry, push_registry
from repro.server import ReproAsyncServer, ServerConfig, serve_async
from repro.workloads import WORKLOAD_QUERIES, instance_insertions

Q2 = WORKLOAD_QUERIES["Q2"][1].to_sparql()


@pytest.fixture(autouse=True)
def fresh_metrics():
    push_registry(MetricsRegistry())
    try:
        yield
    finally:
        pop_registry()


@pytest.fixture
def aserver(lubm_small):
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


def _insert_text(graph, count=3, seed=11) -> str:
    batch = instance_insertions(graph, count, seed=seed)
    assert batch.triples
    return "INSERT DATA { " + " ".join(t.n3() for t in batch.triples) + " }"


class TestAsyncEndpoint:
    """Routes and the status mapping over real HTTP."""

    def test_query_roundtrip_json_and_csv(self, aserver):
        url = (aserver.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2}))
        status, headers, body = _get(url)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        rows = json.loads(body)["results"]["bindings"]
        assert rows
        __, headers, __ = _get(url)
        assert headers["X-Repro-Cache"] == "hit"
        status, headers, body = _get(url + "&format=csv")
        assert status == 200 and headers["Content-Type"].startswith("text/csv")
        assert len(body.decode().strip().split("\r\n")) == len(rows) + 1

    def test_update_bumps_version(self, aserver):
        text = _insert_text(aserver.service.db.graph)
        status, __, body = _post(aserver.base_url + "/update",
                                 {"update": text})
        assert status == 200
        reply = json.loads(body)
        assert reply["added"] > 0

    def test_bare_post_body_and_ask(self, aserver):
        request = urllib.request.Request(
            aserver.base_url + "/sparql", data=b"ASK { ?s ?p ?o }",
            headers={"Content-Type": "application/sparql-query"})
        with urllib.request.urlopen(request, timeout=10.0) as response:
            assert json.loads(response.read())["boolean"] is True

    def test_healthz_and_stats(self, aserver):
        __, __, body = _get(aserver.base_url + "/healthz")
        health = json.loads(body)
        assert health["status"] == "ok" and health["triples"] > 0
        __, __, body = _get(aserver.base_url + "/stats")
        stats = json.loads(body)
        assert {"server", "pool", "obs"} <= set(stats)

    def test_syntax_error_is_400(self, aserver):
        url = (aserver.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": "SELEC nonsense"}))
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(url)
        assert info.value.code == 400
        info.value.read()

    def test_missing_query_400_unknown_path_404_method_405(self, aserver):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(aserver.base_url + "/sparql")
        assert info.value.code == 400
        info.value.read()
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(aserver.base_url + "/nope")
        assert info.value.code == 404
        info.value.read()
        request = urllib.request.Request(aserver.base_url + "/sparql",
                                         method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10.0)
        assert info.value.code == 405
        info.value.read()

    def test_views_routes_are_gone(self, aserver):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(aserver.base_url + "/views")
        assert info.value.code == 404
        info.value.read()
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(aserver.base_url + "/views/advise", {"apply": "true"})
        assert info.value.code == 404
        info.value.read()

    def test_deadline_is_504_and_counted(self, aserver):
        url = (aserver.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": Q2, "timeout": "0"}))
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(url)
        assert info.value.code == 504
        info.value.read()
        assert get_metrics().counter(
            "server.responses", endpoint="sparql", status=504).value == 1

    def test_full_admission_queue_is_503(self, aserver):
        release = threading.Event()
        started = threading.Semaphore(0)
        pool = aserver.pool
        blockers = [pool.submit(lambda: (started.release(),
                                         release.wait(5.0)))
                    for __ in range(pool.workers)]
        for __ in range(pool.workers):
            assert started.acquire(timeout=5.0)
        fillers = [pool.submit(lambda: None)
                   for __ in range(pool.queue_depth)]
        url = (aserver.base_url + "/sparql?"
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


class TestAsyncWireProtocol:
    """Behaviors only visible at the socket level."""

    def test_keep_alive_two_requests_one_socket(self, aserver):
        request = (f"GET /healthz HTTP/1.1\r\n"
                   f"Host: localhost\r\n\r\n").encode()
        with socket.create_connection(("127.0.0.1", aserver.port),
                                      timeout=10.0) as sock:
            replies = []
            for __ in range(2):
                sock.sendall(request)
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(4096)
                header_blob, __, rest = head.partition(b"\r\n\r\n")
                length = int(
                    [line.split(b":")[1] for line in header_blob.split(b"\r\n")
                     if line.lower().startswith(b"content-length")][0])
                body = rest
                while len(body) < length:
                    body += sock.recv(4096)
                replies.append((header_blob.split(b"\r\n")[0], body))
        for status_line, body in replies:
            assert b"200" in status_line
            assert json.loads(body)["status"] == "ok"

    def test_malformed_request_line_is_400_and_closes(self, aserver):
        with socket.create_connection(("127.0.0.1", aserver.port),
                                      timeout=10.0) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply

    def test_connection_close_is_honored(self, aserver):
        request = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                   b"Connection: close\r\n\r\n")
        with socket.create_connection(("127.0.0.1", aserver.port),
                                      timeout=10.0) as sock:
            sock.sendall(request)
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break  # server closed after the response
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200")

    def test_oversized_body_is_413(self, aserver):
        from repro.server.aserver import _BODY_LIMIT
        head = (f"POST /sparql HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {_BODY_LIMIT + 1}\r\n\r\n").encode()
        with socket.create_connection(("127.0.0.1", aserver.port),
                                      timeout=10.0) as sock:
            sock.sendall(head)
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 413")


class TestLifecycle:
    def test_start_twice_raises_and_shutdown_joins(self, lubm_small):
        db = RDFDatabase(lubm_small, strategy=Strategy.SATURATION)
        server = serve_async(db, ServerConfig(port=0, workers=1,
                                              queue_depth=2))
        assert isinstance(server, ReproAsyncServer)
        with pytest.raises(RuntimeError):
            server.port  # not started yet
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
            assert server.port > 0
        finally:
            server.shutdown()
        # the loop thread is gone and the port no longer accepts
        assert not server._thread.is_alive()

    def test_bind_failure_surfaces_in_start(self, lubm_small):
        db = RDFDatabase(lubm_small, strategy=Strategy.SATURATION)
        blocker = serve_async(db, ServerConfig(port=0, workers=1,
                                               queue_depth=2))
        blocker.start()
        try:
            clash = serve_async(db, ServerConfig(port=blocker.port,
                                                 workers=1, queue_depth=2))
            with pytest.raises(RuntimeError):
                clash.start()
        finally:
            blocker.shutdown()


class TestHeldConnections:
    """Idle and slow sockets must not starve live requests."""

    def test_live_queries_answer_while_connections_are_held(self, aserver):
        address = ("127.0.0.1", aserver.port)
        idle = []
        sipping = threading.Event()
        stop = threading.Event()

        def slow_reader() -> None:
            # keep-alive requests whose responses are sipped 32 bytes
            # at a time; a drained response is followed by the next one
            request = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
            with socket.create_connection(address, timeout=10.0) as sock:
                sock.settimeout(0.2)
                sock.sendall(request)
                while not stop.wait(0.01):
                    try:
                        chunk = sock.recv(32)
                    except socket.timeout:
                        sock.sendall(request)
                        continue
                    if not chunk:
                        return
                    sipping.set()

        reader = threading.Thread(target=slow_reader, daemon=True)
        try:
            for __ in range(8):
                sock = socket.create_connection(address, timeout=10.0)
                sock.sendall(b"GET /healthz HT")  # never finished
                idle.append(sock)
            reader.start()
            assert sipping.wait(10.0), "the slow reader got no bytes"
            url = (aserver.base_url + "/sparql?"
                   + urllib.parse.urlencode({"query": Q2}))
            statuses = [_get(url)[0] for __ in range(8)]
        finally:
            stop.set()
            reader.join(timeout=10.0)
            for sock in idle:
                sock.close()
        assert statuses == [200] * 8
        assert not reader.is_alive()
