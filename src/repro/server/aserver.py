"""The HTTP front-end: a SPARQL-protocol subset on one asyncio loop.

Routes: ``GET``/``POST /sparql`` (``format=json|csv``, an optional
``timeout=`` that only tightens the deadline, ``strategy=`` under
reformulation), ``POST /update``, ``POST /snapshot``, ``GET /healthz``,
``GET /stats``, ``GET /views`` and ``POST /views/advise``.  Routing,
parameters and the status mapping live in
:func:`repro.server.protocol.plan_request`; this module owns only the
sockets:

* an **idle or slow socket costs a coroutine, not a thread**, so live
  requests are answered while other connections sit open;
* request parsing happens on the loop, **execution does not**: work is
  admitted into the bounded :class:`~repro.server.pool.WorkerPool`
  and completion hops back onto the loop through
  :meth:`~repro.server.pool.Job.add_done_callback` +
  ``call_soon_threadsafe``, so the loop never blocks on a query;
* a full admission queue answers 503 with ``Retry-After`` at once;
  deadlines cancel in-flight work cooperatively and answer 504.

``HTTP/1.1`` keep-alive is supported (``Connection: close`` honored);
bodies are read by ``Content-Length``.  :meth:`ReproAsyncServer.start`
runs the loop in a background thread; ``shutdown()`` stops it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Tuple

from ..cancellation import OperationCancelled
from ..db import RDFDatabase
from ..obs import get_metrics
from .pool import AdmissionError, WorkerPool
from .protocol import Response, Work, error_response, plan_request
from .service import ServerConfig, ServingDatabase

__all__ = ["ReproAsyncServer", "serve_async"]

#: request line + headers must fit in this many bytes
_HEADER_LIMIT = 65536
#: request bodies larger than this are rejected (413)
_BODY_LIMIT = 16 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


class _BadRequest(Exception):
    """A malformed request that still deserves an HTTP answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ReproAsyncServer:
    """The event-loop serving endpoint over the shared protocol."""

    __slots__ = ("service", "config", "pool", "_loop", "_thread",
                 "_started", "_stop", "_bound_port", "_failure")

    def __init__(self, service: ServingDatabase, config: ServerConfig):
        self.service = service
        self.config = config
        self.pool = WorkerPool(workers=config.workers,
                               queue_depth=config.queue_depth)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Future] = None
        self._bound_port: Optional[int] = None
        self._failure: Optional[BaseException] = None

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise RuntimeError("server is not started")
        return self._bound_port

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproAsyncServer":
        """Bind and serve from a background event-loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-aserver")
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("asyncio server failed to start in time")
        if self._failure is not None:
            raise RuntimeError("asyncio server failed to bind") \
                from self._failure
        return self

    def shutdown(self) -> None:
        """Stop the loop, close the listener, stop the workers."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            def _finish() -> None:
                if not stop.done():
                    stop.set_result(None)
            loop.call_soon_threadsafe(_finish)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.pool.shutdown(wait=False)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by start()
            self._failure = error
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=_HEADER_LIMIT)
        self._bound_port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:  # sc: allow(SC303): bounded by close/EOF below
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    response = error_response(error.status, str(error),
                                              endpoint="other")
                    writer.write(_serialize(response, close=True))
                    await writer.drain()
                    return
                if request is None:  # clean EOF between requests
                    return
                method, target, headers, body = request
                response = await self._respond(method, target, headers, body)
                close = headers.get("connection", "").lower() == "close"
                writer.write(_serialize(response, close=close))
                await writer.drain()
                if close:
                    return
        except asyncio.CancelledError:
            # loop teardown cancelled this connection mid-await:
            # finish quietly so the stream protocol's done-callback
            # sees a completed task instead of re-raising at shutdown
            pass
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request: nothing to answer
        finally:
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict[str, str],
                                                str]]:
        """Parse one request; None on clean EOF before a request line."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request headers too large") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, f"malformed request line {lines[0]!r}")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = ""
        raw_length = headers.get("content-length")
        if raw_length:
            try:
                length = int(raw_length)
            except ValueError:
                raise _BadRequest(400, "malformed Content-Length") from None
            if length < 0 or length > _BODY_LIMIT:
                raise _BadRequest(413, "request body too large")
            if length:
                body = (await reader.readexactly(length)).decode("utf-8")
        return method, target, headers, body

    async def _respond(self, method: str, target: str,
                       headers: Dict[str, str], body: str) -> Response:
        plan = plan_request(self.service, self.pool, self.config,
                            method, target, body,
                            headers.get("content-type", ""),
                            headers.get("accept", ""))
        if isinstance(plan, Response):
            return plan
        return await self._await_work(plan)

    async def _await_work(self, work: Work) -> Response:
        """Admit, await a loop future resolved from the worker thread,
        then render — the loop itself never blocks on the query."""
        try:
            job = self.pool.submit(work.fn, work.token)
        except AdmissionError:
            return work.admission_error()
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()

        def _resolve(_job: object) -> None:  # runs on the worker thread
            def _set() -> None:
                if not done.done():
                    done.set_result(None)
            loop.call_soon_threadsafe(_set)

        job.add_done_callback(_resolve)
        try:
            await asyncio.wait_for(
                asyncio.shield(done), timeout=work.token.remaining)
        except asyncio.TimeoutError:
            # cancel the in-flight work cooperatively
            work.token.cancel()
            return work.deadline_error()
        try:
            outcome = job.wait(0)  # already done: raises the job's error
        except OperationCancelled:
            return work.deadline_error()
        except Exception as error:
            response = work.map_exception(error)
            if response is None:
                get_metrics().counter("server.internal_errors").inc()
                return error_response(500, "internal server error",
                                      work.endpoint)
            return response
        return work.render(outcome)


def _serialize(response: Response, close: bool) -> bytes:
    """One HTTP/1.1 response as wire bytes (Content-Length framed)."""
    get_metrics().counter("server.responses", endpoint=response.endpoint,
                          status=response.status).inc()
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}",
             f"Content-Type: {response.content_type}",
             f"Content-Length: {len(response.body)}"]
    lines.extend(f"{name}: {value}"
                 for name, value in response.headers.items())
    if close:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


def serve_async(db: RDFDatabase,
                config: Optional[ServerConfig] = None) -> ReproAsyncServer:
    """Wrap ``db`` in a :class:`ServingDatabase` and build the asyncio
    endpoint.  Returns the server without starting it; call
    :meth:`~ReproAsyncServer.start` and
    :meth:`~ReproAsyncServer.shutdown` around use."""
    config = config if config is not None else ServerConfig()
    service = ServingDatabase(db, cache_size=config.cache_size)
    return ReproAsyncServer(service, config)
