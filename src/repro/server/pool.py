"""A bounded worker pool with admission control.

The serving layer's backpressure valve.  An unbounded executor turns
overload into unbounded queueing — every request eventually answered,
none answered in time.  This pool does the opposite: a fixed number of
workers, a bounded admission queue, and an immediate
:class:`AdmissionError` (HTTP 503 upstream) the moment the queue is
full.  Clients that retry with backoff see a healthy system shed load;
clients that don't were never going to meet their deadline anyway.

Deadlines compose with admission: the token a job carries was armed at
admission time, so time spent queued burns the request's budget, and a
worker picking up an already-expired job drops it without starting
(the caller has long since been told 504).
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional, TypeVar

from ..cancellation import CancellationToken, OperationCancelled
from ..obs import get_metrics

__all__ = ["AdmissionError", "Job", "WorkerPool"]

T = TypeVar("T")


class AdmissionError(RuntimeError):
    """The admission queue is full; the request was not accepted."""


class Job:
    """One admitted unit of work; the submitter waits on :meth:`wait`."""

    __slots__ = ("fn", "token", "_done", "_result", "_error", "_callbacks",
                 "_lock")

    def __init__(self, fn: Callable[[], object],
                 token: Optional[CancellationToken]):
        self.fn = fn
        self.token = token
        self._done = threading.Event()
        self._result: object = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Job"], None]] = []
        self._lock = threading.Lock()

    def run(self) -> None:
        try:
            if self.token is not None:
                # expired while queued: the submitter already gave up
                self.token.raise_if_cancelled()
            self._result = self.fn()
        except BaseException as error:  # delivered to the submitter
            self._error = error
        finally:
            with self._lock:
                self._done.set()
                callbacks, self._callbacks = self._callbacks, []
            for callback in callbacks:
                try:
                    callback(self)
                except Exception:  # a callback must never kill a worker
                    get_metrics().counter("server.callback_errors").inc()

    def add_done_callback(self, callback: Callable[["Job"], None]) -> None:
        """Invoke ``callback(job)`` exactly once, when the job is done.

        Fires on the worker thread that completes the job, or
        immediately on the caller's thread when the job already
        finished.  Callbacks must be non-blocking — the HTTP
        front-end uses this to hop completion onto its event loop via
        ``call_soon_threadsafe`` instead of parking a thread in
        :meth:`wait`.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> object:
        """Block for the result.

        Raises whatever the job raised; raises
        :class:`OperationCancelled` (reason ``"deadline"``) when
        ``timeout`` elapses first — the job itself is then cancelled
        through its token so the worker abandons it cooperatively.
        """
        if not self._done.wait(timeout):
            if self.token is not None:
                self.token.cancel()
            raise OperationCancelled("deadline")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class WorkerPool:
    """Fixed worker threads over a bounded admission queue."""

    __slots__ = ("workers", "queue_depth", "_queue", "_threads", "_closed")

    def __init__(self, workers: int = 4, queue_depth: int = 16):
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.workers = workers
        self.queue_depth = queue_depth
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=queue_depth)
        self._closed = False
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(target=self._work, daemon=True,
                                      name=f"repro-worker-{i}")
            thread.start()
            self._threads.append(thread)

    def _work(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                job.run()
            finally:
                self._queue.task_done()
                get_metrics().gauge("server.queue_depth").set(
                    self._queue.qsize())

    def submit(self, fn: Callable[[], T],
               token: Optional[CancellationToken] = None) -> Job:
        """Admit ``fn`` for execution, or raise :class:`AdmissionError`
        immediately when the queue is full (no blocking: backpressure
        must reach the client while retrying is still useful)."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        job = Job(fn, token)
        metrics = get_metrics()
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            metrics.counter("server.rejected_backpressure").inc()
            raise AdmissionError(
                f"admission queue full ({self.queue_depth} deep)") from None
        metrics.gauge("server.queue_depth").set(self._queue.qsize())
        return job

    def run(self, fn: Callable[[], T],
            token: Optional[CancellationToken] = None) -> T:
        """Submit and wait under the token's remaining budget."""
        job = self.submit(fn, token)
        timeout = token.remaining if token is not None else None
        return job.wait(timeout)  # type: ignore[return-value]

    @property
    def depth(self) -> int:
        """Jobs currently queued (admission pressure indicator)."""
        return self._queue.qsize()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join the workers."""
        if self._closed:
            return
        self._closed = True
        for __ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
