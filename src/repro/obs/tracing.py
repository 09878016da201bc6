"""Lightweight span-based tracing: nested timing trees.

Where the metrics registry answers "how many, how big", spans answer
"where did the time go": every instrumented operation opens a span
(``with span("saturate.round", round=3): ...``), spans nest into a
tree, and finished root spans are retained for export.  This replaces
the ad-hoc ``time.perf_counter()`` pairs that used to be scattered
through the engines — a result object's ``seconds`` field is now *the
duration of its span*, so the number printed by ``summary()`` and the
number in the JSON trace can never disagree.

Span trees are per-thread (a contextvar-free, thread-local stack: the
HTTP server's pool runs engines from worker threads) and recording
is always on — a span is three small object operations, far below the
cost of anything worth tracing here.  The retained-roots buffer is
bounded so long-lived processes (the adaptive database under "heavy
traffic") don't leak.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "CpuStopwatch", "Tracer", "span", "current_span",
           "get_tracer", "set_tracer", "push_tracer", "pop_tracer"]


class Span:
    """One timed operation, possibly with nested child spans."""

    __slots__ = ("name", "attributes", "children", "started", "ended")

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None):
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.children: List["Span"] = []
        self.started = time.perf_counter()
        self.ended: Optional[float] = None

    @property
    def duration(self) -> float:
        """Seconds from start to finish (to *now* while still open)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to the span (e.g. measured counts)."""
        self.attributes.update(attributes)
        return self

    def finish(self) -> None:
        if self.ended is None:
            self.ended = time.perf_counter()

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly nested representation (durations in seconds)."""
        node: Dict[str, object] = {"name": self.name,
                                   "seconds": round(self.duration, 9)}
        if self.attributes:
            node["attributes"] = {k: _jsonable(v)
                                  for k, v in sorted(self.attributes.items())}
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node

    def pretty(self, indent: int = 0) -> str:
        """Human-readable tree rendering, one span per line."""
        attrs = ""
        if self.attributes:
            attrs = " " + " ".join(f"{k}={v}"
                                   for k, v in sorted(self.attributes.items()))
        lines = [f"{'  ' * indent}{self.name}: "
                 f"{self.duration * 1000:.2f} ms{attrs}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "open" if self.ended is None else f"{self.duration * 1e3:.2f} ms"
        return f"<Span {self.name} [{state}]>"


class CpuStopwatch:
    """An accumulating *CPU-time* stopwatch (``time.process_time``).

    Spans measure wall clock, which is the right ruler for latency but
    the wrong one for *service demand*: on a host with fewer cores
    than processes, a worker's wall clock silently includes slices
    where a sibling held the CPU.  Capacity accounting (how much work
    does this process actually perform?) reads CPU time instead —
    e.g. a shard worker's ``busy_seconds``, whose bottleneck across
    shards bounds the cluster's aggregate throughput.
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "CpuStopwatch":
        self._started = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started is not None:
            self.seconds += time.process_time() - self._started
            self._started = None


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects span trees; finished roots are retained for export."""

    def __init__(self, max_roots: int = 256):
        self.max_roots = max_roots
        self.roots: List[Span] = []
        self._local = threading.local()

    # -- the per-thread open-span stack ---------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child span of the current span (or a new root)."""
        node = Span(name, attributes)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(node)
        try:
            yield node
        finally:
            node.finish()
            stack.pop()
            if parent is not None:
                parent.children.append(node)
            else:
                self.roots.append(node)
                if len(self.roots) > self.max_roots:
                    del self.roots[:len(self.roots) - self.max_roots]

    # -- export ---------------------------------------------------------

    def reset(self) -> None:
        self.roots = []

    def to_list(self) -> List[Dict[str, object]]:
        return [root.to_dict() for root in self.roots]

    def pretty(self) -> str:
        return "\n".join(root.pretty() for root in self.roots)


# ----------------------------------------------------------------------
# the process-wide default tracer (swappable for isolation)
# ----------------------------------------------------------------------

_default_tracer = Tracer()
_tracer_stack: List[Tracer] = []


def get_tracer() -> Tracer:
    """The tracer instrumented code reports into right now."""
    if _tracer_stack:
        return _tracer_stack[-1]
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide default tracer; returns the old one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def push_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Route subsequent spans into a (new) tracer until :func:`pop_tracer`."""
    tracer = tracer if tracer is not None else Tracer()
    _tracer_stack.append(tracer)
    return tracer


def pop_tracer() -> Tracer:
    """Undo the innermost :func:`push_tracer`."""
    if not _tracer_stack:
        raise RuntimeError("pop_tracer() without a matching push_tracer()")
    return _tracer_stack.pop()


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Open a span on the current default tracer.

    The workhorse API::

        with span("saturate.round", round=i) as sp:
            ...
            sp.set(delta=len(new_this_round))
    """
    with get_tracer().span(name, **attributes) as node:
        yield node


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, if any."""
    return get_tracer().current()
