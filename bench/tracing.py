"""Spans recorded from the benchmark's own files, around layer calls.

A span is ``[name, start, end, parent index, op id]``.  Spans of one
operation share its op id.  They stay in memory and are written out when
the workload ends.  In-program spans (``repro.obs``) are a later change;
until then the layer boundaries are the public functions the replay
calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = 0
        self.passes = 0  # traced passes so far; counts are reported per pass
        #: work counted at a layer boundary, by metric name
        self.counts: Dict[str, float] = {}

    @contextmanager
    def op(self, name: str) -> Iterator[None]:
        """One operation: the root span its layer spans hang from."""
        self._op += 1
        with self.span("op." + name):
            yield

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = clock()
        try:
            yield
        finally:
            record[2] = clock()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name, total duration minus what child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start
                                                    - covered[index])
        return totals

    def dump(self, path: Path) -> None:
        document = {
            "columns": ["name", "start", "end", "parent", "op"],
            "self_time_s": self.self_times(),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
