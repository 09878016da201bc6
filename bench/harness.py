"""One measured run of one workload.

The shape is the same for all seven workloads: generate the inputs from
the seed, set the system under test up (several times; the median is
``setup_s``), replay the seeded pass once untimed, then replay it until
``--seconds`` have gone by, and check what came back.  A traced run
spends half its time untraced (so that it can report the trace's own
overhead and the client-observed numbers the layers are compared with)
and half replaying the same pass decomposed into layer calls.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Tuple

from . import stats
from .spec import (OUT_DIR, SETUP_BUDGET_S, SETUP_REPEATS, WORKLOADS,
                   WorkloadSpec, declared_metrics)
from .tracing import Tracer

clock = time.perf_counter


class Recorder:
    """Latencies and verdicts of the operations of some passes."""

    def __init__(self) -> None:
        self.samples: List[Tuple[str, float]] = []  # (kind, seconds)
        self.attempted = 0
        self.failed = 0

    def op(self, kind: str, seconds: float, ok: bool) -> None:
        """A timed operation."""
        self.samples.append((kind, seconds))
        self.check(ok)

    def check(self, ok: bool) -> None:
        """An untimed correctness check (a digest, a final-state probe)."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def merge(self, other: "Recorder") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed

    def latencies_ms(self, kinds=None) -> List[float]:
        return [seconds * 1e3 for kind, seconds in self.samples
                if kinds is None or kind in kinds]


@dataclass
class Context:
    """What a workload is handed: the seed and where it may write."""

    spec: WorkloadSpec
    seed: int
    quick: bool
    tmpdir: str
    rng: Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = Random(self.seed)

    @property
    def scale(self) -> str:
        return "S" if self.quick else self.spec.scale

    @property
    def pass_ops(self) -> int:
        return self.spec.quick_ops if self.quick else self.spec.pass_ops


class Workload:
    """What the harness asks of a workload."""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def prepare(self) -> None:
        """Generator work: inputs, operation list, expected answers."""

    def setup(self) -> None:
        """Everything before the first timed operation (timed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo ``setup``; must be safe to call twice."""

    def run_pass(self, rec: Recorder) -> Tuple[int, float]:
        """Replay the seeded pass; returns ``(ops, measured wall)``."""
        raise NotImplementedError

    def verify(self, rec: Recorder) -> None:
        """Untimed full check of what the last pass returned."""

    def peak_rss_mb(self) -> float:
        """Of the process under test; in-process workloads share it with
        the generator."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def diagnostics(self) -> Dict[str, float]:
        """Workload-specific client-observed values (``client.*``)."""
        return {}

    def trace_setup(self, tracer: Tracer) -> None:
        """Build what the decomposed replay runs against."""

    def trace_pass(self, tracer: Tracer) -> None:
        """Replay the pass as timed calls on each layer's functions."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer,
                      rec: Recorder) -> Dict[str, float]:
        """Per-layer values from the spans and the untraced samples."""
        return {}

    def trace_teardown(self) -> None:
        pass


QUERY_KINDS_EXCLUDED = ("insert", "delete", "schema_insert",
                        "schema_delete", "load", "snapshot", "recover")


def _client_diagnostics(rec: Recorder) -> Dict[str, float]:
    """The end-to-end numbers that apply to some workloads only."""
    values: Dict[str, float] = {}
    query = [(k, s) for k, s in rec.samples
             if k not in QUERY_KINDS_EXCLUDED]
    if query:
        ms = [s * 1e3 for _, s in query]
        values["client.query_p50_ms"] = stats.median(ms)
        values["client.query_p90_ms"] = stats.percentile(ms, 0.90)
        values["client.query_p99_ms"] = stats.percentile(ms, 0.99)
        values["client.query_gmean_ms"] = stats.geometric_mean(
            v * 1e3 for v in stats.by_kind_median(query).values())
    instance = rec.latencies_ms(("insert", "delete"))
    if instance:
        values["client.update_p50_ms"] = stats.median(instance)
    schema = rec.latencies_ms(("schema_insert", "schema_delete"))
    if schema:
        values["client.schema_update_p50_ms"] = stats.median(schema)
    return values


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    values: Dict[str, float]   # everything measured, declared or not
    passes: int

    def metrics(self, section: str) -> Dict[str, Dict[str, object]]:
        """The declared metrics of ``section``, as the result line
        carries them.  A layer a workload does not exercise did no work:
        its metrics read 0."""
        out: Dict[str, Dict[str, object]] = {}
        for declared in declared_metrics(section):
            name = str(declared["name"])
            if name not in self.values and section == "end_to_end":
                raise RuntimeError(f"{name} was not measured")
            out[name] = {"value": self.values.get(name, 0.0),
                         "unit": declared["unit"]}
        return out


def pass_statistics(samples: List[Tuple[str, float]]) -> Dict[str, float]:
    """The latency metrics of one pass's samples."""
    ms = [seconds * 1e3 for _, seconds in samples]
    return {
        "op_p50_ms": stats.median(ms),
        "op_p90_ms": stats.percentile(ms, 0.90),
        "op_gmean_ms": stats.geometric_mean(
            v * 1e3 for v in stats.by_kind_median(samples).values()),
    }


def _replay(workload: Workload, budget: float
            ) -> Tuple[Recorder, List[Dict[str, float]], float, float]:
    """Passes until ``budget`` seconds have gone by.  Returns the pooled
    samples, each pass's own statistics, the peak resident set after the
    first pass (so that it does not depend on how many passes fit) and the
    share of one core the benchmark's own process used meanwhile."""
    rec = Recorder()
    passes: List[Dict[str, float]] = []
    rss_mb = 0.0
    started, cpu_started = clock(), time.process_time()
    while True:
        gc.collect()  # GC stays enabled; each pass starts from a clean heap
        before = len(rec.samples)
        ops, wall = workload.run_pass(rec)
        passes.append({"ops_per_s": ops / wall, "wall_s": wall,
                       **pass_statistics(rec.samples[before:])})
        if len(passes) == 1:
            rss_mb = workload.peak_rss_mb()
        if clock() - started >= budget:
            break
    cpu_share = ((time.process_time() - cpu_started)
                 / (clock() - started))
    return rec, passes, rss_mb, cpu_share


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> RunResult:
    from .workloads import REGISTRY

    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR)
    ctx = Context(spec=WORKLOADS[name], seed=seed, quick=quick,
                  tmpdir=tmpdir)
    workload = REGISTRY[name](ctx)
    try:
        workload.prepare()
        setup_times: List[float] = []
        while True:
            gc.collect()
            started = clock()
            workload.setup()
            setup_times.append(clock() - started)
            if (trace or len(setup_times) >= SETUP_REPEATS
                    or sum(setup_times) + setup_times[-1] > SETUP_BUDGET_S):
                break
            workload.teardown()

        total = Recorder()
        workload.run_pass(total)  # warm-up: untimed, but checked
        total.samples.clear()
        rec, passes, rss_mb, cpu_share = _replay(
            workload, seconds / 2 if trace else seconds)
        workload.verify(rec)
        total.merge(rec)

        # every timing is the median over passes of the pass's own value:
        # interference that slows a minority of passes does not move it
        values: Dict[str, float] = {
            name: stats.median([p[name] for p in passes])
            for name in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                         "op_gmean_ms")}
        values["setup_s"] = stats.median(setup_times)
        values["peak_rss_mb"] = rss_mb
        if trace:
            values.update(_client_diagnostics(rec))
            values.update(workload.diagnostics())
            values["client.cpu_share"] = cpu_share
            tracer = Tracer()
            workload.trace_setup(tracer)
            try:
                traced_walls: List[float] = []
                started = clock()
                while True:
                    gc.collect()
                    pass_started = clock()
                    workload.trace_pass(tracer)
                    traced_walls.append(clock() - pass_started)
                    tracer.passes += 1
                    if clock() - started >= seconds / 2:
                        break
                values.update(workload.layer_metrics(tracer, rec))
            finally:
                workload.trace_teardown()
            untraced = stats.median([p["wall_s"] for p in passes])
            values["trace.overhead_share"] = (
                (stats.median(traced_walls) - untraced) / untraced)
            tracer.dump(OUT_DIR / f"trace-{name}.json")
        return RunResult(correct=total.failed == 0,
                         attempted=total.attempted, failed=total.failed,
                         values=values, passes=len(passes))
    finally:
        workload.teardown()
        shutil.rmtree(tmpdir, ignore_errors=True)


def directory_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
