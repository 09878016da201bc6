"""The benchmark's fixed configuration and its declared metrics.

``BENCHMARK.json`` at the repository root is the one declaration of
workload names, metric names, units and bounds; this module reads it so
that the harness, ``compare`` and the tests cannot drift from it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 20150413  # ICDE 2015's opening day, as in LUBMConfig

#: The graphs are the same on every seed (the committed oracle answers
#: depend on them); ``--seed`` drives the operation sequences.
GRAPH_SEED = 20150413

#: ``LUBMConfig(universities=U, departments=16)``: about 10.9k, 32.6k and
#: 108k explicit triples.
SCALES: Dict[str, int] = {"S": 1, "M": 3, "L": 10}

#: Recorded on every result record and never varied inside a run.
FIXED_CONFIG: Dict[str, object] = {
    "backend": "columnar",
    "kernels": "python",
    "maintenance": "dred",
    "reformulation_strategy": "database default",
    "views": "off",
    "frontend": "asyncio",
    "workers": 2,
    "queue_depth": 16,
    "cache_size": 256,
    "client_connections": 2,
    "shards": 2,
    "snapshot_every": 100,
}

#: Set-up is repeated (and its median reported) this many times, or
#: fewer when one more would take the total past the budget: the L graph
#: is set up once, the M graphs three times.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 7.0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scale: str        # graph scale of a full run; a quick run uses "S"
    pass_ops: int     # size knob of one pass (see the workload)
    quick_ops: int


WORKLOADS: Dict[str, WorkloadSpec] = {w.name: w for w in (
    WorkloadSpec("load_saturate", "S", 1, 1),
    WorkloadSpec("query_sat", "L", 1, 1),
    WorkloadSpec("query_ref", "M", 1, 1),
    WorkloadSpec("update_stream", "M", 80, 8),
    WorkloadSpec("serve_hot", "M", 600, 60),
    WorkloadSpec("serve_churn", "M", 120, 40),
    WorkloadSpec("shard_churn", "M", 120, 40),
)}


def default_seconds(quick: bool) -> float:
    """``--seconds`` when not given: ``run_seconds``, or 1 s for a smoke
    test."""
    return 1.0 if quick else float(
        load_benchmark_json()["run_seconds"])  # type: ignore[arg-type]


def load_benchmark_json() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def declared_metrics(section: str) -> List[Dict[str, object]]:
    """``section`` is ``"end_to_end"`` or ``"per_layer"``."""
    return list(load_benchmark_json()[section])  # type: ignore[arg-type]


def machine_record() -> Dict[str, object]:
    """What a reader needs to compare two result files."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text(
                encoding="utf-8").strip()
        else:
            commit = ref
    except OSError:
        pass  # the driver's checkout is not a git repository
    return {
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": commit,
        **FIXED_CONFIG,
    }
