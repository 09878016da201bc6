"""Checks on the benchmark harness itself (``python -m pytest bench -q``).

Outside tier-1's ``testpaths``: these run every workload at the quick
scale, which takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import oracle  # noqa: E402
from bench.harness import Context, run_workload  # noqa: E402
from bench.spec import WORKLOADS, declared_metrics  # noqa: E402
from bench.workloads import REGISTRY  # noqa: E402

SEED = 7
SECONDS = 0.5

END_TO_END = {str(m["name"]): str(m["unit"])
              for m in declared_metrics("end_to_end")}
PER_LAYER = {str(m["name"]): str(m["unit"])
             for m in declared_metrics("per_layer")}

#: Layers a workload exists to exercise: their metrics must not read 0.
MUST_EXERCISE = {
    "load_saturate": ("rdf.ntriples.parse_s",
                      "reasoning.saturation.saturate_s",
                      "storage.snapshot_s", "storage.recover_s",
                      "client.recover_s", "client.disk_bytes_per_triple"),
    "query_sat": ("sparql.evaluator.eval_ms", "sparql.optimizer.plan_us",
                  "sparql.results.json_ms", "db.query_ms",
                  "db.unattributed_share", "client.query_gmean_ms"),
    "query_ref": ("reasoning.reformulation.reformulate_ms",
                  "reasoning.reformulation.conjuncts_total",
                  "sparql.evaluator.eval_reformulation_ms",
                  "reasoning.encoding.view_build_s",
                  "db.unattributed_share"),
    "update_stream": ("reasoning.incremental.insert_ms",
                      "reasoning.incremental.delete_ms",
                      "reasoning.incremental.schema_insert_ms",
                      "reasoning.incremental.schema_delete_ms",
                      "storage.wal.append_ms", "storage.wal.records",
                      "sparql.update.parse_us", "db.update_ms",
                      "db.unattributed_share", "client.update_p50_ms",
                      "client.schema_update_p50_ms"),
    "serve_hot": ("server.cache.hit_rate", "server.service.query_ms",
                  "server.http.overhead_ms", "server.http.overhead_share",
                  "server.cache.get_us", "client.query_p99_ms",
                  "client.send_lag_ms"),
    "serve_churn": ("server.service.update_ms",
                    "server.http.overhead_share", "client.update_p50_ms"),
    "shard_churn": ("server.shardplan.plan_us",
                    "server.shardplan.fanout_mean",
                    "server.shardplan.merge_ms", "server.shard.scatter_ms",
                    "server.shard.worker_busy_s_max",
                    "server.shard.wire_ms"),
}

#: Identical across runs of one seed: counts taken over one pass.
COUNT_METRICS = ("reasoning.saturation.derived_triples",
                 "reasoning.reformulation.conjuncts_total",
                 "sparql.evaluator.rows_out", "sparql.results.json_bytes",
                 "storage.wal.records")


@pytest.fixture(scope="module")
def traced():
    """One traced quick run per workload, shared by the tests below."""
    return {name: run_workload(name, SEED, SECONDS, trace=True, quick=True)
            for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_are_the_declared_ones(name):
    result = run_workload(name, SEED, SECONDS, trace=False, quick=True)
    assert result.failed == 0 and result.correct
    assert result.attempted >= 1
    emitted = result.metrics("end_to_end")
    assert {k: v["unit"] for k, v in emitted.items()} == END_TO_END
    assert all(v["value"] > 0 for v in emitted.values()), emitted
    assert set(result.values) == set(END_TO_END)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_are_the_declared_ones(traced, name):
    result = traced[name]
    assert result.failed == 0 and result.correct
    emitted = result.metrics("per_layer")
    assert {k: v["unit"] for k, v in emitted.items()} == PER_LAYER
    undeclared = set(result.values) - set(PER_LAYER) - set(END_TO_END)
    assert not undeclared
    for metric in MUST_EXERCISE[name] + ("trace.overhead_share",):
        assert emitted[metric]["value"] != 0, metric


def test_every_declared_layer_metric_is_exercised_somewhere(traced):
    # no failures on these workloads, and a quick run sends fewer
    # distinct (text, version) pairs than the cache holds
    never = {"server.pool.rejected_503", "server.pool.timeouts_504",
             "server.cache.evictions"}
    for metric in set(PER_LAYER) - never:
        assert any(result.values.get(metric) for result in traced.values()), \
            f"{metric} reads 0 on every workload"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_operations(name, tmp_path):
    def operations(seed):
        workload = REGISTRY[name](Context(WORKLOADS[name], seed, True,
                                          str(tmp_path)))
        workload.prepare()
        if name == "load_saturate":
            workload.setup()
            return workload.text
        return workload.plan if hasattr(workload, "plan") else workload.ops

    assert operations(SEED) == operations(SEED)
    assert operations(SEED) != operations(SEED + 1)


@pytest.mark.parametrize("name", ["query_ref", "update_stream",
                                  "serve_churn"])
def test_same_seed_same_counts(traced, name):
    again = run_workload(name, SEED, SECONDS, trace=True, quick=True)
    for metric in COUNT_METRICS:
        assert again.values.get(metric) == traced[name].values.get(metric), \
            metric


def test_corrupted_expected_digest_fails_operations(tmp_path, monkeypatch):
    corrupted = tmp_path / "expected"
    shutil.copytree(oracle.EXPECTED_DIR, corrupted)
    path = corrupted / "S.json"
    document = json.loads(path.read_text())
    rows, size, digest = document["answers"]["Q5"]
    document["answers"]["Q5"] = [rows, size, "0" * len(digest)]
    path.write_text(json.dumps(document))
    monkeypatch.setattr(oracle, "EXPECTED_DIR", corrupted)
    result = run_workload("query_ref", SEED, SECONDS, trace=False,
                          quick=True)
    assert result.failed > 0 and not result.correct


def test_driver_form_prints_one_result_line():
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_ref",
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_ref",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={k: v for k, v in os.environ.items()
                        if k != "PYTHONPATH"})
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
