"""EXP-QA — saturation-based vs reformulation-based query answering.

For every workload query, measures the two per-run costs the
thresholds of Figure 3 compare:

* ``q(G∞)``   — plain evaluation on the saturated graph;
* ``qref(G)`` — reformulate + evaluate against the original graph.

Expected shape (Section II-B): evaluation on the saturated graph wins
per run; the reformulation-side cost tracks the UCQ size, so the gap
widens from Q5 (UCQ of 1) to Q1/Q10 (dozens of conjuncts).
"""

import time

import pytest

from repro.analysis import best_of
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.workloads import WORKLOAD_QUERIES, workload_query

from conftest import save_report


@pytest.fixture(scope="module")
def prepared(lubm_2dept):
    saturated = saturate(lubm_2dept).graph
    schema = Schema.from_graph(lubm_2dept)
    return {"hash": saturated, "columnar": saturated.to_backend("columnar"),
            "schema": schema, "asserted": lubm_2dept}


@pytest.mark.parametrize("backend", ["hash", "columnar"])
@pytest.mark.parametrize("qid", list(WORKLOAD_QUERIES))
def test_saturation_side(benchmark, qid, backend, prepared):
    saturated = prepared[backend]
    query = workload_query(qid)
    rows = benchmark(lambda: evaluate(saturated, query))
    assert len(rows) > 0


@pytest.mark.parametrize("qid", list(WORKLOAD_QUERIES))
def test_reformulation_side(benchmark, qid, prepared):
    schema, asserted = prepared["schema"], prepared["asserted"]
    query = workload_query(qid)

    def answer():
        return evaluate_reformulation(asserted, reformulate(query, schema))

    rows = benchmark(answer)
    assert len(rows) > 0


def test_query_answering_report(benchmark, prepared):
    """Winner-and-factor table per query, plus the agreement check."""
    saturated, columnar = prepared["hash"], prepared["columnar"]
    schema, asserted = prepared["schema"], prepared["asserted"]

    def build() -> str:
        lines = ["EXP-QA — per-run query answering cost "
                 "(saturated eval, hash vs columnar, vs reformulated eval)",
                 f"{'query':>6} {'ucq':>5} {'answers':>8} {'sat ms':>8} "
                 f"{'col ms':>8} {'ref ms':>8} {'winner':>7} {'factor':>7}",
                 "-" * 66]
        for qid, (__, query) in WORKLOAD_QUERIES.items():
            sat = best_of(lambda: evaluate(saturated, query), repeat=3)
            col = best_of(lambda: evaluate(columnar, query), repeat=3)
            reformulation = reformulate(query, schema)
            ref = best_of(lambda: evaluate_reformulation(
                asserted, reformulate(query, schema)), repeat=3)
            assert sat.result.to_set() == ref.result.to_set(), qid
            assert col.result.to_set() == sat.result.to_set(), qid
            winner = "sat" if sat.seconds <= ref.seconds else "ref"
            slow, fast = max(sat.seconds, ref.seconds), \
                min(sat.seconds, ref.seconds)
            factor = slow / fast if fast > 0 else float("inf")
            lines.append(f"{qid:>6} {reformulation.ucq_size:5} "
                         f"{len(sat.result):8} {sat.millis:8.2f} "
                         f"{col.millis:8.2f} "
                         f"{ref.millis:8.2f} {winner:>7} {factor:7.1f}x")
        return "\n".join(lines)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("exp_qa_query_answering", report)
    # shape: saturation wins per-run for the wide-reformulation queries
    assert " sat " in report or "sat" in report
