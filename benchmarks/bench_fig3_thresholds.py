"""FIG3 — the paper's headline figure: saturation thresholds.

Regenerates, on a generated university graph, the five threshold
series of Figure 3 for the Q1–Q10 workload: the saturation threshold
plus the thresholds for an instance insertion / deletion and a schema
insertion / deletion.

The paper's claims, checked here as assertions on the *shape*:

1. thresholds vary by orders of magnitude across queries on the same
   database (the paper observes up to 7 on server-scale data; the
   spread grows with graph size — at this CI scale we assert > 1.5);
2. for some queries saturation never amortizes (infinite threshold);
3. instance-update thresholds sit below schema-update thresholds
   (schema changes touch many derivations, so maintenance costs more).
"""

import math

import pytest

from repro.analysis import analyze_thresholds
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.workloads import WORKLOAD_QUERIES, workload_query

from conftest import save_report

QUERIES = [(qid, query) for qid, (__, query) in WORKLOAD_QUERIES.items()]


@pytest.fixture(scope="module")
def report(lubm_2dept):
    return analyze_thresholds(lubm_2dept, QUERIES, repeat=2, update_size=10)


@pytest.mark.parametrize("backend", ["hash", "columnar"])
def test_saturation_cost(benchmark, backend, request):
    """The fixed cost every threshold amortizes: full saturation."""
    suffix = "_columnar" if backend == "columnar" else ""
    graph = request.getfixturevalue(f"lubm_2dept{suffix}")
    result = benchmark(lambda: saturate(graph))
    assert result.inferred > 0


@pytest.mark.parametrize("backend", ["hash", "columnar"])
def test_saturated_evaluation_cost(benchmark, backend, request):
    """Per-run cost on the saturation side: q(G∞) for the widest query."""
    suffix = "_columnar" if backend == "columnar" else ""
    saturated = saturate(request.getfixturevalue(f"lubm_2dept{suffix}")).graph
    query = workload_query("Q1")
    rows = benchmark(lambda: evaluate(saturated, query))
    assert len(rows) > 0


def test_reformulated_answering_cost(benchmark, lubm_2dept):
    """Per-run cost on the reformulation side: rewrite + evaluate qref(G)."""
    schema = Schema.from_graph(lubm_2dept)
    query = workload_query("Q1")

    def answer():
        return evaluate_reformulation(lubm_2dept, reformulate(query, schema))

    rows = benchmark(answer)
    assert len(rows) > 0


def test_figure3_report(benchmark, report):
    """Emit Figure 3 (table + log-scale chart) and check its shape."""

    def build() -> str:
        return "\n\n".join([
            f"Figure 3 — saturation thresholds "
            f"({report.graph_size} -> {report.saturated_size} triples, "
            f"saturation {report.saturation_cost * 1000:.1f} ms)",
            report.to_table(),
            report.to_ascii_chart(),
            f"spread: {report.spread_orders_of_magnitude():.1f} orders of "
            f"magnitude",
        ])

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("fig3_thresholds", text)

    # claim 1: orders-of-magnitude spread on the same database
    assert report.spread_orders_of_magnitude() > 1.5

    # claim 2: saturation is not always the best solution
    saturation_thresholds = [t.saturation for t in report.thresholds]
    assert any(v == math.inf or v > 100 for v in saturation_thresholds)
    assert any(v <= 100 for v in saturation_thresholds)


def test_instance_thresholds_below_schema_thresholds(report):
    """Claim 3: maintaining after an instance update is cheaper than
    after a schema update, so its threshold is lower."""
    lower, total = 0, 0
    for entry in report.thresholds:
        ii = entry.by_update["instance-insert"]
        si = entry.by_update["schema-insert"]
        if math.isinf(ii) and math.isinf(si):
            continue
        total += 1
        if ii <= si:
            lower += 1
    assert total > 0 and lower == total


def test_every_query_has_all_five_series(report):
    for entry in report.thresholds:
        assert set(entry.by_update) == {"instance-insert", "instance-delete",
                                        "schema-insert", "schema-delete"}
        assert entry.saturation >= 1
