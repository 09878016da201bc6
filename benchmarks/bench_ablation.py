"""ABL — ablations of the engine's own design choices.

* ABL-JOIN (a): selectivity-driven join ordering vs textual order, on
  the triangle query Q9 (where a bad order starts from the widest
  scan);
* ABL-JOIN (b): the three reformulated-query strategies — factorized
  (join of unions), explicit UCQ expansion (union of joins) and the
  LiteMat interval encoding — on both backends; the paper's open
  problem of "efficiently evaluating large reformulated queries";
* ABL-IDX: index coverage — 1 order (spo only, scan-and-filter
  fallbacks), 3 orders (default: every pattern shape indexed) and all
  6 hexastore orders, on a mixed pattern workload.
"""

import time

import pytest

from repro.analysis import best_of
from repro.rdf import Graph
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.sparql.evaluator import REFORMULATION_STRATEGIES
from repro.workloads import workload_query

from conftest import save_report


@pytest.fixture(scope="module")
def saturated(lubm_2dept):
    return saturate(lubm_2dept).graph


BACKENDS = ("hash", "columnar")


@pytest.fixture(scope="module")
def by_backend(lubm_2dept):
    """The 2-department graph on each backend, and its schema."""
    schema = Schema.from_graph(lubm_2dept)
    return ({"hash": lubm_2dept,
             "columnar": lubm_2dept.to_backend("columnar")}, schema)


@pytest.fixture(scope="module")
def hash_graph(by_backend):
    graphs, schema = by_backend
    return graphs["hash"], schema


# ----------------------------------------------------------------------
# ABL-JOIN (a): join ordering
# ----------------------------------------------------------------------

@pytest.mark.parametrize("optimize", [True, False],
                         ids=["ordered", "textual"])
def test_join_ordering(benchmark, optimize, saturated):
    query = workload_query("Q9")
    rows = benchmark(lambda: evaluate(saturated, query, optimize=optimize))
    assert len(rows) > 0


# ----------------------------------------------------------------------
# ABL-JOIN (b): the reformulated-query evaluation strategies
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", REFORMULATION_STRATEGIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_reformulation_evaluation_strategy(benchmark, backend, strategy,
                                           by_backend):
    graphs, schema = by_backend
    graph = graphs[backend]
    query = workload_query("Q1")
    reformulation = reformulate(query, schema)

    rows = benchmark(lambda: evaluate_reformulation(graph, reformulation,
                                                    strategy=strategy))
    assert len(rows) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_strategies_return_identical_answers(backend, by_backend):
    graphs, schema = by_backend
    graph = graphs[backend]
    for qid in ("Q1", "Q9", "Q10"):
        reformulation = reformulate(workload_query(qid), schema)
        answers = [evaluate_reformulation(graph, reformulation,
                                          strategy).to_set()
                   for strategy in REFORMULATION_STRATEGIES]
        assert all(got == answers[0] for got in answers), qid


# ----------------------------------------------------------------------
# ABL-JOIN (c): UCQ minimization via CQ containment
# ----------------------------------------------------------------------

def test_ucq_minimization_cost(benchmark, hash_graph):
    """What minimizing the union costs (quadratic containment checks)."""
    __, schema = hash_graph
    reformulation = reformulate(workload_query("Q1"), schema)
    minimized = benchmark(reformulation.to_minimized_ucq)
    assert len(minimized) <= reformulation.ucq_size


def test_minimized_union_evaluation(benchmark, hash_graph):
    """Evaluating the minimized union (to compare with the 'ucq' row)."""
    from repro.sparql import evaluate_ucq

    graph, schema = hash_graph
    minimized = reformulate(workload_query("Q1"), schema).to_minimized_ucq()
    rows = benchmark(lambda: evaluate_ucq(graph, minimized))
    assert len(rows) > 0


# ----------------------------------------------------------------------
# ABL-IDX: index coverage
# ----------------------------------------------------------------------

INDEX_LAYOUTS = {
    "spo-only": ("spo",),
    "three": ("spo", "pos", "osp"),
    "hexastore": ("spo", "sop", "pso", "pos", "osp", "ops"),
}


def pattern_mix(graph: Graph) -> int:
    """A fixed mix of the pattern shapes a BGP engine issues."""
    triples = sorted(graph)[: 50]
    total = 0
    for t in triples:
        total += sum(1 for __ in graph.triples(t.s, None, None))
        total += sum(1 for __ in graph.triples(None, t.p, t.o))
        total += sum(1 for __ in graph.triples(None, None, t.o))
    return total


@pytest.mark.parametrize("layout", list(INDEX_LAYOUTS))
def test_index_coverage(benchmark, layout, lubm_1dept):
    graph = Graph(lubm_1dept, index_orders=INDEX_LAYOUTS[layout])
    total = benchmark(lambda: pattern_mix(graph))
    assert total > 0


def test_ablation_report(benchmark, saturated, by_backend,
                         lubm_1dept):
    def build() -> str:
        lines = ["ABL — design-choice ablations", ""]

        query = workload_query("Q9")
        ordered = best_of(lambda: evaluate(saturated, query, optimize=True),
                          repeat=3)
        textual = best_of(lambda: evaluate(saturated, query, optimize=False),
                          repeat=3)
        lines.append(f"join ordering (Q9): ordered {ordered.millis:.2f} ms "
                     f"vs textual {textual.millis:.2f} ms "
                     f"({textual.seconds / max(ordered.seconds, 1e-9):.1f}x)")

        graphs, schema = by_backend
        reformulation = reformulate(workload_query("Q1"), schema)
        for backend in BACKENDS:
            timings = {strategy: best_of(lambda: evaluate_reformulation(
                graphs[backend], reformulation, strategy), repeat=3)
                for strategy in REFORMULATION_STRATEGIES}
            lines.append(
                f"UCQ evaluation (Q1, {reformulation.ucq_size} conjuncts, "
                f"{backend}): " + ", ".join(
                    f"{strategy} {timing.millis:.2f} ms"
                    for strategy, timing in timings.items()))

        lines.append("index coverage (mixed pattern scan):")
        for layout, orders in INDEX_LAYOUTS.items():
            indexed = Graph(lubm_1dept, index_orders=orders)
            timing = best_of(lambda: pattern_mix(indexed), repeat=3)
            lines.append(f"  {layout:>10} ({len(orders)} orders): "
                         f"{timing.millis:8.2f} ms")
        return "\n".join(lines)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("abl_ablations", report)
