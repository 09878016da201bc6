"""Scale smoke tests: every route at the largest CI-friendly sizes.

Not micro-benchmarks (those live in benchmarks/) — these assert the
engines stay correct and tractable as the data grows: ~6k-triple
LUBM and ~4k-triple social graphs through saturation, maintenance,
reformulation and the threshold analysis.
"""

import pytest

from repro.analysis import analyze_thresholds
from repro.db import RDFDatabase, Strategy
from repro.reasoning import DRedReasoner, reformulate, saturate
from repro.schema import Schema
from repro.sparql import evaluate, evaluate_reformulation
from repro.workloads import (LUBMConfig, SocialConfig, WORKLOAD_QUERIES,
                             generate_lubm, generate_social,
                             instance_insertions, schema_deletions,
                             workload_query)


@pytest.fixture(scope="module")
def lubm_large():
    graph = generate_lubm(LUBMConfig(departments=8))
    assert len(graph) > 5000
    return graph


@pytest.fixture(scope="module")
def lubm_large_saturated(lubm_large):
    return saturate(lubm_large).graph


class TestLargeLUBM:
    def test_fast_engines_agree_at_scale(self, lubm_large):
        a = saturate(lubm_large, engine="schema-aware").graph
        b = saturate(lubm_large.to_backend("columnar"),
                     engine="seminaive-batch").graph
        assert a == b

    def test_all_queries_at_scale(self, lubm_large, lubm_large_saturated):
        schema = Schema.from_graph(lubm_large)
        closed = lubm_large.copy()
        closed.update(schema.closure_triples())
        for qid, (__, query) in WORKLOAD_QUERIES.items():
            expected = evaluate(lubm_large_saturated, query).to_set()
            got = evaluate_reformulation(
                closed, reformulate(query, schema)).to_set()
            assert got == expected, qid
            assert len(expected) > 0, qid

    def test_maintenance_at_scale(self, lubm_large):
        reasoner = DRedReasoner(lubm_large)
        inserts = instance_insertions(lubm_large, 25, seed=11)
        reasoner.insert(inserts.triples)
        deletes = schema_deletions(lubm_large, 3, seed=11)
        reasoner.delete(deletes.triples)
        expected = saturate(reasoner.explicit_graph()).graph
        assert reasoner.graph == expected

    def test_threshold_analysis_at_scale(self, lubm_large):
        report = analyze_thresholds(
            lubm_large, [("Q1", workload_query("Q1")),
                         ("Q5", workload_query("Q5"))],
            repeat=1, update_size=10)
        assert report.saturated_size > report.graph_size
        by_id = {t.query_id: t for t in report.thresholds}
        # the wide-reformulation query amortizes sooner than the leaf one
        assert by_id["Q1"].saturation <= by_id["Q5"].saturation

    def test_query_answer_counts_scale_linearly(self, lubm_large_saturated,
                                                lubm_medium):
        """8 departments vs 3: Person counts scale with the population."""
        from repro.reasoning import saturation_of
        q1 = workload_query("Q1")
        large = len(evaluate(lubm_large_saturated, q1))
        medium = len(evaluate(saturation_of(lubm_medium), q1))
        assert 2.0 < large / medium < 3.5  # ~8/3 expected


class TestLargeSocial:
    @pytest.fixture(scope="class")
    def social_large(self):
        return generate_social(SocialConfig(entities=1200, links=3000,
                                            attributes=1500))

    def test_saturation_and_strategies_agree(self, social_large):
        from repro.workloads import SOCIAL
        query = f"SELECT ?x WHERE {{ ?x a <{SOCIAL.Agent.value}> }}"
        a = RDFDatabase(social_large,
                        strategy=Strategy.SATURATION).query(query).to_set()
        b = RDFDatabase(social_large,
                        strategy=Strategy.REFORMULATION).query(query).to_set()
        assert a == b and len(a) > 100

    def test_blowup_dominated_by_type_expansion(self, social_large):
        result = saturate(social_large)
        # each entity gains ~2 implied types (root + Entity) plus link
        # typings: the blow-up stays moderate despite the wide schema
        assert 1.5 < result.blowup < 3.5
