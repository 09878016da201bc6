"""Tests for the analytic cost-estimation model."""

import pytest

from repro.analysis import (Calibration, GraphStatistics, calibrate,
                            estimate_inferred_triples, estimate_query_cost,
                            estimate_saturation_seconds,
                            quick_recommendation)
from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import saturate
from repro.schema import Schema
from repro.workloads import workload_query

from conftest import EX


@pytest.fixture(scope="module")
def calibration():
    return calibrate(size=200, repeat=2)


class TestGraphStatistics:
    def test_counts(self, paper_graph):
        stats = GraphStatistics.from_graph(paper_graph)
        assert stats.total_triples == 5
        assert stats.schema_triples == 3
        assert stats.type_triples == 1
        assert stats.property_triples == 1

    def test_schema_shape(self, lubm_small):
        stats = GraphStatistics.from_graph(lubm_small)
        assert stats.class_depth >= 3
        assert stats.classes > 10
        assert stats.total_triples == len(lubm_small)

    def test_empty_graph(self):
        stats = GraphStatistics.from_graph(Graph())
        assert stats.total_triples == 0


class TestInferredEstimate:
    def test_zero_for_schemaless_graph(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        assert estimate_inferred_triples(g) == 0.0

    def test_exact_mode_is_derivation_count(self):
        """Full-sample mode: exact sum of per-triple derivation counts
        plus the schema closure."""
        g = Graph()
        g.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        g.add(Triple(EX.C2, RDFS.subClassOf, EX.C3))
        g.add(Triple(EX.x, RDF.type, EX.C1))
        # schema closure adds C1⊑C3; the typing derives C2 and C3
        assert estimate_inferred_triples(g, sample_size=10**6) == 1 + 2

    def test_upper_bounds_actual_inferred(self, lubm_small):
        """Derivation counts over-count duplicates, never under-count."""
        estimate = estimate_inferred_triples(lubm_small, sample_size=10**6)
        actual = saturate(lubm_small).inferred
        assert estimate >= actual

    def test_sampling_close_to_exact(self, lubm_small):
        exact = estimate_inferred_triples(lubm_small, sample_size=10**6)
        sampled = estimate_inferred_triples(lubm_small, sample_size=150,
                                            seed=3)
        assert 0.5 * exact <= sampled <= 1.5 * exact

    def test_deterministic_for_seed(self, lubm_small):
        assert estimate_inferred_triples(lubm_small, 100, seed=1) == \
            estimate_inferred_triples(lubm_small, 100, seed=1)


class TestCalibration:
    def test_positive_unit_costs(self, calibration):
        assert calibration.seconds_per_derivation > 0
        assert calibration.seconds_per_scan_row > 0

    def test_describe(self, calibration):
        assert "µs" in calibration.describe()

    def test_saturation_seconds_same_magnitude(self, calibration,
                                               lubm_small):
        """The estimate must land within an order of magnitude of the
        measured cost (it is a planning signal, not a stopwatch)."""
        estimated = estimate_saturation_seconds(lubm_small, calibration)
        actual = saturate(lubm_small).seconds
        assert actual / 10 <= estimated <= actual * 10


class TestQueryCostEstimate:
    def test_reformulated_cost_exceeds_plain(self, calibration, lubm_small):
        query = workload_query("Q1")  # 38-conjunct reformulation
        plain = estimate_query_cost(lubm_small, query, calibration)
        reformulated = estimate_query_cost(lubm_small, query, calibration,
                                           reformulated=True)
        assert reformulated > plain

    def test_leaf_query_costs_match(self, calibration, lubm_small):
        """UCQ of size 1: both estimates within a whisker."""
        query = workload_query("Q5")
        plain = estimate_query_cost(lubm_small, query, calibration)
        reformulated = estimate_query_cost(lubm_small, query, calibration,
                                           reformulated=True)
        assert reformulated <= plain * 2

    def test_accepts_prebuilt_schema(self, calibration, lubm_small):
        schema = Schema.from_graph(lubm_small)
        cost = estimate_query_cost(lubm_small, workload_query("Q4"),
                                   calibration, schema=schema)
        assert cost > 0


class TestQuickRecommendation:
    def test_query_heavy_picks_saturation(self, calibration, lubm_small):
        result = quick_recommendation(
            lubm_small, [(workload_query("Q1"), 500.0)],
            updates_per_period=0.0, calibration=calibration)
        assert result["recommended"] == "saturation"

    def test_update_heavy_picks_reformulation(self, calibration, lubm_small):
        result = quick_recommendation(
            lubm_small, [(workload_query("Q5"), 1.0)],
            updates_per_period=2000.0, calibration=calibration)
        assert result["recommended"] == "reformulation"

    def test_reports_evidence(self, calibration, lubm_small):
        result = quick_recommendation(
            lubm_small, [(workload_query("Q4"), 1.0)],
            calibration=calibration)
        assert result["estimated_inferred_triples"] > 0
        assert result["estimated_saturation_seconds"] > 0
        assert isinstance(result["calibration"], Calibration)

    def test_never_mutates_graph(self, calibration, lubm_small):
        size = len(lubm_small)
        quick_recommendation(lubm_small, [(workload_query("Q4"), 1.0)],
                             calibration=calibration)
        assert len(lubm_small) == size

    def test_agrees_with_measured_advisor_on_clear_cut_case(self,
                                                            calibration,
                                                            lubm_small):
        """On a blatantly query-heavy profile the estimate-only and the
        measured advisors must point the same way."""
        from repro.db import WorkloadProfile, recommend_strategy

        queries = ((workload_query("Q1"), 300.0),)
        estimated = quick_recommendation(lubm_small, list(queries),
                                         updates_per_period=0.0,
                                         calibration=calibration)
        measured = recommend_strategy(
            lubm_small, WorkloadProfile(queries=queries), repeat=1)
        assert estimated["recommended"] == measured.recommended.value
