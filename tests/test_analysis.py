"""Tests for the measurement utilities and the Figure 3 threshold model."""

import math

import pytest

from repro.analysis import (UPDATE_KINDS, analyze_thresholds, best_of,
                            compute_threshold, time_call)
from repro.workloads import LUBMConfig, generate_lubm, workload_query


class TestMeasure:
    def test_time_call_returns_result(self):
        timing = time_call(lambda: 42)
        assert timing.result == 42
        assert timing.seconds >= 0
        assert timing.millis == timing.seconds * 1000

    def test_best_of_takes_minimum(self):
        durations = iter([0.0, 0.0, 0.0])
        timing = best_of(lambda: next(durations, None), repeat=3)
        assert timing.seconds >= 0

    def test_best_of_requires_positive_repeat(self):
        with pytest.raises(ValueError):
            best_of(lambda: None, repeat=0)


class TestThresholdFormula:
    """n = ceil(fixed / (ref - sat)), the amortization inequality."""

    def test_basic(self):
        assert compute_threshold(10.0, 1.0, 2.0) == 10

    def test_rounds_up(self):
        assert compute_threshold(10.0, 1.0, 4.0) == 4  # 10/3 -> 4

    def test_infinite_when_reformulation_wins_per_run(self):
        assert compute_threshold(10.0, 2.0, 1.0) == math.inf
        assert compute_threshold(10.0, 2.0, 2.0) == math.inf

    def test_free_fixed_cost(self):
        assert compute_threshold(0.0, 1.0, 2.0) == 1.0

    def test_threshold_monotone_in_fixed_cost(self):
        small = compute_threshold(1.0, 1.0, 2.0)
        large = compute_threshold(100.0, 1.0, 2.0)
        assert small <= large

    def test_threshold_antitone_in_margin(self):
        narrow = compute_threshold(10.0, 1.0, 1.1)
        wide = compute_threshold(10.0, 1.0, 10.0)
        assert wide <= narrow


@pytest.fixture(scope="module")
def report():
    graph = generate_lubm(LUBMConfig(departments=1))
    queries = [(qid, workload_query(qid)) for qid in ("Q1", "Q4", "Q5")]
    return analyze_thresholds(graph, queries, repeat=1, update_size=5)


class TestAnalyzeThresholds:
    def test_report_structure(self, report):
        assert report.graph_size > 0
        assert report.saturated_size > report.graph_size
        assert report.saturation_cost > 0
        assert set(report.maintenance_costs) == set(UPDATE_KINDS)
        assert [c.query_id for c in report.query_costs] == ["Q1", "Q4", "Q5"]

    def test_every_query_has_five_series(self, report):
        for entry in report.thresholds:
            series = dict(entry.series())
            assert set(series) == {"saturation", *UPDATE_KINDS}

    def test_thresholds_positive_or_infinite(self, report):
        for entry in report.thresholds:
            for __, value in entry.series():
                assert value == math.inf or value >= 1

    def test_maintenance_cheaper_than_saturation(self, report):
        """The reason maintenance exists: a small batch costs less than
        re-saturating, so its threshold is lower than saturation's."""
        for kind in ("instance-insert",):
            assert report.maintenance_costs[kind] < report.saturation_cost

    def test_table_renders_all_queries(self, report):
        table = report.to_table()
        for qid in ("Q1", "Q4", "Q5"):
            assert qid in table
        assert "saturation" in table

    def test_ascii_chart_renders(self, report):
        chart = report.to_ascii_chart(height=6)
        assert "Q1" in chart
        assert "#" in chart or "^" in chart

    def test_spread_is_nonnegative(self, report):
        assert report.spread_orders_of_magnitude() >= 0

    def test_ucq_sizes_recorded(self, report):
        by_id = {c.query_id: c for c in report.query_costs}
        assert by_id["Q1"].ucq_size > by_id["Q5"].ucq_size == 1

    def test_counting_maintenance_variant(self):
        graph = generate_lubm(LUBMConfig(departments=1))
        queries = [("Q5", workload_query("Q5"))]
        report = analyze_thresholds(graph, queries, repeat=1, update_size=3,
                                    maintenance="counting")
        assert set(report.maintenance_costs) == set(UPDATE_KINDS)
