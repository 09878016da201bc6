"""Tests for the adaptive strategy-switching database."""

import pytest

from repro.analysis import calibrate
from repro.db import AdaptiveDatabase, Strategy
from repro.rdf import Triple
from repro.rdf.namespaces import RDF
from repro.workloads import instance_insertions, workload_query
from repro.workloads.lubm import UNIV


@pytest.fixture(scope="module")
def calibration():
    return calibrate(size=150, repeat=1)


@pytest.fixture
def adaptive(lubm_small, calibration):
    return AdaptiveDatabase(lubm_small, strategy=Strategy.REFORMULATION,
                            review_interval=20, patience=2,
                            calibration=calibration)


class TestConstruction:
    def test_rejects_non_arbitrated_strategies(self):
        with pytest.raises(ValueError):
            AdaptiveDatabase(strategy=Strategy.NONE)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            AdaptiveDatabase(review_interval=0)

    def test_starts_on_requested_strategy(self, adaptive):
        assert adaptive.strategy == Strategy.REFORMULATION


class TestForwarding:
    def test_query_answers_match_plain_database(self, adaptive, lubm_small):
        from repro.db import RDFDatabase

        q4 = workload_query("Q4")
        plain = RDFDatabase(lubm_small, strategy=Strategy.REFORMULATION)
        assert adaptive.query(q4).to_set() == plain.query(q4).to_set()

    def test_updates_flow_through(self, adaptive):
        triple = Triple(UNIV.term("NewProf"), RDF.type, UNIV.FullProfessor)
        assert adaptive.insert([triple]) == 1
        assert adaptive.delete([triple]) == 1

    def test_sparql_text_accepted(self, adaptive):
        rows = adaptive.query(
            "PREFIX univ: <http://repro.example.org/univ#> "
            "SELECT ?x WHERE { ?x a univ:Chair }")
        assert len(rows) >= 1

    def test_stats_include_adaptive_counters(self, adaptive):
        adaptive.query(workload_query("Q5"))
        stats = adaptive.stats()
        assert stats["adaptive_operations"] == 1
        assert stats["adaptive_switches"] == 0


class TestSwitching:
    def test_query_heavy_switches_to_saturation(self, adaptive):
        q1 = workload_query("Q1")
        for __ in range(90):
            adaptive.query(q1)
        assert adaptive.strategy == Strategy.SATURATION
        assert len(adaptive.switches) == 1
        switch = adaptive.switches[0]
        assert switch.from_strategy == Strategy.REFORMULATION
        assert switch.to_strategy == Strategy.SATURATION
        assert "review" in switch.reason

    def test_update_heavy_switches_back(self, adaptive, lubm_small):
        q1 = workload_query("Q1")
        for __ in range(90):
            adaptive.query(q1)
        assert adaptive.strategy == Strategy.SATURATION
        batch = instance_insertions(lubm_small, 5, seed=2).triples
        for __ in range(120):
            adaptive.insert(list(batch))
            adaptive.delete(list(batch))
        assert adaptive.strategy == Strategy.REFORMULATION
        assert len(adaptive.switches) == 2

    def test_patience_prevents_flapping(self, lubm_small, calibration):
        db = AdaptiveDatabase(lubm_small, strategy=Strategy.REFORMULATION,
                              review_interval=10, patience=3,
                              calibration=calibration)
        q1 = workload_query("Q1")
        # one window of query pressure: one review, patience not reached
        for __ in range(10):
            db.query(q1)
        assert db.strategy == Strategy.REFORMULATION
        assert not db.switches

    def test_answers_stay_correct_across_a_switch(self, adaptive,
                                                  lubm_small):
        from repro.db import RDFDatabase

        q1 = workload_query("Q1")
        expected = RDFDatabase(lubm_small,
                               strategy=Strategy.SATURATION).query(q1).to_set()
        answers = [adaptive.query(q1).to_set() for __ in range(90)]
        assert adaptive.strategy == Strategy.SATURATION  # switched mid-run
        assert all(a == expected for a in answers)

    def test_quiet_windows_do_not_switch(self, adaptive):
        triple = Triple(UNIV.term("X"), RDF.type, UNIV.FullProfessor)
        adaptive.insert([triple])  # a lone update batch
        for __ in range(40):
            adaptive.query(workload_query("Q5"))
        # Q5 is cheap both ways; no strong pressure either direction is
        # fine — the invariant is merely: decisions never corrupt answers
        assert adaptive.query(workload_query("Q5"))
