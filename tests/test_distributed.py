"""Tests for subject-hash partitioning, the sharded tier's placement
contract (:mod:`repro.distributed.partition`)."""

import pytest

from repro.distributed import (has_instance_instance_join, partition_graph,
                               partition_of)
from repro.rdf import Graph, Triple
from repro.reasoning import RDFS_PLUS, RHO_DF
from repro.schema import is_schema_triple

from conftest import EX


class TestPartitioning:
    def test_partition_of_is_deterministic(self):
        t = Triple(EX.a, EX.p, EX.b)
        assert partition_of(t, 4) == partition_of(t, 4)

    def test_partition_of_in_range(self):
        for i in range(50):
            t = Triple(EX.term(f"s{i}"), EX.p, EX.o)
            assert 0 <= partition_of(t, 7) < 7

    def test_same_subject_same_worker(self):
        t1 = Triple(EX.a, EX.p, EX.b)
        t2 = Triple(EX.a, EX.q, EX.c)
        assert partition_of(t1, 5) == partition_of(t2, 5)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            partition_of(Triple(EX.a, EX.p, EX.b), 0)
        with pytest.raises(ValueError):
            partition_graph(Graph(), 0)

    def test_schema_replicated_everywhere(self, lubm_small):
        partitioned = partition_graph(lubm_small, 4)
        for fragment in partitioned.fragments:
            for schema_triple in partitioned.schema_triples:
                assert schema_triple in fragment

    def test_instance_triples_partitioned_once(self, lubm_small):
        partitioned = partition_graph(lubm_small, 4)
        instance_count = sum(1 for t in lubm_small if not is_schema_triple(t))
        assert partitioned.total_instance_triples() == instance_count

    def test_merged_reconstructs_graph(self, lubm_small):
        assert partition_graph(lubm_small, 4).merged() == lubm_small

    def test_skew_reasonable_on_lubm(self, lubm_small):
        partitioned = partition_graph(lubm_small, 4)
        assert 1.0 <= partitioned.skew() < 2.0

    def test_single_worker_gets_everything(self, lubm_small):
        partitioned = partition_graph(lubm_small, 1)
        assert partitioned.fragments[0] == lubm_small


class TestRuleLocality:
    def test_rhodf_is_local(self):
        for rule in RHO_DF:
            assert not has_instance_instance_join(rule), rule.name

    def test_owl_trans_is_not_local(self):
        assert has_instance_instance_join(RDFS_PLUS["owl-trans"])
