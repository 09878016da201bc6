"""Differential suite: the columnar backend against the hash backend.

The columnar layer re-implements every read path (eight-shape pattern
matching, BGP evaluation through sorted-intersection joins, set-at-a-time
semi-naive saturation), so the contract is *exact* agreement with the
hash backend — same triples, same answer sets, same fixpoints with the
same round and per-rule counts.  Seeded random graphs and hypothesis
drive both sides through the full input space; any divergence is a bug
in the columnar layer by construction.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import DRedReasoner, saturate
from repro.reasoning.rulesets import RDFS_FULL, RDFS_PLUS, RHO_DF
from repro.sparql import evaluate
from repro.sparql.evaluator import evaluate_bgp_bindings
from repro.sparql.joins import compile_bgp
from repro.workloads import (LUBMConfig, RandomGraphConfig, WORKLOAD_QUERIES,
                             generate_lubm, random_graph, random_query)

from conftest import EX, random_rdfs_graph

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

RULESETS = pytest.mark.parametrize(
    "ruleset", [RHO_DF, RDFS_FULL, RDFS_PLUS], ids=lambda r: r.name)


def both_backends(seed: int, **kwargs):
    hashed = random_rdfs_graph(seed, **kwargs)
    return hashed, hashed.to_backend("columnar")


def answer_multiset(results):
    return sorted(results)


# ----------------------------------------------------------------------
# pattern matching
# ----------------------------------------------------------------------

class TestPatternParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_eight_shapes(self, seed):
        """Every bound/wildcard combination agrees triple-for-triple."""
        hashed, columnar = both_backends(seed, size=60)
        probes = list(hashed)[:: max(1, len(hashed) // 5)]
        for probe in probes:
            for mask in range(8):
                shape = (probe.s if mask & 4 else None,
                         probe.p if mask & 2 else None,
                         probe.o if mask & 1 else None)
                expected = sorted(hashed.triples(*shape))
                assert sorted(columnar.triples(*shape)) == expected
                assert columnar.count(*shape) == hashed.count(*shape)

    @pytest.mark.parametrize("seed", range(4))
    def test_unknown_constants_and_misses(self, seed):
        hashed, columnar = both_backends(seed)
        for shape in [(EX.nowhere, None, None), (None, EX.nowhere, None),
                      (None, None, EX.nowhere), (EX.i0, EX.nowhere, EX.C0)]:
            assert list(columnar.triples(*shape)) == list(hashed.triples(*shape))
            assert columnar.count(*shape) == hashed.count(*shape) == 0

    @given(ops=st.lists(
        st.tuples(st.booleans(),
                  st.sampled_from([EX.term(f"i{i}") for i in range(6)]),
                  st.sampled_from([EX.term(f"p{i}") for i in range(3)]),
                  st.sampled_from([EX.term(f"i{i}") for i in range(6)])),
        max_size=60))
    @settings(**SETTINGS)
    def test_mutation_sequences(self, ops):
        """Interleaved adds/removes leave both backends identical —
        exercises the delta-log/tombstone machinery at every size."""
        hashed = Graph()
        columnar = Graph(backend="columnar")
        for is_add, s, p, o in ops:
            triple = Triple(s, p, o)
            if is_add:
                assert columnar.add(triple) == hashed.add(triple)
            else:
                assert columnar.remove(triple) == hashed.remove(triple)
        assert columnar == hashed
        assert sorted(columnar) == sorted(hashed)
        assert columnar.count() == hashed.count()


# ----------------------------------------------------------------------
# BGP evaluation
# ----------------------------------------------------------------------

class TestQueryParity:
    @given(graph_seed=st.integers(0, 10_000),
           query_seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_random_queries(self, graph_seed, query_seed):
        config = RandomGraphConfig(instance_triples=50, allow_cycles=True)
        hashed = random_graph(config, seed=graph_seed)
        columnar = hashed.to_backend("columnar")
        query = random_query(config, query_seed, max_atoms=3)
        expected = answer_multiset(evaluate(hashed, query))
        assert answer_multiset(evaluate(columnar, query)) == expected

    @given(graph_seed=st.integers(0, 10_000),
           query_seed=st.integers(0, 10_000))
    @settings(**SETTINGS)
    def test_binding_streams(self, graph_seed, query_seed):
        """The undecorated binding stream agrees too (the reformulation
        and factorized layers consume this entry point)."""
        config = RandomGraphConfig(instance_triples=50, allow_cycles=True)
        hashed = random_graph(config, seed=graph_seed)
        columnar = hashed.to_backend("columnar")
        patterns = random_query(config, query_seed, max_atoms=3).patterns

        def key(binding):
            return sorted((v.name, t) for v, t in binding.items())

        expected = sorted(map(key, evaluate_bgp_bindings(hashed, patterns)))
        got = sorted(map(key, evaluate_bgp_bindings(columnar, patterns)))
        assert got == expected

    def test_workload_queries_on_saturated_lubm(self):
        base = generate_lubm(LUBMConfig(departments=1))
        hashed = saturate(base, RDFS_FULL).graph
        columnar = hashed.to_backend("columnar")
        for qid, (__, query) in WORKLOAD_QUERIES.items():
            expected = answer_multiset(evaluate(hashed, query))
            got = answer_multiset(evaluate(columnar, query))
            assert got == expected, f"{qid} diverged"

    def test_intersection_plans_agree_with_scans(self):
        """Queries that compile to sorted intersections return the
        same answers as the scan-only plan on the same graph."""
        base = generate_lubm(LUBMConfig(departments=1))
        columnar = saturate(base, RDFS_FULL).graph.to_backend("columnar")
        intersecting = 0
        for __, (___, query) in WORKLOAD_QUERIES.items():
            plan = compile_bgp(columnar, query.patterns)
            if plan.intersect_steps():
                intersecting += 1
            expected = answer_multiset(
                evaluate(columnar.to_backend("hash"), query))
            assert answer_multiset(evaluate(columnar, query)) == expected
        assert intersecting >= 1  # the workload must exercise intersections


# ----------------------------------------------------------------------
# saturation
# ----------------------------------------------------------------------

class TestSaturationParity:
    @RULESETS
    @pytest.mark.parametrize("seed", range(4))
    def test_fixpoints_triple_for_triple(self, ruleset, seed):
        graph = random_rdfs_graph(seed * 17 + 1, size=40)
        reference = saturate(graph, ruleset, engine="seminaive")
        batch = saturate(graph.to_backend("columnar"), ruleset,
                         engine="seminaive-batch")
        assert batch.engine == "seminaive-batch"
        assert sorted(batch.graph) == sorted(reference.graph)
        assert batch.rounds == reference.rounds
        assert batch.inferred == reference.inferred
        assert batch.rule_counts == reference.rule_counts

    @RULESETS
    def test_fixpoint_on_lubm(self, lubm_small, ruleset):
        reference = saturate(lubm_small, ruleset, engine="seminaive")
        batch = saturate(lubm_small.to_backend("columnar"), ruleset,
                         engine="seminaive-batch")
        assert sorted(batch.graph) == sorted(reference.graph)
        assert batch.rule_counts == reference.rule_counts

    def test_auto_selects_batch_engine_on_columnar(self):
        graph = random_rdfs_graph(3, size=30).to_backend("columnar")
        assert saturate(graph, RDFS_FULL).engine == "seminaive-batch"
        # rho-df without a meta-schema still prefers the schema-aware
        # fast path regardless of backend
        assert saturate(graph, RHO_DF).engine == "schema-aware"

    def test_batch_engine_idempotent(self):
        graph = random_rdfs_graph(5, size=40).to_backend("columnar")
        once = saturate(graph, RDFS_FULL, engine="seminaive-batch")
        again = saturate(once.graph, RDFS_FULL, engine="seminaive-batch")
        assert again.inferred == 0
        assert sorted(again.graph) == sorted(once.graph)

    def test_max_rounds_cap_matches_reference(self):
        graph = random_rdfs_graph(7, size=40)
        for cap in (1, 2):
            reference = saturate(graph, RDFS_FULL, engine="seminaive",
                                 max_rounds=cap)
            batch = saturate(graph.to_backend("columnar"), RDFS_FULL,
                             engine="seminaive-batch", max_rounds=cap)
            assert sorted(batch.graph) == sorted(reference.graph)
            assert batch.rounds == reference.rounds == cap


# ----------------------------------------------------------------------
# incremental maintenance on the columnar backend
# ----------------------------------------------------------------------

class TestIncrementalOnColumnar:
    @pytest.mark.parametrize("seed", range(3))
    def test_dred_matches_from_scratch(self, seed):
        graph = random_rdfs_graph(seed + 50, size=35).to_backend("columnar")
        reasoner = DRedReasoner(graph, RDFS_FULL)
        assert reasoner.graph.backend == "columnar"
        reasoner.insert([Triple(EX.i0, RDF.type, EX.C1),
                         Triple(EX.i1, EX.p0, EX.i2)])
        reasoner.delete([Triple(EX.i0, RDF.type, EX.C1)])
        expected = saturate(reasoner.explicit_graph(), RDFS_FULL).graph
        assert sorted(reasoner.graph) == sorted(expected)

    def test_dred_schema_deletion(self):
        graph = Graph(backend="columnar")
        graph.add(Triple(EX.Cat, RDFS.subClassOf, EX.Mammal))
        graph.add(Triple(EX.Tom, RDF.type, EX.Cat))
        reasoner = DRedReasoner(graph, RDFS_FULL)
        assert Triple(EX.Tom, RDF.type, EX.Mammal) in reasoner.graph
        reasoner.delete([Triple(EX.Cat, RDFS.subClassOf, EX.Mammal)])
        assert Triple(EX.Tom, RDF.type, EX.Mammal) not in reasoner.graph
        expected = saturate(reasoner.explicit_graph(), RDFS_FULL).graph
        assert sorted(reasoner.graph) == sorted(expected)
