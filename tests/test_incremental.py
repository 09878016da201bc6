"""Tests for incremental saturation maintenance (DRed and counting).

The central invariant — after ANY sequence of instance/schema
insertions and deletions, the maintained graph equals a from-scratch
saturation of the explicit triples — is checked on hand-written cases
and randomized update streams.
"""

import random

import pytest

from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import (CountingReasoner, CyclicSchemaError,
                             DRedReasoner, saturate)
from repro.reasoning.incremental import one_step_derivations
from repro.reasoning.rulesets import RDFS_DEFAULT

from conftest import EX, random_rdfs_graph

REASONERS = [DRedReasoner, CountingReasoner]


def make_base() -> Graph:
    g = Graph()
    g.add(Triple(EX.Woman, RDFS.subClassOf, EX.Person))
    g.add(Triple(EX.Person, RDFS.subClassOf, EX.Agent))
    g.add(Triple(EX.hasFriend, RDFS.domain, EX.Person))
    g.add(Triple(EX.hasFriend, RDFS.range, EX.Person))
    g.add(Triple(EX.bestFriend, RDFS.subPropertyOf, EX.hasFriend))
    g.add(Triple(EX.Anne, RDF.type, EX.Woman))
    g.add(Triple(EX.Anne, EX.hasFriend, EX.Marie))
    g.add(Triple(EX.Bob, EX.bestFriend, EX.Tom))
    return g


def check(reasoner) -> None:
    expected = saturate(reasoner.explicit_graph(), reasoner.ruleset).graph
    assert reasoner.graph == expected, (
        "maintained graph diverged from from-scratch saturation: "
        f"missing={sorted(set(expected) - set(reasoner.graph))[:3]} "
        f"extra={sorted(set(reasoner.graph) - set(expected))[:3]}")


@pytest.mark.parametrize("reasoner_cls", REASONERS)
class TestCommon:
    def test_initial_state_is_saturated(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        check(reasoner)
        assert Triple(EX.Anne, RDF.type, EX.Person) in reasoner

    def test_explicit_graph_returns_assertions_only(self, reasoner_cls):
        base = make_base()
        reasoner = reasoner_cls(base)
        assert reasoner.explicit_graph() == base

    def test_instance_insert(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        result = reasoner.insert([Triple(EX.Carl, EX.bestFriend, EX.Dan)])
        check(reasoner)
        assert result.implicit_added >= 3  # hasFriend + 2x types at least
        assert Triple(EX.Carl, RDF.type, EX.Person) in reasoner

    def test_insert_existing_is_noop_on_graph(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        size = len(reasoner)
        result = reasoner.insert([Triple(EX.Anne, RDF.type, EX.Woman)])
        assert len(reasoner) == size
        assert result.explicit_changed == 0

    def test_insert_already_derived_triple(self, reasoner_cls):
        """Explicitly asserting an inferred triple must be remembered:
        deleting the *source* later must keep the assertion."""
        reasoner = reasoner_cls(make_base())
        derived = Triple(EX.Anne, RDF.type, EX.Person)
        assert derived in reasoner
        reasoner.insert([derived])
        reasoner.delete([Triple(EX.Anne, RDF.type, EX.Woman)])
        check(reasoner)
        assert derived in reasoner

    def test_schema_insert(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        reasoner.insert([Triple(EX.Agent, RDFS.subClassOf, EX.Thing)])
        check(reasoner)
        assert Triple(EX.Anne, RDF.type, EX.Thing) in reasoner

    def test_instance_delete(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        reasoner.delete([Triple(EX.Anne, EX.hasFriend, EX.Marie)])
        check(reasoner)
        assert Triple(EX.Marie, RDF.type, EX.Person) not in reasoner
        # Anne is still a Person through her explicit Woman typing
        assert Triple(EX.Anne, RDF.type, EX.Person) in reasoner

    def test_schema_delete(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        reasoner.delete([Triple(EX.Person, RDFS.subClassOf, EX.Agent)])
        check(reasoner)
        assert Triple(EX.Anne, RDF.type, EX.Agent) not in reasoner

    def test_delete_derived_but_not_explicit_is_noop(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        derived = Triple(EX.Anne, RDF.type, EX.Person)
        result = reasoner.delete([derived])
        assert result.explicit_changed == 0
        check(reasoner)
        assert derived in reasoner  # still entailed

    def test_delete_triple_with_alternative_support(self, reasoner_cls):
        """Marie is a Person both via range(hasFriend) and explicitly;
        deleting one support must keep the triple."""
        reasoner = reasoner_cls(make_base())
        explicit_typing = Triple(EX.Marie, RDF.type, EX.Person)
        reasoner.insert([explicit_typing])
        reasoner.delete([explicit_typing])
        check(reasoner)
        assert explicit_typing in reasoner  # still derived via rdfs3

    def test_mixed_batch(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        reasoner.insert([
            Triple(EX.Dan, RDF.type, EX.Woman),
            Triple(EX.Woman, RDFS.subClassOf, EX.Human),
        ])
        check(reasoner)
        reasoner.delete([
            Triple(EX.Dan, RDF.type, EX.Woman),
            Triple(EX.Woman, RDFS.subClassOf, EX.Human),
        ])
        check(reasoner)

    def test_insert_then_delete_roundtrips(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        before = set(reasoner.graph)
        batch = [Triple(EX.New1, EX.bestFriend, EX.New2),
                 Triple(EX.New3, RDF.type, EX.Woman)]
        reasoner.insert(batch)
        reasoner.delete(batch)
        assert set(reasoner.graph) == before

    def test_maintenance_result_summary(self, reasoner_cls):
        reasoner = reasoner_cls(make_base())
        result = reasoner.insert([Triple(EX.Zoe, RDF.type, EX.Woman)])
        assert "insert" in result.summary()
        assert result.seconds >= 0

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_update_streams(self, reasoner_cls, seed):
        """The headline invariant on random graphs and update streams
        (acyclic schemas so both algorithms apply)."""
        graph = random_rdfs_graph(seed, size=25, allow_cycles=False)
        reasoner = reasoner_cls(graph)
        rng = random.Random(seed)
        for step in range(8):
            if rng.random() < 0.55:
                extra = random_rdfs_graph(seed * 100 + step, size=3,
                                          allow_cycles=False)
                reasoner.insert(list(extra))
            else:
                pool = sorted(reasoner.explicit)
                if pool:
                    reasoner.delete(rng.sample(pool, min(3, len(pool))))
            check(reasoner)


class TestDRedSpecific:
    def test_dred_handles_cyclic_schema_delete(self):
        g = make_base()
        g.add(Triple(EX.Agent, RDFS.subClassOf, EX.Person))  # cycle!
        reasoner = DRedReasoner(g)
        reasoner.delete([Triple(EX.Anne, RDF.type, EX.Woman)])
        check(reasoner)

    def test_dred_cyclic_mutual_support_deleted(self):
        """The case that breaks naive counting: a subclass cycle makes
        s:C1 and s:C2 mutually derivable; deleting the only explicit
        typing must remove both."""
        g = Graph()
        g.add(Triple(EX.C1, RDFS.subClassOf, EX.C2))
        g.add(Triple(EX.C2, RDFS.subClassOf, EX.C1))
        g.add(Triple(EX.s, RDF.type, EX.C1))
        reasoner = DRedReasoner(g)
        assert Triple(EX.s, RDF.type, EX.C2) in reasoner
        reasoner.delete([Triple(EX.s, RDF.type, EX.C1)])
        check(reasoner)
        assert Triple(EX.s, RDF.type, EX.C1) not in reasoner
        assert Triple(EX.s, RDF.type, EX.C2) not in reasoner

    def test_overdelete_rederive_counters(self):
        reasoner = DRedReasoner(make_base())
        result = reasoner.delete([Triple(EX.Person, RDFS.subClassOf, EX.Agent)])
        assert result.overdeleted >= 1
        assert result.algorithm == "dred"

    def test_one_step_derivations_backward(self, paper_graph):
        saturated = saturate(paper_graph).graph
        target = Triple(EX.Anne, RDF.type, EX.Person)
        derivations = list(one_step_derivations(saturated, target,
                                                RDFS_DEFAULT))
        assert derivations
        assert all(d.conclusion == target for d in derivations)
        for derivation in derivations:
            for premise in derivation.premises:
                assert premise in saturated


class TestCountingSpecific:
    def test_justification_counts(self):
        reasoner = CountingReasoner(make_base())
        anne_person = Triple(EX.Anne, RDF.type, EX.Person)
        # derived via rdfs9 (Woman ⊑ Person) AND rdfs2 (domain hasFriend)
        assert reasoner.justification_count(anne_person) == 2

    def test_explicit_triples_have_no_justifications_initially(self):
        reasoner = CountingReasoner(make_base())
        assert reasoner.justification_count(
            Triple(EX.Anne, RDF.type, EX.Woman)) == 0

    def test_counting_refuses_cyclic_schema_deletes(self):
        g = make_base()
        g.add(Triple(EX.Agent, RDFS.subClassOf, EX.Person))
        reasoner = CountingReasoner(g)
        with pytest.raises(CyclicSchemaError):
            reasoner.delete([Triple(EX.Anne, RDF.type, EX.Woman)])

    def test_counting_allows_inserts_on_cyclic_schema(self):
        g = make_base()
        g.add(Triple(EX.Agent, RDFS.subClassOf, EX.Person))
        reasoner = CountingReasoner(g)
        reasoner.insert([Triple(EX.Eve, RDF.type, EX.Woman)])
        check(reasoner)

    def test_partial_support_removal_keeps_triple(self):
        reasoner = CountingReasoner(make_base())
        anne_person = Triple(EX.Anne, RDF.type, EX.Person)
        reasoner.delete([Triple(EX.Anne, EX.hasFriend, EX.Marie)])
        assert reasoner.justification_count(anne_person) == 1
        assert anne_person in reasoner
        reasoner.delete([Triple(EX.Anne, RDF.type, EX.Woman)])
        assert anne_person not in reasoner


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_dred_and_counting_agree(self, seed):
        graph = random_rdfs_graph(seed + 50, size=25, allow_cycles=False)
        dred = DRedReasoner(graph)
        counting = CountingReasoner(graph)
        rng = random.Random(seed)
        for step in range(6):
            if rng.random() < 0.5:
                extra = list(random_rdfs_graph(seed * 7 + step, size=3,
                                               allow_cycles=False))
                dred.insert(extra)
                counting.insert(extra)
            else:
                pool = sorted(dred.explicit)
                batch = rng.sample(pool, min(2, len(pool)))
                dred.delete(batch)
                counting.delete(batch)
            assert dred.graph == counting.graph
