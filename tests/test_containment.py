"""Tests for CQ containment and UCQ minimization."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rdf import TriplePattern as TP
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Variable as V
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import (BGPQuery, evaluate, evaluate_ucq,
                          find_homomorphism, is_contained_in, minimize_ucq)
from repro.workloads import (RandomGraphConfig, random_graph, random_query,
                             workload_query)

from conftest import EX

X, Y, Z = V("x"), V("y"), V("z")


class TestHomomorphism:
    def test_identity(self):
        q = BGPQuery([TP(X, EX.p, Y)])
        assert find_homomorphism(q, q) == {}

    def test_existential_to_constant(self):
        # q1: ?x p ?y   (y existential)    q2: ?x p a
        q1 = BGPQuery([TP(X, EX.p, Y)], [X])
        q2 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        mapping = find_homomorphism(q1, q2)
        assert mapping == {Y: EX.a}

    def test_constant_cannot_map_to_other_constant(self):
        q1 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        q2 = BGPQuery([TP(X, EX.p, EX.b)], [X])
        assert find_homomorphism(q1, q2) is None

    def test_distinguished_variables_frozen(self):
        q1 = BGPQuery([TP(X, EX.p, Y)], [X, Y])
        q2 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        # different heads: no comparison possible
        assert find_homomorphism(q1, q2) is None

    def test_collapsing_two_atoms_onto_one(self):
        # q1 has a redundant self-join; q2 is its core
        q1 = BGPQuery([TP(X, EX.p, Y), TP(X, EX.p, Z)], [X])
        q2 = BGPQuery([TP(X, EX.p, Y)], [X])
        assert find_homomorphism(q1, q2) is not None

    def test_path_does_not_map_into_single_edge(self):
        # q1: x p y, y p z (a path of length 2, head x)
        q1 = BGPQuery([TP(X, EX.p, Y), TP(Y, EX.p, Z)], [X])
        # q2: x p a — no 2-path image unless a p something exists
        q2 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        assert find_homomorphism(q1, q2) is None

    def test_variable_predicate_maps(self):
        p_var = V("p")
        q1 = BGPQuery([TP(X, p_var, Y)], [X])
        q2 = BGPQuery([TP(X, EX.p, EX.a)], [X])
        assert find_homomorphism(q1, q2) is not None


class TestContainment:
    def test_specialization_contained_in_generalization(self):
        general = BGPQuery([TP(X, EX.p, Y)], [X])
        special = BGPQuery([TP(X, EX.p, EX.a)], [X])
        assert is_contained_in(special, general)
        assert not is_contained_in(general, special)

    def test_extra_atom_is_more_constrained(self):
        loose = BGPQuery([TP(X, RDF.type, EX.C)], [X])
        tight = BGPQuery([TP(X, RDF.type, EX.C), TP(X, EX.p, Y)], [X])
        assert is_contained_in(tight, loose)
        assert not is_contained_in(loose, tight)

    def test_equivalent_queries_mutually_contained(self):
        q1 = BGPQuery([TP(X, EX.p, Y), TP(X, EX.p, Z)], [X])
        q2 = BGPQuery([TP(X, EX.p, Y)], [X])
        assert is_contained_in(q1, q2) and is_contained_in(q2, q1)

    def test_different_presets_incomparable(self):
        q1 = BGPQuery([TP(X, EX.p, Y)], [X, Z], preset={Z: EX.a})
        q2 = BGPQuery([TP(X, EX.p, Y)], [X, Z], preset={Z: EX.b})
        assert not is_contained_in(q1, q2)

    def test_containment_is_sound_on_data(self):
        """If sub ⊆ sup syntactically, then on any concrete graph the
        answers are contained."""
        from repro.rdf import Graph, Triple
        sub = BGPQuery([TP(X, EX.p, EX.a), TP(X, RDF.type, EX.C)], [X])
        sup = BGPQuery([TP(X, EX.p, Y)], [X])
        assert is_contained_in(sub, sup)
        g = Graph()
        g.add(Triple(EX.i1, EX.p, EX.a))
        g.add(Triple(EX.i1, RDF.type, EX.C))
        g.add(Triple(EX.i2, EX.p, EX.b))
        assert evaluate(g, sub).to_set() <= evaluate(g, sup).to_set()


class TestMinimizeUCQ:
    def test_drops_contained_conjunct(self):
        general = BGPQuery([TP(X, EX.p, Y)], [X])
        special = BGPQuery([TP(X, EX.p, EX.a)], [X])
        assert minimize_ucq([general, special]) == [general]
        assert minimize_ucq([special, general]) == [general]

    def test_keeps_incomparable_conjuncts(self):
        q1 = BGPQuery([TP(X, RDF.type, EX.C1)], [X])
        q2 = BGPQuery([TP(X, RDF.type, EX.C2)], [X])
        assert minimize_ucq([q1, q2]) == [q1, q2]

    def test_equivalent_conjuncts_keep_first(self):
        q1 = BGPQuery([TP(X, EX.p, Y), TP(X, EX.p, Z)], [X])
        q2 = BGPQuery([TP(X, EX.p, Y)], [X])
        assert minimize_ucq([q1, q2]) == [q1]

    def test_empty_input(self):
        assert minimize_ucq([]) == []

    def test_single_conjunct_survives_self_comparison(self):
        # a lone conjunct is trivially self-contained; it must not be
        # dropped by comparing it against itself
        q = BGPQuery([TP(X, EX.p, Y)], [X])
        assert minimize_ucq([q]) == [q]

    def test_duplicate_conjuncts_keep_exactly_one(self):
        q = BGPQuery([TP(X, EX.p, Y)], [X])
        again = BGPQuery([TP(X, EX.p, Y)], [X])
        assert minimize_ucq([q, again, q]) == [q]

    def test_renamed_duplicate_counts_as_duplicate(self):
        # same query up to a bound-variable renaming: keep the first
        q1 = BGPQuery([TP(X, EX.p, Y)], [X])
        q2 = BGPQuery([TP(X, EX.p, Z)], [X])
        assert minimize_ucq([q1, q2]) == [q1]

    def test_conjunct_with_redundant_self_join_folds_onto_core(self):
        # q1's second atom is a renamed copy of its first (a redundant
        # self-join): q1 is equivalent to the core q2, so one survives
        redundant = BGPQuery([TP(X, EX.p, Y), TP(X, EX.p, Z)], [X])
        core = BGPQuery([TP(X, EX.p, Y)], [X])
        assert minimize_ucq([redundant, core]) == [redundant]
        assert minimize_ucq([core, redundant]) == [core]

    def test_mixed_duplicates_and_containment(self):
        general = BGPQuery([TP(X, EX.p, Y)], [X])
        special = BGPQuery([TP(X, EX.p, EX.a)], [X])
        other = BGPQuery([TP(X, RDF.type, EX.C1)], [X])
        result = minimize_ucq([special, general, special, other])
        assert result == [general, other]

    def test_reformulation_minimization_preserves_answers(self, lubm_small):
        """to_minimized_ucq() must answer exactly like to_ucq()."""
        schema = Schema.from_graph(lubm_small)
        closed = lubm_small.copy()
        closed.update(schema.closure_triples())
        for qid in ("Q1", "Q3", "Q7", "Q10"):
            reformulation = reformulate(workload_query(qid), schema)
            full = reformulation.to_ucq()
            minimized = reformulation.to_minimized_ucq()
            assert len(minimized) <= len(full)
            assert evaluate_ucq(closed, minimized).to_set() == \
                evaluate_ucq(closed, full).to_set(), qid

    def test_join_reformulation_actually_shrinks(self):
        """A join of two hierarchy atoms produces subsumed conjuncts
        (e.g. Person ∧ Person-subclass pairs) that minimization prunes."""
        from repro.rdf import Triple
        from repro.rdf.namespaces import RDFS
        schema = Schema()
        schema.add(Triple(EX.Woman, RDFS.subClassOf, EX.Person))
        query = BGPQuery([TP(X, RDF.type, EX.Person),
                          TP(X, RDF.type, EX.Person)], [X])
        reformulation = reformulate(query, schema)
        full = reformulation.to_ucq()
        minimized = reformulation.to_minimized_ucq()
        # (Person, Person), (Person, Woman), (Woman, Person), (Woman, Woman)
        # -> canonical-dedup keeps 3, containment keeps (Person,Person)
        #    and (Woman,Woman): the mixed one is contained in both
        assert len(minimized) < len(full)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 5_000), st.integers(0, 5_000))
    def test_property_minimized_ucq_same_answers(self, graph_seed, query_seed):
        config = RandomGraphConfig(seed=graph_seed)
        graph = random_graph(config)
        query = random_query(config, seed=query_seed,
                             allow_variable_predicates=False)
        schema = Schema.from_graph(graph)
        closed = graph.copy()
        closed.update(schema.closure_triples())
        reformulation = reformulate(query, schema)
        expected = evaluate(saturate(graph).graph, query).to_set()
        assert evaluate_ucq(closed,
                            reformulation.to_minimized_ucq()).to_set() == expected


class TestSP2BenchShapes:
    """Containment over the query shapes the SP2Bench-style workloads
    stress: long reference chains, shared-variable cliques, and
    duplicate-atom conjuncts."""

    S, T = V("s"), V("t")

    def _chain(self, length, head):
        hops = [self.S] + [V(f"m{i}") for i in range(length - 1)] + [self.T]
        return BGPQuery([TP(hops[i], EX.references, hops[i + 1])
                         for i in range(length)], head)

    def test_chains_of_different_length_are_incomparable(self):
        short = self._chain(2, [self.S, self.T])
        long = self._chain(4, [self.S, self.T])
        assert not is_contained_in(short, long)
        assert not is_contained_in(long, short)

    def test_longer_chain_with_existential_tail_is_weaker(self):
        # with only the source distinguished, a k-chain maps onto any
        # shorter witness extended by a self-loop — and in particular a
        # document referencing itself answers every chain length
        loop = BGPQuery([TP(self.S, EX.references, self.S)], [self.S])
        chain = self._chain(4, [self.S])
        assert is_contained_in(loop, chain)
        assert not is_contained_in(chain, loop)

    def test_triangle_clique_is_contained_in_single_edge(self):
        triangle = BGPQuery([TP(X, EX.cites, Y), TP(Y, EX.cites, Z),
                             TP(Z, EX.cites, X)], [X])
        edge = BGPQuery([TP(X, EX.cites, Y)], [X])
        assert is_contained_in(triangle, edge)
        assert not is_contained_in(edge, triangle)

    def test_self_citation_is_contained_in_triangle(self):
        triangle = BGPQuery([TP(X, EX.cites, Y), TP(Y, EX.cites, Z),
                             TP(Z, EX.cites, X)], [X])
        loop = BGPQuery([TP(X, EX.cites, X)], [X])
        assert is_contained_in(loop, triangle)
        assert not is_contained_in(triangle, loop)

    def test_two_cycle_and_triangle_are_incomparable(self):
        # shared-variable cliques of coprime cycle length only relate
        # through their common collapse (the self-loop), not directly
        two_cycle = BGPQuery([TP(X, EX.cites, Y), TP(Y, EX.cites, X)], [X])
        triangle = BGPQuery([TP(X, EX.cites, Y), TP(Y, EX.cites, Z),
                             TP(Z, EX.cites, X)], [X])
        assert not is_contained_in(two_cycle, triangle)
        assert not is_contained_in(triangle, two_cycle)

    def test_duplicate_atom_conjunct_is_equivalent_to_its_core(self):
        dup = BGPQuery([TP(X, EX.creator, Y), TP(X, EX.creator, Y),
                        TP(X, EX.creator, Z)], [X])
        core = BGPQuery([TP(X, EX.creator, Y)], [X])
        assert is_contained_in(dup, core)
        assert is_contained_in(core, dup)

    def test_minimize_ucq_drops_duplicate_atom_variant(self):
        dup = BGPQuery([TP(X, EX.creator, Y), TP(X, EX.creator, Z)], [X])
        core = BGPQuery([TP(X, EX.creator, Y)], [X])
        chain = BGPQuery([TP(X, EX.references, Y),
                          TP(Y, EX.references, Z)], [X])
        minimized = minimize_ucq([dup, core, chain])
        assert minimized == [dup, chain]

    def test_star_with_constant_hub_specializes_the_star(self):
        hub = EX.article1
        star = BGPQuery([TP(X, EX.cites, Y), TP(X, EX.cites, Z)], [X])
        pinned = BGPQuery([TP(X, EX.cites, hub), TP(X, EX.cites, Z)], [X])
        assert is_contained_in(pinned, star)
        assert not is_contained_in(star, pinned)
