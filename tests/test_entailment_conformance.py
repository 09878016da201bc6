"""RDFS entailment conformance battery, W3C-test-suite style.

Each case is (name, premise graph in Turtle, conclusion triple(s),
expected entailed-or-not).  The battery covers every ρdf rule, their
compositions, and the classic *non*-entailments (the ways naive
implementations over- or under-derive).  Every case is checked against
all three saturation engines and against reformulation-based ASK,
so a regression in any route trips it.
"""

import pytest

from repro.db import RDFDatabase, Strategy
from repro.rdf import Triple, graph_from_turtle
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import entails, saturate

from conftest import EX

PREFIX = "@prefix ex: <http://example.org/> .\n"


def t(s: str, p: str, o: str) -> Triple:
    def term(name: str, is_property: bool = False):
        if name == "a" and is_property:
            return RDF.type
        if name.startswith("rdfs:"):
            return RDFS.term(name[5:])
        return EX.term(name)

    return Triple(term(s), term(p, is_property=True), term(o))


#: (case id, premise turtle, conclusion, should_be_entailed)
CASES = [
    # --- single rules -------------------------------------------------
    ("rdfs9-direct",
     "ex:Tom a ex:Cat . ex:Cat rdfs:subClassOf ex:Mammal .",
     t("Tom", "a", "Mammal"), True),
    ("rdfs9-transitive",
     "ex:Tom a ex:Cat . ex:Cat rdfs:subClassOf ex:Mammal . "
     "ex:Mammal rdfs:subClassOf ex:Animal .",
     t("Tom", "a", "Animal"), True),
    ("rdfs7-direct",
     "ex:a ex:best ex:b . ex:best rdfs:subPropertyOf ex:friend .",
     t("a", "friend", "b"), True),
    ("rdfs7-transitive",
     "ex:a ex:p1 ex:b . ex:p1 rdfs:subPropertyOf ex:p2 . "
     "ex:p2 rdfs:subPropertyOf ex:p3 .",
     t("a", "p3", "b"), True),
    ("rdfs2-domain",
     "ex:a ex:knows ex:b . ex:knows rdfs:domain ex:Person .",
     t("a", "a", "Person"), True),
    ("rdfs3-range",
     "ex:a ex:knows ex:b . ex:knows rdfs:range ex:Person .",
     t("b", "a", "Person"), True),
    ("rdfs5-subprop-transitivity",
     "ex:p1 rdfs:subPropertyOf ex:p2 . ex:p2 rdfs:subPropertyOf ex:p3 .",
     t("p1", "rdfs:subPropertyOf", "p3"), True),
    ("rdfs11-subclass-transitivity",
     "ex:C1 rdfs:subClassOf ex:C2 . ex:C2 rdfs:subClassOf ex:C3 .",
     t("C1", "rdfs:subClassOf", "C3"), True),

    # --- rule compositions ---------------------------------------------
    ("rdfs7-then-2: domain of superproperty",
     "ex:a ex:best ex:b . ex:best rdfs:subPropertyOf ex:friend . "
     "ex:friend rdfs:domain ex:Person .",
     t("a", "a", "Person"), True),
    ("rdfs7-then-3: range of superproperty",
     "ex:a ex:best ex:b . ex:best rdfs:subPropertyOf ex:friend . "
     "ex:friend rdfs:range ex:Person .",
     t("b", "a", "Person"), True),
    ("rdfs2-then-9: domain class generalizes",
     "ex:a ex:knows ex:b . ex:knows rdfs:domain ex:Person . "
     "ex:Person rdfs:subClassOf ex:Agent .",
     t("a", "a", "Agent"), True),
    ("rdfs3-then-9: range class generalizes",
     "ex:a ex:knows ex:b . ex:knows rdfs:range ex:Person . "
     "ex:Person rdfs:subClassOf ex:Agent .",
     t("b", "a", "Agent"), True),
    ("full chain 7-2-9",
     "ex:a ex:best ex:b . ex:best rdfs:subPropertyOf ex:friend . "
     "ex:friend rdfs:domain ex:Person . ex:Person rdfs:subClassOf ex:Agent .",
     t("a", "a", "Agent"), True),
    ("cyclic classes are mutually entailed",
     "ex:C1 rdfs:subClassOf ex:C2 . ex:C2 rdfs:subClassOf ex:C1 . "
     "ex:x a ex:C1 .",
     t("x", "a", "C2"), True),
    ("cyclic classes entail reflexive edges",
     "ex:C1 rdfs:subClassOf ex:C2 . ex:C2 rdfs:subClassOf ex:C1 .",
     t("C1", "rdfs:subClassOf", "C1"), True),

    # --- classic NON-entailments ----------------------------------------
    ("subclass is not symmetric",
     "ex:Tom a ex:Mammal . ex:Cat rdfs:subClassOf ex:Mammal .",
     t("Tom", "a", "Cat"), False),
    ("subproperty is not symmetric",
     "ex:a ex:friend ex:b . ex:best rdfs:subPropertyOf ex:friend .",
     t("a", "best", "b"), False),
    ("domain does not type the object",
     "ex:a ex:knows ex:b . ex:knows rdfs:domain ex:Person .",
     t("b", "a", "Person"), False),
    ("range does not type the subject",
     "ex:a ex:knows ex:b . ex:knows rdfs:range ex:Person .",
     t("a", "a", "Person"), False),
    ("typing does not propagate along properties",
     "ex:a ex:knows ex:b . ex:a a ex:Person .",
     t("b", "a", "Person"), False),
    ("domain applies to the property, not its superproperty's subs",
     "ex:a ex:friend ex:b . ex:best rdfs:subPropertyOf ex:friend . "
     "ex:best rdfs:domain ex:Intimate .",
     t("a", "a", "Intimate"), False),
    ("no class equivalence from shared superclass",
     "ex:Cat rdfs:subClassOf ex:Mammal . ex:Dog rdfs:subClassOf ex:Mammal . "
     "ex:Rex a ex:Dog .",
     t("Rex", "a", "Cat"), False),
    ("no property equivalence from shared superproperty",
     "ex:p1 rdfs:subPropertyOf ex:p . ex:p2 rdfs:subPropertyOf ex:p . "
     "ex:a ex:p1 ex:b .",
     t("a", "p2", "b"), False),
    ("subClassOf does not relate instances to instances",
     "ex:Tom a ex:Cat .",
     t("Tom", "rdfs:subClassOf", "Cat"), False),
    ("unrelated triple is not entailed",
     "ex:Tom a ex:Cat .",
     t("Anne", "a", "Cat"), False),
]

IDS = [case[0] for case in CASES]


@pytest.fixture(scope="module")
def prepared_cases():
    prepared = {}
    for name, turtle, conclusion, expected in CASES:
        graph = graph_from_turtle(PREFIX + turtle)
        prepared[name] = (graph, conclusion, expected)
    return prepared


@pytest.mark.parametrize("name", IDS)
def test_entails_api(name, prepared_cases):
    graph, conclusion, expected = prepared_cases[name]
    assert entails(graph, conclusion) == expected


@pytest.mark.parametrize("engine", ["schema-aware", "seminaive"])
def test_all_engines_agree_on_battery(engine, prepared_cases):
    for name, (graph, conclusion, expected) in prepared_cases.items():
        saturated = saturate(graph, engine=engine).graph
        assert (conclusion in saturated) == expected, (engine, name)


def test_reformulation_route_agrees_on_battery(prepared_cases):
    for name, (graph, conclusion, expected) in prepared_cases.items():
        db = RDFDatabase(graph, strategy=Strategy.REFORMULATION)
        sparql = (f"ASK {{ {conclusion.s.n3()} {conclusion.p.n3()} "
                  f"{conclusion.o.n3()} }}")
        assert db.ask_query(sparql) == expected, name


# ----------------------------------------------------------------------
# RDFS-full: one hand-computed case per extra rule
# ----------------------------------------------------------------------

#: (case id, premise turtle, conclusion, should_be_entailed) under
#: the RDFS_FULL rule set.
FULL_CASES = [
    ("rdf1: used property is an rdf:Property",
     "ex:a ex:p ex:b .",
     Triple(EX.p, RDF.type, RDF.Property), True),
    ("rdfs4a: subject is an rdfs:Resource",
     "ex:a ex:p ex:b .",
     Triple(EX.a, RDF.type, RDFS.Resource), True),
    ("rdfs4b: object is an rdfs:Resource",
     "ex:a ex:p ex:b .",
     Triple(EX.b, RDF.type, RDFS.Resource), True),
    ("rdfs6: property reflexivity",
     "ex:p a rdf:Property .",
     Triple(EX.p, RDFS.subPropertyOf, EX.p), True),
    ("rdfs6: derived property is also reflexive",
     "ex:a ex:p ex:b .",
     Triple(EX.p, RDFS.subPropertyOf, EX.p), True),
    ("rdfs8: class is a subclass of rdfs:Resource",
     "ex:C a rdfs:Class .",
     Triple(EX.C, RDFS.subClassOf, RDFS.Resource), True),
    ("rdfs10: class reflexivity",
     "ex:C a rdfs:Class .",
     Triple(EX.C, RDFS.subClassOf, EX.C), True),
    ("rdfs12: membership property under rdfs:member",
     "ex:m a rdfs:ContainerMembershipProperty .",
     Triple(EX.m, RDFS.subPropertyOf, RDFS.member), True),
    ("rdfs12-then-7: membership edge propagates to rdfs:member",
     "ex:m a rdfs:ContainerMembershipProperty . ex:x ex:m ex:y .",
     Triple(EX.x, RDFS.member, EX.y), True),
    ("rdfs13: datatype is a subclass of rdfs:Literal",
     "ex:D a rdfs:Datatype .",
     Triple(EX.D, RDFS.subClassOf, RDFS.Literal), True),
    ("rdfs13-then-9: datatype instance is a literal-class member",
     "ex:D a rdfs:Datatype . ex:v a ex:D .",
     Triple(EX.v, RDF.type, RDFS.Literal), True),
    # the extra rules stay off in the default set
    ("rdfs8 needs an rdfs:Class assertion",
     "ex:C rdfs:subClassOf ex:D .",
     Triple(EX.C, RDFS.subClassOf, RDFS.Resource), False),
    ("rdfs6 needs a property assertion or use",
     "ex:p rdfs:domain ex:C .",
     Triple(EX.C, RDFS.subPropertyOf, EX.C), False),
]

FULL_IDS = [case[0] for case in FULL_CASES]


@pytest.mark.parametrize("name,turtle,conclusion,expected", FULL_CASES,
                         ids=FULL_IDS)
def test_rdfs_full_rules(name, turtle, conclusion, expected):
    from repro.reasoning import RDFS_FULL

    graph = graph_from_turtle(PREFIX + turtle)
    assert entails(graph, conclusion, RDFS_FULL) == expected


@pytest.mark.parametrize("name,turtle,conclusion,expected", FULL_CASES,
                         ids=FULL_IDS)
def test_rdfs_full_datalog_route_agrees(name, turtle, conclusion, expected):
    from repro.datalog import saturate_via_datalog
    from repro.reasoning import RDFS_FULL

    graph = graph_from_turtle(PREFIX + turtle)
    assert (conclusion in saturate_via_datalog(graph, RDFS_FULL)) == expected


def test_rdfs_full_exact_closure_of_single_triple():
    """The complete hand-computed RDFS-full closure of { ex:a ex:p ex:b }.

    Exactly 14 triples: the assertion, three rdf:Property typings
    (rdf1 on ex:p, rdf:type and rdfs:subPropertyOf), an rdfs:Resource
    typing for every mentioned term (rdfs4a/4b), and a reflexive
    subPropertyOf edge per property (rdfs6)."""
    from repro.reasoning import RDFS_FULL

    graph = graph_from_turtle(PREFIX + "ex:a ex:p ex:b .")
    closure = set(saturate(graph, RDFS_FULL).graph)
    T, SPO = RDF.type, RDFS.subPropertyOf
    expected = {
        Triple(EX.a, EX.p, EX.b),
        Triple(EX.p, T, RDF.Property),
        Triple(T, T, RDF.Property),
        Triple(SPO, T, RDF.Property),
        Triple(EX.a, T, RDFS.Resource),
        Triple(EX.b, T, RDFS.Resource),
        Triple(EX.p, T, RDFS.Resource),
        Triple(T, T, RDFS.Resource),
        Triple(RDF.Property, T, RDFS.Resource),
        Triple(RDFS.Resource, T, RDFS.Resource),
        Triple(SPO, T, RDFS.Resource),
        Triple(EX.p, SPO, EX.p),
        Triple(T, SPO, T),
        Triple(SPO, SPO, SPO),
    }
    assert closure == expected


# ----------------------------------------------------------------------
# meta-schema corner cases (RDFS vocabulary constrained by the graph)
# ----------------------------------------------------------------------

class TestMetaSchema:
    META = ("ex:isA rdfs:subPropertyOf rdf:type . "
            "ex:x ex:isA ex:C . ex:C rdfs:subClassOf ex:D .")

    def test_detection(self):
        from repro.reasoning import has_meta_schema

        assert has_meta_schema(graph_from_turtle(PREFIX + self.META))
        assert has_meta_schema(graph_from_turtle(
            PREFIX + "rdfs:subClassOf rdfs:domain rdfs:Class ."))
        assert not has_meta_schema(graph_from_turtle(
            PREFIX + "ex:Cat rdfs:subClassOf ex:Mammal . ex:Tom a ex:Cat ."))

    def test_auto_falls_back_to_seminaive(self):
        graph = graph_from_turtle(PREFIX + self.META)
        assert saturate(graph).engine == "seminaive"

    def test_schema_aware_refuses_meta_schema(self):
        graph = graph_from_turtle(PREFIX + self.META)
        with pytest.raises(ValueError):
            saturate(graph, engine="schema-aware")

    def test_meta_schema_closure_is_complete(self):
        """Typings that only *emerge* through a subproperty of rdf:type
        must still feed the subclass rule (the regime the single-pass
        schema-aware engine cannot handle)."""
        graph = graph_from_turtle(PREFIX + self.META)
        saturated = saturate(graph).graph
        assert Triple(EX.x, RDF.type, EX.C) in saturated
        assert Triple(EX.x, RDF.type, EX.D) in saturated
