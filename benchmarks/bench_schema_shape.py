"""EXP-SHAPE — how schema *shape* moves the trade-off.

The [12] experiments behind Figure 3 ran on LUBM (deep, narrow class
hierarchy) and DBpedia (shallow, very wide).  This bench contrasts the
two generated shapes at similar sizes:

* deep-narrow (LUBM-like): root-class reformulations stay small-ish
  (tens of conjuncts), saturation blow-up driven by long rdfs9 chains;
* shallow-wide (DBpedia-like): root-class reformulations explode with
  the sibling count while each entity gains few implied types.

The threshold consequences: the wider the reformulation, the *lower*
the saturation threshold — schema shape, not just data size, decides
which technique wins.
"""

import pytest

from repro.analysis import analyze_thresholds, best_of
from repro.rdf import TriplePattern as TP
from repro.rdf.namespaces import RDF
from repro.rdf.terms import Variable as V
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import BGPQuery, evaluate_reformulation
from repro.workloads import SOCIAL, SocialConfig, generate_social
from repro.workloads.lubm import UNIV

from conftest import save_report


@pytest.fixture(scope="module")
def social():
    return generate_social(SocialConfig())


def social_query(cls) -> BGPQuery:
    return BGPQuery([TP(V("x"), RDF.type, cls)], distinct=True)


def test_social_saturation(benchmark, social):
    result = benchmark(lambda: saturate(social))
    assert result.inferred > 0


def test_social_root_reformulation(benchmark, social):
    schema = Schema.from_graph(social)
    query = social_query(SOCIAL.Entity)
    reformulation = benchmark(lambda: reformulate(query, schema))
    assert reformulation.ucq_size > 100  # wide fan


def test_social_root_answering(benchmark, social):
    schema = Schema.from_graph(social)
    query = social_query(SOCIAL.Agent)

    rows = benchmark(lambda: evaluate_reformulation(
        social, reformulate(query, schema)))
    assert len(rows) > 0


def test_shape_report(benchmark, social, lubm_2dept):
    def build() -> str:
        lines = ["EXP-SHAPE — deep-narrow (LUBM-like) vs shallow-wide "
                 "(DBpedia-like)", ""]
        for label, graph, root in (("LUBM Person", lubm_2dept, UNIV.Person),
                                   ("social Entity", social, SOCIAL.Entity),
                                   ("social Agent", social, SOCIAL.Agent)):
            schema = Schema.from_graph(graph)
            saturation = saturate(graph)
            reformulation = reformulate(social_query(root), schema)
            lines.append(
                f"{label:14}: {len(graph):5} triples, blow-up "
                f"x{saturation.blowup:.2f}, root-class UCQ size "
                f"{reformulation.ucq_size}")
        lines.append("")

        # thresholds for the root query on each shape
        for label, graph, root in (("LUBM", lubm_2dept, UNIV.Person),
                                   ("social", social, SOCIAL.Agent)):
            report = analyze_thresholds(
                graph, [("root", social_query(root))], repeat=1,
                update_size=10)
            entry = report.thresholds[0]
            lines.append(f"{label:7} root-query saturation threshold: "
                         f"{entry.saturation}")
        return "\n".join(lines)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("exp_shape", report)

    # the shape claim: the social root reformulation is far wider
    lubm_size = reformulate(
        social_query(UNIV.Person), Schema.from_graph(lubm_2dept)).ucq_size
    social_size = reformulate(
        social_query(SOCIAL.Entity), Schema.from_graph(social)).ucq_size
    assert social_size > 3 * lubm_size
