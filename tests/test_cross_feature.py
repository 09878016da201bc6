"""Cross-feature integration: the features composed, not just alone.

Each test wires together subsystems that the paper's narrative
connects: reformulations *are* union queries; the adaptive database
survives persistence; the CLI operates on generated workloads.
"""

from repro.db import AdaptiveDatabase, RDFDatabase, Strategy
from repro.rdf import Triple
from repro.rdf.namespaces import RDF
from repro.reasoning import reformulate, saturate
from repro.schema import Schema
from repro.sparql import UnionQuery, evaluate, parse_query
from repro.workloads import workload_query
from repro.workloads.lubm import UNIV

from conftest import EX


class TestReformulationAsUnionQuery:
    """Closing the loop: a reformulated query IS a union query of the
    dialect, so posing it explicitly must answer like the engine."""

    def test_union_of_conjuncts_equals_saturated_answers(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        closed = lubm_small.copy()
        closed.update(schema.closure_triples())
        query = workload_query("Q2")
        conjuncts = reformulate(query, schema).to_ucq()
        union = UnionQuery(conjuncts, query.distinguished)
        expected = evaluate(saturate(lubm_small).graph, query).to_set()
        assert union.evaluate(closed).to_set() == expected

    def test_union_round_trips_through_sparql_text(self, lubm_small):
        schema = Schema.from_graph(lubm_small)
        query = workload_query("Q2")
        conjuncts = reformulate(query, schema).to_ucq()
        union = UnionQuery(conjuncts, query.distinguished)
        reparsed = parse_query(union.to_sparql())
        assert isinstance(reparsed, UnionQuery)
        assert len(reparsed.branches) == len(union.branches)


class TestAdaptivePersistence:
    def test_adaptive_state_survives_save_load(self, lubm_small, tmp_path):
        adaptive = AdaptiveDatabase(lubm_small,
                                    strategy=Strategy.REFORMULATION,
                                    review_interval=10**9)
        adaptive.insert([Triple(UNIV.term("Zed"), RDF.type,
                                UNIV.FullProfessor)])
        adaptive._db.save(str(tmp_path / "store"))  # noqa: SLF001
        reloaded = RDFDatabase.load(str(tmp_path / "store"))
        q5 = workload_query("Q5")
        assert reloaded.query(q5).to_set() == adaptive.query(q5).to_set()


class TestUpdateLanguageWithReasoners:
    def test_update_stream_keeps_counting_reasoner_consistent(self):
        db = RDFDatabase(strategy=Strategy.SATURATION,
                         maintenance="counting")
        db.update("""
            PREFIX ex: <http://example.org/>
            INSERT DATA {
                ex:Cat rdfs:subClassOf ex:Mammal .
                ex:tom a ex:Cat .
                ex:felix a ex:Cat
            }
        """)
        db.update("PREFIX ex: <http://example.org/> "
                  "DELETE DATA { ex:felix a ex:Cat }")
        mammals = db.query(
            "SELECT ?x WHERE { ?x a <http://example.org/Mammal> }")
        assert mammals.to_set() == {(EX.tom,)}


class TestCliOnGeneratedWorkload:
    def test_generate_then_query_then_explain(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "uni.ttl"
        assert main(["generate", "--departments", "1",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["query", str(path), "--strategy", "saturation", "-q",
                     "PREFIX univ: <http://repro.example.org/univ#> "
                     "SELECT ?x WHERE { ?x a univ:Dean }"]) == 0
        capsys.readouterr()
        code = main([
            "explain", str(path),
            "-s", "http://repro.example.org/univ#Chairu0d0",
            "-p", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
            "-o", "http://repro.example.org/univ#Employee",
        ])
        assert code == 0
        assert "[rdfs9]" in capsys.readouterr().out


class TestMinimizationOnUnionQueries:
    def test_minimized_reformulation_as_union(self, lubm_small):
        from repro.sparql import minimize_ucq

        schema = Schema.from_graph(lubm_small)
        closed = lubm_small.copy()
        closed.update(schema.closure_triples())
        query = workload_query("Q10")
        full = reformulate(query, schema).to_ucq()
        minimized = minimize_ucq(full)
        expected = evaluate(saturate(lubm_small).graph, query).to_set()
        union = UnionQuery(minimized, query.distinguished)
        assert union.evaluate(closed).to_set() == expected
