"""Tests for the RDFDatabase facade, strategies and the advisor."""

import pytest

from repro.db import (RDFDatabase, Strategy, UnsupportedGraphError,
                      WorkloadProfile, recommend_strategy)
from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.reasoning import RDFS_FULL
from repro.workloads import workload_query
from repro.workloads.lubm import UNIV

from conftest import EX

TURTLE = """
@prefix ex: <http://example.org/> .
ex:hasFriend rdfs:domain ex:Person ; rdfs:range ex:Person .
ex:Woman rdfs:subClassOf ex:Person .
ex:Anne ex:hasFriend ex:Marie ; a ex:Woman .
"""

PERSON_QUERY = "SELECT ?x WHERE { ?x a <http://example.org/Person> }"

REASONING_STRATEGIES = [Strategy.SATURATION, Strategy.REFORMULATION]


def make_db(strategy: Strategy) -> RDFDatabase:
    db = RDFDatabase(strategy=strategy)
    db.load_turtle(TURTLE)
    return db


class TestBasics:
    def test_load_turtle_counts(self):
        db = RDFDatabase()
        assert db.load_turtle(TURTLE) == 5
        assert len(db) == 5

    def test_load_ntriples(self):
        db = RDFDatabase()
        added = db.load_ntriples(
            "<http://example.org/a> <http://example.org/p> "
            "<http://example.org/b> .\n")
        assert added == 1

    def test_invalid_maintenance_rejected(self):
        with pytest.raises(ValueError):
            RDFDatabase(maintenance="psychic")

    def test_graph_property_is_explicit_graph(self):
        db = make_db(Strategy.SATURATION)
        assert len(db.graph) == 5

    def test_constructor_copies_input_graph(self):
        g = Graph()
        g.add(Triple(EX.a, EX.p, EX.b))
        db = RDFDatabase(g)
        db.insert(Triple(EX.c, EX.p, EX.d))
        assert len(g) == 1


class TestStrategies:
    def test_none_ignores_entailment(self):
        db = make_db(Strategy.NONE)
        assert db.query(PERSON_QUERY).to_set() == set()

    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_reasoning_strategies_complete(self, strategy):
        db = make_db(strategy)
        assert db.query(PERSON_QUERY).to_set() == \
            {(EX.Anne,), (EX.Marie,)}

    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_ask_entailment(self, strategy):
        db = make_db(strategy)
        assert db.ask(Triple(EX.Anne, RDF.type, EX.Person))
        assert not db.ask(Triple(EX.Marie, RDF.type, EX.Woman))

    def test_ask_none_strategy_is_membership(self):
        db = make_db(Strategy.NONE)
        assert not db.ask(Triple(EX.Anne, RDF.type, EX.Person))
        assert db.ask(Triple(EX.Anne, RDF.type, EX.Woman))

    def test_switch_strategy_preserves_answers(self):
        db = make_db(Strategy.SATURATION)
        before = db.query(PERSON_QUERY).to_set()
        db.switch_strategy(Strategy.REFORMULATION)
        assert db.query(PERSON_QUERY).to_set() == before
        db.switch_strategy(Strategy.NONE)
        assert db.query(PERSON_QUERY).to_set() == set()

    def test_accepts_prebuilt_query(self):
        db = RDFDatabase()
        db.insert(list(Graph([
            Triple(UNIV.term("X"), RDF.type, UNIV.FullProfessor)])))
        db.insert([Triple(UNIV.FullProfessor, RDFS.subClassOf, UNIV.Professor)])
        rows = db.query(workload_query("Q5"))
        assert len(rows) == 1

    def test_reformulation_rejects_full_ruleset(self):
        with pytest.raises(UnsupportedGraphError):
            RDFDatabase(strategy=Strategy.REFORMULATION, ruleset=RDFS_FULL)

    def test_reformulation_rejects_meta_schema(self):
        g = Graph()
        g.add(Triple(EX.typeLike, RDFS.subPropertyOf, RDF.type))
        with pytest.raises(UnsupportedGraphError):
            RDFDatabase(g, strategy=Strategy.REFORMULATION)

    def test_saturation_handles_meta_schema(self):
        g = Graph()
        g.add(Triple(EX.typeLike, RDFS.subPropertyOf, RDF.type))
        g.add(Triple(EX.a, EX.typeLike, EX.C))
        db = RDFDatabase(g, strategy=Strategy.SATURATION)
        assert db.ask(Triple(EX.a, RDF.type, EX.C))

    @pytest.mark.parametrize("maintenance", ["dred", "counting"])
    def test_saturation_maintenance_choices(self, maintenance):
        db = RDFDatabase(strategy=Strategy.SATURATION,
                         maintenance=maintenance)
        db.load_turtle(TURTLE)
        assert db.query(PERSON_QUERY).to_set() == {(EX.Anne,), (EX.Marie,)}


class TestUpdates:
    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_instance_insert_visible(self, strategy):
        db = make_db(strategy)
        db.insert(Triple(EX.Zoe, RDF.type, EX.Woman))
        assert (EX.Zoe,) in db.query(PERSON_QUERY).to_set()

    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_schema_insert_visible(self, strategy):
        db = make_db(strategy)
        db.insert(Triple(EX.Person, RDFS.subClassOf, EX.Agent))
        agents = db.query("SELECT ?x WHERE { ?x a <http://example.org/Agent> }")
        assert (EX.Anne,) in agents.to_set()

    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_instance_delete_visible(self, strategy):
        db = make_db(strategy)
        db.delete(Triple(EX.Anne, EX.hasFriend, EX.Marie))
        assert (EX.Marie,) not in db.query(PERSON_QUERY).to_set()
        assert (EX.Anne,) in db.query(PERSON_QUERY).to_set()  # via Woman

    @pytest.mark.parametrize("strategy", REASONING_STRATEGIES)
    def test_schema_delete_visible(self, strategy):
        db = make_db(strategy)
        db.delete(Triple(EX.Woman, RDFS.subClassOf, EX.Person))
        answers = db.query(PERSON_QUERY).to_set()
        assert (EX.Anne,) in answers       # still typed via domain
        db.delete(Triple(EX.hasFriend, RDFS.domain, EX.Person))
        assert (EX.Anne,) not in db.query(PERSON_QUERY).to_set()

    def test_strategies_agree_after_update_stream(self, lubm_small):
        dbs = [RDFDatabase(lubm_small, strategy=s)
               for s in (Strategy.SATURATION, Strategy.REFORMULATION)]
        updates = [
            ("insert", Triple(UNIV.term("NewDean"), UNIV.headOf,
                              UNIV.term("Departmentu0d0"))),
            ("insert", Triple(UNIV.Dean, RDFS.subClassOf, UNIV.Professor)),
            ("delete", Triple(UNIV.term("Chairu0d0"), UNIV.headOf,
                              UNIV.term("Departmentu0d0"))),
        ]
        query = workload_query("Q4")
        for op, triple in updates:
            for db in dbs:
                getattr(db, op)(triple)
            answers = [db.query(query).to_set() for db in dbs]
            assert answers[0] == answers[1]

    def test_insert_returns_new_count(self):
        db = make_db(Strategy.SATURATION)
        assert db.insert(Triple(EX.Anne, RDF.type, EX.Woman)) == 0
        assert db.insert(Triple(EX.New, RDF.type, EX.Woman)) == 1

    def test_delete_returns_removed_count(self):
        db = make_db(Strategy.SATURATION)
        assert db.delete(Triple(EX.Anne, RDF.type, EX.Woman)) == 1
        assert db.delete(Triple(EX.Anne, RDF.type, EX.Woman)) == 0


class TestReformulationCache:
    def test_cache_fills_and_hits(self):
        db = make_db(Strategy.REFORMULATION)
        db.query(PERSON_QUERY)
        assert db.stats()["cached_reformulations"] == 1
        db.query(PERSON_QUERY)
        assert db.stats()["cached_reformulations"] == 1  # hit, not refill

    def test_schema_update_invalidates_cache(self):
        db = make_db(Strategy.REFORMULATION)
        db.query(PERSON_QUERY)
        generation = db.stats()["schema_generation"]
        db.insert(Triple(EX.Person, RDFS.subClassOf, EX.Agent))
        stats = db.stats()
        assert stats["cached_reformulations"] == 0
        assert stats["schema_generation"] > generation

    def test_instance_update_keeps_cache(self):
        db = make_db(Strategy.REFORMULATION)
        db.query(PERSON_QUERY)
        db.insert(Triple(EX.Zoe, RDF.type, EX.Woman))
        assert db.stats()["cached_reformulations"] == 1
        # and the cached reformulation still answers correctly
        assert (EX.Zoe,) in db.query(PERSON_QUERY).to_set()

    def test_cached_answers_stay_correct_after_schema_change(self):
        """A stale cached reformulation would keep returning Marie
        after the range constraint that types her is deleted."""
        db = make_db(Strategy.REFORMULATION)
        before = db.query(PERSON_QUERY).to_set()
        assert (EX.Marie,) in before
        db.delete(Triple(EX.hasFriend, RDFS.range, EX.Person))
        after = db.query(PERSON_QUERY).to_set()
        assert (EX.Marie,) not in after
        assert (EX.Anne,) in after  # still typed via Woman and domain


class TestApplyBatch:
    def test_apply_mixed(self):
        db = make_db(Strategy.SATURATION)
        removed, added = db.apply(
            inserts=[Triple(EX.Zoe, RDF.type, EX.Woman)],
            deletes=[Triple(EX.Anne, RDF.type, EX.Woman)])
        assert (removed, added) == (1, 1)
        answers = db.query(PERSON_QUERY).to_set()
        assert (EX.Zoe,) in answers
        assert (EX.Anne,) in answers  # still typed via hasFriend domain

    def test_apply_deletes_before_inserts(self):
        db = make_db(Strategy.REFORMULATION)
        triple = Triple(EX.Anne, RDF.type, EX.Woman)
        db.apply(inserts=[triple], deletes=[triple])
        assert triple in db.graph  # delete-then-insert leaves it present


class TestPersistence:
    def test_save_and_load_roundtrip(self, tmp_path):
        db = make_db(Strategy.SATURATION)
        db.save(str(tmp_path / "store"))
        reloaded = RDFDatabase.load(str(tmp_path / "store"))
        assert reloaded.strategy == Strategy.SATURATION
        assert len(reloaded) == len(db)
        assert reloaded.query(PERSON_QUERY).to_set() == \
            db.query(PERSON_QUERY).to_set()

    def test_save_stores_explicit_only(self, tmp_path):
        db = make_db(Strategy.SATURATION)
        db.save(str(tmp_path / "store"))
        data = (tmp_path / "store" / "data.nt").read_text()
        assert len(data.strip().splitlines()) == 5  # not the saturation

    def test_load_rejects_foreign_directory(self, tmp_path):
        import json
        (tmp_path / "meta.json").write_text(json.dumps({"format": "other"}))
        (tmp_path / "data.nt").write_text("")
        with pytest.raises(ValueError):
            RDFDatabase.load(str(tmp_path))

    def test_new_database_defaults_to_ucq(self):
        assert make_db(Strategy.REFORMULATION).reformulation_strategy == "ucq"

    def test_factorized_stores_reopen_as_factorized(self, tmp_path):
        durable = RDFDatabase(make_db(Strategy.REFORMULATION).graph,
                              strategy=Strategy.REFORMULATION,
                              reformulation_strategy="factorized",
                              storage_dir=str(tmp_path / "durable"))
        durable.save(str(tmp_path / "saved"))
        durable.close()
        reopened = RDFDatabase(storage_dir=str(tmp_path / "durable"))
        assert reopened.reformulation_strategy == "factorized"
        reopened.close()
        loaded = RDFDatabase.load(str(tmp_path / "saved"))
        assert loaded.reformulation_strategy == "factorized"

    def test_meta_without_strategy_key_loads_as_factorized(self, tmp_path):
        """Directories saved before the key existed were written under
        the old ``factorized`` default."""
        import json
        db = make_db(Strategy.REFORMULATION)
        db.save(str(tmp_path / "store"))
        meta_path = tmp_path / "store" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["reformulation_strategy"]
        meta_path.write_text(json.dumps(meta))
        loaded = RDFDatabase.load(str(tmp_path / "store"))
        assert loaded.reformulation_strategy == "factorized"
        assert loaded.query(PERSON_QUERY).to_set() == \
            db.query(PERSON_QUERY).to_set()

    def test_saved_backward_store_loads_as_saturation(self, tmp_path):
        """The retired backward-chaining regime answered q(G∞), exactly
        what saturation answers, so directories it saved reopen under
        SATURATION."""
        import json
        make_db(Strategy.NONE).save(str(tmp_path / "store"))
        meta_path = tmp_path / "store" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["strategy"] = "backward"
        meta_path.write_text(json.dumps(meta))
        loaded = RDFDatabase.load(str(tmp_path / "store"))
        assert loaded.strategy == Strategy.SATURATION
        assert loaded.query(PERSON_QUERY).to_set() == \
            make_db(Strategy.SATURATION).query(PERSON_QUERY).to_set()
        loaded.save(str(tmp_path / "store"))
        assert json.loads(meta_path.read_text())["strategy"] == "saturation"

    def test_durable_backward_store_reopens_as_saturation(self, tmp_path):
        import json
        directory = str(tmp_path / "durable")
        durable = RDFDatabase(strategy=Strategy.NONE, storage_dir=directory)
        durable.load_turtle(TURTLE)  # a WAL tail to replay on reopen
        durable.close()
        current = (tmp_path / "durable" / "CURRENT").read_text().strip()
        manifest_path = tmp_path / "durable" / current / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["strategy"] = "backward"
        manifest_path.write_text(json.dumps(manifest))
        reopened = RDFDatabase(storage_dir=directory)
        assert reopened.strategy == Strategy.SATURATION
        assert reopened.query(PERSON_QUERY).to_set() == \
            make_db(Strategy.SATURATION).query(PERSON_QUERY).to_set()
        committed = reopened.snapshot()
        reopened.close()
        manifest = json.loads(
            (tmp_path / "durable" / committed / "manifest.json").read_text())
        assert manifest["meta"]["strategy"] == "saturation"

    def test_saved_output_is_deterministic(self, tmp_path):
        db = make_db(Strategy.NONE)
        db.save(str(tmp_path / "a"))
        db.save(str(tmp_path / "b"))
        assert (tmp_path / "a" / "data.nt").read_text() == \
            (tmp_path / "b" / "data.nt").read_text()


class TestIntrospection:
    def test_stats_saturation(self):
        db = make_db(Strategy.SATURATION)
        stats = db.stats()
        assert stats["strategy"] == "saturation"
        assert stats["explicit_triples"] == 5
        assert stats["saturated_triples"] > 5
        assert stats["implicit_triples"] == \
            stats["saturated_triples"] - stats["explicit_triples"]

    def test_stats_reformulation(self):
        db = make_db(Strategy.REFORMULATION)
        db.query(PERSON_QUERY)
        stats = db.stats()
        # one graph: no copy of it carrying the schema closure
        assert "closed_triples" not in stats
        assert stats["explicit_triples"] == 5
        assert stats["cached_reformulations"] == 1
        assert stats["reformulation_strategy"] == "ucq"

    def test_queries_answered_count(self):
        db = make_db(Strategy.SATURATION)
        assert db.stats()["queries_answered"] == 0
        db.query(PERSON_QUERY)
        assert db.stats()["queries_answered"] == 1

    def test_repeated_queries_do_not_grow_the_database(self):
        """A long-running server answers queries for as long as it runs;
        the facade must keep no per-query state."""
        import gc
        import tracemalloc

        from repro.db import database

        db = make_db(Strategy.SATURATION)
        db.query(PERSON_QUERY)  # warm caches outside the measurement
        gc.collect()
        only_facade = [tracemalloc.Filter(True, database.__file__)]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only_facade)
            for __ in range(5000):
                db.query(PERSON_QUERY)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(only_facade)
        finally:
            tracemalloc.stop()
        growth = sum(stat.size_diff
                     for stat in after.compare_to(before, "filename"))
        assert growth < 10_000
        assert db.stats()["queries_answered"] == 5001


class TestAdvisor:
    def test_query_heavy_profile_prefers_saturation(self, lubm_small):
        profile = WorkloadProfile(
            queries=((workload_query("Q1"), 200.0),),
            update_batch_size=5)
        advice = recommend_strategy(lubm_small, profile, repeat=1)
        assert advice.recommended == Strategy.SATURATION
        assert advice.period_costs["saturation"] < \
            advice.period_costs["reformulation"]

    def test_update_heavy_profile_prefers_reformulation(self, lubm_small):
        profile = WorkloadProfile(
            queries=((workload_query("Q5"), 1.0),),
            schema_insert_rate=200.0, schema_delete_rate=200.0,
            update_batch_size=10)
        advice = recommend_strategy(lubm_small, profile, repeat=1)
        assert advice.recommended == Strategy.REFORMULATION

    def test_static_graph_note(self, lubm_small):
        profile = WorkloadProfile(queries=((workload_query("Q5"), 1.0),))
        advice = recommend_strategy(lubm_small, profile, repeat=1)
        assert any("static" in note for note in advice.notes)

    def test_summary_lists_costs(self, lubm_small):
        profile = WorkloadProfile(queries=((workload_query("Q5"), 1.0),))
        advice = recommend_strategy(lubm_small, profile, repeat=1)
        text = advice.summary()
        assert "recommended strategy" in text
        assert "saturation" in text and "reformulation" in text
