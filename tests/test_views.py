"""Tests for repro.views: the workload log, the miner, the cost-based
selector, materialization + incremental maintenance, view rewriting,
database/serving integration — and the differential suite pinning
exact answer parity between views-on and views-off databases across
backends, strategies and update sequences."""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.analysis import calibrate
from repro.db import AdaptiveDatabase, RDFDatabase, Strategy
from repro.db.advisor import WorkloadProfile, recommend_strategy
from repro.obs import MetricsRegistry, get_metrics, pop_registry, \
    push_registry
from repro.rdf import Graph, Triple, TriplePattern as TP
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import Variable as V
from repro.server import ServerConfig, ServingDatabase, serve_async
from repro.views import (MaterializedView, WorkloadLog, aggregate_entries,
                         match_view, mine_candidates, select_views)
from repro.views.log import LoggedQuery
from repro.sparql import BGPQuery
from repro.workloads import (RandomGraphConfig, WORKLOAD_QUERIES,
                             instance_deletions, instance_insertions,
                             random_graph, random_query)

from conftest import EX

X, Y, Z, W = V("x"), V("y"), V("z"), V("w")

#: the canonical 2-hop chain the workload repeats
CHAIN = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z)], [X, Z],
                 distinct=True)
#: the same chain up to variable renaming (the miner must merge them)
CHAIN_RENAMED = BGPQuery([TP(Z, EX.knows, W), TP(W, EX.knows, X)], [Z, X],
                         distinct=True)


@pytest.fixture(autouse=True)
def fresh_metrics():
    push_registry(MetricsRegistry())
    try:
        yield
    finally:
        pop_registry()


def social_graph(backend: str = "hash") -> Graph:
    """A dense-enough knows/likes graph that chain views pay off."""
    graph = Graph(backend=backend)
    graph.namespaces.bind("ex", EX)
    people = [EX.term(f"p{i}") for i in range(14)]
    n = len(people)
    for i, person in enumerate(people):
        graph.add(Triple(person, RDF.type, EX.Person))
        for hop in (1, 3, 5):
            graph.add(Triple(person, EX.knows, people[(i + hop) % n]))
        if i % 2 == 0:
            graph.add(Triple(person, EX.likes, people[(i + 7) % n]))
    graph.add(Triple(EX.knows, RDFS.domain, EX.Person))
    graph.add(Triple(EX.knows, RDFS.range, EX.Person))
    return graph


def install_chain(db: RDFDatabase) -> list:
    return db.install_views([CHAIN])


# ----------------------------------------------------------------------
# workload log
# ----------------------------------------------------------------------

class TestWorkloadLog:
    def test_capacity_bounds_retention(self):
        log = WorkloadLog(capacity=4)
        for i in range(10):
            log.record(CHAIN, 0.001 * i, i)
        assert len(log) == 4
        assert log.recorded == 10
        oldest = log.snapshot()[0]
        assert oldest.answers == 6  # entries 0..5 were evicted

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            WorkloadLog(capacity=0)

    def test_aggregate_merges_up_to_existential_renaming(self):
        # same chain, existential renamed + atoms reordered: one bucket
        reordered = BGPQuery([TP(W, EX.knows, Z), TP(X, EX.knows, W)],
                             [X, Z], distinct=True)
        entries = [LoggedQuery(CHAIN, 0.010, 5),
                   LoggedQuery(reordered, 0.020, 5),
                   LoggedQuery(BGPQuery([TP(X, EX.likes, Y)], [X],
                                        distinct=True), 0.001, 3)]
        rows = aggregate_entries(entries)
        assert len(rows) == 2
        by_size = {query.size(): (freq, seconds)
                   for query, freq, seconds in rows}
        assert by_size[2][0] == 2
        assert by_size[2][1] == pytest.approx(0.030)
        assert by_size[1][0] == 1

    def test_record_is_thread_safe(self):
        log = WorkloadLog(capacity=64)
        barrier = threading.Barrier(4)

        def writer():
            barrier.wait(timeout=5.0)
            for __ in range(50):
                log.record(CHAIN, 0.0, 1)

        threads = [threading.Thread(target=writer) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert log.recorded == 200
        assert len(log) == 64


# ----------------------------------------------------------------------
# miner
# ----------------------------------------------------------------------

class TestMiner:
    def test_isomorphic_queries_merge_support(self):
        workload = [(CHAIN, 3, 0.0), (CHAIN_RENAMED, 2, 0.0)]
        candidates = mine_candidates(workload, min_support=1)
        chains = [c for c in candidates if c.query.size() == 2]
        assert len(chains) == 1
        assert chains[0].frequency == 5

    def test_min_support_filters(self):
        workload = [(CHAIN, 3, 0.0), (CHAIN_RENAMED, 2, 0.0)]
        assert not [c for c in mine_candidates(workload, min_support=6)
                    if c.query.size() == 2]

    def test_subexpressions_of_larger_queries_are_candidates(self):
        triangle = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                             TP(Z, EX.likes, X)], [X], distinct=True)
        candidates = mine_candidates([(triangle, 4, 0.0)], min_support=1)
        sizes = {c.query.size() for c in candidates}
        assert 2 in sizes and 3 in sizes

    def test_variable_predicates_are_ineligible(self):
        p = V("p")
        query = BGPQuery([TP(X, p, Y), TP(Y, p, Z)], [X, Z], distinct=True)
        assert mine_candidates([(query, 5, 0.0)], min_support=1) == []

    def test_max_atoms_caps_candidate_size(self):
        atoms = [TP(V(f"v{i}"), EX.knows, V(f"v{i + 1}")) for i in range(4)]
        query = BGPQuery(atoms, [V("v0"), V("v4")], distinct=True)
        candidates = mine_candidates([(query, 3, 0.0)], max_atoms=2,
                                     min_support=1)
        assert candidates
        assert max(c.query.size() for c in candidates) == 2


# ----------------------------------------------------------------------
# selector
# ----------------------------------------------------------------------

class TestSelector:
    def test_selects_frequent_join_under_budget(self):
        graph = social_graph()
        candidates = mine_candidates([(CHAIN, 5, 0.0)], min_support=1)
        selected, __ = select_views(graph, candidates)
        assert selected
        assert selected[0].candidate.query.size() >= 2
        assert selected[0].rows > 0

    def test_single_atom_candidates_are_skipped(self):
        graph = social_graph()
        single = BGPQuery([TP(X, EX.knows, Y)], [X, Y], distinct=True)
        candidates = mine_candidates([(single, 9, 0.0)], min_support=1)
        selected, __ = select_views(graph, candidates)
        assert selected == []

    def test_budget_rejects_oversized_views(self):
        graph = social_graph()
        candidates = mine_candidates([(CHAIN, 5, 0.0)], min_support=1)
        selected, rejected = select_views(graph, candidates, budget_rows=1)
        assert selected == []
        assert rejected

    def test_absent_predicates_have_no_benefit(self):
        graph = social_graph()
        ghost = BGPQuery([TP(X, EX.ghost, Y), TP(Y, EX.ghost, Z)],
                         [X, Z], distinct=True)
        candidates = mine_candidates([(ghost, 9, 0.0)], min_support=1)
        selected, __ = select_views(graph, candidates)
        assert selected == []


# ----------------------------------------------------------------------
# materialization + delta maintenance (through the database)
# ----------------------------------------------------------------------

class TestMaterialization:
    def test_refresh_populates_sorted_unique_rows(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        stats = db.views.stats()["views"][0]
        assert stats["rows"] == len(db.query(CHAIN))
        assert stats["arity"] == 2
        assert stats["version"] == 1

    def test_insert_delta_adds_rows_without_refresh(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        before = db.views.stats()
        db.insert([Triple(EX.term("p0"), EX.knows, EX.term("p9"))])
        after = db.views.stats()
        assert after["maintenance_rows_added"] > 0
        assert after["refreshes"] == before["refreshes"]
        assert set(db.query(CHAIN).to_set()) == set(
            RDFDatabase(db.graph, strategy=Strategy.NONE)
            .query(CHAIN).to_set())

    def test_delete_delta_removes_rows(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        victim = Triple(EX.term("p0"), EX.knows, EX.term("p1"))
        db.delete([victim])
        stats = db.views.stats()
        assert stats["maintenance_rows_removed"] > 0
        assert set(db.query(CHAIN).to_set()) == set(
            RDFDatabase(db.graph, strategy=Strategy.NONE)
            .query(CHAIN).to_set())

    def test_version_bumps_only_on_change(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        v1 = db.views.stats()["views"][0]["version"]
        # an update that cannot touch the view leaves its version alone
        db.insert([Triple(EX.term("p0"), EX.unrelated, EX.term("p1"))])
        assert db.views.stats()["views"][0]["version"] == v1
        db.insert([Triple(EX.term("p0"), EX.knows, EX.term("p9"))])
        assert db.views.stats()["views"][0]["version"] > v1

    def test_drop_views_disables_rewriting(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        assert db.view_hits_for(CHAIN)
        db.drop_views()
        assert db.view_hits_for(CHAIN) == ()
        assert len(db.views) == 0


# ----------------------------------------------------------------------
# rewriter (match-level unit tests)
# ----------------------------------------------------------------------

class TestRewriterMatching:
    def test_full_match_up_to_renaming(self):
        view = MaterializedView("v", CHAIN)
        match = match_view(CHAIN_RENAMED, view)
        assert match is not None
        assert match.is_full(CHAIN_RENAMED)
        assert sorted(match.provided.values()) == [0, 1]

    def test_constant_endpoint_becomes_filter(self):
        view = MaterializedView("v", CHAIN)
        query = BGPQuery([TP(EX.term("p0"), EX.knows, Y),
                          TP(Y, EX.knows, Z)], [Z], distinct=True)
        match = match_view(query, view)
        assert match is not None
        assert match.const_filters == ((0, EX.term("p0")),)

    def test_shared_endpoint_becomes_pair_filter(self):
        view = MaterializedView("v", CHAIN)
        cycle = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, X)], [X],
                         distinct=True)
        match = match_view(cycle, view)
        assert match is not None
        assert match.pair_filters == ((0, 1),)

    def test_projected_away_join_variable_blocks_match(self):
        # the view hides ?y; a query that *asks for* the middle node
        # cannot be answered from it
        view = MaterializedView("v", CHAIN)
        query = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z)],
                         [X, Y, Z], distinct=True)
        assert match_view(query, view) is None

    def test_residual_atom_sharing_existential_blocks_match(self):
        view = MaterializedView("v", CHAIN)
        query = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                          TP(Y, EX.likes, W)], [X, Z], distinct=True)
        match = match_view(query, view)
        # ?y joins a residual atom, so a match must expose it — the
        # chain view cannot; partial cover through it is unsound here
        assert match is None or Y in match.provided

    def test_bag_semantics_queries_are_not_rewritten(self):
        view = MaterializedView("v", CHAIN)
        bag = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z)], [X, Z])
        assert match_view(bag, view) is None

    def test_duplicate_atom_sharing_existential_is_conservative(self):
        # a duplicated conjunct repeats the hidden join variable; the
        # matcher must refuse rather than guess, and the database then
        # answers through the base plan with identical results
        view = MaterializedView("v", CHAIN)
        query = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                          TP(X, EX.knows, Y)], [X, Z], distinct=True)
        assert match_view(query, view) is None
        graph = social_graph()
        viewed = RDFDatabase(graph, strategy=Strategy.NONE,
                             enable_views=True)
        install_chain(viewed)
        base = RDFDatabase(graph, strategy=Strategy.NONE)
        assert viewed.query(query).to_set() == base.query(query).to_set()


# ----------------------------------------------------------------------
# database integration: rewrite answers + attribution
# ----------------------------------------------------------------------

class TestDatabaseIntegration:
    def test_rewrite_answers_equal_base_answers(self):
        graph = social_graph()
        base = RDFDatabase(graph, strategy=Strategy.NONE)
        viewed = RDFDatabase(graph, strategy=Strategy.NONE,
                             enable_views=True)
        install_chain(viewed)
        assert viewed.query(CHAIN).to_set() == base.query(CHAIN).to_set()
        assert viewed.views.stats()["rewrite_hits"] >= 1

    def test_view_hits_for_names_the_view(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        names = install_chain(db)
        assert db.view_hits_for(CHAIN) == tuple(names)
        other = BGPQuery([TP(X, EX.likes, Y)], [X], distinct=True)
        assert db.view_hits_for(other) == ()

    def test_partial_cover_joins_residual_atoms(self):
        graph = social_graph()
        query = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                          TP(Z, EX.likes, W)], [X, Z], distinct=True)
        base = RDFDatabase(graph, strategy=Strategy.NONE)
        viewed = RDFDatabase(graph, strategy=Strategy.NONE,
                             enable_views=True)
        install_chain(viewed)
        assert viewed.query(query).to_set() == base.query(query).to_set()

    def test_advise_then_install_roundtrip(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        report = db.advise_views(workload=[(CHAIN, 5, 0.01)],
                                 min_support=1)
        assert report["candidates"] >= 1
        assert report["selected"]
        names = db.install_views(list(report["selected"]))
        assert names
        assert db.view_hits_for(CHAIN) == tuple(names[:1])

    def test_mine_workload_reads_the_query_log(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE)
        for __ in range(3):
            db.query(CHAIN)
        rows = db.mine_workload()
        assert rows
        query, frequency, __ = rows[0]
        assert frequency == 3
        assert query.size() == 2

    def test_stats_report_views_section(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        info = db.stats()
        assert info["views"]["enabled"] is True
        assert len(info["views"]["views"]) == 1


class TestFingerprint:
    def test_fully_covered_query_has_fingerprint(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        assert db.view_fingerprint(CHAIN) is not None
        partial = BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                            TP(Z, EX.likes, W)], [X, W], distinct=True)
        assert db.view_fingerprint(partial) is None

    def test_fingerprint_survives_unrelated_updates(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        before = db.view_fingerprint(CHAIN)
        db.insert([Triple(EX.term("p0"), EX.unrelated, EX.term("p1"))])
        assert db.view_fingerprint(CHAIN) == before

    def test_fingerprint_changes_when_the_view_changes(self):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        before = db.view_fingerprint(CHAIN)
        db.insert([Triple(EX.term("p0"), EX.knows, EX.term("p9"))])
        assert db.view_fingerprint(CHAIN) != before

    def test_reinstall_changes_the_fingerprint(self):
        # versions restart on re-install; the generation must keep
        # old cache entries from aliasing new content
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        before = db.view_fingerprint(CHAIN)
        install_chain(db)
        assert db.view_fingerprint(CHAIN) != before


# ----------------------------------------------------------------------
# differential parity: views on == views off, everywhere
# ----------------------------------------------------------------------

STRATEGY_COMBOS = [
    (Strategy.NONE, "factorized"),
    (Strategy.SATURATION, "factorized"),
    (Strategy.REFORMULATION, "factorized"),
    (Strategy.REFORMULATION, "ucq"),
    (Strategy.REFORMULATION, "encoded"),
]

BACKENDS = ["hash", "columnar"]


def _pair(graph, backend, strategy, reform, workload):
    """A views-off / views-on database pair with mined views installed."""
    base = RDFDatabase(graph, strategy=strategy, backend=backend,
                       reformulation_strategy=reform)
    viewed = RDFDatabase(graph, strategy=strategy, backend=backend,
                         reformulation_strategy=reform, enable_views=True)
    report = viewed.advise_views(
        workload=[(q, 3, 0.0) for q in workload], min_support=1)
    if report["selected"]:
        viewed.install_views(list(report["selected"]))
    return base, viewed


def _assert_parity(base, viewed, queries):
    for query in queries:
        assert viewed.query(query).to_set() == base.query(query).to_set(), \
            query.to_sparql()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy,reform", STRATEGY_COMBOS)
def test_parity_chain_workload_with_updates(backend, strategy, reform):
    graph = social_graph()
    queries = [
        CHAIN,
        BGPQuery([TP(EX.term("p0"), EX.knows, Y), TP(Y, EX.knows, Z)],
                 [Z], distinct=True),
        BGPQuery([TP(X, EX.knows, Y), TP(Y, EX.knows, Z),
                  TP(Z, EX.likes, W)], [X, W], distinct=True),
        BGPQuery([TP(X, RDF.type, EX.Person), TP(X, EX.knows, Y)], [X],
                 distinct=True),
    ]
    base, viewed = _pair(graph, backend, strategy, reform, queries)
    assert len(viewed.views) > 0  # the workload must actually mine views
    _assert_parity(base, viewed, queries)
    inserts = [Triple(EX.term("p1"), EX.knows, EX.term("p8")),
               Triple(EX.term("p2"), EX.likes, EX.term("p3")),
               Triple(EX.term("pNew"), RDF.type, EX.Person)]
    base.insert(inserts)
    viewed.insert(inserts)
    _assert_parity(base, viewed, queries)
    deletes = [Triple(EX.term("p0"), EX.knows, EX.term("p1")),
               Triple(EX.term("p2"), EX.likes, EX.term("p3"))]
    base.delete(deletes)
    viewed.delete(deletes)
    _assert_parity(base, viewed, queries)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy,reform", STRATEGY_COMBOS)
def test_parity_lubm_workload_with_updates(lubm_small, backend, strategy,
                                           reform):
    queries = [WORKLOAD_QUERIES[qid][1] for qid in ("Q3", "Q7", "Q9", "Q10")]
    base, viewed = _pair(lubm_small, backend, strategy, reform, queries)
    _assert_parity(base, viewed, queries)
    batch = instance_insertions(lubm_small, 6, seed=5)
    base.insert(batch.triples)
    viewed.insert(batch.triples)
    _assert_parity(base, viewed, queries)
    removals = instance_deletions(lubm_small, 6, seed=7)
    base.delete(removals.triples)
    viewed.delete(removals.triples)
    _assert_parity(base, viewed, queries)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parity_random_workload(backend, seed):
    config = RandomGraphConfig(seed=seed, instance_triples=40)
    graph = random_graph(config, seed=seed)
    queries = [random_query(config, qseed, max_atoms=3,
                            allow_variable_predicates=False)
               for qseed in range(seed * 10, seed * 10 + 6)]
    for strategy, reform in STRATEGY_COMBOS:
        base, viewed = _pair(graph, backend, strategy, reform, queries)
        _assert_parity(base, viewed, queries)


# ----------------------------------------------------------------------
# durability: save/load and the durable store keep views
# ----------------------------------------------------------------------

class TestDurability:
    def test_save_load_roundtrip_keeps_views(self, tmp_path):
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         enable_views=True)
        install_chain(db)
        expected = db.query(CHAIN).to_set()
        db.save(str(tmp_path / "saved"))
        loaded = RDFDatabase.load(str(tmp_path / "saved"))
        assert len(loaded.views) == 1
        assert loaded.view_hits_for(CHAIN)
        assert loaded.query(CHAIN).to_set() == expected

    def test_durable_store_recovers_views_after_updates(self, tmp_path):
        where = str(tmp_path / "store")
        db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                         storage_dir=where, enable_views=True)
        install_chain(db)
        db.insert([Triple(EX.term("p0"), EX.knows, EX.term("p9"))])
        expected = db.query(CHAIN).to_set()
        db.close()
        recovered = RDFDatabase(storage_dir=where)
        assert len(recovered.views) == 1
        assert recovered.view_hits_for(CHAIN)
        assert recovered.query(CHAIN).to_set() == expected
        recovered.close()


# ----------------------------------------------------------------------
# serving: log, cache partial invalidation, endpoints
# ----------------------------------------------------------------------

def _serving(graph=None, **kwargs) -> ServingDatabase:
    db = RDFDatabase(graph or social_graph(), strategy=Strategy.NONE,
                     enable_views=True)
    return ServingDatabase(db, **kwargs)


UNCOVERED = "SELECT DISTINCT ?x WHERE { ?x <http://example.org/likes> ?y }"


class TestServingViews:
    def test_queries_are_recorded_in_the_workload_log(self):
        svc = _serving(workload_capacity=8)
        for __ in range(3):
            svc.query(CHAIN.to_sparql())
        info = svc.stats()["workload_log"]
        assert info["recorded"] == 3
        assert info["capacity"] == 8

    def test_views_advise_apply_installs_and_attributes(self):
        svc = _serving()
        for __ in range(4):
            svc.query(CHAIN.to_sparql())
        report = svc.views_advise(apply=True, min_support=2)
        assert report["applied"] is True
        assert report["installed"]
        outcome = svc.query(CHAIN.to_sparql())
        assert outcome.views == tuple(report["installed"])

    def test_partial_invalidation_retains_covered_entries(self):
        svc = _serving()
        install_chain(svc.db)
        covered = CHAIN.to_sparql()
        assert svc.query(covered).cached is False
        assert svc.query(UNCOVERED).cached is False
        assert svc.query(covered).cached is True
        assert svc.query(UNCOVERED).cached is True
        # an update that leaves the chain view untouched: the covered
        # entry survives, the version-keyed one is dropped
        svc.update("INSERT DATA { <http://example.org/a> "
                   "<http://example.org/unrelated> "
                   "<http://example.org/b> }")
        assert svc.query(covered).cached is True
        assert svc.query(UNCOVERED).cached is False

    def test_view_touching_update_invalidates_covered_entries(self):
        svc = _serving()
        install_chain(svc.db)
        covered = CHAIN.to_sparql()
        first = svc.query(covered)
        assert svc.query(covered).cached is True
        svc.update("INSERT DATA { <http://example.org/p0> "
                    "<http://example.org/knows> "
                    "<http://example.org/p9> }")
        refreshed = svc.query(covered)
        assert refreshed.cached is False
        assert len(refreshed.results) > len(first.results)

    def test_cache_counters_use_obs_registry(self):
        svc = _serving()
        svc.query(UNCOVERED)
        svc.query(UNCOVERED)
        metrics = get_metrics()
        assert metrics.counter("cache.misses").value == 1
        assert metrics.counter("cache.hits").value == 1

    def test_stats_expose_cache_capacity_and_views(self):
        svc = _serving(cache_size=7)
        info = svc.stats()
        assert info["cache"]["capacity"] == 7
        assert "views" in svc.views_info()


@pytest.fixture
def views_http_server():
    db = RDFDatabase(social_graph(), strategy=Strategy.NONE,
                     enable_views=True)
    install_chain(db)
    server = serve_async(db, ServerConfig(port=0, workers=2, queue_depth=4,
                                          timeout=30.0))
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read()


def _post(url, payload):
    body = urllib.parse.urlencode(payload).encode()
    request = urllib.request.Request(
        url, data=body,
        headers={"Content-Type": "application/x-www-form-urlencoded"})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read()


class TestHTTPViews:
    def test_view_hit_header_on_rewritten_queries(self, views_http_server):
        url = (views_http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": CHAIN.to_sparql()}))
        status, headers, __ = _get(url)
        assert status == 200
        assert headers.get("X-Repro-View-Hit") == "v0"
        url = (views_http_server.base_url + "/sparql?"
               + urllib.parse.urlencode({"query": UNCOVERED}))
        __, headers, __b = _get(url)
        assert "X-Repro-View-Hit" not in headers

    def test_get_views_reports_installed_set(self, views_http_server):
        status, __, body = _get(views_http_server.base_url + "/views")
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert len(payload["views"]) == 1
        assert payload["views"][0]["name"] == "v0"
        assert payload["workload_log"]["capacity"] > 0

    def test_post_views_advise(self, views_http_server):
        base = views_http_server.base_url
        for __ in range(3):
            _get(base + "/sparql?"
                 + urllib.parse.urlencode({"query": CHAIN.to_sparql()}))
        status, __, body = _post(base + "/views/advise",
                                 {"apply": "true", "min_support": "2"})
        assert status == 200
        payload = json.loads(body)
        assert payload["applied"] is True
        assert payload["workload_queries"] >= 3

    def test_views_advise_rejects_bad_params(self, views_http_server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(views_http_server.base_url + "/views/advise",
                  {"min_support": "many"})
        assert info.value.code == 400

    def test_stats_include_view_counters(self, views_http_server):
        _get(views_http_server.base_url + "/sparql?"
             + urllib.parse.urlencode({"query": CHAIN.to_sparql()}))
        __, __h, body = _get(views_http_server.base_url + "/stats")
        payload = json.loads(body)
        assert payload["server"]["views"]["rewrite_hits"] >= 1
        assert payload["server"]["workload_log"]["recorded"] >= 1


# ----------------------------------------------------------------------
# advisor + adaptive integration
# ----------------------------------------------------------------------

class TestAdvisorViewsArm:
    def test_views_arm_is_measured_and_reported(self):
        graph = social_graph()
        profile = WorkloadProfile(queries=[(CHAIN, 5.0)])
        advice = recommend_strategy(graph, profile, repeat=1,
                                    consider_views=True)
        assert "saturation+views" in advice.period_costs
        if advice.use_views:
            assert advice.recommended == Strategy.SATURATION
            assert advice.view_definitions

    def test_views_arm_absent_by_default(self):
        graph = social_graph()
        profile = WorkloadProfile(queries=[(CHAIN, 2.0)])
        advice = recommend_strategy(graph, profile, repeat=1)
        assert "saturation+views" not in advice.period_costs
        assert advice.use_views is False


class TestAdaptiveViews:
    def test_review_window_installs_mined_views(self):
        calibration = calibrate(size=100, repeat=1)
        db = AdaptiveDatabase(social_graph(), strategy=Strategy.SATURATION,
                              review_interval=6, patience=3,
                              calibration=calibration, enable_views=True)
        for __ in range(6):
            db.query(CHAIN)
        assert get_metrics().counter("adaptive.view_installs").value >= 1
        base = RDFDatabase(db.graph, strategy=Strategy.NONE)
        assert db.query(CHAIN).to_set() == base.query(CHAIN).to_set()
