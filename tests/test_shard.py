"""The sharded serving tier's building blocks: the wire protocol, the
scatter-gather planner and merge, cluster lifecycle and failure
handling, and the version-vector cache."""

import socket
import signal
import os
import time

import pytest

from repro.db import Strategy
from repro.distributed.partition import subject_owner
from repro.obs import MetricsRegistry, pop_registry, push_registry
from repro.rdf import Graph, Triple
from repro.rdf.namespaces import RDF, RDFS
from repro.rdf.terms import BlankNode, URI, Variable
from repro.rdf.triples import TriplePattern
from repro.server import ShardUnavailableError, build_sharded_database
from repro.server.shardplan import merge_bgp_rows, plan_bgp, plan_query
from repro.server.shardwire import (FrameError, recv_frame, send_frame)
from repro.sparql.parser import parse_query

from conftest import EX


@pytest.fixture(autouse=True)
def fresh_metrics():
    """Serving counters must not leak between tests."""
    push_registry(MetricsRegistry())
    try:
        yield
    finally:
        pop_registry()


# ----------------------------------------------------------------------
# the partitioning contract
# ----------------------------------------------------------------------

class TestSubjectOwner:
    def test_deterministic_and_in_range(self):
        terms = [EX.term(f"s{i}") for i in range(100)]
        for shards in (1, 2, 3, 8):
            owners = [subject_owner(term, shards) for term in terms]
            assert owners == [subject_owner(term, shards) for term in terms]
            assert all(0 <= owner < shards for owner in owners)

    def test_spreads_across_shards(self):
        owners = {subject_owner(EX.term(f"s{i}"), 4) for i in range(64)}
        assert owners == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# the frame protocol
# ----------------------------------------------------------------------

class TestShardWire:
    def test_roundtrip_preserves_terms_and_triples(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ship",
                       "add": [Triple(EX.Tom, RDF.type, EX.Cat)],
                       "term": EX.Tom}
            send_frame(a, payload)
            received = recv_frame(b)
            assert received == payload
            assert received["add"][0].s == EX.Tom
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1000).to_bytes(4, "big") + b"short")
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_zero_length_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((0).to_bytes(4, "big"))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------

def _parse(text):
    return parse_query(text, None)


class TestShardPlanner:
    def test_constant_subject_star_routes_to_owner(self):
        query = _parse(f"SELECT ?c WHERE {{ <{EX.Tom}> "
                       f"<{RDF.type}> ?c . <{EX.Tom}> <{EX.age}> ?a }}")
        plan = plan_bgp(query, shards=4, colocated=True)
        assert len(plan.subplans) == 1
        assert plan.subplans[0].targets == (subject_owner(EX.Tom, 4),)
        assert plan.passthrough

    def test_variable_subject_scatters_everywhere(self):
        query = _parse(f"SELECT ?x WHERE {{ ?x <{RDF.type}> <{EX.Cat}> }}")
        plan = plan_bgp(query, shards=3, colocated=True)
        assert plan.subplans[0].targets == (0, 1, 2)
        assert not plan.passthrough

    def test_schema_only_star_routes_to_one_replica(self):
        query = _parse(f"SELECT ?c WHERE {{ ?c <{RDFS.subClassOf}> "
                       f"<{EX.Mammal}> }}")
        plan = plan_bgp(query, shards=4, colocated=True)
        # replicated state: any single shard answers, picked stably
        assert len(plan.subplans[0].targets) == 1
        assert plan.subplans[0].targets[0] in range(4)
        again = plan_bgp(query, shards=4, colocated=True)
        assert again.subplans[0].targets == plan.subplans[0].targets
        # different schema-only texts spread across the replicas
        from repro.server.shardplan import _replica_choice
        picks = {_replica_choice(f"query variant {i}", 4)
                 for i in range(32)}
        assert len(picks) > 1

    def test_two_stars_become_two_subplans(self):
        query = _parse(f"SELECT ?x ?y WHERE {{ ?x <{EX.hasFriend}> ?y . "
                       f"?y <{RDF.type}> <{EX.Person}> }}")
        plan = plan_bgp(query, shards=2, colocated=True)
        assert len(plan.subplans) == 2
        assert not plan.passthrough

    def test_reformulation_pushes_single_atoms_scattered(self):
        query = _parse(f"SELECT ?x WHERE {{ <{EX.Tom}> <{RDF.type}> ?x . "
                       f"<{EX.Tom}> <{EX.age}> ?a }}")
        plan = plan_bgp(query, shards=4, colocated=False)
        # per-atom decomposition, each atom scattered to all shards:
        # rewriting may move the subject, so owner routing is unsound
        assert len(plan.subplans) == 2
        assert all(sp.targets == (0, 1, 2, 3) for sp in plan.subplans)

    def test_blank_nodes_become_shared_join_variables(self):
        patterns = [
            TriplePattern(Variable("x"), URI(str(EX.hasFriend)),
                          BlankNode("b0")),
            TriplePattern(BlankNode("b0"), URI(str(RDF.type)),
                          URI(str(EX.Person))),
        ]
        from repro.sparql.ast import BGPQuery
        query = BGPQuery(patterns, distinguished=[Variable("x")])
        plan = plan_bgp(query, shards=2, colocated=True)
        variables = {v for sp in plan.subplans for v in sp.variables}
        names = {v.name for v in variables}
        assert "__bnode_b0" in names  # the two stars join on it

    def test_union_plans_every_branch(self):
        query = _parse(
            f"SELECT ?x WHERE {{ {{ ?x <{RDF.type}> <{EX.Cat}> }} UNION "
            f"{{ ?x <{RDF.type}> <{EX.Dog}> }} }}")
        plan = plan_query(query, shards=2, colocated=True)
        assert len(plan.branches) == 2


class TestMergeRows:
    def _plan(self, text, shards=2, colocated=True):
        return plan_bgp(_parse(text), shards, colocated)

    def test_join_and_projection(self):
        plan = self._plan(
            f"SELECT ?x WHERE {{ ?x <{EX.hasFriend}> ?y . "
            f"?y <{RDF.type}> <{EX.Person}> }}")
        gathered = [
            [(EX.Anne, EX.Marie), (EX.Bob, EX.Carl)],   # ?x ?y
            [(EX.Marie,)],                              # ?y
        ]
        results = merge_bgp_rows(plan, gathered)
        assert results.rows() == [(EX.Anne,)]

    def test_scattered_replicas_dedup_preserves_arrival_order(self):
        plan = self._plan(
            f"SELECT ?x WHERE {{ ?x <{RDF.type}> <{EX.Cat}> }}")
        # a schema-scattered fragment echoes a replica per shard; dedup
        # keeps the first arrival's position (no per-row value sort)
        gathered = [[(EX.Tom,), (EX.Tom,), (EX.Felix,)]]
        results = merge_bgp_rows(plan, gathered)
        assert results.rows() == [(EX.Tom,), (EX.Felix,)]

    def test_limit_applies_after_dedup_in_arrival_order(self):
        plan = self._plan(
            f"SELECT ?x WHERE {{ ?x <{RDF.type}> <{EX.Cat}> . "
            f"?x <{EX.age}> ?a }} LIMIT 1", shards=2)
        # single star but two target shards: not passthrough, so the
        # merge dedups in arrival order and LIMIT cuts afterwards
        assert not plan.passthrough
        assert plan.subplans[0].variables == (Variable("x"), Variable("a"))
        age9 = EX.term("age9")
        gathered = [[(EX.Tom, age9), (EX.Ann, age9)]]
        results = merge_bgp_rows(plan, gathered)
        assert results.rows() == [(EX.Tom,)]


# ----------------------------------------------------------------------
# cluster lifecycle and failure handling
# ----------------------------------------------------------------------

class TestClusterLifecycle:
    def test_build_rejects_backward_strategy(self, paper_graph):
        with pytest.raises(ValueError, match="[Bb]ackward"):
            build_sharded_database(paper_graph, 2,
                                   strategy=Strategy.BACKWARD)

    def test_build_rejects_instance_instance_join_rulesets(self,
                                                           paper_graph):
        with pytest.raises(ValueError, match="instance"):
            build_sharded_database(paper_graph, 2, ruleset="rdfs-plus")

    def test_build_rejects_nonpositive_shard_count(self, paper_graph):
        with pytest.raises(ValueError):
            build_sharded_database(paper_graph, 0)

    def test_healthz_reports_every_shard(self, paper_graph):
        with build_sharded_database(paper_graph, 3) as sharded:
            health = sharded.healthz()
            assert health["status"] == "ok"
            assert health["shards"] == 3
            assert len(health["shard_pids"]) == 3
            assert all(isinstance(pid, int)
                       for pid in health["shard_pids"])

    def test_version_vector_keys_the_cache(self, paper_graph):
        text = (f"SELECT ?c WHERE {{ <{EX.Tom}> <{RDF.type}> ?c }}")
        with build_sharded_database(paper_graph, 2) as sharded:
            first = sharded.query(text)
            assert not first.cached
            assert sharded.query(text).cached
            sharded.update(
                f"INSERT DATA {{ <{EX.Jerry}> <{RDF.type}> <{EX.Cat}> }}")
            after = sharded.query(text)
            assert not after.cached          # any shard movement invalidates
            assert after.version > first.version

    def test_killed_shard_degrades_cleanly(self, paper_graph):
        with build_sharded_database(paper_graph, 3) as sharded:
            victim = sharded.healthz()["shard_pids"][1]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 5.0
            while time.time() < deadline:  # sc: allow(SC303): test poll
                if sharded.healthz()["status"] == "degraded":
                    break
                time.sleep(0.05)
            health = sharded.healthz()
            assert health["status"] == "degraded"
            assert 1 in health["shards_down"]
            with pytest.raises(ShardUnavailableError):
                sharded.query(
                    f"SELECT ?x WHERE {{ ?x <{RDF.type}> <{EX.Cat}> }}")

    def test_close_is_idempotent(self, paper_graph):
        sharded = build_sharded_database(paper_graph, 2)
        sharded.close()
        sharded.close()

    def test_snapshot_and_views_are_unavailable(self, paper_graph):
        with build_sharded_database(paper_graph, 2) as sharded:
            assert not sharded.can_snapshot
            with pytest.raises(ValueError):
                sharded.snapshot()
            assert sharded.views_info()["enabled"] is False

    def test_stats_shape(self, paper_graph):
        with build_sharded_database(paper_graph, 2) as sharded:
            sharded.query(
                f"SELECT ?x WHERE {{ ?x <{RDF.type}> <{EX.Cat}> }}")
            stats = sharded.stats()
            assert stats["sharded"] is True
            assert stats["shards"] == 2
            assert stats["served_queries"] == 1
            assert set(stats["cache"]) >= {"size", "capacity", "hits",
                                           "misses"}
            assert len(stats["shards_detail"]) == 2

