"""Unit tests for the columnar sorted-run index and the join layer.

The differential suite (test_columnar_differential.py) checks the
columnar backend against the hash backend on whole workloads; the
tests here pin down the layer's own mechanics — LSM merging,
tombstones, value blocks, plan shapes — which the differential tests
would only catch indirectly.
"""

from array import array

import pytest

from repro import kernels

from repro.cancellation import (CancellationToken, OperationCancelled,
                                cancellation_scope)
from repro.rdf import Graph, Triple
from repro.rdf.columnar import ColumnarTripleIndex, MERGE_MIN_DELTA
from repro.rdf.index import TripleIndex
from repro.rdf.namespaces import RDF, REPRO as EX
from repro.rdf.terms import Variable
from repro.rdf.triples import TriplePattern
from repro.reasoning import saturate
from repro.reasoning.rulesets import RDFS_FULL
from repro.sparql.ast import BGPQuery
from repro.sparql.evaluator import evaluate
from repro.sparql.joins import compile_bgp
from repro.workloads import LUBMConfig, generate_lubm
from repro.workloads.queries import WORKLOAD_QUERIES

V = Variable


def triples_numbered(n, stride=1):
    """n distinct encoded triples with predictable component spread."""
    return [(i * stride, (i * 7) % 13, (i * 3) % 11) for i in range(n)]


# ----------------------------------------------------------------------
# storage mechanics
# ----------------------------------------------------------------------

class TestOrderRuns:
    def test_add_contains_iter_sorted(self):
        index = ColumnarTripleIndex()
        batch = [(3, 1, 2), (1, 2, 3), (2, 0, 1), (1, 0, 0)]
        for t in batch:
            assert index.add(t)
        assert len(index) == 4
        assert all(t in index for t in batch)
        assert (9, 9, 9) not in index
        assert list(index) == sorted(batch)  # spo is the primary order

    def test_add_deduplicates(self):
        index = ColumnarTripleIndex()
        assert index.add((1, 2, 3))
        assert not index.add((1, 2, 3))
        assert len(index) == 1

    def test_discard_and_tombstone_resurrection(self):
        index = ColumnarTripleIndex()
        index.add_batch(triples_numbered(MERGE_MIN_DELTA * 2))
        # deleting a merged-in triple goes through the tombstone set
        victim = (0, 0, 0)
        assert victim in index
        assert index.discard(victim)
        assert victim not in index
        assert not index.discard(victim)
        # re-adding resurrects from the tombstone, not the delta log
        assert index.add(victim)
        assert victim in index
        assert len(index) == MERGE_MIN_DELTA * 2

    def test_merge_bumps_generation_and_empties_delta(self):
        index = ColumnarTripleIndex()
        generation = index.generation
        index.add_batch(triples_numbered(MERGE_MIN_DELTA + 10))
        assert index.generation > generation
        for stats in index.run_stats().values():
            assert stats["delta"] == 0
            assert stats["dead"] == 0
            assert stats["main"] == MERGE_MIN_DELTA + 10

    def test_compact_merges_all_orders(self):
        index = ColumnarTripleIndex()
        index.add_batch(triples_numbered(MERGE_MIN_DELTA * 2))
        index.add((999, 999, 999))          # lands in the delta logs
        index.discard((0, 0, 0))            # lands in the tombstones
        assert index.compact() == 3
        for stats in index.run_stats().values():
            assert stats["delta"] == 0 and stats["dead"] == 0
        assert (999, 999, 999) in index
        assert (0, 0, 0) not in index
        assert index.compact() == 0  # idempotent, no generation churn

    def test_values_block_matches_scan_across_layouts(self):
        index = ColumnarTripleIndex()
        index.add_batch([(5, 1, o) for o in range(MERGE_MIN_DELTA + 20)])
        index.add_batch([(5, 2, o) for o in range(7)])
        runs = index._runs[0]  # spo
        # clean, delta-resident and tombstoned layouts all agree
        for mutate in (lambda: None,
                       lambda: index.add((5, 1, 10_000)),
                       lambda: index.discard((5, 1, 3))):
            mutate()
            expected = [t[2] for t in runs.scan((5, 1))]
            assert list(runs.values_block(5, 1)) == expected
            assert list(index.values_block_order(0, 5, 1)) == expected
            assert list(index.values_reader_order(0, 5)(1)) == expected
        assert list(runs.values_block(5, 3)) == []
        assert list(index.values_reader_order(0, 5)(3)) == []

    def test_copy_is_independent(self):
        index = ColumnarTripleIndex()
        index.add_batch(triples_numbered(10))
        clone = index.copy()
        clone.add((77, 77, 77))
        index.discard((0, 0, 0))
        assert (77, 77, 77) in clone and (77, 77, 77) not in index
        assert (0, 0, 0) in clone and (0, 0, 0) not in index

    def test_match_and_count_agree_with_hash_index(self):
        batch = triples_numbered(300, stride=2)
        columnar = ColumnarTripleIndex()
        columnar.add_batch(batch)
        hashed = TripleIndex()
        for t in batch:
            hashed.add(t)
        shapes = [(None, None, None), (4, None, None), (None, 7, None),
                  (None, None, 9), (4, 0, None), (4, None, 6),
                  (None, 7, 3), (4, 0, 6)]
        for shape in shapes:
            assert sorted(columnar.match(*shape)) == sorted(hashed.match(*shape))
            assert columnar.count(*shape) == hashed.count(*shape)

    def test_restricted_orders_fall_back_to_filtering(self):
        batch = triples_numbered(100)
        narrow = ColumnarTripleIndex(orders=("spo",))
        narrow.add_batch(batch)
        full = ColumnarTripleIndex()
        full.add_batch(batch)
        for shape in [(None, 0, None), (None, None, 3), (None, 7, 3)]:
            assert sorted(narrow.match(*shape)) == sorted(full.match(*shape))
        assert narrow.order_for((1, 2), 0) is None
        assert full.order_for((1, 2), 0) is not None

    def test_order_for_checks_prefix_and_next(self):
        index = ColumnarTripleIndex()  # spo, pos, osp
        assert index.permutation(index.order_for((0, 1), 2)) == (0, 1, 2)
        assert index.permutation(index.order_for((1, 2), 0)) == (1, 2, 0)
        assert index.permutation(index.order_for((0, 2), 1)) == (2, 0, 1)
        assert index.order_for((0,), 2) is None  # spo continues with p


# ----------------------------------------------------------------------
# graph-level backend surface
# ----------------------------------------------------------------------

class TestGraphBackend:
    def test_backend_selection_and_validation(self):
        assert Graph().backend == "hash"
        assert Graph(backend="columnar").backend == "columnar"
        with pytest.raises(ValueError, match="unknown backend"):
            Graph(backend="btree")

    def test_to_backend_round_trip(self):
        graph = Graph()
        for i in range(50):
            graph.add(Triple(EX.term(f"s{i % 7}"), EX.term(f"p{i % 3}"),
                             EX.term(f"o{i}")))
        columnar = graph.to_backend("columnar")
        assert columnar.backend == "columnar"
        assert columnar == graph
        assert columnar.to_backend("hash") == graph

    def test_copy_preserves_backend_and_is_independent(self):
        graph = Graph(backend="columnar")
        graph.add(Triple(EX.a, EX.p, EX.b))
        clone = graph.copy()
        assert clone.backend == "columnar"
        clone.add(Triple(EX.c, EX.p, EX.d))
        assert len(graph) == 1 and len(clone) == 2

    def test_add_encoded_batch(self):
        graph = Graph(backend="columnar")
        encode = graph.dictionary.encode
        batch = [(encode(EX.a), encode(EX.p), encode(EX.term(f"o{i}")))
                 for i in range(5)]
        fresh = graph.add_encoded(batch + batch[:2])
        assert len(fresh) == 5
        assert len(graph) == 5
        assert graph.add_encoded(batch) == []

    def test_cached_derived_is_version_keyed(self):
        graph = Graph()
        calls = []

        def compute(g):
            calls.append(len(g))
            return len(g)

        assert graph.cached_derived("size", compute) == 0
        assert graph.cached_derived("size", compute) == 0
        assert calls == [0]
        graph.add(Triple(EX.a, EX.p, EX.b))
        assert graph.cached_derived("size", compute) == 1
        assert calls == [0, 1]


# ----------------------------------------------------------------------
# join compilation and execution
# ----------------------------------------------------------------------

def star_graph(backend):
    graph = Graph(backend=backend)
    for i in range(30):
        person = EX.term(f"person{i}")
        graph.add(Triple(person, RDF.type, EX.Person))
        graph.add(Triple(person, EX.worksFor, EX.term(f"org{i % 3}")))
        if i % 2 == 0:
            graph.add(Triple(person, EX.likes, EX.term(f"org{i % 3}")))
    return graph


class TestJoinPlans:
    def test_star_query_compiles_to_intersection(self):
        graph = star_graph("columnar")
        patterns = [TriplePattern(V("x"), RDF.type, EX.Person),
                    TriplePattern(V("x"), EX.worksFor, EX.org0),
                    TriplePattern(V("x"), EX.likes, EX.org0)]
        plan = compile_bgp(graph, patterns)
        assert plan.intersect_steps() == 1
        assert plan.scan_steps() == 0
        rows = {tuple(binding) for binding in plan.run()}
        expected = {tuple(binding)
                    for binding in compile_bgp(
                        graph.to_backend("hash"), patterns).run()}
        assert rows == expected and rows

    def test_hash_backend_compiles_to_scans_only(self):
        graph = star_graph("hash")
        patterns = [TriplePattern(V("x"), RDF.type, EX.Person),
                    TriplePattern(V("x"), EX.worksFor, EX.org0)]
        plan = compile_bgp(graph, patterns)
        assert plan.intersect_steps() == 0
        assert plan.scan_steps() == 2

    def test_unknown_constant_short_circuits(self):
        graph = star_graph("columnar")
        plan = compile_bgp(graph, [TriplePattern(V("x"), RDF.type,
                                                 EX.Unicorn)])
        assert plan.empty
        assert list(plan.run()) == []

    def test_repeated_variable_within_atom(self):
        graph = Graph(backend="columnar")
        graph.add(Triple(EX.a, EX.p, EX.a))
        graph.add(Triple(EX.a, EX.p, EX.b))
        plan = compile_bgp(graph, [TriplePattern(V("x"), EX.p, V("x"))])
        rows = list(plan.run())
        assert len(rows) == 1

    def test_run_seeds_streams_batches(self):
        graph = star_graph("columnar")
        plan = compile_bgp(graph, [TriplePattern(V("x"), EX.worksFor,
                                                 V("y"))],
                           pre_bound=(V("x"),))
        x = plan.slot_of[V("x")]
        seeds = []
        for i in (0, 1, 2):
            seed = [None] * plan.nslots
            seed[x] = graph.dictionary.lookup(EX.term(f"person{i}"))
            seeds.append(seed)
        assert len(list(plan.run_seeds(seeds))) == 3

    def test_leapfrog_intersection_values(self):
        # the k-way intersection behind every intersection step
        assert intersect([1, 3, 5, 7], [2, 3, 7, 9], [3, 4, 7]) == [3, 7]
        assert intersect([1, 2], [5]) == []
        assert intersect([4, 8]) == [4, 8]

    def test_workload_plan_shapes(self):
        """Scan and intersection step counts of every workload query
        on saturated columnar LUBM, pinned so a compiler change that
        moves a plan shows here."""
        expected = {"Q1": (1, 0), "Q2": (1, 0), "Q3": (2, 0), "Q4": (1, 0),
                    "Q5": (1, 0), "Q6": (1, 0), "Q7": (2, 0), "Q8": (1, 0),
                    "Q9": (1, 1), "Q10": (2, 0)}
        base = generate_lubm(LUBMConfig(departments=1))
        graph = saturate(base, RDFS_FULL).graph.to_backend("columnar")
        shapes = {}
        for qid, (__, query) in WORKLOAD_QUERIES.items():
            plan = compile_bgp(graph, query.patterns)
            shapes[qid] = (plan.scan_steps(), plan.intersect_steps())
        assert shapes == expected
        assert any(inter for __, inter in shapes.values())

    def test_evaluate_honours_preset_distinct_and_limit(self):
        graph = star_graph("columnar")
        query = BGPQuery([TriplePattern(V("x"), EX.worksFor, EX.org0)],
                         distinguished=(V("x"), V("kind")),
                         preset={V("kind"): EX.Employee})
        rows = evaluate(graph, query)
        assert rows and all(row[1] == EX.Employee for row in rows)
        limited = evaluate(graph, query.with_modifiers(limit=2))
        assert len(limited) == 2
        distinct = evaluate(graph, BGPQuery(
            [TriplePattern(V("x"), EX.worksFor, V("org"))],
            distinguished=(V("org"),)).with_modifiers(distinct=True))
        assert len(distinct) == 3


def intersect(*runs):
    """``kernels.intersect_many`` over plain lists, as a list — run in
    every kernel mode, which must agree."""
    results = []
    for mode in kernels.KERNEL_MODES:
        with kernels.kernel_scope(mode):
            results.append(list(kernels.intersect_many(
                [array("q", run) for run in runs])))
    assert all(result == results[0] for result in results)
    return results[0]


class TestLeapfrogEdgeCases:
    """Boundary behaviour of the k-way sorted intersection
    (``kernels.intersect_many``) every intersection step runs: empty
    and exhausted runs, the k=1 degenerate case and the zero
    identifier."""

    def test_no_cursors_is_the_empty_intersection(self):
        # a group can lose every run to unsatisfiable prefixes: the
        # intersection of nothing is empty, not "everything"
        assert intersect() == []

    def test_empty_cursor_in_any_position_kills_the_ring(self):
        for position in range(3):
            runs = [[1, 2, 3]] * 3
            runs[position] = []
            assert intersect(*runs) == []

    def test_single_cursor_streams_its_run(self):
        assert intersect([0, 2, 9]) == [0, 2, 9]

    def test_single_empty_cursor(self):
        assert intersect([]) == []

    def test_cursor_exhausted_mid_chase(self):
        # the shorter run ends while the longer still has values
        assert intersect([10, 20, 30], [10, 15]) == [10]

    def test_disjoint_runs_seek_to_exhaustion(self):
        assert intersect(list(range(0, 40, 2)), list(range(1, 40, 2))) == []

    def test_zero_identifier_participates(self):
        # identifiers start at 0; the first probe must not skip it
        assert intersect([0, 3], [0, 4]) == [0]


# ----------------------------------------------------------------------
# cooperative cancellation inside the join layer
# ----------------------------------------------------------------------

class TestCancellationPolls:
    """Regressions for the polls the concurrency lint (SC303) drove
    into the step loops: a query cancelled mid-stream must stop within
    one poll stride, not run to completion."""

    def _chain_graph(self, n=600):
        graph = Graph(backend="columnar")
        for i in range(n):
            graph.add(Triple(EX.term(f"s{i}"), EX.term("p"),
                             EX.term(f"o{i}")))
        return graph

    def test_depth_one_scan_polls_mid_stream(self):
        graph = self._chain_graph()
        plan = compile_bgp(
            graph, [TriplePattern(V("x"), EX.term("p"), V("y"))])
        assert len(plan.steps) == 1  # the flat depth-1 fast path
        token = CancellationToken(None)
        consumed = 0
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled):
                for __ in plan.run():
                    consumed += 1
                    if consumed == 8:
                        token.cancel()
        # stopped within one 256-iteration poll stride of the cancel
        assert 8 <= consumed < 8 + 257

    def test_uncancelled_token_streams_everything(self):
        graph = self._chain_graph(n=64)
        plan = compile_bgp(
            graph, [TriplePattern(V("x"), EX.term("p"), V("y"))])
        with cancellation_scope(CancellationToken(None)):
            assert len(list(plan.run())) == 64

    def test_intersection_plan_polls_mid_stream(self):
        graph = Graph(backend="columnar")
        for i in range(3000):
            for p in ("p", "q"):
                graph.add(Triple(EX.s, EX.term(p), EX.term(f"o{i}")))
        plan = compile_bgp(graph, [TriplePattern(EX.s, EX.term("p"), V("x")),
                                   TriplePattern(EX.s, EX.term("q"), V("x"))])
        assert plan.intersect_steps() == 1 and plan.scan_steps() == 0
        token = CancellationToken(None)
        consumed = 0
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled):
                for __ in plan.run():
                    consumed += 1
                    if consumed == 8:
                        token.cancel()
        # stopped within one 64-row drain poll stride of the cancel
        assert 8 <= consumed < 8 + 64

    @pytest.mark.parametrize("mode", kernels.KERNEL_MODES)
    def test_intersect_kernels_honour_a_cancelled_token(self, mode):
        token = CancellationToken(None)
        token.cancel()
        # long enough for the per-element reference's first poll
        run = array("q", range(0, 8192, 2))
        other = array("q", range(0, 8192, 3))
        with kernels.kernel_scope(mode):
            with pytest.raises(OperationCancelled):
                kernels.intersect_pair(run, other, token)
            with pytest.raises(OperationCancelled):
                kernels.intersect_many([run, other, run], token)
