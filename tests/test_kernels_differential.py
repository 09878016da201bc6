"""Differential suite: the production kernels and block pipeline
against their references.

The primitives (``intersect_pair``, ``intersect_many``,
``merge_runs``) must return exactly the arrays of their per-element
``scalar`` reference.  End to end, the columnar block pipeline must
agree with the term-level reference — the hash backend with
``evaluate(..., optimize=False)`` and the generic ``seminaive``
engine — on every pattern shape, random answer set, saturation
fixpoint and mutation script.  Any divergence is a bug in the
production layer by construction.
"""

import os
import subprocess
import sys
from array import array
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro import kernels
from repro.rdf import Graph, Triple
from repro.rdf.columnar import ColumnarTripleIndex
from repro.reasoning import saturate
from repro.reasoning.rulesets import RDFS_FULL, RHO_DF
from repro.sparql import evaluate
from repro.workloads import RandomGraphConfig, random_graph, random_query

from conftest import EX, random_rdfs_graph

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

MODES = kernels.KERNEL_MODES
VECTOR_MODES = pytest.mark.parametrize(
    "mode", [mode for mode in MODES if mode != "scalar"])

# identifiers are small so runs collide often (the interesting case)
run_values = st.lists(st.integers(min_value=0, max_value=120), max_size=60)
triple_ids = st.tuples(st.integers(min_value=0, max_value=15),
                       st.integers(min_value=0, max_value=15),
                       st.integers(min_value=0, max_value=15))


def sorted_run(values) -> array:
    return array("q", sorted(set(values)))


def flatten(triples) -> array:
    out = array("q")
    for triple in sorted(triples):
        out.extend(triple)
    return out


# ----------------------------------------------------------------------
# primitive parity: intersect and merge kernels
# ----------------------------------------------------------------------

class TestPrimitiveParity:
    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(a=run_values, b=run_values)
    def test_intersect_pair(self, mode, a, b):
        ra, rb = sorted_run(a), sorted_run(b)
        with kernels.kernel_scope("scalar"):
            expected = list(kernels.intersect_pair(ra, rb))
        with kernels.kernel_scope(mode):
            assert list(kernels.intersect_pair(ra, rb)) == expected

    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(runs=st.lists(run_values, max_size=4))
    def test_intersect_many(self, mode, runs):
        buffers = [sorted_run(values) for values in runs]
        with kernels.kernel_scope("scalar"):
            expected = list(kernels.intersect_many(
                [array("q", b) for b in buffers]))
        with kernels.kernel_scope(mode):
            got = list(kernels.intersect_many(
                [array("q", b) for b in buffers]))
        assert got == expected

    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(pool=st.sets(triple_ids, max_size=40), data=st.data())
    def test_merge_runs(self, mode, pool, data):
        # split the pool into main/delta (disjoint by construction)
        # and kill a subset of main — the _OrderRuns invariants
        triples = sorted(pool)
        split = data.draw(st.integers(min_value=0,
                                      max_value=len(triples)))
        main_triples, delta = triples[:split], triples[split:]
        dead = set(data.draw(st.lists(st.sampled_from(main_triples),
                                      max_size=len(main_triples)))
                   if main_triples else [])
        main = flatten(main_triples)
        with kernels.kernel_scope("scalar"):
            expected = list(kernels.merge_runs(array("q", main),
                                               list(delta), set(dead)))
        with kernels.kernel_scope(mode):
            got = list(kernels.merge_runs(array("q", main),
                                          list(delta), set(dead)))
        assert got == expected

    @VECTOR_MODES
    def test_memoryview_inputs(self, mode):
        # zero-copy run views are what the columnar layer hands over
        a = memoryview(array("q", [1, 3, 5, 7]))
        b = memoryview(array("q", [3, 4, 5, 9]))
        with kernels.kernel_scope(mode):
            assert list(kernels.intersect_pair(a, b)) == [3, 5]


# ----------------------------------------------------------------------
# end-to-end parity against the term-level reference
# ----------------------------------------------------------------------

class TestEndToEndParity:
    """The columnar block pipeline against the one reference: the hash
    backend, term-level ``evaluate(..., optimize=False)`` and the
    generic ``seminaive`` engine."""

    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_all_eight_pattern_shapes(self, mode, seed):
        hashed = random_rdfs_graph(seed, size=40)
        graph = hashed.to_backend("columnar")
        probes = list(graph)[:: max(1, len(graph) // 4)]
        for probe in probes:
            for mask in range(8):
                shape = (probe.s if mask & 4 else None,
                         probe.p if mask & 2 else None,
                         probe.o if mask & 1 else None)
                expected = sorted(hashed.triples(*shape))
                with kernels.kernel_scope(mode):
                    assert sorted(graph.triples(*shape)) == expected

    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_random_bgp_answer_sets(self, mode, seed):
        config = RandomGraphConfig(seed=seed)
        hashed = random_graph(config)
        graph = hashed.to_backend("columnar")
        for qseed in range(3):
            query = random_query(config, seed=seed + qseed)
            expected = evaluate(hashed, query, optimize=False).to_set()
            with kernels.kernel_scope(mode):
                assert evaluate(graph, query).to_set() == expected

    @VECTOR_MODES
    @pytest.mark.parametrize("ruleset", [RHO_DF, RDFS_FULL],
                             ids=lambda r: r.name)
    @pytest.mark.parametrize("seed", range(3))
    def test_saturation_fixpoints(self, mode, ruleset, seed):
        hashed = random_rdfs_graph(seed, size=50)
        expected = saturate(hashed, ruleset, engine="seminaive")
        with kernels.kernel_scope(mode):
            result = saturate(hashed.to_backend("columnar"), ruleset,
                              engine="seminaive-batch")
        assert set(result.graph) == set(expected.graph)
        assert result.inferred == expected.inferred


# ----------------------------------------------------------------------
# mutation sequences: interleaved adds/removes
# ----------------------------------------------------------------------

class TestMutationParity:
    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(ops=st.lists(st.tuples(st.booleans(), triple_ids),
                        max_size=60))
    def test_add_remove_sequences(self, mode, ops):
        """The same mutation script replayed on the hash reference and
        on the columnar backend leaves identical graphs — delta
        absorption, dead marking and compaction all route through the
        kernels."""
        def replay(backend):
            graph = Graph(backend=backend)
            for is_add, (s, p, o) in ops:
                triple = Triple(EX.term(f"s{s}"), EX.term(f"p{p}"),
                                EX.term(f"o{o}"))
                if is_add:
                    graph.add(triple)
                else:
                    graph.remove(triple)
            return graph

        expected = replay("hash")
        with kernels.kernel_scope(mode):
            graph = replay("columnar")
        assert len(graph) == len(expected)
        assert sorted(graph) == sorted(expected)
        # the mutated graph still answers pattern probes identically
        for probe in list(expected)[:5]:
            with kernels.kernel_scope(mode):
                assert sorted(graph.triples(None, probe.p, None)) == \
                    sorted(expected.triples(None, probe.p, None))

    @VECTOR_MODES
    @settings(**SETTINGS)
    @given(base=st.sets(triple_ids, max_size=30),
           batch=st.lists(triple_ids, min_size=1, max_size=20))
    def test_batched_adds_match_single_adds(self, mode, base, batch):
        """``add_batch`` (the saturation round's landing path, with
        its sorted membership probe) is equivalent to one ``add`` per
        triple — duplicates inside the batch and against the base
        included."""
        with kernels.kernel_scope(mode):
            batched = ColumnarTripleIndex()
            single = ColumnarTripleIndex()
            for triple in sorted(base):
                batched.add(triple)
                single.add(triple)
            inserted = batched.add_batch(list(batch))
            echoed = [triple for triple in batch if single.add(triple)]
        assert sorted(batched) == sorted(single)
        assert sorted(inserted) == sorted(set(echoed))


# ----------------------------------------------------------------------
# mode selection: only the listed modes exist
# ----------------------------------------------------------------------

class TestModeSelection:
    @pytest.mark.parametrize("mode", ["numpy", "vector", "PYTHON"])
    def test_unknown_modes_are_rejected(self, mode):
        """``kernel_scope`` refuses a mode outside ``KERNEL_MODES``, a
        retired one included, and leaves the active mode alone; the
        environment selects nothing."""
        with kernels.kernel_scope("scalar"):
            with pytest.raises(ValueError, match="unknown kernel mode"):
                with kernels.kernel_scope(mode):
                    pass
            assert kernels._mode == "scalar"
        env = dict(os.environ, REPRO_KERNELS=mode, PYTHONPATH=str(
            Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c",
             "import repro.kernels as k; print(k._mode)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "python"
