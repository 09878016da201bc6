"""BGP, UCQ and factorized-UCQ evaluation over a graph.

Plain evaluation of a query against a graph only sees the graph's
*explicit* triples (Section II-A): ``evaluate(q, G)`` is the paper's
``q(G)``.  The two query-answering techniques are then:

* saturation: ``evaluate(q, saturate(G))``  —  ``q(G∞)``;
* reformulation: ``evaluate_reformulation(G, reformulate(q, S))``  —
  ``qref(G)``, which equals ``q(G∞)`` on the asserted graph itself.

The reference evaluator is an index nested-loop join over the graph's
triple indexes in the optimizer's order.  On graphs with the
``"columnar"`` backend, plain BGP evaluation is routed to the
block-at-a-time pipeline in :mod:`repro.sparql.joins` (sorted
intersections over sorted runs); semantics are identical, only the
execution strategy changes.

A reformulated query is evaluated as its explicit UCQ (``"ucq"``, the
default: every conjunct is a plain BGP and gets the full pipeline),
or per variant as one identifier-space plan whose atoms union over
their alternative patterns (``"factorized"``) or over LiteMat
identifier intervals (``"encoded"``).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from ..cancellation import current_token
from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..rdf.triples import Substitution, TriplePattern
from .ast import BGPQuery
from .bindings import ResultSet
from .optimizer import estimate_cardinality, order_patterns

__all__ = ["evaluate", "evaluate_bgp_bindings", "evaluate_ucq",
           "evaluate_factorized", "evaluate_encoded",
           "evaluate_reformulation", "REFORMULATION_STRATEGIES",
           "DEFAULT_REFORMULATION_STRATEGY"]

#: The evaluation strategies for a reformulated query.
REFORMULATION_STRATEGIES = ("factorized", "ucq", "encoded")

#: The strategy databases, the CLI and ``repro serve`` use unless told
#: otherwise: the expanded union runs every conjunct through the full
#: BGP pipeline (sorted intersections included), the fastest
#: of the three on the benchmark's 16 LUBM templates.
DEFAULT_REFORMULATION_STRATEGY = "ucq"


def evaluate_bgp_bindings(graph: Graph, patterns: Sequence[TriplePattern],
                          optimize: bool = True) -> Iterator[Substitution]:
    """Stream every substitution satisfying all ``patterns`` in ``graph``."""
    if not patterns:
        yield {}
        return
    if graph.backend == "columnar":
        from .joins import iter_bindings
        yield from iter_bindings(graph, patterns, optimize)
        return
    if optimize:
        order = order_patterns(graph, patterns)
        ordered = [patterns[i] for i in order]
    else:
        ordered = list(patterns)

    # accounting is accumulated locally and flushed once (the join is a
    # generator the caller may abandon early, hence the finally)
    counts = [0, 0]  # [index lookups, intermediate bindings]
    token = current_token()  # serving deadline, if one is armed

    def join(index: int, binding: Substitution) -> Iterator[Substitution]:
        if index == len(ordered):
            yield binding
            return
        counts[0] += 1
        for extended in graph.match(ordered[index], binding):
            counts[1] += 1
            if token is not None and counts[1] & 0x3F == 0:
                token.raise_if_cancelled()
            yield from join(index + 1, extended)

    try:
        yield from join(0, {})
    finally:
        metrics = get_metrics()
        metrics.counter("evaluator.index_lookups").inc(counts[0])
        metrics.counter("evaluator.intermediate_bindings").inc(counts[1])


def evaluate(graph: Graph, query: BGPQuery, optimize: bool = True) -> ResultSet:
    """Evaluate a BGP query against the graph's explicit triples.

    This is the paper's ``q(G)``: no reasoning — implicit triples are
    invisible unless the graph has been saturated or the query
    reformulated.
    """
    if graph.backend == "columnar":
        from .joins import evaluate_columnar
        return evaluate_columnar(graph, query, optimize)
    results = ResultSet(query.distinguished, distinct=query.distinct)
    preset = query.preset
    for binding in evaluate_bgp_bindings(graph, query.patterns, optimize):
        row = tuple(
            binding.get(variable, preset.get(variable))
            for variable in query.distinguished
        )
        if any(value is None for value in row):
            raise ValueError(
                f"unbound distinguished variable in {query.to_sparql()!r}")
        results.add(row)  # type: ignore[arg-type]
        if query.limit is not None and len(results) >= query.limit:
            break
    return results


def evaluate_ask(graph: Graph, query: BGPQuery,
                 optimize: bool = True) -> bool:
    """Boolean (ASK) evaluation: does any binding satisfy the BGP?

    Stops at the first witness.
    """
    for __ in evaluate_bgp_bindings(graph, query.patterns, optimize):
        return True
    return False


def evaluate_ucq(graph: Graph, conjuncts: Iterable[BGPQuery],
                 optimize: bool = True) -> ResultSet:
    """Evaluate a union of conjunctive queries, under set semantics.

    The answer set of a UCQ is the union of its conjuncts' answer
    sets; duplicates across conjuncts are eliminated (the paper
    defines query answers as a set).
    """
    results: Optional[ResultSet] = None
    for conjunct in conjuncts:
        partial = evaluate(graph, conjunct, optimize)
        if results is None:
            results = ResultSet(partial.variables, distinct=True)
        for row in partial:
            results.add(row)
    if results is None:
        raise ValueError("empty union: no conjuncts to evaluate")
    return results


def _evaluate_variants(target, reformulation, atom_specs,
                       optimize: bool) -> ResultSet:
    """The variant loop shared by the factorized and encoded strategies.

    Each variant compiles to one identifier-space plan
    (:func:`~repro.sparql.joins.compile_mixed_bgp`) whose atoms union
    over the specs ``atom_specs(atom, alternatives)`` returns; an atom
    with no spec leaves its variant without answers.  Projected rows of
    every variant land in one DISTINCT result set.
    """
    from .joins import _compile_projection, compile_mixed_bgp

    table = target.dictionary.decode_table()
    results = ResultSet(reformulation.original.distinguished, distinct=True)
    for variant in reformulation.variants:
        query = variant.query
        groups = []
        for atom, alternatives in zip(query.patterns, variant.alternatives):
            specs = atom_specs(atom, alternatives)
            if not specs:
                break  # an atom with no live alternative: no answers
            groups.append((atom, specs))
        else:
            plan = compile_mixed_bgp(target, groups, optimize)
            preset = query.preset
            project = _compile_projection(
                [(plan.slot_of.get(variable), preset.get(variable))
                 for variable in query.distinguished], table, query)
            results.extend_rows_dedup(chain.from_iterable(
                map(project, block)
                for block in plan.run_blocks(([None] * plan.nslots,))))
    return results


def evaluate_factorized(graph: Graph, reformulation,
                        optimize: bool = True,
                        prune: bool = True) -> ResultSet:
    """Evaluate a :class:`~repro.reasoning.reformulation.Reformulation`
    without expanding its UCQ.

    Each variant is one join whose atom scans range over the atom's
    alternative patterns — evaluating a "join of unions" instead of a
    "union of joins".  With ``n`` atoms of ``k`` alternatives each,
    this scans ``n·k`` pattern sets instead of evaluating ``k^n``
    conjuncts.

    With ``prune=True`` (default), alternatives whose constant-position
    index count is zero on *this* graph are dropped before the join —
    data-aware pruning: a subclass with no instances costs nothing.
    Sound because a zero-cardinality scan contributes no bindings.
    """
    pruned = [0]

    def live(atom, alternatives):
        if not prune:
            return alternatives
        kept = tuple(alternative for alternative in alternatives
                     if estimate_cardinality(graph, alternative) > 0)
        pruned[0] += len(alternatives) - len(kept)
        return kept

    results = _evaluate_variants(graph, reformulation, live, optimize)
    get_metrics().counter("evaluator.pruned_alternatives").inc(pruned[0])
    return results


def evaluate_encoded(graph: Graph, reformulation,
                     optimize: bool = True) -> ResultSet:
    """Evaluate a reformulation through the semantic interval encoding.

    Instead of scanning each atom's alternative *patterns* (factorized)
    or expanding the UCQ, the per-atom fan-out is collapsed into
    identifier intervals (:mod:`repro.reasoning.encoding`): on columnar
    graphs the query runs against the cached interval-encoded view and
    each former union becomes a handful of binary-searched range scans;
    on hash graphs the intervals fall back to explicit member
    expansion against the source index.  Answers are identical to the
    other strategies.
    """
    from ..reasoning.encoding import encoded_atom_specs, encoded_view

    with span("encoding.evaluate",
              variants=len(reformulation.variants)) as sp:
        if graph.backend == "columnar":
            target = encoded_view(graph)
        else:
            target = graph
            get_metrics().counter("encoding.hash_fallbacks").inc()
        schema = reformulation.schema
        lookup = target.dictionary.lookup
        results = _evaluate_variants(
            target, reformulation,
            lambda atom, __: tuple(encoded_atom_specs(atom, schema, lookup)),
            optimize)
        sp.set(answers=len(results))
    return results


def evaluate_reformulation(graph: Graph, reformulation,
                           strategy: str = DEFAULT_REFORMULATION_STRATEGY,
                           optimize: bool = True) -> ResultSet:
    """Evaluate ``qref`` against ``graph``, the graph as asserted: the
    result is ``q(G∞)`` (see :mod:`repro.reasoning.reformulation`).

    ``strategy`` is ``"ucq"`` (expand, then union of joins; default),
    ``"factorized"`` (join of unions, see :func:`evaluate_factorized`)
    or ``"encoded"`` (semantic interval encoding: the per-atom unions
    collapse into identifier range scans — see
    :func:`evaluate_encoded`).
    """
    if strategy == "factorized":
        return evaluate_factorized(graph, reformulation, optimize)
    if strategy == "ucq":
        conjuncts = reformulation.to_ucq()
        if not conjuncts:
            # the schema closure refuted every variant
            return ResultSet(reformulation.original.distinguished,
                             distinct=True)
        return evaluate_ucq(graph, conjuncts, optimize)
    if strategy == "encoded":
        return evaluate_encoded(graph, reformulation, optimize)
    raise ValueError(f"unknown strategy {strategy!r}; "
                     f"expected 'factorized', 'ucq' or 'encoded'")
