"""Semantic interval encoding of the RDFS hierarchies (LiteMat-style).

Reformulation (Section II-B) loses to saturation exactly when the
schema makes the rewriting explode: a query atom ``?x rdf:type C``
becomes a union over every subclass of ``C`` plus every property whose
effective domain/range reaches ``C``.  The LiteMat line of encoded
reasoners (Curé et al., see PAPERS.md) avoids the union altogether by
making the *identifiers* carry the hierarchy: number the subclass DAG
in DFS preorder and "C and all its subclasses" becomes a (mostly)
contiguous identifier interval — which the columnar sorted runs of
:mod:`repro.rdf.columnar` answer with a single binary-searched range
scan.

This module provides the third evaluation strategy built on that idea:

* :class:`IntervalAssignment` — DFS pre/post numbering of one
  hierarchy DAG (subclass or subproperty).  Trees yield one interval
  per node; multiple-inheritance nodes are placed under their first
  parent and contribute *extra* intervals to every other ancestor
  (duplicate-interval handling); whatever contiguity remains is
  recovered exactly by coalescing each node's closure members into
  maximal identifier runs, so the worst case degenerates to the
  explicit member set (the fallback set), never to wrong answers.
* :class:`SchemaEncoding` — both assignments plus the fingerprint of
  the schema they were derived from.
* :class:`TermRemap` — the O(n) mapping layer over
  :class:`~repro.rdf.dictionary.TermDictionary`: hierarchy terms get
  the leading identifiers in DFS preorder, everything else keeps its
  relative order after them.
* :class:`EncodedGraphView` — the graph re-encoded under the remap: a
  columnar index over remapped identifiers plus a dictionary adapter,
  duck-typing the :class:`~repro.rdf.graph.Graph` surface the join
  compiler consumes (``index``, ``dictionary``, ``count``,
  ``backend``).  Built lazily per graph version through
  :meth:`Graph.cached_derived` (key ``"encoding.view"``), so any
  mutation — in particular a schema change — invalidates it; the
  database layer keeps it warm across pure instance inserts and
  deletes via :func:`refresh_view_after_insert` and
  :func:`refresh_view_after_delete`.
* :func:`encoded_atom_specs` — the query-side translation: one atom
  becomes a small set of plain patterns and
  :class:`~repro.sparql.joins.IntervalPattern` atoms whose union of
  matches equals the atom's reformulation, evaluated by the
  interval-scan step of :mod:`repro.sparql.joins`.

On hash-backend graphs there is no sorted run to range-scan; the
evaluator then skips the view and the interval atoms execute by
expanding their explicit member sets against the source index (see
``_IntervalMemberScanStep``) — same answers, point lookups instead of
range scans.
"""

from __future__ import annotations

from array import array
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, Union)

from ..obs import get_metrics, span
from ..rdf.columnar import ColumnarTripleIndex
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.index import DEFAULT_ORDERS
from ..rdf.namespaces import RDF, RDFS
from ..rdf.terms import Literal, Term, Variable, fresh_variable
from ..rdf.triples import Triple, TriplePattern
from ..schema import SCHEMA_PROPERTIES, Schema, is_schema_triple
from ..sparql.joins import IntervalPattern

__all__ = ["IntervalAssignment", "SchemaEncoding", "TermRemap",
           "EncodedGraphView", "encoded_view", "refresh_view_after_insert",
           "refresh_view_after_delete", "encoded_atom_specs",
           "coalesce_ids", "NodeFragmentation", "fragmentation_report",
           "ENCODING_VIEW_KEY"]

#: The :meth:`Graph.cached_derived` key the view is published under.
ENCODING_VIEW_KEY = "encoding.view"


def coalesce_ids(ids: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Sorted identifiers collapsed into maximal half-open runs.

    ``[3, 4, 5, 9]`` becomes ``((3, 6), (9, 10))``.  This is where the
    duplicate-interval handling bottoms out: however scattered a
    multiple-inheritance closure is, its coalesced runs cover exactly
    its members.
    """
    runs: List[Tuple[int, int]] = []
    start = previous = None
    for value in ids:
        if previous is not None and value == previous + 1:
            previous = value
            continue
        if start is not None:
            runs.append((start, previous + 1))  # type: ignore[operator]
        start = previous = value
    if start is not None:
        runs.append((start, previous + 1))  # type: ignore[operator]
    return tuple(runs)


def _hierarchy_edges(schema: Schema, edge_property: Term
                     ) -> Tuple[Dict[Term, List[Term]], Dict[Term, int]]:
    """Direct children and parent counts of one hierarchy DAG."""
    children: Dict[Term, List[Term]] = {}
    parents: Dict[Term, int] = {}
    for triple in schema.triples():
        if triple.p != edge_property or triple.s == triple.o:
            continue
        children.setdefault(triple.o, []).append(triple.s)
        parents[triple.s] = parents.get(triple.s, 0) + 1
    return children, parents


class IntervalAssignment:
    """DFS preorder numbering of one hierarchy DAG.

    ``order[i]`` is the node with preorder position ``i``; the spanning
    forest places every node under its first parent (parents visited in
    deterministic term order), so a tree hierarchy makes each node's
    descendant closure one contiguous preorder run.  Nodes reached
    through several parents (multiple inheritance) and cycle residue
    keep a single position; their ancestors' closures then coalesce
    into more than one run — measured, not hidden, via
    :meth:`fragmentation`.
    """

    __slots__ = ("order", "index_of", "multi_parent")

    def __init__(self, order: Tuple[Term, ...],
                 multi_parent: FrozenSet[Term]):
        self.order = order
        self.index_of: Dict[Term, int] = {
            term: i for i, term in enumerate(order)}
        self.multi_parent = multi_parent

    @classmethod
    def build(cls, nodes: FrozenSet[Term], schema: Schema,
              edge_property: Term) -> "IntervalAssignment":
        children, parents = _hierarchy_edges(schema, edge_property)
        def key(term: Term) -> tuple:
            return term.sort_key()
        roots = sorted((n for n in nodes if not parents.get(n)), key=key)
        order: List[Term] = []
        seen: Set[Term] = set()

        def visit(start: Term) -> None:
            stack = [start]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                order.append(node)
                stack.extend(sorted(children.get(node, ()),
                                    key=key, reverse=True))

        for root in roots:
            visit(root)
        # non-tree residue: cycles unreachable from any root still get
        # positions (their members are mutually equivalent classes)
        for node in sorted(nodes - seen, key=key):
            visit(node)
        return cls(tuple(n for n in order if n in nodes),
                   frozenset(n for n, count in parents.items() if count > 1))

    def positions(self, members: Iterable[Term]) -> List[int]:
        index_of = self.index_of
        return sorted(index_of[m] for m in members if m in index_of)

    def fragmentation(self, node: Term, members: Iterable[Term]
                      ) -> Tuple[int, int]:
        """``(member_count, run_count)`` for the node's closure under
        this assignment — run_count == 1 is the ideal single interval;
        run_count == member_count is full degeneration to the fallback
        set."""
        positions = self.positions(members)
        return len(positions), len(coalesce_ids(positions))


class SchemaEncoding:
    """Interval assignments for both hierarchies of one schema."""

    __slots__ = ("classes", "properties", "fingerprint")

    def __init__(self, classes: IntervalAssignment,
                 properties: IntervalAssignment,
                 fingerprint: FrozenSet[Triple]):
        self.classes = classes
        self.properties = properties
        self.fingerprint = fingerprint

    @classmethod
    def build(cls, schema: Schema) -> "SchemaEncoding":
        return cls(
            IntervalAssignment.build(schema.classes(), schema,
                                     RDFS.subClassOf),
            IntervalAssignment.build(schema.properties(), schema,
                                     RDFS.subPropertyOf),
            frozenset(schema.triples()),
        )


class TermRemap:
    """A bijection re-numbering a dictionary's identifiers so hierarchy
    terms occupy the leading DFS-preorder positions.

    Classes come first (in class-DAG preorder), then properties not
    already placed (in property-DAG preorder), then every remaining
    identifier in its original relative order — an O(n) array build,
    and O(1) per-identifier translation afterwards.
    """

    __slots__ = ("old_to_new", "new_to_old")

    def __init__(self, old_to_new: array, new_to_old: array):
        self.old_to_new = old_to_new
        self.new_to_old = new_to_old

    @classmethod
    def build(cls, encoding: SchemaEncoding,
              dictionary: TermDictionary) -> "TermRemap":
        size = len(dictionary)
        lookup = dictionary.lookup
        placed = bytearray(size)
        new_to_old = array("q")
        for term in encoding.classes.order + encoding.properties.order:
            old = lookup(term)
            if old is None or placed[old]:
                continue
            placed[old] = 1
            new_to_old.append(old)
        for old in range(size):
            if not placed[old]:
                new_to_old.append(old)
        old_to_new = array("q", bytes(8 * size))
        for new, old in enumerate(new_to_old):
            old_to_new[old] = new
        return cls(old_to_new, new_to_old)

    def __len__(self) -> int:
        return len(self.new_to_old)

    def extend_identity(self, new_size: int) -> None:
        """Map identifiers allocated after the build to themselves.

        Terms interned by later instance inserts carry no hierarchy
        information, so the identity suffix keeps the bijection while
        the leading block stays interval-ordered.
        """
        for old in range(len(self.new_to_old), new_size):
            self.old_to_new.append(old)
            self.new_to_old.append(old)


class _RemappedDictionary:
    """The view's dictionary: the source dictionary seen through a
    :class:`TermRemap` (lookup and decode only — the view is
    read-only, nothing ever encodes through it)."""

    __slots__ = ("_source", "_remap")

    def __init__(self, source: TermDictionary, remap: TermRemap):
        self._source = source
        self._remap = remap

    def __len__(self) -> int:
        return len(self._remap)

    def lookup(self, term: Term) -> Optional[int]:
        old = self._source.lookup(term)
        if old is None or old >= len(self._remap.old_to_new):
            return None
        return self._remap.old_to_new[old]

    def decode(self, term_id: int) -> Term:
        try:
            old = self._remap.new_to_old[term_id]
        except IndexError:
            raise KeyError(f"unknown term id: {term_id}") from None
        return self._source.decode(old)

    __getitem__ = decode

    def decode_table(self) -> "_RemappedDictionary":
        """Id-indexable decoding (``table[id]``) for the block
        projection; each lookup decodes through the remap."""
        return self


class EncodedGraphView:
    """The source graph re-encoded under the interval remap.

    Duck-types the read side of :class:`~repro.rdf.graph.Graph` that
    the join compiler and optimizer consume (``index``, ``dictionary``,
    ``count``, ``backend``); always columnar, whatever the source
    backend, because the whole point is sorted runs over interval-
    ordered identifiers.  ``version`` is the source graph version
    whose triples the view holds.
    """

    __slots__ = ("source", "encoding", "remap", "version", "_index",
                 "_dictionary")

    def __init__(self, source: Graph, encoding: SchemaEncoding,
                 remap: TermRemap, index: ColumnarTripleIndex,
                 version: int):
        self.source = source
        self.encoding = encoding
        self.remap = remap
        self.version = version
        self._index = index
        self._dictionary = _RemappedDictionary(source.dictionary, remap)

    @classmethod
    def build(cls, graph: Graph) -> "EncodedGraphView":
        version = graph.version
        with span("encoding.build", triples=len(graph)) as sp:
            encoding = SchemaEncoding.build(Schema.from_graph(graph))
            remap = TermRemap.build(encoding, graph.dictionary)
            orders = (graph.index.order_names
                      if graph.backend == "columnar" else DEFAULT_ORDERS)
            index = ColumnarTripleIndex(orders)
            o2n = remap.old_to_new
            index.bulk_load([(o2n[s], o2n[p], o2n[o])
                             for s, p, o in graph.index])
            metrics = get_metrics()
            metrics.counter("encoding.builds").inc()
            metrics.counter("encoding.encoded_triples").inc(len(index))
            sp.set(classes=len(encoding.classes.order),
                   properties=len(encoding.properties.order),
                   terms=len(remap))
        return cls(graph, encoding, remap, index, version)

    # -- Graph surface the join layer reads -----------------------------

    @property
    def backend(self) -> str:
        return "columnar"

    @property
    def index(self) -> ColumnarTripleIndex:
        return self._index

    @property
    def dictionary(self) -> _RemappedDictionary:
        return self._dictionary

    def __len__(self) -> int:
        return len(self._index)

    def count(self, s: Optional[Term] = None, p: Optional[Term] = None,
              o: Optional[Term] = None) -> int:
        """Exact match count under the (s, p, o) pattern, as
        :meth:`Graph.count` — the optimizer's statistics source."""
        encoded: List[Optional[int]] = []
        for term in (s, p, o):
            if term is None or isinstance(term, Variable):
                encoded.append(None)
            else:
                term_id = self._dictionary.lookup(term)
                if term_id is None:
                    return 0
                encoded.append(term_id)
        return self._index.count(*encoded)

    # -- incremental maintenance ----------------------------------------

    def _encode(self, batch: Iterable[Triple]) -> List[Tuple[int, int, int]]:
        """The batch in the view's identifiers; triples with a term the
        source never interned cannot be in it and are skipped."""
        self.remap.extend_identity(len(self.source.dictionary))
        lookup = self.source.dictionary.lookup
        o2n = self.remap.old_to_new
        encoded = []
        for triple in batch:
            s, p, o = lookup(triple.s), lookup(triple.p), lookup(triple.o)
            if s is not None and p is not None and o is not None:
                encoded.append((o2n[s], o2n[p], o2n[o]))
        return encoded

    def apply_inserts(self, batch: Iterable[Triple]) -> int:
        """Fold freshly inserted instance triples into the view.

        The caller guarantees the batch contains no schema triples
        (those invalidate the encoding wholesale).  New terms extend
        the remap with identity entries; the remapped triples land in
        the columnar delta log as any other insert batch would.
        Returns how many triples were new to the view.
        """
        fresh = self._index.add_batch(self._encode(batch))
        get_metrics().counter("encoding.incremental_inserts").inc(len(fresh))
        return len(fresh)

    def apply_deletes(self, batch: Iterable[Triple]) -> int:
        """Remove deleted instance triples from the view (the inverse
        of :meth:`apply_inserts`, under the same caller guarantee).
        Returns how many triples the view held."""
        discard = self._index.discard
        removed = sum(1 for triple in self._encode(batch) if discard(triple))
        get_metrics().counter("encoding.incremental_deletes").inc(removed)
        return removed


def encoded_view(graph: Graph) -> EncodedGraphView:
    """The graph's interval-encoded view, cached per graph version.

    Any mutation — schema or instance — invalidates the cache through
    :meth:`Graph.cached_derived`; the database layer re-publishes an
    incrementally maintained view across pure instance inserts (see
    :func:`refresh_view_after_insert`) so only schema changes pay the
    full O(n) rebuild.
    """
    return graph.cached_derived(  # type: ignore[return-value]
        ENCODING_VIEW_KEY, EncodedGraphView.build)


def _refresh_view(graph: Graph, batch: Sequence[Triple],
                  apply: Callable[[EncodedGraphView,
                                   Sequence[Triple]], int]) -> bool:
    view = graph.peek_derived(ENCODING_VIEW_KEY)
    if view is None or not isinstance(view, EncodedGraphView):
        return False
    if any(is_schema_triple(t) for t in batch):
        return False
    # each effective triple bumps the graph version once: a view that
    # mirrored the graph just before the batch lands exactly on the
    # current version; any other (a schema batch or a direct graph
    # mutation came between) is stale and left to expire
    changed = apply(view, batch)
    if view.version + changed != graph.version:
        return False
    view.version = graph.version
    graph.store_derived(ENCODING_VIEW_KEY, view)
    return True


def refresh_view_after_insert(graph: Graph, batch: Sequence[Triple]) -> bool:
    """Keep a cached encoded view warm across an instance-insert batch.

    Called by the database *after* the batch landed in ``graph``.  If a
    view mirroring the graph as it was before the batch is cached and
    the batch touches no schema triple, the batch is applied in place
    and the view re-published at the current version; otherwise the
    stale entry is left to expire (the next :func:`encoded_view` call
    rebuilds).  Returns True when the view was refreshed.
    """
    return _refresh_view(graph, batch, EncodedGraphView.apply_inserts)


def refresh_view_after_delete(graph: Graph, batch: Sequence[Triple]) -> bool:
    """The inverse of :func:`refresh_view_after_insert`: called *after*
    an instance-delete batch left ``graph``; the view drops the same
    triples in place instead of being re-encoded on the next query."""
    return _refresh_view(graph, batch, EncodedGraphView.apply_deletes)


# ----------------------------------------------------------------------
# query-side translation
# ----------------------------------------------------------------------

AtomSpec = Union[TriplePattern, IntervalPattern]

_Lookup = Callable[[Term], Optional[int]]


def _interval_of(members: Iterable[Term], lookup: _Lookup
                 ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    ids = sorted(i for m in members if (i := lookup(m)) is not None)
    return coalesce_ids(ids), tuple(ids)


def encoded_atom_specs(atom: TriplePattern, schema: Schema,
                       lookup: _Lookup) -> List[AtomSpec]:
    """Translate one query atom into interval-encoded alternatives.

    The returned specs' matches union to exactly the matches of
    :func:`~repro.reasoning.reformulation.atom_alternatives` — the
    subclass (resp. subproperty) fan-out collapses into identifier
    intervals at the atom's class (resp. property) position; the
    domain/range rewrites of a type atom become intervals at the
    *property* position of a fresh-variable atom.  ``lookup`` maps
    terms to identifiers of the graph the specs will run against (the
    encoded view, or the source graph on the hash fallback).  An empty
    list means the atom is unsatisfiable on that graph (no member of
    any alternative is interned).
    """
    prop = atom.p
    if isinstance(prop, Variable):
        return [atom]
    metrics = get_metrics()
    if prop == RDF.type:
        cls = atom.o
        if isinstance(cls, Variable) or isinstance(cls, Literal):
            return [atom]
        specs: List[AtomSpec] = []
        members = schema.subclasses(cls, reflexive=True)
        if len(members) == 1:
            specs.append(atom)
        else:
            ranges, ids = _interval_of(members, lookup)
            if ids:
                specs.append(IntervalPattern(atom, 2, ranges, ids))
                metrics.counter("encoding.interval_atoms").inc()
        domain_props = schema.properties_with_domain(cls)
        if domain_props:
            ranges, ids = _interval_of(domain_props, lookup)
            if ids:
                specs.append(IntervalPattern(
                    TriplePattern(atom.s, prop, fresh_variable()),
                    1, ranges, ids))
                metrics.counter("encoding.interval_atoms").inc()
        range_props = schema.properties_with_range(cls)
        if range_props:
            ranges, ids = _interval_of(range_props, lookup)
            if ids:
                specs.append(IntervalPattern(
                    TriplePattern(fresh_variable(), prop, atom.s),
                    1, ranges, ids))
                metrics.counter("encoding.interval_atoms").inc()
        return specs
    if prop in SCHEMA_PROPERTIES:
        # domain/range atoms match the graph as asserted; reformulation
        # already answered subclass/subproperty atoms from the schema
        return [atom]
    members = schema.subproperties(prop, reflexive=True)
    if len(members) == 1:
        return [atom]
    ranges, ids = _interval_of(members, lookup)
    if not ids:
        return []
    metrics.counter("encoding.interval_atoms").inc()
    return [IntervalPattern(atom, 1, ranges, ids)]


# ----------------------------------------------------------------------
# degeneration diagnostics (the `repro lint` SC110 data source)
# ----------------------------------------------------------------------

class NodeFragmentation:
    """How one hierarchy node's closure fares under the encoding."""

    __slots__ = ("kind", "term", "member_count", "run_count")

    def __init__(self, kind: str, term: Term, member_count: int,
                 run_count: int):
        self.kind = kind              # "class" | "property"
        self.term = term
        self.member_count = member_count
        self.run_count = run_count

    @property
    def degenerate(self) -> bool:
        """True when more than half the closure needs its own run —
        the interval scan has effectively fallen back to the member
        set."""
        return self.run_count > max(1, self.member_count // 2)


def fragmentation_report(schema: Schema) -> List[NodeFragmentation]:
    """Per-node interval fragmentation of both hierarchies.

    Computed on virtual identifiers (the DFS preorder positions
    themselves), i.e. the best case any dictionary remap can achieve;
    only nodes whose closure does not coalesce into a single run are
    reported.  ``repro lint`` turns these into SC110 diagnostics so
    users can predict, from the schema alone, where ``"encoded"``
    degenerates to member expansion.
    """
    encoding = SchemaEncoding.build(schema)
    report: List[NodeFragmentation] = []
    for kind, assignment, closure in (
            ("class", encoding.classes,
             lambda t: schema.subclasses(t, reflexive=True)),
            ("property", encoding.properties,
             lambda t: schema.subproperties(t, reflexive=True))):
        for term in assignment.order:
            member_count, run_count = assignment.fragmentation(
                term, closure(term))
            if run_count > 1:
                report.append(NodeFragmentation(kind, term, member_count,
                                                run_count))
    report.sort(key=lambda n: (-n.run_count, n.kind, n.term.sort_key()))
    return report
