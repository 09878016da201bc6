"""RDFS schema model: the four constraints of the paper's Figure 1.

A schema is the set of schema-level triples of a graph, i.e. those
whose property is one of:

* ``rdfs:subClassOf``    — subclass constraint  (``s ⊆ o``);
* ``rdfs:subPropertyOf`` — subproperty constraint (``s ⊆ o``);
* ``rdfs:domain``        — domain typing (``Π_domain(s) ⊆ o``);
* ``rdfs:range``         — range typing  (``Π_range(s) ⊆ o``).

All constraints are interpreted under the open-world assumption: they
propagate tuples, they never reject them (Section II-A).

The class computes, with caching, the transitive closures and inverse
maps that both reasoning directions need:

* saturation needs, e.g., all *superclasses* of a class (rdfs9 fires
  once per superclass);
* reformulation needs the *inverse*: all subclasses of a queried class
  and all properties whose (effective) domain/range reaches it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ..rdf.namespaces import RDFS
from ..rdf.terms import Term, URI
from ..rdf.triples import Triple

__all__ = ["Schema", "SCHEMA_PROPERTIES", "is_schema_triple"]

#: The four RDFS constraint properties of Figure 1.
SCHEMA_PROPERTIES: FrozenSet[URI] = frozenset(
    (RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range)
)


def is_schema_triple(triple: Triple) -> bool:
    """True iff the triple states one of the four RDFS constraints."""
    return triple.p in SCHEMA_PROPERTIES


class Schema:
    """The schema component of an RDF graph, with cached closures.

    The schema is mutable (schema-level updates are a first-class
    operation in the paper — Figure 3 has dedicated thresholds for
    schema insertions and deletions); every mutation invalidates the
    closure caches.
    """

    __slots__ = ("_sub_class", "_super_class", "_sub_property", "_super_property",
                 "_domain", "_range", "_domain_inv", "_range_inv", "_closure_cache",
                 "_memo", "_generation")

    def __init__(self):
        # direct adjacency, both directions, keyed by Term
        self._sub_class: Dict[Term, Set[Term]] = {}      # c -> direct superclasses
        self._super_class: Dict[Term, Set[Term]] = {}    # c -> direct subclasses
        self._sub_property: Dict[Term, Set[Term]] = {}   # p -> direct superproperties
        self._super_property: Dict[Term, Set[Term]] = {}  # p -> direct subproperties
        self._domain: Dict[Term, Set[Term]] = {}         # p -> declared domains
        self._range: Dict[Term, Set[Term]] = {}          # p -> declared ranges
        self._domain_inv: Dict[Term, Set[Term]] = {}     # c -> properties declaring domain c
        self._range_inv: Dict[Term, Set[Term]] = {}      # c -> properties declaring range c
        self._closure_cache: Dict[Tuple[str, Term], FrozenSet[Term]] = {}
        self._memo: Dict[object, object] = {}
        self._generation = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph) -> "Schema":
        """Extract the schema from a graph's schema-level triples."""
        schema = cls()
        schema.load(t for p in SCHEMA_PROPERTIES for t in graph.triples(None, p, None))
        return schema

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "Schema":
        schema = cls()
        schema.load(triples)
        return schema

    def load(self, triples: Iterable[Triple]) -> int:
        """Add every schema triple in ``triples``; ignore instance triples."""
        added = 0
        for triple in triples:
            if is_schema_triple(triple):
                added += self.add(triple)
        return added

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add one schema constraint; return True iff it is new."""
        if triple.p == RDFS.subClassOf:
            return self._link(self._sub_class, self._super_class, triple.s, triple.o)
        if triple.p == RDFS.subPropertyOf:
            return self._link(self._sub_property, self._super_property, triple.s, triple.o)
        if triple.p == RDFS.domain:
            return self._link(self._domain, self._domain_inv, triple.s, triple.o)
        if triple.p == RDFS.range:
            return self._link(self._range, self._range_inv, triple.s, triple.o)
        raise ValueError(f"not a schema triple: {triple!r}")

    def remove(self, triple: Triple) -> bool:
        """Remove one schema constraint; return True iff it was present."""
        if triple.p == RDFS.subClassOf:
            return self._unlink(self._sub_class, self._super_class, triple.s, triple.o)
        if triple.p == RDFS.subPropertyOf:
            return self._unlink(self._sub_property, self._super_property, triple.s, triple.o)
        if triple.p == RDFS.domain:
            return self._unlink(self._domain, self._domain_inv, triple.s, triple.o)
        if triple.p == RDFS.range:
            return self._unlink(self._range, self._range_inv, triple.s, triple.o)
        raise ValueError(f"not a schema triple: {triple!r}")

    def _link(self, forward: Dict[Term, Set[Term]], backward: Dict[Term, Set[Term]],
              source: Term, target: Term) -> bool:
        bucket = forward.setdefault(source, set())
        if target in bucket:
            return False
        bucket.add(target)
        backward.setdefault(target, set()).add(source)
        self._invalidate()
        return True

    def _unlink(self, forward: Dict[Term, Set[Term]], backward: Dict[Term, Set[Term]],
                source: Term, target: Term) -> bool:
        bucket = forward.get(source)
        if bucket is None or target not in bucket:
            return False
        bucket.discard(target)
        if not bucket:
            del forward[source]
        back = backward.get(target)
        if back is not None:
            back.discard(source)
            if not back:
                del backward[target]
        self._invalidate()
        return True

    def _invalidate(self) -> None:
        self._closure_cache.clear()
        self._memo.clear()
        self._generation += 1

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every effective mutation; lets
        layers key caches to "this schema, unchanged"."""
        return self._generation

    def memo_get(self, key: object) -> Optional[object]:
        """A value previously stored with :meth:`memo_set`, or ``None``.

        The memo is cleared on every schema mutation, so entries are
        valid exactly as long as the closures they were derived from.
        Reformulation uses it to reuse per-atom rewrite sets across
        queries instead of rebuilding them from the closures each time.
        """
        return self._memo.get(key)

    def memo_set(self, key: object, value: object) -> object:
        """Store a schema-derived value until the next mutation."""
        self._memo[key] = value
        return value

    # ------------------------------------------------------------------
    # closures (cached)
    # ------------------------------------------------------------------

    def _reachable(self, kind: str, adjacency: Dict[Term, Set[Term]],
                   start: Term) -> FrozenSet[Term]:
        """Transitive (non-reflexive) reachability with memoization."""
        key = (kind, start)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[Term] = set()
        stack = list(adjacency.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        result = frozenset(seen)
        self._closure_cache[key] = result
        return result

    def superclasses(self, cls: Term, reflexive: bool = False) -> FrozenSet[Term]:
        """All classes transitively above ``cls`` (rdfs11 closure)."""
        result = self._reachable("sc+", self._sub_class, cls)
        return result | {cls} if reflexive else result

    def subclasses(self, cls: Term, reflexive: bool = False) -> FrozenSet[Term]:
        """All classes transitively below ``cls``."""
        result = self._reachable("sc-", self._super_class, cls)
        return result | {cls} if reflexive else result

    def superproperties(self, prop: Term, reflexive: bool = False) -> FrozenSet[Term]:
        """All properties transitively above ``prop`` (rdfs5 closure)."""
        result = self._reachable("sp+", self._sub_property, prop)
        return result | {prop} if reflexive else result

    def subproperties(self, prop: Term, reflexive: bool = False) -> FrozenSet[Term]:
        """All properties transitively below ``prop``."""
        result = self._reachable("sp-", self._super_property, prop)
        return result | {prop} if reflexive else result

    def domains(self, prop: Term) -> FrozenSet[Term]:
        """Directly declared domains of ``prop``."""
        return frozenset(self._domain.get(prop, ()))

    def ranges(self, prop: Term) -> FrozenSet[Term]:
        """Directly declared ranges of ``prop``."""
        return frozenset(self._range.get(prop, ()))

    def effective_domains(self, prop: Term) -> FrozenSet[Term]:
        """Every class an ``s p o`` triple types its subject into.

        Combines rdfs7 (superproperties inherit the triple), rdfs2
        (their declared domains type the subject) and rdfs9 (domain
        superclasses follow):  ``∪ { sc*(c) | c ∈ dom(q), p ⊑* q }``.
        """
        key = ("dom*", prop)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        result: Set[Term] = set()
        for q in self.superproperties(prop, reflexive=True):
            for c in self._domain.get(q, ()):
                result.add(c)
                result |= self.superclasses(c)
        frozen = frozenset(result)
        self._closure_cache[key] = frozen
        return frozen

    def effective_ranges(self, prop: Term) -> FrozenSet[Term]:
        """Every class an ``s p o`` triple types its object into (cf.
        :meth:`effective_domains`, with rdfs3 in place of rdfs2)."""
        key = ("rng*", prop)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        result: Set[Term] = set()
        for q in self.superproperties(prop, reflexive=True):
            for c in self._range.get(q, ()):
                result.add(c)
                result |= self.superclasses(c)
        frozen = frozenset(result)
        self._closure_cache[key] = frozen
        return frozen

    def properties_with_domain(self, cls: Term) -> FrozenSet[Term]:
        """Properties ``p`` such that ``cls ∈ effective_domains(p)``.

        This is the inverse map reformulation needs: a query pattern
        ``?x rdf:type cls`` can be answered by any ``?x p ?y`` whose
        effective domain reaches ``cls``.
        """
        key = ("dom-inv*", cls)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        result: Set[Term] = set()
        for c in self.subclasses(cls, reflexive=True):
            for p in self._domain_inv.get(c, ()):
                result |= self.subproperties(p, reflexive=True)
        frozen = frozenset(result)
        self._closure_cache[key] = frozen
        return frozen

    def properties_with_range(self, cls: Term) -> FrozenSet[Term]:
        """Properties ``p`` such that ``cls ∈ effective_ranges(p)``."""
        key = ("rng-inv*", cls)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        result: Set[Term] = set()
        for c in self.subclasses(cls, reflexive=True):
            for p in self._range_inv.get(c, ()):
                result |= self.subproperties(p, reflexive=True)
        frozen = frozenset(result)
        self._closure_cache[key] = frozen
        return frozen

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def classes(self) -> FrozenSet[Term]:
        """Every term used as a class by some constraint."""
        result: Set[Term] = set()
        result.update(self._sub_class)
        result.update(self._super_class)
        result.update(self._domain_inv)
        result.update(self._range_inv)
        return frozenset(result)

    def properties(self) -> FrozenSet[Term]:
        """Every term used as a property by some constraint."""
        result: Set[Term] = set()
        result.update(self._sub_property)
        result.update(self._super_property)
        result.update(self._domain)
        result.update(self._range)
        return frozenset(result)

    def triples(self) -> Iterator[Triple]:
        """The direct (non-closed) constraint triples of this schema."""
        for source, targets in self._sub_class.items():
            for target in targets:
                yield Triple(source, RDFS.subClassOf, target)  # type: ignore[arg-type]
        for source, targets in self._sub_property.items():
            for target in targets:
                yield Triple(source, RDFS.subPropertyOf, target)  # type: ignore[arg-type]
        for source, targets in self._domain.items():
            for target in targets:
                yield Triple(source, RDFS.domain, target)  # type: ignore[arg-type]
        for source, targets in self._range.items():
            for target in targets:
                yield Triple(source, RDFS.range, target)  # type: ignore[arg-type]

    def closure_triples(self) -> Iterator[Triple]:
        """The schema-level saturation: direct constraints plus the
        transitive closure of subclass (rdfs11) and subproperty (rdfs5).

        Note: in a cyclic hierarchy ``c1 ⊑ c2 ⊑ c1``, rdfs11 entails the
        reflexive edges ``c1 ⊑ c1`` and ``c2 ⊑ c2``; :meth:`superclasses`
        reaches the start node through the cycle, so they are emitted.
        """
        yield from self.triples()
        for cls in self.classes():
            direct = self._sub_class.get(cls, set())
            for superclass in self.superclasses(cls) - direct:
                yield Triple(cls, RDFS.subClassOf, superclass)  # type: ignore[arg-type]
        for prop in self.properties():
            direct = self._sub_property.get(prop, set())
            for superproperty in self.superproperties(prop) - direct:
                yield Triple(prop, RDFS.subPropertyOf, superproperty)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return sum(len(targets) for adjacency in
                   (self._sub_class, self._sub_property, self._domain, self._range)
                   for targets in adjacency.values())

    def __contains__(self, triple: Triple) -> bool:
        if not isinstance(triple, Triple) or not is_schema_triple(triple):
            return False
        mapping = {
            RDFS.subClassOf: self._sub_class,
            RDFS.subPropertyOf: self._sub_property,
            RDFS.domain: self._domain,
            RDFS.range: self._range,
        }[triple.p]
        return triple.o in mapping.get(triple.s, ())

    def __repr__(self) -> str:
        return (f"<Schema: {len(self._sub_class)} subclass, "
                f"{len(self._sub_property)} subproperty, "
                f"{len(self._domain)} domain, {len(self._range)} range sources>")

    def copy(self) -> "Schema":
        clone = Schema()
        clone.load(self.triples())
        return clone

    def is_empty(self) -> bool:
        return len(self) == 0
