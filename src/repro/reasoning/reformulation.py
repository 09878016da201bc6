"""Query reformulation: rewriting BGP queries w.r.t. RDFS constraints.

The second technique of Section II-B: leave the graph unchanged and
rewrite the query ``q`` into ``qref`` such that evaluating ``qref``
against the original graph yields exactly the answers of ``q`` against
the saturation:  ``qref(G) = q(G∞)``.

Following the database fragment of [12] (Goasdoué–Manolescu–Roatiş,
EDBT 2013), the graph is queried exactly as asserted.  The only
entailed triples a schema-level atom can need beyond it are the
transitive ``rdfs:subClassOf``/``rdfs:subPropertyOf`` edges (rdfs11,
rdfs5), and the :class:`~repro.schema.Schema` knows every one of them
when the query is rewritten: :func:`expand_bindings` answers such
atoms from the schema closure and removes them from the query.  The
engine is sound and complete for the ρdf rule set, including queries
with variables in class and property positions (the extension
"blurring the distinction between constants and classes/properties").

Two algorithms produce the same union of conjunctive queries:

* ``closure`` (default) — per-atom, single-step rewriting against the
  schema's cached transitive closures; the result stays *factorized*
  (one alternative set per atom) so the UCQ need not be expanded to be
  evaluated, only counted.
* ``fixpoint`` — the literal algorithm of [12]: breadth-first
  application of single direct-constraint rewrite steps at the query
  level, deduplicating via canonical forms.  Exponentially slower to
  *produce* on deep hierarchies (it enumerates the expanded UCQ), kept
  for conformance testing and the ABL-JOIN ablation.

Not covered (documented restriction, as in [12]): graphs whose schema
constrains the RDFS vocabulary itself ("meta-schema"); saturation
handles those, reformulation refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from ..obs import get_metrics, span
from ..rdf.namespaces import RDF, RDFS
from ..rdf.terms import Literal, Term, Variable, fresh_variable
from ..rdf.triples import Substitution, Triple, TriplePattern
from ..schema import SCHEMA_PROPERTIES, Schema
from ..sparql.ast import BGPQuery, canonical_form

__all__ = ["Reformulation", "FactorizedVariant", "reformulate",
           "reformulate_fixpoint", "atom_alternatives", "expand_bindings"]


# ----------------------------------------------------------------------
# per-atom rewriting (the closure-based algorithm)
# ----------------------------------------------------------------------

def atom_alternatives(atom: TriplePattern, schema: Schema) -> List[TriplePattern]:
    """All single atoms whose explicit matches cover the atom's
    entailed matches.

    For ``(s, rdf:type, c)``: the subclasses of ``c`` (rdfs9), plus
    ``(s, p, _)`` for every property whose effective domain reaches
    ``c`` (rdfs7∘rdfs2∘rdfs9) and ``(_, p, s)`` for effective ranges
    (rdfs3).  For ``(s, p, o)``: the subproperties of ``p`` (rdfs7).
    The atom itself is always the first alternative, and the only one
    for schema-level atoms (:func:`expand_bindings` has already
    answered the subclass/subproperty ones from the schema closure).

    Results are memoized on the schema (cleared on any schema
    mutation); the fresh variables inside cached domain/range rewrites
    are shared across reuses, which is sound because they are
    existential — ``∃f p(s,f)`` names the same condition whichever
    variant (or repeated atom) carries it.
    """
    cached = schema.memo_get(("alternatives", atom))
    if cached is not None:
        get_metrics().counter("reformulation.rewrite_cache_hits").inc()
        return list(cached)  # type: ignore[call-overload]
    get_metrics().counter("reformulation.rewrite_cache_misses").inc()
    alternatives = _atom_alternatives_uncached(atom, schema)
    schema.memo_set(("alternatives", atom), tuple(alternatives))
    return alternatives


def _sorted(terms: Iterable[Term]) -> List[Term]:
    # closure accessors return sets: iterating them in hash order would
    # make conjunct order and fresh-variable numbering depend on the
    # interpreter's string-hash seed
    return sorted(terms, key=lambda t: t.sort_key())


def _atom_alternatives_uncached(atom: TriplePattern,
                                schema: Schema) -> List[TriplePattern]:
    alternatives: List[TriplePattern] = [atom]
    seen: Set[TriplePattern] = {atom}
    prop = atom.p
    if isinstance(prop, Variable):
        return alternatives
    if prop == RDF.type:
        cls = atom.o
        if isinstance(cls, Variable) or isinstance(cls, Literal):
            return alternatives
        for subclass in _sorted(schema.subclasses(cls)):
            candidate = TriplePattern(atom.s, RDF.type, subclass)
            if candidate not in seen:
                seen.add(candidate)
                alternatives.append(candidate)
        for p in _sorted(schema.properties_with_domain(cls)):
            candidate = TriplePattern(atom.s, p, fresh_variable())
            alternatives.append(candidate)
        for p in _sorted(schema.properties_with_range(cls)):
            candidate = TriplePattern(fresh_variable(), p, atom.s)
            alternatives.append(candidate)
        return alternatives
    if prop in SCHEMA_PROPERTIES:
        return alternatives
    for subproperty in _sorted(schema.subproperties(prop)):
        candidate = TriplePattern(atom.s, subproperty, atom.o)
        if candidate not in seen:
            seen.add(candidate)
            alternatives.append(candidate)
    return alternatives


# ----------------------------------------------------------------------
# query-level binding expansion for variable class/property positions
# ----------------------------------------------------------------------

#: The schema properties whose entailed triples the asserted graph
#: lacks: rdfs11 and rdfs5 close them transitively.  Atoms over them are
#: answered from the schema closure, never from the graph.
CLOSURE_PROPERTIES = (RDFS.subClassOf, RDFS.subPropertyOf)


def _property_binding_candidates(schema: Schema) -> List[Term]:
    """Properties that can head an *inferred* triple: targets of some
    subPropertyOf chain (rdfs7), rdf:type (rdfs2/3/9), and the two
    transitively closed schema properties (rdfs5/rdfs11)."""
    candidates: List[Term] = [RDF.type, *CLOSURE_PROPERTIES]
    for prop in _sorted(schema.properties()):
        if schema.subproperties(prop):
            candidates.append(prop)
    return candidates


def _class_binding_candidates(schema: Schema) -> List[Term]:
    """Classes whose memberships can be inferred (non-identity rewrites)."""
    candidates: List[Term] = []
    for cls in _sorted(schema.classes()):
        if (schema.subclasses(cls) or schema.properties_with_domain(cls)
                or schema.properties_with_range(cls)):
            candidates.append(cls)
    return candidates


def _closure_bindings(atom: TriplePattern,
                      schema: Schema) -> List[Substitution]:
    """The substitutions under which a subclass/subproperty atom holds
    in the schema closure (direct constraints plus their transitive
    consequences, :meth:`Schema.closure_triples`), one per matching
    edge in term order.  A ground atom that holds yields ``[{}]``."""
    if atom.p == RDFS.subClassOf:
        up, down, nodes = (schema.superclasses, schema.subclasses,
                           schema.classes)
    else:
        up, down, nodes = (schema.superproperties, schema.subproperties,
                           schema.properties)
    s, o = atom.s, atom.o
    if not isinstance(s, Variable):
        edges = [(s, target) for target in _sorted(up(s))]
    elif not isinstance(o, Variable):
        edges = [(source, o) for source in _sorted(down(o))]
    else:
        edges = [(source, target) for source in _sorted(nodes())
                 for target in _sorted(up(source))]
    bindings: List[Substitution] = []
    for source, target in edges:
        binding = atom.matches(Triple(source, atom.p, target), None)
        if binding is not None:
            bindings.append(binding)
    return bindings


def _answer_atom(query: BGPQuery, index: int,
                 binding: Substitution) -> BGPQuery:
    """``query`` with ``binding`` applied and its atom at ``index``
    removed (the atom holds under the binding)."""
    bound = query.substitute(binding)
    return BGPQuery(bound.patterns[:index] + bound.patterns[index + 1:],
                    bound.distinguished, bound.preset, bound.distinct,
                    bound.limit)


def expand_bindings(query: BGPQuery, schema: Schema) -> List[BGPQuery]:
    """Specialize variable property/class positions to schema constants,
    and answer subclass/subproperty atoms from the schema closure.

    An atom with a variable in property position only retrieves
    *explicit* triples when evaluated; to also retrieve inferred ones,
    the variable is bound, query-wide, to each schema constant that can
    head an inference, and each specialization is rewritten further.
    The unspecialized query is always kept (it covers the explicit
    matches).  An ``rdfs:subClassOf``/``rdfs:subPropertyOf`` atom is
    not evaluated at all: each closure edge it matches binds its
    variables query-wide and removes it, so a query made only of such
    atoms ends with no patterns (its answers are its presets).
    Distinguished variables keep their binding via ``preset``.

    Expansions are memoized on the schema per query (cleared on any
    schema mutation): repeated serving-layer evaluations of the same
    query skip the whole recursion.
    """
    memo_key = ("expand", query)
    cached = schema.memo_get(memo_key)
    if cached is not None:
        get_metrics().counter("reformulation.rewrite_cache_hits").inc()
        return list(cached)  # type: ignore[call-overload]
    get_metrics().counter("reformulation.rewrite_cache_misses").inc()
    property_candidates = _property_binding_candidates(schema)
    class_candidates = _class_binding_candidates(schema)
    results: List[BGPQuery] = []
    seen: Set[tuple] = set()

    def emit(candidate: BGPQuery) -> None:
        key = canonical_form(candidate)
        if key not in seen:
            seen.add(key)
            results.append(candidate)

    def expand(current: BGPQuery, index: int) -> None:
        if index >= len(current.patterns):
            emit(current)
            return
        atom = current.patterns[index]
        if isinstance(atom.p, Variable):
            # keep the generic branch, then each specialization
            expand(current, index + 1)
            for candidate in property_candidates:
                bound = current.substitute({atom.p: candidate})
                # re-examine the same atom: rdf:type may expose a
                # variable class position, a closure property resolves
                expand(bound, index)
            return
        if atom.p in CLOSURE_PROPERTIES:
            # the next atom moves up into this position
            for binding in _closure_bindings(atom, schema):
                expand(_answer_atom(current, index, binding), index)
            return
        if atom.p == RDF.type and isinstance(atom.o, Variable):
            expand(current, index + 1)
            for candidate in class_candidates:
                bound = current.substitute({atom.o: candidate})
                expand(bound, index + 1)
            return
        expand(current, index + 1)

    expand(query, 0)
    schema.memo_set(memo_key, tuple(results))
    return results


# ----------------------------------------------------------------------
# the factorized reformulation object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizedVariant:
    """One binding-specialization of the query, with per-atom
    alternative sets.  Expanding the cross product of the alternatives
    yields this variant's share of the UCQ."""

    query: BGPQuery
    alternatives: Tuple[Tuple[TriplePattern, ...], ...]

    def conjunct_count(self) -> int:
        count = 1
        for atom_alternatives_ in self.alternatives:
            count *= len(atom_alternatives_)
        return count

    def conjuncts(self) -> Iterator[BGPQuery]:
        for combination in product(*self.alternatives):
            yield BGPQuery(combination, self.query.distinguished,
                           self.query.preset, self.query.distinct,
                           self.query.limit)


@dataclass
class Reformulation:
    """The reformulated query ``qref``: a union of conjunctive queries,
    kept factorized per variant.

    ``ucq_size`` is the number of BGPs in the fully expanded union —
    the "syntactic size" the paper blames for costly evaluation; the
    factorized form is what the optimized evaluator consumes.
    """

    original: BGPQuery
    schema: Schema
    variants: List[FactorizedVariant] = field(default_factory=list)

    @property
    def ucq_size(self) -> int:
        return sum(variant.conjunct_count() for variant in self.variants)

    @property
    def variant_count(self) -> int:
        return len(self.variants)

    def to_ucq(self, deduplicate: bool = True) -> List[BGPQuery]:
        """Expand to the explicit union of conjunctive queries."""
        conjuncts: List[BGPQuery] = []
        seen: Set[tuple] = set()
        for variant in self.variants:
            for conjunct in variant.conjuncts():
                if not deduplicate:
                    conjuncts.append(conjunct)
                    continue
                key = canonical_form(conjunct)
                if key not in seen:
                    seen.add(key)
                    conjuncts.append(conjunct)
        return conjuncts

    def to_minimized_ucq(self) -> List[BGPQuery]:
        """The expanded union with contained conjuncts removed.

        Applies conjunctive-query containment (see
        :mod:`repro.sparql.containment`) on top of the canonical-form
        dedup; the answer set is provably unchanged, the evaluated
        union is smaller.  Worth it when the union is evaluated many
        times; the minimization itself is quadratic in the number of
        conjuncts with an NP homomorphism check inside (cheap at
        typical conjunct sizes).
        """
        from ..sparql.containment import minimize_ucq

        return minimize_ucq(self.to_ucq())

    def summary(self) -> str:
        return (f"reformulation of {self.original.to_sparql()!r}: "
                f"{self.variant_count} variant(s), UCQ size {self.ucq_size}")


def reformulate(query: BGPQuery, schema: Schema) -> Reformulation:
    """Reformulate ``query`` w.r.t. ``schema`` (closure algorithm).

    Evaluating the result against the asserted graph ``G`` returns
    ``q(G∞)`` (see the module docstring).
    """
    with span("reformulate", atoms=len(query.patterns)) as sp:
        metrics = get_metrics()
        fanout = metrics.histogram("reformulation.atom_fanout")
        result = Reformulation(original=query, schema=schema)
        for variant_query in expand_bindings(query, schema):
            alternatives = tuple(
                tuple(atom_alternatives(atom, schema))
                for atom in variant_query.patterns
            )
            for atom_set in alternatives:
                fanout.observe(len(atom_set))
            result.variants.append(FactorizedVariant(variant_query, alternatives))
        ucq_size = result.ucq_size
        sp.set(variants=result.variant_count, ucq_size=ucq_size)
        metrics.counter("reformulation.calls").inc()
        metrics.histogram("reformulation.variants").observe(result.variant_count)
        metrics.histogram("reformulation.ucq_size").observe(ucq_size)
    return result


# ----------------------------------------------------------------------
# the literal fixpoint algorithm of [12]
# ----------------------------------------------------------------------

def _single_steps(query: BGPQuery, schema: Schema) -> Iterator[BGPQuery]:
    """All queries reachable from ``query`` by ONE rewrite step using
    one DIRECT schema constraint (rules of [12], Section 4)."""
    for index, atom in enumerate(query.patterns):
        prop = atom.p
        if isinstance(prop, Variable) or prop in SCHEMA_PROPERTIES:
            continue
        if prop == RDF.type:
            cls = atom.o
            if isinstance(cls, Variable) or isinstance(cls, Literal):
                continue
            for triple in schema.triples():
                if triple.p == RDFS.subClassOf and triple.o == cls:
                    yield query.replace_pattern(
                        index, TriplePattern(atom.s, RDF.type, triple.s))
                elif triple.p == RDFS.domain and triple.o == cls:
                    yield query.replace_pattern(
                        index, TriplePattern(atom.s, triple.s, fresh_variable()))
                elif triple.p == RDFS.range and triple.o == cls:
                    yield query.replace_pattern(
                        index, TriplePattern(fresh_variable(), triple.s, atom.s))
        else:
            for triple in schema.triples():
                if triple.p == RDFS.subPropertyOf and triple.o == prop:
                    yield query.replace_pattern(
                        index, TriplePattern(atom.s, triple.s, atom.o))


def reformulate_fixpoint(query: BGPQuery, schema: Schema,
                         max_conjuncts: Optional[int] = None) -> List[BGPQuery]:
    """The breadth-first reformulation of [12], producing the expanded
    UCQ directly.  Provided for conformance testing and ablations;
    equivalent (up to duplicates) to ``reformulate(...).to_ucq()``.

    ``max_conjuncts`` guards runaway expansions in interactive use.
    """
    with span("reformulate.fixpoint", atoms=len(query.patterns)) as sp:
        conjuncts: List[BGPQuery] = []
        seen: Set[tuple] = set()
        frontier: List[BGPQuery] = []
        for specialized in expand_bindings(query, schema):
            key = canonical_form(specialized)
            if key not in seen:
                seen.add(key)
                conjuncts.append(specialized)
                frontier.append(specialized)
        while frontier:
            if max_conjuncts is not None and len(conjuncts) > max_conjuncts:
                raise RuntimeError(
                    f"reformulation exceeded {max_conjuncts} conjuncts")
            next_frontier: List[BGPQuery] = []
            for current in frontier:
                for rewritten in _single_steps(current, schema):
                    key = canonical_form(rewritten)
                    if key not in seen:
                        seen.add(key)
                        conjuncts.append(rewritten)
                        next_frontier.append(rewritten)
            frontier = next_frontier
        sp.set(ucq_size=len(conjuncts))
        get_metrics().histogram("reformulation.ucq_size").observe(len(conjuncts))
    return conjuncts
