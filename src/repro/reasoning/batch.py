"""Set-at-a-time semi-naive saturation over encoded triples.

The generic engine in :mod:`repro.reasoning.saturation` fires rules
one binding at a time: every candidate costs a decoded
:class:`~repro.rdf.triples.Triple`, a pattern match building a
``{Variable: Term}`` dict, and a re-encode on insertion.  This engine
keeps the whole semi-naive loop in identifier space: each round joins
the *entire* delta relation of a rule's pivot atom against the graph
through one compiled :class:`~repro.sparql.joins.BGPPlan` (scans plus
sorted intersections on columnar graphs), instantiates heads
as integer triples, and lands each rule's conclusions with a single
:meth:`~repro.rdf.graph.Graph.add_encoded` batch.

Round structure, rule visibility and the semi-naive delta restriction
match the generic engine exactly, so both compute the same fixpoint in
the same number of rounds — the differential suite checks equality
triple for triple.  Works for *any* safe rule set on either backend;
``saturate`` selects it automatically for columnar graphs.
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple)

from ..cancellation import current_token
from ..obs import get_metrics, span
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.terms import BlankNode, Term, URI, Variable
from ..rdf.triples import TriplePattern
from ..sparql.joins import BGPPlan, compile_bgp
from .rulesets import RuleSet

__all__ = ["saturate_batch"]

EncodedTriple = Tuple[int, int, int]

_KIND_URI = 0
_KIND_BLANK = 1
_KIND_LITERAL = 2


class _TermKinds:
    """Lazily-grown map from identifier to term kind.

    Head well-formedness (no literal/blank in forbidden positions) is
    a per-*term* property; caching it per identifier avoids a decode
    and two isinstance checks per candidate conclusion.
    """

    __slots__ = ("_kinds", "_dictionary")

    def __init__(self, dictionary: TermDictionary):
        self._kinds: List[int] = []
        self._dictionary = dictionary

    def __call__(self, identifier: int) -> int:
        kinds = self._kinds
        if identifier >= len(kinds):
            decode = self._dictionary.decode
            for i in range(len(kinds), identifier + 1):
                term = decode(i)
                if isinstance(term, URI):
                    kinds.append(_KIND_URI)
                elif isinstance(term, BlankNode):
                    kinds.append(_KIND_BLANK)
                else:
                    kinds.append(_KIND_LITERAL)
        return kinds[identifier]


def _compile_pivot(pattern: TriplePattern, slot_of: Dict[Variable, int],
                   nslots: int, lookup: Callable[[Term], Optional[int]],
                   pre_checked: Tuple[int, ...] = ()
                   ) -> Optional[Callable[[EncodedTriple],
                                          Optional[List[Optional[int]]]]]:
    """A matcher turning one delta triple into an initial binding.

    Returns None when a pivot constant is not even in the dictionary —
    no delta triple can match this round.  ``pre_checked`` positions
    are constants the caller already guarantees (the per-predicate
    delta partitions): their equality checks are elided, which for the
    dominant constant-predicate pivot shape leaves a check-free
    assigner.
    """
    checks: List[Tuple[int, int]] = []      # (position, identifier)
    assigns: List[Tuple[int, int]] = []     # (position, slot)
    dup_checks: List[Tuple[int, int]] = []  # (position, slot)
    seen: Set[int] = set()
    for position, term in enumerate(pattern):
        if isinstance(term, Variable):
            slot = slot_of[term]
            if slot in seen:
                dup_checks.append((position, slot))
            else:
                seen.add(slot)
                assigns.append((position, slot))
        else:
            identifier = lookup(term)
            if identifier is None:
                return None
            if position not in pre_checked:
                checks.append((position, identifier))

    if not checks and not dup_checks:
        def match_all(triple: EncodedTriple) -> List[Optional[int]]:
            binding: List[Optional[int]] = [None] * nslots
            for position, slot in assigns:
                binding[slot] = triple[position]
            return binding

        # every candidate matches: callers can build the seed batch
        # from the assignment spec directly, skipping a call per triple
        match_all.assigns_only = tuple(assigns)  # type: ignore[attr-defined]
        return match_all

    def match(triple: EncodedTriple) -> Optional[List[Optional[int]]]:
        for position, identifier in checks:
            if triple[position] != identifier:
                return None
        binding: List[Optional[int]] = [None] * nslots
        for position, slot in assigns:
            binding[slot] = triple[position]
        for position, slot in dup_checks:
            if triple[position] != binding[slot]:
                return None
        return binding

    return match


def _compile_head(head: TriplePattern, slot_of: Dict[Variable, int],
                  encode: Callable[[Term], int], kinds: _TermKinds,
                  nonliteral_slots: AbstractSet[int] = frozenset(),
                  uri_slots: AbstractSet[int] = frozenset()
                  ) -> Callable[[Sequence[List[Optional[int]]],
                                 Set[EncodedTriple]], None]:
    """A batch instantiator: whole binding blocks to encoded conclusions.

    Mirrors :func:`repro.reasoning.rules.instantiate_head`: bindings
    that would ground a malformed triple (literal subject, non-URI
    property) are dropped.  Constant head positions are checked once
    here instead of once per candidate; the per-binding loop only
    kind-checks positions that actually vary.

    ``nonliteral_slots`` / ``uri_slots`` are slots the *body* proves
    safe (bound from subject/predicate positions of stored triples, so
    never a literal / always a URI): their runtime kind checks are
    elided, and when nothing is left to check the block folds into the
    derived set through one C-level ``set.update`` sweep.
    """
    spec: List[Tuple[bool, int]] = []  # (is_slot, slot-or-identifier)
    for term in head:
        if isinstance(term, Variable):
            spec.append((True, slot_of[term]))
        else:
            spec.append((False, encode(term)))
    (s_var, s_val), (p_var, p_val), (o_var, o_val) = spec
    if ((not s_var and kinds(s_val) == _KIND_LITERAL)
            or (not p_var and kinds(p_val) != _KIND_URI)):
        # every instantiation would be malformed: a constant no-op rule
        def drop_all(bindings: Sequence[List[Optional[int]]],
                     derived: Set[EncodedTriple]) -> None:
            return None

        return drop_all

    s_check = s_var and (s_val not in nonliteral_slots
                         and s_val not in uri_slots)
    p_check = p_var and p_val not in uri_slots
    if not s_check and not p_check:
        # nothing left to verify per binding: fold whole blocks into
        # the set with a generator the C update loop drives, with the
        # dominant head shapes (variable s/o around a constant or
        # variable p) specialized to direct index expressions
        if s_var and o_var:
            if p_var:
                def update_all(bindings: Sequence[List[Optional[int]]],
                               derived: Set[EncodedTriple]) -> None:
                    derived.update((b[s_val], b[p_val], b[o_val])
                                   for b in bindings)
            else:
                def update_all(bindings: Sequence[List[Optional[int]]],
                               derived: Set[EncodedTriple]) -> None:
                    derived.update((b[s_val], p_val, b[o_val])
                                   for b in bindings)
        else:
            def update_all(bindings: Sequence[List[Optional[int]]],
                           derived: Set[EncodedTriple]) -> None:
                derived.update((b[s_val] if s_var else s_val,
                                b[p_val] if p_var else p_val,
                                b[o_val] if o_var else o_val)
                               for b in bindings)

        return update_all

    def instantiate_block(bindings: Sequence[List[Optional[int]]],
                          derived: Set[EncodedTriple]) -> None:
        add = derived.add
        # index the kind cache directly; fall back to the growing
        # call only for identifiers minted since the cache last grew
        kind_list = kinds._kinds
        cached = len(kind_list)
        for binding in bindings:
            s = binding[s_val] if s_var else s_val
            p = binding[p_val] if p_var else p_val
            if s_var and ((kind_list[s] if s < cached else kinds(s))  # type: ignore[operator]
                          == _KIND_LITERAL):
                continue
            if p_var and ((kind_list[p] if p < cached else kinds(p))  # type: ignore[operator]
                          != _KIND_URI):
                continue
            o = binding[o_val] if o_var else o_val
            add((s, p, o))  # type: ignore[arg-type]

    return instantiate_block


def _fire_rule_batch(graph: Graph, rule, delta: Sequence[EncodedTriple],
                     kinds: _TermKinds,
                     by_predicate: Dict[int, List[EncodedTriple]]
                     ) -> Set[EncodedTriple]:
    """All conclusions of one rule against (graph, delta), encoded.

    Implements the semi-naive restriction: one plan per pivot atom,
    seeded with every matching delta triple, joining the remaining
    atoms against the full graph.  ``by_predicate`` (the round's delta
    grouped by predicate) narrows constant-predicate pivots to their
    own partition instead of matching the full delta.
    """
    lookup = graph.dictionary.lookup
    encode = graph.dictionary.encode
    derived: Set[EncodedTriple] = set()
    body = rule.body
    for pivot, pattern in enumerate(body):
        candidates = delta
        pre_checked: Tuple[int, ...] = ()
        if not isinstance(pattern.p, Variable):
            identifier = lookup(pattern.p)
            if identifier is None:
                continue
            candidates = by_predicate.get(identifier, ())
            if not candidates:
                continue
            pre_checked = (1,)  # partition key == the predicate check
        pivot_variables: List[Variable] = []
        for term in pattern:
            if isinstance(term, Variable) and term not in pivot_variables:
                pivot_variables.append(term)
        remaining = [p for i, p in enumerate(body) if i != pivot]
        plan: BGPPlan = compile_bgp(graph, remaining, optimize=True,
                                    pre_bound=pivot_variables)
        if plan.empty:
            continue
        matcher = _compile_pivot(pattern, plan.slot_of, plan.nslots, lookup,
                                 pre_checked)
        if matcher is None:
            continue
        # the body proves head kinds: a slot bound from a subject
        # position of a stored triple is never a literal, one bound
        # from a predicate position is a URI — so those per-binding
        # checks compile away entirely
        nonliteral_slots: Set[int] = set()
        uri_slots: Set[int] = set()
        for atom in body:
            for position, term in enumerate(atom):
                if isinstance(term, Variable):
                    slot = plan.slot_of.get(term)
                    if slot is None:
                        continue
                    if position == 0:
                        nonliteral_slots.add(slot)
                    elif position == 1:
                        uri_slots.add(slot)
        instantiate_block = _compile_head(rule.head, plan.slot_of, encode,
                                          kinds, nonliteral_slots, uri_slots)
        assigns_only = getattr(matcher, "assigns_only", None)
        if assigns_only is not None:
            nslots = plan.nslots
            seeds = []
            append = seeds.append
            if len(assigns_only) == 2:
                # the dominant pivot shape (?s, const_p, ?o): two
                # direct stores per delta triple
                (pos_a, slot_a), (pos_b, slot_b) = assigns_only
                for triple in candidates:
                    seed: List[Optional[int]] = [None] * nslots
                    seed[slot_a] = triple[pos_a]
                    seed[slot_b] = triple[pos_b]
                    append(seed)
            else:
                for triple in candidates:
                    seed = [None] * nslots
                    for position, slot in assigns_only:
                        seed[slot] = triple[position]
                    append(seed)
        else:
            seeds = [seed for triple in candidates
                     if (seed := matcher(triple)) is not None]
        if not seeds:
            continue
        # block-at-a-time: the plan hands back whole binding lists and
        # the head instantiator folds each into the derived set without
        # a per-binding function call
        for block in plan.run_blocks(seeds):
            instantiate_block(block, derived)
    return derived


def saturate_batch(graph: Graph, ruleset: RuleSet, base_size: int,
                   max_rounds: Optional[int]):
    """Saturate ``graph`` in place with the set-at-a-time engine.

    Called through :func:`repro.reasoning.saturation.saturate` (which
    owns copying, tracing and metrics); returns its
    :class:`~repro.reasoning.saturation.SaturationResult`.
    """
    from .saturation import SaturationResult

    rule_counts: Dict[str, int] = {rule.name: 0 for rule in ruleset}
    round_deltas = get_metrics().histogram("saturation.round_delta")
    kinds = _TermKinds(graph.dictionary)
    # round boundaries are natural compaction points: merging the
    # delta logs up front puts the whole round's scans on the
    # single-run fast path (a no-op on the hash backend)
    compact = getattr(graph.index, "compact", None)
    token = current_token()  # serving deadline, if one is armed
    delta: List[EncodedTriple] = list(graph.index)
    rounds = 0
    while delta:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if token is not None:
            # round boundaries are the engine's safe cancellation
            # points: the graph is consistent between rounds
            token.raise_if_cancelled()
        rounds += 1
        if compact is not None:
            compact()
        new_this_round: List[EncodedTriple] = []
        # partition the round's delta by predicate once: every
        # constant-predicate pivot (the common rule shape) then seeds
        # from its own partition instead of re-matching the whole
        # delta per (rule, pivot) pair
        by_predicate: Dict[int, List[EncodedTriple]] = {}
        for triple in delta:
            by_predicate.setdefault(triple[1], []).append(triple)
        with span("saturate.round", round=rounds) as round_span:
            for rule in ruleset:
                derived = _fire_rule_batch(graph, rule, delta, kinds,
                                           by_predicate)
                if not derived:
                    continue
                fresh = graph.add_encoded(derived)
                rule_counts[rule.name] += len(fresh)
                new_this_round.extend(fresh)
            round_span.set(delta_in=len(delta), delta_out=len(new_this_round))
        round_deltas.observe(len(new_this_round))
        delta = new_this_round
    return SaturationResult(
        graph=graph, base_size=base_size, inferred=len(graph) - base_size,
        rounds=rounds, engine="seminaive-batch", rule_counts=rule_counts,
    )
