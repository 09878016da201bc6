"""Incremental saturation maintenance under updates.

Saturation "requires time to be computed, space to be stored, and must
be recomputed upon updates" (Section II-B); whether maintaining it
beats re-saturating — and how many query runs amortize it — is exactly
what Figure 3's instance/schema insertion/deletion thresholds measure.

This module provides the two classical maintenance algorithms, both
driven by the same declarative rules as the saturation engine, so
*schema* updates need no special treatment: a schema triple is simply a
premise with a large fan-out.

* :class:`DRedReasoner` — *delete and re-derive* (as in Oracle's and
  OWLIM-style materialization maintenance [9], [13]):
  deletions are over-approximated by forward propagation, then
  over-deleted triples that survive on other support are re-derived.
  Correct for every rule set and schema, including cyclic hierarchies.
* :class:`CountingReasoner` — justification bookkeeping in the spirit
  of Broekstra & Kampman's truth maintenance for RDF Schema [11]:
  every derivation is recorded; a derived triple is removed when its
  last justification dies.  Faster deletes than DRed, but — as in the
  original paper — unsound when justifications can be cyclic, which for
  RDFS means cyclic subclass/subproperty hierarchies; such deletions
  are refused with :class:`CyclicSchemaError`.

Insertions use the same semi-naive delta propagation in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..rdf.triples import Triple
from ..schema import Schema, strongly_connected_components
from .rules import Derivation
from .rulesets import RDFS_DEFAULT, RuleSet
from .saturation import saturate

__all__ = ["MaintenanceResult", "IncrementalReasoner", "DRedReasoner",
           "CountingReasoner", "CyclicSchemaError", "one_step_derivations"]


class CyclicSchemaError(RuntimeError):
    """Raised when counting-based deletion meets a cyclic hierarchy."""


@dataclass
class MaintenanceResult:
    """Outcome of one maintenance operation (insert or delete batch)."""

    operation: str
    algorithm: str
    requested: int
    explicit_changed: int
    implicit_added: int = 0
    implicit_removed: int = 0
    overdeleted: int = 0
    rederived: int = 0
    seconds: float = 0.0

    def summary(self) -> str:
        parts = [f"{self.operation}[{self.algorithm}]: {self.requested} requested,"
                 f" {self.explicit_changed} explicit"]
        if self.implicit_added:
            parts.append(f"+{self.implicit_added} implicit")
        if self.implicit_removed:
            parts.append(f"-{self.implicit_removed} implicit")
        if self.operation == "delete" and self.algorithm == "dred":
            parts.append(f"(overdeleted {self.overdeleted}, rederived {self.rederived})")
        parts.append(f"in {self.seconds * 1000:.1f} ms")
        return " ".join(parts)


def one_step_derivations(graph: Graph, triple: Triple,
                         ruleset: RuleSet) -> Iterable[Derivation]:
    """All single-rule derivations of ``triple`` from ``graph``.

    Backward step: unify each rule head with ``triple`` and solve the
    body against the graph.  Used by DRed's re-derivation phase.
    """
    for rule in ruleset:
        binding = rule.head.matches(triple)
        if binding is None:
            continue
        for full_binding in rule.match_body(graph, binding):
            derivation = rule._derive(full_binding)  # noqa: SLF001
            if derivation is not None and derivation.conclusion == triple:
                yield derivation


class IncrementalReasoner:
    """Base class: a saturated graph kept consistent under updates.

    Holds the set of *explicit* triples (the user's assertions) and the
    saturated graph ``G∞``.  Subclasses implement deletion;
    insertion's semi-naive delta propagation is shared.

    The maintained invariant — checked exhaustively by the test suite —
    is ``self.graph == saturate(explicit_graph())`` after any update
    sequence.
    """

    algorithm = "abstract"

    def __init__(self, graph: Graph, ruleset: RuleSet = RDFS_DEFAULT):
        self.ruleset = ruleset
        self.explicit: Set[Triple] = set(graph)
        self.graph: Graph = graph.copy()
        #: the (added, removed) triples of the last insert()/delete(),
        #: explicit *and* implicit — the delta consumers (per-view
        #: incremental maintenance) need the triples themselves, not
        #: just the counts in :class:`MaintenanceResult`
        self.last_delta: Tuple[List[Triple], List[Triple]] = ([], [])
        self._initial_saturation()
        # the saturation landed in delta logs: fold them into the main
        # runs once so queries scan zero-copy runs (a no-op on the hash
        # backend)
        compact = getattr(self.graph.index, "compact", None)
        if compact is not None:
            compact()

    def _initial_saturation(self) -> None:
        saturate(self.graph, self.ruleset, in_place=True)

    @classmethod
    def resume(cls, explicit: Iterable[Triple], saturated: Graph,
               ruleset: RuleSet = RDFS_DEFAULT) -> "IncrementalReasoner":
        """Adopt an already-saturated graph instead of re-saturating.

        The durable-storage recovery path persists ``G∞`` and reopens
        it here, so a restart costs a WAL-tail replay rather than a
        full fixpoint.  The caller asserts the invariant
        ``saturated == saturate(explicit)``; ``saturated`` ownership
        transfers to the reasoner.
        """
        with span("maintenance.resume", algorithm=cls.algorithm,
                  triples=len(saturated)):
            reasoner = cls.__new__(cls)
            reasoner.ruleset = ruleset
            reasoner.explicit = set(explicit)
            reasoner.graph = saturated
            reasoner.last_delta = ([], [])
            reasoner._resume_derived_state()
        return reasoner

    def _resume_derived_state(self) -> None:
        """Hook: rebuild per-algorithm bookkeeping after :meth:`resume`
        (the saturated graph itself is already in place)."""

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def explicit_graph(self) -> Graph:
        """The graph of explicit triples only (the user's assertions)."""
        result = Graph(namespaces=self.graph.namespaces.copy())
        result.update(self.explicit)
        return result

    def __len__(self) -> int:
        return len(self.graph)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.graph

    def insert(self, triples: Iterable[Triple]) -> MaintenanceResult:
        """Insert explicit triples and propagate their consequences."""
        batch = list(triples)
        with span("maintenance.insert", algorithm=self.algorithm,
                  requested=len(batch)) as sp:
            delta: List[Triple] = []
            explicit_changed = 0
            for triple in batch:
                if triple not in self.explicit:
                    self.explicit.add(triple)
                    explicit_changed += 1
                if self.graph.add(triple):
                    delta.append(triple)
                    self._on_explicit_added(triple)
            implicit = self._propagate_insertions(delta)
            implicit_added = len(implicit)
            self.last_delta = (delta + implicit, [])
            sp.set(implicit_added=implicit_added)
            result = MaintenanceResult(
                operation="insert", algorithm=self.algorithm,
                requested=len(batch), explicit_changed=explicit_changed,
                implicit_added=implicit_added,
            )
            self._record_metrics(result)
        result.seconds = sp.duration
        return result

    def _record_metrics(self, result: MaintenanceResult) -> None:
        metrics = get_metrics()
        metrics.counter("maintenance.operations", operation=result.operation,
                        algorithm=result.algorithm).inc()
        metrics.counter("maintenance.implicit_added").inc(result.implicit_added)
        metrics.counter("maintenance.implicit_removed").inc(
            result.implicit_removed)
        if result.operation == "delete" and result.algorithm == "dred":
            metrics.counter("maintenance.overdeleted").inc(result.overdeleted)
            metrics.counter("maintenance.rederived").inc(result.rederived)

    def delete(self, triples: Iterable[Triple]) -> MaintenanceResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared insertion machinery
    # ------------------------------------------------------------------

    #: Subclasses that need per-derivation bookkeeping set this to True,
    #: which routes insertion through the justification-recording path.
    records_justifications = False

    def _propagate_insertions(self, delta: List[Triple]) -> List[Triple]:
        """Semi-naive insertion propagation; returns implicit additions.

        Downstream justifications depend on *triples*, not on how many
        ways those triples are derived, so a new justification for an
        already-present triple needs no further propagation.
        """
        implicit_added: List[Triple] = []
        while delta:
            next_delta: List[Triple] = []
            for rule in self.ruleset:
                # materialize before inserting: fire() scans the graph's
                # indexes lazily, and adding while a scan is live skips
                # entries (the delta-log cursor goes stale)
                if self.records_justifications:
                    for derivation in list(rule.fire(self.graph, delta)):
                        self._record(derivation)
                        if self.graph.add(derivation.conclusion):
                            implicit_added.append(derivation.conclusion)
                            next_delta.append(derivation.conclusion)
                else:
                    for conclusion in list(
                            rule.fire_conclusions(self.graph, delta)):
                        if self.graph.add(conclusion):
                            implicit_added.append(conclusion)
                            next_delta.append(conclusion)
            delta = next_delta
        return implicit_added

    def _record(self, derivation: Derivation) -> bool:
        """Record a justification; return True when it is new."""
        return False

    def _on_explicit_added(self, triple: Triple) -> None:
        """Hook: a previously-absent explicit triple entered the graph."""

    def _check_consistency(self) -> bool:
        """Debug helper: compare against a from-scratch saturation."""
        return self.graph == saturate(self.explicit_graph(), self.ruleset).graph


class DRedReasoner(IncrementalReasoner):
    """Delete-and-rederive maintenance (correct for all rule sets)."""

    algorithm = "dred"

    def delete(self, triples: Iterable[Triple]) -> MaintenanceResult:
        """Delete explicit triples; over-delete then re-derive."""
        batch = list(triples)
        with span("maintenance.delete", algorithm=self.algorithm,
                  requested=len(batch)) as sp:
            explicit_changed = 0
            seeds: List[Triple] = []
            for triple in batch:
                if triple in self.explicit:
                    self.explicit.discard(triple)
                    explicit_changed += 1
                    seeds.append(triple)

            # Phase 1 — over-deletion: propagate, over the pre-deletion
            # graph, every conclusion reachable from a deleted premise.
            with span("maintenance.overdelete"):
                snapshot = self.graph.copy()
                overdeleted: Set[Triple] = set()
                queue: List[Triple] = []
                for seed in seeds:
                    if seed not in self.explicit and seed in self.graph:
                        overdeleted.add(seed)
                        queue.append(seed)
                while queue:
                    next_queue: List[Triple] = []
                    for rule in self.ruleset:
                        for conclusion in rule.fire_conclusions(snapshot, queue):
                            if conclusion in overdeleted or conclusion in self.explicit:
                                continue
                            if conclusion in self.graph:
                                overdeleted.add(conclusion)
                                next_queue.append(conclusion)
                    queue = next_queue
                for triple in overdeleted:
                    self.graph.remove(triple)

            # Phase 2 — re-derivation: an over-deleted triple survives if it
            # still has a one-step derivation from the remaining graph;
            # re-insertions then propagate semi-naively and can only
            # resurrect other over-deleted triples.
            with span("maintenance.rederive"):
                rederived: List[Triple] = []
                for triple in overdeleted:
                    for __ in one_step_derivations(self.graph, triple,
                                                   self.ruleset):
                        self.graph.add(triple)
                        rederived.append(triple)
                        break
                delta = list(rederived)
                while delta:
                    next_delta: List[Triple] = []
                    for rule in self.ruleset:
                        # materialize: adding mid-scan corrupts the
                        # live delta-log cursor (see _propagate_insertions)
                        for conclusion in list(
                                rule.fire_conclusions(self.graph, delta)):
                            if conclusion not in self.graph:
                                self.graph.add(conclusion)
                                rederived.append(conclusion)
                                next_delta.append(conclusion)
                    delta = next_delta

            rederived_set = set(rederived)
            self.last_delta = ([], [t for t in overdeleted
                                    if t not in rederived_set])
            removed = len(overdeleted) - len(rederived_set & overdeleted)
            explicit_removed = sum(1 for t in seeds if t not in self.graph)
            sp.set(overdeleted=len(overdeleted), rederived=len(set(rederived)))
            result = MaintenanceResult(
                operation="delete", algorithm=self.algorithm,
                requested=len(batch), explicit_changed=explicit_changed,
                implicit_removed=removed - explicit_removed,
                overdeleted=len(overdeleted), rederived=len(set(rederived)),
            )
            self._record_metrics(result)
        result.seconds = sp.duration
        return result


class CountingReasoner(IncrementalReasoner):
    """Justification-counting maintenance (Broekstra–Kampman style).

    Keeps, per derived triple, the set of its derivations, plus the
    inverted premise → derivations index; deletion cascades along the
    justification graph.  Deletion requires the subclass/subproperty
    hierarchies to be acyclic (else justifications can be mutually
    supporting and the cascade under-deletes); cyclic hierarchies raise
    :class:`CyclicSchemaError` — use :class:`DRedReasoner` there.
    """

    algorithm = "counting"

    records_justifications = True

    def __init__(self, graph: Graph, ruleset: RuleSet = RDFS_DEFAULT):
        self._justifications: Dict[Triple, Set[Derivation]] = {}
        self._uses: Dict[Triple, Set[Derivation]] = {}
        super().__init__(graph, ruleset)

    # -- initial saturation records every derivation -------------------

    def _initial_saturation(self) -> None:
        delta = list(self.graph)
        self._propagate_insertions(delta)

    def _resume_derived_state(self) -> None:
        # justifications are not persisted; one recording pass over the
        # saturated graph re-derives them (every conclusion is already
        # present, so nothing propagates — it only fills the indexes)
        self._justifications = {}
        self._uses = {}
        self._propagate_insertions(list(self.graph))

    def _record(self, derivation: Derivation) -> bool:
        bucket = self._justifications.setdefault(derivation.conclusion, set())
        if derivation in bucket:
            return False
        bucket.add(derivation)
        for premise in derivation.premises:
            self._uses.setdefault(premise, set()).add(derivation)
        return True

    # -- deletion -------------------------------------------------------

    def justification_count(self, triple: Triple) -> int:
        """Number of currently recorded derivations of ``triple``."""
        return len(self._justifications.get(triple, ()))

    def delete(self, triples: Iterable[Triple]) -> MaintenanceResult:
        batch = set(triples)
        with span("maintenance.delete", algorithm=self.algorithm,
                  requested=len(batch)) as sp:
            self._ensure_acyclic()
            explicit_changed = 0
            queue: List[Triple] = []
            for triple in batch:
                if triple in self.explicit:
                    self.explicit.discard(triple)
                    explicit_changed += 1
                    if not self._justifications.get(triple):
                        queue.append(triple)

            implicit_removed = 0
            explicit_seed_removed = 0
            gone: List[Triple] = []
            while queue:
                triple = queue.pop()
                if triple not in self.graph:
                    continue
                if triple in self.explicit or self._justifications.get(triple):
                    continue
                self.graph.remove(triple)
                gone.append(triple)
                if triple in batch:
                    explicit_seed_removed += 1
                else:
                    implicit_removed += 1
                # invalidate every derivation this triple participates in
                for derivation in self._uses.pop(triple, set()):
                    conclusion = derivation.conclusion
                    bucket = self._justifications.get(conclusion)
                    if bucket is None:
                        continue
                    bucket.discard(derivation)
                    for premise in derivation.premises:
                        if premise != triple:
                            uses = self._uses.get(premise)
                            if uses is not None:
                                uses.discard(derivation)
                    if not bucket:
                        del self._justifications[conclusion]
                        if conclusion not in self.explicit:
                            queue.append(conclusion)
                self._justifications.pop(triple, None)

            self.last_delta = ([], gone)
            sp.set(implicit_removed=implicit_removed)
            result = MaintenanceResult(
                operation="delete", algorithm=self.algorithm,
                requested=len(batch), explicit_changed=explicit_changed,
                implicit_removed=implicit_removed,
            )
            self._record_metrics(result)
        result.seconds = sp.duration
        return result

    def _ensure_acyclic(self) -> None:
        schema = Schema.from_graph(self.graph)
        cycles = (strongly_connected_components(schema._sub_class)  # noqa: SLF001
                  or strongly_connected_components(schema._sub_property))  # noqa: SLF001
        if cycles:
            raise CyclicSchemaError(
                "counting-based deletion is unsound under cyclic "
                "subclass/subproperty hierarchies; use DRedReasoner"
            )
