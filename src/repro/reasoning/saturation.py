"""Graph saturation (closure): forward-chaining to the fixpoint.

Saturation pre-computes and adds to an RDF graph all its implicit
triples; query answering then reduces to plain evaluation against the
saturated graph ``G∞`` (Section II-B).  The saturation is the unique
fixpoint of repeatedly applying immediate entailment, and
``G ⊢RDF s p o  iff  s p o ∈ G∞`` — an invariant the test suite checks.

Three engines are provided:

* ``seminaive`` — the generic engine and the reference: works for
  *any* rule set (RDFS-full, RDFS-Plus, user-defined rules) using
  semi-naive evaluation (each round only joins the previous round's
  delta, as in Datalog engines and OWLIM's forward chaining).
* ``seminaive-batch`` — the same semi-naive rounds evaluated
  set-at-a-time in identifier space (:mod:`repro.reasoning.batch`);
  ``auto`` picks it for non-ρdf rule sets on columnar graphs.
* ``schema-aware`` — the fast path for the ρdf fragment: first closes
  the schema (rdfs5/rdfs11), then derives all instance consequences in
  a single pass per triple using the schema's cached effective-domain/
  range and superclass/superproperty closures.  Dramatically faster,
  but only complete when the schema vocabulary itself is unconstrained
  (no "meta-schema" triples); ``saturate`` falls back automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..cancellation import current_token
from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..rdf.namespaces import RDF
from ..rdf.terms import Literal, URI
from ..rdf.triples import Triple
from ..schema import SCHEMA_PROPERTIES, Schema
from .rulesets import RDFS_DEFAULT, RHO_DF, RuleSet

__all__ = ["SaturationResult", "saturate", "saturation_of", "entails",
           "is_saturated", "has_meta_schema"]


@dataclass
class SaturationResult:
    """Outcome of a saturation run.

    ``graph`` is the saturated graph (the input graph itself when
    ``in_place=True``).  ``inferred`` counts the implicit triples made
    explicit; ``rounds`` the semi-naive iterations (1 for the
    schema-aware engine); ``rule_counts`` the productive derivations
    per rule (schema-aware runs report aggregate pseudo-rules).
    """

    graph: Graph
    base_size: int
    inferred: int = 0
    rounds: int = 0
    engine: str = "seminaive"
    seconds: float = 0.0
    rule_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def saturated_size(self) -> int:
        return self.base_size + self.inferred

    @property
    def blowup(self) -> float:
        """Saturated size over base size (1.0 = nothing inferred)."""
        if self.base_size == 0:
            return 1.0
        return self.saturated_size / self.base_size

    def summary(self) -> str:
        return (f"saturation[{self.engine}]: {self.base_size} -> "
                f"{self.saturated_size} triples (+{self.inferred}, "
                f"x{self.blowup:.2f}) in {self.rounds} round(s), "
                f"{self.seconds * 1000:.1f} ms")


def has_meta_schema(graph: Graph) -> bool:
    """True when the RDFS vocabulary is itself constrained by the graph.

    E.g. ``rdfs:subClassOf rdfs:domain rdfs:Class`` or a property
    declared as a super-property of ``rdf:type``.  In that regime the
    schema changes while instance rules fire, so the single-pass
    schema-aware engine is not complete and the generic engine is used.

    The answer is cached on the graph (keyed by its version counter):
    ``saturate`` asks up to three times per run, incremental
    maintenance once per update batch, and the scan itself touches
    dozens of index lookups.
    """
    return bool(graph.cached_derived("has_meta_schema", _compute_meta_schema))


def _compute_meta_schema(graph: Graph) -> bool:
    special = set(SCHEMA_PROPERTIES) | {RDF.type}
    for term in special:
        for p in SCHEMA_PROPERTIES:
            for __ in graph.triples(term, p, None):
                return True
            for __ in graph.triples(None, p, term):
                return True
    return False


def saturate(graph: Graph, ruleset: RuleSet = RDFS_DEFAULT,
             in_place: bool = False, engine: str = "auto",
             max_rounds: Optional[int] = None) -> SaturationResult:
    """Compute the saturation ``G∞`` of ``graph`` under ``ruleset``.

    ``engine`` is ``"auto"`` (schema-aware when the rule set is ρdf and
    the graph has no meta-schema; otherwise the set-at-a-time
    ``seminaive-batch`` engine on columnar graphs and ``seminaive`` on
    hash graphs), ``"seminaive"``, ``"seminaive-batch"`` or
    ``"schema-aware"``.  With ``in_place=False`` (default) the input
    graph is left untouched and a saturated copy is returned.
    ``max_rounds`` optionally caps semi-naive iterations (for tests and
    diagnostics); the fixpoint is reached when a round adds nothing.
    """
    target = graph if in_place else graph.copy()
    base_size = len(target)

    rhodf_rules = frozenset(RHO_DF.rules)
    is_rhodf = frozenset(ruleset.rules) == rhodf_rules

    with span("saturate", ruleset=ruleset.name, base_size=base_size) as sp:
        if engine == "auto":
            if is_rhodf and not has_meta_schema(target):
                engine = "schema-aware"
            elif target.backend == "columnar":
                engine = "seminaive-batch"
            else:
                engine = "seminaive"
        sp.set(engine=engine)
        if engine == "schema-aware":
            if not is_rhodf:
                raise ValueError("the schema-aware engine only supports the "
                                 "rhodf/rdfs-default rule set")
            if has_meta_schema(target):
                raise ValueError("graph constrains the RDFS vocabulary itself; "
                                 "use the semi-naive engine")
            result = _saturate_schema_aware(target, base_size)
        elif engine == "seminaive":
            result = _saturate_seminaive(target, ruleset, base_size, max_rounds)
        elif engine == "seminaive-batch":
            from .batch import saturate_batch
            result = saturate_batch(target, ruleset, base_size, max_rounds)
        else:
            raise ValueError(f"unknown engine {engine!r}; expected 'auto', "
                             f"'seminaive', 'seminaive-batch' or "
                             f"'schema-aware'")
        sp.set(inferred=result.inferred, rounds=result.rounds)
        _record_saturation_metrics(result)

    # the summary's wall-clock figure IS the span's duration: one
    # timing source, so the trace and the result can never disagree
    result.seconds = sp.duration
    return result


def _record_saturation_metrics(result: SaturationResult) -> None:
    metrics = get_metrics()
    metrics.counter("saturation.runs", engine=result.engine).inc()
    metrics.counter("saturation.inferred").inc(result.inferred)
    metrics.histogram("saturation.rounds").observe(result.rounds)
    metrics.histogram("saturation.blowup").observe(result.blowup)
    for rule, count in result.rule_counts.items():
        if count:
            metrics.counter("saturation.rule_fired", rule=rule).inc(count)


def saturation_of(graph: Graph, ruleset: RuleSet = RDFS_DEFAULT) -> Graph:
    """Convenience: return the saturated copy ``G∞`` of ``graph``."""
    return saturate(graph, ruleset).graph


def entails(graph: Graph, triple: Triple,
            ruleset: RuleSet = RDFS_DEFAULT) -> bool:
    """Decide ``G ⊢RDF s p o`` by membership in the saturation."""
    if triple in graph:
        return True
    return triple in saturate(graph, ruleset).graph


def is_saturated(graph: Graph, ruleset: RuleSet = RDFS_DEFAULT) -> bool:
    """True iff no rule can derive a triple absent from ``graph``."""
    for rule in ruleset:
        # offline check, not on the serving path
        for conclusion in rule.fire_conclusions(graph):  # sc: allow(SC303)
            if conclusion not in graph:
                return False
    return True


# ----------------------------------------------------------------------
# generic semi-naive engine
# ----------------------------------------------------------------------

def _saturate_seminaive(graph: Graph, ruleset: RuleSet, base_size: int,
                        max_rounds: Optional[int]) -> SaturationResult:
    rule_counts: Dict[str, int] = {rule.name: 0 for rule in ruleset}
    round_deltas = get_metrics().histogram("saturation.round_delta")
    token = current_token()  # serving deadline, if one is armed
    delta: List[Triple] = list(graph)
    rounds = 0
    while delta:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if token is not None:
            # round boundaries are the engine's safe cancellation
            # points: the graph is consistent between rounds
            token.raise_if_cancelled()
        rounds += 1
        new_this_round: List[Triple] = []
        with span("saturate.round", round=rounds) as round_span:
            for rule in ruleset:
                # materialize before inserting: fire_conclusions scans
                # the graph's indexes lazily, and adding while a scan
                # is live corrupts the iteration (seen with rules whose
                # head shares the body's predicate, e.g. symmetry)
                for conclusion in list(rule.fire_conclusions(graph, delta)):
                    if graph.add(conclusion):
                        rule_counts[rule.name] += 1
                        new_this_round.append(conclusion)
            round_span.set(delta_in=len(delta), delta_out=len(new_this_round))
        round_deltas.observe(len(new_this_round))
        delta = new_this_round
    return SaturationResult(
        graph=graph, base_size=base_size, inferred=len(graph) - base_size,
        rounds=rounds, engine="seminaive", rule_counts=rule_counts,
    )


# ----------------------------------------------------------------------
# schema-aware fast path for the rhodf fragment
# ----------------------------------------------------------------------

def _saturate_schema_aware(graph: Graph, base_size: int) -> SaturationResult:
    rule_counts = {"schema-closure": 0, "rdfs7": 0, "rdfs2": 0,
                   "rdfs3": 0, "rdfs9": 0}
    schema = Schema.from_graph(graph)

    # 1. close the schema itself (rdfs5 + rdfs11)
    for triple in list(schema.closure_triples()):
        if graph.add(triple):
            schema.add(triple)
            rule_counts["schema-closure"] += 1

    # 2. one pass over the instance triples; the schema's cached
    #    effective closures fold the rule interactions (7∘2, 2∘9, ...)
    #    into the per-triple expansion, so no fixpoint loop is needed.
    pending_types: Set[Triple] = set()
    for triple in list(graph):
        s, p, o = triple.s, triple.p, triple.o
        if p == RDF.type:
            for cls in schema.superclasses(o):
                if cls != o:
                    pending_types.add(Triple(s, RDF.type, cls))  # type: ignore[arg-type]
            continue
        if p in SCHEMA_PROPERTIES:
            continue
        for q in schema.superproperties(p):
            if q != p and isinstance(q, URI):
                if graph.add(Triple(s, q, o)):
                    rule_counts["rdfs7"] += 1
        for cls in schema.effective_domains(p):
            pending_types.add(Triple(s, RDF.type, cls))  # type: ignore[arg-type]
        if not isinstance(o, Literal):
            for cls in schema.effective_ranges(p):
                pending_types.add(Triple(o, RDF.type, cls))  # type: ignore[arg-type]

    # 3. type triples gathered above already include their rdfs9
    #    closure for domain/range derivations; explicit rdf:type data
    #    was closed in the loop.  Add them all.
    for triple in pending_types:
        if graph.add(triple):
            rule_counts["rdfs9"] += 1

    return SaturationResult(
        graph=graph, base_size=base_size, inferred=len(graph) - base_size,
        rounds=1, engine="schema-aware", rule_counts=rule_counts,
    )
