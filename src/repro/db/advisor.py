"""Strategy advisor: automating the saturation/reformulation choice.

Section II-D lists as an open problem "automatizing to the extent
possible the choice between these two techniques, based on a
quantitative evaluation of the application setting".  This module
implements the quantitative part: given a workload profile (relative
query frequencies and update rates), it *measures* every cost on the
actual data — the same costs Figure 3 is built from — and recommends
the strategy minimizing expected cost per workload period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..rdf.graph import Graph
from ..reasoning.encoding import EncodedGraphView
from ..reasoning.incremental import DRedReasoner
from ..reasoning.reformulation import reformulate
from ..reasoning.rulesets import RDFS_DEFAULT, RuleSet
from ..reasoning.saturation import saturate
from ..schema import Schema
from ..sparql.ast import BGPQuery
from ..sparql.evaluator import (DEFAULT_REFORMULATION_STRATEGY, evaluate,
                                evaluate_reformulation)
from ..workloads.updates import (instance_deletions, instance_insertions,
                                 schema_deletions, schema_insertions)
from ..analysis.measure import best_of, time_call
from ..obs import span
from .database import Strategy

__all__ = ["WorkloadProfile", "StrategyAdvice", "recommend_strategy"]

#: A per-query cost is often well under a millisecond, where one timing
#: is mostly scheduler noise: saturation and the encoded reformulation
#: can trade places from call to call.
MIN_QUERY_SAMPLES = 5


@dataclass(frozen=True)
class WorkloadProfile:
    """Expected workload over one accounting period.

    ``queries`` maps each query to how many times it runs per period;
    the four rates are update *batches* per period (batch size
    ``update_batch_size``).
    """

    queries: Tuple[Tuple[BGPQuery, float], ...]
    instance_insert_rate: float = 0.0
    instance_delete_rate: float = 0.0
    schema_insert_rate: float = 0.0
    schema_delete_rate: float = 0.0
    update_batch_size: int = 10

    @property
    def total_update_rate(self) -> float:
        return (self.instance_insert_rate + self.instance_delete_rate
                + self.schema_insert_rate + self.schema_delete_rate)


@dataclass
class StrategyAdvice:
    """The recommendation plus the evidence it rests on."""

    recommended: Strategy
    period_costs: Dict[str, float]          # strategy -> seconds/period
    per_query_costs: Dict[str, Dict[str, float]]
    maintenance_costs: Dict[str, float]
    saturation_cost: float
    notes: List[str] = field(default_factory=list)
    #: if ``recommended`` is REFORMULATION, how to evaluate the
    #: reformulated queries (the default strategy or ``"encoded"``)
    reformulation_strategy: str = DEFAULT_REFORMULATION_STRATEGY

    def summary(self) -> str:
        lines = [f"recommended strategy: {self.recommended.value}"]
        for name, cost in sorted(self.period_costs.items(),
                                 key=lambda kv: kv[1]):
            lines.append(f"  {name:>13}: {cost * 1000:10.2f} ms / period")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def recommend_strategy(graph: Graph, profile: WorkloadProfile,
                       ruleset: RuleSet = RDFS_DEFAULT,
                       repeat: int = 2) -> StrategyAdvice:
    """Measure the strategies on ``graph`` and pick the cheapest.

    The saturation regime pays maintenance for every update batch plus
    cheap evaluation per query; the reformulation regime pays nothing
    on updates (instance ones, at least) but more per query.  The
    one-time initial saturation cost is reported separately (it
    amortizes — Figure 3 tells over how many runs).  Each cost is the
    best of ``repeat`` timings; the per-query ones take at least
    :data:`MIN_QUERY_SAMPLES`, interleaved across the strategies.
    """
    saturation_timing = best_of(lambda: saturate(graph, ruleset), repeat)
    saturated = saturation_timing.result.graph  # type: ignore[union-attr]
    schema = Schema.from_graph(graph)

    per_query: Dict[str, Dict[str, float]] = {}
    for index, (query, __) in enumerate(profile.queries):
        calls: Dict[str, Callable[[], object]] = {
            "saturation": lambda: evaluate(saturated, query),
            "reformulation": lambda: evaluate_reformulation(
                graph, reformulate(query, schema)),
            "reformulation-encoded": lambda: evaluate_reformulation(
                graph, reformulate(query, schema), strategy="encoded"),
        }
        entry = {strategy: math.inf for strategy in calls}
        # round-robin, so a slow spell of a shared machine hits every
        # strategy alike instead of deciding between them
        for __ in range(max(repeat, MIN_QUERY_SAMPLES)):
            for strategy, call in calls.items():
                entry[strategy] = min(entry[strategy],
                                      time_call(call).seconds)
        per_query[f"q{index}"] = entry

    batch = profile.update_batch_size
    batches = {
        "instance-insert": (instance_insertions(graph, batch),
                            profile.instance_insert_rate),
        "instance-delete": (instance_deletions(graph, batch),
                            profile.instance_delete_rate),
        "schema-insert": (schema_insertions(graph, batch),
                          profile.schema_insert_rate),
        "schema-delete": (schema_deletions(graph, batch),
                          profile.schema_delete_rate),
    }
    maintenance: Dict[str, float] = {}
    for kind, (update, rate) in batches.items():
        if rate <= 0:
            maintenance[kind] = 0.0
            continue
        costs = []
        for __ in range(repeat):
            reasoner = DRedReasoner(graph, ruleset)
            with span("advisor.maintenance", kind=kind) as sp:
                if kind.endswith("insert"):
                    reasoner.insert(update.triples)
                else:
                    reasoner.delete(update.triples)
            costs.append(sp.duration)
        maintenance[kind] = min(costs)

    period_costs: Dict[str, float] = {}
    query_rates = [rate for __, rate in profile.queries]

    def weighted(strategy: str) -> float:
        return sum(rate * per_query[f"q{i}"][strategy]
                   for i, rate in enumerate(query_rates))

    period_costs["saturation"] = weighted("saturation") + sum(
        maintenance[kind] * rate
        for kind, (__, rate) in batches.items()
    )
    # on a schema update a reformulating database re-reads the schema
    # from the graph and drops its cached rewritings (a dict clear);
    # instance updates cost it nothing
    schema_cost = best_of(lambda: Schema.from_graph(graph),
                          max(1, repeat - 1)).seconds
    schema_rate = profile.schema_insert_rate + profile.schema_delete_rate
    period_costs["reformulation"] = (weighted("reformulation")
                                     + schema_cost * schema_rate)
    # the encoded strategy additionally re-encodes the graph after a
    # schema change (columnar graphs only; hash graphs evaluate the
    # intervals against the source index and keep no view)
    encode_cost = (best_of(lambda: EncodedGraphView.build(graph),
                           max(1, repeat - 1)).seconds
                   if graph.backend == "columnar" else 0.0)
    period_costs["reformulation-encoded"] = (
        weighted("reformulation-encoded")
        + (schema_cost + encode_cost) * schema_rate)

    best_name = min(period_costs, key=lambda name: period_costs[name])
    notes = [
        f"one-time initial saturation: {saturation_timing.seconds * 1000:.1f} ms "
        f"(amortizes per Figure 3's thresholds)",
    ]
    if profile.total_update_rate == 0:
        notes.append("no updates in the profile: saturation is typically "
                     "preferable on a static graph (Section II-B)")
    if best_name == "reformulation-encoded":
        notes.append("reformulated queries are cheapest through the "
                     "semantic interval encoding (strategy 'encoded')")
    return StrategyAdvice(
        recommended=(Strategy.REFORMULATION
                     if best_name.startswith("reformulation")
                     else Strategy.SATURATION),
        period_costs=period_costs,
        per_query_costs=per_query,
        maintenance_costs=maintenance,
        saturation_cost=saturation_timing.seconds,
        notes=notes,
        reformulation_strategy=("encoded"
                                if best_name == "reformulation-encoded"
                                else DEFAULT_REFORMULATION_STRATEGY),
    )
