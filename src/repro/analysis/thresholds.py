"""Saturation thresholds: the quantitative heart of the paper (Fig. 3).

For a query ``q`` the *saturation threshold* is the minimum number of
runs ``n`` such that paying the one-time saturation cost and then
evaluating ``q`` on ``G∞`` ``n`` times is cheaper than answering via
reformulation ``n`` times:

    C_sat + n · C_eval∞(q)  ≤  n · C_ref(q)
    ⟹  n  =  ⌈ C_sat / (C_ref(q) − C_eval∞(q)) ⌉

and analogously the *threshold for an instance (or schema) insertion
(or deletion)* replaces ``C_sat`` with the cost of *maintaining* the
saturation after that update.  When reformulated answering is at least
as fast as evaluating on the saturated graph, saturation never
amortizes and the threshold is infinite.

The paper's headline observation — reproduced by
``benchmarks/bench_fig3_thresholds.py`` — is that these thresholds
vary by orders of magnitude across queries *on the same database*, so
neither technique dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..rdf.graph import Graph
from ..reasoning.incremental import CountingReasoner, DRedReasoner
from ..reasoning.reformulation import reformulate
from ..reasoning.rulesets import RDFS_DEFAULT, RuleSet
from ..reasoning.saturation import saturate
from ..schema import Schema
from ..sparql.ast import BGPQuery
from ..sparql.evaluator import evaluate, evaluate_reformulation
from ..workloads.updates import (UpdateBatch, instance_deletions,
                                 instance_insertions, schema_deletions,
                                 schema_insertions)
from .measure import best_of

__all__ = ["QueryCosts", "QueryThresholds", "ThresholdReport",
           "compute_threshold", "analyze_thresholds", "UPDATE_KINDS"]

#: The four update kinds of Figure 3, in its legend's order.
UPDATE_KINDS: Tuple[str, ...] = ("instance-insert", "instance-delete",
                                 "schema-insert", "schema-delete")


def compute_threshold(fixed_cost: float, per_run_saturated: float,
                      per_run_reformulated: float) -> float:
    """The minimum run count amortizing ``fixed_cost``; ``inf`` when
    reformulation is never slower per run."""
    margin = per_run_reformulated - per_run_saturated
    if margin <= 0:
        return math.inf
    if fixed_cost <= 0:
        return 1.0
    return float(math.ceil(fixed_cost / margin))


@dataclass
class QueryCosts:
    """Measured per-query costs (seconds)."""

    query_id: str
    eval_saturated: float        # evaluating q on G∞
    eval_reformulated: float     # reformulating + evaluating qref on G
    reformulation_only: float    # just producing qref
    ucq_size: int
    answers: int


@dataclass
class QueryThresholds:
    """Figure 3's five bars for one query."""

    query_id: str
    saturation: float
    by_update: Dict[str, float] = field(default_factory=dict)

    def series(self) -> List[Tuple[str, float]]:
        rows = [("saturation", self.saturation)]
        rows.extend((kind, self.by_update[kind]) for kind in UPDATE_KINDS
                    if kind in self.by_update)
        return rows


@dataclass
class ThresholdReport:
    """The complete Figure 3 dataset: global costs + per-query bars."""

    graph_size: int
    saturated_size: int
    saturation_cost: float
    maintenance_costs: Dict[str, float]
    query_costs: List[QueryCosts]
    thresholds: List[QueryThresholds]

    def to_table(self) -> str:
        """Fixed-width table, one row per query, one column per series."""
        header = ["query", "ucq", "eval(G∞) ms", "ref(G) ms", "saturation"]
        header += [kind for kind in UPDATE_KINDS]
        rows: List[List[str]] = []
        costs_by_id = {c.query_id: c for c in self.query_costs}
        for entry in self.thresholds:
            costs = costs_by_id[entry.query_id]
            row = [entry.query_id, str(costs.ucq_size),
                   f"{costs.eval_saturated * 1000:.2f}",
                   f"{costs.eval_reformulated * 1000:.2f}",
                   _fmt_threshold(entry.saturation)]
            row += [_fmt_threshold(entry.by_update.get(kind, math.nan))
                    for kind in UPDATE_KINDS]
            rows.append(row)
        widths = [max(len(header[i]), *(len(r[i]) for r in rows))
                  for i in range(len(header))]
        lines = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Machine-readable export (for external plotting): one row per
        query, ``inf`` rendered literally."""
        header = ["query", "ucq_size", "answers", "eval_saturated_ms",
                  "eval_reformulated_ms", "threshold_saturation"]
        header += [f"threshold_{kind.replace('-', '_')}"
                   for kind in UPDATE_KINDS]
        lines = [",".join(header)]
        costs_by_id = {c.query_id: c for c in self.query_costs}
        for entry in self.thresholds:
            costs = costs_by_id[entry.query_id]
            row = [entry.query_id, str(costs.ucq_size), str(costs.answers),
                   f"{costs.eval_saturated * 1000:.4f}",
                   f"{costs.eval_reformulated * 1000:.4f}",
                   _csv_number(entry.saturation)]
            row += [_csv_number(entry.by_update.get(kind, math.nan))
                    for kind in UPDATE_KINDS]
            lines.append(",".join(row))
        return "\n".join(lines)

    def to_ascii_chart(self, height: int = 12) -> str:
        """A log-scale ASCII rendering of Figure 3's bar chart."""
        series = ["S", "ii", "id", "si", "sd"]
        values: List[List[float]] = []
        for entry in self.thresholds:
            bars = [entry.saturation]
            bars += [entry.by_update.get(kind, math.nan) for kind in UPDATE_KINDS]
            values.append(bars)
        finite = [v for bars in values for v in bars
                  if v not in (math.inf,) and not math.isnan(v) and v > 0]
        top = max(finite) if finite else 1.0
        max_log = max(1.0, math.log10(top))
        lines: List[str] = []
        for level in range(height, -1, -1):
            cutoff = max_log * level / height
            label = f"1e{cutoff:4.1f} |" if level % 3 == 0 else "       |"
            cells: List[str] = []
            for bars in values:
                group = ""
                for value in bars:
                    if value == math.inf:
                        group += "^"  # off the chart: never amortizes
                    elif math.isnan(value) or value <= 0:
                        group += " "
                    elif math.log10(max(value, 1.0)) >= cutoff:
                        group += "#"
                    else:
                        group += " "
                cells.append(group)
            lines.append(label + " " + "  ".join(cells))
        footer = "       +" + "-" * (len(self.thresholds) * 7)
        ids = "        " + "  ".join(e.query_id.ljust(5)[:5]
                                     for e in self.thresholds)
        legend = ("  bars per query: S=saturation, ii/id=instance ins/del, "
                  "si/sd=schema ins/del; ^ = infinite")
        return "\n".join(lines + [footer, ids, legend])

    def spread_orders_of_magnitude(self) -> float:
        """How many orders of magnitude the finite thresholds span —
        the paper reports 'up to 7' on its workload."""
        finite = [v for entry in self.thresholds
                  for __, v in entry.series()
                  if v != math.inf and v > 0]
        if not finite:
            return 0.0
        return math.log10(max(finite)) - math.log10(min(finite))


def _csv_number(value: float) -> str:
    if math.isnan(value):
        return ""
    if value == math.inf:
        return "inf"
    return str(int(value))


def _fmt_threshold(value: float) -> str:
    if math.isnan(value):
        return "-"
    if value == math.inf:
        return "inf"
    return f"{int(value):,}"


def analyze_thresholds(graph: Graph,
                       queries: Sequence[Tuple[str, BGPQuery]],
                       ruleset: RuleSet = RDFS_DEFAULT,
                       update_size: int = 10,
                       maintenance: str = "dred",
                       repeat: int = 3,
                       seed: int = 0) -> ThresholdReport:
    """Measure every cost of Figure 3 on ``graph`` and ``queries``.

    ``maintenance`` picks the incremental algorithm whose costs define
    the update thresholds (``"dred"`` or ``"counting"``);
    ``update_size`` is the batch size of each update kind.
    """
    saturation_timing = best_of(lambda: saturate(graph, ruleset), repeat)
    saturated = saturation_timing.result.graph  # type: ignore[union-attr]

    schema = Schema.from_graph(graph)

    reasoner_factory = (DRedReasoner if maintenance == "dred"
                        else CountingReasoner)

    batches: Dict[str, UpdateBatch] = {
        "instance-insert": instance_insertions(graph, update_size, seed),
        "instance-delete": instance_deletions(graph, update_size, seed),
        "schema-insert": schema_insertions(graph, update_size, seed),
        "schema-delete": schema_deletions(graph, update_size, seed),
    }
    maintenance_costs: Dict[str, float] = {
        kind: _measure_maintenance(reasoner_factory, graph, ruleset,
                                   batch, repeat)
        for kind, batch in batches.items()
    }

    query_costs: List[QueryCosts] = []
    thresholds: List[QueryThresholds] = []
    for query_id, query in queries:
        eval_sat = best_of(lambda: evaluate(saturated, query), repeat)
        reformulation_timing = best_of(lambda: reformulate(query, schema),
                                       repeat)
        reformulated = reformulation_timing.result

        def answer_via_reformulation():
            ref = reformulate(query, schema)
            return evaluate_reformulation(graph, ref)

        eval_ref = best_of(answer_via_reformulation, repeat)
        costs = QueryCosts(
            query_id=query_id,
            eval_saturated=eval_sat.seconds,
            eval_reformulated=eval_ref.seconds,
            reformulation_only=reformulation_timing.seconds,
            ucq_size=reformulated.ucq_size,  # type: ignore[union-attr]
            answers=len(eval_sat.result),  # type: ignore[arg-type]
        )
        query_costs.append(costs)
        entry = QueryThresholds(
            query_id=query_id,
            saturation=compute_threshold(
                saturation_timing.seconds, costs.eval_saturated,
                costs.eval_reformulated),
        )
        for kind, cost in maintenance_costs.items():
            entry.by_update[kind] = compute_threshold(
                cost, costs.eval_saturated, costs.eval_reformulated)
        thresholds.append(entry)

    return ThresholdReport(
        graph_size=len(graph),
        saturated_size=len(saturated),
        saturation_cost=saturation_timing.seconds,
        maintenance_costs=maintenance_costs,
        query_costs=query_costs,
        thresholds=thresholds,
    )


def _measure_maintenance(reasoner_factory, graph: Graph, ruleset: RuleSet,
                         batch: UpdateBatch, repeat: int) -> float:
    """Best-of-``repeat`` cost of applying one update batch.

    A fresh reasoner is built *outside* the timed region each time:
    the maintenance cost of Figure 3 is the delta application alone,
    not the initial saturation.
    """
    import time as _time

    best = math.inf
    for __ in range(repeat):
        reasoner = reasoner_factory(graph, ruleset)
        started = _time.perf_counter()
        if batch.kind.endswith("insert"):
            reasoner.insert(batch.triples)
        else:
            reasoner.delete(batch.triples)
        best = min(best, _time.perf_counter() - started)
    return best
