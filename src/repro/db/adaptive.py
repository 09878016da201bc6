"""Adaptive strategy switching: §II-D's automation, made operational.

The paper's last open problem asks to automatize "the choice between
these two techniques, based on a quantitative evaluation of the
application setting".  The measured advisor
(:func:`repro.db.advisor.recommend_strategy`) and the estimator
(:func:`repro.analysis.model.quick_recommendation`) answer one-shot
questions; :class:`AdaptiveDatabase` closes the loop at run time:

* it records the live operation mix (which queries, how often; how
  many update batches of which flavour);
* every ``review_interval`` operations it replays that window through
  the estimate-only recommender (cheap: sampling + cached
  calibration — it never saturates just to decide);
* when the recommendation differs from the current strategy for
  ``patience`` consecutive reviews, it switches.

The hysteresis matters: switching *to* saturation costs a saturation
run, so a single noisy window should not trigger it — exactly the
amortization logic of Figure 3, applied online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..analysis.model import Calibration, calibrate, quick_recommendation
from ..obs import get_metrics, span
from ..rdf.graph import Graph
from ..reasoning.rulesets import RDFS_DEFAULT, RuleSet
from ..sparql.ast import BGPQuery
from ..sparql.bindings import ResultSet
from ..sparql.evaluator import DEFAULT_REFORMULATION_STRATEGY
from .database import RDFDatabase, Strategy

__all__ = ["AdaptiveDatabase", "StrategySwitch"]


@dataclass(frozen=True)
class StrategySwitch:
    """One recorded strategy change."""

    at_operation: int
    from_strategy: Strategy
    to_strategy: Strategy
    reason: str


class AdaptiveDatabase:
    """An :class:`RDFDatabase` that re-decides its own strategy.

    Only the two techniques the paper contrasts participate
    (SATURATION and REFORMULATION); queries and updates are simply
    forwarded, decisions happen in the background of the call.

    >>> db = AdaptiveDatabase(review_interval=50)
    >>> # ... use db.query / db.insert / db.delete as usual ...
    >>> # db.switches tells the story afterwards.
    """

    def __init__(self, graph: Optional[Graph] = None,
                 strategy: Strategy = Strategy.REFORMULATION,
                 ruleset: RuleSet = RDFS_DEFAULT,
                 review_interval: int = 100,
                 patience: int = 2,
                 calibration: Optional[Calibration] = None,
                 reformulation_strategy: str = DEFAULT_REFORMULATION_STRATEGY):
        if strategy not in (Strategy.SATURATION, Strategy.REFORMULATION):
            raise ValueError("adaptive mode arbitrates between SATURATION "
                             "and REFORMULATION")
        if review_interval < 1:
            raise ValueError("review_interval must be >= 1")
        self._db = RDFDatabase(graph, strategy=strategy, ruleset=ruleset,
                               reformulation_strategy=reformulation_strategy)
        self.review_interval = review_interval
        self.patience = patience
        self._calibration = calibration
        self._operations = 0
        self._window_queries: Dict[BGPQuery, float] = {}
        self._window_update_batches = 0.0
        self._pending_recommendation: Optional[Strategy] = None
        self._pending_count = 0
        self.switches: List[StrategySwitch] = []

    # ------------------------------------------------------------------
    # forwarding with accounting
    # ------------------------------------------------------------------

    @property
    def strategy(self) -> Strategy:
        return self._db.strategy

    @property
    def graph(self) -> Graph:
        return self._db.graph

    def __len__(self) -> int:
        return len(self._db)

    def query(self, query: Union[str, BGPQuery]) -> ResultSet:
        if isinstance(query, str):
            from ..sparql.parser import parse_query

            query = parse_query(query, self._db.graph.namespaces)
        if isinstance(query, BGPQuery):
            self._window_queries[query] = \
                self._window_queries.get(query, 0.0) + 1.0
        results = self._db.query(query)
        self._tick()
        return results

    def insert(self, triples) -> int:
        added = self._db.insert(triples)
        self._window_update_batches += 1.0
        self._tick()
        return added

    def delete(self, triples) -> int:
        removed = self._db.delete(triples)
        self._window_update_batches += 1.0
        self._tick()
        return removed

    def load_turtle(self, text: str) -> int:
        # bulk loading is not an update signal; forward silently
        return self._db.load_turtle(text)

    def stats(self) -> Dict[str, object]:
        info = self._db.stats()
        info["adaptive_operations"] = self._operations
        info["adaptive_switches"] = len(self.switches)
        return info

    # ------------------------------------------------------------------
    # the decision loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._operations += 1
        if self._operations % self.review_interval == 0:
            self._review()

    def _review(self) -> None:
        metrics = get_metrics()
        with span("adaptive.review", operations=self._operations) as sp:
            if not self._window_queries:
                # no queries in the window: updates dominate trivially
                recommendation = Strategy.REFORMULATION \
                    if self._window_update_batches else self._db.strategy
            else:
                if self._calibration is None:
                    self._calibration = calibrate(size=200, repeat=1)
                estimate = quick_recommendation(
                    self._db.graph,
                    list(self._window_queries.items()),
                    updates_per_period=self._window_update_batches,
                    calibration=self._calibration,
                    sample_size=200,
                )
                recommendation = Strategy(estimate["recommended"])
            sp.set(recommendation=recommendation.value)
        metrics.counter("adaptive.reviews").inc()
        metrics.counter("adaptive.recommendations",
                        strategy=recommendation.value).inc()
        self._window_queries.clear()
        self._window_update_batches = 0.0

        if recommendation == self._db.strategy:
            self._pending_recommendation = None
            self._pending_count = 0
            return
        if recommendation != self._pending_recommendation:
            self._pending_recommendation = recommendation
            self._pending_count = 1
        else:
            self._pending_count += 1
        if self._pending_count >= self.patience:
            previous = self._db.strategy
            self._db.switch_strategy(recommendation)
            metrics.counter("adaptive.switches",
                            to=recommendation.value).inc()
            self.switches.append(StrategySwitch(
                at_operation=self._operations,
                from_strategy=previous,
                to_strategy=recommendation,
                reason=(f"recommended for {self._pending_count} consecutive "
                        f"review(s) of {self.review_interval} operations"),
            ))
            self._pending_recommendation = None
            self._pending_count = 0
