"""``compare A.json B.json``: did B get better, stay the same or get worse?

One row per (workload, end-to-end metric): both medians, the ratio with
its base, the bound ``BENCHMARK.json`` fixes, and a verdict.  A change
within the bound is ``same``; beyond it, ``better`` or ``worse`` by the
metric's direction; when either side's own round-to-round spread is wider
than the bound the comparison cannot tell and says ``unresolved``.  Exit
code 1 on any ``worse`` and on any rise in the failed ratio.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List

from .spec import declared_metrics


def _spread(row: Dict[str, float]) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(base: Dict[str, float], other: Dict[str, float],
            better: str, bound: float) -> str:
    if max(_spread(base), _spread(other)) > bound:
        return "unresolved"
    change = (other["median"] - base["median"]) / base["median"]
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "same"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench compare",
                                     description=__doc__)
    parser.add_argument("base", help="A.json, from `bench run -o`")
    parser.add_argument("other", help="B.json")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.other, encoding="utf-8") as handle:
        other = json.load(handle)
    if base["trace"] or other["trace"]:
        parser.error("compare reads `run` reports; per-layer metrics "
                     "have no bound")
    declared = {str(m["name"]): m for m in declared_metrics("end_to_end")}
    worse = False
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>20s} {'bound':>6s}  verdict")
    for workload, a in base["workloads"].items():
        b = other["workloads"].get(workload)
        if b is None:
            print(f"{workload:14s} missing from {args.other}")
            worse = True
            continue
        for name, metric in declared.items():
            row_a, row_b = a["summary"][name], b["summary"][name]
            outcome = verdict(row_a, row_b, str(metric["better"]),
                              float(metric["bound"]))  # type: ignore[arg-type]
            worse = worse or outcome == "worse"
            ratio = row_b["median"] / row_a["median"]
            print(f"{workload:14s} {name:12s} {row_a['median']:12.4f} "
                  f"{row_b['median']:12.4f} "
                  f"{ratio:7.3f}x of {row_a['median']:<8.4g} "
                  f"{metric['bound']!s:>6s}  {outcome}")
        if b["failed_ratio"] > a["failed_ratio"]:
            print(f"{workload:14s} failed_ratio rose: "
                  f"{a['failed_ratio']:.6f} -> {b['failed_ratio']:.6f}")
            worse = True
    return 1 if worse else 0
