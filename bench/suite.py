"""``run`` and ``trace``: every workload, each run in a fresh child
process, every round recorded separately."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Dict, List

from . import stats
from .spec import (BENCH_DIR, DEFAULT_SEED, OUT_DIR, WORKLOADS,
                   default_seconds, machine_record)

REPORT_SCHEMA = "repro-bench/1"
CHILD_TIMEOUT_S = 900.0


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool) -> Dict[str, object]:
    """One driver-form run; its result line, parsed."""
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(rounds: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Median and quartiles of every metric over the rounds."""
    summary: Dict[str, Dict[str, object]] = {}
    for name, first in rounds[0]["metrics"].items():  # type: ignore[union-attr]
        values = [r["metrics"][name]["value"] for r in rounds]  # type: ignore[index]
        q1, median, q3 = stats.quartiles(values)
        summary[name] = {"unit": first["unit"], "median": median,
                         "q1": q1, "q3": q3, "rounds": len(values)}
    return summary


def main(argv: List[str], trace: bool) -> int:
    parser = argparse.ArgumentParser(prog="bench trace" if trace
                                     else "bench run")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds per workload, each recorded")
    parser.add_argument("--quick", action="store_true",
                        help="S scale, small passes, 1 s: a smoke test")
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS), help="default: all seven")
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    seconds = (default_seconds(args.quick) if args.seconds is None
               else args.seconds)

    report: Dict[str, object] = {
        "schema": REPORT_SCHEMA, "machine": machine_record(),
        "seed": args.seed, "seconds": seconds, "quick": args.quick,
        "trace": trace, "workloads": {}}
    failed = False
    for name in args.workload or list(WORKLOADS):
        rounds = [run_child(name, args.seed, seconds, trace, args.quick)
                  for _ in range(args.repeat)]
        summary = summarize(rounds)
        attempted = sum(r["attempted"] for r in rounds)  # type: ignore[misc]
        failures = sum(r["failed"] for r in rounds)  # type: ignore[misc]
        failed = failed or failures > 0
        report["workloads"][name] = {  # type: ignore[index]
            "rounds": rounds, "summary": summary,
            "failed_ratio": failures / attempted}
        print(f"\n{name}  (failed_ratio {failures}/{attempted})")
        for metric, row in summary.items():
            if not row["median"] and trace:
                continue  # a layer this workload does not exercise
            print(f"  {metric:46s} {row['median']:>14.4f} {row['unit']:8s}"
                  + (f" [{row['q1']:.4f} .. {row['q3']:.4f}]"
                     if args.repeat > 1 else ""))
    OUT_DIR.mkdir(exist_ok=True)
    output = args.output or str(OUT_DIR / time.strftime(
        ("trace" if trace else "run") + "-%Y%m%d-%H%M%S.json"))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"\nwrote {output}")
    return 1 if failed else 0
