#!/usr/bin/env python3
"""Run every experiment and assemble the combined report.

Convenience wrapper around the benchmark suite: runs
``pytest benchmarks/ --benchmark-only``, then concatenates the
per-experiment artifacts from ``benchmarks/results/`` into
``benchmarks/results/ALL_EXPERIMENTS.txt`` with a small provenance
header (Python version, platform, timestamp), so a full reproduction
run leaves one reviewable file.

Usage:  python scripts/run_all_experiments.py [extra pytest args...]
"""

from __future__ import annotations

import datetime
import pathlib
import platform
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Assembly order: the paper figures first, then the supporting
#: experiments, then the ablations.
EXPERIMENT_ORDER = [
    "fig1_rdfs_statements",
    "fig2_entailment_rules",
    "fig3_thresholds",
    "exp_sat_saturation",
    "exp_ref_reformulation",
    "exp_qa_query_answering",
    "exp_maint_maintenance",
    "exp_datalog",
    "exp_shape",
    "exp_est_estimation",
    "abl_ablations",
]


def main() -> int:
    command = [sys.executable, "-m", "pytest", "benchmarks/",
               "--benchmark-only", "-q"] + sys.argv[1:]
    print("running:", " ".join(command))
    completed = subprocess.run(command, cwd=REPO_ROOT)
    if completed.returncode != 0:
        print("benchmark run failed; assembling whatever reports exist")

    sections = [
        "ALL EXPERIMENTS — Reasoning on Web Data: Algorithms and Performance",
        f"generated: {datetime.datetime.now().isoformat(timespec='seconds')}",
        f"python:    {platform.python_version()} on {platform.platform()}",
        "",
    ]
    missing = []
    for name in EXPERIMENT_ORDER:
        path = RESULTS_DIR / f"{name}.txt"
        if not path.exists():
            missing.append(name)
            continue
        sections.append("=" * 72)
        sections.append(f"== {name}")
        sections.append("=" * 72)
        sections.append(path.read_text().rstrip())
        sections.append("")
    if missing:
        sections.append(f"missing reports: {', '.join(missing)}")

    output = RESULTS_DIR / "ALL_EXPERIMENTS.txt"
    output.write_text("\n".join(sections) + "\n")
    print(f"combined report: {output}")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
