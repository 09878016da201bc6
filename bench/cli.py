"""Command line of the benchmark.

The driver's form runs one workload once and prints one JSON object as the
last line of standard output::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

The subcommands are for people::

    run       all workloads, tracing off, each in a fresh child process
    trace     the same with the per-layer trace
    expected  regenerate bench/expected/ with the reference configuration
    compare   A.json B.json: per (workload, metric) verdicts
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from .spec import DEFAULT_SEED, SCALES, WORKLOADS, default_seconds

SUBCOMMANDS = ("run", "trace", "expected", "compare")


def _terminate(signum, frame):  # pragma: no cover - signal path
    # turn SIGTERM into an exception so that every finally-block runs and
    # the server and shard processes are reaped; a second SIGTERM must not
    # interrupt that clean-up
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _driver(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="S scale and small passes: a smoke test, "
                             "not a measurement")
    args = parser.parse_args(argv)
    seconds = (default_seconds(args.quick) if args.seconds is None
               else args.seconds)

    from .harness import run_workload

    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.quick)
    print(f"{args.workload}: {result.passes} measured pass(es), "
          f"{result.failed}/{result.attempted} failed", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": result.metrics(section)}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not argv or argv[0] not in SUBCOMMANDS:
        return _driver(argv)
    command, rest = argv[0], argv[1:]
    if command == "compare":
        from .compare import main as compare_main
        return compare_main(rest)
    if command == "expected":
        parser = argparse.ArgumentParser(prog="bench expected")
        parser.add_argument("--scale", action="append", choices=list(SCALES),
                            help="default: every scale")
        args = parser.parse_args(rest)
        from .oracle import generate
        for scale in args.scale or list(SCALES):
            print(generate(scale))
        return 0
    from .suite import main as suite_main
    return suite_main(rest, trace=command == "trace")
