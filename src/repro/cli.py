"""Command-line interface: the library as a small RDF reasoning tool.

Subcommands mirror the paper's workflow:

* ``info``        — load a graph, report sizes and schema diagnostics;
* ``saturate``    — compute G∞, print the summary, optionally dump it;
* ``query``       — answer a SPARQL BGP query under a chosen strategy;
* ``ask``         — boolean query under a chosen strategy;
* ``reformulate`` — print the UCQ a query rewrites into;
* ``explain``     — print a proof tree for an entailed triple;
* ``thresholds``  — Figure 3 on the given graph and queries;
* ``generate``    — emit a seeded LUBM-style university graph;
* ``stats``       — saturate (and optionally query), then print the
  observability report: per-rule fire counts, histograms, span trees.
* ``lint``        — static analysis: Datalog program and rule-set
  checks plus the engine-invariant lint; exits non-zero on errors.
* ``serve``       — long-lived SPARQL endpoint over HTTP: concurrent
  queries and updates, version-keyed result cache, admission control.

The global ``--trace`` flag wraps any subcommand in a fresh
measurement window and prints the collected metrics and span tree to
stderr after the command's own output.

Graphs load from ``.ttl``/``.turtle`` (Turtle) or ``.nt``/``.ntriples``
(N-Triples) files, or from ``-`` (Turtle on stdin).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Optional, Sequence

from .db import RDFDatabase, Strategy
from .sparql.evaluator import (DEFAULT_REFORMULATION_STRATEGY,
                               REFORMULATION_STRATEGIES)
from .rdf import (Graph, Triple, URI, graph_from_ntriples, graph_from_turtle,
                  serialize_ntriples, serialize_turtle)
from .reasoning import get_ruleset, reformulate, saturate
from .reasoning.explain import explain
from .schema import Schema, validate_schema
from .sparql import parse_query

__all__ = ["main", "build_parser"]


def _load_graph(path: str, backend: str = "hash") -> Graph:
    if path == "-":
        graph = graph_from_turtle(sys.stdin.read())
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        lowered = path.lower()
        if lowered.endswith((".nt", ".ntriples")):
            graph = graph_from_ntriples(text)
        elif lowered.endswith((".ttl", ".turtle")):
            graph = graph_from_turtle(text)
        else:
            raise SystemExit(f"unsupported file extension: {path} "
                             f"(expected .ttl/.turtle/.nt/.ntriples)")
    if backend != graph.backend:
        graph = graph.to_backend(backend)
    return graph


#: ``--strategy`` accepts the three query regimes plus the three
#: reformulated-query evaluation strategies (which imply the
#: reformulation regime): ``--strategy encoded`` is shorthand for
#: "reformulation, evaluated through the semantic interval encoding".
_STRATEGY_CHOICES = tuple(s.value for s in Strategy) + REFORMULATION_STRATEGIES


def _resolve_strategy(name: str) -> tuple:
    """Map a ``--strategy`` value to ``(Strategy, reformulation_strategy)``."""
    if name in REFORMULATION_STRATEGIES:
        return Strategy.REFORMULATION, name
    return Strategy(name), DEFAULT_REFORMULATION_STRATEGY


def _dump_graph(graph: Graph, path: str) -> None:
    if path.lower().endswith((".nt", ".ntriples")):
        text = serialize_ntriples(graph, sort=True)
    else:
        text = serialize_turtle(graph)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reasoning on Web Data: saturation- and "
                    "reformulation-based RDF query answering")
    parser.add_argument("--trace", action="store_true",
                        help="print collected metrics and span tree to "
                             "stderr after the command finishes")
    parser.add_argument("--backend", default="hash",
                        choices=("hash", "columnar"),
                        help="index layout for loaded graphs: hash "
                             "(default) or columnar sorted runs")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_graph_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("graph", help="input file (.ttl/.nt) or '-' for stdin")

    def add_ruleset_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--ruleset", default="rdfs-default",
                         help="rule set: rhodf, rdfs-default, rdfs-full, "
                              "rdfs-plus (default: rdfs-default)")

    sub = subparsers.add_parser("info", help="graph sizes and schema report")
    add_graph_argument(sub)

    sub = subparsers.add_parser("saturate", help="compute the closure G-inf")
    add_graph_argument(sub)
    add_ruleset_argument(sub)
    sub.add_argument("-o", "--output", help="write the saturated graph here")
    sub.add_argument("--engine", default="auto",
                     choices=["auto", "seminaive", "schema-aware"])

    def add_strategy_argument(sub: argparse.ArgumentParser,
                              default: str) -> None:
        sub.add_argument("--strategy", default=default,
                         choices=list(_STRATEGY_CHOICES),
                         help="reasoning regime (none, saturation, "
                              "reformulation) or a reformulated-"
                              "query evaluation strategy (factorized, ucq, "
                              "encoded — implies reformulation); "
                              "reformulation evaluates by "
                              f"{DEFAULT_REFORMULATION_STRATEGY} "
                              f"(default: {default})")

    sub = subparsers.add_parser("query", help="answer a SPARQL BGP query")
    add_graph_argument(sub)
    add_ruleset_argument(sub)
    sub.add_argument("-q", "--query", required=True, help="SPARQL text")
    add_strategy_argument(sub, "reformulation")
    sub.add_argument("--max-rows", type=int, default=25)
    sub.add_argument("--format", default="table",
                     choices=("table", "json", "csv"),
                     help="output: human table (default), W3C SPARQL "
                          "results JSON, or W3C results CSV")

    sub = subparsers.add_parser("ask", help="boolean (ASK) query")
    add_graph_argument(sub)
    add_ruleset_argument(sub)
    sub.add_argument("-q", "--query", required=True, help="SPARQL ASK text")
    add_strategy_argument(sub, "reformulation")

    sub = subparsers.add_parser("reformulate",
                                help="print the UCQ a query rewrites into")
    add_graph_argument(sub)
    sub.add_argument("-q", "--query", required=True, help="SPARQL text")
    sub.add_argument("--minimize", action="store_true",
                     help="drop conjuncts subsumed by others")

    sub = subparsers.add_parser("explain",
                                help="proof tree for an entailed triple")
    add_graph_argument(sub)
    add_ruleset_argument(sub)
    sub.add_argument("-s", "--subject", required=True)
    sub.add_argument("-p", "--property", required=True)
    sub.add_argument("-o", "--object", required=True)

    sub = subparsers.add_parser("thresholds",
                                help="Figure 3 thresholds on this graph")
    add_graph_argument(sub)
    sub.add_argument("-q", "--query", action="append", default=[],
                     help="SPARQL query (repeatable); defaults to the "
                          "built-in Q1-Q10 workload")
    sub.add_argument("--update-size", type=int, default=10)
    sub.add_argument("--repeat", type=int, default=2)
    sub.add_argument("--csv", action="store_true",
                     help="emit CSV instead of the table + chart")

    sub = subparsers.add_parser("generate",
                                help="emit a seeded LUBM-style graph")
    sub.add_argument("--departments", type=int, default=1)
    sub.add_argument("--universities", type=int, default=1)
    sub.add_argument("--seed", type=int, default=20150413)
    sub.add_argument("-o", "--output", default="-")

    sub = subparsers.add_parser(
        "stats",
        help="saturate (and optionally query), print the obs report")
    add_graph_argument(sub)
    add_ruleset_argument(sub)
    sub.add_argument("-q", "--query", action="append", default=[],
                     help="SPARQL query to run inside the measured "
                          "window (repeatable)")
    add_strategy_argument(sub, "saturation")
    sub.add_argument("--json", action="store_true",
                     help="emit the machine-readable JSON report "
                          "instead of the text rendering")
    sub.add_argument("-o", "--output",
                     help="also write the JSON report to this file")

    sub = subparsers.add_parser(
        "lint",
        help="static analysis: Datalog/rule-set checks and engine-"
             "invariant lint (exit 1 on error-severity findings)")
    sub.add_argument("target", nargs="*",
                     help="files or directories: *.py for the engine-"
                          "invariant lint, *.dlg/*.dl/*.datalog for the "
                          "Datalog program passes (directories are "
                          "walked for both)")
    sub.add_argument("--ruleset", action="append", default=[],
                     dest="rulesets", metavar="NAME",
                     help="analyze this entailment rule set "
                          "(repeatable): recursion cliques, subsumed "
                          "rules, and — with --graph — dead rules")
    sub.add_argument("--graph", help="graph file whose schema grounds "
                                     "the dead-rule and blow-up passes")
    sub.add_argument("-q", "--query", action="append", default=[],
                     help="SPARQL query for the reformulation blow-up "
                          "estimate (repeatable, needs --graph)")
    sub.add_argument("--max-ucq", type=int, default=1000,
                     help="blow-up budget: predicted UCQ sizes above "
                          "this raise SC106 to a warning (default 1000)")
    sub.add_argument("--select", action="append", default=[],
                     metavar="PREFIX",
                     help="keep only diagnostic codes starting with "
                          "this prefix (repeatable; e.g. SC30 selects "
                          "the concurrency family, SC303 one code)")
    sub.add_argument("--ignore", action="append", default=[],
                     metavar="PREFIX",
                     help="drop diagnostic codes starting with this "
                          "prefix (repeatable; applied after --select)")
    sub.add_argument("--json", action="store_true",
                     help="emit the repro-lint-report/2 JSON instead "
                          "of the text rendering")
    sub.add_argument("-o", "--output",
                     help="also write the JSON report to this file")

    sub = subparsers.add_parser(
        "serve",
        help="serve the graph over HTTP: GET/POST /sparql, POST "
             "/update, POST /snapshot, GET /healthz, GET /stats")
    sub.add_argument("graph", nargs="?",
                     help="input file (.ttl/.nt) or '-' for stdin; "
                          "optional with --storage-dir (a committed "
                          "store supplies the graph, an empty one "
                          "starts empty)")
    add_ruleset_argument(sub)
    add_strategy_argument(sub, "saturation")
    sub.add_argument("--host", default="127.0.0.1")
    sub.add_argument("--port", type=int, default=8000,
                     help="TCP port; 0 binds an ephemeral port and "
                          "prints the assignment (default 8000)")
    sub.add_argument("--workers", type=int, default=4,
                     help="worker threads executing requests (default 4)")
    sub.add_argument("--queue-depth", type=int, default=16,
                     help="admission queue bound; a full queue answers "
                          "503 (default 16)")
    sub.add_argument("--timeout", type=float, default=10.0,
                     help="default per-request deadline in seconds; "
                          "exceeded deadlines answer 504 (default 10; "
                          "0 disables)")
    sub.add_argument("--cache-size", "--cache-capacity", type=int,
                     default=256, dest="cache_size",
                     help="query-result cache entries (LRU capacity; "
                          "default 256)")
    sub.add_argument("--storage-dir",
                     help="durable storage directory: updates are "
                          "WAL-logged before acknowledgment and the "
                          "store recovers to the exact pre-crash graph "
                          "version on restart; reopening a committed "
                          "store restores its graph and configuration")
    sub.add_argument("--snapshot-every", type=int, default=None,
                     metavar="N",
                     help="fold the WAL into a snapshot automatically "
                          "after N logged updates (default 512)")
    sub.add_argument("--frontend", choices=("asyncio",), default="asyncio",
                     help="connection handling: one asyncio event loop "
                          "(the only choice; kept for existing scripts)")
    sub.add_argument("--shards", type=int, default=0, metavar="N",
                     help="serve from N forked shard worker processes: "
                          "instance triples hash-partitioned by subject "
                          "(schema replicated), queries scatter-gathered "
                          "by the coordinator; incompatible with "
                          "--storage-dir (default 0: single process)")

    return parser


def _cmd_info(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    schema = Schema.from_graph(graph)
    instance = len(graph) - len(schema)
    print(f"triples: {len(graph)} ({len(schema)} schema, {instance} instance)")
    print(f"distinct properties: {len(graph.predicates())}")
    print(validate_schema(schema).summary())
    return 0


def _cmd_saturate(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    result = saturate(graph, get_ruleset(args.ruleset), engine=args.engine)
    print(result.summary())
    for rule, count in sorted(result.rule_counts.items()):
        if count:
            print(f"  {rule}: {count} derivations")
    if args.output:
        _dump_graph(result.graph, args.output)
        print(f"saturated graph written to {args.output}")
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    strategy, reformulation_strategy = _resolve_strategy(args.strategy)
    db = RDFDatabase(graph, strategy=strategy,
                     ruleset=get_ruleset(args.ruleset),
                     reformulation_strategy=reformulation_strategy)
    results = db.query(args.query)
    if args.format == "json":
        from .sparql.results import results_to_json
        print(results_to_json(results))
    elif args.format == "csv":
        from .sparql.results import results_to_csv
        sys.stdout.write(results_to_csv(results))
    else:
        print(results.pretty(max_rows=args.max_rows))
        print(f"({len(results)} row(s), strategy={args.strategy})")
    return 0


def _cmd_ask(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    strategy, reformulation_strategy = _resolve_strategy(args.strategy)
    db = RDFDatabase(graph, strategy=strategy,
                     ruleset=get_ruleset(args.ruleset),
                     reformulation_strategy=reformulation_strategy)
    answer = db.ask_query(args.query)
    print("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_reformulate(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    schema = Schema.from_graph(graph)
    query = parse_query(args.query, graph.namespaces)
    reformulation = reformulate(query, schema)
    conjuncts = (reformulation.to_minimized_ucq() if args.minimize
                 else reformulation.to_ucq())
    print(reformulation.summary())
    if args.minimize:
        print(f"after minimization: {len(conjuncts)} conjunct(s)")
    for conjunct in conjuncts:
        print(f"  UNION {conjunct.to_sparql()}")
    return 0


def _cmd_explain(args) -> int:
    graph = _load_graph(args.graph, args.backend)
    triple = Triple(URI(args.subject), URI(args.property), URI(args.object))
    proof = explain(graph, triple, get_ruleset(args.ruleset))
    if proof is None:
        print(f"not entailed: {triple.n3()}")
        return 1
    print(proof.pretty())
    leaves = ", ".join(t.n3().rstrip(" .") for t in sorted(proof.leaves()))
    print(f"\nrests on {len(proof.leaves())} explicit triple(s): {leaves}")
    return 0


def _cmd_thresholds(args) -> int:
    from .analysis import analyze_thresholds
    from .workloads import WORKLOAD_QUERIES

    graph = _load_graph(args.graph, args.backend)
    if args.query:
        queries = [(f"q{i + 1}", parse_query(text, graph.namespaces))
                   for i, text in enumerate(args.query)]
    else:
        queries = [(qid, q) for qid, (__, q) in WORKLOAD_QUERIES.items()]
    report = analyze_thresholds(graph, queries, repeat=args.repeat,
                                update_size=args.update_size)
    if args.csv:
        print(report.to_csv())
    else:
        print(report.to_table())
        print()
        print(report.to_ascii_chart())
        print(f"\nspread: {report.spread_orders_of_magnitude():.1f} "
              f"orders of magnitude")
    return 0


def _cmd_generate(args) -> int:
    from .workloads import LUBMConfig, generate_lubm

    config = LUBMConfig(universities=args.universities,
                        departments=args.departments, seed=args.seed)
    graph = generate_lubm(config)
    _dump_graph(graph, args.output)
    if args.output != "-":
        print(f"{len(graph)} triples written to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from .obs import (measurement_window, observability_report,
                      render_report, report_to_json)

    graph = _load_graph(args.graph, args.backend)
    strategy, reformulation_strategy = _resolve_strategy(args.strategy)
    with measurement_window() as (registry, tracer):
        db = RDFDatabase(graph, strategy=strategy,
                         ruleset=get_ruleset(args.ruleset),
                         reformulation_strategy=reformulation_strategy)
        for text in args.query:
            db.query(text)
    report = observability_report(
        registry, tracer, command="stats", graph=args.graph,
        ruleset=args.ruleset, strategy=args.strategy,
        triples=len(db.graph), queries=len(args.query))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report_to_json(report) + "\n")
    print(report_to_json(report) if args.json else render_report(report))
    return 0


def _cmd_lint(args) -> int:
    from .staticcheck import run_lint

    graph = _load_graph(args.graph, args.backend) if args.graph else None
    namespaces = graph.namespaces if graph is not None else None
    queries = [(f"q{i + 1}", parse_query(text, namespaces))
               for i, text in enumerate(args.query)]
    if queries and graph is None:
        raise SystemExit("--query needs --graph (the schema grounds "
                         "the blow-up estimate)")
    try:
        report = run_lint(
            paths=args.target,
            rulesets=[get_ruleset(name) for name in args.rulesets],
            graph=graph, queries=queries, ucq_budget=args.max_ucq)
    except (ValueError, OSError) as error:
        raise SystemExit(str(error))
    if args.select or args.ignore:
        report = report.filtered(select=args.select, ignore=args.ignore)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
    print(report.to_json() if args.json else report.render())
    return report.exit_code()


def _cmd_serve(args) -> int:
    from typing import cast

    from .server import (ReproAsyncServer, ServerConfig, ServingDatabase,
                         build_sharded_database)
    from .storage import DEFAULT_SNAPSHOT_EVERY, DurableStore

    strategy, reformulation_strategy = _resolve_strategy(args.strategy)
    config = ServerConfig(
        workers=args.workers, queue_depth=args.queue_depth,
        timeout=args.timeout if args.timeout > 0 else None,
        cache_size=args.cache_size, host=args.host, port=args.port)
    if args.shards:
        # the sharded tier: N forked workers, no durable storage
        if args.storage_dir:
            raise SystemExit(
                "--shards is incompatible with --storage-dir: the "
                "sharded tier keeps every fragment in memory")
        if not args.graph:
            raise SystemExit("serve --shards needs a graph file")
        graph = _load_graph(args.graph, args.backend)
        sharded = build_sharded_database(
            graph, args.shards, strategy=strategy,
            ruleset=get_ruleset(args.ruleset), backend=args.backend,
            reformulation_strategy=reformulation_strategy,
            cache_size=args.cache_size)
        # duck-types the ServingDatabase surface the front-end consumes
        service = cast(ServingDatabase, sharded)
        triples = len(graph)
        strategy_label, backend_label = strategy.value, args.backend
        extras = f", shards={args.shards}"
        close = sharded.close
    else:
        snapshot_every = (args.snapshot_every if args.snapshot_every
                          else DEFAULT_SNAPSHOT_EVERY)
        if args.storage_dir and DurableStore.exists(args.storage_dir):
            # a committed store carries its graph and configuration;
            # mixing in a fresh graph file would silently fork history
            if args.graph:
                raise SystemExit(
                    f"{args.storage_dir} already holds a committed store; "
                    "drop the graph argument to reopen it (or point "
                    "--storage-dir at an empty directory to start fresh)")
            db = RDFDatabase(storage_dir=args.storage_dir,
                             snapshot_every=snapshot_every)
        else:
            if args.graph:
                graph = _load_graph(args.graph, args.backend)
            elif args.storage_dir:
                graph = Graph(backend=args.backend)
            else:
                raise SystemExit("serve needs a graph file or --storage-dir")
            db = RDFDatabase(graph, strategy=strategy,
                             ruleset=get_ruleset(args.ruleset),
                             reformulation_strategy=reformulation_strategy,
                             storage_dir=args.storage_dir,
                             snapshot_every=snapshot_every)
        service = ServingDatabase(db, cache_size=config.cache_size)
        triples = len(db)
        strategy_label, backend_label = db.strategy.value, db.backend
        extras = f", storage={args.storage_dir}" if args.storage_dir else ""
        close = db.close
    aserver = ReproAsyncServer(service, config)
    aserver.start()
    # SIGTERM and SIGINT (even one a background shell ignored) end the
    # wait below through a self-pipe, so the finally always closes the
    # store and the shard workers; a pipe write takes no lock
    stop_read, stop_write = os.pipe()
    previous = {signum: signal.signal(signum,
                                      lambda *_: os.write(stop_write, b"\0"))
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        # the port line is machine-read by the smoke harness; keep it first
        print(f"serving {triples} triples on {aserver.base_url} "
              f"(strategy={strategy_label}, backend={backend_label}, "
              f"workers={config.workers}, frontend=asyncio{extras})",
              flush=True)
        os.read(stop_read, 1)  # the loop thread does the serving
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        os.close(stop_read)
        os.close(stop_write)
        aserver.shutdown()
        close()
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "saturate": _cmd_saturate,
    "query": _cmd_query,
    "ask": _cmd_ask,
    "reformulate": _cmd_reformulate,
    "explain": _cmd_explain,
    "thresholds": _cmd_thresholds,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
}


def _run_traced(args) -> int:
    from .obs import measurement_window, observability_report, render_report

    with measurement_window() as (registry, tracer):
        status = _COMMANDS[args.command](args)
    report = observability_report(registry, tracer, command=args.command)
    print("--- trace ---", file=sys.stderr)
    print(render_report(report), file=sys.stderr)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.trace:
            return _run_traced(args)
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe: exit quietly, the
        # Unix way (and silence the interpreter-shutdown flush too)
        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
