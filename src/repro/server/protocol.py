"""Transport-independent request handling for the serving endpoint.

The SPARQL-protocol subset the HTTP front-end
(:mod:`repro.server.aserver`) speaks — parameter merging, format
negotiation, deadline tightening and status mapping (400
parse/semantics, 503 queue full with ``Retry-After``, 504 deadline) —
held apart from the socket code:

* :func:`plan_request` routes one parsed request and returns either a
  finished :class:`Response` (health, stats, validation errors) or a
  :class:`Work` item — the closure to run on the
  :class:`~repro.server.pool.WorkerPool`, its armed cancellation
  token, and the renderers mapping the outcome (or failure) back to a
  :class:`Response`;
* the front-end owns only admission and waiting: it awaits a future
  resolved by ``Job.add_done_callback``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union
from urllib.parse import parse_qs, urlsplit

from ..cancellation import CancellationToken
from ..db import UnsupportedGraphError
from ..sparql.evaluator import REFORMULATION_STRATEGIES
from ..sparql.parser import SPARQLSyntaxError
from ..sparql.results import (boolean_to_csv, boolean_to_json,
                              results_to_csv, results_to_json)
from .pool import WorkerPool
from .service import QueryOutcome, ServerConfig, ServingDatabase
from .shard import ShardUnavailableError

__all__ = ["Response", "Work", "plan_request", "merge_params",
           "negotiate_format", "request_deadline", "json_response",
           "error_response", "JSON_TYPE", "CSV_TYPE"]

JSON_TYPE = "application/sparql-results+json"
CSV_TYPE = "text/csv; charset=utf-8"


@dataclass(frozen=True, slots=True)
class Response:
    """One finished HTTP response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str
    endpoint: str  #: metrics label ("sparql", "update", ...)
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(status: int, document: object, endpoint: str,
                  headers: Optional[Dict[str, str]] = None) -> Response:
    body = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()
    return Response(status, body, "application/json", endpoint, headers or {})


def error_response(status: int, message: str, endpoint: str,
                   headers: Optional[Dict[str, str]] = None) -> Response:
    return json_response(status, {"error": message}, endpoint, headers)


@dataclass(frozen=True, slots=True)
class Work:
    """Pool work one request needs, plus its outcome/failure renderers."""

    endpoint: str
    fn: Callable[[], object]
    token: CancellationToken
    render: Callable[[object], Response]
    deadline_message: str

    def admission_error(self) -> Response:
        return error_response(503, "server overloaded: admission queue full",
                              self.endpoint, {"Retry-After": "1"})

    def deadline_error(self) -> Response:
        return error_response(504, self.deadline_message, self.endpoint)

    def map_exception(self, error: BaseException) -> Optional[Response]:
        """The 400/503 mapping for request-level faults; None re-raises."""
        if isinstance(error, ShardUnavailableError):
            return error_response(503, str(error), self.endpoint,
                                  {"Retry-After": "1"})
        if isinstance(error, (SPARQLSyntaxError, UnsupportedGraphError,
                              ValueError)):
            return error_response(400, str(error), self.endpoint)
        return None


# ----------------------------------------------------------------------
# request parsing helpers
# ----------------------------------------------------------------------

def merge_params(path: str, query_string: str, method: str, body: str,
                 content_type: str) -> Dict[str, str]:
    """Query-string plus (for POST) body parameters, merged.

    The body is either a form (``application/x-www-form-urlencoded``)
    or a bare ``application/sparql-query`` / ``-update`` document that
    becomes the ``query`` / ``update`` parameter by route.
    """
    params = {key: values[0]
              for key, values in parse_qs(query_string).items()}
    if method == "POST" and body:
        if "application/x-www-form-urlencoded" in content_type.lower():
            for key, values in parse_qs(body).items():
                params.setdefault(key, values[0])
        else:
            key = "update" if path.rstrip("/") == "/update" else "query"
            params.setdefault(key, body)
    return params


def negotiate_format(params: Dict[str, str], accept: str) -> str:
    requested = params.get("format")
    if requested in ("json", "csv"):
        return requested
    return "csv" if "text/csv" in accept.lower() else "json"


def request_deadline(params: Dict[str, str],
                     base: Optional[float]) -> Optional[float]:
    """The request's deadline: the server default, tightened by an
    explicit ``timeout=`` parameter (clients cannot loosen it)."""
    raw = params.get("timeout")
    if raw is None:
        return base
    try:
        requested = float(raw)
    except ValueError:
        return base
    if requested < 0:
        return base
    return requested if base is None else min(requested, base)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

def plan_request(service: ServingDatabase, pool: WorkerPool,
                 config: ServerConfig, method: str, target: str,
                 body: str, content_type: str, accept: str
                 ) -> Union[Response, Work]:
    """Route one request; immediate answers come back as a
    :class:`Response`, pool-bound ones as a :class:`Work` item."""
    split = urlsplit(target)
    path = split.path.rstrip("/") or "/"
    params = merge_params(split.path, split.query, method, body, content_type)
    if method == "GET":
        if path == "/sparql":
            return _plan_query(service, config, params, accept)
        if path == "/healthz":
            return _healthz(service)
        if path == "/stats":
            return _stats(service, pool)
    elif method == "POST":
        if path == "/sparql":
            return _plan_query(service, config, params, accept)
        if path == "/update":
            return _plan_update(service, config, params)
        if path == "/snapshot":
            return _plan_snapshot(service, config, params)
    else:
        return error_response(405, f"method {method} not allowed",
                              endpoint="other")
    return error_response(404, f"unknown path {path!r}", endpoint="other")


def _healthz(service: ServingDatabase) -> Response:
    health = service.healthz()
    # a degraded sharded cluster answers 503 so load balancers and
    # orchestrators can act on the status code alone; the body still
    # carries the full document (which shards are down)
    status = 200 if health.get("status", "ok") == "ok" else 503
    return json_response(status, health, endpoint="healthz")


def _stats(service: ServingDatabase, pool: WorkerPool) -> Response:
    from ..obs import observability_report

    return json_response(200, {
        "server": service.stats(),
        "pool": {"workers": pool.workers,
                 "queue_depth": pool.queue_depth,
                 "queued": pool.depth},
        "obs": observability_report(command="serve"),
    }, endpoint="stats")


def _plan_query(service: ServingDatabase, config: ServerConfig,
                params: Dict[str, str],
                accept: str) -> Union[Response, Work]:
    text = params.get("query")
    if not text:
        return error_response(400, "missing 'query' parameter",
                              endpoint="sparql")
    form = negotiate_format(params, accept)
    strategy = params.get("strategy")
    if strategy is not None and strategy not in REFORMULATION_STRATEGIES:
        return error_response(
            400, f"unknown strategy {strategy!r}; expected one of "
            + ", ".join(REFORMULATION_STRATEGIES), endpoint="sparql")
    token = CancellationToken(request_deadline(params, config.timeout))

    def render(outcome: object) -> Response:
        assert isinstance(outcome, QueryOutcome)
        headers = {"X-Repro-Graph-Version": str(outcome.version),
                   "X-Repro-Cache": "hit" if outcome.cached else "miss"}
        if outcome.kind == "boolean":
            answer = bool(outcome.boolean)
            if form == "csv":
                return Response(200, boolean_to_csv(answer).encode(),
                                CSV_TYPE, "sparql", headers)
            return Response(200, boolean_to_json(answer).encode(),
                            JSON_TYPE, "sparql", headers)
        results = outcome.results
        assert results is not None
        if form == "csv":
            return Response(200, results_to_csv(results).encode(),
                            CSV_TYPE, "sparql", headers)
        return Response(200, results_to_json(results).encode(),
                        JSON_TYPE, "sparql", headers)

    return Work(
        endpoint="sparql",
        fn=lambda: service.query(text, token=token,
                                 reformulation_strategy=strategy),
        token=token, render=render,
        deadline_message="query exceeded its deadline")


def _plan_update(service: ServingDatabase, config: ServerConfig,
                 params: Dict[str, str]) -> Union[Response, Work]:
    text = params.get("update")
    if not text:
        return error_response(400, "missing 'update' parameter",
                              endpoint="update")
    token = CancellationToken(request_deadline(params, config.timeout))

    def render(outcome: object) -> Response:
        return json_response(200, {
            "removed": outcome.removed,  # type: ignore[attr-defined]
            "added": outcome.added,  # type: ignore[attr-defined]
            "version": outcome.version,  # type: ignore[attr-defined]
        }, endpoint="update")

    return Work(
        endpoint="update",
        fn=lambda: service.update(text, token=token),
        token=token, render=render,
        deadline_message="update exceeded its deadline")


def _plan_snapshot(service: ServingDatabase, config: ServerConfig,
                   params: Dict[str, str]) -> Union[Response, Work]:
    if not service.can_snapshot:
        return error_response(409, "server has no storage directory "
                              "(start with --storage-dir)",
                              endpoint="snapshot")
    token = CancellationToken(request_deadline(params, config.timeout))
    return Work(
        endpoint="snapshot",
        fn=lambda: service.snapshot(token=token),
        token=token,
        render=lambda outcome: json_response(200, outcome,
                                             endpoint="snapshot"),
        deadline_message="snapshot exceeded its deadline")
