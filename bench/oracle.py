"""Oracle answers: what every query of a scale must return.

``bench/expected/<scale>.json`` holds, per qid, the row count, the size
of the SPARQL-JSON document and an order-independent digest of its rows.
They are produced by the slow reference configuration (``generate``):
hash index, ``REPRO_KERNELS=scalar``, a from-scratch generic semi-naive
``saturate`` and ``evaluate(..., optimize=False)`` — none of which the measured
configuration uses.  Regenerating is explicit (``python -m bench
expected``) and the files are one line per qid, so a diff is reviewable.

The graphs are static and every update pass restores the base state, so
one answer per qid covers all seeds and all workloads of a scale; in
particular ``query_ref`` (reformulation on the unsaturated graph) and
``query_sat`` check against the same answers, which is the paper's
``q_ref(G) = q(G∞)``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from . import datasets, queries
from .spec import BENCH_DIR

EXPECTED_DIR = BENCH_DIR / "expected"
_MASK = (1 << 64) - 1

Answer = Tuple[int, int, str]  # rows, document bytes, row digest


def digest_document(document: str) -> Tuple[int, str]:
    """Row count and order-independent row digest of one SPARQL-JSON
    results document: the sum of the rows' 64-bit hashes, so a permuted
    answer digests the same and a duplicated or missing row does not."""
    parsed = json.loads(document)
    bindings = parsed["results"]["bindings"]
    total = int.from_bytes(hashlib.blake2b(
        json.dumps(parsed["head"]["vars"]).encode(),
        digest_size=8).digest(), "big")
    for binding in bindings:
        row = json.dumps(binding, sort_keys=True, separators=(",", ":"))
        total = (total + int.from_bytes(
            hashlib.blake2b(row.encode(), digest_size=8).digest(),
            "big")) & _MASK
    return len(bindings), f"{total:016x}"


class Expected:
    """The committed answers of one scale."""

    def __init__(self, scale: str):
        path = EXPECTED_DIR / f"{scale}.json"
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        self.scale = scale
        self.graph_digest: str = document["graph_digest"]
        self.answers: Dict[str, Answer] = {
            qid: (entry[0], entry[1], entry[2])
            for qid, entry in document["answers"].items()}

    def check_graph(self, dataset: datasets.Dataset) -> None:
        if dataset.digest != self.graph_digest:
            raise RuntimeError(
                f"the generated {self.scale} graph ({dataset.digest}) is "
                f"not the one bench/expected/{self.scale}.json answers "
                f"({self.graph_digest}); run `python -m bench expected` "
                "and review the diff")

    def size_ok(self, qid: str, document_bytes: int) -> bool:
        """The cheap per-operation check: the document's size."""
        return self.answers[qid][1] == document_bytes

    def document_ok(self, qid: str, document: str) -> bool:
        """The full check: row count and row digest."""
        rows, _, digest = self.answers[qid]
        try:
            return digest_document(document) == (rows, digest)
        except (ValueError, KeyError, TypeError):
            return False


def generate(scale: str) -> str:
    """Answer the scale's whole universe with the reference
    configuration; returns the path written."""
    from repro import kernels
    from repro.reasoning.saturation import saturate
    from repro.sparql.evaluator import evaluate
    from repro.sparql.parser import parse_query
    from repro.sparql.results import results_to_json

    dataset = datasets.build(scale)
    assert dataset.graph.backend == "hash"
    lines: List[str] = []
    with kernels.kernel_scope("scalar"):
        saturated = saturate(dataset.graph, engine="seminaive").graph
        for qid in queries.universe(dataset.universities,
                                    serving=scale != "L"):
            query = parse_query(queries.query_text(qid),
                                dataset.graph.namespaces)
            document = results_to_json(
                evaluate(saturated, query, optimize=False))
            rows, digest = digest_document(document)
            if rows == 0:
                raise RuntimeError(f"{qid} is empty at scale {scale}")
            lines.append(f"  {json.dumps(qid)}: "
                         f"[{rows}, {len(document)}, \"{digest}\"]")
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"{scale}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(f" \"scale\": \"{scale}\",\n")
        handle.write(f" \"triples\": {dataset.triples},\n")
        handle.write(f" \"graph_digest\": \"{dataset.digest}\",\n")
        handle.write(" \"answers\": {\n")
        handle.write(",\n".join(lines))
        handle.write("\n }\n}\n")
    return str(path)
