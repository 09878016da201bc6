"""Subject-hash partitioning for the sharded serving tier.

Section II-D lists "efficiently maintaining RDF graph saturation,
especially in a distributed setting" among the open problems.  The
sharded tier (:mod:`repro.server.shard`) is this tree's partitioned
setting: real worker processes, each holding one fragment.

Partitioning scheme: hash by subject, the standard choice of
MapReduce-era reasoners (WebPIE-style), with the schema *replicated*
to every worker — schemas are small and every ρdf rule joins at most
one instance triple with schema triples, so replication keeps every
join worker-local.  :func:`has_instance_instance_join` flags the rules
that break this property.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import Term
from ..rdf.triples import Triple
from ..reasoning.rules import Rule
from ..schema import SCHEMA_PROPERTIES, is_schema_triple

__all__ = ["subject_owner", "partition_of", "partition_graph",
           "PartitionedGraph", "has_instance_instance_join"]


def subject_owner(subject: Term, workers: int) -> int:
    """The worker owning instance triples with this subject term.

    This is the partitioning contract of the sharded serving tier:
    both the data placement (:func:`partition_of`) and the query router
    (``repro.server.shardplan``) must hash a subject identically, or
    subject-bound atoms would be routed to shards that cannot hold
    their answers.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    digest = hashlib.blake2s(subject.n3().encode("utf-8"),
                             digest_size=4).digest()
    return int.from_bytes(digest, "big") % workers


def partition_of(triple: Triple, workers: int) -> int:
    """The worker owning ``triple``: hash of the subject.

    Schema triples are owned by worker 0 (and replicated everywhere by
    :func:`partition_graph`).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if is_schema_triple(triple):
        return 0
    return subject_owner(triple.s, workers)


@dataclass
class PartitionedGraph:
    """A graph split into per-worker fragments, schema replicated."""

    workers: int
    fragments: List[Graph] = field(default_factory=list)
    schema_triples: Tuple[Triple, ...] = ()

    def total_instance_triples(self) -> int:
        schema = set(self.schema_triples)
        return sum(sum(1 for t in fragment if t not in schema)
                   for fragment in self.fragments)

    def skew(self) -> float:
        """Largest fragment over mean fragment size (1.0 = balanced)."""
        sizes = [len(fragment) for fragment in self.fragments]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return max(sizes) / mean if mean else 1.0

    def merged(self) -> Graph:
        """Union of all fragments (deduplicates the replicated schema)."""
        result = Graph()
        for fragment in self.fragments:
            result.update(fragment)
        return result


def partition_graph(graph: Graph, workers: int) -> PartitionedGraph:
    """Split ``graph`` into ``workers`` fragments.

    Each fragment holds its hash-share of the instance triples plus a
    full replica of the schema.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    schema_triples = tuple(sorted(t for t in graph if is_schema_triple(t)))
    fragments = [Graph() for __ in range(workers)]
    for fragment in fragments:
        fragment.update(schema_triples)
    for triple in graph:
        if not is_schema_triple(triple):
            fragments[partition_of(triple, workers)].add(triple)
    return PartitionedGraph(workers=workers, fragments=fragments,
                            schema_triples=schema_triples)


def has_instance_instance_join(rule: Rule) -> bool:
    """Does the rule join two or more instance-level atoms?

    An atom is schema-level when its property is one of the four RDFS
    constraint properties; those atoms only read replicated state.
    A rule with two instance atoms (like ``owl-trans``) cannot be
    evaluated worker-locally under subject hashing.
    """
    instance_atoms = 0
    for pattern in rule.body:
        if pattern.p in SCHEMA_PROPERTIES:
            continue
        instance_atoms += 1
    return instance_atoms > 1
