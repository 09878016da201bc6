"""Subject-hash partitioning with a replicated schema: the placement
contract of the sharded serving tier (:mod:`repro.server.shard`)."""

from .partition import (PartitionedGraph, has_instance_instance_join,
                        partition_graph, partition_of, subject_owner)

__all__ = [
    "subject_owner", "partition_of", "partition_graph", "PartitionedGraph",
    "has_instance_instance_join",
]
