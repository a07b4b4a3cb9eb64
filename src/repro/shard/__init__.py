"""Sharded parallel ingestion of exponentially biased reservoir samples.

Public surface:

* :class:`ShardedReservoir` — the facade: partition a stream across ``W``
  shard workers, each a local biased reservoir, with the union provably
  equal in law to one global reservoir (see
  :mod:`repro.shard.coordinator` for the argument) and a ``fold()`` that
  collapses the shards into a single live sampler via Theorem 3.3
  thinning.
* :class:`RoundRobinPartitioner` / :class:`HashByKeyPartitioner` — stream
  routing policies (:mod:`repro.shard.partition`).
* :class:`ShardWorker` — a local sampler (a plain
  :class:`~repro.core.biased.ExponentialReservoir` or
  :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`) and
  its global-axis bookkeeping (:mod:`repro.shard.worker`).
"""

from repro.shard.coordinator import ShardedReservoir
from repro.shard.partition import (
    HashByKeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.shard.worker import ShardWorker

__all__ = [
    "ShardedReservoir",
    "Partitioner",
    "RoundRobinPartitioner",
    "HashByKeyPartitioner",
    "ShardWorker",
]
