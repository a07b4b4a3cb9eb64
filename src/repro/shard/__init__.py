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
* :class:`ShardWorker` — a local sampler (an
  :class:`~repro.core.biased.ExponentialReservoir`, or its Algorithm 3.1
  subclass :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`)
  fed through the one block kernel both share, which keeps each
  resident's global arrival index (:mod:`repro.shard.worker`).

The workers run in the caller's process; there is no multi-process
backend.
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
