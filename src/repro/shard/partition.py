"""Stream partitioners for sharded ingestion.

A partitioner routes each stream arrival (identified by its 1-based global
arrival index plus the payload itself) to one of ``W`` workers. Routing
must be a pure function of ``(index, payload)`` so that any two runs with
the same seed, and a run restored from a snapshot, shard the stream
identically.

Two policies:

* :class:`RoundRobinPartitioner` — arrival ``r`` goes to worker
  ``(r - 1) % W``. Each worker sees *exactly* every ``W``-th arrival, which
  is what makes the sharded exponential design analyzable in closed form
  (see :mod:`repro.shard.coordinator`): a resident of global age ``a`` has
  seen exactly ``floor(a / W)`` subsequent local arrivals.
* :class:`HashByKeyPartitioner` — arrival goes to
  ``crc32(key(payload)) % W``. Keeps all points of one key on one worker
  (useful when per-key state or locality matters); the per-worker arrival
  counts are only *approximately* ``t / W``, so the global inclusion law
  holds in expectation rather than exactly.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

__all__ = ["Partitioner", "RoundRobinPartitioner", "HashByKeyPartitioner"]


class Partitioner(ABC):
    """Deterministic assignment of stream arrivals to ``W`` workers."""

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    @abstractmethod
    def assign(self, index: int, payload: Any) -> int:
        """Worker id in ``[0, workers)`` for the 1-based arrival ``index``."""

    def assign_block(self, start_t: int, block: Sequence[Any]) -> np.ndarray:
        """Worker ids for arrivals ``start_t + 1 .. start_t + len(block)``.

        The base implementation loops over :meth:`assign`; subclasses with
        index-only policies override it with a closed form.
        """
        return np.fromiter(
            (
                self.assign(start_t + j + 1, payload)
                for j, payload in enumerate(block)
            ),
            dtype=np.int64,
            count=len(block),
        )


class RoundRobinPartitioner(Partitioner):
    """Arrival ``r`` goes to worker ``(r - 1) % W`` (payload-independent)."""

    #: Round-robin keeps per-worker arrival counts exact, so closed-form
    #: inclusion models apply (see ShardedReservoir.inclusion_probability).
    exact_schedule = True

    def assign(self, index: int, payload: Any) -> int:
        return (int(index) - 1) % self.workers

    def assign_block(self, start_t: int, block: Sequence[Any]) -> np.ndarray:
        return (start_t + np.arange(len(block), dtype=np.int64)) % self.workers


class HashByKeyPartitioner(Partitioner):
    """Route by a stable hash of ``key(payload)`` (index-independent).

    Parameters
    ----------
    workers:
        Number of workers ``W``.
    key:
        Callable extracting the routing key from a payload; defaults to the
        payload itself. The key's ``str()`` must be stable across processes
        (ints, strings, tuples of those are fine; objects with default
        ``repr`` are not) — the hash is CRC-32 of that text, *not* Python's
        salted ``hash()``.
    """

    exact_schedule = False

    def __init__(
        self, workers: int, key: Optional[Callable[[Any], Any]] = None
    ) -> None:
        super().__init__(workers)
        self.key = key

    def assign(self, index: int, payload: Any) -> int:
        key = payload if self.key is None else self.key(payload)
        return zlib.crc32(str(key).encode("utf-8")) % self.workers


def split_by_worker(
    worker_ids: np.ndarray, block: Sequence[Any], workers: int
) -> List[np.ndarray]:
    """Positions (into ``block``) routed to each worker, order-preserving.

    Returns one int64 position array per worker; concatenating them in
    worker order and sorting recovers ``arange(len(block))``.
    """
    if len(worker_ids) != len(block):
        raise ValueError("one worker id per block item required")
    return [
        np.nonzero(worker_ids == w)[0] for w in range(workers)
    ]
