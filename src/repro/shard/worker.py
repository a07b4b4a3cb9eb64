"""Shard workers: local samplers plus global-arrival bookkeeping.

Each shard maintains an ordinary exponentially biased reservoir over the
*sub-stream* routed to it, but every resident must remember its **global**
arrival index so the coordinator can fold worker samples onto the common
age axis (:mod:`repro.shard.coordinator`).

The local sampler is an :class:`~repro.core.biased.ExponentialReservoir`
(Algorithm 2.1) or its subclass
:class:`~repro.core.space_constrained.SpaceConstrainedReservoir`
(Algorithm 3.1). Both run the same block kernel through
:meth:`~repro.core.biased.ExponentialReservoir.ingest`, which records the
global index of every resident next to its local one, so the worker is
the same for either family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.biased import ExponentialReservoir
from repro.core.reservoir import from_state_dict

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: a local sampler fed in global stream order.

    Parameters
    ----------
    sampler:
        The local reservoir (:class:`~repro.core.biased.ExponentialReservoir`
        or :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`).
    """

    def __init__(self, sampler: ExponentialReservoir) -> None:
        self.sampler = sampler

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Feed a block of the worker's sub-stream, in stream order."""
        return self.sampler.ingest(payloads, global_indices)

    def entries_global(self) -> List[Tuple[int, Any]]:
        """Residents as ``(global_arrival, payload)`` pairs."""
        return list(
            zip(
                self.sampler.global_arrivals().tolist(),
                self.sampler.payloads(),
            )
        )

    def state_dict(self) -> Dict[str, Any]:
        return {"sampler": self.sampler.state_dict()}

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ShardWorker":
        sampler = state["sampler"]
        if (
            state.get("family") == "space_constrained"
            and "global_arrivals" not in sampler
        ):
            # Space-constrained workers of the list-backed layout stored
            # each payload as a ``(global_index, payload)`` pair.
            sampler = dict(sampler)
            pairs = sampler["payloads"]
            sampler["payloads"] = [p for _, p in pairs]
            sampler["global_arrivals"] = [int(g) for g, _ in pairs]
        return cls(from_state_dict(sampler))
