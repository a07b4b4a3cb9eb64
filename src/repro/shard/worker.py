"""Shard workers: local samplers plus global-arrival bookkeeping.

Each shard maintains an ordinary exponentially biased reservoir over the
*sub-stream* routed to it, but every resident must remember its **global**
arrival index so the coordinator can fold worker samples onto the common
age axis (:mod:`repro.shard.coordinator`).

Two local sampler families are supported:

* ``"exponential"`` — a plain
  :class:`~repro.core.biased.ExponentialReservoir`. Its
  :meth:`~repro.core.biased.ExponentialReservoir.ingest` runs the same
  block kernel as ``offer_many`` and records the global index of every
  resident next to its local one.
* ``"space_constrained"`` — a plain
  :class:`~repro.core.space_constrained.SpaceConstrainedReservoir` whose
  payloads are wrapped as ``(global_index, payload)`` pairs; the wrapper
  unwraps them at inspection/fold time.

Workers cross process boundaries as
:meth:`~repro.core.reservoir.ReservoirSampler.state_dict` snapshots, so
the process backend is state-identical to the inline one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.reservoir import from_state_dict

__all__ = ["ShardWorker"]


class ShardWorker:
    """One shard: a local sampler plus the global-axis adapter around it.

    Parameters
    ----------
    sampler:
        The local reservoir (:class:`~repro.core.biased.ExponentialReservoir`
        or :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`).
    family:
        ``"exponential"`` or ``"space_constrained"`` — decides how global
        arrival indices are attached to residents.
    """

    def __init__(self, sampler, family: str) -> None:
        if family not in ("exponential", "space_constrained"):
            raise ValueError(f"unknown shard family {family!r}")
        self.sampler = sampler
        self.family = family

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Feed a block of the worker's sub-stream, in stream order."""
        if self.family == "exponential":
            return self.sampler.ingest(payloads, global_indices)
        wrapped = [
            (int(g), p) for g, p in zip(global_indices, payloads)
        ]
        return self.sampler.offer_many(wrapped)

    def entries_global(self) -> List[Tuple[int, Any]]:
        """Residents as ``(global_arrival, payload)`` pairs."""
        if self.family == "exponential":
            return [
                (int(g), p)
                for g, p in zip(
                    self.sampler.global_arrivals(), self.sampler.payloads()
                )
            ]
        return [tuple(entry.payload) for entry in self.sampler.entries()]

    @property
    def local_p_in(self) -> float:
        """Local proportionality constant (1 for Algorithm 2.1)."""
        return float(getattr(self.sampler, "p_in", 1.0))

    def state_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "sampler": self.sampler.state_dict()}

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ShardWorker":
        return cls(from_state_dict(state["sampler"]), state["family"])
