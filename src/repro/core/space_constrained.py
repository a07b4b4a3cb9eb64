"""Algorithm 3.1 — biased sampling under strong space constraints.

When available memory ``n`` is *below* the natural requirement ``1/lambda``,
Algorithm 2.1's deterministic insertion would realize the wrong bias rate.
Algorithm 3.1 restores the target rate by admitting arrivals only with an
*insertion probability* ``p_in = n * lambda``:

1. With probability ``p_in`` the arriving point enters the reservoir
   (otherwise it is dropped outright).
2. On entry, a coin with success probability ``F(t)`` decides whether a
   uniformly random resident is ejected (replacement) or the reservoir
   grows by one.

Step 2 is Algorithm 2.1's step, so Algorithm 3.1 is Algorithm 2.1 run on
the stream thinned by the ``p_in`` coin; the class below is
:class:`~repro.core.biased.ExponentialReservoir` plus that gate, per item
and per block.

Theorem 3.1: the inclusion probability is
``p(r, t) ≈ p_in * exp(-lambda (t - r))`` — the same exponential *shape*,
scaled down by ``p_in`` because space forbids holding every recent point.

Theorem 3.2 / Corollary 3.1 (implemented in :mod:`repro.core.theory`): the
reservoir takes ``O(n log n / p_in)`` expected arrivals to fill, which for
small ``p_in`` is painfully long — the motivation for variable reservoir
sampling (:mod:`repro.core.variable`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.bias import ExponentialBias
from repro.core.biased import ExponentialReservoir
from repro.utils.rng import RngLike, require_probability

__all__ = ["SpaceConstrainedReservoir"]


class SpaceConstrainedReservoir(ExponentialReservoir):
    """Biased reservoir sampler implementing Algorithm 3.1 (fixed ``p_in``).

    Algorithm 3.1 is Algorithm 2.1 run on a thinned stream: each arrival
    passes an insertion coin with probability ``p_in``, and the admitted
    ones are inserted and ejected exactly as
    :class:`~repro.core.biased.ExponentialReservoir` does. The class
    therefore reuses its array store, block kernel, global arrival axis
    (:meth:`ingest`) and ``p_in``-scaled inclusion model; only the gate
    is its own.

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``.
    capacity:
        Available reservoir size ``n``. The insertion probability is derived
        as ``p_in = n * lambda`` unless given explicitly.
    p_in:
        Insertion probability override (must satisfy ``0 < p_in <= 1``).
        When provided together with ``capacity``, ``lam`` may be omitted and
        is derived as ``p_in / n``.
    rng:
        Seed or generator.

    Notes
    -----
    ``p_in = 1`` draws no gate coins, so it recovers Algorithm 2.1
    exactly, random stream included; tests rely on this.
    """

    def __init__(
        self,
        lam: Optional[float] = None,
        capacity: Optional[int] = None,
        p_in: Optional[float] = None,
        rng: RngLike = None,
    ) -> None:
        if capacity is None:
            if lam is None or p_in is None:
                raise ValueError(
                    "provide capacity, or both lam and p_in to derive it"
                )
            capacity = max(1, round(p_in / lam))
        super().__init__(capacity=capacity, rng=rng)
        if p_in is None:
            if lam is None:
                raise ValueError("provide lam or p_in")
            p_in = self.capacity * float(lam)
            if p_in > 1.0 + 1e-12:
                raise ValueError(
                    f"capacity {self.capacity} exceeds the natural size "
                    f"1/lambda = {1.0 / lam:.6g}; use ExponentialReservoir "
                    "or lower the capacity"
                )
            p_in = min(1.0, p_in)
        self.p_in = require_probability(p_in, "p_in")
        if self.p_in == 0.0:
            raise ValueError("p_in must be positive")
        self.lam = self.requested_lam = self.p_in / self.capacity
        self.bias = ExponentialBias(self.lam)

    def offer(self, payload: Any) -> bool:
        """Algorithm 3.1 step: ``p_in``-gated insert, ``F(t)``-biased eject."""
        # Skip the insertion coin when p_in == 1 so the policy consumes the
        # same random sequence as Algorithm 2.1 (exact degeneracy).
        if self.p_in < 1.0 and self.rng.random() >= self.p_in:
            self.t += 1
            self.offers += 1
            return False
        return super().offer(payload)

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Algorithm 3.1 over a block (same distribution as :meth:`offer`).

        One bulk draw of gate coins picks the admitted arrivals; they go
        through the Algorithm 2.1 kernel with their true local and global
        arrival indices. Returns the admitted count.
        """
        if self.p_in == 1.0:
            return super()._admit_block(pay, glob)
        b = len(pay)
        rows = np.nonzero(self.rng.random(b) < self.p_in)[0]
        local = self.t + 1 + rows
        self._scatter(pay[rows], local, local if glob is None else glob[rows])
        self.t += b
        self.offers += b
        return len(rows)

    def _extra_state(self) -> dict:
        return {"p_in": self.p_in}

    def _restore_extra(self, state: dict) -> None:
        """``p_in`` is a constructor parameter; nothing else to restore."""

    @classmethod
    def _construct_from_state(cls, state: dict) -> "SpaceConstrainedReservoir":
        return cls(capacity=state["capacity"], p_in=state["p_in"])
