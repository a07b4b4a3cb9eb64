"""Unbiased reservoir sampling — the paper's baseline (reference [16]).

Two implementations of classic uniform reservoir maintenance:

* :class:`UnbiasedReservoir` — Vitter's Algorithm R exactly as described in
  Section 2 of the paper: the first ``n`` points initialize the reservoir;
  the ``(t+1)``-th point is inserted with probability ``n/(t+1)``, replacing
  a uniformly random resident. Property 2.1: after ``t`` points every stream
  point is resident with probability ``n/t``.
* :class:`SkipUnbiasedReservoir` — the same sampling distribution with
  Vitter's Algorithm X skip optimization: instead of one random draw per
  arrival, it draws the *gap* until the next accepted record, making the
  per-point cost on long streams close to an integer compare. Used in the
  throughput ablation benchmark. Its block path is Algorithm R's.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike


__all__ = ["UnbiasedReservoir", "SkipUnbiasedReservoir"]


class UnbiasedReservoir(ReservoirSampler):
    """Vitter's Algorithm R: a uniform sample of the whole stream."""

    def offer(self, payload: Any) -> bool:
        """Algorithm R step: accept with probability ``n/t``, uniform victim."""
        self.t += 1
        self.offers += 1
        size = self._size
        if size < self.capacity:
            self._insert(size, payload)
            return True
        if self.rng.random() < self.capacity / self.t:
            self._insert(int(self.rng.integers(size)), payload)
            return True
        return False

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Vectorized Algorithm R over a block (same distribution).

        The first ``n - size`` points append deterministically; for the
        rest the block's acceptance coins (``u < n/t``) and victim slots
        are drawn in bulk, and per slot only the last accepted writer is
        written.
        """
        n = self.capacity
        b = len(pay)
        t0 = self.t
        local = t0 + 1 + np.arange(b, dtype=np.int64)
        s0 = self._size
        fill = min(b, n - s0)
        if fill:
            if s0 == 0:
                self._allocate()
            self._write(np.arange(s0, s0 + fill), np.arange(fill), pay,
                        local, local)
            self._size = s0 + fill
            self.insertions += fill
        m = 0
        if fill < b:
            u = self.rng.random(b - fill)
            accepted = fill + np.nonzero(u * local[fill:] < n)[0]
            m = len(accepted)
            if m:
                victims = self.rng.integers(0, n, size=m)
                slots, rev_pos = np.unique(victims[::-1], return_index=True)
                self._write(slots, accepted[m - 1 - rev_pos], pay,
                            local, local)
                self.insertions += m
                self.ejections += m
        self.t = t0 + b
        self.offers += b
        return fill + m

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Property 2.1: ``p(r, t) = min(1, n / t)`` — independent of ``r``."""
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return min(1.0, self.capacity / t)

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized Property 2.1 model."""
        t = self.t if t is None else int(t)
        r = np.asarray(r, dtype=np.float64)
        if np.any(r < 1) or np.any(r > t):
            raise ValueError("require 1 <= r <= t")
        if t <= 0:
            # Nothing has been offered yet: only the empty query is valid
            # (any concrete r would have failed the range check above), and
            # its answer is the empty vector — not a division by t = 0.
            return np.zeros(r.shape)
        return np.full(r.shape, min(1.0, self.capacity / t))


class SkipUnbiasedReservoir(UnbiasedReservoir):
    """Algorithm R distribution with Algorithm X geometric-skip acceptance.

    Once the reservoir is full, the number of stream points to *skip* before
    the next replacement is drawn directly (by sequential inversion of the
    skip distribution, Vitter 1985, Algorithm X), so rejected points cost no
    random draws at all. The resident-replacement choice is unchanged, so
    the resulting sample distribution is identical to Algorithm R.

    Per-item :meth:`offer` is Algorithm X, the Vitter reference. A block
    (:meth:`offer_many`) drops the pending skip and runs the Algorithm R
    kernel it inherits. That is exact: Algorithm R acceptances are
    independent ``Bernoulli(n/t)`` events, and the pending skip is a
    function of coins the block never uses.
    """

    def __init__(self, capacity: int, rng: RngLike = None) -> None:
        super().__init__(capacity, rng)
        self._skip = -1  # <0 means "not yet computed"

    def _extra_state(self) -> dict:
        return {"skip": self._skip}

    def _restore_extra(self, state: dict) -> None:
        self._skip = int(state["skip"])

    def _draw_skip(self, t: Optional[int] = None) -> int:
        """Draw the gap until the next accepted record (Algorithm X).

        ``t`` is the arrival index of the *current* (not yet decided)
        record, defaulting to ``self.t`` — which ``offer`` has already
        incremented to name this arrival. Sequential search: find the
        smallest ``s >= 0`` with
        ``prod_{j=0..s} (t + j - n) / (t + j) <= u`` for uniform ``u``; the
        product is the probability that records ``t .. t+s`` are all
        rejected, so the returned gap accepts record ``t + s`` (``s = 0``
        accepts the current one with the correct probability ``n/t``).
        """
        n = self.capacity
        t = self.t if t is None else int(t)
        u = self.rng.random()
        s = 0
        quot = (t - n) / t
        while quot > u:
            s += 1
            t += 1
            quot *= (t - n) / t
        return s

    def offer(self, payload: Any) -> bool:
        """Algorithm R distribution via pre-drawn geometric skips."""
        self.t += 1
        self.offers += 1
        size = self._size
        if size < self.capacity:
            self._insert(size, payload)
            return True
        if self._skip < 0:
            self._skip = self._draw_skip()
        if self._skip == 0:
            self._insert(int(self.rng.integers(size)), payload)
            self._skip = -1
            return True
        self._skip -= 1
        return False

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Algorithm R over the block; a pending skip is dropped first."""
        self._skip = -1
        return super()._admit_block(pay, glob)
