"""Wall-clock (timestamp-driven) exponential bias — an extension.

The paper measures age in *arrival counts*: ``f(r, t) = exp(-lambda (t-r))``
with ``t - r`` the number of points since ``r`` arrived. Real deployments
often want decay in *time* instead — "weight halves every 10 minutes"
regardless of how bursty the arrival process is. This module extends
Algorithm 2.1 toward that setting.

Mechanism. In the count-based algorithm, each arrival applies a
per-resident ejection hazard of exactly ``1/n``. Here, an elapsed
wall-clock gap ``delta`` additionally triggers ``K ~ Poisson(lam_time *
delta * n)`` single-ejection rounds; conditioned on the gap each resident
survives those rounds with probability

    E[(1 - 1/n)^K] = exp(-lam_time * delta)

exactly (Poisson mgf — no large-``n`` approximation for this step).

**Exact semantics (read this).** Insertion stays deterministic, and
inserting into a *full* bounded reservoir must evict someone — that
replacement contributes an unavoidable count-based hazard of ``1/n`` per
arrival on top of the time decay. The realized retention of a resident
inserted at wall-clock time ``s`` / arrival index ``r`` is therefore the
*hybrid*

    p ~ exp(-lam_time * (now - s)) * (1 - 1/n)^(t - r)            (*)

with both factors tracked and modelled exactly by
:meth:`TimestampedExponentialReservoir.inclusion_probability_at`. Two
regimes follow:

* arrival rate ``rho << n * lam_time`` — the time term dominates; the
  sampler behaves as pure wall-clock decay;
* ``rho >> n * lam_time`` — memory pressure dominates and the sampler
  gracefully degrades to the count-based Algorithm 2.1 (a bounded
  reservoir simply cannot retain a burst longer than ``n`` slots allow).

This "time decay, but never slower than memory forces" contract is
well-defined, estimable (the Horvitz-Thompson machinery just divides by
(*)), and O(1) expected work per arrival when ``lam_time * mean_gap * n``
is O(1).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike

__all__ = ["TimestampedExponentialReservoir"]


def _run_decay(sampler: ReservoirSampler, delta: float) -> None:
    """Apply K ~ Poisson(lam_time * delta * n) F(t)-gated ejection rounds.

    ``sampler`` has a ``lam_time`` rate. The F-gate (eject only with
    probability size/capacity) mirrors Algorithm 2.1's pre-fill
    behaviour; once full it is a certainty. Each round that passes the
    gate swap-removes one uniform resident.
    """
    mean = sampler.lam_time * delta * sampler.capacity
    if mean <= 0.0:
        return
    for _ in range(int(sampler.rng.poisson(mean))):
        size = sampler.size
        if size == 0:
            break
        if sampler.rng.random() < size / sampler.capacity:
            sampler._eject_random(1)


class TimestampedExponentialReservoir(ReservoirSampler):
    """Exponentially time-biased reservoir (hybrid decay, see module doc).

    Parameters
    ----------
    lam_time:
        Decay rate per unit time: the time component of a resident's
        retention decays by ``1/e`` every ``1/lam_time`` time units.
    capacity:
        Reservoir size ``n``. The time-based analogue of the maximum
        requirement depends on the arrival rate ``rho``: the relevant
        sample holds ~``rho / lam_time`` points
        (:meth:`suggested_capacity`).
    rng:
        Seed or generator.

    Usage
    -----
    Call :meth:`offer_at(payload, timestamp)` with non-decreasing
    timestamps. Plain :meth:`offer` assumes unit spacing.
    """

    #: Per-resident wall-clock timestamps.
    _side_columns = ("_ts",)

    def __init__(
        self, lam_time: float, capacity: int, rng: RngLike = None
    ) -> None:
        super().__init__(capacity, rng)
        lam_time = float(lam_time)
        if lam_time <= 0.0:
            raise ValueError(f"lam_time must be > 0, got {lam_time}")
        self.lam_time = lam_time
        self.now: float = 0.0

    def _extra_state(self) -> dict:
        return {
            "lam_time": self.lam_time,
            "now": self.now,
            "timestamps": self._ts[: self._size].tolist(),
        }

    def _restore_extra(self, state: dict) -> None:
        self.now = float(state["now"])
        self._ts[: self._size] = state["timestamps"]

    @classmethod
    def _construct_from_state(
        cls, state: dict
    ) -> "TimestampedExponentialReservoir":
        return cls(lam_time=state["lam_time"], capacity=state["capacity"])

    @staticmethod
    def suggested_capacity(arrival_rate: float, lam_time: float) -> int:
        """Time-based analogue of Approximation 2.1.

        Over the past, the expected relevant mass is
        ``integral rho * exp(-lam_time * a) da = rho / lam_time``; that is
        the constant space that holds the whole relevant sample.
        """
        if arrival_rate <= 0.0 or lam_time <= 0.0:
            raise ValueError("arrival_rate and lam_time must be > 0")
        return max(1, math.ceil(arrival_rate / lam_time))

    def offer_at(self, payload: Any, timestamp: float) -> bool:
        """Process an arrival stamped ``timestamp`` (non-decreasing)."""
        timestamp = float(timestamp)
        if timestamp < self.now:
            raise ValueError(
                f"timestamps must be non-decreasing: {timestamp} < {self.now}"
            )
        delta = timestamp - self.now
        self.now = timestamp
        self.t += 1
        self.offers += 1
        _run_decay(self, delta)
        slot = self._size
        if slot >= self.capacity:
            slot = int(self.rng.integers(slot))
        self._insert(slot, payload)
        self._ts[slot] = timestamp
        return True

    def offer(self, payload: Any) -> bool:
        """Unit-spaced arrivals (timestamp advances by 1 per offer)."""
        return self.offer_at(payload, self.now + 1.0)

    def offer_many_at(
        self, payloads: Iterable[Any], timestamps: Iterable[float]
    ) -> int:
        """Batched :meth:`offer_at`: one block, one bulk randomness draw.

        Statistically equivalent to offering point by point — the Poisson
        decay-round counts for every inter-arrival gap, the ejection-gate
        coins, and the victim positions are all pre-drawn in bulk, and the
        per-point work collapses to plain store operations. Timestamps must
        be non-decreasing and start at or after :attr:`now`. Returns the
        stored count (every arrival is stored; see :meth:`extend`).
        """
        block = (
            payloads
            if isinstance(payloads, (list, tuple))
            else list(payloads)
        )
        if not block:
            return 0
        stamps = np.asarray(list(timestamps), dtype=np.float64)
        if stamps.shape != (len(block),):
            raise ValueError(
                f"need one timestamp per payload: {len(block)} payloads, "
                f"{stamps.size} timestamps"
            )
        if stamps[0] < self.now or np.any(np.diff(stamps) < 0.0):
            raise ValueError("timestamps must be non-decreasing")
        self._offer_block_at(block, stamps)
        self._mark_compact()
        return len(block)

    def _admit_block(self, pay: Any, glob: Optional[np.ndarray]) -> int:
        """Unit-spaced batch ingestion (timestamp advances by 1 per point)."""
        stamps = self.now + np.arange(1, len(pay) + 1, dtype=np.float64)
        self._offer_block_at(pay, stamps)
        return len(pay)

    def _offer_block_at(self, block: Any, stamps: np.ndarray) -> None:
        """Shared batched core: pre-drawn randomness, per-point store ops.

        The decay rounds of every gap, their gate coins and victims, and
        the insert victims are drawn up front; a round that finds the
        store empty discards its remaining draws.
        """
        deltas = np.diff(stamps, prepend=self.now)
        rounds = self.rng.poisson(self.lam_time * deltas * self.capacity)
        total_rounds = int(rounds.sum())
        gate_u = self.rng.random(total_rounds)
        round_victim_u = self.rng.random(total_rounds)
        insert_victim_u = self.rng.random(len(block))
        n = self.capacity
        cursor = 0  # position in the pre-drawn per-round arrays
        for k, payload in enumerate(block):
            self.t += 1
            end = cursor + int(rounds[k])
            while cursor < end and self._size:
                size = self._size
                if gate_u[cursor] < size / n:
                    self._swap_remove(int(round_victim_u[cursor] * size))
                cursor += 1
            cursor = end
            slot = self._size
            if slot >= n:
                slot = int(insert_victim_u[k] * slot)
            self._insert(slot, payload)
            self._ts[slot] = stamps[k]
        self.offers += len(block)
        self.now = float(stamps[-1])

    def timestamps(self) -> np.ndarray:
        """Wall-clock timestamps of the residents."""
        return self._ts[: self._size].copy()

    def time_ages(self) -> np.ndarray:
        """Per-resident elapsed time ``now - timestamp``."""
        return self.now - self.timestamps()

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Arrival-index-only models are insufficient here (the design is
        timestamp-driven); use :meth:`inclusion_probability_at` with both
        coordinates."""
        raise NotImplementedError(
            "TimestampedExponentialReservoir models inclusion by "
            "(timestamp, arrival index); use inclusion_probability_at"
        )

    def inclusion_probability_at(
        self, timestamp: float, arrival_index: Optional[int] = None
    ) -> float:
        """The hybrid model (*) from the module docstring.

        ``exp(-lam_time (now - timestamp))`` times, when ``arrival_index``
        is given, the count factor ``(1 - 1/n)^(t - arrival_index)`` from
        replacement pressure. Omitting ``arrival_index`` returns the pure
        time component (valid when arrivals are sparse,
        ``rho << n * lam_time``).
        """
        timestamp = float(timestamp)
        if timestamp > self.now:
            raise ValueError(
                f"timestamp {timestamp} is in the future (now={self.now})"
            )
        p = math.exp(-self.lam_time * (self.now - timestamp))
        if arrival_index is not None:
            if not 1 <= arrival_index <= self.t:
                raise ValueError(
                    f"require 1 <= arrival_index <= {self.t}, got "
                    f"{arrival_index}"
                )
            p *= (1.0 - 1.0 / self.capacity) ** (self.t - arrival_index)
        return p

    def inclusion_probabilities_at(
        self,
        timestamps: np.ndarray,
        arrival_indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`inclusion_probability_at`."""
        stamps = np.asarray(timestamps, dtype=np.float64)
        if np.any(stamps > self.now):
            raise ValueError("timestamps must not exceed now")
        p = np.exp(-self.lam_time * (self.now - stamps))
        if arrival_indices is not None:
            r = np.asarray(arrival_indices, dtype=np.float64)
            if np.any(r < 1) or np.any(r > self.t):
                raise ValueError("require 1 <= arrival_index <= t")
            p = p * (1.0 - 1.0 / self.capacity) ** (self.t - r)
        return p
