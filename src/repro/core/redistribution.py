"""General-bias sampling by per-arrival redistribution (the costly path).

Section 2 of the paper argues that for *arbitrary* bias functions
``f(r, t)`` no efficient one-pass maintenance is known: because every
resident's target probability changes with each arrival, the whole sample
"may need to be re-distributed ... ``Omega(|S(t)|)`` operations for every
point in the stream", and the reservoir size cannot be held constant.

:class:`GeneralBiasSampler` implements exactly that costly-but-general
strategy, so the library can (a) sample under non-memory-less biases such as
:class:`~repro.core.bias.PolynomialBias`, and (b) demonstrate the efficiency
argument empirically in the ablation benchmarks.

Mechanism (independent / Poisson sampling): maintain for each resident its
current inclusion probability ``p(r, t) = min(1, C(t) f(r, t))`` with
``C(t) = n_target / sum_{i<=t} f(i, t)``. On each arrival, every resident is
independently retained with probability ``p(r, t+1)/p(r, t)`` (a valid
thinning because ``p`` is non-increasing in ``t`` for monotone bias
functions), and the newcomer enters with probability ``p(t+1, t+1)``. The
sample is therefore *exactly* proportional to ``f`` at all times, with
``E[|S(t)|] = n_target`` once the stream is long enough — but the size
fluctuates and each arrival costs ``Theta(|S(t)|)`` work, as the paper
predicts.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.bias import (
    BiasFunction,
    ExponentialBias,
    PolynomialBias,
    UnbiasedBias,
)
from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike

__all__ = ["GeneralBiasSampler"]


def _bias_state(bias: BiasFunction) -> dict:
    """Serialize a built-in bias function for snapshots."""
    # UnbiasedBias subclasses ExponentialBias, so it must be checked first.
    if isinstance(bias, UnbiasedBias):
        return {"class": "UnbiasedBias"}
    if isinstance(bias, ExponentialBias):
        return {"class": "ExponentialBias", "lam": bias.lam}
    if isinstance(bias, PolynomialBias):
        return {"class": "PolynomialBias", "alpha": bias.alpha}
    raise TypeError(
        f"cannot snapshot a GeneralBiasSampler with custom bias "
        f"{type(bias).__name__}"
    )


def _bias_from_state(state: dict) -> BiasFunction:
    """Rebuild a bias function serialized by :func:`_bias_state`."""
    name = state["class"]
    if name == "UnbiasedBias":
        return UnbiasedBias()
    if name == "ExponentialBias":
        return ExponentialBias(state["lam"])
    if name == "PolynomialBias":
        return PolynomialBias(state["alpha"])
    raise ValueError(f"unknown bias class {name!r}")


class GeneralBiasSampler(ReservoirSampler):
    """Exact proportional sampler for arbitrary monotone bias functions.

    Parameters
    ----------
    bias:
        Any :class:`~repro.core.bias.BiasFunction`.
    target_size:
        Desired expected sample size ``n``. The realized size is random
        (binomial-like fluctuation around the target); ``capacity`` is
        sized with headroom to absorb it.

        Theorem 2.1 caveat: if ``target_size`` exceeds the bias function's
        maximum reservoir requirement ``R(t)``, exact proportionality is
        impossible — per-point probabilities are clamped at 1 and the
        realized expected size is ``sum_r min(1, C(t) f(r, t)) < n``. This
        is the paper's point that bias *upper-bounds* the useful sample
        size; pick ``target_size <= bias.max_reservoir_requirement(t)``.
    rng:
        Seed or generator.
    capacity_slack:
        Multiplier for the physical capacity over ``target_size``
        (default 3x) — purely a guard rail; the sampler never *needs* the
        slack in expectation.
    """

    #: Current ``p(r, t)`` per resident.
    _side_columns = ("_p",)

    def __init__(
        self,
        bias: BiasFunction,
        target_size: int,
        rng: RngLike = None,
        capacity_slack: float = 3.0,
    ) -> None:
        target_size = int(target_size)
        if target_size < 1:
            raise ValueError(f"target_size must be >= 1, got {target_size}")
        super().__init__(max(1, int(target_size * capacity_slack)), rng)
        self.bias = bias
        self.target_size = target_size
        self._weight_sum = 0.0  # sum_{i<=t} f(i, t)

    def _constant(self) -> float:
        """Normalizer ``C(t) = n / sum f(i, t)`` from Equation (6)."""
        return self.target_size / self._weight_sum

    def _extra_state(self) -> dict:
        return {
            "bias": _bias_state(self.bias),
            "target_size": self.target_size,
            "weight_sum": self._weight_sum,
            "probs": self._p[: self._size].tolist(),
        }

    def _restore_extra(self, state: dict) -> None:
        self._weight_sum = float(state["weight_sum"])
        self._p[: self._size] = state["probs"]

    @classmethod
    def _construct_from_state(cls, state: dict) -> "GeneralBiasSampler":
        obj = cls(_bias_from_state(state["bias"]), state["target_size"])
        # Reapply the snapshotted physical capacity directly rather than
        # reverse-engineering the slack multiplier (float-exactly).
        obj.capacity = int(state["capacity"])
        return obj

    def offer(self, payload: Any) -> bool:
        """Redistribute every resident to its new probability, then admit
        the newcomer with its own (Theta(|S|) work per arrival)."""
        t_next = self.t + 1
        # Update the weight sum to time t+1: every old term decays from
        # f(i, t) to f(i, t+1) and the newcomer contributes f(t+1, t+1).
        try:
            self._weight_sum = self.bias.incremental_weight_sum(
                self._weight_sum, t_next
            )
        except NotImplementedError:
            indices = np.arange(1, t_next + 1)
            self._weight_sum = float(self.bias.weights(indices, t_next).sum())
        self.t = t_next
        self.offers += 1

        const = self._constant()
        # Redistribute: thin every resident to its new target probability
        # (one coin each, in storage order), keeping survivors in order.
        size = self._size
        if size:
            t = self.t
            weight = self.bias.weight
            probs = self._p
            coins = self.rng.random(size)
            keep = np.empty(size, dtype=bool)
            for i, (arr, p_old) in enumerate(
                zip(self._arr[:size].tolist(), probs[:size].tolist())
            ):
                p_new = min(1.0, const * weight(arr, t))
                keep_prob = 1.0 if p_old <= 0.0 else min(1.0, p_new / p_old)
                keep[i] = coins[i] < keep_prob
                probs[i] = p_new
            self._compact(keep)

        # Admit the newcomer with its own target probability.
        p_new_point = min(1.0, const * self.bias.weight(self.t, self.t))
        if self.rng.random() < p_new_point and self._size < self.capacity:
            slot = self._size
            self._insert(slot, payload)
            self._p[slot] = p_new_point
            return True
        return False

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Exact maintained probability ``min(1, C(t) f(r, t))``.

        Only the current time is supported (the normalizer for past times
        is not retained).
        """
        t = self.t if t is None else int(t)
        if t != self.t:
            raise ValueError(
                "GeneralBiasSampler only models p(r, t) at the current time"
            )
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return min(1.0, self._constant() * self.bias.weight(r, t))

    def work_per_arrival(self) -> float:
        """Average redistribution work (resident touches) per arrival so far.

        This is the ``Omega(|S(t)|)`` cost the paper's Section 2 warns
        about; compare with the O(1) cost of Algorithm 2.1 in the
        throughput ablation.
        """
        if self.offers == 0:
            return 0.0
        # Every offer touches every resident once; approximate by the
        # current size (residents count is roughly stationary at target).
        return float(self.size)
