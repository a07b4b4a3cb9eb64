"""Ablation: Algorithm 2.1's F(t)-gated ejection vs eject-only-when-full.

Algorithm 2.1 flips an F(t) coin so that ejections can happen *before* the
reservoir is full, which is what makes the inclusion probability exactly
exponential from the very first point. The obvious simplification — insert
freely until full, then always replace — produces a different (uniform)
distribution over the pre-fill prefix and only converges to exponential
later. This ablation measures the age-distribution error of both policies
against the Theorem 2.2 model shortly after fill time.
"""

from typing import Any

import numpy as np

from repro.core import ExponentialReservoir
from repro.core.reservoir import ReservoirSampler
from repro.experiments.runner import ExperimentResult


class EjectWhenFullReservoir(ReservoirSampler):
    """The naive variant: grow until full, then always replace."""

    def offer(self, payload: Any) -> bool:
        self.t += 1
        self.offers += 1
        slot = self.size
        if self.is_full:
            slot = int(self.rng.integers(slot))
        self._insert(slot, payload)
        return True

    def inclusion_probability(self, r, t=None):  # pragma: no cover
        raise NotImplementedError("ablation-only sampler")


def age_model_error(sampler_factory, n, t, reps):
    """Mean |empirical - model| inclusion over reference ages."""
    ages_ref = np.array([0, n // 4, n // 2, n, 2 * n])
    ages_ref = ages_ref[ages_ref < t]
    hits = np.zeros(len(ages_ref))
    for seed in range(reps):
        sampler = sampler_factory(seed)
        sampler.extend(range(t))
        ages = set(sampler.ages().tolist())
        for i, a in enumerate(ages_ref):
            if int(a) in ages:
                hits[i] += 1
    empirical = hits / reps
    model = np.exp(-ages_ref / n)
    return float(np.mean(np.abs(empirical - model)))


def run_ablation(n=100, reps=300):
    rows = []
    for t in (int(n * 1.5), 3 * n, 10 * n):
        err_alg21 = age_model_error(
            lambda seed: ExponentialReservoir(capacity=n, rng=seed), n, t, reps
        )
        err_naive = age_model_error(
            lambda seed: EjectWhenFullReservoir(n, rng=seed), n, t, reps
        )
        rows.append(
            {
                "t_over_n": round(t / n, 1),
                "alg21_model_error": err_alg21,
                "naive_model_error": err_naive,
            }
        )
    return ExperimentResult(
        experiment_id="ablation_victim_policy",
        title="F(t)-gated ejection (Alg 2.1) vs eject-when-full: distance "
        "to the Theorem 2.2 inclusion model",
        params={"n": n, "reps": reps},
        columns=["t_over_n", "alg21_model_error", "naive_model_error"],
        rows=rows,
    )


def test_ablation_victim_policy(run_once, save_result):
    result = run_once(run_ablation)
    save_result(result)

    # Shortly after fill, Algorithm 2.1 already matches the exponential
    # model much better than the naive policy.
    early = result.rows[0]
    assert early["alg21_model_error"] < early["naive_model_error"]
    # Long after fill, both converge (memory of the prefix washes out).
    late = result.rows[-1]
    assert late["naive_model_error"] < 0.1
    assert late["alg21_model_error"] < 0.1
