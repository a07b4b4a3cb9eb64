"""Evolution (drift) detection from a biased reservoir — an extension.

The paper's Section 5.3 frames "evolution analysis" qualitatively (the
Figure 9 scatter plots). This module makes it operational: because an
exponentially biased reservoir over-represents the recent past *with known
inclusion probabilities*, a single reservoir supports a weighted
two-sample comparison between its "recent" and "historical" strata —
no second synopsis needed.

:class:`ReservoirDriftDetector` splits the residents at an age threshold,
reweights each stratum by Horvitz-Thompson to make both representative of
their time windows, and scores the distributional distance between the two
weighted samples:

* ``mean_shift`` — normalized distance between weighted means (a
  per-dimension z-like score aggregated by the Euclidean norm);
* ``energy`` — weighted energy distance (sensitive to shape changes, not
  just location).

Scores near 0 mean "no evolution across the threshold"; larger scores mean
the recent window's distribution has moved. Calibrate the alarm threshold
on a stationary prefix (see ``examples/`` or the tests), or use
:meth:`ReservoirDriftDetector.score_series` to track the score over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.reservoir import ReservoirSampler

__all__ = ["DriftScore", "ReservoirDriftDetector"]


@dataclass(frozen=True)
class DriftScore:
    """Outcome of one drift comparison.

    Attributes
    ----------
    mean_shift:
        Norm of the standardized difference of weighted means.
    energy:
        Weighted energy distance between the strata.
    recent_count, old_count:
        Stratum sizes (small strata make scores unreliable).
    threshold_age:
        The age that split the strata.
    """

    mean_shift: float
    energy: float
    recent_count: int
    old_count: int
    threshold_age: int


def _weighted_mean_cov_diag(
    values: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted mean and per-dimension weighted variance."""
    total = weights.sum()
    mean = (weights[:, None] * values).sum(axis=0) / total
    var = (weights[:, None] * (values - mean) ** 2).sum(axis=0) / total
    return mean, var


def _weighted_energy_distance(
    x: np.ndarray, wx: np.ndarray, y: np.ndarray, wy: np.ndarray
) -> float:
    """Energy distance ``2 E|X-Y| - E|X-X'| - E|Y-Y'|`` with weights."""
    wx = wx / wx.sum()
    wy = wy / wy.sum()

    def mean_cross(a, wa, b, wb):
        # |a_i - b_j| weighted by wa_i * wb_j, computed blockwise.
        dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        return float(wa @ dists @ wb)

    exy = mean_cross(x, wx, y, wy)
    exx = mean_cross(x, wx, x, wx)
    eyy = mean_cross(y, wy, y, wy)
    return max(0.0, 2.0 * exy - exx - eyy)


class ReservoirDriftDetector:
    """Weighted two-sample drift scoring over one reservoir.

    Parameters
    ----------
    sampler:
        Exponentially biased reservoir whose payloads are
        :class:`StreamPoint` objects (the inclusion model supplies the HT
        weights that undo the sampling bias within each stratum).
    threshold_age:
        Residents younger than this (in arrivals) form the "recent"
        stratum; older residents form the "historical" one. Defaults to
        the sampler capacity (roughly the bias half-life region).
    max_stratum:
        Cap on points per stratum for the O(m^2) energy distance; strata
        are uniformly subsampled above it.
    """

    def __init__(
        self,
        sampler: ReservoirSampler,
        threshold_age: Optional[int] = None,
        max_stratum: int = 400,
    ) -> None:
        self.sampler = sampler
        self.threshold_age = (
            int(threshold_age) if threshold_age is not None else sampler.capacity
        )
        if self.threshold_age < 1:
            raise ValueError("threshold_age must be >= 1")
        if max_stratum < 2:
            raise ValueError("max_stratum must be >= 2")
        self.max_stratum = int(max_stratum)

    def _strata(self):
        """(values, HT weights) of the recent and the historical stratum,
        read from the resident view with one age mask."""
        t = self.sampler.t
        try:
            columns = self.sampler.resident_columns()
        except AttributeError:
            raise TypeError(
                "drift detection requires StreamPoint payloads"
            ) from None
        weights = 1.0 / self.sampler.inclusion_probabilities(
            columns.arrivals, t
        )
        recent = (t - columns.arrivals) < self.threshold_age
        return (
            columns.values[recent],
            weights[recent],
            columns.values[~recent],
            weights[~recent],
        )

    def _subsample(self, values, weights, rng):
        if len(values) <= self.max_stratum:
            return values, weights
        idx = rng.choice(len(values), size=self.max_stratum, replace=False)
        return values[idx], weights[idx]

    def score(self, rng=None) -> Optional[DriftScore]:
        """Compare the strata; ``None`` if either stratum has < 2 points."""
        rng = np.random.default_rng(0) if rng is None else rng
        recent_v, recent_w, old_v, old_w = self._strata()
        if len(recent_v) < 2 or len(old_v) < 2:
            return None
        x, wx = self._subsample(recent_v, recent_w, rng)
        y, wy = self._subsample(old_v, old_w, rng)
        mean_x, var_x = _weighted_mean_cov_diag(x, wx)
        mean_y, var_y = _weighted_mean_cov_diag(y, wy)
        pooled = np.sqrt((var_x + var_y) / 2.0) + 1e-12
        mean_shift = float(np.linalg.norm((mean_x - mean_y) / pooled))
        energy = _weighted_energy_distance(x, wx, y, wy)
        return DriftScore(
            mean_shift=mean_shift,
            energy=energy,
            recent_count=len(recent_v),
            old_count=len(old_v),
            threshold_age=self.threshold_age,
        )

    @staticmethod
    def score_series(
        stream,
        sampler: ReservoirSampler,
        every: int,
        threshold_age: Optional[int] = None,
    ) -> List[Tuple[int, DriftScore]]:
        """Drive ``stream`` into ``sampler``, scoring every ``every`` points.

        Returns ``(t, score)`` pairs (skipping positions where a stratum
        was too small). Convenience for monitoring loops and the tests.
        """
        if every < 1:
            raise ValueError("every must be >= 1")
        out: List[Tuple[int, DriftScore]] = []
        detector = ReservoirDriftDetector(sampler, threshold_age)
        for i, point in enumerate(stream, start=1):
            sampler.offer(point)
            if i % every == 0:
                score = detector.score()
                if score is not None:
                    out.append((i, score))
        return out
