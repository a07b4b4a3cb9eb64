"""Reservoir-based anomaly scoring — an extension in the paper's domain.

The paper's motivating data is network-intrusion traffic; the natural task
there is *anomaly detection against recent behaviour*. A distance-based
detector needs a reference sample of "normal recent traffic" — exactly
what a biased reservoir maintains. The scorer mirrors the classification
setup of Section 5.3: the reference set *is* the reservoir, so the
detector inherits the reservoir's temporal bias.

Score: mean Euclidean distance to the ``k`` nearest residents. Over a
*biased* reservoir the score adapts to regime changes (yesterday's novelty
becomes today's normal as the reservoir turns over); over an unbiased one
stale history keeps old regimes "normal" forever and dilutes the contrast
for new behaviour.

:meth:`ReservoirAnomalyScorer.score_then_observe` gives the prequential
protocol; :meth:`calibrate_threshold` turns scores into alarms via an
empirical quantile of recent scores.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.streams.point import StreamPoint

__all__ = ["ReservoirAnomalyScorer"]


class ReservoirAnomalyScorer:
    """k-NN distance anomaly scorer over a reservoir sample.

    Parameters
    ----------
    sampler:
        The reservoir supplying the reference set (payloads must be
        :class:`StreamPoint`).
    k:
        Number of nearest residents averaged into the score.
    score_memory:
        How many recent scores to keep for threshold calibration.
    """

    def __init__(
        self,
        sampler: ReservoirSampler,
        k: int = 5,
        score_memory: int = 2_000,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if score_memory < 10:
            raise ValueError(f"score_memory must be >= 10, got {score_memory}")
        self.sampler = sampler
        self.k = int(k)
        self.recent_scores: Deque[float] = deque(maxlen=int(score_memory))

    def _matrix(self) -> Optional[np.ndarray]:
        columns = self.sampler.resident_columns()
        return columns.values if columns.size else None

    def score(self, point: StreamPoint) -> Optional[float]:
        """Mean distance to the ``k`` nearest residents (``None`` if the
        reservoir is empty)."""
        matrix = self._matrix()
        if matrix is None:
            return None
        dists = np.linalg.norm(matrix - point.values, axis=1)
        k = min(self.k, dists.size)
        nearest = np.partition(dists, k - 1)[:k]
        return float(nearest.mean())

    def score_then_observe(self, point: StreamPoint) -> Optional[float]:
        """Prequential step: score against the reservoir, then offer the
        point to it (so the detector adapts at the sampler's bias rate)."""
        value = self.score(point)
        self.sampler.offer(point)
        if value is not None:
            self.recent_scores.append(value)
        return value

    def calibrate_threshold(self, quantile: float = 0.99) -> Optional[float]:
        """Alarm threshold: the given quantile of recent scores.

        ``None`` until enough scores have accumulated (a tenth of the
        score memory).
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must lie in (0, 1), got {quantile}")
        if len(self.recent_scores) < max(10, self.recent_scores.maxlen // 10):
            return None
        return float(np.quantile(np.asarray(self.recent_scores), quantile))

    def is_anomalous(
        self, point: StreamPoint, quantile: float = 0.99
    ) -> Optional[bool]:
        """Score ``point`` and compare against the calibrated threshold.

        Does *not* observe the point (callers usually want to quarantine
        anomalies rather than teach them to the reference set). ``None``
        when either the score or the threshold is unavailable.
        """
        threshold = self.calibrate_threshold(quantile)
        value = self.score(point)
        if threshold is None or value is None:
            return None
        return value > threshold
