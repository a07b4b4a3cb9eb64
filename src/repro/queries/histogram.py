"""Histogram and quantile estimation from biased reservoirs — an extension.

Selectivity estimation (the paper's Section 4/5 application) generalizes
from "fraction inside one range" to "the whole distribution": equi-width
histograms and quantiles of a dimension over a recent horizon. Both are
weighted-sample problems — each resident contributes mass ``c(r,t)/p(r,t)``
— so the reservoir supports them directly, with the same
recent-horizon advantage the paper demonstrates for single ranges. The
residents and their masses are the
:class:`~repro.queries.estimator.QueryEstimator` support record of a
horizon count at the sampler's position, so a horizon must be ``>= 1``.

Functions take the reservoir, a dimension, and an optional horizon, and
return normalized estimates comparable against the exact values computed
from :class:`~repro.queries.exact.StreamHistory`
(:func:`exact_histogram` / :func:`exact_quantiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.queries.estimator import QueryEstimator
from repro.queries.exact import StreamHistory
from repro.queries.spec import count_query

__all__ = [
    "HistogramEstimate",
    "estimate_histogram",
    "estimate_quantiles",
    "exact_histogram",
    "exact_quantiles",
]


@dataclass(frozen=True)
class HistogramEstimate:
    """An estimated (normalized) equi-width histogram.

    Attributes
    ----------
    edges:
        Bin edges, length ``bins + 1``.
    densities:
        Normalized bin masses (sum to 1 when support is non-empty).
    support:
        Number of residents contributing (inside the horizon).
    """

    edges: np.ndarray
    densities: np.ndarray
    support: int

    def total_variation(self, other: "HistogramEstimate") -> float:
        """Total-variation distance to another histogram on the same edges."""
        if self.edges.shape != other.edges.shape or not np.allclose(
            self.edges, other.edges
        ):
            raise ValueError("histograms must share bin edges")
        return 0.5 * float(np.abs(self.densities - other.densities).sum())


def _weighted_values(
    sampler: ReservoirSampler, dim: int, horizon: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-resident (value, HT weight) restricted to the horizon.

    The support record of ``count_query(horizon)`` at ``sampler.t``: its
    weights ``c / p`` are ``1 / p``, since ``c`` is exactly ``1.0``.
    """
    estimator = QueryEstimator(sampler)
    support = estimator._support(count_query(horizon), sampler.t)
    if support is None:
        return np.empty(0), np.empty(0)
    return estimator._rows(support).values[:, dim], support.weights


def estimate_histogram(
    sampler: ReservoirSampler,
    dim: int,
    edges: Sequence[float],
    horizon: Optional[int] = None,
) -> HistogramEstimate:
    """Weighted equi-anything histogram of ``dim`` over the horizon.

    ``edges`` are explicit (so estimate and truth share bins); values
    outside ``[edges[0], edges[-1]]`` are clipped into the end bins so the
    densities always describe the full population.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-D array of at least 2 values")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    values, weights = _weighted_values(sampler, dim, horizon)
    if values.size == 0:
        return HistogramEstimate(
            edges, np.zeros(edges.size - 1), 0
        )
    clipped = np.clip(values, edges[0], edges[-1])
    masses, __ = np.histogram(clipped, bins=edges, weights=weights)
    total = masses.sum()
    densities = masses / total if total > 0 else masses
    return HistogramEstimate(edges, densities, int(values.size))


def estimate_quantiles(
    sampler: ReservoirSampler,
    dim: int,
    qs: Sequence[float],
    horizon: Optional[int] = None,
) -> np.ndarray:
    """Weighted quantiles of ``dim`` over the horizon.

    Uses the weighted empirical CDF of the residents (HT weights); returns
    ``nan`` for every quantile when the horizon support is empty.
    """
    qs = np.asarray(qs, dtype=np.float64)
    if np.any(qs < 0) or np.any(qs > 1):
        raise ValueError("quantiles must lie in [0, 1]")
    values, weights = _weighted_values(sampler, dim, horizon)
    if values.size == 0:
        return np.full(qs.shape, np.nan)
    order = np.argsort(values)
    values = values[order]
    weights = weights[order]
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    return np.interp(qs, cdf, values)


def exact_histogram(
    history: StreamHistory,
    dim: int,
    edges: Sequence[float],
    horizon: Optional[int] = None,
    t: Optional[int] = None,
) -> HistogramEstimate:
    """Ground-truth histogram over the horizon, same bin convention."""
    edges = np.asarray(edges, dtype=np.float64)
    start, stop = history.horizon_bounds(horizon, t)
    column = history.values()[start:stop, dim].astype(np.float64)
    if column.size == 0:
        return HistogramEstimate(edges, np.zeros(edges.size - 1), 0)
    clipped = np.clip(column, edges[0], edges[-1])
    masses, __ = np.histogram(clipped, bins=edges)
    densities = masses / masses.sum()
    return HistogramEstimate(edges, densities, int(column.size))


def exact_quantiles(
    history: StreamHistory,
    dim: int,
    qs: Sequence[float],
    horizon: Optional[int] = None,
    t: Optional[int] = None,
) -> np.ndarray:
    """Ground-truth quantiles over the horizon."""
    qs = np.asarray(qs, dtype=np.float64)
    start, stop = history.horizon_bounds(horizon, t)
    column = history.values()[start:stop, dim].astype(np.float64)
    if column.size == 0:
        return np.full(qs.shape, np.nan)
    return np.quantile(column, qs)
