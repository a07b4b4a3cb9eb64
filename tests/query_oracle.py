"""The per-point query path and payload-loop mining readers, kept as oracles.

:mod:`repro.queries` evaluates every query through one columnar ``h``
over the sampler's resident view, and the mining readers copy that view.
This module keeps the implementations they replaced, which walk the
resident payloads one :class:`~repro.streams.point.StreamPoint` at a time:

* :func:`point_h` — the per-point ``h`` of each builder kernel;
* :func:`oracle_estimate` — the per-point Horvitz-Thompson / Hajek
  estimator (one ``h(point)`` call per resident);
* :func:`oracle_groupby` — the per-point GROUP BY accumulator for any key;
* the payload loops of the kNN mirror, the anomaly scorer, the cluster
  tracker and the drift detector (:data:`PAYLOAD_LOOPS`), and of the
  Figure 9 snapshot (:func:`evolution_snapshot`).

The columnar engine must reproduce the estimator bit for bit, and the
mining readers must give bitwise equal predictions, scores and
checkpoints with the loops patched in.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.mining.anomaly import ReservoirAnomalyScorer
from repro.mining.cluster_tracking import ClusterTracker
from repro.mining.drift import ReservoirDriftDetector
from repro.mining.evolution import (
    ReservoirSnapshot,
    class_separation,
    neighborhood_label_purity,
)
from repro.mining.knn import ReservoirKnnClassifier
from repro.queries import EstimateResult
from repro.queries.spec import (
    InRange,
    LinearQuery,
    OneHotLabel,
    RatioQuery,
    SelectDims,
)
from repro.streams.point import StreamPoint

PointH = Callable[[StreamPoint], np.ndarray]


# --------------------------------------------------------------------- #
# Queries
# --------------------------------------------------------------------- #


def point_h(query: LinearQuery) -> PointH:
    """The per-point ``h`` of a builder query (one point -> one row)."""
    h = query.h
    if h is None:
        return lambda point: np.ones(1)
    if type(h) is SelectDims:
        return lambda point: point.values[h.dims]
    if type(h) is InRange:

        def in_range(point: StreamPoint) -> np.ndarray:
            v = point.values[h.dims]
            inside = np.all((v >= h.low) & (v <= h.high))
            return np.array([1.0 if inside else 0.0])

        return in_range
    if type(h) is OneHotLabel:

        def onehot(point: StreamPoint) -> np.ndarray:
            out = np.zeros(h.n_classes)
            if point.label is not None and 0 <= point.label < h.n_classes:
                out[point.label] = 1.0
            return out

        return onehot
    raise TypeError(f"no per-point h for kernel {h!r}; pass one explicitly")


def _sample_parts(sampler, query: LinearQuery, t: int, value: PointH):
    """Per-resident (c, h, p) over the support, one ``value`` call each."""
    arrivals = sampler.arrival_indices()
    if arrivals.size == 0:
        return None
    coeffs = query.coefficients(arrivals, t)
    support = coeffs != 0.0
    if not np.any(support):
        return None
    arrivals = arrivals[support]
    coeffs = coeffs[support]
    payloads = [p for p, keep in zip(sampler.payloads(), support) if keep]
    values = np.vstack([value(point) for point in payloads])
    probs = sampler.inclusion_probabilities(arrivals, t)
    return coeffs, values, probs


def oracle_estimate(
    sampler,
    query,
    t: Optional[int] = None,
    value: Optional[PointH] = None,
) -> EstimateResult:
    """Per-point estimate of ``query`` (HT for linear, Hajek for ratio).

    ``value`` is the per-point ``h`` of a linear query that no builder
    made; builder queries get :func:`point_h`.
    """
    t = sampler.t if t is None else int(t)
    if isinstance(query, RatioQuery):
        num_parts = _sample_parts(
            sampler, query.numerator, t, point_h(query.numerator)
        )
        den_parts = _sample_parts(
            sampler, query.denominator, t, point_h(query.denominator)
        )
        if num_parts is None or den_parts is None:
            return EstimateResult(
                np.full(query.numerator.output_dim, np.nan), None, 0
            )
        n_coeffs, n_values, n_probs = num_parts
        d_coeffs, d_values, d_probs = den_parts
        numerator = (n_coeffs / n_probs) @ n_values
        denominator = (d_coeffs / d_probs) @ d_values
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = np.where(
                denominator != 0.0, numerator / denominator, np.nan
            )
        return EstimateResult(estimate, None, int(d_coeffs.size))
    parts = _sample_parts(sampler, query, t, value or point_h(query))
    if parts is None:
        return EstimateResult(
            np.zeros(query.output_dim), np.zeros(query.output_dim), 0
        )
    coeffs, values, probs = parts
    estimate = (coeffs / probs) @ values
    var_terms = (coeffs[:, None] * values) ** 2 * (
        (1.0 - probs) / probs**2
    )[:, None]
    return EstimateResult(estimate, var_terms.sum(axis=0), int(coeffs.size))


def oracle_groupby(
    sampler,
    query,
    key: Callable[[StreamPoint], Hashable],
    t: Optional[int] = None,
) -> Tuple[Dict[Hashable, Dict[str, Any]], float]:
    """Per-point GROUP BY totals ``{key: {num, den, support, weight}}``
    (groups in order of first appearance) and the total HT weight."""
    t = sampler.t if t is None else int(t)
    if isinstance(query, RatioQuery):
        numerator, denominator = query.numerator, query.denominator
    else:
        numerator, denominator = query, None
    arrivals = sampler.arrival_indices()
    coeffs = numerator.coefficients(arrivals, t)
    probs = sampler.inclusion_probabilities(arrivals, t)
    num_h = point_h(numerator)
    den_h = point_h(denominator) if denominator is not None else None
    groups: Dict[Hashable, Dict[str, Any]] = {}
    total_weight = 0.0
    for point, c, p in zip(sampler.payloads(), coeffs, probs):
        if c == 0.0:
            continue
        weight = c / p
        total_weight += weight
        bucket = groups.setdefault(
            key(point), {"num": None, "den": 0.0, "support": 0, "weight": 0.0}
        )
        contribution = weight * num_h(point)
        if bucket["num"] is None:
            bucket["num"] = contribution.astype(np.float64)
        else:
            bucket["num"] += contribution
        if den_h is not None:
            bucket["den"] += weight * float(den_h(point)[0])
        bucket["support"] += 1
        bucket["weight"] += weight
    return groups, total_weight


# --------------------------------------------------------------------- #
# Mining readers: the payload loops the resident view replaced
# --------------------------------------------------------------------- #


def knn_rebuild(self) -> None:
    """``ReservoirKnnClassifier._rebuild``: one row write per payload."""
    payloads = self.sampler.payloads()
    self._rows = len(payloads)
    if self._rows == 0:
        self._matrix = None
    else:
        dim = payloads[0].dimensions
        if (
            self._matrix is None
            or self._matrix.shape[1] != dim
            or self._matrix.shape[0] < self.sampler.capacity
        ):
            self._allocate(max(self.sampler.capacity, self._rows), dim)
        for i, point in enumerate(payloads):
            self._matrix[i] = point.values
            self._labeled[i] = point.label is not None
            self._labels[i] = -1 if point.label is None else point.label
    self._synced_insertions = self.sampler.insertions
    self._synced_ejections = self.sampler.ejections


def anomaly_matrix(self) -> Optional[np.ndarray]:
    """``ReservoirAnomalyScorer._matrix``: stacked payload values."""
    payloads = self.sampler.payloads()
    if not payloads:
        return None
    return np.vstack([p.values for p in payloads])


def cluster_reservoir_matrix(self) -> Optional[np.ndarray]:
    """``ClusterTracker._reservoir_matrix``: stacked point payloads."""
    rows = [
        p.values for p in self.sampler.payloads() if isinstance(p, StreamPoint)
    ]
    if len(rows) < self.k:
        return None
    return np.vstack(rows)


def drift_strata(self):
    """``ReservoirDriftDetector._strata``: per-payload stratum lists."""
    t = self.sampler.t
    arrivals = self.sampler.arrival_indices()
    probs = self.sampler.inclusion_probabilities(arrivals, t)
    recent_v, recent_w, old_v, old_w = [], [], [], []
    for point, r, p in zip(self.sampler.payloads(), arrivals, probs):
        if not isinstance(point, StreamPoint):
            raise TypeError("drift detection requires StreamPoint payloads")
        weight = 1.0 / p
        if t - r < self.threshold_age:
            recent_v.append(point.values)
            recent_w.append(weight)
        else:
            old_v.append(point.values)
            old_w.append(weight)
    return recent_v, recent_w, old_v, old_w


def drift_subsample(self, values, weights, rng):
    """``ReservoirDriftDetector._subsample`` over the stratum lists."""
    if len(values) <= self.max_stratum:
        return np.vstack(values), np.asarray(weights)
    idx = rng.choice(len(values), size=self.max_stratum, replace=False)
    return (
        np.vstack([values[i] for i in idx]),
        np.asarray([weights[i] for i in idx]),
    )


def evolution_snapshot(sampler) -> ReservoirSnapshot:
    """``repro.mining.evolution.snapshot``: one pass over ``entries()``."""
    rows = []
    labels = []
    ages = []
    t = sampler.t
    for entry in sampler.entries():
        point = entry.payload
        if point.label is None:
            continue
        rows.append(point.values)
        labels.append(point.label)
        ages.append(t - entry.arrival)
    if not rows:
        raise ValueError("reservoir holds no labeled residents to snapshot")
    values = np.vstack(rows)
    labels_arr = np.asarray(labels, dtype=np.int64)
    ages_arr = np.asarray(ages, dtype=np.int64)
    return ReservoirSnapshot(
        t=t,
        values=values,
        labels=labels_arr,
        ages=ages_arr,
        purity=neighborhood_label_purity(values, labels_arr),
        separation=class_separation(values, labels_arr),
        staleness=float(ages_arr.mean() / t) if t else float("nan"),
    )


#: ``(class, method name, payload-loop version)`` for monkeypatching.
PAYLOAD_LOOPS = [
    (ReservoirKnnClassifier, "_rebuild", knn_rebuild),
    (ReservoirAnomalyScorer, "_matrix", anomaly_matrix),
    (ClusterTracker, "_reservoir_matrix", cluster_reservoir_matrix),
    (ReservoirDriftDetector, "_strata", drift_strata),
    (ReservoirDriftDetector, "_subsample", drift_subsample),
]
