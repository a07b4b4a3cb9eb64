"""Evolution analysis of reservoir contents (Figure 9).

Figure 9 of the paper shows 2-D scatter plots of the biased and unbiased
reservoirs at three points of stream progression: the biased reservoir
tracks the drifting clusters (classes stay crisp), the unbiased one shows
"diffusion and mixing" of stale history. Scatter plots do not diff well in
a test suite, so alongside the raw projections this module computes
quantitative summaries of the same phenomena:

* **neighborhood label purity** — fraction of residents whose nearest
  reservoir neighbor carries the same class label. Mixing of stale points
  from drifted clusters lowers purity (and is precisely why the 1-NN
  accuracy of Figure 7/8 drops).
* **class separation** — mean between-class centroid distance divided by
  mean within-class scatter (a Fisher-style ratio). Drifting-apart clusters
  raise separation in a *fresh* sample; a stale sample smears each class
  along its drift trail, inflating within-class scatter.
* **staleness** — mean resident age divided by stream length: ~0.5 for an
  unbiased sample, ~``n/t`` scale for the biased one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.reservoir import ReservoirSampler

__all__ = [
    "ReservoirSnapshot",
    "snapshot",
    "neighborhood_label_purity",
    "class_separation",
]


@dataclass(frozen=True)
class ReservoirSnapshot:
    """Frozen view of a reservoir's contents with evolution metrics.

    Attributes
    ----------
    t:
        Stream position at snapshot time.
    values:
        Resident feature matrix (labeled residents only).
    labels:
        Resident class labels.
    ages:
        Resident ages ``t - r``.
    purity:
        Nearest-neighbor label purity (``nan`` for < 2 residents).
    separation:
        Fisher-style class separation (``nan`` with < 2 classes present).
    staleness:
        Mean age over ``t``.
    """

    t: int
    values: np.ndarray
    labels: np.ndarray
    ages: np.ndarray
    purity: float
    separation: float
    staleness: float

    def projection(self, dims: Sequence[int] = (0, 1)) -> np.ndarray:
        """2-D (or any) projection of the residents — Figure 9's axes."""
        return self.values[:, list(dims)]


def neighborhood_label_purity(values: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of points whose nearest neighbor shares their label."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    n = values.shape[0]
    if n < 2:
        return float("nan")
    # Full pairwise distances; reservoirs are small (~1000 points).
    diffs = values[:, None, :] - values[None, :, :]
    dists = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dists, np.inf)
    nearest = np.argmin(dists, axis=1)
    return float(np.mean(labels[nearest] == labels))


def class_separation(values: np.ndarray, labels: np.ndarray) -> float:
    """Mean inter-centroid distance over mean within-class RMS scatter."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        return float("nan")
    centroids = []
    scatters = []
    for c in classes:
        members = values[labels == c]
        centroid = members.mean(axis=0)
        centroids.append(centroid)
        scatters.append(
            float(np.sqrt(np.mean(np.sum((members - centroid) ** 2, axis=1))))
        )
    centroids = np.vstack(centroids)
    k = centroids.shape[0]
    inter = [
        float(np.linalg.norm(centroids[i] - centroids[j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    mean_scatter = float(np.mean(scatters))
    if mean_scatter == 0.0:
        return float("inf")
    return float(np.mean(inter)) / mean_scatter


def snapshot(sampler: ReservoirSampler) -> ReservoirSnapshot:
    """Capture a labeled reservoir's state and evolution metrics.

    Payloads must be :class:`~repro.streams.point.StreamPoint`; the
    snapshot reads the resident view and leaves out unlabeled residents
    (its ``None`` mask), and a reservoir with no labeled resident at all
    raises (the metrics would be vacuous).
    """
    t = sampler.t
    columns = sampler.resident_columns()
    labeled = ~columns.none
    if not labeled.any():
        raise ValueError("reservoir holds no labeled residents to snapshot")
    values = columns.values[labeled]
    labels_arr = columns.labels[labeled]
    ages_arr = t - columns.arrivals[labeled]
    return ReservoirSnapshot(
        t=t,
        values=values,
        labels=labels_arr,
        ages=ages_arr,
        purity=neighborhood_label_purity(values, labels_arr),
        separation=class_separation(values, labels_arr),
        staleness=float(ages_arr.mean() / t) if t else float("nan"),
    )
