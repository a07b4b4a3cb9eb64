"""Cluster tracking over a reservoir — the paper's clustering application.

Section 4 argues that the chief advantage of sampling over direct
stream-mining is that any *multi-pass black-box* algorithm can run on the
small sample — clustering being the canonical case (the paper cites its
own biased micro-clustering work [1] as the thing a biased sample can
emulate). This module operationalizes that: re-run k-means over the
reservoir at checkpoints, warm-starting each run from the previous
centers so cluster identities persist, and record the trajectory.

On an evolving stream, tracking over a *biased* reservoir follows the
moving clusters; over an unbiased one the recovered centers lag toward the
historical average — the clustering analogue of Figures 7-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.mining.kmeans import KMeansResult, kmeans
from repro.streams.point import StreamPoint
from repro.utils.rng import RngLike, as_generator

__all__ = ["ClusterCheckpoint", "ClusterTracker"]


@dataclass(frozen=True)
class ClusterCheckpoint:
    """State of the tracked clustering at one stream position.

    Attributes
    ----------
    t:
        Stream position.
    centers:
        k x d cluster centers (identities consistent across checkpoints
        thanks to warm starts).
    inertia:
        k-means objective on the reservoir snapshot.
    movement:
        Total center displacement since the previous checkpoint (0.0 for
        the first) — the tracker's drift signal.
    sample_size:
        Residents clustered.
    """

    t: int
    centers: np.ndarray
    inertia: float
    movement: float
    sample_size: int


class ClusterTracker:
    """Periodic warm-started k-means over a reservoir.

    Parameters
    ----------
    sampler:
        Reservoir with :class:`StreamPoint` payloads.
    k:
        Number of clusters to track.
    every:
        Re-cluster after this many offered points.
    rng:
        Seed or generator (used for k-means++ on the first fit only).
    """

    def __init__(
        self,
        sampler: ReservoirSampler,
        k: int,
        every: int = 5_000,
        rng: RngLike = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.sampler = sampler
        self.k = int(k)
        self.every = int(every)
        self.rng = as_generator(rng)
        self.checkpoints: List[ClusterCheckpoint] = []
        self._since_fit = 0
        self._centers: Optional[np.ndarray] = None

    def _reservoir_matrix(self) -> Optional[np.ndarray]:
        columns = self.sampler.resident_columns()
        return columns.values if columns.size >= self.k else None

    def _fit(self) -> Optional[KMeansResult]:
        data = self._reservoir_matrix()
        if data is None:
            return None
        return kmeans(
            data,
            self.k,
            rng=self.rng,
            init_centers=self._centers,
        )

    def offer(self, point: StreamPoint) -> Optional[ClusterCheckpoint]:
        """Feed one point; returns a checkpoint when a re-fit happened."""
        self.sampler.offer(point)
        self._since_fit += 1
        if self._since_fit < self.every:
            return None
        self._since_fit = 0
        result = self._fit()
        if result is None:
            return None
        movement = (
            float(np.linalg.norm(result.centers - self._centers))
            if self._centers is not None
            else 0.0
        )
        self._centers = result.centers
        checkpoint = ClusterCheckpoint(
            t=self.sampler.t,
            centers=result.centers,
            inertia=result.inertia,
            movement=movement,
            sample_size=result.assignments.shape[0],
        )
        self.checkpoints.append(checkpoint)
        return checkpoint

    def track(self, stream: Iterable[StreamPoint]) -> List[ClusterCheckpoint]:
        """Consume a whole stream; returns the checkpoint trajectory."""
        for point in stream:
            self.offer(point)
        return self.checkpoints

    def center_trajectory(self) -> np.ndarray:
        """Stacked centers over checkpoints, shape (n_checkpoints, k, d)."""
        if not self.checkpoints:
            return np.empty((0, self.k, 0))
        return np.stack([c.centers for c in self.checkpoints])

    def tracking_error(self, true_centers: np.ndarray) -> float:
        """Mean distance from each tracked center to its nearest true
        center at the latest checkpoint (a lag measure for tests)."""
        if not self.checkpoints:
            raise ValueError("no checkpoints yet")
        centers = self.checkpoints[-1].centers
        true_centers = np.asarray(true_centers, dtype=np.float64)
        dists = np.linalg.norm(
            centers[:, None, :] - true_centers[None, :, :], axis=2
        )
        return float(dists.min(axis=1).mean())
