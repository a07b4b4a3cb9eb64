"""Nearest-neighbor classification over a reservoir (Section 5.3).

The paper uses a 1-NN classifier as the archetypal sampling-dependent
mining task: comparing a test instance against every historical point is
impossible on a stream, so the comparison set *is* the reservoir. The
classifier therefore inherits the reservoir's bias — a stale (unbiased)
reservoir votes with outdated cluster positions, a biased one with the
current ones.

:class:`ReservoirKnnClassifier` wraps any sampler whose payloads are
labeled :class:`~repro.streams.point.StreamPoint` objects. Prediction is a
majority vote among the ``k`` nearest residents (``k = 1`` reproduces the
paper); distance is Euclidean, vectorized over the whole reservoir.

Performance note: prediction keeps a numpy *mirror* of the reservoir
contents, updated incrementally from the sampler's mutation log
(:attr:`~repro.core.reservoir.ReservoirSampler.last_ops`), so a prequential
pass costs one row write plus one vectorized distance computation per
point. Samplers without a mutation log fall back to re-snapshotting
whenever their contents change; a re-snapshot copies the sampler's
columnar resident view
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`), so it
reads no payload objects.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.streams.point import StreamPoint

__all__ = ["ReservoirKnnClassifier"]


class ReservoirKnnClassifier:
    """k-nearest-neighbor classifier backed by a reservoir sample.

    Parameters
    ----------
    sampler:
        The reservoir supplying the comparison set. Payloads must be
        :class:`StreamPoint`; unlabeled residents are ignored at
        prediction time.
    k:
        Number of neighbors in the vote (paper: 1).

    Notes
    -----
    For the incremental mirror to stay consistent, route all stream
    traffic through :meth:`observe` / :meth:`predict_then_observe` rather
    than offering to the sampler directly. Out-of-band sampler mutations
    are detected via the sampler's counters and trigger a full rebuild.
    """

    def __init__(self, sampler: ReservoirSampler, k: int = 1) -> None:
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.sampler = sampler
        self.k = k
        self._matrix: Optional[np.ndarray] = None  # capacity x d mirror
        self._labels: Optional[np.ndarray] = None
        self._labeled: Optional[np.ndarray] = None  # label is not None
        self._rows = 0
        self._synced_insertions = -1
        self._synced_ejections = -1

    # ------------------------------------------------------------------ #
    # Mirror maintenance
    # ------------------------------------------------------------------ #

    def _rebuild(self) -> None:
        """Full re-snapshot of the reservoir into the mirror, copied from
        the sampler's resident view (storage order, so mirror row ``i`` is
        storage slot ``i``)."""
        columns = self.sampler.resident_columns()
        self._rows = columns.size
        if self._rows == 0:
            self._matrix = None
        else:
            dim = columns.values.shape[1]
            if (
                self._matrix is None
                or self._matrix.shape[1] != dim
                or self._matrix.shape[0] < self.sampler.capacity
            ):
                self._allocate(max(self.sampler.capacity, self._rows), dim)
            self._matrix[: self._rows] = columns.values
            self._labels[: self._rows] = columns.labels
            self._labeled[: self._rows] = ~columns.none
        self._synced_insertions = self.sampler.insertions
        self._synced_ejections = self.sampler.ejections

    def _allocate(self, rows: int, dim: int) -> None:
        self._matrix = np.empty((rows, dim))
        self._labels = np.empty(rows, dtype=np.int64)
        self._labeled = np.empty(rows, dtype=np.bool_)

    def _write_row(self, slot: int, point: StreamPoint) -> None:
        if self._matrix is None:
            self._allocate(max(self.sampler.capacity, 1), point.dimensions)
        self._matrix[slot] = point.values
        # An unlabeled row reads -1, as in the resident view.
        self._labeled[slot] = point.label is not None
        self._labels[slot] = -1 if point.label is None else point.label

    def _apply_ops(self, point: StreamPoint) -> None:
        """Fold the mutations of offering ``point`` into the mirror.

        Every slot an offer logs holds the point it offered, so the mirror
        writes ``point`` itself and never reads sampler storage.
        """
        if not self.sampler.supports_mutation_log:
            self._rebuild()
            return
        ops = self.sampler.last_ops
        if any(op[0] == "compact" for op in ops):
            # Slots were removed and re-indexed; earlier per-slot records
            # from the same offer are stale. Re-snapshot wholesale.
            self._rebuild()
            return
        for kind, slot in ops:
            self._write_row(slot, point)
            if kind == "append":
                self._rows = max(self._rows, slot + 1)
        self._synced_insertions = self.sampler.insertions
        self._synced_ejections = self.sampler.ejections

    def _ensure_synced(self) -> None:
        """Detect out-of-band mutations (direct offers) and rebuild."""
        if (
            self._synced_insertions != self.sampler.insertions
            or self._synced_ejections != self.sampler.ejections
        ):
            self._rebuild()

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    def predict(self, point: StreamPoint) -> Optional[int]:
        """Predict the label of ``point``; ``None`` if no labeled resident.

        Ties in the k-NN vote break toward the closest neighbor whose
        label participates in the tie.
        """
        self._ensure_synced()
        if self._rows == 0 or self._matrix is None:
            return None
        matrix = self._matrix[: self._rows]
        labels = self._labels[: self._rows]
        labeled = self._labeled[: self._rows]
        if not np.any(labeled):
            return None
        diffs = matrix - point.values
        dists = np.einsum("ij,ij->i", diffs, diffs)
        dists = np.where(labeled, dists, np.inf)
        if self.k == 1:
            return int(labels[np.argmin(dists)])
        k = min(self.k, int(labeled.sum()))
        nearest = np.argpartition(dists, k - 1)[:k]
        nearest = nearest[np.argsort(dists[nearest])]
        votes = Counter(int(labels[i]) for i in nearest)
        best_count = max(votes.values())
        for i in nearest:  # first (closest) label among the top counts
            if votes[int(labels[i])] == best_count:
                return int(labels[i])
        return int(labels[nearest[0]])  # pragma: no cover - unreachable

    def observe(self, point: StreamPoint) -> bool:
        """Offer ``point`` to the backing reservoir (training step)."""
        self._ensure_synced()
        inserted = self.sampler.offer(point)
        self._apply_ops(point)
        return inserted

    def predict_then_observe(self, point: StreamPoint) -> Optional[int]:
        """One prequential step: classify first, then learn.

        This is exactly the paper's protocol: "for each incoming data
        point, we first used the reservoir in order to classify it before
        reading its true label and updating the accuracy statistics. Then,
        we use the sampling policy to decide whether or not it should be
        added to the reservoir."
        """
        prediction = self.predict(point)
        self.observe(point)
        return prediction
