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
(:attr:`~repro.core.reservoir.ReservoirSampler.last_ops`): one row write
per stored point, which also stores half the row's squared norm and
keeps the count of labeled rows. Samplers without a mutation log fall
back to re-snapshotting whenever their contents change; a re-snapshot
copies the sampler's columnar resident view
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`), so it
reads no payload objects.

A prediction filters, then verifies, and stays exact. It ranks every row
``r`` by ``|r|^2/2 - r.v``, half the squared distance to the query ``v``
less ``|v|^2/2``: one BLAS matrix-vector product over the mirror. The
candidates are the rows ranked within a rounding bound of the ``k``-th
smallest. Every other row is farther than ``k`` of them in the exact
arithmetic of a full scan (the derivation is in DESIGN.md, "Exact
filtered nearest neighbours"). With one candidate, that row is the
nearest. Otherwise the candidates' exact squared distances are
recomputed with the ``einsum`` a full scan uses, so only near ties pay
for it. A non-finite rank or bound makes every row a candidate.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.streams.point import StreamPoint

__all__ = ["ReservoirKnnClassifier"]

#: Machine epsilon and the smallest normal float64: the relative and the
#: absolute (underflow) part of the rounding bound in ``_candidates``.
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


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
        self._half_sq: Optional[np.ndarray] = None  # |row|^2 / 2
        self._labels: Optional[np.ndarray] = None
        self._labeled: Optional[np.ndarray] = None  # label is not None
        self._rows = 0
        self._labeled_rows = 0
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
        self._labeled_rows = self._rows - int(np.count_nonzero(columns.none))
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
            matrix = self._matrix[: self._rows]
            matrix[...] = columns.values
            self._half_sq[: self._rows] = 0.5 * np.einsum("ij,ij->i", matrix, matrix)
            self._labels[: self._rows] = columns.labels
            self._labeled[: self._rows] = ~columns.none
        self._synced_insertions = self.sampler.insertions
        self._synced_ejections = self.sampler.ejections

    def _allocate(self, rows: int, dim: int) -> None:
        # Column-major, so the ranking's matrix-vector product runs down
        # contiguous columns; a gathered block of rows is row-major.
        self._matrix = np.empty((rows, dim), order="F")
        self._half_sq = np.empty(rows)
        self._labels = np.empty(rows, dtype=np.int64)
        self._labeled = np.empty(rows, dtype=np.bool_)

    def _write_row(self, slot: int, point: StreamPoint) -> None:
        if self._matrix is None:
            self._allocate(max(self.sampler.capacity, 1), point.dimensions)
        values = point.values
        self._matrix[slot] = values
        self._half_sq[slot] = 0.5 * values.dot(values)
        labeled = point.label is not None
        if slot < self._rows and self._labeled[slot]:  # replaced
            self._labeled_rows -= 1
        if labeled:
            self._labeled_rows += 1
        # An unlabeled row reads -1, as in the resident view.
        self._labeled[slot] = labeled
        self._labels[slot] = point.label if labeled else -1

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

        The nearest rows are the exact ``k`` nearest labeled residents by
        squared Euclidean distance, ordered by (distance, storage slot).
        Ties in the k-NN vote break toward the closest neighbor whose
        label participates in the tie. For ``k = 1`` the prediction is
        the label at ``np.argmin`` of the full vector of exact distances.
        For ``k > 1`` it is the one the full scan gives, except where
        exact distances tie among the nearest rows: the full scan took
        whatever order introselect gave there, this takes the lowest
        slot.
        """
        self._ensure_synced()
        if self._labeled_rows == 0:  # also no rows, or no mirror yet
            return None
        k = min(self.k, self._labeled_rows)
        candidates = self._candidates(point.values, k)
        labels = self._labels[candidates]
        if len(candidates) == 1:  # no near tie: it is the nearest row
            return int(labels[0])
        dists = self._distances(candidates, point.values)
        if self.k == 1:
            return int(labels[dists.argmin()])
        nearest = labels[np.argsort(dists, kind="stable")[:k]].tolist()
        votes = Counter(nearest)
        best_count = max(votes.values())
        # first (closest) label among the top counts
        return next(label for label in nearest if votes[label] == best_count)

    def _candidates(self, values: np.ndarray, k: int) -> np.ndarray:
        """The slots, ascending, that can be among the exact ``k``
        nearest to ``values``; ``1 <= k <=`` the labeled row count.

        Every other row is farther, as :meth:`_distances` computes it,
        than ``k`` of these.
        """
        rows = self._rows
        matrix = self._matrix[:rows]
        half_sq = self._half_sq[:rows]
        labeled = self._labeled[:rows]
        # Rank by |r|^2/2 - r.v, half the squared distance less |v|^2/2:
        # one BLAS matrix-vector product and one subtraction.
        rank = matrix.dot(values)
        np.subtract(half_sq, rank, out=rank)
        if self._labeled_rows < rows:
            rank[~labeled] = np.inf
        if k == 1:  # argmin and a read beat the min reduction
            kth = rank[rank.argmin()]
        else:
            kth = np.partition(rank, k - 1)[k - 1]
        # The rounding bound (DESIGN.md): a row whose rank exceeds the
        # k-th by more than beta is farther, as computed, than the k rows
        # of smallest rank. span = 2(max|r| + |v|); a non-finite span or
        # rank makes the threshold inf or nan, which admits every row.
        span = 2.0 * (
            math.sqrt(2.0 * half_sq[half_sq.argmax()])
            + math.sqrt(values.dot(values))
        )
        beta = (matrix.shape[1] + 2) * (0.5 * _EPS * span * span + _TINY)
        return (~(rank > kth + beta)).nonzero()[0]

    def _distances(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Exact squared distances from ``values`` to the rows ``slots``
        (``inf`` on an unlabeled row), with the arithmetic of a full scan
        over a row-major mirror: a gathered block is row-major."""
        diffs = self._matrix[slots] - values
        dists = np.einsum("ij,ij->i", diffs, diffs)
        if self._labeled_rows < self._rows:
            dists[~self._labeled[slots]] = np.inf
        return dists

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
