"""The full-scan kNN prediction the filter-then-verify kernel replaced.

``knn_predict`` is the body ``ReservoirKnnClassifier.predict`` had
before it ranked rows by the norm expansion: it subtracts the query from
the whole mirror, computes every exact squared distance with one
``einsum``, and picks the nearest with ``argmin`` (``k = 1``) or
``argpartition`` (``k > 1``). It reads the same mirror the kernel reads,
so :class:`OracleKnnClassifier` runs the old prediction over the new
mirror maintenance (in the old row-major layout).

The kernel must equal it bit for bit for ``k = 1``. For ``k > 1`` the two
differ only where exact distances tie among the nearest rows: this code
takes whatever order introselect gives there, the kernel the lowest slot.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.mining.knn import ReservoirKnnClassifier
from repro.streams.point import StreamPoint


def knn_predict(self, point: StreamPoint) -> Optional[int]:
    """``ReservoirKnnClassifier.predict`` as a full scan of the mirror."""
    self._ensure_synced()
    if self._rows == 0 or self._matrix is None:
        return None
    # The full scan ran on a row-major mirror, and einsum's summation
    # order follows the layout (a no-op for OracleKnnClassifier's).
    matrix = np.ascontiguousarray(self._matrix[: self._rows])
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


class OracleKnnClassifier(ReservoirKnnClassifier):
    """The classifier with the full-scan prediction, over a row-major
    mirror as before (so it pays no layout copy per prediction)."""

    predict = knn_predict

    def _allocate(self, rows: int, dim: int) -> None:
        super()._allocate(rows, dim)
        self._matrix = np.empty((rows, dim))
