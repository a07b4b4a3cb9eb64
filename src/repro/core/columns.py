"""Struct-of-arrays view of a reservoir's residents.

Query evaluation (:mod:`repro.queries`) and the mining readers
(:mod:`repro.mining`) are array-native: every estimate is a handful of
numpy reductions over the residents' feature values, labels (with their
``None`` mask), and arrival indices, and :class:`ResidentColumns` is the
only way they get resident rows. Materializing those contiguous columns
from a payload list costs one Python pass over the residents, so it must
not be paid *per query*: :class:`ResidentColumns` is that one materialization;
:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns` caches it
against a mutation key so every estimate between two reservoir mutations
reuses the same arrays. The array store
(:class:`~repro.core.reservoir.ReservoirSampler`, every family but the
chain sampler) keeps its point residents in full-capacity value, label,
``None``-mask and index columns that every insert writes (rows from a
:class:`~repro.streams.point.PointBlock` live there alone), so a new
view copies slices of them and reads no payload; residents the columns
cannot hold, and the chain sampler's, take one :func:`point_rows` pass
over their payloads per view.

The view requires :class:`~repro.streams.point.StreamPoint` payloads;
any other payload type makes :func:`build_resident_columns` raise
``AttributeError`` (the error reading ``payload.values`` would raise).
Count queries read only the arrival indices and need no view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.streams.point import StreamPoint

__all__ = [
    "ResidentColumns",
    "build_resident_columns",
    "frozen_columns",
    "point_rows",
]


@dataclass(frozen=True)
class ResidentColumns:
    """Contiguous columns over a reservoir's residents (storage order).

    Attributes
    ----------
    values:
        Feature matrix, shape ``(size, dimensions)``, float64, read-only.
    labels:
        Class labels, shape ``(size,)``, int64; an unlabeled row reads
        ``-1`` here, which :attr:`none` tells apart from a real ``-1``.
    none:
        Bool mask, shape ``(size,)``: ``True`` where the point's label is
        ``None``.
    arrivals:
        1-based arrival indices, shape ``(size,)``, int64.

    All four arrays are marked read-only: they are shared by every
    consumer of the cached view, so nobody may scribble on them. They are
    never the sampler's working storage, so a held view stays as it was
    when taken while the reservoir moves on.
    """

    values: np.ndarray
    labels: np.ndarray
    none: np.ndarray
    arrivals: np.ndarray

    @property
    def size(self) -> int:
        """Number of residents in the view."""
        return int(self.arrivals.shape[0])


def point_rows(
    payloads: Sequence[StreamPoint],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows ``(k, d)`` float64, labels ``(k,)`` int64 and the
    ``None``-label mask ``(k,)`` of points.

    ``payloads`` must be a non-empty sequence of :class:`StreamPoint`
    objects; an unlabeled point gets label ``-1`` and a set mask bit.
    """
    first = payloads[0]
    if not isinstance(first, StreamPoint):
        # The failure `payload.values` would raise on such a payload —
        # callers (and tests) catch AttributeError for wrong payloads.
        raise AttributeError(
            "resident columns require StreamPoint payloads, got "
            f"{type(first).__name__}"
        )
    values = np.array([p.values for p in payloads], dtype=np.float64)
    none = np.fromiter(
        (p.label is None for p in payloads),
        dtype=np.bool_,
        count=len(payloads),
    )
    labels = np.fromiter(
        (-1 if p.label is None else p.label for p in payloads),
        dtype=np.int64,
        count=len(payloads),
    )
    return values, labels, none


def frozen_columns(
    values: np.ndarray,
    labels: np.ndarray,
    none: np.ndarray,
    arrivals: np.ndarray,
) -> ResidentColumns:
    """Wrap arrays the caller owns as a read-only :class:`ResidentColumns`."""
    for column in (values, labels, none, arrivals):
        column.setflags(write=False)
    return ResidentColumns(
        values=values, labels=labels, none=none, arrivals=arrivals
    )


def build_resident_columns(
    payloads: List[StreamPoint], arrivals: np.ndarray
) -> ResidentColumns:
    """Materialize :class:`ResidentColumns` from parallel resident storage.

    ``payloads`` must be :class:`StreamPoint` objects; ``arrivals`` their
    1-based arrival indices (same order). Empty storage yields
    ``(0, 0)``-shaped values.
    """
    if payloads:
        values, labels, none = point_rows(payloads)
    else:
        values = np.empty((0, 0))
        labels = np.empty(0, dtype=np.int64)
        none = np.empty(0, dtype=np.bool_)
    return frozen_columns(
        values, labels, none, np.array(arrivals, dtype=np.int64)
    )
