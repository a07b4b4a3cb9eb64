"""The unit of data flowing through every stream in this library.

:class:`StreamPoint` is one record. :class:`PointBlock` holds a block of
them as four arrays (arrival indices, labels, a ``None``-label mask and
a ``(b, d)`` feature matrix): the form the CSV reader parses, WAL
points records carry, and the samplers' array store keeps, so file
replay builds no Python object per row.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

__all__ = ["StreamPoint", "PointBlock"]

_INT64 = np.iinfo(np.int64)
_NONE = type(None)


@dataclass(frozen=True)
class StreamPoint:
    """One multi-dimensional stream record.

    Attributes
    ----------
    index:
        1-based arrival index — the paper's ``r``. In the paper's temporal
        model the arrival index *is* the timestamp; Section 5.2 notes the
        timestamp must be kept for horizon queries in both the biased and
        unbiased reservoirs, so it is a first-class field here.
    values:
        Feature vector (read-only float64 array).
    label:
        Optional class label (intrusion class / generating-cluster id);
        ``None`` for unlabeled streams.
    """

    index: int
    values: np.ndarray
    label: Optional[int] = None

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"index must be >= 1, got {self.index}")
        arr = np.asarray(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dimensions(self) -> int:
        """Number of features."""
        return int(self.values.shape[0])

    def distance_to(self, other: "StreamPoint") -> float:
        """Euclidean distance between the feature vectors."""
        return float(np.linalg.norm(self.values - other.values))

    def __repr__(self) -> str:
        head = np.array2string(self.values[:3], precision=3)
        return (
            f"StreamPoint(index={self.index}, label={self.label}, "
            f"values={head}{'...' if self.dimensions > 3 else ''})"
        )


def _box_rows(
    index: np.ndarray, label: np.ndarray, none: np.ndarray, values: np.ndarray
) -> List[StreamPoint]:
    """One :class:`StreamPoint` per row, of the types a constructor makes.

    Each point owns a read-only copy of its row, so it never pins the
    block's buffer. Points are filled the way the dataclass constructor
    fills them (same attribute order, so they pickle to the same bytes),
    without re-validating rows the block already checked.
    """
    labels = label.tolist()
    if none.any():
        for i in np.flatnonzero(none).tolist():
            labels[i] = None
    new = object.__new__
    out = []
    for i, row, lab in zip(index.tolist(), values, labels):
        row = row.copy()
        row.setflags(write=False)
        point = new(StreamPoint)
        slots = point.__dict__
        slots["index"] = i
        slots["values"] = row
        slots["label"] = lab
        out.append(point)
    return out


def _frozen(data: Any, dtype: type) -> np.ndarray:
    """``data`` as a read-only array of ``dtype`` (a view if it was
    writable, so the caller's own array keeps its flags)."""
    arr = np.asarray(data, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    return arr


class PointBlock:
    """A read-only block of ``b`` stream points held as arrays.

    Attributes
    ----------
    index:
        Arrival indices, int64 ``(b,)``, each ``>= 1``.
    label:
        Labels, int64 ``(b,)``; ``0`` in rows whose label is ``None``.
    none:
        Bool ``(b,)`` mask of the rows whose label is ``None`` (so ``-1``
        stays a legal label).
    values:
        Feature vectors, float64 ``(b, d)``.

    A block is also a ``Sequence[StreamPoint]``: ``len``, iteration and
    integer indexing box rows into :class:`StreamPoint` s, while slice,
    integer-array and mask indexing return a :class:`PointBlock`.
    """

    __slots__ = ("index", "label", "none", "values")

    def __init__(self, index: Any, label: Any, none: Any, values: Any) -> None:
        index = _frozen(index, np.int64)
        label = _frozen(label, np.int64)
        none = _frozen(none, np.bool_)
        values = _frozen(values, np.float64)
        b = index.shape[0] if index.ndim == 1 else -1
        if (
            b < 0
            or label.shape != (b,)
            or none.shape != (b,)
            or values.ndim != 2
            or values.shape[0] != b
        ):
            raise ValueError(
                f"block arrays disagree: index {index.shape}, label "
                f"{label.shape}, none {none.shape}, values {values.shape}"
            )
        if b and index.min() < 1:
            raise ValueError(f"index must be >= 1, got {int(index.min())}")
        if none.any() and label[none].any():
            label = _frozen(np.where(none, 0, label), np.int64)
        self._set(index, label, none, values)

    def _set(self, index, label, none, values) -> None:
        self.index = index
        self.label = label
        self.none = none
        self.values = values

    @classmethod
    def _of(cls, index, label, none, values) -> "PointBlock":
        """Wrap (and freeze) arrays cut from valid columns, unchecked."""
        for arr in (index, label, none, values):
            arr.setflags(write=False)
        block = object.__new__(cls)
        block._set(index, label, none, values)
        return block

    @staticmethod
    def row_of(point: Any) -> Optional[tuple]:
        """``(index, label, none, values)`` of one point, or ``None``.

        The one-point form of :meth:`from_points`, with the same rule:
        ``PointBlock.row_of(p) is None`` exactly when
        ``PointBlock.from_points([p]) is None``.
        """
        if type(point) is not StreamPoint or type(point.index) is not int:
            return None
        label = point.label
        if label is None:
            label, none = 0, True
        elif type(label) is int:
            none = False
        else:
            return None
        values = point.values
        if (
            values.ndim != 1
            or not _INT64.min <= label <= _INT64.max
            or point.index > _INT64.max
        ):
            return None
        return point.index, label, none, values

    @classmethod
    def from_points(cls, points: Any) -> Optional["PointBlock"]:
        """The block of ``points``, or ``None`` if they do not qualify.

        A sequence qualifies when it is non-empty and every item is
        exactly a :class:`StreamPoint` (no subclass) with an ``int``
        index, an ``int``-or-``None`` label within int64 and 1-D values
        of one shared dimensionality ``d``. Those are the points a block
        can give back with the same Python types and bits.
        """
        if isinstance(points, PointBlock):
            return points
        if isinstance(points, np.ndarray):
            points = points.tolist()  # lists iterate faster than object arrays
        if set(map(type, points)) != {StreamPoint}:
            return None
        index = [p.index for p in points]
        labels = [p.label for p in points]
        label_types = set(map(type, labels))
        if set(map(type, index)) != {int} or not label_types <= {int, _NONE}:
            return None
        try:
            values = np.array([p.values for p in points], dtype=np.float64)
        except ValueError:  # mixed dimensionality
            return None
        if values.ndim != 2:
            return None
        b = len(labels)
        if _NONE in label_types:
            none = np.fromiter(
                [label is None for label in labels], dtype=np.bool_, count=b
            )
            labels = [0 if label is None else label for label in labels]
        else:
            none = np.zeros(b, dtype=np.bool_)
        try:
            index_arr = np.fromiter(index, dtype=np.int64, count=b)
            label_arr = np.fromiter(labels, dtype=np.int64, count=b)
        except OverflowError:  # an int outside int64
            return None
        # StreamPoint already checked every index is >= 1.
        return cls._of(index_arr, label_arr, none, values)

    @property
    def dimensions(self) -> int:
        """Number of features per point."""
        return int(self.values.shape[1])

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
            i = operator.index(key)
            b = len(self.index)
            if not -b <= i < b:
                raise IndexError(f"row {i} out of range for {b} points")
            return _box_rows(
                self.index[i : i + 1 or None],
                self.label[i : i + 1 or None],
                self.none[i : i + 1 or None],
                self.values[i : i + 1 or None],
            )[0]
        if not isinstance(key, slice):
            key = np.asarray(key)
            if key.dtype != np.bool_:
                key = key.astype(np.intp, copy=False)
        return PointBlock._of(
            self.index[key], self.label[key], self.none[key], self.values[key]
        )

    def __iter__(self):
        return iter(self.points())

    def points(self) -> List[StreamPoint]:
        """Every row as a :class:`StreamPoint` owning its values."""
        return _box_rows(self.index, self.label, self.none, self.values)

    def __repr__(self) -> str:
        return f"PointBlock(n={len(self)}, d={self.values.shape[1]})"


# A sequence by registration: subclassing the ABC would route every
# isinstance(x, PointBlock) on the store's write path through ABCMeta.
Sequence.register(PointBlock)
