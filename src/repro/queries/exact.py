"""Exact (ground-truth) query evaluation over the full stream history.

Experiments need the true value ``G(t)`` of each query to measure estimator
error. :class:`StreamHistory` retains every observed point in growing
columnar buffers (values matrix + labels + a dense arrival axis) and
answers any :class:`~repro.queries.spec.LinearQuery` or
:class:`~repro.queries.spec.RatioQuery` exactly.

Evaluation is *incremental*: ``observe`` maintains per-dimension prefix
sums and per-class arrival positions alongside the raw buffers, so the
``count`` / ``sum`` / ``class_count`` (and therefore ``average`` /
``class_distribution``) truth at any checkpoint costs O(dimensions)
instead of O(horizon). The prefix answers are keyed on the query's ``h``
kernel (:mod:`repro.queries.spec`), not on its name, so a custom query
always gets the sum of its own ``h``. The figure harness evaluates at
dozens of checkpoints over hundred-thousand-point streams; without the
prefix structures the oracle rescans its whole horizon every time and
dominates the run. ``range_count`` and custom queries are answered by
one columnar pass of their ``h`` over the horizon rows
(:meth:`StreamHistory.evaluate_scan` keeps that path addressable as the
reference the incremental answers are tested against).

This is the *evaluation oracle*, not part of the sampling system — it
deliberately spends the O(t) memory that reservoir sampling exists to
avoid.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.queries.spec import LinearQuery, OneHotLabel, RatioQuery, SelectDims
from repro.streams.point import StreamPoint

__all__ = ["StreamHistory"]


class StreamHistory:
    """Columnar full-history store with exact query evaluation.

    Parameters
    ----------
    dimensions:
        Feature dimensionality of the stream.
    capacity_hint:
        Initial buffer allocation (grows geometrically as needed).
    dtype:
        Storage dtype for feature values; ``float32`` halves memory for
        long streams at negligible precision cost for error measurement.
        Prefix sums always accumulate in float64.
    """

    def __init__(
        self,
        dimensions: int,
        capacity_hint: int = 4096,
        dtype: np.dtype = np.float64,
    ) -> None:
        dimensions = int(dimensions)
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        self.dimensions = dimensions
        cap = max(16, capacity_hint)
        self._values = np.empty((cap, dimensions), dtype=dtype)
        self._labels = np.empty(cap, dtype=np.int64)
        # Incremental structures: _prefix[i] holds the per-dimension sum of
        # the first i points (float64, row 0 is zero), and _label_positions
        # maps each label to the ascending 0-based row positions at which
        # it occurred (bisect gives any window's class count in O(log t)).
        self._prefix = np.zeros((cap + 1, dimensions), dtype=np.float64)
        self._label_positions: Dict[int, List[int]] = {}
        self.t = 0

    def observe(self, point: StreamPoint) -> None:
        """Append one point; ``point.index`` must be the next arrival."""
        if point.index != self.t + 1:
            raise ValueError(
                f"out-of-order observation: expected index {self.t + 1}, "
                f"got {point.index}"
            )
        if point.dimensions != self.dimensions:
            raise ValueError(
                f"dimension mismatch: expected {self.dimensions}, "
                f"got {point.dimensions}"
            )
        if self.t >= self._values.shape[0]:
            self._grow()
        self._values[self.t] = point.values
        self._labels[self.t] = -1 if point.label is None else point.label
        np.add(
            self._prefix[self.t],
            point.values,
            out=self._prefix[self.t + 1],
        )
        if point.label is not None:
            self._label_positions.setdefault(int(point.label), []).append(
                self.t
            )
        self.t += 1

    def observe_all(self, stream: Iterable[StreamPoint]) -> int:
        """Observe every point of ``stream``; return the count."""
        before = self.t
        for point in stream:
            self.observe(point)
        return self.t - before

    def _grow(self) -> None:
        new_cap = self._values.shape[0] * 2
        values = np.empty((new_cap, self.dimensions), dtype=self._values.dtype)
        labels = np.empty(new_cap, dtype=np.int64)
        prefix = np.zeros((new_cap + 1, self.dimensions), dtype=np.float64)
        values[: self.t] = self._values[: self.t]
        labels[: self.t] = self._labels[: self.t]
        prefix[: self.t + 1] = self._prefix[: self.t + 1]
        self._values = values
        self._labels = labels
        self._prefix = prefix

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def values(self) -> np.ndarray:
        """All observed feature vectors, shape ``(t, dimensions)`` (view)."""
        return self._values[: self.t]

    def labels(self) -> np.ndarray:
        """All observed labels (``-1`` where unlabeled) (view)."""
        return self._labels[: self.t]

    def horizon_bounds(self, horizon: Optional[int], t: Optional[int] = None):
        """Row range ``[start, stop)`` covering the query horizon at ``t``."""
        t = self.t if t is None else int(t)
        if not 0 <= t <= self.t:
            raise ValueError(f"t must lie in [0, {self.t}], got {t}")
        if horizon is None:
            return 0, t
        return max(0, t - horizon), t

    # ------------------------------------------------------------------ #
    # Exact evaluation
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        query: Union[LinearQuery, RatioQuery],
        t: Optional[int] = None,
    ) -> np.ndarray:
        """Exact value of ``query`` at stream position ``t``.

        Linear queries return the raw vector ``G(t)``; ratio queries return
        the normalized vector (``nan`` components when the denominator is
        zero, i.e. an empty horizon). Count, :class:`SelectDims` and
        :class:`OneHotLabel` queries are answered from the incremental
        prefix structures in O(dimensions); every other ``h`` is summed
        over the horizon rows.
        """
        if isinstance(query, RatioQuery):
            num = self.evaluate(query.numerator, t)
            den = self.evaluate(query.denominator, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(den != 0.0, num / den, np.nan)
        start, stop = self.horizon_bounds(query.horizon, t)
        if stop <= start:
            return np.zeros(query.output_dim)
        answer = self._evaluate_incremental(query, start, stop)
        if answer is not None:
            return answer
        return self._evaluate_linear_scan(query, start, stop)

    def evaluate_scan(
        self,
        query: Union[LinearQuery, RatioQuery],
        t: Optional[int] = None,
    ) -> np.ndarray:
        """Exact value of ``query`` via the horizon scan, always.

        Reference path for the incremental answers: identical semantics to
        :meth:`evaluate`, but every linear query rescans its ``[start,
        stop)`` rows. Incremental prefix *sums* may differ from a fresh
        scan in the last float64 bits (different association order);
        counts and class counts agree exactly.
        """
        if isinstance(query, RatioQuery):
            num = self.evaluate_scan(query.numerator, t)
            den = self.evaluate_scan(query.denominator, t)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(den != 0.0, num / den, np.nan)
        start, stop = self.horizon_bounds(query.horizon, t)
        if stop <= start:
            return np.zeros(query.output_dim)
        return self._evaluate_linear_scan(query, start, stop)

    def _evaluate_incremental(
        self, query: LinearQuery, start: int, stop: int
    ) -> Optional[np.ndarray]:
        """O(dims) answers from the prefix structures.

        Keyed on the query's own kernel, so the answer is always the sum
        of that ``h``: a count (``h is None``), :class:`SelectDims` and
        :class:`OneHotLabel`. Returns ``None`` for every other ``h`` (the
        caller falls back to the scan).
        """
        h = query.h
        if h is None:
            return np.array([float(stop - start)])
        if type(h) is SelectDims:
            return (self._prefix[stop] - self._prefix[start])[h.dims]
        if type(h) is OneHotLabel:
            counts = np.zeros(h.n_classes)
            for label in range(h.n_classes):
                positions = self._label_positions.get(label)
                if positions:
                    counts[label] = bisect_left(positions, stop) - bisect_left(
                        positions, start
                    )
            return counts
        return None

    def _evaluate_linear_scan(
        self, query: LinearQuery, start: int, stop: int
    ) -> np.ndarray:
        """Sum of the query's own ``h`` over rows ``[start, stop)``."""
        if query.h is None:
            return np.array([float(stop - start)])
        rows = query.h(
            self._values[start:stop].astype(np.float64, copy=False),
            self._labels[start:stop],
        )
        return np.asarray(rows, dtype=np.float64).sum(axis=0)
