"""Query specifications: the paper's linear queries and their ratios.

Section 4 frames every query as a linear functional of the stream,

    G(t) = sum_{i <= t} c_i * h(X_i)                       (Equation 17)

where ``h`` maps a point to a (possibly vector) value and ``c_i`` is a
per-point coefficient — typically the indicator of a *user-defined horizon*
(``c_r = 1`` iff ``t - r < h``). Count, sum, range-selectivity, and
class-distribution queries are all instances.

A query carries one ``h``, and it is columnar: it maps the residents'
value and label columns to one row of ``h`` per resident, so estimators
and the exact oracle evaluate it with numpy over whole columns. The
builders' kernels are small classes (:class:`SelectDims`,
:class:`InRange`, :class:`OneHotLabel`; a count has ``h = None``), and
:class:`~repro.queries.exact.StreamHistory` keys its O(dims) prefix
answers on the kernel's type, never on the query's name.

The experiments actually report *normalized* quantities (averages and
fractions), which are ratios of two linear queries; :class:`RatioQuery`
captures that so the estimator can apply self-normalized (Hájek) weighting,
which is what keeps fraction estimates inside ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "LinearQuery",
    "RatioQuery",
    "count_query",
    "sum_query",
    "average_query",
    "range_count_query",
    "range_selectivity_query",
    "class_count_query",
    "class_distribution_query",
    "SelectDims",
    "InRange",
    "OneHotLabel",
]


#: The columnar ``h``: resident columns ``(values (k, d) float64, labels
#: (k,) int64; an unlabeled row reads -1)`` to the ``(k, output_dim)``
#: matrix of ``h(X_r)``, one row per resident.
ColumnarH = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LinearQuery:
    """A linear query ``G(t) = sum_r c(r, t) * h(X_r)``.

    Attributes
    ----------
    name:
        Human-readable identifier (shows up in experiment output). Engines
        never read it: a query is what its :attr:`h` computes.
    h:
        The columnar ``h`` (see :data:`ColumnarH`): maps resident columns
        ``(values, labels)`` to the ``(k, output_dim)`` matrix whose row
        ``i`` is ``h`` of resident ``i``. ``None`` means ``h = 1`` (a
        count), which reads no resident row, so count queries evaluate
        from the arrival indices alone over any payload type.
    output_dim:
        Number of columns ``h`` returns. Scalar queries use 1.
    horizon:
        When set, restricts the query to the most recent ``horizon``
        arrivals: ``c(r, t) = 1`` iff ``t - r < horizon``. ``None`` means
        the whole stream (``c = 1``).
    """

    name: str
    h: Optional[ColumnarH]
    output_dim: int
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {self.output_dim}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def coefficients(self, r: np.ndarray, t: int) -> np.ndarray:
        """``c(r, t)`` per arrival: the horizon indicator (or 1 for the
        whole stream)."""
        r = np.asarray(r, dtype=np.int64)
        if self.horizon is None:
            return np.ones(r.shape)
        return ((t - r) < self.horizon).astype(np.float64)

    def values_matrix(
        self,
        values: Optional[np.ndarray],
        labels: Optional[np.ndarray],
        arrivals: np.ndarray,
    ) -> np.ndarray:
        """The ``(k, output_dim)`` matrix of ``h(X_r)`` over resident rows.

        ``arrivals`` gives the row count ``k``; a count query (``h`` is
        ``None``) reads nothing else and gets a ones column, so callers
        may pass ``None`` columns for it. Output is normalized to C
        order: column fancy-indexing (``values[:, dims]``) yields
        F-ordered arrays, and BLAS reductions associate differently over
        those, so estimates would depend on a kernel's memory layout.
        """
        if self.h is None:
            return np.ones((arrivals.shape[0], 1))
        return np.ascontiguousarray(
            np.asarray(self.h(values, labels), dtype=np.float64)
        )

    def with_horizon(self, horizon: Optional[int]) -> "LinearQuery":
        """Copy of this query with a different horizon."""
        return replace(self, horizon=horizon)


@dataclass(frozen=True)
class RatioQuery:
    """A normalized query ``numerator(t) / denominator(t)``.

    Both parts must share the same horizon so the normalization is over the
    same population; the constructor enforces this.
    """

    name: str
    numerator: LinearQuery
    denominator: LinearQuery

    def __post_init__(self) -> None:
        if self.numerator.horizon != self.denominator.horizon:
            raise ValueError(
                "numerator and denominator must share a horizon: "
                f"{self.numerator.horizon} != {self.denominator.horizon}"
            )

    @property
    def horizon(self) -> Optional[int]:
        return self.numerator.horizon

    def with_horizon(self, horizon: Optional[int]) -> "RatioQuery":
        """Copy of this query with a different horizon on both parts."""
        return RatioQuery(
            self.name,
            self.numerator.with_horizon(horizon),
            self.denominator.with_horizon(horizon),
        )


# --------------------------------------------------------------------- #
# Builders for the paper's query types
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class SelectDims:
    """``h(X) = X[dims]``, the kernel of :func:`sum_query`."""

    dims: list

    def __call__(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return values[:, self.dims]


@dataclass(frozen=True, eq=False)
class InRange:
    """``h(X) = 1`` iff ``low <= X[dims] <= high`` elementwise, else 0:
    the kernel of :func:`range_count_query`."""

    dims: list
    low: np.ndarray
    high: np.ndarray

    def __call__(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        sub = values[:, self.dims]
        inside = np.all((sub >= self.low) & (sub <= self.high), axis=1)
        return inside.astype(np.float64)[:, None]


@dataclass(frozen=True, eq=False)
class OneHotLabel:
    """``h(X) = onehot(label)`` over ``n_classes`` classes (all zeros for
    an unlabeled or out-of-range label): the kernel of
    :func:`class_count_query`."""

    n_classes: int

    def __call__(self, values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        out = np.zeros((labels.shape[0], self.n_classes))
        rows = np.flatnonzero((labels >= 0) & (labels < self.n_classes))
        out[rows, labels[rows]] = 1.0
        return out


def count_query(horizon: Optional[int] = None) -> LinearQuery:
    """COUNT over the horizon: ``h(X) = 1``."""
    return LinearQuery("count", None, 1, horizon)


def sum_query(horizon: Optional[int], dims: Sequence[int]) -> LinearQuery:
    """Per-dimension SUM over the horizon: ``h(X) = X[dims]``.

    ``dims`` is explicit (pass ``range(d)`` for all dimensions) so the
    query's ``output_dim`` is known without seeing a point.
    """
    dims = list(dims)
    if not dims:
        raise ValueError("dims must be non-empty")
    return LinearQuery("sum", SelectDims(dims), len(dims), horizon)


def average_query(horizon: Optional[int], dims: Sequence[int]) -> RatioQuery:
    """Per-dimension AVERAGE over the horizon (the paper's "sum query"
    experiments report the average of the points in the horizon).
    """
    return RatioQuery(
        "average", sum_query(horizon, dims), count_query(horizon)
    )


def range_count_query(
    horizon: Optional[int],
    dims: Sequence[int],
    low: Sequence[float],
    high: Sequence[float],
) -> LinearQuery:
    """COUNT of points whose selected dims all lie in ``[low, high]``."""
    dims = list(dims)
    low_arr = np.asarray(low, dtype=np.float64)
    high_arr = np.asarray(high, dtype=np.float64)
    if low_arr.shape != (len(dims),) or high_arr.shape != (len(dims),):
        raise ValueError("low/high must match the number of dims")
    if np.any(low_arr > high_arr):
        raise ValueError("low must be <= high elementwise")
    return LinearQuery(
        "range_count", InRange(dims, low_arr, high_arr), 1, horizon
    )


def range_selectivity_query(
    horizon: Optional[int],
    dims: Sequence[int],
    low: Sequence[float],
    high: Sequence[float],
) -> RatioQuery:
    """Fraction of horizon points inside the range (Figure 5's query)."""
    return RatioQuery(
        "range_selectivity",
        range_count_query(horizon, dims, low, high),
        count_query(horizon),
    )


def class_count_query(horizon: Optional[int], n_classes: int) -> LinearQuery:
    """Per-class COUNT over the horizon: ``h(X) = onehot(label)``."""
    n_classes = int(n_classes)
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    return LinearQuery(
        "class_count", OneHotLabel(n_classes), n_classes, horizon
    )


def class_distribution_query(
    horizon: Optional[int], n_classes: int
) -> RatioQuery:
    """Fractional class distribution over the horizon (Figure 4's query)."""
    return RatioQuery(
        "class_distribution",
        class_count_query(horizon, n_classes),
        count_query(horizon),
    )
