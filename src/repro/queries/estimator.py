"""Sample-based query estimation (Section 4 of the paper).

Given a reservoir and the analytical inclusion probabilities ``p(r, t)`` of
its maintenance policy, any linear query ``G(t) = sum_r c_r h(X_r)`` is
estimated by the Horvitz-Thompson statistic over the residents,

    H(t) = sum_{r in sample} c_r h(X_r) / p(r, t)         (Equation 18)

which is unbiased: ``E[H(t)] = G(t)`` (Observation 4.1), with variance
``Var[H(t)] = sum_r c_r^2 h(X_r)^2 (1/p(r, t) - 1)`` (Lemma 4.1).

For *normalized* queries (averages, fractions — what the experiments
actually plot) we use the self-normalized (Hajek) ratio of two HT
estimates. It is only asymptotically unbiased but dramatically better
behaved: fraction estimates stay in ``[0, 1]`` and the unknown
proportionality constant of the inclusion model cancels, which is what
makes estimation with :class:`~repro.core.variable.VariableReservoir`
(whose constant is the current ``p_in``) robust.

Evaluation is columnar and shared across a query mix. Every query at
one checkpoint reads the same residents, the same ``t`` and the same
``p(r, t)``; only ``h`` and the horizon differ. So the estimator keeps
one record per horizon for the current sampler state: the support
``c != 0``, its arrivals, ``p``, the weights ``c / p``, the variance
factor ``(1 - p) / p^2`` and, filled only when a query with an ``h``
needs them, the support's rows of the sampler's cached struct-of-arrays
resident view
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`). A
query then pays its own ``h`` and one ``weights @ h``. Its variance sum
(``_ht_variance``) runs on the first read of
:attr:`EstimateResult.variance`, over the arrays the result keeps until
then, so a caller that reads only the estimate never pays for it. The
records are dropped whenever the sampler's stream position, its
resident-view key or the evaluation ``t`` changes. A count (``h = None``)
reads only the arrival indices, so it also runs over non-point payloads.

The record is the one place in :mod:`repro.queries` that turns residents
into HT weights: :class:`~repro.queries.groupby.GroupByEstimator` groups
its rows, and the histogram and quantile estimators read the record of a
horizon count (whose weights ``c / p`` are exactly ``1 / p``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.queries.spec import LinearQuery, RatioQuery, count_query

__all__ = ["QueryEstimator", "EstimateResult"]


def _ht_variance(
    coeffs: np.ndarray, var_factor: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The HT variance estimate per component over one support.

    The sample sum of ``(c h)^2 (1 - p) / p^2``: dividing Lemma 4.1's
    population term ``(c h)^2 (1 - p) / p`` by each sampled point's own
    inclusion probability makes the sum unbiased for its design
    variance. ``var_factor`` is the record's ``((1 - p) / p^2)[:, None]``
    and ``values`` the query's ``h`` over the support. This is the one
    place the estimator computes a variance.
    """
    return ((coeffs[:, None] * values) ** 2 * var_factor).sum(axis=0)


class EstimateResult:
    """An estimate plus its design-based uncertainty.

    Attributes
    ----------
    estimate:
        The HT (linear query) or Hajek (ratio query) estimate vector.
    variance:
        HT variance estimate per component (Lemma 4.1, estimated from the
        sample; ``_ht_variance``); ``None`` for ratio queries, whose
        design variance has no closed form at this level.
    sample_support:
        Number of residents with non-zero coefficient — the "relevant
        sample size" whose shrinkage for small horizons is the paper's
        core complaint about unbiased sampling.

    :meth:`QueryEstimator.estimate` computes a linear query's variance
    on the first read of :attr:`variance` (or :attr:`std_error`) and
    caches it, so a caller that reads only the estimate never pays for
    the sum. Until that read the result keeps a reference to its own
    ``h`` matrix and to its support record's ``c`` and variance-factor
    vectors, which outlive the record itself. A pickled or copied result
    carries the computed variance.
    """

    __slots__ = ("estimate", "sample_support", "_variance", "_deferred")

    def __init__(
        self,
        estimate: np.ndarray,
        variance: Optional[np.ndarray],
        sample_support: int,
    ) -> None:
        self.estimate = estimate
        self.sample_support = sample_support
        self._variance = variance
        self._deferred: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def variance(self) -> Optional[np.ndarray]:
        """The variance estimate, computed and cached on first read."""
        deferred = self._deferred
        if deferred is not None:
            self._variance = _ht_variance(*deferred)
            self._deferred = None
        return self._variance

    @property
    def std_error(self) -> Optional[np.ndarray]:
        """Componentwise standard error, when variance is available."""
        if self.variance is None:
            return None
        return np.sqrt(np.maximum(self.variance, 0.0))

    def __reduce__(self):
        return (
            type(self),
            (self.estimate, self.variance, self.sample_support),
        )

    def __repr__(self) -> str:
        return (
            f"EstimateResult(estimate={self.estimate!r}, "
            f"variance={self.variance!r}, "
            f"sample_support={self.sample_support!r})"
        )


@dataclass
class _Support:
    """What every query over one horizon shares at one sampler state."""

    positions: np.ndarray  # storage rows with c != 0
    arrivals: np.ndarray
    coeffs: np.ndarray
    weights: np.ndarray  # c / p
    var_factor: np.ndarray  # ((1 - p) / p^2)[:, None]
    # The support's value and label rows, and its ``None``-label mask,
    # each gathered on first need.
    values: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    none: Optional[np.ndarray] = None


class QueryEstimator:
    """Evaluates queries against a reservoir sample.

    Parameters
    ----------
    sampler:
        Any :class:`~repro.core.reservoir.ReservoirSampler` (or the
        sharded facade). Queries that read rows need
        :class:`StreamPoint` payloads; counts need only arrivals.
    """

    def __init__(self, sampler: ReservoirSampler) -> None:
        self.sampler = sampler
        self._key: Optional[tuple] = None
        self._arrivals: Optional[np.ndarray] = None
        self._supports: Dict[Optional[int], Optional[_Support]] = {}

    def _support(self, query: LinearQuery, t: int) -> Optional[_Support]:
        """The shared record of ``query``'s horizon at ``t``, or ``None``
        for an empty support.

        Keyed on the sampler's stream position, its resident-view key
        (which moves with every storage change) and ``t``: ``p`` can move
        with ``t`` alone (a rejected unbiased offer), so storage counters
        are not enough. One state is kept; a new key drops every record.
        ``c`` depends on the horizon only, so records are per horizon.
        """
        sampler = self.sampler
        key = (sampler.t, t, sampler._columns_key())
        if key != self._key:
            self._key = key
            self._arrivals = sampler.arrival_indices()
            self._supports = {}
        horizon = query.horizon
        if horizon in self._supports:
            return self._supports[horizon]
        coeffs = query.coefficients(self._arrivals, t)
        positions = np.flatnonzero(coeffs)
        record = None
        if positions.size:
            arrivals = self._arrivals[positions]
            coeffs = coeffs[positions]
            probs = sampler.inclusion_probabilities(arrivals, t)
            record = _Support(
                positions,
                arrivals,
                coeffs,
                coeffs / probs,
                ((1.0 - probs) / probs**2)[:, None],
            )
        self._supports[horizon] = record
        return record

    def _rows(self, support: _Support) -> _Support:
        """``support`` with its resident rows gathered (once per record)."""
        if support.values is None:
            columns = self.sampler.resident_columns()
            support.values = columns.values[support.positions]
            support.labels = columns.labels[support.positions]
        return support

    def _none(self, support: _Support) -> np.ndarray:
        """The support's ``None``-label mask (gathered once per record)."""
        if support.none is None:
            columns = self.sampler.resident_columns()
            support.none = columns.none[support.positions]
        return support.none

    def _values(self, query: LinearQuery, support: _Support) -> np.ndarray:
        """``h`` over the support's rows; a count reads no row."""
        if query.h is None:
            return query.values_matrix(None, None, support.arrivals)
        self._rows(support)
        return query.values_matrix(
            support.values, support.labels, support.arrivals
        )

    def _at(self, t: Optional[int]) -> int:
        """The evaluation ``t``: the sampler's position by default, and
        never before it."""
        t = self.sampler.t if t is None else int(t)
        if t < self.sampler.t:
            # The reservoir holds its *current* state; its residents and
            # inclusion model cannot reconstruct a past sample.
            raise ValueError(
                f"cannot estimate as of t={t}: the reservoir has advanced "
                f"to t={self.sampler.t}. Evaluate at checkpoints while "
                "streaming instead."
            )
        return t

    def estimate(
        self,
        query: Union[LinearQuery, RatioQuery],
        t: Optional[int] = None,
    ) -> EstimateResult:
        """Estimate ``query`` from the current reservoir contents.

        ``t`` defaults to the sampler's current stream position. Empty
        support (no resident inside the horizon) yields a zero estimate
        for linear queries and ``nan`` for ratio queries — the latter is
        the "null result" failure mode the paper attributes to unbiased
        samples at short horizons.
        """
        t = self._at(t)
        if isinstance(query, RatioQuery):
            return self._estimate_ratio(query, t)
        support = self._support(query, t)
        if support is None:
            return EstimateResult(
                np.zeros(query.output_dim), np.zeros(query.output_dim), 0
            )
        values = self._values(query, support)
        result = EstimateResult(
            support.weights @ values, None, int(support.coeffs.size)
        )
        # ``_ht_variance``'s arguments, evaluated on the first read.
        result._deferred = (support.coeffs, support.var_factor, values)
        return result

    def _estimate_ratio(self, query: RatioQuery, t: int) -> EstimateResult:
        """Self-normalized (Hajek) estimate of a ratio query; both parts
        share a horizon, so they read one record."""
        support = self._support(query.numerator, t)
        if support is None:
            return EstimateResult(
                np.full(query.numerator.output_dim, np.nan), None, 0
            )
        numerator = support.weights @ self._values(query.numerator, support)
        denominator = support.weights @ self._values(
            query.denominator, support
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = np.where(
                denominator != 0.0, numerator / denominator, np.nan
            )
        return EstimateResult(estimate, None, int(support.coeffs.size))

    def relevant_sample_size(self, horizon: int, t: Optional[int] = None) -> int:
        """Residents inside the last-``horizon`` window: the support of
        that horizon's record.

        For an unbiased reservoir this is ~``n * horizon / t`` and shrinks
        as the stream grows; for the exponential reservoir it stays at
        ~``n (1 - e^{-lambda h})`` forever — the quantitative heart of the
        paper's argument. ``horizon`` must be ``>= 1``, and ``t`` is
        checked and the inclusion law read as for :meth:`estimate`.
        """
        support = self._support(count_query(horizon), self._at(t))
        return 0 if support is None else int(support.coeffs.size)
