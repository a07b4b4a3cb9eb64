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

Evaluation is columnar: estimates run over the sampler's cached
struct-of-arrays resident view
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`) and each
query's columnar ``h``, so a checkpoint that evaluates many queries pays
one view and no Python work per resident. The view needs
:class:`~repro.streams.point.StreamPoint` payloads; a count (``h = None``)
reads only the arrival indices, so it also runs over other payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.queries.spec import LinearQuery, RatioQuery

__all__ = ["QueryEstimator", "EstimateResult"]


@dataclass(frozen=True)
class EstimateResult:
    """An estimate plus its design-based uncertainty.

    Attributes
    ----------
    estimate:
        The HT (linear query) or Hajek (ratio query) estimate vector.
    variance:
        HT variance estimate per component (Lemma 4.1, estimated from the
        sample); ``None`` for ratio queries, whose design variance has no
        closed form at this level.
    sample_support:
        Number of residents with non-zero coefficient — the "relevant
        sample size" whose shrinkage for small horizons is the paper's
        core complaint about unbiased sampling.
    """

    estimate: np.ndarray
    variance: Optional[np.ndarray]
    sample_support: int

    @property
    def std_error(self) -> Optional[np.ndarray]:
        """Componentwise standard error, when variance is available."""
        if self.variance is None:
            return None
        return np.sqrt(np.maximum(self.variance, 0.0))


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

    def _sample_parts(self, query: LinearQuery, t: int):
        """Per-resident (c, h, p) restricted to the support ``c != 0``."""
        if query.h is None:
            columns = None
            arrivals = self.sampler.arrival_indices()
        else:
            columns = self.sampler.resident_columns()
            arrivals = columns.arrivals
        coeffs = query.coefficients(arrivals, t)
        support = np.flatnonzero(coeffs)
        if support.size == 0:
            return None
        arrivals = arrivals[support]
        values = query.values_matrix(
            None if columns is None else columns.values[support],
            None if columns is None else columns.labels[support],
            arrivals,
        )
        probs = self.sampler.inclusion_probabilities(arrivals, t)
        return coeffs[support], values, probs

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
        t = self.sampler.t if t is None else int(t)
        if t < self.sampler.t:
            # The reservoir holds its *current* state; its residents and
            # inclusion model cannot reconstruct a past sample.
            raise ValueError(
                f"cannot estimate as of t={t}: the reservoir has advanced "
                f"to t={self.sampler.t}. Evaluate at checkpoints while "
                "streaming instead."
            )
        if isinstance(query, RatioQuery):
            return self._estimate_ratio(query, t)
        parts = self._sample_parts(query, t)
        if parts is None:
            return EstimateResult(
                np.zeros(query.output_dim), np.zeros(query.output_dim), 0
            )
        coeffs, values, probs = parts
        weights = coeffs / probs
        estimate = weights @ values
        # HT variance estimator: sum (c h)^2 (1 - p) / p^2 over the sample.
        # Dividing the population term (c h)^2 (1 - p) / p by each sampled
        # point's own inclusion probability makes the sample sum unbiased
        # for Lemma 4.1's design variance.
        var_terms = (coeffs[:, None] * values) ** 2 * (
            (1.0 - probs) / probs**2
        )[:, None]
        variance = var_terms.sum(axis=0)
        return EstimateResult(estimate, variance, int(coeffs.size))

    def _estimate_ratio(self, query: RatioQuery, t: int) -> EstimateResult:
        """Self-normalized (Hajek) estimate of a ratio query."""
        num_parts = self._sample_parts(query.numerator, t)
        den_parts = self._sample_parts(query.denominator, t)
        if num_parts is None or den_parts is None:
            return EstimateResult(
                np.full(query.numerator.output_dim, np.nan), None, 0
            )
        n_coeffs, n_values, n_probs = num_parts
        d_coeffs, d_values, d_probs = den_parts
        numerator = (n_coeffs / n_probs) @ n_values
        denominator = (d_coeffs / d_probs) @ d_values
        support = int(d_coeffs.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimate = np.where(
                denominator != 0.0, numerator / denominator, np.nan
            )
        return EstimateResult(estimate, None, support)

    def relevant_sample_size(self, horizon: int, t: Optional[int] = None) -> int:
        """Residents inside the last-``horizon`` window.

        For an unbiased reservoir this is ~``n * horizon / t`` and shrinks
        as the stream grows; for the exponential reservoir it stays at
        ~``n (1 - e^{-lambda h})`` forever — the quantitative heart of the
        paper's argument.
        """
        t = self.sampler.t if t is None else int(t)
        ages = t - self.sampler.arrival_indices()
        return int(np.sum((ages >= 0) & (ages < horizon)))
