"""Query estimation engine (Section 4): specs, oracle, estimators, errors.

Every estimator weights residents by the Horvitz-Thompson ``c / p`` of
:class:`QueryEstimator`'s per-horizon support record: GROUP BY groups
its rows, and histograms and quantiles read the record of a horizon
count. The inclusion laws ``p(r, t)`` are the samplers' own (and
:mod:`repro.core.theory`'s); :mod:`repro.queries.variance_analysis`
holds Lemma 4.1 and its closed forms.
"""

from repro.queries.errors import (
    average_absolute_error,
    nan_penalized_error,
    relative_error,
)
from repro.queries.estimator import EstimateResult, QueryEstimator
from repro.queries.exact import StreamHistory
from repro.queries.groupby import GroupByEstimator, GroupEstimate, label_key
from repro.queries.histogram import (
    HistogramEstimate,
    estimate_histogram,
    estimate_quantiles,
    exact_histogram,
    exact_quantiles,
)
from repro.queries.variance_analysis import (
    count_variance_exponential,
    count_variance_space_constrained,
    count_variance_unbiased,
    crossover_horizon,
    exact_variance,
)
from repro.queries.spec import (
    LinearQuery,
    RatioQuery,
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_count_query,
    range_selectivity_query,
    sum_query,
)

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
    "StreamHistory",
    "QueryEstimator",
    "EstimateResult",
    "GroupByEstimator",
    "GroupEstimate",
    "label_key",
    "HistogramEstimate",
    "estimate_histogram",
    "estimate_quantiles",
    "exact_histogram",
    "exact_quantiles",
    "average_absolute_error",
    "relative_error",
    "nan_penalized_error",
    "exact_variance",
    "count_variance_unbiased",
    "count_variance_exponential",
    "count_variance_space_constrained",
    "crossover_horizon",
]
