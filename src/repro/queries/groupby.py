"""GROUP BY estimation over reservoir samples — an extension.

The paper's queries aggregate over the whole horizon; real monitoring
dashboards slice by a key ("average packet size *per attack class* over
the last hour"). This module estimates per-group linear aggregates from a
reservoir in one pass over the residents, with the same Horvitz-Thompson /
Hajek machinery as :mod:`repro.queries.estimator`.

Groups are defined by a key function ``StreamPoint -> hashable`` (the
class label by default). Per-group results carry the group's relevant
support so callers can see which groups rest on thin evidence — rare
groups are exactly where the unbiased reservoir collapses first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.queries.spec import LinearQuery, RatioQuery
from repro.streams.point import StreamPoint

__all__ = ["GroupEstimate", "GroupByEstimator", "label_key"]


def label_key(point: StreamPoint) -> Hashable:
    """Default grouping key: the point's class label."""
    return point.label


@dataclass(frozen=True)
class GroupEstimate:
    """Estimate for one group.

    Attributes
    ----------
    key:
        The group key.
    estimate:
        HT estimate (linear query) or Hajek estimate (ratio query).
    support:
        Number of residents of this group inside the query horizon.
    weight_share:
        This group's share of the total HT mass inside the horizon — an
        estimate of the group's frequency among the queried population.
    """

    key: Hashable
    estimate: np.ndarray
    support: int
    weight_share: float


class GroupByEstimator:
    """Per-group query estimation over a reservoir.

    Parameters
    ----------
    sampler:
        Reservoir whose payloads are :class:`StreamPoint` objects.
    key:
        Grouping function; defaults to the class label.
    """

    def __init__(
        self,
        sampler: ReservoirSampler,
        key: Callable[[StreamPoint], Hashable] = label_key,
    ) -> None:
        self.sampler = sampler
        self.key = key

    def estimate(
        self,
        query: "LinearQuery | RatioQuery",
        t: Optional[int] = None,
        min_support: int = 1,
    ) -> Dict[Hashable, GroupEstimate]:
        """Estimate ``query`` separately for every group.

        Ratio queries are evaluated Hajek-style *within* each group (both
        numerator and denominator restricted to the group's residents).
        Groups with fewer than ``min_support`` relevant residents are
        omitted — their estimates would be the "null or wildly inaccurate
        result" the paper warns about.
        """
        t = self.sampler.t if t is None else int(t)
        if t < self.sampler.t:
            raise ValueError(
                f"cannot estimate as of t={t}: the reservoir has advanced "
                f"to t={self.sampler.t}"
            )
        if isinstance(query, RatioQuery):
            numerator, denominator = query.numerator, query.denominator
        else:
            numerator, denominator = query, None

        groups, total_weight = self._accumulate(numerator, denominator, t)
        if groups is None:
            return {}

        out: Dict[Hashable, GroupEstimate] = {}
        for key, bucket in groups.items():
            if bucket["support"] < min_support:
                continue
            if denominator is None:
                estimate = bucket["num"]
            else:
                den = bucket["den"]
                estimate = (
                    bucket["num"] / den
                    if den != 0.0
                    else np.full_like(bucket["num"], np.nan)
                )
            share = (
                bucket["weight"] / total_weight if total_weight else 0.0
            )
            out[key] = GroupEstimate(
                key=key,
                estimate=estimate,
                support=bucket["support"],
                weight_share=share,
            )
        return out

    def _accumulate(
        self,
        numerator: LinearQuery,
        denominator: Optional[LinearQuery],
        t: int,
    ):
        """Per-group HT totals in one pass over the columnar resident view.

        Per-resident HT weights and query values come from the queries'
        columnar ``h``; per-group totals are masked reductions. The
        default key groups by the label column (rows the ``None`` mask
        marks form the group ``None``, listed first, then the labels in
        ascending order); a custom key is
        applied to each supported resident's payload only to pick its
        group (groups in order of first appearance).
        """
        columns = self.sampler.resident_columns()
        if columns.size == 0:
            return None, 0.0
        coeffs = numerator.coefficients(columns.arrivals, t)
        support = np.flatnonzero(coeffs)
        if support.size == 0:
            return {}, 0.0
        arrivals = columns.arrivals[support]
        values = columns.values[support]
        labels = columns.labels[support]
        probs = self.sampler.inclusion_probabilities(arrivals, t)
        weights = coeffs[support] / probs
        num_rows = (
            numerator.values_matrix(values, labels, arrivals)
            * weights[:, None]
        )
        den_rows = None
        if denominator is not None:
            den_rows = (
                denominator.values_matrix(values, labels, arrivals)[:, 0]
                * weights
            )
        if self.key is label_key:
            # Unlabeled rows get their own code 0 (key None) from the
            # mask, so a real label -1 keeps its key.
            none = columns.none[support]
            uniques, inverse = np.unique(labels[~none], return_inverse=True)
            codes = np.zeros(len(support), dtype=np.int64)
            codes[~none] = inverse + 1
            keys = [None] + uniques.tolist()
        else:
            payloads = self.sampler.payloads()
            index: Dict[Hashable, int] = {}
            codes = np.array(
                [
                    index.setdefault(self.key(payloads[i]), len(index))
                    for i in support
                ]
            )
            keys = list(index)
        groups: Dict[Hashable, Dict[str, Any]] = {}
        for code, key in enumerate(keys):
            mask = codes == code
            if not mask.any():
                continue  # no unlabeled row
            groups[key] = {
                "num": num_rows[mask].sum(axis=0),
                "den": float(den_rows[mask].sum())
                if den_rows is not None
                else 0.0,
                "support": int(mask.sum()),
                "weight": float(weights[mask].sum()),
            }
        return groups, float(weights.sum())
