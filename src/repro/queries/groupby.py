"""GROUP BY estimation over reservoir samples — an extension.

The paper's queries aggregate over the whole horizon; real monitoring
dashboards slice by a key ("average packet size *per attack class* over
the last hour"). This module estimates per-group linear aggregates from a
reservoir with the same Horvitz-Thompson / Hajek machinery as
:mod:`repro.queries.estimator`: it reads that estimator's per-horizon
support record (positions, weights ``c / p`` and resident rows) and only
adds the grouping.

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
from repro.queries.estimator import QueryEstimator
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
        Any reservoir. The label key and queries with an ``h`` read
        :class:`StreamPoint` rows; a count under a custom key reads only
        the arrivals and the key of each supported payload.
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
        self._estimator = QueryEstimator(sampler)

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
        t = self._estimator._at(t)
        if isinstance(query, RatioQuery):
            numerator, denominator = query.numerator, query.denominator
        else:
            numerator, denominator = query, None

        groups, total_weight = self._accumulate(numerator, denominator, t)
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
        """Per-group HT totals over the estimator's record of the horizon.

        The record gives the support's positions, weights and rows; the
        per-group totals are masked reductions. The default key groups by
        the label column (rows the ``None`` mask marks form the group
        ``None``, listed first, then the labels in ascending order); a
        custom key is applied to each supported resident's payload only
        to pick its group (groups in order of first appearance); only the
        supported payloads are boxed.
        """
        estimator = self._estimator
        support = estimator._support(numerator, t)
        if support is None:
            return {}, 0.0
        weights = support.weights
        num_rows = estimator._values(numerator, support) * weights[:, None]
        den_rows = None
        if denominator is not None:
            den_rows = estimator._values(denominator, support)[:, 0] * weights
        if self.key is label_key:
            # Unlabeled rows get their own code 0 (key None) from the
            # mask, so a real label -1 keeps its key.
            labels = estimator._rows(support).labels
            none = estimator._none(support)
            uniques, inverse = np.unique(labels[~none], return_inverse=True)
            codes = np.zeros(none.size, dtype=np.int64)
            codes[~none] = inverse + 1
            keys = [None] + uniques.tolist()
        else:
            index: Dict[Hashable, int] = {}
            codes = np.array(
                [
                    index.setdefault(self.key(payload), len(index))
                    for payload in self.sampler._payloads_at(support.positions)
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
