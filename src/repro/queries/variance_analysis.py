"""Section 4's variance argument, as executable analysis.

Lemma 4.1 gives the design variance of the HT estimator,
``Var[H(t)] = sum_r c_r^2 h^2 (1/p(r,t) - 1)``. The paper's qualitative
reading: the summand is dominated by ``1/p(r, t)``, which is huge for old
points — but for *recent-horizon* queries ``c_r`` is zero exactly where
``1/p`` explodes under the biased design, while the unbiased design pays
``t/n`` for every point in the horizon.

:func:`exact_variance` evaluates Lemma 4.1 over the whole stream for any
``c``, ``h`` and ``p`` (the inclusion laws themselves live in
:mod:`repro.core.theory` and on the samplers). The rest of this module
computes the predicted variance of a horizon-``h`` count query under each
sampling design (unit ``h``, so the numbers are comparable), so the
trade-off can be *plotted* rather than argued:

* unbiased: ``p = n/t`` for all points, so ``Var = h (t/n - 1)`` — grows
  linearly in the stream length at fixed horizon (the analytical form of
  Figure 6's degradation);
* exponential (Algorithm 2.1): ``p = e^{-a/n}`` at age ``a``, so
  ``Var = sum_{a<h} (e^{a/n} - 1)`` — independent of ``t``, finite for all
  ``h``, but growing *exponentially* in ``h/n`` (the analytical form of
  the large-horizon crossover in Figures 2-5);
* space-constrained (Algorithm 3.1): the same with
  ``p = p_in e^{-a p_in/n}``.

``crossover_horizon`` solves for the horizon where the two designs'
variances meet — the predicted location of the empirical crossover.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "exact_variance",
    "count_variance_unbiased",
    "count_variance_unbiased_exact",
    "count_variance_exponential",
    "count_variance_space_constrained",
    "crossover_horizon",
]


def exact_variance(
    coefficients: np.ndarray,
    h_values: np.ndarray,
    probabilities: np.ndarray,
) -> np.ndarray:
    """Lemma 4.1 evaluated over the *whole stream*.

    ``Var[H(t)] = sum_r c_r^2 h(X_r)^2 (1/p(r,t) - 1)``.

    Parameters
    ----------
    coefficients:
        ``c_r`` for every stream point, shape ``(t,)``.
    h_values:
        ``h(X_r)`` for every stream point, shape ``(t,)`` or ``(t, d)``.
    probabilities:
        ``p(r, t)`` for every stream point, shape ``(t,)``.

    Returns the per-component variance vector. This is the population
    quantity the paper analyzes (dominated by ``1/p`` for old points, but
    multiplied by ``c_r = 0`` outside the horizon — the cancellation that
    favors biased sampling for recent-horizon queries).
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    h_values = np.asarray(h_values, dtype=np.float64)
    if h_values.ndim == 1:
        h_values = h_values[:, None]
    if not (
        coefficients.shape[0]
        == probabilities.shape[0]
        == h_values.shape[0]
    ):
        raise ValueError("coefficients, h_values, probabilities must align")
    if np.any(coefficients[probabilities <= 0.0] != 0.0):
        raise ValueError(
            "zero inclusion probability with non-zero coefficient: "
            "the estimator is undefined for this design"
        )
    safe_p = np.where(probabilities > 0.0, probabilities, 1.0)
    terms = (coefficients[:, None] * h_values) ** 2 * (
        1.0 / safe_p - 1.0
    )[:, None]
    return terms.sum(axis=0)


def _validate(h: int, t: int) -> None:
    if not 1 <= h <= t:
        raise ValueError(f"require 1 <= h <= t, got h={h}, t={t}")


def count_variance_unbiased(n: int, h: int, t: int) -> float:
    """Lemma 4.1 for a horizon-``h`` count under Property 2.1's design.

    ``sum_{a<h} (1/(n/t) - 1) = h (t/n - 1)`` — linear in ``t``.
    """
    _validate(h, t)
    if n >= t:
        return 0.0  # everything is retained, estimator exact
    return h * (t / n - 1.0)


def count_variance_unbiased_exact(n: int, h: int, t: int) -> float:
    """Exact variance for Algorithm R's *fixed-size* sample.

    Lemma 4.1 assumes independent inclusions; a uniform fixed-size-``n``
    sample is hypergeometric, whose negative dependence shrinks the
    variance by the finite-population correction:

        Var = n (h/t)(1 - h/t) (t-n)/(t-1) * (t/n)^2

    For ``h << t`` this coincides with Lemma 4.1's ``h (t/n - 1)``; at
    large ``h/t`` the correction matters (the ``ablation_variance_
    prediction`` benchmark measures exactly this gap).
    """
    _validate(h, t)
    if n >= t or t == 1:
        return 0.0
    frac = h / t
    support_var = n * frac * (1.0 - frac) * (t - n) / (t - 1)
    return support_var * (t / n) ** 2


def count_variance_exponential(n: int, h: int, t: int) -> float:
    """Lemma 4.1 under Theorem 2.2's design: ``sum_{a<h} (e^{a/n} - 1)``.

    Geometric-series closed form; independent of the stream length ``t``
    (only the horizon and the reservoir size matter).
    """
    _validate(h, t)
    # sum_{a=0}^{h-1} e^{a/n} = (e^{h/n} - 1) / (e^{1/n} - 1)
    growth = math.expm1(h / n) / math.expm1(1.0 / n)
    return growth - h


def count_variance_space_constrained(
    n: int, p_in: float, h: int, t: int
) -> float:
    """Lemma 4.1 under Theorem 3.1's design:
    ``sum_{a<h} (e^{a p_in/n}/p_in - 1)``."""
    _validate(h, t)
    if not 0.0 < p_in <= 1.0:
        raise ValueError(f"p_in must lie in (0, 1], got {p_in}")
    lam = p_in / n
    growth = math.expm1(h * lam) / math.expm1(lam)
    return growth / p_in - h


def crossover_horizon(
    n: int,
    t: int,
    p_in: Optional[float] = None,
    max_horizon: Optional[int] = None,
) -> Optional[int]:
    """Smallest horizon where the biased design's predicted variance
    exceeds the unbiased design's.

    Below the crossover, biased sampling is the better design for the
    query; above it, unbiased wins — the analytical counterpart of the
    empirical crossovers in Figures 2-5. Returns ``None`` when no
    crossover occurs at or below ``max_horizon`` (default ``t``).
    """
    max_horizon = t if max_horizon is None else min(int(max_horizon), t)
    lo, hi = 1, max_horizon

    def biased(h: int) -> float:
        if p_in is None:
            return count_variance_exponential(n, h, t)
        return count_variance_space_constrained(n, p_in, h, t)

    if biased(hi) <= count_variance_unbiased(n, hi, t):
        return None
    if biased(lo) > count_variance_unbiased(n, lo, t):
        return lo
    # The variance ratio is monotone in h; bisect for the crossing.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if biased(mid) > count_variance_unbiased(n, mid, t):
            hi = mid
        else:
            lo = mid
    return hi


def variance_profile(
    n: int,
    t: int,
    horizons: np.ndarray,
    p_in: Optional[float] = None,
) -> np.ndarray:
    """Predicted (biased, unbiased) variance pairs over a horizon sweep.

    Returns an array of shape ``(len(horizons), 2)`` with columns
    ``[biased, unbiased]``.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    out = np.empty((horizons.size, 2))
    for i, h in enumerate(horizons):
        if p_in is None:
            out[i, 0] = count_variance_exponential(n, int(h), t)
        else:
            out[i, 0] = count_variance_space_constrained(
                n, p_in, int(h), t
            )
        out[i, 1] = count_variance_unbiased(n, int(h), t)
    return out
