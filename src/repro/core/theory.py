"""Closed-form results from the paper, as executable functions.

These are the analytical companions to the samplers: tests check the
samplers against them, and the experiment harness overlays them on measured
curves.

Implemented results
-------------------
* ``max_reservoir_requirement`` — Theorem 2.1 for any bias function
  (delegates to :meth:`repro.core.bias.BiasFunction.max_reservoir_requirement`).
* ``expected_points_to_fill`` — Theorem 3.2: expected arrivals before a
  ``p_in``-gated reservoir of size ``n`` is completely full,
  ``(n / p_in) * H_n`` (exact harmonic form; the paper states the
  ``O(n log n / p_in)`` asymptotic).
* ``expected_points_to_fraction`` — Corollary 3.1: expected arrivals to
  reach fill fraction ``f``; linear in ``n`` for fixed ``f``.
* ``expected_fill_trajectory`` — the expected fill count after ``t``
  arrivals for Algorithm 3.1, ``n (1 - (1 - p_in/n)^t)`` (solution of the
  coupon-collector-style recurrence used in the Theorem 3.2 proof).
* ``expected_inclusion_*`` — the ``p(r, t)`` models of Property 2.1,
  Theorem 2.2, and Theorem 3.1, in vectorized form.
* ``variable_phase_time_pmf`` — the exact law of the arrival at which
  Theorem 3.3's variable reservoir makes its ``k``-th ``p_in``
  reduction, by dynamic programming over its (size, phase) Markov chain.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.core.bias import BiasFunction

__all__ = [
    "harmonic_number",
    "max_reservoir_requirement",
    "expected_points_to_fill",
    "expected_points_to_fraction",
    "expected_fill_trajectory",
    "expected_inclusion_unbiased",
    "expected_inclusion_exponential",
    "expected_inclusion_space_constrained",
    "variable_phase_time_pmf",
]

ArrayLike = Union[int, float, np.ndarray]


def harmonic_number(n: int) -> float:
    """``H_n = sum_{k=1..n} 1/k`` (exact for small n, asymptotic for large).

    The asymptotic expansion ``ln n + gamma + 1/(2n) - 1/(12 n^2)`` is used
    above ``n = 10^6`` where it is accurate to ~1e-14.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    if n <= 1_000_000:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def max_reservoir_requirement(bias: BiasFunction, t: int) -> float:
    """Theorem 2.1: maximum sample size supportable by ``bias`` at time ``t``."""
    return bias.max_reservoir_requirement(t)


def expected_points_to_fill(n: int, p_in: float = 1.0) -> float:
    """Theorem 3.2: expected arrivals before the reservoir is full.

    With ``q`` residents, the next slot fills with per-arrival probability
    ``p_in (n - q)/n``, so the total expectation is
    ``sum_{q=0..n-1} n / (p_in (n - q)) = (n / p_in) H_n``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < p_in <= 1.0:
        raise ValueError(f"p_in must lie in (0, 1], got {p_in}")
    return (n / p_in) * harmonic_number(n)


def expected_points_to_fraction(n: int, fraction: float, p_in: float = 1.0) -> float:
    """Corollary 3.1: expected arrivals to reach fill fraction ``fraction``.

    Truncating the Theorem 3.2 sum at ``m = ceil(fraction * n)`` slots gives
    ``(n / p_in) (H_n - H_{n-m})`` — linear in ``n`` for fixed fraction,
    which is why filling *almost* full is cheap and only the last few slots
    are slow.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    if not 0.0 < p_in <= 1.0:
        raise ValueError(f"p_in must lie in (0, 1], got {p_in}")
    m = math.ceil(fraction * n)
    return (n / p_in) * (harmonic_number(n) - harmonic_number(n - m))


def expected_fill_trajectory(n: int, p_in: float, t: ArrayLike) -> np.ndarray:
    """Expected resident count after ``t`` arrivals under Algorithm 3.1.

    The fill recurrence ``E[q_{t+1}] = E[q_t] + p_in (1 - E[q_t]/n)``
    solves to ``n (1 - (1 - p_in/n)^t)``. (For Algorithm 2.1 pass
    ``p_in = 1``.) Vectorized over ``t``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < p_in <= 1.0:
        raise ValueError(f"p_in must lie in (0, 1], got {p_in}")
    t_arr = np.asarray(t, dtype=np.float64)
    return n * (1.0 - (1.0 - p_in / n) ** t_arr)


def expected_inclusion_unbiased(n: int, r: ArrayLike, t: int) -> np.ndarray:
    """Property 2.1: ``p(r, t) = min(1, n/t)`` for every ``r <= t``."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 1) or np.any(r_arr > t):
        raise ValueError("require 1 <= r <= t")
    return np.full_like(r_arr, min(1.0, n / t))


def expected_inclusion_exponential(n: int, r: ArrayLike, t: int) -> np.ndarray:
    """Theorem 2.2: ``p(r, t) = exp(-(t - r)/n)``."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 1) or np.any(r_arr > t):
        raise ValueError("require 1 <= r <= t")
    return np.exp(-(t - r_arr) / n)


def expected_inclusion_space_constrained(
    n: int, p_in: float, r: ArrayLike, t: int
) -> np.ndarray:
    """Theorem 3.1: ``p(r, t) = p_in exp(-p_in (t - r)/n)``."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 1) or np.any(r_arr > t):
        raise ValueError("require 1 <= r <= t")
    return p_in * np.exp(-p_in * (t - r_arr) / n)


def variable_phase_time_pmf(
    lam: float, n: int, phase: int, horizon: int, q: float
) -> np.ndarray:
    """Exact law of ``T_k``, the arrival of the ``k``-th phase transition.

    :class:`~repro.core.variable.VariableReservoir` (``lambda = lam``,
    capacity ``n``, reduction factor ``q``) starts in phase 0 with
    ``p_0 = 1``. In phase ``j`` an arrival meeting ``s < n`` residents
    appends with probability ``p_j (1 - min(1, s lambda / p_j))`` and
    otherwise leaves the size alone; at ``s = n`` it never appends. Once
    an arrival leaves ``n`` residents and ``p_j`` is above the target
    ``min(1, n lambda)``, phase ``j + 1`` starts at that arrival with
    ``p_{j+1} = max(target, q p_j)`` and ``round(n (1 - p_{j+1}/p_j))``
    residents ejected. The same float operations as the sampler give
    the same schedule.

    Returns ``pmf`` over ``t = 0..horizon``: ``pmf[t] = P(T_k = t)`` for
    ``t < horizon`` and ``pmf[horizon] = P(T_k >= horizon)``, the law of
    ``min(T_k, horizon)``. Raises ``ValueError`` when the schedule ends
    (``p_in`` reaches its target) before phase ``k``.
    """
    n = int(n)
    phase = int(phase)
    if n < 1 or phase < 1 or horizon < 1:
        raise ValueError("need n >= 1, phase >= 1 and horizon >= 1")
    target = min(1.0, n * lam)
    p = [1.0]
    ejected = []
    while len(p) <= phase and p[-1] > target:
        nxt = max(target, q * p[-1])
        ejected.append(round(n * (1.0 - nxt / p[-1])))
        p.append(nxt)
    if len(p) <= phase:
        raise ValueError(
            f"p_in reaches its target after {len(p) - 1} phases, "
            f"before phase {phase}"
        )
    sizes = np.arange(n + 1)
    # append[j, s]: per-arrival append probability in phase j at size s.
    append = np.array(
        [pj * (1.0 - np.minimum(1.0, sizes / (pj / lam))) for pj in p[:phase]]
    )
    append[:, n] = 0.0
    mass = np.zeros((phase, n + 1))
    mass[0, 0] = 1.0
    pmf = np.zeros(horizon + 1)
    for t in range(1, horizon):
        moved = mass * append
        mass = mass - moved
        mass[:, 1:] += moved[:, :-1]
        full = mass[:, n].copy()
        mass[:, n] = 0.0
        for j in range(phase - 1):
            mass[j + 1, n - ejected[j]] += full[j]
        pmf[t] = full[phase - 1]
    pmf[horizon] = max(0.0, 1.0 - pmf.sum())
    return pmf
