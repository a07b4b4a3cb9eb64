"""Built-in conformance specs: every sampler family vs its paper model.

Each spec pairs one sampler family (and one ingestion path) with the
closed-form model that :mod:`repro.core.theory` and the sampler's own
``survival_probability`` expose:

* Algorithm R / skip-optimized Algorithm X — Property 2.1 uniformity of
  resident arrival indices, plus an exact per-arrival binomial
  inclusion band.
* Algorithm 2.1 — Theorem 2.2 stationary age law. The *exact* per-step
  survival is ``(1 - 1/n)`` (the theorem's exponential is its large-n
  approximation), so the model pmf is truncated-geometric with
  ``q = 1 - 1/n``; the per-resident hazard is exactly ``1/n`` at every
  fill level because the eject coin ``F(t)`` and the uniform victim
  choice cancel (``F/size = 1/n``).
* Algorithm 3.1 — Theorem 3.1 with exact survival ``1 - p_in/n``, per
  item and through the block path; also
  the Theorem 3.2 fill-trajectory expectation (an exact linear
  recurrence, so the replicate-mean z-test is honest).
* Variable reservoir sampling — Theorem 3.3: hazard exactly ``lambda``
  in every phase, and phase thinnings are uniform, so the age law stays
  truncated-geometric with ``q = 1 - lambda``. The arrival of the
  ``k``-th phase transition follows the exact law of the (size, phase)
  Markov chain (:func:`~repro.core.theory.variable_phase_time_pmf`);
  the age law barely depends on when phases happen, so this pins the
  schedule itself.
* Timestamped hybrid — unit-spaced arrivals give per-step survival
  ``exp(-lam_time) * (1 - 1/n)`` (Poisson-mgf time factor times the
  deterministic-insertion replacement factor).
* Rate-adaptive time decay — verified in its sparse regime
  (``rho << n * lam_time``) where insertion never fills the reservoir
  and retention is pure wall-clock decay ``exp(-lam_time * age)``.
* Chain sampling — uniformity of the sample position over the window.
* Merge — thinning/union preserves the inputs' truncated-geometric age
  law (the Theorem 3.3 proportionality argument).
* Horvitz-Thompson estimation — the count estimator's exact expectation
  under the Algorithm 2.1 policy (including the documented Theorem 2.2
  approximation factor), as a replicate-mean z-test.

Batched (``offer_many``) variants re-run the age/uniformity checks
through the vectorized fast paths, so any future optimisation that
breaks the sampling distribution fails conformance here.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.core.biased import ExponentialReservoir
from repro.core.merge import merge_exponential_reservoirs
from repro.core.sliding_window import ChainSampler, WindowBuffer
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.theory import expected_fill_trajectory, variable_phase_time_pmf
from repro.core.time_proportional import TimeDecayReservoir
from repro.core.timestamped import TimestampedExponentialReservoir
from repro.core.unbiased import SkipUnbiasedReservoir, UnbiasedReservoir
from repro.core.variable import VariableReservoir
from repro.utils.rng import RngLike
from repro.verify.spec import (
    ConformanceSpec,
    FrequencyCheck,
    InclusionBandCheck,
    MeanBandCheck,
    select_specs,
)

__all__ = ["SPECS", "SAMPLER_FAMILIES", "get_spec", "all_spec_names", "specs_for"]

_BATCH = 256


# ---------------------------------------------------------------------- #
# Sampler family factories (shared with the adversarial invariant layer)
# ---------------------------------------------------------------------- #

SAMPLER_FAMILIES: Dict[str, Callable[[RngLike], object]] = {
    "unbiased": lambda rng: UnbiasedReservoir(20, rng=rng),
    "skip": lambda rng: SkipUnbiasedReservoir(20, rng=rng),
    "exponential": lambda rng: ExponentialReservoir(capacity=50, rng=rng),
    "space_constrained": lambda rng: SpaceConstrainedReservoir(
        capacity=50, p_in=0.4, rng=rng
    ),
    "variable": lambda rng: VariableReservoir(lam=1e-2, capacity=50, rng=rng),
    "timestamped": lambda rng: TimestampedExponentialReservoir(
        lam_time=0.01, capacity=50, rng=rng
    ),
    "time_decay": lambda rng: TimeDecayReservoir(
        lam_time=0.1, capacity=50, rng=rng
    ),
    "window_buffer": lambda rng: WindowBuffer(50, rng=rng),
    "chain": lambda rng: ChainSampler(4, window=25, rng=rng),
}


# ---------------------------------------------------------------------- #
# Model pmfs
# ---------------------------------------------------------------------- #

def _geometric_age_pmf(q: float, t: int) -> np.ndarray:
    """Truncated-geometric resident-age pmf ``P(age=a) ∝ q^a, a < t``."""
    ages = np.arange(t, dtype=np.float64)
    pmf = q**ages
    return pmf / pmf.sum()


def _uniform_pmf(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


# ---------------------------------------------------------------------- #
# Replicate procedures (module-level: workers resolve specs by name)
# ---------------------------------------------------------------------- #

def _feed(sampler, t: int, batched: bool) -> None:
    if batched:
        for start in range(0, t, _BATCH):
            sampler.offer_many(range(start, min(start + _BATCH, t)))
    else:
        sampler.extend(range(t))


def _uniform_arrivals(factory, t, batched):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        res = factory(rng)
        _feed(res, t, batched)
        return res.arrival_indices() - 1  # 0-based for the pmf support

    return replicate


def _ages(factory, t, batched):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        res = factory(rng)
        _feed(res, t, batched)
        return res.ages()

    return replicate


def _phase_time(factory, phase, horizon, batched):
    """Arrival of the ``phase``-th ``p_in`` reduction, capped at
    ``horizon`` (the model's last bin holds the tail)."""

    def replicate(rng: np.random.Generator) -> np.ndarray:
        res = factory(rng)
        while len(res.phase_history) <= phase:
            if batched:
                res.offer_many(range(res.t, res.t + _BATCH))
            else:
                res.offer(res.t)
        return np.array([min(res.phase_history[phase][0], horizon)])

    return replicate


def _inclusion_arrivals(factory, t):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        res = factory(rng)
        res.extend(range(t))
        return res.arrival_indices()

    return replicate


def _fill_size(factory, t):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        res = factory(rng)
        res.extend(range(t))
        return np.asarray([res.size], dtype=np.float64)

    return replicate


def _ht_count(capacity, t, horizon):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        from repro.queries.estimator import QueryEstimator
        from repro.queries.spec import count_query

        res = ExponentialReservoir(capacity=capacity, rng=rng)
        res.extend(range(t))
        est = QueryEstimator(res).estimate(count_query(horizon=horizon))
        return np.asarray([est.estimate[0]], dtype=np.float64)

    return replicate


def _merged_ages(lam, capacity, p_in, t):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        a = SpaceConstrainedReservoir(
            lam=lam, capacity=capacity, p_in=p_in, rng=rng
        )
        b = SpaceConstrainedReservoir(
            lam=lam, capacity=capacity, p_in=p_in, rng=rng
        )
        a.extend(range(t))
        b.extend(range(t))
        merged = merge_exponential_reservoirs(a, b, rng=rng)
        return merged.ages()

    return replicate


def _sharded_arrivals(capacity, workers, t, lam=None):
    """Fold arrivals of a sharded run; ``lam`` selects Algorithm 3.1."""

    def replicate(rng: np.random.Generator) -> np.ndarray:
        from repro.shard import ShardedReservoir

        fac = ShardedReservoir(
            capacity=capacity,
            workers=workers,
            lam=lam,
            family="exponential" if lam is None else "space_constrained",
            rng=rng,
        )
        for start in range(0, t, _BATCH):
            fac.offer_many(range(start, min(start + _BATCH, t)))
        # End-to-end: collapse the shards through the Theorem 3.3 fold
        # (a pure union at the facade's own capacity) before observing.
        return fac.fold().arrival_indices()

    return replicate


def _sharded_inclusion_model(capacity, workers, t, p_in=1.0):
    """Exact round-robin inclusion: ``p_in (1 - p_in/m)^floor((t - r)/W)``."""
    m = capacity // workers

    def probability(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.int64)
        p = p_in * (1.0 - p_in / m) ** ((t - r) // workers)
        # At p_in = 1 the newest arrival on each shard is
        # deterministically resident (p = 1 exactly); binom_interval needs p in (0, 1), and the
        # clamped band degenerates to {replicates}, which the
        # deterministic count always hits.
        return np.minimum(p, 1.0 - 1e-12)

    return probability


def _chain_window_positions(capacity, window, t):
    def replicate(rng: np.random.Generator) -> np.ndarray:
        cs = ChainSampler(capacity, window=window, rng=rng)
        cs.extend(range(t))
        return cs.t - cs.arrival_indices()  # position in window, 0-based

    return replicate


def _recovery_equivalence(t, capacity, workers):
    """Kill/recover a durable run at a random record boundary and compare.

    Each replicate draws a fresh sampler seed, batch split, checkpoint
    cadence, engine kind (serial Algorithm 2.1 vs the sharded facade),
    and crash position; runs the stream once uninterrupted and once
    through crash -> ``DurableReservoir.recover`` -> resume; and returns
    1.0 iff the two final ``state_dict()`` payloads (storage, counters,
    and RNG bit-generator state) are byte-identical under pickle.
    """

    def replicate(rng: np.random.Generator) -> np.ndarray:
        import pickle
        import tempfile
        from pathlib import Path

        from repro.persist import DurableReservoir

        seed = int(rng.integers(2**31))
        batch = int(rng.integers(8, 48))
        cadence = int(rng.integers(2, 9))
        sharded = bool(rng.integers(2))
        blocks = [
            list(range(lo, min(lo + batch, t))) for lo in range(0, t, batch)
        ]
        crash_at = int(rng.integers(1, len(blocks)))

        def make():
            if sharded:
                from repro.shard import ShardedReservoir

                return ShardedReservoir(
                    capacity=capacity, workers=workers, rng=seed
                )
            return ExponentialReservoir(capacity=capacity, rng=seed)

        reference = make()
        for block in blocks:
            reference.offer_many(block)

        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "journal"
            engine = DurableReservoir(
                make(),
                journal,
                wal_sync="never",
                checkpoint_every_records=cadence,
            )
            for block in blocks[:crash_at]:
                engine.offer_many(block)
            # Kill: no close(), no final checkpoint — the WAL tail is
            # all recovery has.
            del engine
            recovered = DurableReservoir.recover(journal, wal_sync="never")
            for block in blocks[crash_at:]:
                recovered.offer_many(block)
            identical = pickle.dumps(
                recovered.sampler.state_dict()
            ) == pickle.dumps(reference.state_dict())
            recovered.close(final_checkpoint=False)
        return np.asarray([1.0 if identical else 0.0])

    return replicate


def _exact_ht_count_expectation(n: int, horizon: int) -> float:
    """``sum_{a<h} (1 - 1/n)^a / exp(-a/n)``: exact survival over the
    Theorem 2.2 model the estimator divides by."""
    ages = np.arange(horizon, dtype=np.float64)
    return float(np.sum(((1.0 - 1.0 / n) * np.exp(1.0 / n)) ** ages))


# ---------------------------------------------------------------------- #
# The registry
# ---------------------------------------------------------------------- #

def _build_specs() -> Dict[str, ConformanceSpec]:
    specs: List[ConformanceSpec] = []

    # --- uniform families (Property 2.1) --------------------------------
    n_u, t_u = 20, 400
    for name, factory, batched in (
        ("unbiased-uniform", lambda rng: UnbiasedReservoir(n_u, rng=rng), False),
        (
            "unbiased-uniform-batched",
            lambda rng: UnbiasedReservoir(n_u, rng=rng),
            True,
        ),
        ("skip-uniform", lambda rng: SkipUnbiasedReservoir(n_u, rng=rng), False),
        (
            "skip-uniform-batched",
            lambda rng: SkipUnbiasedReservoir(n_u, rng=rng),
            True,
        ),
    ):
        specs.append(
            ConformanceSpec(
                name=name,
                family="skip" if "skip" in name else "unbiased",
                theory="Property 2.1",
                description=(
                    "resident arrival indices are uniform over [1, t] "
                    f"(n={n_u}, t={t_u})"
                ),
                replicate=_uniform_arrivals(factory, t_u, batched),
                check=FrequencyCheck(_uniform_pmf(t_u), alpha=1e-4),
                ingest="batched" if batched else "per-item",
            )
        )

    n_b, t_b = 10, 100
    specs.append(
        ConformanceSpec(
            name="unbiased-inclusion-band",
            family="unbiased",
            theory="Property 2.1",
            description=(
                "every arrival's inclusion count across replicates sits in "
                f"the exact Binomial(reps, n/t) band (n={n_b}, t={t_b})"
            ),
            replicate=_inclusion_arrivals(
                lambda rng: UnbiasedReservoir(n_b, rng=rng), t_b
            ),
            check=InclusionBandCheck(
                positions=t_b,
                probability=lambda r: np.full_like(
                    np.asarray(r, dtype=np.float64), n_b / t_b
                ),
                alpha=1e-4,
            ),
        )
    )

    # --- Algorithm 2.1 (Theorem 2.2) ------------------------------------
    n_e, t_e = 50, 2000
    q_e = 1.0 - 1.0 / n_e
    for name, batched in (
        ("exponential-age", False),
        ("exponential-age-batched", True),
    ):
        specs.append(
            ConformanceSpec(
                name=name,
                family="exponential",
                theory="Theorem 2.2",
                description=(
                    "resident ages follow the truncated-geometric law "
                    f"q=1-1/n (n={n_e}, t={t_e})"
                ),
                replicate=_ages(
                    lambda rng: ExponentialReservoir(capacity=n_e, rng=rng),
                    t_e,
                    batched,
                ),
                check=FrequencyCheck(_geometric_age_pmf(q_e, t_e), alpha=1e-4),
                ingest="batched" if batched else "per-item",
            )
        )

    h_ht = 200
    specs.append(
        ConformanceSpec(
            name="exponential-ht-count",
            family="exponential",
            theory="Theorem 2.2 + Horvitz-Thompson",
            description=(
                "HT horizon-count estimates match the exact expectation "
                f"(n={n_e}, t=1000, horizon={h_ht})"
            ),
            replicate=_ht_count(n_e, 1000, h_ht),
            check=MeanBandCheck(
                expected=_exact_ht_count_expectation(n_e, h_ht), alpha=1e-5
            ),
        )
    )

    # --- Algorithm 3.1 (Theorems 3.1 / 3.2) -----------------------------
    n_s, p_in_s, t_s = 50, 0.4, 3000
    specs.append(
        ConformanceSpec(
            name="space-constrained-age",
            family="space_constrained",
            theory="Theorem 3.1",
            description=(
                "resident ages follow the truncated-geometric law "
                f"q=1-p_in/n (n={n_s}, p_in={p_in_s}, t={t_s})"
            ),
            replicate=_ages(
                lambda rng: SpaceConstrainedReservoir(
                    capacity=n_s, p_in=p_in_s, rng=rng
                ),
                t_s,
                False,
            ),
            check=FrequencyCheck(
                _geometric_age_pmf(1.0 - p_in_s / n_s, t_s), alpha=1e-4
            ),
        )
    )
    specs.append(
        ConformanceSpec(
            name="space-constrained-age-batched",
            family="space_constrained",
            theory="Theorem 3.1",
            description=(
                "block-path resident ages (bulk gate coins, then the "
                "Algorithm 2.1 kernel) follow the truncated-geometric law "
                f"q=1-p_in/n (n={n_s}, p_in={p_in_s}, t={t_s})"
            ),
            replicate=_ages(
                lambda rng: SpaceConstrainedReservoir(
                    capacity=n_s, p_in=p_in_s, rng=rng
                ),
                t_s,
                True,
            ),
            check=FrequencyCheck(
                _geometric_age_pmf(1.0 - p_in_s / n_s, t_s), alpha=1e-4
            ),
            ingest="batched",
        )
    )

    n_f, p_in_f, t_f = 40, 0.5, 200
    specs.append(
        ConformanceSpec(
            name="space-constrained-fill",
            family="space_constrained",
            theory="Theorem 3.2",
            description=(
                "mean fill after t arrivals matches the exact trajectory "
                f"n(1-(1-p_in/n)^t) (n={n_f}, p_in={p_in_f}, t={t_f})"
            ),
            replicate=_fill_size(
                lambda rng: SpaceConstrainedReservoir(
                    capacity=n_f, p_in=p_in_f, rng=rng
                ),
                t_f,
            ),
            check=MeanBandCheck(
                expected=float(expected_fill_trajectory(n_f, p_in_f, t_f)),
                alpha=1e-5,
            ),
        )
    )

    # --- variable reservoir sampling (Theorem 3.3) ----------------------
    lam_v, n_v, t_v = 1e-2, 50, 3000
    specs.append(
        ConformanceSpec(
            name="variable-age",
            family="variable",
            theory="Theorem 3.3",
            description=(
                "resident ages stay truncated-geometric with q=1-lambda "
                f"across phase transitions (lam={lam_v}, n={n_v}, t={t_v})"
            ),
            replicate=_ages(
                lambda rng: VariableReservoir(lam=lam_v, capacity=n_v, rng=rng),
                t_v,
                False,
            ),
            check=FrequencyCheck(
                _geometric_age_pmf(1.0 - lam_v, t_v), alpha=1e-4
            ),
        )
    )
    # At t=120 the fill (which ends near t=70) and the phases both still
    # hold residents (mean p_in ~0.70), so these two see the startup
    # that the steady-state spec above does not.
    t_vs = 120
    for suffix, batched, path in (
        ("startup", False, "per-item"),
        ("batched", True, "block-path"),
    ):
        specs.append(
            ConformanceSpec(
                name=f"variable-age-{suffix}",
                family="variable",
                theory="Theorem 3.3",
                description=(
                    f"{path} resident ages inside the startup (fill and "
                    "phases) are truncated-geometric with q=1-lambda "
                    f"(lam={lam_v}, n={n_v}, t={t_vs})"
                ),
                replicate=_ages(
                    lambda rng: VariableReservoir(
                        lam=lam_v, capacity=n_v, rng=rng
                    ),
                    t_vs,
                    batched,
                ),
                check=FrequencyCheck(
                    _geometric_age_pmf(1.0 - lam_v, t_vs), alpha=1e-4
                ),
                ingest="batched" if batched else "per-item",
            )
        )

    # The arrival of the 10th phase transition (mean ~91: the fill ends
    # near 70, then nine phases of ~2-3 arrivals each). Shifting every
    # phase's append by one arrival moves it by 9, over one standard
    # deviation, while the age specs above barely move.
    k_vp, horizon_vp = 10, 300
    for suffix, batched, path in (
        ("", False, "per-item"),
        ("-batched", True, "block-path"),
    ):
        specs.append(
            ConformanceSpec(
                name=f"variable-phase-times{suffix}",
                family="variable",
                theory="Theorem 3.3 phase schedule",
                description=(
                    f"{path} arrival of the {k_vp}th p_in reduction follows "
                    "the exact law of the (size, phase) chain "
                    f"(lam={lam_v}, n={n_v})"
                ),
                replicate=_phase_time(
                    lambda rng: VariableReservoir(
                        lam=lam_v, capacity=n_v, rng=rng
                    ),
                    k_vp,
                    horizon_vp,
                    batched,
                ),
                check=FrequencyCheck(
                    variable_phase_time_pmf(
                        lam_v, n_v, k_vp, horizon_vp, 1.0 - 1.0 / n_v
                    ),
                    alpha=1e-4,
                ),
                ingest="batched" if batched else "per-item",
            )
        )

    # --- timestamped hybrid decay ---------------------------------------
    # The hybrid model (*) is exact in the two regimes its docstring
    # names; mid-regime the insertion-replacement hazard scales with the
    # (analytically open) stationary P(full), so conformance pins the
    # limits. Sparse: rho << n*lam, the reservoir never fills and decay
    # is pure wall-clock, q = exp(-lam). Dense: rho >> n*lam, memory
    # pressure dominates and the policy degrades to Algorithm 2.1,
    # q = exp(-lam)(1-1/n) with exp(-lam) ~ 1.
    lam_sp, n_sp, t_sp = 0.1, 50, 600
    specs.append(
        ConformanceSpec(
            name="timestamped-age-sparse",
            family="timestamped",
            theory="hybrid decay model (*), sparse regime",
            description=(
                "with rho << n*lam the reservoir never fills and ages are "
                f"pure-exponential q=exp(-lam) (lam={lam_sp}, n={n_sp}, "
                f"t={t_sp})"
            ),
            replicate=_ages(
                lambda rng: TimestampedExponentialReservoir(
                    lam_time=lam_sp, capacity=n_sp, rng=rng
                ),
                t_sp,
                False,
            ),
            check=FrequencyCheck(
                _geometric_age_pmf(float(np.exp(-lam_sp)), t_sp), alpha=1e-4
            ),
        )
    )
    lam_t, n_t, t_t = 1e-4, 50, 2000
    q_t = float(np.exp(-lam_t)) * (1.0 - 1.0 / n_t)
    for name, batched in (
        ("timestamped-age-dense", False),
        ("timestamped-age-dense-batched", True),
    ):
        specs.append(
            ConformanceSpec(
                name=name,
                family="timestamped",
                theory="hybrid decay model (*), dense regime",
                description=(
                    "with rho >> n*lam memory pressure dominates and ages "
                    f"follow Algorithm 2.1's law q=exp(-lam)(1-1/n) "
                    f"(lam={lam_t}, n={n_t}, t={t_t})"
                ),
                replicate=_ages(
                    lambda rng: TimestampedExponentialReservoir(
                        lam_time=lam_t, capacity=n_t, rng=rng
                    ),
                    t_t,
                    batched,
                ),
                check=FrequencyCheck(_geometric_age_pmf(q_t, t_t), alpha=1e-4),
                ingest="batched" if batched else "per-item",
            )
        )

    # --- rate-adaptive time decay (sparse regime) -----------------------
    lam_d, n_d, t_d = 0.1, 50, 600
    specs.append(
        ConformanceSpec(
            name="time-decay-age",
            family="time_decay",
            theory="pure wall-clock decay (sparse regime)",
            description=(
                "with rho << n*lam the reservoir never fills and ages are "
                f"pure-exponential q=exp(-lam) (lam={lam_d}, n={n_d}, t={t_d})"
            ),
            replicate=_ages(
                lambda rng: TimeDecayReservoir(
                    lam_time=lam_d, capacity=n_d, rng=rng
                ),
                t_d,
                False,
            ),
            check=FrequencyCheck(
                _geometric_age_pmf(float(np.exp(-lam_d)), t_d), alpha=1e-4
            ),
        )
    )

    # --- sliding-window chain sampling ----------------------------------
    k_c, w_c, t_c = 4, 25, 100
    specs.append(
        ConformanceSpec(
            name="chain-window-uniform",
            family="chain",
            theory="Babcock et al. chain sampling",
            description=(
                "each chain's sample is uniform over the window "
                f"(k={k_c}, W={w_c}, t={t_c})"
            ),
            replicate=_chain_window_positions(k_c, w_c, t_c),
            check=FrequencyCheck(_uniform_pmf(w_c), alpha=1e-4),
        )
    )

    # --- sharded ingestion (union of W shards == one global reservoir) --
    n_sh, w_sh, t_sh = 48, 4, 240
    m_sh = n_sh // w_sh
    specs.append(
        ConformanceSpec(
            name="sharded_exponential_inclusion",
            family="sharded",
            theory="Theorem 2.2 over round-robin shards + Theorem 3.3 fold",
            description=(
                "end-to-end sharded sample (round-robin over W workers, "
                "folded to one reservoir) keeps every arrival inside the "
                f"exact inclusion band (1-1/m)^floor((t-r)/W) "
                f"(n={n_sh}, W={w_sh}, m={m_sh}, t={t_sh})"
            ),
            replicate=_sharded_arrivals(n_sh, w_sh, t_sh),
            check=InclusionBandCheck(
                positions=t_sh,
                probability=_sharded_inclusion_model(n_sh, w_sh, t_sh),
                alpha=1e-4,
            ),
            ingest="batched",
        )
    )

    p_in_sh = 0.5
    specs.append(
        ConformanceSpec(
            name="sharded_space_constrained_inclusion",
            family="sharded",
            theory="Theorem 3.1 over round-robin shards + Theorem 3.3 fold",
            description=(
                "end-to-end sharded Algorithm 3.1 sample (gated shards, "
                "folded to one reservoir) keeps every arrival inside the "
                "exact inclusion band p_in(1-p_in/m)^floor((t-r)/W) "
                f"(n={n_sh}, W={w_sh}, m={m_sh}, p_in={p_in_sh}, t={t_sh})"
            ),
            replicate=_sharded_arrivals(
                n_sh, w_sh, t_sh, lam=p_in_sh / n_sh
            ),
            check=InclusionBandCheck(
                positions=t_sh,
                probability=_sharded_inclusion_model(
                    n_sh, w_sh, t_sh, p_in_sh
                ),
                alpha=1e-4,
            ),
            ingest="batched",
        )
    )

    # --- durable persistence (crash/recover byte-equivalence) -----------
    t_p, n_p, w_p = 400, 24, 4
    specs.append(
        ConformanceSpec(
            name="recovery_equivalence",
            family="persist",
            theory="WAL replay determinism (checkpoint + tail replay)",
            description=(
                "killing a durable run at a random record boundary, "
                "recovering, and resuming reaches a state_dict byte-"
                "identical to the uninterrupted run (serial and sharded; "
                f"t={t_p}, n={n_p}, W={w_p})"
            ),
            replicate=_recovery_equivalence(t_p, n_p, w_p),
            check=MeanBandCheck(expected=1.0, alpha=1e-5),
            default_replicates=40,
            test_replicates=12,
            ingest="batched",
        )
    )

    # --- merge (Theorem 3.3 proportionality) ----------------------------
    lam_m, n_m, p_in_m, t_m = 1e-2, 50, 0.5, 2000
    specs.append(
        ConformanceSpec(
            name="merge-age",
            family="merge",
            theory="Theorem 3.3 (uniform thinning)",
            description=(
                "merged-reservoir ages keep the inputs' truncated-geometric "
                f"law q=1-p_in/n (lam={lam_m}, n={n_m}, p_in={p_in_m})"
            ),
            replicate=_merged_ages(lam_m, n_m, p_in_m, t_m),
            check=FrequencyCheck(
                _geometric_age_pmf(1.0 - p_in_m / n_m, t_m), alpha=1e-4
            ),
        )
    )

    return {spec.name: spec for spec in specs}


SPECS: Dict[str, ConformanceSpec] = _build_specs()


def get_spec(name: str) -> ConformanceSpec:
    """Look up one spec by name."""
    try:
        return SPECS[name]
    except KeyError:
        known = ", ".join(sorted(SPECS))
        raise KeyError(f"unknown spec {name!r}; known specs: {known}") from None


def all_spec_names() -> List[str]:
    """Sorted names of every built-in spec."""
    return sorted(SPECS)


def specs_for(names) -> List[ConformanceSpec]:
    """Resolve a user selection against the built-in registry."""
    return select_specs(SPECS, list(names))
