"""One estimator across a stream: the shared per-horizon record.

:class:`~repro.queries.estimator.QueryEstimator` computes the support,
``p(r, t)``, the weights and the variance factor once per sampler state
and horizon, and every query of a mix reads them. These tests reuse one
estimator while the sampler moves on, through every way a sampler can
move, and require each result to be bitwise equal both to a fresh
estimator's and to the per-point oracle in ``tests/query_oracle.py``.
"""

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
    VariableReservoir,
)
from repro.queries import QueryEstimator
from repro.queries.spec import (
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_count_query,
    range_selectivity_query,
    sum_query,
)
from repro.shard import ShardedReservoir
from repro.streams.point import PointBlock
from tests.conftest import make_points
from tests.query_oracle import oracle_estimate

DIMS = 4
N_CLASSES = 3
HORIZONS = (40, 150)


def make_stream(n, seed):
    rng = np.random.default_rng(seed)
    return make_points(
        rng.normal(size=(n, DIMS)), rng.integers(0, N_CLASSES, size=n)
    )


def checkpoint_mix(horizons=HORIZONS):
    """Five queries per horizon, as in the end-to-end benchmark's mix."""
    mix = []
    for h in horizons:
        mix += [
            count_query(h),
            sum_query(h, range(DIMS)),
            average_query(h, range(DIMS)),
            range_count_query(h, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
            class_count_query(h, N_CLASSES),
        ]
    return mix


FULL_MIX = checkpoint_mix(HORIZONS + (None,)) + [
    range_selectivity_query(HORIZONS[0], (0, 1), (-0.5, -0.5), (0.5, 0.5)),
    class_distribution_query(None, N_CLASSES),
]


def assert_same(got, want):
    assert got.sample_support == want.sample_support
    assert got.estimate.tobytes() == want.estimate.tobytes()
    if want.variance is None:
        assert got.variance is None
    else:
        assert got.variance.tobytes() == want.variance.tobytes()


def check(estimator, queries, t=None):
    """The reused estimator first (so nothing else warms a cache), then a
    fresh estimator and the oracle on the same state."""
    sampler = estimator.sampler
    for query in queries:
        got = estimator.estimate(query, t)
        assert_same(got, QueryEstimator(sampler).estimate(query, t))
        assert_same(got, oracle_estimate(sampler, query, t))


def offer_blocks(sampler, points, block):
    for start in range(0, len(points), block):
        sampler.offer_many(points[start : start + block])
        yield


def offer_items(sampler, points):
    for point in points:
        sampler.offer(point)
        yield


FAMILIES = {
    "exponential": lambda: ExponentialReservoir(capacity=40, rng=3),
    "space_constrained": lambda: SpaceConstrainedReservoir(
        lam=1e-2, capacity=40, rng=3
    ),
    "variable": lambda: VariableReservoir(lam=1e-2, capacity=40, rng=3),
    "unbiased": lambda: UnbiasedReservoir(40, rng=3),
    "sharded": lambda: ShardedReservoir(capacity=40, workers=4, rng=3),
}


class TestReusedEstimatorMatchesFresh:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_block_offers(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        points = make_stream(600, seed=1)
        for _ in offer_blocks(sampler, PointBlock.from_points(points), 64):
            check(estimator, FULL_MIX)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_per_item_offers(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        for step, _ in enumerate(offer_items(sampler, make_stream(400, 2))):
            if step % 7 == 0:
                check(estimator, FULL_MIX)

    def test_rejected_unbiased_offers(self):
        """A rejected offer moves ``t`` and ``p = n/t`` but not storage:
        the record must still be rebuilt."""
        sampler = UnbiasedReservoir(40, rng=4)
        estimator = QueryEstimator(sampler)
        rejected = 0
        for point in make_stream(500, seed=3):
            key = sampler._columns_key()
            stored = sampler.offer(point)
            if not stored:
                assert sampler._columns_key() == key
                rejected += 1
                check(estimator, [count_query(None), average_query(None, [0])])
        assert rejected > 100

    def test_chain_sampler(self):
        sampler = ChainSampler(20, window=100, rng=5)
        estimator = QueryEstimator(sampler)
        for step, _ in enumerate(offer_items(sampler, make_stream(400, 4))):
            if step % 5 == 0:
                check(estimator, FULL_MIX)

    def test_sharded_with_pending_buffers(self):
        """Per-item offers wait in worker buffers; the record is keyed on
        the facade's stream position, and a read flushes them first."""
        sampler = ShardedReservoir(capacity=40, workers=4, rng=6)
        estimator = QueryEstimator(sampler)
        points = make_stream(700, seed=5)
        sampler.offer_many(points[:200])
        check(estimator, FULL_MIX)
        for step, _ in enumerate(offer_items(sampler, points[200:])):
            if step % 9 == 0:
                assert any(sampler._buf_payloads)
                check(estimator, FULL_MIX)

    def test_int_payload_counts_build_no_view(self):
        sampler = ExponentialReservoir(capacity=40, rng=7)
        estimator = QueryEstimator(sampler)

        def no_view():
            raise AssertionError("a count built the resident view")

        sampler.resident_columns = no_view
        counts = [count_query(h) for h in HORIZONS + (None,)]
        for _ in offer_blocks(sampler, list(range(1, 501)), 50):
            check(estimator, counts)
        del sampler.resident_columns
        with pytest.raises(AttributeError):
            estimator.estimate(sum_query(None, [0]))


class TestExplicitT:
    @pytest.mark.parametrize("family", ["unbiased", "variable", "sharded"])
    def test_later_t_never_reuses_another_ts_record(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        sampler.offer_many(make_stream(300, seed=6))
        now = sampler.t
        for t in (now + 50, now, now + 50, now + 120, None):
            check(estimator, FULL_MIX, t)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fixed_later_t_across_offers(self, family):
        """The same explicit ``t`` before and after offers is a new state."""
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        points = make_stream(400, seed=7)
        sampler.offer_many(points[:200])
        later = sampler.t + 500
        check(estimator, FULL_MIX, later)
        for step, _ in enumerate(offer_items(sampler, points[200:])):
            if step % 11 == 0:
                check(estimator, FULL_MIX, later)


class TestOnePassPerCheckpoint:
    def test_mix_computes_p_once_per_horizon(self):
        """The ten-query mix over two horizons asks the sampler for
        ``p(r, t)`` twice per checkpoint, not once per query (twelve
        times, counting both parts of the ratio query)."""
        sampler = VariableReservoir(lam=1e-3, capacity=200, rng=8)
        estimator = QueryEstimator(sampler)
        mix = checkpoint_mix()
        assert len(mix) == 10
        calls = []
        model = sampler.inclusion_probabilities

        def spy(r, t=None):
            calls.append(t)
            return model(r, t)

        sampler.inclusion_probabilities = spy
        points = PointBlock.from_points(make_stream(2048, seed=9))
        for _ in offer_blocks(sampler, points, 256):
            calls.clear()
            for query in mix:
                estimator.estimate(query)
            assert calls == [sampler.t] * len(HORIZONS)
