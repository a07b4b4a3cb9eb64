"""The HT variance is computed on first read, from the result's own arrays.

:meth:`~repro.queries.QueryEstimator.estimate` computes only
``weights @ h`` for a linear query. The result keeps the support's
``c``, its variance factor and its own ``h``, and evaluates the variance
sum the first time ``.variance`` (or ``.std_error``) is read. These tests
require those bytes to equal the eager per-point oracle in
``tests/query_oracle.py`` whenever they are read: at once, only after the
sampler has moved on and the estimator has dropped the record the result
came from, and after pickling or copying. A spy on the variance function
pins that estimating alone computes no variance and that a result
computes its own once.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest

from repro.core import (
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    VariableReservoir,
)
from repro.queries import EstimateResult, QueryEstimator
from repro.queries import estimator as estimator_module
from repro.queries.spec import (
    RatioQuery,
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
BLOCK = 64

FAMILIES = {
    "algorithm_2_1": lambda: ExponentialReservoir(capacity=40, rng=3),
    "algorithm_3_1": lambda: SpaceConstrainedReservoir(
        lam=1e-2, capacity=40, rng=3
    ),
    "theorem_3_3": lambda: VariableReservoir(lam=1e-2, capacity=40, rng=3),
    "sharded": lambda: ShardedReservoir(capacity=40, workers=4, rng=3),
}

MIX = [
    query
    for horizon in (40, 150, None)
    for query in (
        count_query(horizon),
        sum_query(horizon, range(DIMS)),
        average_query(horizon, range(DIMS)),
        range_count_query(horizon, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
        range_selectivity_query(horizon, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
        class_count_query(horizon, N_CLASSES),
        class_distribution_query(horizon, N_CLASSES),
    )
]

COPIERS = {
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "pickle_protocol_0": lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def checkpoints(sampler, n=600, seed=1):
    """Offer a seeded labeled stream in blocks; yield after each one."""
    rng = np.random.default_rng(seed)
    points = make_points(
        rng.normal(size=(n, DIMS)), rng.integers(0, N_CLASSES, size=n)
    )
    block = PointBlock.from_points(points)
    for start in range(0, n, BLOCK):
        sampler.offer_many(block[start : start + BLOCK])
        yield


def assert_same_variance(got, want):
    if want.variance is None:
        assert got.variance is None
    else:
        assert got.variance.tobytes() == want.variance.tobytes()


@pytest.fixture
def variance_calls(monkeypatch):
    """Counts the calls to the estimator's one variance function."""
    calls = []
    real = estimator_module._ht_variance

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(estimator_module, "_ht_variance", spy)
    return calls


def deferred(result, query):
    """Whether ``result`` should compute its variance on first read."""
    return not isinstance(query, RatioQuery) and result.sample_support > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestVarianceBytes:
    def test_read_at_once(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        for _ in checkpoints(sampler):
            for query in MIX:
                got = estimator.estimate(query)
                want = oracle_estimate(sampler, query)
                assert got.estimate.tobytes() == want.estimate.tobytes()
                assert_same_variance(got, want)

    def test_read_after_the_record_is_dropped(self, family):
        """Every variance is read only at the end of the stream, after
        more blocks and more estimates on the same estimator."""
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        stream = checkpoints(sampler)
        pending = []
        for _ in itertools.islice(stream, 8):
            for query in MIX:
                got = estimator.estimate(query)
                pending.append(
                    (estimator._key, got, oracle_estimate(sampler, query))
                )
        for _ in stream:
            for query in MIX:
                estimator.estimate(query)
        final_key = estimator._key
        for key, got, want in pending:
            assert key != final_key
            assert_same_variance(got, want)

    @pytest.mark.parametrize("copier", sorted(COPIERS))
    def test_copies_carry_the_computed_variance(
        self, family, copier, variance_calls
    ):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        copies = []
        for _ in checkpoints(sampler):
            for query in MIX:
                result = estimator.estimate(query)
                before = len(variance_calls)
                copies.append(
                    (COPIERS[copier](result), oracle_estimate(sampler, query))
                )
                assert len(variance_calls) - before == deferred(result, query)
        calls = len(variance_calls)
        for got, want in copies:
            assert got.estimate.tobytes() == want.estimate.tobytes()
            assert got.sample_support == want.sample_support
            assert_same_variance(got, want)
        assert len(variance_calls) == calls

    def test_std_error_is_the_root_of_the_clipped_variance(self, family):
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        for _ in checkpoints(sampler):
            for query in MIX:
                result = estimator.estimate(query)
                if result.variance is None:
                    assert result.std_error is None
                    continue
                want = np.sqrt(np.maximum(result.variance, 0.0))
                assert result.std_error.tobytes() == want.tobytes()

    def test_estimate_computes_no_variance(self, family, variance_calls):
        """0 calls from ``estimate``, 1 on the first read, none after."""
        sampler = FAMILIES[family]()
        estimator = QueryEstimator(sampler)
        for _ in checkpoints(sampler):
            results = [(estimator.estimate(q), q) for q in MIX]
            assert variance_calls == []
            for result, query in results:
                result.variance
                assert len(variance_calls) == deferred(result, query)
                result.variance
                result.std_error
                copy.copy(result)
                repr(result)
                assert len(variance_calls) == deferred(result, query)
                variance_calls.clear()


class TestEagerResults:
    def test_empty_support_is_eager_zeros(self, variance_calls):
        result = QueryEstimator(ExponentialReservoir(capacity=4)).estimate(
            sum_query(10, range(DIMS))
        )
        assert result.sample_support == 0
        assert result.variance.tobytes() == np.zeros(DIMS).tobytes()
        assert variance_calls == []

    def test_constructor_keeps_the_given_variance(self):
        variance = np.array([4.0, -1.0])
        result = EstimateResult(np.array([1.0, 2.0]), variance, 3)
        assert result.variance is variance
        assert result.std_error.tolist() == [2.0, 0.0]
        restored = pickle.loads(pickle.dumps(result))
        assert restored.variance.tolist() == [4.0, -1.0]
        assert restored.sample_support == 3
        ratio = EstimateResult(np.array([0.5]), None, 1)
        assert ratio.variance is None and ratio.std_error is None
        assert copy.deepcopy(ratio).variance is None
