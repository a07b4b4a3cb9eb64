"""The columnar Theorem 3.3 fold against the boxed oracle.

:meth:`ShardedReservoir.fold <repro.shard.ShardedReservoir.fold>`,
:func:`~repro.core.merge.fold_exponential_reservoirs` and
:func:`~repro.core.merge.merge_exponential_reservoirs` must give the
output snapshot bytes and the fold generator state of the boxed fold in
:mod:`tests.fold_oracle`, for every resident form (point columns, boxed
points, other payloads, a mix) and for pure unions, thinned folds and
overflowing unions cut by ``choice``.
"""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.biased import ExponentialReservoir
from repro.core.merge import (
    fold_exponential_reservoirs,
    merge_exponential_reservoirs,
)
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.variable import VariableReservoir
from repro.shard import ShardedReservoir
from repro.shard.partition import HashByKeyPartitioner
from repro.streams.point import PointBlock
from tests import fold_oracle

SHARDED_FIXTURE = (
    Path(__file__).parent / "data" / "parent_space_constrained" / "sharded.pkl"
)

CAPACITY = 120


def _block(start, count, seed, dims=3):
    """A :class:`PointBlock` of arrivals ``start + 1 ..``; every fifth
    label is ``None``."""
    rng = np.random.default_rng(seed)
    none = np.arange(count) % 5 == 0
    return PointBlock(
        np.arange(start + 1, start + count + 1),
        np.where(none, 0, rng.integers(0, 4, size=count)),
        none,
        rng.normal(size=(count, dims)),
    )


def _feed(facade, residents):
    if residents == "block":
        for start in range(0, 3000, 500):
            facade.offer_many(_block(start, 500, seed=start))
    elif residents == "points":
        for point in _block(0, 3000, seed=7).points():
            facade.offer(point)
    else:
        facade.offer_many(list(range(3000)))


def _facade(family, residents, seed):
    lam = None if family == "exponential" else 0.6 / CAPACITY
    facade = ShardedReservoir(
        capacity=CAPACITY, workers=3, lam=lam, family=family, rng=seed
    )
    _feed(facade, residents)
    return facade


def _same_fold(ours, theirs, ours_rng, theirs_rng):
    assert pickle.dumps(ours.state_dict()) == pickle.dumps(
        theirs.state_dict()
    )
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


def _fold_both(make, capacity=None):
    """Fold two identically built facades, one per implementation."""
    ours, theirs = make(), make()
    _same_fold(
        ours.fold(capacity),
        fold_oracle.fold_sharded(theirs, capacity),
        ours._fold_rng,
        theirs._fold_rng,
    )
    return ours


def _union_overflows(facade, capacity):
    """Whether a thinned fold of ``facade`` at ``capacity`` keeps more
    survivors than ``capacity`` (so its ``choice`` runs)."""
    generator = np.random.default_rng()
    generator.bit_generator.state = facade._fold_rng.bit_generator.state
    keep_prob = capacity / facade.capacity
    kept = sum(
        int((generator.random(w.sampler.size) < keep_prob).sum())
        for w in facade._workers
    )
    return kept > capacity


class TestShardFold:
    @pytest.mark.parametrize("family", ["exponential", "space_constrained"])
    @pytest.mark.parametrize("residents", ["block", "points", "ints"])
    @pytest.mark.parametrize("capacity", [None, CAPACITY // 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_oracle(self, family, residents, capacity, seed):
        _fold_both(lambda: _facade(family, residents, seed), capacity)

    @pytest.mark.parametrize("family", ["exponential", "space_constrained"])
    def test_overflowing_union_matches_oracle(self, family):
        """Near the facade's own capacity the thinned union often exceeds
        the target, and the overflow ``choice`` runs."""
        capacity = CAPACITY - 3
        seeds = [
            seed
            for seed in range(20)
            if _union_overflows(_facade(family, "block", seed), capacity)
        ]
        assert seeds
        for seed in seeds[:3]:
            _fold_both(lambda: _facade(family, "block", seed), capacity)

    def test_fold_is_repeatable_and_keeps_the_facade(self):
        """Successive folds draw on the facade's fold generator in turn,
        and the workers are left as they were."""
        ours = _facade("space_constrained", "block", 3)
        theirs = _facade("space_constrained", "block", 3)
        before = pickle.dumps(ours.worker_states())
        for capacity in (CAPACITY // 2, None, CAPACITY // 3):
            _same_fold(
                ours.fold(capacity),
                fold_oracle.fold_sharded(theirs, capacity),
                ours._fold_rng,
                theirs._fold_rng,
            )
        assert pickle.dumps(ours.worker_states()) == before

    @pytest.mark.parametrize("residents", ["block", "points", "ints"])
    def test_empty_worker(self, residents):
        def make():
            facade = ShardedReservoir(
                capacity=CAPACITY,
                workers=2,
                partitioner=HashByKeyPartitioner(2, key=lambda p: 0),
                rng=5,
            )
            _feed(facade, residents)
            return facade

        facade = _fold_both(make)
        assert [w.sampler.size for w in facade._workers].count(0) == 1
        _fold_both(make, CAPACITY // 4)

    def test_all_workers_empty(self):
        make = lambda: ShardedReservoir(capacity=CAPACITY, workers=3, rng=6)
        assert _fold_both(make).size == 0
        _fold_both(make, CAPACITY // 2)

    def test_mixed_forms_across_workers(self):
        """A worker with point columns folded with one holding boxed
        points: the output is restored from a payload list."""

        def make():
            facade = _facade("exponential", "block", 8)
            facade._workers[1].sampler._drop_columns()
            return facade

        _fold_both(make)
        _fold_both(make, CAPACITY // 2)

    def test_point_columns_fold_without_boxing(self):
        """Workers that hold point columns fold into column-only rows; a
        worker without them makes the fold restore from payloads."""
        out = _facade("exponential", "block", 4).fold()
        assert out._vals is not None
        assert all(cell is None for cell in out._pay[: out.size])
        facade = _facade("exponential", "block", 4)
        facade._workers[0].sampler._drop_columns()
        assert facade.fold()._vals is None

    @pytest.mark.parametrize("capacity", [None, 12, 5])
    def test_restored_parent_facade(self, capacity):
        with open(SHARDED_FIXTURE, "rb") as fh:
            state = pickle.load(fh)["state"]
        _fold_both(lambda: ShardedReservoir.from_state_dict(state), capacity)

    def test_explicit_rng(self):
        ours, theirs = _facade("exponential", "block", 9), _facade(
            "exponential", "block", 9
        )
        mine = np.random.default_rng(11)
        other = np.random.default_rng(11)
        _same_fold(
            ours.fold(CAPACITY // 2, rng=mine),
            fold_oracle.fold_sharded(theirs, CAPACITY // 2, rng=other),
            mine,
            other,
        )
        assert (
            ours._fold_rng.bit_generator.state
            == theirs._fold_rng.bit_generator.state
        )


def _exponential(seed, payloads):
    res = ExponentialReservoir(capacity=100, rng=seed)
    res.offer_many(payloads)
    return res


def _space_constrained(seed, payloads, capacity=80):
    res = SpaceConstrainedReservoir(lam=1 / 100, capacity=capacity, rng=seed)
    res.offer_many(payloads)
    return res


def _variable(seed, payloads):
    res = VariableReservoir(lam=1 / 100, capacity=80, rng=seed)
    res.offer_many(payloads)
    return res


def _tagged(tag, count):
    return [(tag, i) for i in range(count)]


def _fold_inputs_both(build, **kwargs):
    """Fold ``build()`` inputs with both implementations."""
    ours = fold_exponential_reservoirs(build(), **kwargs)
    theirs = fold_oracle.fold_exponential_reservoirs(build(), **kwargs)
    _same_fold(ours, theirs, ours.rng, theirs.rng)
    return ours


class TestMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_way_merge(self, seed):
        a = _space_constrained(seed, _tagged("a", 3000))
        b = _space_constrained(seed + 10, _tagged("b", 2500))
        ours = merge_exponential_reservoirs(a, b, rng=seed)
        theirs = fold_oracle.merge_exponential_reservoirs(a, b, rng=seed)
        _same_fold(ours, theirs, ours.rng, theirs.rng)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("capacity", [None, 40])
    def test_algorithm_2_1_union_overflows(self, seed, capacity):
        """Two Algorithm 2.1 inputs at their own capacity keep every
        resident, so the union of 200 is cut to 100 by ``choice``."""
        _fold_inputs_both(
            lambda: [
                _exponential(seed, _block(0, 2000, seed)),
                _exponential(seed + 1, _block(0, 2000, seed + 1)),
            ],
            capacity=capacity,
            rng=seed,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_families_nway(self, seed):
        _fold_inputs_both(
            lambda: [
                _exponential(seed, _tagged("e", 3000)),
                _space_constrained(seed + 1, _tagged("s", 2000)),
                _variable(seed + 2, _tagged("v", 1500)),
            ],
            capacity=30,
            rng=seed,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_families_of_point_columns(self, seed):
        _fold_inputs_both(
            lambda: [
                _exponential(seed, _block(0, 3000, seed)),
                _space_constrained(seed + 1, _block(0, 2000, seed + 1)),
                _variable(seed + 2, _block(0, 1500, seed + 2)),
            ],
            capacity=30,
            rng=seed,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_columnar_input_with_int_input(self, seed):
        _fold_inputs_both(
            lambda: [
                _space_constrained(seed, _block(0, 2500, seed)),
                _space_constrained(seed + 1, list(range(2500))),
            ],
            rng=seed,
        )

    def test_columnar_input_with_boxed_point_input(self):
        def build():
            boxed = _space_constrained(4, _block(0, 2500, 4))
            boxed._drop_columns()
            return [_space_constrained(3, _block(0, 2500, 3)), boxed]

        _fold_inputs_both(build, rng=3)

    def test_point_columns_of_two_dimensionalities(self):
        _fold_inputs_both(
            lambda: [
                _space_constrained(5, _block(0, 2000, 5, dims=2)),
                _space_constrained(6, _block(0, 2000, 6, dims=4)),
            ],
            rng=5,
        )

    @pytest.mark.parametrize("residents", ["points", "tagged"])
    def test_equal_ages_keep_union_order(self, residents):
        """Inputs on the same clock share ages; the stable order puts the
        earlier input's resident first on every tie."""

        def build():
            if residents == "points":
                return [
                    _exponential(1, _block(0, 200, 1)),
                    _exponential(2, _block(0, 200, 2)),
                    _exponential(3, _block(0, 200, 3)),
                ]
            return [
                _exponential(1, _tagged("a", 200)),
                _exponential(2, _tagged("b", 200)),
                _exponential(3, _tagged("c", 200)),
            ]

        inputs = build()
        ages = [set((s.t - s.arrival_indices()).tolist()) for s in inputs]
        assert ages[0] & ages[1] & ages[2]
        out = _fold_inputs_both(build, capacity=80, rng=0)
        assert out.size == 80

    def test_empty_input(self):
        _fold_inputs_both(
            lambda: [
                _space_constrained(1, _tagged("a", 1000)),
                SpaceConstrainedReservoir(lam=1 / 100, capacity=80, rng=2),
            ],
            rng=1,
        )
