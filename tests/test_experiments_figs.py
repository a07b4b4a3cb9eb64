"""Smoke + shape tests for every figure-reproduction experiment.

Each test runs its experiment at a deliberately tiny scale (seconds, not
minutes) and checks structure plus the cheap qualitative invariants; the
full-scale claims are exercised by the benchmark harness.
"""

import math

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig1_fill,
    fig2_sum_intrusion,
    fig3_sum_synthetic,
    fig4_count_intrusion,
    fig5_range_synthetic,
    fig6_progression,
    fig7_classify_intrusion,
    fig8_classify_synthetic,
    fig9_scatter,
)

SMALL_HORIZONS = (200, 1000, 4000)
ONE_SEED = (101,)


class TestRegistry:
    def test_all_nine_figures_registered(self):
        assert sorted(ALL_EXPERIMENTS) == [f"fig{i}" for i in range(1, 10)]

    def test_registry_points_at_run_functions(self):
        assert ALL_EXPERIMENTS["fig1"] is fig1_fill.run


class TestFig1:
    def test_structure_and_claims(self):
        res = fig1_fill.run(length=20_000, capacity=200, lam=5e-5, seed=1)
        assert res.experiment_id == "fig1"
        assert res.columns[0] == "t"
        # Variable scheme essentially full everywhere after startup.
        late = [r for r in res.rows if r["t"] > 2000]
        assert all(r["variable_fill"] >= 0.99 for r in late)
        # Fixed scheme strictly below variable at every late checkpoint.
        assert all(r["fixed_fill"] < r["variable_fill"] for r in late)
        # Fixed curve roughly tracks the closed-form expectation.
        for r in late:
            assert r["fixed_fill"] == pytest.approx(
                r["fixed_fill_expected"], abs=0.12
            )

    def test_fixed_fill_monotone_nondecreasing(self):
        res = fig1_fill.run(length=10_000, capacity=100, lam=1e-4, seed=2)
        fills = res.series("fixed_fill")
        assert all(b >= a - 1e-12 for a, b in zip(fills, fills[1:]))

    def test_extra_checkpoints_included(self):
        res = fig1_fill.run(
            length=5_000, capacity=100, lam=1e-4, extra_checkpoints=(1234,)
        )
        assert 1234 in res.series("t")


class TestHorizonSweeps:
    """Figures 2-5 share the template; run each tiny and check structure."""

    @pytest.mark.parametrize(
        "module",
        [
            fig2_sum_intrusion,
            fig3_sum_synthetic,
            fig4_count_intrusion,
            fig5_range_synthetic,
        ],
    )
    def test_structure(self, module):
        res = module.run(
            length=12_000, horizons=SMALL_HORIZONS, seeds=ONE_SEED
        )
        assert res.series("horizon") == list(SMALL_HORIZONS)
        for row in res.rows:
            assert math.isfinite(row["biased_error"])
            assert math.isfinite(row["unbiased_error"])
            assert row["biased_support"] >= 0
        assert len(res.notes) == 2

    def test_biased_support_exceeds_unbiased_at_small_horizon(self):
        res = fig3_sum_synthetic.run(
            length=20_000, horizons=(500,), seeds=(7,)
        )
        row = res.rows[0]
        # Theorem 3.1 (n=1000, p_in=0.1) puts the expected biased support
        # at sum_{a<500} p_in (1 - p_in/n)^a ~ 48.8; Property 2.1 puts the
        # unbiased one at n h / t = 25. Their ratio is 1.95, so a factor-2
        # bar fails for about half of all seeds; check the claim itself
        # and the biased count against its model instead.
        ages = np.arange(500)
        expected = float(np.sum(0.1 * (1.0 - 1e-4) ** ages))
        assert row["biased_support"] > row["unbiased_support"]
        assert abs(row["biased_support"] - expected) < 4 * math.sqrt(expected)


class TestFig6:
    def test_structure(self):
        res = fig6_progression.run(
            length=30_000, horizon=2_000, n_checkpoints=4, seeds=ONE_SEED
        )
        assert res.columns == ["t", "biased_error", "unbiased_error"]
        assert all(r["t"] > 2_000 for r in res.rows)
        assert len(res.notes) == 2

    def test_checkpoints_after_horizon_only(self):
        res = fig6_progression.run(
            length=10_000,
            horizon=5_000,
            checkpoints=[1_000, 6_000, 10_000],
            seeds=ONE_SEED,
        )
        assert res.series("t") == [6_000, 10_000]


class TestFig7And8:
    def test_fig7_structure(self):
        res = fig7_classify_intrusion.run(length=8_000, window=2_000)
        assert len(res.rows) == 4
        for row in res.rows:
            assert 0.0 <= row["biased_accuracy"] <= 1.0
            assert 0.0 <= row["unbiased_accuracy"] <= 1.0
            assert row["gap"] == pytest.approx(
                row["biased_accuracy"] - row["unbiased_accuracy"]
            )

    def test_fig8_structure_and_learnability(self):
        res = fig8_classify_synthetic.run(length=10_000, window=2_500)
        assert len(res.rows) == 4
        # Even at tiny scale the classifier must beat 4-way chance.
        assert res.rows[-1]["biased_accuracy"] > 0.3


class TestFig9:
    def test_structure(self):
        res = fig9_scatter.run(length=10_000, checkpoints=[5_000, 10_000])
        assert len(res.rows) == 4  # 2 checkpoints x 2 reservoirs
        reservoirs = {r["reservoir"] for r in res.rows}
        assert reservoirs == {"biased", "unbiased"}

    def test_biased_less_stale(self):
        res = fig9_scatter.run(length=15_000, checkpoints=[15_000])
        by_name = {r["reservoir"]: r for r in res.rows}
        assert by_name["biased"]["staleness"] < by_name["unbiased"][
            "staleness"
        ]

    def test_dump_dir_writes_projections(self, tmp_path):
        fig9_scatter.run(
            length=6_000, checkpoints=[6_000], dump_dir=str(tmp_path)
        )
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [
            "fig9_biased_t6000.csv",
            "fig9_unbiased_t6000.csv",
        ]
        header = (tmp_path / files[0]).read_text().splitlines()[0]
        assert header == "x,y,label,age"


class TestDeterminism:
    """Experiments must be reproducible run-to-run with fixed seeds."""

    def test_fig1_deterministic(self):
        a = fig1_fill.run(length=5_000, capacity=100, lam=1e-4, seed=3)
        b = fig1_fill.run(length=5_000, capacity=100, lam=1e-4, seed=3)
        assert a.rows == b.rows

    def test_fig3_deterministic(self):
        kwargs = dict(length=8_000, horizons=(500, 2_000), seeds=(9,))
        a = fig3_sum_synthetic.run(**kwargs)
        b = fig3_sum_synthetic.run(**kwargs)
        assert a.rows == b.rows

    def test_fig8_deterministic(self):
        kwargs = dict(length=6_000, window=3_000, seed=4)
        a = fig8_classify_synthetic.run(**kwargs)
        b = fig8_classify_synthetic.run(**kwargs)
        assert a.rows == b.rows

    def test_different_seed_differs(self):
        a = fig3_sum_synthetic.run(
            length=8_000, horizons=(500,), seeds=(9,)
        )
        b = fig3_sum_synthetic.run(
            length=8_000, horizons=(500,), seeds=(10,)
        )
        assert a.rows != b.rows
