"""Cross-module runs: golden regression, weight oracles, experiment behaviors."""

from pathlib import Path

import numpy as np
import pytest

from infomarket.config import SimParams
from infomarket.harness import (
    ExperimentConfig,
    RunRecord,
    Simulation,
    WeightContext,
    run,
    run_cross_platform,
    run_event_detection,
    run_weight_sensitivity,
    sweep_cells,
)
from infomarket.ipi import endogenous_weights
from infomarket.market import Postures, exposure
from infomarket.policy import PolicyConfig

GOLDEN = Path(__file__).parent / "golden" / "baseline_seed42.csv"

# The golden record's last row (seed 42, 150 ticks, default config), frozen
# again with the record when the verification fixed point became exact.
GOLDEN_FINAL_WELFARE = 510.63605601419954
GOLDEN_FINAL_IPI = 0.4648691393756753


@pytest.fixture(scope="module")
def baseline_150():
    cfg = ExperimentConfig(experiment="baseline", master_seed=42, max_ticks=150)
    return run(cfg)


class TestGoldenRun:
    def test_matches_frozen_record(self, baseline_150):
        golden = RunRecord.from_csv(GOLDEN)
        assert len(golden.rows) == len(baseline_150.rows) == 150
        for col in ("q_h", "q_l", "pollution", "verify_rate", "precision",
                    "trust", "welfare", "ipi", "tau", "gamma_h", "gamma_l", "m"):
            np.testing.assert_allclose(
                baseline_150.column(col), golden.column(col), rtol=1e-9,
                err_msg=f"golden drift in column {col}",
            )

    def test_frozen_final_values(self, baseline_150):
        assert baseline_150.rows[-1].welfare == pytest.approx(
            GOLDEN_FINAL_WELFARE, rel=1e-9
        )
        assert baseline_150.rows[-1].ipi == pytest.approx(GOLDEN_FINAL_IPI, rel=1e-9)

    def test_reaches_quasi_steady_state(self, baseline_150):
        ipi = baseline_150.column("ipi")
        assert np.max(np.abs(np.diff(ipi[-21:]))) < 0.02


class TestEndogenousWeights:
    def test_runs_and_normalizes(self):
        params = SimParams().with_overrides({"ipi.endogenous_weights": True})
        sim = Simulation(params, PolicyConfig(), 42)
        rows = [sim.advance() for _ in range(30)]
        for row in rows:
            total = sum(
                w * d
                for w, d in zip(
                    endogenous_weights(WeightContext(sim), params.ipi.weight_perturbation)[0],
                    (row.i1, row.i2, row.i3, row.i4),
                )
            )
            assert 0.0 <= total <= 1.0

    def test_half_step_oracle_at_tick_100(self):
        # Independent re-derivation: recompute raw sensitivities straight
        # from the context at half the step size and normalize by hand.
        sim = Simulation(SimParams(), PolicyConfig(), 42)
        for _ in range(100):
            sim.advance()
        ctx = WeightContext(sim)
        weights, fallback = endogenous_weights(ctx, 0.01)
        assert not fallback
        raw = []
        for dim in range(4):
            d_w, d_i = ctx.dimension_response(dim, 0.005)
            assert abs(d_w) > 1e-12
            raw.append(abs(d_w / d_i))
        oracle = [s / sum(raw) for s in raw]
        for got, want in zip(weights, oracle):
            assert got == pytest.approx(want, rel=0.05)


class TestComparativeStatics:
    def test_single_cell_grid(self):
        report = sweep_cells(
            [(1.0, 1.5)],
            SimParams().with_overrides({
                "agents.n_producers": 30, "agents.n_consumers": 60,
                "ipi.anchor_m_points": 3, "ipi.anchor_gamma_points": 3,
                "ipi.anchor_tax_points": 2,
            }),
            master_seed=42,
            ticks=10,
        )
        assert len(report.rows) == 1
        assert report.corr_r_pollution is None  # constant r column, flagged


SMALL = {
    "agents.n_producers": 30,
    "agents.n_consumers": 60,
    "ipi.anchor_m_points": 3,
    "ipi.anchor_gamma_points": 3,
    "ipi.anchor_tax_points": 2,
}


class TestEventDetection:
    def test_zero_magnitude_burst_is_a_noop(self):
        params = SimParams().with_overrides(SMALL)
        from infomarket.harness import ShockEvent

        shocked = Simulation(params, PolicyConfig(), 42).run(
            60, [ShockEvent(tick=30, kind="fake_news_burst", magnitude=0.0)]
        )
        quiet = Simulation(params, PolicyConfig(), 42).run(60)
        assert shocked.column("ipi").tolist() == quiet.column("ipi").tolist()

    def test_default_burst_detected_with_finite_window(self):
        cfg = ExperimentConfig(experiment="event_detection", master_seed=42,
                               max_ticks=120)
        report = run_event_detection(cfg)
        assert report["peak_rise_pct"] > 0.0
        assert report["best_window"] in range(1, 11)


class TestCrossPlatform:
    def test_higher_trust_price_weakly_lowers_pollution(self):
        cfg = ExperimentConfig(experiment="cross_platform", master_seed=42,
                               max_ticks=80, overrides=dict(SMALL))
        report = run_cross_platform(
            cfg,
            presets=[("loose", {}), ("strict", {"platform.trust_price": 400.0})],
        )
        loose, strict = report["rows"]
        assert strict["pollution"] <= loose["pollution"]

    def test_identical_presets_have_zero_spread(self):
        cfg = ExperimentConfig(experiment="cross_platform", master_seed=42,
                               max_ticks=40, overrides=dict(SMALL))
        report = run_cross_platform(cfg, presets=[("a", {}), ("b", {})])
        assert report["ipi_spread"] == 0.0


class TestWeightSensitivityProtocol:
    def test_six_set_correlations_all_negative(self):
        cfg = ExperimentConfig(experiment="weight_sensitivity", master_seed=42,
                               max_ticks=100)
        report = run_weight_sensitivity(cfg)
        assert len(report["correlations"]) == 6
        assert all(c < 0 for c in report["correlations"])
        assert report["sign_flips"] == []


class TestNoiseProtocol:
    def test_errors_nondecreasing_in_noise_level(self):
        from infomarket.harness import run_noise

        cfg = ExperimentConfig(experiment="noise_robustness", master_seed=42,
                               max_ticks=60, overrides=dict(SMALL))
        report = run_noise(cfg, noise_levels=[0.0, 0.05, 0.1, 0.2], trials=3)
        errors = report["errors"]
        assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))


class TestRecordInvariants:
    def test_pollution_consistent_with_row_posture(self, baseline_150, populations, params):
        col = baseline_150.column
        postures = Postures(col("gamma_h"), col("gamma_l"), col("m"))
        rho, _, _ = exposure(col("q_h"), col("q_l"), postures, populations, params)
        for row, expected in zip(baseline_150.rows, rho.tolist()):
            assert row.pollution == pytest.approx(expected, rel=1e-12)

    def test_tick_column_monotone(self, baseline_150):
        ticks = [r.tick for r in baseline_150.rows]
        assert ticks == sorted(set(ticks))
        assert len(ticks) == 150
