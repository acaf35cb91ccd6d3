"""Cross-module runs: golden regression, weight oracles, experiment behaviors."""

import math
from pathlib import Path

import numpy as np
import pytest

from infomarket import harness, market
from infomarket.config import SimParams
from infomarket.harness import (
    ExperimentConfig,
    RunRecord,
    ShockEvent,
    Simulation,
    run,
    run_cross_platform,
    run_event_detection,
    run_weight_sensitivity,
    run_worlds,
    sweep_cells,
)
from infomarket.ipi import FIXED_WEIGHTS, composite, dim_tech_risk, endogenous_weights
from infomarket.market import (
    Postures,
    exposure,
    solve_verification_fixed_point,
    supply_response,
    welfare_value,
)

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
        assert len(golden) == len(baseline_150) == 150
        for col in ("q_h", "q_l", "pollution", "verify_rate", "precision",
                    "trust", "welfare", "ipi", "tau", "gamma_h", "gamma_l", "m"):
            np.testing.assert_allclose(
                baseline_150.column(col), golden.column(col), rtol=1e-9,
                err_msg=f"golden drift in column {col}",
            )

    def test_frozen_final_values(self, baseline_150):
        assert baseline_150.column("welfare")[-1] == pytest.approx(
            GOLDEN_FINAL_WELFARE, rel=1e-9
        )
        assert baseline_150.column("ipi")[-1] == pytest.approx(GOLDEN_FINAL_IPI, rel=1e-9)

    def test_reaches_quasi_steady_state(self, baseline_150):
        ipi = baseline_150.column("ipi")
        assert np.max(np.abs(np.diff(ipi[-21:]))) < 0.02


def _tick(sim):
    """One unscheduled tick as `Simulation.advance` runs it: its exogenous
    row and its record row, which holds the levy and the posture posted."""
    overlay = harness._next_overlay(sim.last_overlay, sim.params, sim.state.tick + 1)
    tax, posture = sim._levy(), sim.platform
    row = sim.advance(overlay)
    assert (row.tau, row.gamma_h, row.gamma_l, row.m) == (
        tax, posture.gamma_h, posture.gamma_l, posture.moderation)
    return overlay, row


@pytest.fixture
def passed(monkeypatch):
    """Each tick's call of `endogenous_weights`, in order: the responses the
    tick passed it and the (weights, fallback) it got back."""
    calls = []

    def spied(responses):
        calls.append((responses, endogenous_weights(responses)))
        return calls[-1][1]

    monkeypatch.setattr(harness, "endogenous_weights", spied)
    return calls


class _PerDimensionWeights:
    """Oracle: the endogenous weights one dimension at a time, each perturbed
    driver re-cleared with its base in a call of its own under the posted
    posture, stopping at the first flat one."""

    def __init__(self, sim, overlay, row):
        self.sim, self.overlay, self.row = sim, overlay, row
        self.posture = Postures(row.gamma_h, row.gamma_l, row.m)
        # The tick's producer surplus, which its row does not hold.
        (self.producer_profit,) = self._supply((overlay.gen_boost,)).producer_profit

    def base(self):
        """(welfare, pollution) of the tick's outputs re-cleared, and welfare
        at its supply re-solved at the tick's generation boost."""
        row = self.row
        (w,), (rho,) = self._evaluate(np.array([row.q_h]), np.array([row.q_l]),
                                      self.producer_profit)
        (supplied,) = self._supply_welfare((self.overlay.gen_boost,))
        return w, rho, supplied

    def weights(self, eps):
        sensitivities = []
        for dim in range(4):
            d_w, d_i = self.dimension_response(dim, eps)
            if abs(d_w) < 1e-12 or d_i == 0.0:
                return FIXED_WEIGHTS, True
            sensitivities.append(abs(d_w / d_i))
        total = sum(sensitivities)
        return tuple(s / total for s in sensitivities), False

    def dimension_response(self, dim, eps):
        sim = self.sim
        p = sim.params
        row = self.row
        if dim == 1:
            span = sim.w_so - sim.w_min
            return -span * eps, eps
        if dim == 2:
            delta_t = -eps * p.trust.t_max
            return p.welfare.lambda_trust * delta_t, eps
        if dim == 0:
            (w, bumped_w), (rho, bumped_rho) = self._evaluate(
                np.array([row.q_h, row.q_h]), np.array([row.q_l, row.q_l * (1.0 + eps)]),
                self.producer_profit,
            )
            return bumped_w - w, bumped_rho - rho
        cap_gen, cap_det = self.overlay.cap_gen, self.overlay.cap_det
        base_i4 = dim_tech_risk(cap_gen, cap_det, p.ipi.mu_tech, p.ipi.sigma_tech)
        new_i4 = dim_tech_risk(cap_gen * (1.0 + eps), cap_det, p.ipi.mu_tech, p.ipi.sigma_tech)
        boost = (cap_gen * (1.0 + eps)) ** p.ipi.kappa_gen
        base, bumped = self._supply_welfare((self.overlay.gen_boost, boost))
        return bumped - base, new_i4 - base_i4

    def _evaluate(self, q_h, q_l, producer_profit):
        sim = self.sim
        postures = Postures.of([self.posture] * q_h.size)
        consumers = sim.populations.consumers
        rho, _flow, platform_profit = exposure(q_h, q_l, postures, sim.populations, sim.params)
        rate, precision, threshold = solve_verification_fixed_point(
            rho, consumers, sim.params.policy.provenance_boost, params=sim.params)
        w = welfare_value(
            q_h=q_h, q_l=q_l, verify_rate=rate, precision=precision, trust=self.row.trust,
            platform=postures, producer_profit=producer_profit, platform_profit=platform_profit,
            verification_spend=consumers.spend(threshold), params=sim.params,
        )
        return w.tolist(), rho.tolist()

    def _supply(self, gen_boosts):
        sim, overlay = self.sim, self.overlay
        return supply_response(
            sim.populations.producers,
            Postures.of([self.posture] * len(gen_boosts)),
            sim.params.platform,
            cost_h_base=overlay.cost_h_base,
            cost_l_base=overlay.cost_l_base,
            gen_boost=np.array(gen_boosts),
            tax=self.row.tau,
            extra_q_l=overlay.extra_q_l,
        )

    def _supply_welfare(self, gen_boosts):
        supply = self._supply(gen_boosts)
        w, _rho = self._evaluate(supply.q_h, supply.q_l, supply.producer_profit)
        return w


class TestEndogenousWeights:
    def test_runs_and_normalizes(self, passed):
        params = SimParams().with_overrides({"ipi.endogenous_weights": True})
        sim = Simulation(params, None, 42)
        for _ in range(30):
            _overlay, row = _tick(sim)
            ((_responses, (weights, _)),) = passed
            passed.clear()
            total = sum(w * d for w, d in zip(weights, (row.i1, row.i2, row.i3, row.i4)))
            assert 0.0 <= total <= 1.0

    @pytest.mark.parametrize("seed", [42, 7, 3, 1790146652])
    @pytest.mark.parametrize("overrides", [{}, {"econ.ai_rental": 0.6}],
                             ids=["default", "cheap_ai"])
    def test_batched_weights_equal_per_dimension_oracle(self, seed, overrides, passed):
        params = SimParams().with_overrides({**overrides, "ipi.endogenous_weights": True})
        sim = Simulation(params, master_seed=seed)
        eps = params.ipi.weight_perturbation
        fallbacks = 0
        for _ in range(40):
            overlay, row = _tick(sim)
            oracle = _PerDimensionWeights(sim, overlay, row)
            # Re-cleared under the posted posture, the tick gives back its own row.
            assert oracle.base() == (row.welfare, row.pollution, row.welfare)
            # The responses the tick cleared in its own calls, bit for bit.
            ((responses, (weights, fallback)),) = passed
            passed.clear()
            assert responses == [oracle.dimension_response(dim, eps) for dim in range(4)]
            assert oracle.weights(eps) == (weights, fallback)
            # The tick's own reading used these weights, bit for bit.
            assert row.ipi == composite((row.i1, row.i2, row.i3, row.i4), weights)
            fallbacks += fallback
        assert fallbacks < 40

    def test_flat_trust_response_falls_back_without_clearing(self, passed):
        params = SimParams().with_overrides(
            {"ipi.endogenous_weights": True, "welfare.lambda_trust": 0.0}
        )
        sim = Simulation(params, master_seed=42)
        for _ in range(5):
            _overlay, row = _tick(sim)
            ((responses, weights),) = passed
            passed.clear()
            assert responses[0] == responses[3] == (0.0, 0.0)
            assert weights == (FIXED_WEIGHTS, True)
            assert row.ipi == composite((row.i1, row.i2, row.i3, row.i4), FIXED_WEIGHTS)

    @pytest.mark.parametrize("overrides, extra", [
        ({}, 0),
        ({"ipi.endogenous_weights": True}, 1),
        # A flat analytic response settles the fallback before any clearing.
        ({"ipi.endogenous_weights": True, "welfare.lambda_trust": 0.0}, 0),
    ])
    def test_one_supply_call_and_one_clearing_per_tick(self, monkeypatch, overrides, extra):
        sim = Simulation(SimParams().with_overrides(overrides), master_seed=42)
        sim.advance()
        names = ("supply_response", "solve_verification_fixed_point", "welfare_value")
        calls = dict.fromkeys(names, 0)
        lanes = dict.fromkeys(names[:2], 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(market, name), **kwargs):
                calls[_name] += 1
                if _name == "supply_response":
                    lanes[_name] += args[1].gamma_h.size  # one lane per posture
                elif _name == "solve_verification_fixed_point":
                    lanes[_name] += np.size(args[0])  # one lane per pollution; a lone one is a float
                return _original(*args, **kwargs)

            monkeypatch.setattr(market, name, counted)
        for _ in range(3):
            sim.advance()
        # A lone world solves each lane of its lane table with its own
        # solve and values it with its own welfare call, the weight lanes at
        # the trust the posted lane steps to.
        table = 1 + 2 * extra
        assert calls == {"supply_response": 3, "solve_verification_fixed_point": 3 * table,
                         "welfare_value": 3 * table}
        # Seven supply lanes (the posted posture and six probes) and one
        # clearing lane; endogenous weights add the stepped supply to the
        # supply call, and the scaled outputs and that supply to the clearing.
        assert lanes == {"supply_response": 3 * (7 + extra),
                         "solve_verification_fixed_point": 3 * table}

    def test_half_step_oracle_at_tick_100(self, passed):
        # Independent re-derivation: recompute raw sensitivities straight
        # from the responses at half the step size and normalize by hand.
        # With a fixed levy the weights do not feed back, so both runs
        # follow the fixed-weight trajectory.
        for eps in (0.01, 0.005):
            params = SimParams().with_overrides(
                {"ipi.endogenous_weights": True, "ipi.weight_perturbation": eps})
            sim = Simulation(params, None, 42)
            for _ in range(100):
                sim.advance()
        assert len(passed) == 200
        (_, (weights, fallback)), (half, _) = passed[99], passed[199]
        assert not fallback
        raw = []
        for d_w, d_i in half:
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
        assert math.isnan(report.corr_r_pollution)  # constant r column, flagged


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
        burst = ShockEvent(tick=30, kind="fake_news_burst", magnitude=0.0)
        (shocked,) = run_worlds([params], 60, shocks=[burst])
        (quiet,) = run_worlds([params], 60)
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
        for pollution, expected in zip(col("pollution").tolist(), rho.tolist()):
            assert pollution == pytest.approx(expected, rel=1e-12)

    def test_tick_column_monotone(self, baseline_150):
        ticks = baseline_150.column("tick").tolist()
        assert ticks == sorted(set(ticks))
        assert len(ticks) == 150
