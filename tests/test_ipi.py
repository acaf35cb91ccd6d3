"""Index tests: dimension formulas, composite algebra, weights, and proxies."""


import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.agents import PlatformState
from infomarket.errors import DegenerateAnchors, WeightSumViolation, ZeroBaseline
from infomarket.ipi import (
    FIXED_WEIGHTS,
    ChurnCohorts,
    DetectorReport,
    IpiReading,
    SyntheticEventLog,
    composite,
    dim_deadweight,
    dim_tech_risk,
    dim_trust_decay,
    endogenous_weights,
    proxy_churn_gap,
    proxy_composite,
    proxy_detection_gap,
    proxy_exposure,
    proxy_harm,
    synthesize_log,
)
from infomarket.market import MarketState, Postures, exposure

mp.mp.dps = 50


def make_platform(**kwargs) -> PlatformState:
    defaults = dict(
        gamma_h=1.0, gamma_l=1.0, moderation=0.0, revenue_share=0.25,
        ad_rate=4.0, lr_gamma=0.05, lr_mod=0.05, trust_price=50.0,
    )
    defaults.update(kwargs)
    return PlatformState(**defaults)


class TestDimensions:
    def test_deadweight_endpoints_and_midpoint(self):
        assert dim_deadweight(100.0, 100.0, 20.0) == pytest.approx(0.0)
        assert dim_deadweight(20.0, 100.0, 20.0) == pytest.approx(1.0)
        assert dim_deadweight(60.0, 100.0, 20.0) == pytest.approx(0.5)

    def test_deadweight_clamps_out_of_range(self):
        assert dim_deadweight(150.0, 100.0, 20.0) == 0.0
        assert dim_deadweight(-10.0, 100.0, 20.0) == 1.0

    def test_degenerate_anchors_rejected(self):
        with pytest.raises(DegenerateAnchors):
            dim_deadweight(50.0, 20.0, 100.0)

    def test_trust_decay_endpoints(self):
        assert dim_trust_decay(1.0, 1.0) == 0.0
        assert dim_trust_decay(0.0, 1.0) == 1.0
        assert dim_trust_decay(0.295, 1.0) == pytest.approx(0.705)

    def test_tech_risk_balance_point(self):
        assert dim_tech_risk(3.0, 3.0) == pytest.approx(0.5)

    def test_tech_risk_saturation(self):
        assert dim_tech_risk(1e12, 1.0) > 0.999999
        assert dim_tech_risk(1.0, 1e12) < 1e-6

    def test_tech_risk_oracle_ratio_two(self):
        # (1 + tanh(ln 2)) / 2 = (1 + 3/5) / 2 = 0.8 exactly
        got = dim_tech_risk(2.0, 1.0, 0.0, 1.0)
        assert got == pytest.approx(0.8, rel=1e-12)
        oracle = float((1 + mp.tanh(mp.log(2))) / 2)
        assert got == pytest.approx(oracle, rel=1e-14)


class TestComposite:
    def test_projection_weight(self):
        assert composite((0.37, 0.9, 0.1, 0.5), (1.0, 0.0, 0.0, 0.0)) == pytest.approx(0.37)

    def test_all_zero_dimensions(self):
        assert composite((0.0, 0.0, 0.0, 0.0), FIXED_WEIGHTS) == 0.0

    def test_table_weights_dot_product(self):
        got = composite((0.6, 0.5, 0.7, 0.4), FIXED_WEIGHTS)
        assert got == pytest.approx(0.57, abs=1e-12)

    def test_weight_sum_violation(self):
        with pytest.raises(WeightSumViolation):
            composite((0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(WeightSumViolation):
            composite((0.5, 0.5, 0.5, 0.5), (1.5, -0.5, 0.0, 0.0))

    @given(
        dims=st.tuples(*[st.floats(0, 1) for _ in range(4)]),
        bump=st.integers(0, 3),
        delta=st.floats(0.001, 0.2),
    )
    @settings(max_examples=300, deadline=None)
    def test_decomposability(self, dims, bump, delta):
        if dims[bump] + delta > 1.0:
            delta = 1.0 - dims[bump]
        bumped = tuple(d + delta if j == bump else d for j, d in enumerate(dims))
        diff = composite(bumped, FIXED_WEIGHTS) - composite(dims, FIXED_WEIGHTS)
        assert abs(diff - FIXED_WEIGHTS[bump] * delta) < 1e-12

    @given(dims=st.tuples(*[st.floats(0, 0.9) for _ in range(4)]))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_dimension(self, dims):
        base = composite(dims, FIXED_WEIGHTS)
        for j in range(4):
            bumped = tuple(d + 0.1 if i == j else d for i, d in enumerate(dims))
            assert composite(bumped, FIXED_WEIGHTS) >= base

    def test_reading_invariants(self):
        reading = IpiReading.build((0.6, 0.5, 0.7, 0.4), FIXED_WEIGHTS)
        assert reading.composite == pytest.approx(0.57, abs=1e-12)
        with pytest.raises(ValueError):
            IpiReading(0.6, 0.5, 0.7, 0.4, *FIXED_WEIGHTS, composite=0.9)
        with pytest.raises(WeightSumViolation):
            IpiReading.build((0.5, 0.5, 0.5, 0.5), (0.4, 0.4, 0.4, 0.4))


class _StubContext:
    def __init__(self, responses):
        self.responses = responses

    def dimension_response(self, dim, eps):
        return self.responses[dim]


class TestEndogenousWeights:
    def test_equal_sensitivities_give_equal_weights(self):
        ctx = _StubContext([(-2.0, 0.5)] * 4)
        weights, fallback = endogenous_weights(ctx)
        assert not fallback
        assert weights == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_flat_welfare_falls_back_to_fixed(self):
        ctx = _StubContext([(-2.0, 0.5), (0.0, 0.5), (-2.0, 0.5), (-2.0, 0.5)])
        weights, fallback = endogenous_weights(ctx)
        assert fallback
        assert weights == FIXED_WEIGHTS

    def test_sensitivity_proportions(self):
        ctx = _StubContext([(-3.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
        weights, _ = endogenous_weights(ctx)
        assert weights[0] == pytest.approx(0.5)
        assert weights[1] == pytest.approx(1.0 / 6.0)
        assert sum(weights) == pytest.approx(1.0)


def _log(impressions, feedback=(), cohorts=None, detector=None):
    return SyntheticEventLog(
        impressions=tuple(impressions),
        feedback=tuple(feedback),
        cohorts=cohorts or ChurnCohorts(0.1, 0.1, 0.1),
        detector=detector or DetectorReport(acc_new=0.9, acc_base=0.9),
    )


class TestProxies:
    def test_exposure_all_low_quality(self):
        log = _log([(0, True, 50.0), (1, True, 25.0)])
        assert proxy_exposure(log) == 1.0

    def test_exposure_none_low_quality(self):
        log = _log([(0, False, 50.0)])
        assert proxy_exposure(log) == 0.0

    def test_exposure_direct_ratio(self):
        log = _log([(0, True, 30.0), (1, False, 70.0)])
        assert proxy_exposure(log) == pytest.approx(0.3)

    def test_exposure_empty_log_convention(self):
        assert proxy_exposure(_log([])) == 0.0

    def test_harm_no_feedback(self):
        assert proxy_harm(_log([(0, False, 100.0)])) == 0.0

    def test_harm_single_event(self):
        log = _log([(0, False, 100.0)], feedback=[("misinformation", 2.0, 1.0)])
        assert proxy_harm(log) == pytest.approx(0.02)

    def test_harm_mixed_ledger(self):
        log = _log(
            [(0, False, 150.0), (1, True, 50.0)],
            feedback=[("clickbait", 1.0, 8.0), ("misinformation", 3.0, 2.0),
                      ("fraud", 10.0, 0.5)],
        )
        # (8 + 6 + 5) / 200
        assert proxy_harm(log) == pytest.approx(0.095)

    def test_churn_gap(self):
        assert proxy_churn_gap(ChurnCohorts(0.12, 0.08, 0.10)) == pytest.approx(0.4)
        assert proxy_churn_gap(ChurnCohorts(0.1, 0.1, 0.2)) == 0.0

    def test_churn_zero_baseline_guard(self):
        with pytest.raises(ZeroBaseline):
            proxy_churn_gap(ChurnCohorts(0.1, 0.05, 0.0))

    def test_detection_gap(self):
        assert proxy_detection_gap(DetectorReport(0.9, 0.9)) == 0.0
        assert proxy_detection_gap(DetectorReport(0.45, 0.9)) == pytest.approx(0.5)

    def test_detection_gap_negative_reported_as_is(self):
        assert proxy_detection_gap(DetectorReport(0.99, 0.9)) == pytest.approx(-0.1)


class TestSynthesizeLog:
    def _state(self, populations, params, q_h=10.0, q_l=30.0, trust=0.4):
        platform = make_platform()
        (rho,), _, _ = exposure(
            np.array([q_h]), np.array([q_l]), Postures.of([platform]), populations, params
        )
        return MarketState(
            tick=5, q_h=q_h, q_l=q_l, pollution=rho, verify_rate=0.3,
            precision=0.75, trust=trust, welfare=100.0,
        ), platform

    def test_zero_noise_is_deterministic_without_consuming_randomness(self, params, populations):
        state, platform = self._state(populations, params)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = synthesize_log(state, platform, rng1, 0.0, params=params)
        b = synthesize_log(state, platform, rng2, 0.0, params=params)
        assert a == b
        # noise 0 draws nothing, so the stream is untouched
        assert rng1.uniform() == np.random.default_rng(5).uniform()

    def test_same_seed_same_noisy_log(self, params, populations):
        state, platform = self._state(populations, params)
        a = synthesize_log(state, platform, np.random.default_rng(9), 0.2, params=params)
        b = synthesize_log(state, platform, np.random.default_rng(9), 0.2, params=params)
        assert a == b

    def test_exposure_proxy_coheres_with_pollution_dimension(self, params, populations):
        state, platform = self._state(populations, params, q_h=7.0, q_l=13.0)
        log = synthesize_log(state, platform, np.random.default_rng(0), 0.0, params=params)
        assert abs(proxy_exposure(log) - state.pollution) < 1e-9

    def test_zero_pollution_means_zero_exposure(self, params, populations):
        state, platform = self._state(populations, params, q_h=10.0, q_l=0.0)
        log = synthesize_log(state, platform, np.random.default_rng(0), 0.0, params=params)
        assert proxy_exposure(log) == 0.0

    def test_proxy_composite_in_unit_interval(self, params, populations):
        state, platform = self._state(populations, params)
        log = synthesize_log(state, platform, np.random.default_rng(3), 0.2, params=params)
        assert 0.0 <= proxy_composite(log) <= 1.0
