"""Market-clearing tests: pollution, the verification fixed point, trust, welfare."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket import market
from infomarket.agents import PlatformState, consumer_posterior, verification_threshold
from infomarket.config import SimParams
from infomarket.errors import NoConvergence
from infomarket.harness import Simulation
from infomarket.market import (
    ConsumerPool,
    MarketState,
    Postures,
    TrustParams,
    _base_costs,
    _platform_from_params,
    clear_market,
    harmful_exposure,
    pollution_density,
    signal_precision,
    solve_verification_fixed_point,
    static_equilibrium_welfare,
    steady_state_trust,
    supply_response,
    trust_update,
    welfare_anchors,
    welfare_value,
)


def make_platform(**kwargs) -> PlatformState:
    defaults = dict(
        gamma_h=1.0, gamma_l=1.0, moderation=0.0, revenue_share=0.25,
        ad_rate=4.0, lr_gamma=0.05, lr_mod=0.05, trust_price=50.0,
    )
    defaults.update(kwargs)
    return PlatformState(**defaults)


class TestPollutionDensity:
    def test_no_low_quality_means_clean(self):
        assert pollution_density(5.0, 0.0, make_platform()) == 0.0

    def test_full_moderation_means_clean(self):
        assert pollution_density(1.0, 50.0, make_platform(moderation=1.0)) == 0.0

    def test_symmetric_case(self):
        assert pollution_density(3.0, 3.0, make_platform()) == pytest.approx(0.5)

    def test_empty_market_convention(self):
        assert pollution_density(0.0, 0.0, make_platform()) == 0.0

    @given(
        q_h=st.floats(0, 1e4), q_l=st.floats(0, 1e4),
        gamma_h=st.floats(0, 2), gamma_l=st.floats(0, 2), m=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_zero_iff(self, q_h, q_l, gamma_h, gamma_l, m):
        platform = make_platform(gamma_h=gamma_h, gamma_l=gamma_l, moderation=m)
        rho = pollution_density(q_h, q_l, platform)
        assert 0.0 <= rho <= 1.0
        effective_low = gamma_l * (1 - m) * q_l
        if effective_low == 0.0:
            assert rho == 0.0
        elif effective_low > 1e-12:  # above float underflow scales
            assert rho > 0.0


class TestSignalPrecision:
    def test_clean_baseline(self):
        assert signal_precision(0.0, 0.0, 0.0) == pytest.approx(0.85)

    def test_floor_clamp(self):
        assert signal_precision(1.0, 0.0, 0.0, kappa_pollution=5.0) == 0.5

    def test_ceiling_clamp(self):
        assert signal_precision(0.0, 1.0, 0.5) == 1.0

    def test_default_affine_form(self):
        # 0.85 - 0.3 * 0.5 + 0.1 * 0.4 = 0.74
        assert signal_precision(0.5, 0.4, 0.0) == pytest.approx(0.74, rel=1e-12)

    def test_interior_monotonicity(self):
        assert signal_precision(0.6, 0.2, 0.0) < signal_precision(0.4, 0.2, 0.0)
        assert signal_precision(0.4, 0.4, 0.0) > signal_precision(0.4, 0.1, 0.0)


class TestConsumerPool:
    def test_cdf_matches_step_ecdf_at_knots(self):
        pool = ConsumerPool([1.0, 2.0, 2.0, 4.0])
        assert pool.cdf(1.0) == pytest.approx(0.25)
        assert pool.cdf(2.0) == pytest.approx(0.75)
        assert pool.cdf(4.0) == 1.0
        assert pool.cdf(5.0) == 1.0
        assert pool.cdf(0.0) == 0.0

    def test_cdf_is_continuous_between_knots(self):
        pool = ConsumerPool([1.0, 3.0])
        assert pool.cdf(2.0) == pytest.approx(0.75)  # linear between (1, .5) and (3, 1)

    def test_spend_accumulates_covered_costs(self):
        pool = ConsumerPool([0.5, 1.0, 2.0])
        assert pool.spend(1.0) == pytest.approx(1.5)
        assert pool.spend(10.0) == pytest.approx(3.5)
        assert pool.spend(0.0) == 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            ConsumerPool([])


class TestVerificationFixedPoint:
    def test_free_verification_saturates(self, params):
        pool = ConsumerPool([0.0] * 10)
        v, _ = solve_verification_fixed_point(0.5, pool, 0.0, params=params)
        assert v == pytest.approx(1.0)

    def test_no_benefit_means_zero_cost_verifiers_only(self, params):
        pool = ConsumerPool([0.0, 0.0, 1.0, 2.0])
        v, _ = solve_verification_fixed_point(0.5, pool, 0.0, params=params,
                                              du_h=0.0, du_l=0.0)
        assert v == pytest.approx(0.5)  # the two zero-cost consumers

    def test_residual_meets_tolerance(self, params, populations):
        pool = populations.consumers
        v, precision = solve_verification_fixed_point(0.6, pool, 0.0, params=params)
        pi = signal_precision(0.6, v, 0.0)
        post = consumer_posterior(1.0 - 0.6, "H", pi)
        mapped = pool.cdf(verification_threshold(post, 0.5, 2.0))
        assert abs(mapped - v) < 1e-8
        assert precision == pytest.approx(pi)

    def test_grid_scan_oracle_agreement(self, params, populations):
        pool = populations.consumers

        def mapping(v: float) -> float:
            pi = signal_precision(0.6, v, 0.0)
            post = consumer_posterior(0.4, "H", pi)
            return pool.cdf(verification_threshold(post, 0.5, 2.0))

        grid = np.linspace(0.0, 1.0, 100_001)
        residual = np.array([mapping(x) for x in grid]) - grid
        idx = int(np.argmax(residual < 0))
        # linear interpolation of the sign crossing
        x0, x1 = grid[idx - 1], grid[idx]
        y0, y1 = residual[idx - 1], residual[idx]
        crossing = x0 + (x1 - x0) * y0 / (y0 - y1)
        v, _ = solve_verification_fixed_point(0.6, pool, 0.0, params=params)
        assert v == pytest.approx(crossing, abs=1e-4)

    def test_damped_iterates_stay_bounded(self, params, populations):
        for rho in np.linspace(0.0, 1.0, 21):
            v, _ = solve_verification_fixed_point(float(rho), populations.consumers,
                                                  0.0, params=params)
            assert 0.0 <= v <= 1.0

    def test_exhausted_budget_raises(self, populations):
        strict = SimParams().with_overrides({"market.fp_tol": 0.0, "market.fp_max_iter": 50})
        with pytest.raises(NoConvergence):
            solve_verification_fixed_point(0.6, populations.consumers, 0.0, params=strict)


class TestTrustUpdate:
    CFG = TrustParams(decay=0.05, pollution_hit=0.2, repair_gain=1.0,
                      repair_flow=0.0, t_max=1.0)

    def test_pure_decay(self):
        assert trust_update(0.8, 0.0, 0.0, self.CFG) == pytest.approx(0.8 * 0.95)

    def test_lower_clamp(self):
        assert trust_update(0.0, 1.0, 10.0, self.CFG) == 0.0

    def test_single_euler_step(self):
        cfg = TrustParams(decay=0.05, pollution_hit=0.2, repair_gain=1.0,
                          repair_flow=0.01, t_max=1.0)
        got = trust_update(0.5, 0.5, 1.0, cfg)
        assert got == pytest.approx(0.385, rel=1e-12)

    @given(
        trust=st.floats(0, 1), i1=st.floats(0, 1), flow=st.floats(0, 100),
        decay=st.floats(0.01, 0.99), hit=st.floats(0.001, 5.0),
        gain=st.floats(0, 5), flow_r=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_confinement(self, trust, i1, flow, decay, hit, gain, flow_r):
        cfg = TrustParams(decay=decay, pollution_hit=hit, repair_gain=gain,
                          repair_flow=flow_r, t_max=1.0)
        assert 0.0 <= trust_update(trust, i1, flow, cfg) <= 1.0


class TestWelfare:
    def test_empty_market_is_zero(self, params):
        w = welfare_value(
            q_h=0.0, q_l=0.0, verify_rate=0.0, precision=0.85, trust=0.0,
            platform=make_platform(), producer_profit=0.0, platform_profit=0.0,
            verification_spend=0.0, params=params,
        )
        assert w == 0.0

    def test_exactly_linear_in_trust_price(self, params):
        kwargs = dict(
            q_h=10.0, q_l=20.0, verify_rate=0.3, precision=0.7, trust=0.4,
            platform=make_platform(), producer_profit=15.0, platform_profit=12.0,
            verification_spend=3.0,
        )
        doubled = params.with_overrides({"welfare.lambda_trust": 20.0})
        base = welfare_value(params=params, **kwargs)
        more = welfare_value(params=doubled, **kwargs)
        assert more - base == pytest.approx(10.0 * 0.4, rel=1e-12)

    def test_exactly_linear_in_value_coefficient(self, params):
        kwargs = dict(
            q_h=10.0, q_l=20.0, verify_rate=0.3, precision=0.7, trust=0.4,
            platform=make_platform(), producer_profit=15.0, platform_profit=12.0,
            verification_spend=3.0,
        )
        doubled = params.with_overrides({"welfare.value_h": 2.0})
        base = welfare_value(params=params, **kwargs)
        more = welfare_value(params=doubled, **kwargs)
        assert more - base == pytest.approx(1.0 * 1.0 * 10.0, rel=1e-12)

    def test_harmful_exposure_components(self):
        platform = make_platform(gamma_l=2.0, moderation=0.25)
        x = harmful_exposure(10.0, platform, verify_rate=0.5, precision=0.8)
        assert x == pytest.approx(2.0 * 0.75 * 10.0 * 0.5 * 0.2, rel=1e-12)


class TestMarketStateInvariants:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            MarketState(tick=0, q_h=0, q_l=0, pollution=1.2, verify_rate=0,
                        precision=0.85, trust=0.5, welfare=0)
        with pytest.raises(ValueError):
            MarketState(tick=0, q_h=0, q_l=0, pollution=0, verify_rate=0,
                        precision=0.4, trust=0.5, welfare=0)


class TestAnchors:
    def test_planner_beats_worst_corner(self, populations, params):
        w_so, w_min = welfare_anchors(populations, params)
        assert w_so > w_min

    def test_static_corner_is_reproducible(self, populations, params):
        corner = Postures.of([make_platform(gamma_l=2.0, gamma_h=1.0, moderation=0.0)])
        a = static_equilibrium_welfare(populations, corner, params)
        b = static_equilibrium_welfare(populations, corner, params)
        assert a.shape == (1,)
        assert a == b


def scalar_welfare(populations, posture, params, tax):
    """Long-run welfare of one pinned posture through the single-posture chain."""
    cost_h_base, cost_l_base = _base_costs(params, params.econ.ai_rental)
    supply = supply_response(
        populations.producers, Postures.of([posture]),
        cost_h_base=cost_h_base, cost_l_base=cost_l_base, gen_boost=1.0, tax=tax,
    )
    q_h, q_l, profit = (float(a[0]) for a in (supply.q_h, supply.q_l, supply.producer_profit))
    cleared = clear_market(q_h, q_l, posture, populations, 0.0, params)
    trust = steady_state_trust(cleared.pollution, cleared.flow, params.trust)
    return float(cleared.welfare(trust, profit, params))


def scalar_anchor_loop(populations, params):
    """The per-posture anchor search that the batched `welfare_anchors` replaced."""
    ip = params.ipi
    base = _platform_from_params(params)
    w_min = scalar_welfare(
        populations, replace(base, moderation=0.0, gamma_l=base.gamma_max), params, 0.0
    )
    best = -math.inf
    for m in np.linspace(0.0, 1.0, ip.anchor_m_points):
        for gh in np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points):
            for gl in np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points):
                posture = replace(base, moderation=float(m), gamma_h=float(gh), gamma_l=float(gl))
                for tax in np.linspace(0.0, ip.anchor_tax_max, ip.anchor_tax_points):
                    w = scalar_welfare(populations, posture, params, float(tax))
                    if w > best:
                        best = w
    return best, w_min


GAMMA_MAX = SimParams().platform.gamma_max
TAX_MAX = SimParams().ipi.anchor_tax_max
LANE = st.tuples(  # (gamma_h, gamma_l, moderation, tax)
    st.floats(0.0, GAMMA_MAX), st.floats(0.0, GAMMA_MAX), st.floats(0.0, 1.0), st.floats(0.0, TAX_MAX)
)


class TestBatchedClearing:
    """Batched clearing equals the single-posture chain exactly, lane by lane."""

    @given(lanes=st.lists(LANE, min_size=1, max_size=6))
    @example(lanes=[(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 1.0, 0.0)])
    @example(lanes=[(1.0, 1.5, m, 0.5) for m in (0.0, 0.5, 1.0)])  # lanes sharing supply
    # A moderation whose libm square is not m * m, where that reaches welfare.
    @example(lanes=[(0.17828410908208792, 1.9738710253246363, 0.8260631250344754, 0.19073918649769706)])
    @settings(max_examples=150, deadline=None)
    def test_every_lane_equals_the_scalar_chain(self, populations, params, lanes):
        platforms = [make_platform(gamma_h=gh, gamma_l=gl, moderation=m) for gh, gl, m, _ in lanes]
        tax = np.array([lane[3] for lane in lanes])
        batched = static_equilibrium_welfare(populations, Postures.of(platforms), params, tax=tax)
        expected = [scalar_welfare(populations, p, params, t) for p, t in zip(platforms, tax.tolist())]
        assert batched.tolist() == expected

    @given(lanes=st.lists(LANE, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_supply_rows_equal_one_dimensional_dots(self, populations, params, lanes):
        pool = populations.producers
        platforms = [make_platform(gamma_h=gh, gamma_l=gl, moderation=m) for gh, gl, m, _ in lanes]
        tax = [lane[3] for lane in lanes]
        cost_h, cost_l = _base_costs(params, 0.8)
        supply = supply_response(pool, Postures.of(platforms), cost_h_base=cost_h,
                                 cost_l_base=cost_l, gen_boost=1.3, tax=np.array(tax), extra_q_l=2.5)
        for i, (p, t) in enumerate(zip(platforms, tax)):
            # The one-posture supply with 1-D `np.dot` reductions, as before batching.
            margin = (1.0 - p.revenue_share) * p.ad_rate
            pi_h = margin * p.gamma_h - cost_h / pool.prod_h
            pi_l = margin * p.gamma_l - cost_l / (pool.prod_l * 1.3) - t
            prob_h = 1.0 / (1.0 + np.exp(-np.clip(pool.rationality * (pi_h - pi_l), -700.0, 700.0)))
            q_h = float(np.dot(prob_h, pool.weight_h))
            q_l = float(np.dot(1.0 - prob_h, pool.weight_l)) + 2.5
            profit = float(np.dot(prob_h, pool.weight_h * pi_h)
                           + np.dot(1.0 - prob_h, pool.weight_l * (pi_l + t)))
            assert (supply.q_h[i], supply.q_l[i], supply.producer_profit[i]) == (q_h, q_l, profit)

    @pytest.mark.parametrize("seed", [42, 1, 7, 1790146652])
    def test_anchors_equal_the_per_posture_loop(self, seed):
        for r, sigma_l in ((1.0, 1.5), (0.6, 1.2), (1.4, 1.8), (0.2, 1.05)):
            params = SimParams().with_overrides({"econ.ai_rental": r, "econ.sigma_l": sigma_l})
            sim = Simulation(params, None, seed)
            assert (sim.w_so, sim.w_min) == scalar_anchor_loop(sim.populations, params)

    def test_unmet_tolerance_raises_like_the_loop(self, populations):
        strict = SimParams().with_overrides({"market.fp_tol": 0.0, "market.fp_max_iter": 50})
        with pytest.raises(NoConvergence) as loop:
            scalar_anchor_loop(populations, strict)
        with pytest.raises(NoConvergence, match=r"after 50 iterations \(pollution=") as batched:
            welfare_anchors(populations, strict)
        assert str(batched.value) == str(loop.value)

    def test_lane_input_checks(self, populations, params):
        lanes = Postures.of([make_platform(), make_platform()])
        with pytest.raises(ValueError, match="outputs must be nonnegative"):
            market._clear_lanes(np.ones(2), np.array([1.0, -1.0]), lanes, populations, params)
        nan_signal = params.with_overrides({"market.pi_base": float("nan")})
        with pytest.raises(ValueError, match="precision must lie"):
            solve_verification_fixed_point(0.5, populations.consumers, params=nan_signal)
        with pytest.raises(ValueError, match="precision must lie"):
            welfare_anchors(populations, nan_signal)

    def test_one_supply_call_per_tick_and_one_batch_per_anchor_search(self, monkeypatch):
        calls = Counter()
        for name in ("supply_response", "static_equilibrium_welfare"):
            def counted(*args, _name=name, _fn=getattr(market, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(market, name, counted)
        params = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
        sim = Simulation(params, None, 42)
        assert calls["static_equilibrium_welfare"] == 1
        calls.clear()
        for _ in range(5):
            sim.advance()
        assert calls["supply_response"] == 5
