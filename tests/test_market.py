"""Market-clearing tests: pollution, the verification fixed point, trust, welfare."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket import harness, market
from infomarket.agents import Postures, consumer_posterior, verification_threshold
from infomarket.config import SimParams
from infomarket.errors import ConfigError, NoConvergence
from infomarket.harness import Simulation, build_overlays
from infomarket.market import (
    ConsumerPool,
    TrustParams,
    _base_costs,
    exposure,
    harmful_exposure,
    market_step,
    signal_precision,
    solve_verification_fixed_point,
    static_equilibrium_welfare,
    steady_state_trust,
    supply_response,
    trust_update,
    welfare_anchors,
    welfare_value,
)


T_MAX = SimParams().trust.t_max
GAMMA_MAX = SimParams().platform.gamma_max


def make_platform(gamma_h=1.0, gamma_l=1.0, moderation=0.0) -> Postures:
    return Postures(gamma_h, gamma_l, moderation)


def pollution(q_h, q_l, platform, populations, params) -> float:
    """Pollution of one lane, as the clearing computes it."""
    rho, _, _ = exposure(
        np.array([q_h]), np.array([q_l]), Postures.of([platform]), populations, params
    )
    return float(rho[0])


class TestPollutionDensity:
    def test_no_low_quality_means_clean(self, populations, params):
        assert pollution(5.0, 0.0, make_platform(), populations, params) == 0.0

    def test_full_moderation_means_clean(self, populations, params):
        assert pollution(1.0, 50.0, make_platform(moderation=1.0), populations, params) == 0.0

    def test_symmetric_case(self, populations, params):
        assert pollution(3.0, 3.0, make_platform(), populations, params) == pytest.approx(0.5)

    def test_empty_market_convention(self, populations, params):
        assert pollution(0.0, 0.0, make_platform(), populations, params) == 0.0

    @given(
        q_h=st.floats(0, 1e4), q_l=st.floats(0, 1e4),
        gamma_h=st.floats(0, 2), gamma_l=st.floats(0, 2), m=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_zero_iff(self, populations, params, q_h, q_l, gamma_h, gamma_l, m):
        platform = make_platform(gamma_h=gamma_h, gamma_l=gamma_l, moderation=m)
        rho = pollution(q_h, q_l, platform, populations, params)
        assert 0.0 <= rho <= 1.0
        effective_low = gamma_l * (1 - m) * q_l
        if effective_low == 0.0:
            assert rho == 0.0
        elif effective_low > 1e-12:  # above float underflow scales
            assert rho > 0.0


class TestSignalPrecision:
    MARKET = SimParams().market

    def test_clean_baseline(self):
        assert signal_precision(0.0, 0.0, 0.0, self.MARKET) == pytest.approx(0.85)

    def test_floor_clamp(self):
        steep = replace(self.MARKET, kappa_pollution=5.0)
        assert signal_precision(1.0, 0.0, 0.0, steep) == 0.5

    def test_ceiling_clamp(self):
        assert signal_precision(0.0, 1.0, 0.5, self.MARKET) == 1.0

    def test_default_affine_form(self):
        # 0.85 - 0.3 * 0.5 + 0.1 * 0.4 = 0.74
        assert signal_precision(0.5, 0.4, 0.0, self.MARKET) == pytest.approx(0.74, rel=1e-12)

    def test_interior_monotonicity(self):
        mk = self.MARKET
        assert signal_precision(0.6, 0.2, 0.0, mk) < signal_precision(0.4, 0.2, 0.0, mk)
        assert signal_precision(0.4, 0.4, 0.0, mk) > signal_precision(0.4, 0.1, 0.0, mk)


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

    def test_cdf_over_an_array_equals_each_value(self):
        pool = ConsumerPool([0.0, 0.0, 1.0, 2.0, 2.0])
        k = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 9.0])
        assert pool.cdf(k).tolist() == [pool.cdf(x) for x in k.tolist()]
        assert pool.cdf(0.0) == 0.4  # the zero-cost consumers
        assert ConsumerPool([0.0, 0.0]).cdf(0.0) == 1.0

    @pytest.mark.parametrize("costs", [
        [1.0, 2.0, 2.0, 4.0],
        [0.0, 0.0, 1.0, 2.0, 2.0],
        [1.0],
        np.random.default_rng(42).uniform(0.0, 4.0, 200),
    ], ids=["ties", "zero costs", "one consumer", "uniform draw"])
    def test_a_float_gives_a_float_with_the_array_bits(self, costs):
        pool = ConsumerPool(costs)
        knots = pool.knot_k.tolist()
        thresholds = [x for k in knots
                      for x in (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))]
        thresholds += [-1.0, -0.0, math.nan, math.inf, knots[-1] + 1.0]
        for k in thresholds:
            alone = pool.cdf(k)
            with np.errstate(invalid="ignore"):  # 0 * inf in numpy's arithmetic
                oracle = pool.cdf(np.array(k))
            assert type(alone) is float
            assert bits(alone) == bits(oracle), k

    def test_spend_accumulates_covered_costs(self):
        pool = ConsumerPool([0.5, 1.0, 2.0])
        assert pool.spend(1.0) == pytest.approx(1.5)
        assert pool.spend(10.0) == pytest.approx(3.5)
        assert pool.spend(0.0) == 0.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            ConsumerPool([])

    def test_flat_past_the_largest_cost_at_any_magnitude(self):
        # Past 2**53 a unit step from the largest cost rounds away; the span
        # past it is 1.0 all the same, so the slope there is 0, not 0/0.
        pool = ConsumerPool([1e20])
        assert pool.cdf(2e20) == 1.0
        assert pool.segments(-1)[2:] == (1.0, 0.0)
        # Outlays summing past the largest float are inf, without a warning.
        assert ConsumerPool([1e308, 1.7e308]).spend(math.inf) == math.inf


class TestVerificationFixedPoint:
    def test_free_verification_saturates(self, params):
        pool = ConsumerPool([0.0] * 10)
        v, _, _ = solve_verification_fixed_point(0.5, pool, 0.0, params=params)
        assert v == pytest.approx(1.0)

    def test_no_benefit_means_zero_cost_verifiers_only(self, params):
        pool = ConsumerPool([0.0, 0.0, 1.0, 2.0])
        no_benefit = params.with_overrides({"agents.du_h": 0.0, "agents.du_l": 0.0})
        v, _, _ = solve_verification_fixed_point(0.5, pool, 0.0, params=no_benefit)
        assert v == pytest.approx(0.5)  # the two zero-cost consumers

    def test_residual_meets_tolerance(self, params, populations):
        pool = populations.consumers
        v, precision, _ = solve_verification_fixed_point(0.6, pool, 0.0, params=params)
        pi = signal_precision(0.6, v, 0.0, params.market)
        post = consumer_posterior(1.0 - 0.6, pi)
        mapped = pool.cdf(verification_threshold(post, 0.5, 2.0))
        assert abs(mapped - v) < 1e-8
        assert precision == pytest.approx(pi)

    def test_grid_scan_oracle_agreement(self, params, populations):
        pool = populations.consumers

        def mapping(v: float) -> float:
            pi = signal_precision(0.6, v, 0.0, params.market)
            post = consumer_posterior(0.4, pi)
            return pool.cdf(verification_threshold(post, 0.5, 2.0))

        grid = np.linspace(0.0, 1.0, 100_001)
        residual = np.array([mapping(x) for x in grid]) - grid
        idx = int(np.argmax(residual < 0))
        # linear interpolation of the sign crossing
        x0, x1 = grid[idx - 1], grid[idx]
        y0, y1 = residual[idx - 1], residual[idx]
        crossing = x0 + (x1 - x0) * y0 / (y0 - y1)
        v, _, _ = solve_verification_fixed_point(0.6, pool, 0.0, params=params)
        assert v == pytest.approx(crossing, abs=1e-4)

    def test_damped_iterates_stay_bounded(self, params, populations):
        for rho in np.linspace(0.0, 1.0, 21):
            v, _, _ = solve_verification_fixed_point(float(rho), populations.consumers,
                                                     0.0, params=params)
            assert 0.0 <= v <= 1.0

    def test_exhausted_budget_raises(self, populations):
        # No residual is below a zero tolerance.
        strict = SimParams().with_overrides({"market.fp_tol": 0.0})
        with pytest.raises(NoConvergence, match=r"residual \S+ not below market.fp_tol = "
                                                r"0\.000e\+00 \(pollution=0\.6000\)"):
            solve_verification_fixed_point(0.6, populations.consumers, 0.0, params=strict)

    @given(
        rho=st.floats(0.0, 1.0),
        provenance=st.floats(0.0, 0.2),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        k_max=st.floats(0.1, 6.0),
        du_l=st.floats(0.0, 3.0),
        du_share=st.floats(0.0, 1.0),
    )
    @example(rho=1.0, provenance=0.2, n=1, seed=0, k_max=1.0, du_l=2.0, du_share=0.25)
    @settings(max_examples=60, deadline=None)
    def test_exact_and_on_the_oracle_when_the_threshold_falls(
        self, rho, provenance, n, seed, k_max, du_l, du_share
    ):
        # du_h <= du_l: T falls in V, so T(V) - V crosses zero once.
        params = SimParams().with_overrides({"agents.du_h": du_l * du_share, "agents.du_l": du_l})
        pool = ConsumerPool(np.random.default_rng(seed).uniform(0.0, k_max, n))
        v, _, _ = solve_verification_fixed_point(rho, pool, provenance, params=params)
        gap = mapping(rho, provenance, pool, params)
        assert abs(gap(v) - v) <= 1e-12
        assert_on_grid_crossing(v, gap)

    @given(
        rho=st.floats(0.0, 1.0),
        provenance=st.floats(0.0, 0.2),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        pi_base=st.floats(0.3, 1.2),
        kappa_verify=st.floats(0.0, 2.0),
    )
    @example(rho=0.5, provenance=0.0, n=50, seed=3, pi_base=0.85, kappa_verify=0.0)  # flat
    @example(rho=0.99999, provenance=0.0, n=1, seed=0, pi_base=1.0, kappa_verify=1.0)
    @settings(max_examples=60, deadline=None)
    def test_clamped_precision_solves_to_the_nearest_floats(
        self, rho, provenance, n, seed, pi_base, kappa_verify
    ):
        # Precision clamps at 0.5 or 1 for some rates.  Where the posterior
        # is steep (a prior near 0 with precision near 1) no float need meet
        # 1e-12, so the bound is the best residual among the nearby floats.
        params = SimParams().with_overrides({
            "market.pi_base": pi_base, "market.kappa_verify": kappa_verify, "market.fp_tol": 1.0,
        })
        pool = ConsumerPool(np.random.default_rng(seed).uniform(0.0, 4.0, n))
        v, _, _ = solve_verification_fixed_point(rho, pool, provenance, params=params)
        gap = mapping(rho, provenance, pool, params)
        near = v + np.arange(-64, 65) * np.spacing(v)
        assert abs(gap(v) - v) <= max(1e-12, 128 * np.abs(gap(near) - near).min())
        assert_on_grid_crossing(v, gap)

    def test_no_float_meets_the_tolerance_near_a_jump(self):
        # Prior 1e-16 with a signal that reaches precision 1: the posterior,
        # and with it T, jumps from 1 to 0 between neighbouring floats near
        # V = 0.3, so no float is a fixed point to within any tolerance.
        params = SimParams().with_overrides({
            "agents.du_h": 0.0, "agents.du_l": 1.0, "market.pi_base": 1.0,
            "market.kappa_verify": 1.0,
        })
        pool = ConsumerPool([0.6])
        rho = 1.0 - 2.0**-53
        gap = mapping(rho, 0.0, pool, params)
        near = 0.3 + np.arange(-20, 21) * np.spacing(0.3)
        assert np.abs(gap(near) - near).min() > 0.1
        with pytest.raises(NoConvergence):
            solve_verification_fixed_point(rho, pool, params=params)

    def test_least_fixed_point_when_the_threshold_rises(self):
        # du_h > du_l makes T rise in V.  A fifth of the consumers verify at
        # any signal, one more at cost 3.7 and the rest at 3.9: T crosses V
        # near 0.21, again near 0.23, and everyone verifies at V = 1.
        params = SimParams().with_overrides({
            "agents.du_h": 4.0, "agents.du_l": 0.0, "market.kappa_verify": 1.0,
        })
        pool = ConsumerPool(THRESHOLD_RISES_POOL)
        gap = mapping(0.5, 0.0, pool, params)
        grid = np.linspace(0.0, 1.0, 100_001)
        sign = np.sign(gap(grid) - grid)
        assert np.count_nonzero(np.diff(sign[sign != 0])) >= 2
        assert gap(1.0) == 1.0
        v, _, _ = solve_verification_fixed_point(0.5, pool, 0.0, params=params)
        first = np.flatnonzero(gap(grid) - grid < 0.0)[0]
        assert grid[first - 1] <= v <= grid[first]
        assert abs(gap(v) - v) <= 1e-12


THRESHOLD_RISES_POOL = [0.5] * 20 + [3.7] + [3.9] * 79


def random_costs(n, seed, k_max, digits):
    """n uniform costs on [0, k_max], rounded to ``digits`` decimals (ties) unless None."""
    costs = np.random.default_rng(seed).uniform(0.0, k_max, n)
    return (costs if digits is None else np.round(costs, digits)).tolist()


class TestReachableKnotScan:
    """The scan over the knots a threshold can reach equals the full scan, bit for bit."""

    @given(
        rho=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        costs=st.builds(random_costs, st.integers(1, 250), st.integers(0, 2**32 - 1),
                        st.floats(0.1, 6.0), st.sampled_from([None, 0, 1])),
        du=st.tuples(*[st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 1e308]))] * 2),
        market_=st.tuples(st.floats(0.3, 1.2), st.floats(0.0, 1.0), st.floats(0.0, 2.0),
                          st.sampled_from([1e-8, 1e-15, 0.0])),
        provenance=st.floats(0.0, 0.2),
    )
    # du_h > du_l: T rises in V
    @example(rho=[0.5, 0.2, 0.9], costs=THRESHOLD_RISES_POOL, du=(4.0, 0.0),
             market_=(0.85, 0.3, 1.0, 1e-8), provenance=0.0)
    @example(rho=[0.0, 0.6, 1.0], costs=random_costs(200, 1, 4.0, None), du=(1.5, 1.5),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # du_h == du_l
    @example(rho=[0.0, 0.6, 1.0], costs=[0.0, 0.0, 1.0, 2.0], du=(0.0, 0.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # both 0
    @example(rho=[0.1, 0.6, 0.99], costs=random_costs(200, 42, 4.0, None), du=(0.5, 1e308),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.1)  # agents.du_l 1e308
    @example(rho=[0.0, 0.5, 1.0], costs=random_costs(200, 42, 0.4, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # k_max < min(du): no knot
    @example(rho=[0.0, 0.5, 1.0], costs=random_costs(200, 42, 1.5, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # no knot above max(du)
    @example(rho=[0.3, 0.6, 0.8], costs=random_costs(200, 7, 4.0, 0), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # tied costs
    @example(rho=[0.6], costs=[1.0], du=(0.5, 2.0), market_=(0.85, 0.3, 0.1, 1e-8),
             provenance=0.0)  # n = 1
    @example(rho=[0.6], costs=[1.0], du=(0.5, 2.0), market_=(0.85, 0.3, 0.1, 0.0),
             provenance=0.0)  # every lane misses the tolerance
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_scan(self, rho, costs, du, market_, provenance):
        pi_base, kappa_pollution, kappa_verify, fp_tol = market_
        params = SimParams().with_overrides({
            "agents.du_h": du[0], "agents.du_l": du[1], "market.pi_base": pi_base,
            "market.kappa_pollution": kappa_pollution, "market.kappa_verify": kappa_verify,
            "market.fp_tol": fp_tol,
        })
        pool, lanes = ConsumerPool(costs), np.array(rho)
        assert solve_or_error(solve_verification_fixed_point, lanes, pool, provenance,
                              params) == solve_or_error(full_scan_fixed_point, lanes, pool,
                                                        provenance, params)

    def test_infinite_utility_gaps_end_nowhere_as_the_full_scan(self, populations):
        # Outside the config's finite floats: the p = 0 bound is NaN, and
        # thresholds are inf or NaN (0 * inf), which numpy warns about.
        lanes = np.linspace(0.0, 1.0, 5)
        for du_h, du_l in ((math.inf, 2.0), (0.5, math.inf), (math.inf, math.inf)):
            params = replace(SimParams(), agents=replace(SimParams().agents, du_h=du_h,
                                                         du_l=du_l))
            with np.errstate(invalid="ignore"):
                outcomes = [solve_or_error(solve, lanes, populations.consumers, 0.0, params)
                            for solve in (solve_verification_fixed_point, full_scan_fixed_point)]
            assert outcomes[0] == outcomes[1]

    def test_a_default_world_scans_only_its_reachable_knots(self, monkeypatch):
        columns = []

        def spied(pollution, precision, params, _fn=market._threshold):
            if np.ndim(precision) == 2:  # the scan's block; the residual check is 1-D
                columns.append(np.shape(precision)[1])
            return _fn(pollution, precision, params)

        monkeypatch.setattr(market, "_threshold", spied)
        params = SimParams()
        sim = Simulation(params, None, 42)
        sim.advance()
        knot_k = sim.populations.consumers.knot_k
        ag = params.agents
        lo, hi = sorted((ag.du_h, ag.du_l))
        window = np.count_nonzero((knot_k > lo) & (knot_k <= hi)) + 1  # and the first above
        assert (knot_k.size, window) == (201, 72)
        assert columns and set(columns) == {window}


class TestOneLaneSolve:
    """A float lane is solved in Python floats; the 0-d array form, which
    `full_scan_fixed_point` also computes, is its oracle bit for bit."""

    NEAR_JUMP = dict(costs=[0.6], du=(0.0, 1.0), market_=(1.0, 0.3, 1.0, 1e-8), provenance=0.0)

    @given(
        rho=st.floats(0.0, 1.0),
        costs=st.builds(random_costs, st.integers(1, 250), st.integers(0, 2**32 - 1),
                        st.floats(0.1, 6.0), st.sampled_from([None, 0, 1])),
        du=st.tuples(*[st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 1e308]))] * 2),
        market_=st.tuples(st.floats(0.3, 1.2), st.floats(0.0, 1.0),
                          st.one_of(st.floats(0.0, 2.0), st.just(0.0)),
                          st.sampled_from([1e-8, 1e-15, 0.0])),
        provenance=st.floats(0.0, 0.2),
    )
    @example(rho=0.5, costs=random_costs(200, 1, 4.0, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.0, 1e-8), provenance=0.0)  # kappa_verify 0: a flat precision
    @example(rho=0.1, costs=random_costs(10, 714, 2.0, None), du=(0.5, 1.0),
             market_=(1.0, 0.0, 0.0, 1e-8), provenance=0.0)  # and on a clamp: 0 / 0 is NaN
    @example(rho=5e-324, costs=random_costs(200, 1, 4.0, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.0, 1e-8), provenance=0.0)  # the eager quotients divide by 0
    @example(rho=0.5, costs=random_costs(200, 42, 0.4, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # k_max < min(du): V = 1
    @example(rho=0.5, costs=random_costs(200, 42, 1.5, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # no knot above max(du)
    @example(rho=0.5, costs=THRESHOLD_RISES_POOL, du=(4.0, 0.0),
             market_=(0.85, 0.3, 1.0, 1e-8), provenance=0.0)  # du_h > du_l: T rises in V
    @example(rho=0.6, costs=random_costs(200, 42, 4.0, None), du=(0.5, 1e308),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.1)  # agents.du_l 1e308
    @example(rho=0.6, costs=random_costs(200, 42, 4.0, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 0.0), provenance=0.0)  # fp_tol 0: every lane misses
    @example(rho=0.0, **NEAR_JUMP)
    @example(rho=1.0, **NEAR_JUMP)
    @example(rho=1.0 - 2.0**-53, **NEAR_JUMP)  # no float meets the tolerance
    @settings(max_examples=1000, deadline=None)
    def test_equals_the_array_form(self, rho, costs, du, market_, provenance):
        pi_base, kappa_pollution, kappa_verify, fp_tol = market_
        params = SimParams().with_overrides({
            "agents.du_h": du[0], "agents.du_l": du[1], "market.pi_base": pi_base,
            "market.kappa_pollution": kappa_pollution, "market.kappa_verify": kappa_verify,
            "market.fp_tol": fp_tol,
        })
        pool = ConsumerPool(costs)
        for lane in (np.array(rho), np.array([rho])):
            assert solve_or_error(solve_verification_fixed_point, lane, pool, provenance,
                                  params) == solve_or_error(full_scan_fixed_point, lane, pool,
                                                            provenance, params)
        oracle = solve_or_error(full_scan_fixed_point, np.array(rho), pool, provenance, params)
        assert_float_solve_matches(rho, pool, provenance, params, oracle)

    def test_infinite_utility_gaps_on_one_lane(self, populations):
        # As `TestReachableKnotScan`'s batch, lane by lane: NaN and inf
        # thresholds never end a segment, and no float operation raises.
        for du_h, du_l in ((math.inf, 2.0), (0.5, math.inf), (math.inf, math.inf)):
            params = replace(SimParams(), agents=replace(SimParams().agents, du_h=du_h,
                                                         du_l=du_l))
            for rho in np.linspace(0.0, 1.0, 5).tolist():
                with np.errstate(invalid="ignore"):  # du_h > du_l scans its knots as arrays
                    oracle = solve_or_error(full_scan_fixed_point, np.array(rho),
                                            populations.consumers, 0.0, params)
                    assert_float_solve_matches(rho, populations.consumers, 0.0, params, oracle)

    def test_a_lone_solve_reads_the_cdf_once_with_a_float(self, monkeypatch, populations):
        # The bench's market.fp.iters_per_solve counts these calls.
        seen = []

        def spied(pool, k, _fn=ConsumerPool.cdf):
            seen.append(type(k))
            return _fn(pool, k)

        monkeypatch.setattr(ConsumerPool, "cdf", spied)
        for overrides in ({}, {"agents.du_h": 3.0, "agents.du_l": 0.5}):  # bisected, scanned
            params = SimParams().with_overrides(overrides)
            seen.clear()
            solve_verification_fixed_point(0.3, populations.consumers, params=params)
            assert seen == [float]
            seen.clear()
            solve_verification_fixed_point(np.array([0.1, 0.3]), populations.consumers,
                                           params=params)
            assert seen == [np.ndarray]

    def test_only_a_batch_calls_the_array_root(self, monkeypatch):
        sizes = []

        def spied(rho, *args, _fn=market._segment_root):
            sizes.append(rho.size if isinstance(rho, np.ndarray) else type(rho))
            return _fn(rho, *args)

        default = Simulation(SimParams(), None, 42)
        params = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
        worlds = [params.with_overrides({"econ.ai_rental": r})
                  for r in np.linspace(0.5, 1.5, 20).tolist()]
        sims = [Simulation(world, None, 42) for world in worlds]
        monkeypatch.setattr(market, "_segment_root", spied)
        default.advance()
        assert sizes == [float]  # a world cleared alone solves its one lane as a float
        sizes.clear()
        paths = [build_overlays(3, (), world) for world in worlds]
        for overlays in zip(*paths):
            harness._step(sims, overlays)
        assert sizes == [20] * 3  # one 20-lane batch per tick
        sizes.clear()
        welfare_anchors(sims[0].populations, params)
        assert len(sizes) == 1 and sizes[0] > 1  # the anchors: one batch of distinct pollutions

    def test_a_weighing_batch_clears_its_table_in_one_solve(self, monkeypatch):
        # Every world's posted lane and each weighing world's two weight lanes.
        sizes = []

        def spied(rho, *args, _fn=market._segment_root):
            sizes.append(rho.size if isinstance(rho, np.ndarray) else type(rho))
            return _fn(rho, *args)

        params = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
        worlds = [params.with_overrides({"econ.ai_rental": r,
                                         "ipi.endogenous_weights": w % 2 == 0})
                  for w, r in enumerate(np.linspace(0.5, 1.5, 20).tolist())]
        sims = [Simulation(world, None, 42) for world in worlds]
        monkeypatch.setattr(market, "_segment_root", spied)
        for overlays in zip(*[build_overlays(3, (), world) for world in worlds]):
            harness._step(sims, overlays)
        assert sizes == [20 + 2 * 10] * 3  # n + 2k lanes, one solve per tick

    def test_a_lone_world_clears_its_lane_as_floats(self, monkeypatch):
        seen = []

        def spied(rho, *args, _fn=market.solve_verification_fixed_point, **kwargs):
            seen.append(type(rho))
            return _fn(rho, *args, **kwargs)

        lone = Simulation(SimParams(), None, 42)
        weighing = Simulation(SimParams().with_overrides({"ipi.endogenous_weights": True}),
                              None, 42)
        monkeypatch.setattr(market, "solve_verification_fixed_point", spied)
        lone.advance()
        weighing.advance()  # three lanes: the posted one and the two weight lanes
        assert seen == [float, float, float, float]


class TestBisectedKnotScan:
    """With du_h <= du_l a one-lane solve finds its end knot by bisecting the
    reachable knots in Python floats; the full scan of every knot
    (`full_scan_fixed_point`) is its oracle, bit for bit."""

    @given(
        rho=st.floats(0.0, 1.0),
        costs=st.builds(random_costs, st.integers(1, 250), st.integers(0, 2**32 - 1),
                        st.floats(0.1, 6.0), st.sampled_from([None, 0, 1])),
        du=st.tuples(st.floats(0.0, 5.0),
                     st.one_of(st.floats(0.0, 5.0), st.just(1e308))).map(sorted).map(tuple),
        market_=st.tuples(st.floats(0.3, 1.2), st.floats(0.0, 1.0),
                          st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-300, 1e-16])),
                          st.sampled_from([1e-8, 1e-15, 0.0])),
        provenance=st.floats(0.0, 0.2),
    )
    # precision steps below an ulp: the window's thresholds tie
    @example(rho=0.5, costs=random_costs(200, 1, 4.0, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 1e-300, 1e-8), provenance=0.0)
    @example(rho=0.5, costs=random_costs(200, 1, 4.0, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 1e-16, 1e-8), provenance=0.0)
    @example(rho=0.3, costs=random_costs(200, 7, 4.0, 0), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # tied costs
    @example(rho=0.6, costs=random_costs(200, 1, 4.0, None), du=(1.5, 1.5),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # du_h == du_l
    @example(rho=0.5, costs=random_costs(200, 42, 0.4, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # k_max < min(du): no window
    @example(rho=0.5, costs=random_costs(200, 42, 1.5, None), du=(0.5, 2.0),
             market_=(0.85, 0.3, 0.1, 1e-8), provenance=0.0)  # no knot above max(du)
    @example(rho=0.6, costs=[1.0], du=(0.5, 2.0), market_=(0.85, 0.3, 0.1, 1e-8),
             provenance=0.0)  # one consumer
    @example(rho=1.0, costs=random_costs(200, 1, 4.0, 0), du=(0.0, 1.0),
             market_=(0.85, 0.3, 1.0, 1e-8), provenance=0.0)  # k* = du_l, a knot's cost
    @example(rho=0.0, **TestOneLaneSolve.NEAR_JUMP)
    @example(rho=2.0**-53, **TestOneLaneSolve.NEAR_JUMP)
    @example(rho=1.0 - 2.0**-53, **TestOneLaneSolve.NEAR_JUMP)  # no float meets the tolerance
    @example(rho=1.0, **TestOneLaneSolve.NEAR_JUMP)
    @settings(max_examples=1000, deadline=None)
    def test_equals_the_full_scan(self, rho, costs, du, market_, provenance):
        pi_base, kappa_pollution, kappa_verify, fp_tol = market_
        params = SimParams().with_overrides({
            "agents.du_h": du[0], "agents.du_l": du[1], "market.pi_base": pi_base,
            "market.kappa_pollution": kappa_pollution, "market.kappa_verify": kappa_verify,
            "market.fp_tol": fp_tol,
        })
        pool = ConsumerPool(costs)
        outcomes = [solve_or_error(solve, lane, pool, provenance, params)
                    for lane in (np.array(rho), np.array([rho]))
                    for solve in (solve_verification_fixed_point, full_scan_fixed_point)]
        assert outcomes[0] == outcomes[1] and outcomes[2] == outcomes[3]
        # A float in gives floats out, with the 0-d solve's bits and errors.
        assert_float_solve_matches(rho, pool, provenance, params, outcomes[0])
        # Step 1 itself, since two end knots can give the same root: the
        # bisection's and the one-lane scan's end knot is the full scan's.
        (end,) = full_scan_ends(np.array([rho]), pool, provenance, params).tolist()
        bisected = market._segment_ends(rho, pool, provenance, params)
        scanned = market._segment_ends(np.array([rho]), pool, provenance, params)
        assert type(bisected) is int and (bisected, scanned.tolist()) == (end, [end])

    def test_only_a_lone_lane_bisects(self, monkeypatch):
        calls = []

        def spied(pollution, precision, params, _fn=market._threshold):
            calls.append(None if isinstance(precision, float) else np.shape(precision))
            return _fn(pollution, precision, params)

        def blocks():  # the scan's; the residual check's are 1-D
            return [shape for shape in calls if shape is not None and len(shape) == 2]

        monkeypatch.setattr(market, "_threshold", spied)
        default = Simulation(SimParams(), None, 42)
        window = reachable_knots(default.populations.consumers, default.params)
        calls.clear()
        default.advance()
        # The bisection's thresholds, the two clamps' and the residual
        # check's, all floats
        assert calls and set(calls) == {None}
        assert len(calls) <= math.ceil(math.log2(window + 1)) + 3
        # A lone world that weighs its index bisects each of its three lanes.
        weighing = Simulation(SimParams().with_overrides({"ipi.endogenous_weights": True}),
                              None, 42)
        weighing.advance()
        window = reachable_knots(weighing.populations.consumers, weighing.params)
        calls.clear()
        weighing.advance()
        assert calls and set(calls) == {None}
        assert len(calls) <= 3 * (math.ceil(math.log2(window + 1)) + 3)
        # A batch of 20 worlds and a lone world whose threshold rises in V
        # scan a block.
        small = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
        worlds = [small.with_overrides({"econ.ai_rental": r})
                  for r in np.linspace(0.5, 1.5, 20).tolist()]
        sims = [Simulation(world, None, 42) for world in worlds]
        calls.clear()
        harness._step(sims, [build_overlays(1, (), world)[0] for world in worlds])
        assert blocks() == [(20, reachable_knots(sims[0].populations.consumers, small))]
        rising = Simulation(SimParams().with_overrides({"agents.du_h": 3.0, "agents.du_l": 0.5}),
                            None, 42)
        rising.advance()
        calls.clear()
        rising.advance()
        assert blocks() == [(1, reachable_knots(rising.populations.consumers, rising.params))]


class TestFloatProbeLanes:
    """A lone world takes its seven supply lanes (eight when it weighs its
    index) as Python floats and runs every stage after supply in them: its
    table lanes' clearing, and each probe lane's `exposure`, `_lookahead`
    and the gradient step.  The array forms, which every batch runs, are
    their oracle bit for bit."""

    SPIED = ("exposure", "trust_update", "value_and_harm")

    def test_a_lone_world_runs_its_probe_lanes_as_floats(self, monkeypatch):
        seen = {name: set() for name in self.SPIED}
        for name in self.SPIED:
            def spied(*args, _name=name, _fn=getattr(market, name), **kwargs):
                for x in args:  # the lanes' values, and a posture's levers
                    xs = (x.gamma_h, x.gamma_l, x.moderation) if isinstance(x, Postures) else (x,)
                    seen[_name].update(type(v) for v in xs if isinstance(v, (float, np.ndarray)))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(market, name, spied)
        # Every world is built before the spies see a call: the anchors are arrays.
        small = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60,
                                            "policy.fiduciary": 0.5})
        worlds = [small.with_overrides({"econ.ai_rental": r})
                  for r in np.linspace(0.5, 1.5, 20).tolist()]
        lone = Simulation(SimParams().with_overrides({"policy.fiduciary": 0.5}), None, 42)
        batch = [Simulation(world, None, 42) for world in worlds]
        weighing = Simulation(SimParams().with_overrides({"ipi.endogenous_weights": True,
                                                          "policy.fiduciary": 0.5}), None, 42)
        for kind, tick in ((float, lone.advance),
                           (np.ndarray, lambda: harness._step(
                               batch, [build_overlays(1, (), world)[0] for world in worlds])),
                           (float, weighing.advance)):
            for calls in seen.values():
                calls.clear()
            tick()
            assert seen == {name: {kind} for name in self.SPIED}

    @given(
        posture=st.tuples(*[st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top))
                            for top in (GAMMA_MAX, GAMMA_MAX, 1.0)]),
        # 1e-300 is below an ulp of a lever near 1: both probes equal it, span 0.
        fd_step=st.sampled_from([1e-3, 0.1, 3.0, 1e-300]),
        fiduciary=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        trust=st.one_of(st.sampled_from([0.0, T_MAX]), st.floats(0.0, T_MAX)),
        # Outputs past 1e154 overflow the harm's square, and past 1e308 / 2
        # the value too: objectives of -inf and NaN.
        outputs=st.lists(st.tuples(*[st.one_of(
            st.floats(0.0, 1e3), st.sampled_from([0.0, 1e160, 1e300, 1.7e308]))] * 2),
            min_size=6, max_size=6),
        verify_rate=st.floats(0.0, 1.0),
        precision=st.floats(0.5, 1.0),
    )
    @example(posture=(0.0, GAMMA_MAX, 1.0), fd_step=1e-3, fiduciary=1.0, trust=T_MAX,
             outputs=[(1.7e308, 1e300)] * 6, verify_rate=0.0, precision=0.5)
    @example(posture=(1.0, 1.0, 0.0), fd_step=1e-300, fiduciary=0.5, trust=0.0,
             outputs=[(10.0, 30.0)] * 6, verify_rate=0.4, precision=0.8)
    @settings(max_examples=500, deadline=None)
    def test_float_lookahead_and_step_equal_the_array_forms(
        self, populations, posture, fd_step, fiduciary, trust, outputs, verify_rate, precision,
    ):
        params = SimParams().with_overrides({"platform.fd_step": fd_step})
        pf, producers = params.platform, populations.producers.n
        platform = Postures(*posture)
        row, = market._probes([platform], pf)
        probes = Postures.of([row]).take(np.s_[:, 1:7])
        q_h, q_l = (np.array([column]) for column in zip(*outputs))

        def arrays():
            exposed = exposure(q_h, q_l, probes, populations, params)
            objectives, trust_next = market._lookahead(
                probes, q_h, q_l, exposed, fiduciary, params, trust_now=np.array([[trust]]),
                verify_rate=np.array([[verify_rate]]), precision=np.array([[precision]]),
                producers=producers)
            return objectives.tolist(), trust_next.tolist()

        levers = [lever[1:7] for lever in (row.gamma_h, row.gamma_l, row.moderation)]

        def floats():
            outlook = []
            for p, h, l in zip((Postures(*lane) for lane in zip(*levers)), *zip(*outputs)):
                outlook.append(market._lookahead(
                    p, h, l, exposure(h, l, p, populations, params), fiduciary, params,
                    trust_now=trust, verify_rate=verify_rate, precision=precision,
                    producers=producers))
            assert all(type(x) is float for lane in outlook for x in lane)
            return tuple([list(x)] for x in zip(*outlook))

        def step(lookahead):
            # `_lookahead`'s rows, then the gradient step they give
            objectives, trust_next = lookahead()
            s, = market._platform_gradient_steps([platform], [row], objectives, trust_next, pf)
            return bits(*objectives[0], *trust_next[0]), bits(s.gamma_h, s.gamma_l, s.moderation)

        with np.errstate(all="ignore"):
            assert outcome_or_error(lambda: step(arrays)) == outcome_or_error(lambda: step(floats))

    @given(
        posture=st.tuples(*[st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top))
                            for top in (GAMMA_MAX, GAMMA_MAX, 1.0)]),
        fiduciary=st.sampled_from([0.0, 0.5, 1.0]),
        trust=st.one_of(st.sampled_from([0.0, T_MAX]), st.floats(0.0, T_MAX)),
        tax=st.sampled_from([0.0, 0.3]),
        # A burst past 1e154 overflows the harm's square.
        burst=st.sampled_from([0.0, 50.0, 1e160, 1e300]),
    )
    @example(posture=(GAMMA_MAX, GAMMA_MAX, 0.0), fiduciary=1.0, trust=T_MAX, tax=0.0, burst=1e300)
    @settings(max_examples=150, deadline=None)
    def test_a_lone_tick_equals_its_world_in_a_batch(self, populations, posture, fiduciary,
                                                     trust, tax, burst):
        params = SimParams().with_overrides({"policy.fiduciary": fiduciary})
        overlay = replace(build_overlays(1, (), params)[0], extra_q_l=burst)
        platform = Postures(*posture)

        def tick(worlds):
            columns, weighed, stepped = market_step(
                [trust] * worlds, populations, [platform] * worlds,
                [overlay] * worlds, [tax] * worlds, [None] * worlds, params)
            world = [column[0] for column in columns]
            return bits(*world), weighed, bits(stepped[0].gamma_h, stepped[0].gamma_l,
                                               stepped[0].moderation)

        with np.errstate(all="ignore"):
            assert outcome_or_error(lambda: tick(1)) == outcome_or_error(lambda: tick(2))

    @given(
        posture=st.tuples(*[st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top))
                            for top in (GAMMA_MAX, GAMMA_MAX, 1.0)]),
        fiduciary=st.sampled_from([0.0, 0.5]),
        trust=st.one_of(st.sampled_from([0.0, T_MAX]), st.floats(0.0, T_MAX)),
        # Past about 1.78e308 the scaled output overflows to inf.
        burst=st.sampled_from([0.0, 50.0, 1e160, 1e300, 1.79e308]),
        eps=st.sampled_from([0.01, 0.5]),
        # The stepped boost: 0 makes low-quality templates infinitely dear.
        stepped_boost=st.sampled_from([1.0, 1.3, 0.0, 1e300]),
        fp_tol=st.sampled_from([1e-8, 0.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_lone_weighing_tick_equals_its_world_in_a_batch(
        self, populations, posture, fiduciary, trust, burst, eps, stepped_boost, fp_tol,
    ):
        params = SimParams().with_overrides({"policy.fiduciary": fiduciary,
                                             "market.fp_tol": fp_tol})
        overlay = replace(build_overlays(1, (), params)[0], extra_q_l=burst)
        platform, step = Postures(*posture), (eps, stepped_boost)

        def tick(worlds):
            columns, weighed, stepped = market_step(
                [trust] * worlds, populations, [platform] * worlds,
                [overlay] * worlds, [0.0] * worlds, [step] * worlds, params)
            return (bits(*(column[0] for column in columns)), bits(*weighed[0]),
                    bits(stepped[0].gamma_h, stepped[0].gamma_l, stepped[0].moderation))

        with np.errstate(all="ignore"):
            assert outcome_or_error(lambda: tick(1)) == outcome_or_error(lambda: tick(2))

    def test_an_overflowing_scaled_lane_fails_first_alone_as_in_a_batch(self, populations):
        # At fp_tol 0 the posted lane misses the tolerance; its scaled lane's
        # output overflows to inf, and its exposure with it.  A batch checks
        # every lane's exposure before it solves any, and so does one world.
        params = SimParams().with_overrides({"market.fp_tol": 0.0})
        overlay = replace(build_overlays(1, (), params)[0], extra_q_l=1.79e308)
        platform = Postures(1.0, 0.5, 0.0)

        def tick(worlds, step):
            return outcome_or_error(lambda: market_step(
                [1.0] * worlds, populations, [platform] * worlds, [overlay] * worlds,
                [0.0] * worlds, [step] * worlds, params))

        with np.errstate(all="ignore"):
            assert tick(1, None).startswith("NoConvergence")
            step = (0.01, overlay.gen_boost)
            assert tick(1, step) == tick(2, step)
            assert tick(1, step).startswith(
                "ConfigError: amplified exposure leaves the floats: ipi.weight_perturbation")

    @pytest.mark.parametrize("overrides", [
        {},
        {"agents.du_h": 3.0, "agents.du_l": 0.5},  # the threshold rises: the scan path
        {"policy.fiduciary": 0.5, "policy.provenance_boost": 0.05},
    ], ids=["default", "rising", "fiduciary"])
    def test_a_lone_weighing_world_runs_as_beside_a_twin(self, monkeypatch, overrides):
        params = SimParams().with_overrides({**overrides, "ipi.endogenous_weights": True})
        lone, *pair = (Simulation(params, None, 42) for _ in range(3))
        weighed, ends = [], []

        def spied(*args, _fn=harness.market_step):
            result = _fn(*args)
            weighed.append(bits(*result[1][0]))
            return result

        def step_one(rho, *args, _fn=market._segment_ends):
            result = _fn(rho, *args)
            if isinstance(rho, float):  # the lone world's lanes; the pair's are an array
                ends.append(result)
            return result

        monkeypatch.setattr(harness, "market_step", spied)
        monkeypatch.setattr(market, "_segment_ends", step_one)
        crossings = []
        for tick, overlay in enumerate(build_overlays(150, (), params), start=1):
            ends.clear()
            (row,) = harness._step([lone], [overlay])
            rows = harness._step(pair, [overlay] * 2)
            assert repr(row) == repr(rows[0]) == repr(rows[1])
            assert weighed[0] == weighed[1]
            weighed.clear()
            if len(set(ends)) > 1:  # a weight lane's segment ends at another knot
                crossings.append(tick)
        if not overrides:
            assert crossings[:7] == [4, 6, 16, 21, 27, 28, 34]


def bits(*values) -> bytes:
    """The float64 bits of ``values``, NaN and -0.0 included."""
    return np.array(values, dtype=float).tobytes()


def outcome_or_error(run):
    """What ``run`` returns, or the type and message of the error it raises."""
    try:
        return run()
    except (ValueError, NoConvergence) as exc:
        return f"{type(exc).__name__}: {exc}"


def reachable_knots(consumers, params):
    """How many knots step 1 reads: those between the threshold's bounds,
    and the first above them if there is one."""
    lo, hi = sorted((params.agents.du_h, params.agents.du_l))
    knot_k = consumers.knot_k
    return min(np.count_nonzero(knot_k > lo), np.count_nonzero((knot_k > lo) & (knot_k <= hi)) + 1)


def solve_or_error(solve, lanes, pool, provenance, params):
    """The solve's (rate, precision, threshold) types, shapes, dtypes and
    bytes, or its NoConvergence message."""
    try:
        solved = solve(lanes, pool, provenance, params=params)
    except NoConvergence as exc:
        return str(exc)
    return tuple((type(x), np.shape(x), np.asarray(x).dtype, np.asarray(x).tobytes())
                 for x in solved)


def assert_float_solve_matches(rho, pool, provenance, params, oracle):
    """The solve of the float ``rho`` gives floats with the bits of
    ``oracle``, a 0-d array's `solve_or_error`, or the same error."""
    alone = solve_or_error(solve_verification_fixed_point, rho, pool, provenance, params)
    if isinstance(alone, str):
        assert alone == oracle
    else:
        assert all(x[0] is float for x in alone)
        assert [x[1:] for x in alone] == [x[1:] for x in oracle]


def full_scan_ends(lanes, consumers, provenance_boost, params):
    """Step 1 over every knot: each lane's first knot whose test k*(pi(V_i))
    < k_i is true, the test's argmax (0 if none is)."""
    end = np.empty(lanes.size, dtype=np.intp)
    for start in range(0, lanes.size, market._LANE_BLOCK):
        block = slice(start, start + market._LANE_BLOCK)
        r = lanes[block, None]
        pi = signal_precision(r, consumers.knot_v, provenance_boost, params.market)
        end[block] = np.argmax(market._threshold(r, pi, params) < consumers.knot_k, axis=1)
    return end


def full_scan_fixed_point(pollution, consumers, provenance_boost=0.0, *, params):
    """The solve as it was before the scan read only the reachable knots: the
    thresholds at every knot, step (1) of `solve_verification_fixed_point`."""
    mk = params.market
    rho = np.asarray(pollution, dtype=float)
    lanes = rho.reshape(-1)
    end = full_scan_ends(lanes, consumers, provenance_boost, params)
    v = market._segment_root(lanes, end, consumers, provenance_boost, params)
    precision = signal_precision(lanes, v, provenance_boost, mk)
    k_star = market._threshold(lanes, precision, params)
    resid = np.abs(consumers.cdf(k_star) - v)
    met = resid < mk.fp_tol
    if not met.all():
        i = np.flatnonzero(~met)[0]
        raise NoConvergence(f"verification fixed point: residual {resid[i]:.3e} not below "
                            f"market.fp_tol = {mk.fp_tol:.3e} (pollution={lanes[i]:.4f})")
    shape = rho.shape
    return v.reshape(shape)[()], precision.reshape(shape)[()], k_star.reshape(shape)[()]


def assert_on_grid_crossing(v, gap):
    """v lies where T(V) - V first turns negative on a dense grid (V = 1 if it never does)."""
    grid = np.linspace(0.0, 1.0, 20_001)
    below = np.flatnonzero(gap(grid) - grid < 0.0)
    if below.size == 0:
        assert v == 1.0
    else:
        assert grid[below[0] - 1] - 1e-12 <= v <= grid[below[0]] + 1e-12


def mapping(rho, provenance, pool, params):
    """T(V) of the verification fixed point, elementwise over V."""
    ag = params.agents

    def t(v):
        pi = signal_precision(rho, v, provenance, params.market)
        post = consumer_posterior(1.0 - rho, pi)
        return pool.cdf(verification_threshold(post, ag.du_h, ag.du_l))

    return t


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
        got = trust_update(trust, i1, flow, cfg)
        assert type(got) is float and 0.0 <= got <= 1.0
        # floats step as a one-lane array does, bit for bit
        lane = trust_update(*(np.array([x]) for x in (trust, i1, flow)), cfg)
        assert np.array([got]).tobytes() == lane.tobytes()

    TRUST, I1, FLOW = r"trust out of \[0, 1.0\]: ", "i1 must lie in", "flow must be nonnegative"

    @pytest.mark.parametrize("trust, i1, flow, message", [
        (1.5, 0.5, 1.0, TRUST),
        (-0.5, 0.5, 1.0, TRUST),
        (math.inf, 0.5, 1.0, TRUST),
        (math.nan, 0.5, 1.0, TRUST),
        (0.5, 1.5, 1.0, I1),
        (0.5, -0.5, 1.0, I1),
        (0.5, math.nan, 1.0, I1),
        (0.5, 0.5, -1.0, FLOW),
        (0.5, 0.5, -math.inf, FLOW),
        (0.5, 0.5, math.nan, None),  # NaN fails a range but not a sign
        # Two faults and three: trust is checked first, then i1, then flow.
        (1.5, math.nan, 1.0, TRUST),
        (math.nan, 0.5, -1.0, TRUST),
        (0.5, 1.5, -1.0, I1),
        (0.5, math.nan, -1.0, I1),
        (-1.0, 2.0, -1.0, TRUST),
    ])
    def test_floats_check_as_one_lane_arrays(self, trust, i1, flow, message):
        for args in ((trust, i1, flow), tuple(np.array([x]) for x in (trust, i1, flow))):
            if message is None:
                assert np.isnan(trust_update(*args, self.CFG))
            else:
                with pytest.raises(ValueError, match=message):
                    trust_update(*args, self.CFG)


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


class TestAnchors:
    def test_planner_beats_worst_corner(self, populations, params):
        w_so, w_min = welfare_anchors(populations, params)
        assert w_so > w_min

    def test_one_moderation_point_holds_moderation_at_zero(self, populations, params,
                                                            monkeypatch):
        # Lanes clear independently, so the one-point axis's optimum is the
        # default lattice's best moderation-0 posture, bit for bit.
        seen = []

        def spied(populations, postures, params, **kwargs):
            seen.append((postures.moderation, static_equilibrium_welfare(
                populations, postures, params, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(market, "static_equilibrium_welfare", spied)
        _w_so, w_min = welfare_anchors(populations, params)
        ((moderation, w),) = seen
        unmoderated = w[1:][moderation[1:] == 0.0]  # lane 0 is the worst corner
        assert unmoderated.size == 5 * 5 * 5
        one = params.with_overrides({"ipi.anchor_m_points": 1})
        assert welfare_anchors(populations, one) == (float(unmoderated.max()), w_min)
        assert seen[1][0][1:].tolist() == [0.0] * 125

    def test_static_corner_is_reproducible(self, populations, params):
        corner = Postures.of([make_platform(gamma_l=2.0, gamma_h=1.0, moderation=0.0)])
        a = static_equilibrium_welfare(populations, corner, params)
        b = static_equilibrium_welfare(populations, corner, params)
        assert a.shape == (1,)
        assert a == b


def scalar_welfare(populations, posture, params, tax):
    """Long-run welfare of one pinned posture through the single-posture chain."""
    cost_h_base, cost_l_base = _base_costs(params, params.econ.ai_rental)
    lane = Postures.of([posture])
    supply = supply_response(
        populations.producers, lane, params.platform,
        cost_h_base=cost_h_base, cost_l_base=cost_l_base, gen_boost=1.0, tax=tax,
    )
    rho, flow, platform_profit = exposure(supply.q_h, supply.q_l, lane, populations, params)
    rate, precision, threshold = solve_verification_fixed_point(
        rho, populations.consumers, params=params)
    return float(welfare_value(
        q_h=supply.q_h, q_l=supply.q_l, verify_rate=rate, precision=precision,
        trust=steady_state_trust(rho, flow, params.trust), platform=lane,
        producer_profit=supply.producer_profit, platform_profit=platform_profit,
        verification_spend=populations.consumers.spend(threshold), params=params,
    )[0])


def clear(q_h, q_l, postures, populations, params, provenance):
    """A clearing's quantities by name, chained from `exposure`, the
    verification solve, `ConsumerPool.spend` and `welfare_value` (at trust
    0.5 and producer surplus 3) as the tick chains them."""
    rho, flow, platform_profit = exposure(q_h, q_l, postures, populations, params)
    rate, precision, threshold = solve_verification_fixed_point(
        rho, populations.consumers, provenance, params=params)
    spend = populations.consumers.spend(threshold)
    welfare = welfare_value(
        q_h=q_h, q_l=q_l, verify_rate=rate, precision=precision, trust=0.5, platform=postures,
        producer_profit=3.0, platform_profit=platform_profit, verification_spend=spend,
        params=params,
    )
    return {"pollution": rho, "verify_rate": rate, "precision": precision,
            "verification_spend": spend, "flow": flow, "platform_profit": platform_profit,
            "welfare": welfare}


def scalar_anchor_loop(populations, params):
    """The per-posture anchor search that the batched `welfare_anchors` replaced."""
    ip, pf = params.ipi, params.platform
    corner = Postures(gamma_h=pf.gamma_init, gamma_l=pf.gamma_max, moderation=0.0)
    w_min = scalar_welfare(populations, corner, params, 0.0)
    best = -math.inf
    for m in np.linspace(0.0, 1.0, ip.anchor_m_points):
        for gh in np.linspace(0.0, pf.gamma_max, ip.anchor_gamma_points):
            for gl in np.linspace(0.0, pf.gamma_max, ip.anchor_gamma_points):
                posture = Postures(gamma_h=float(gh), gamma_l=float(gl), moderation=float(m))
                for tax in np.linspace(0.0, ip.anchor_tax_max, ip.anchor_tax_points):
                    w = scalar_welfare(populations, posture, params, float(tax))
                    if w > best:
                        best = w
    return best, w_min


TAX_MAX = SimParams().ipi.anchor_tax_max
LANE = st.tuples(  # (gamma_h, gamma_l, moderation, tax)
    st.floats(0.0, GAMMA_MAX), st.floats(0.0, GAMMA_MAX), st.floats(0.0, 1.0), st.floats(0.0, TAX_MAX)
)


class TestBatchedClearing:
    """A lane cleared alone equals the same lane inside a batch, bit for bit."""

    @given(lanes=st.lists(LANE, min_size=1, max_size=6), provenance=st.floats(0.0, 0.2))
    @example(lanes=[(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 1.0, 0.0)],
             provenance=0.0)
    @example(lanes=[(1.0, 1.5, m, 0.5) for m in (0.0, 0.5, 1.0)], provenance=0.0)  # shared supply
    @settings(max_examples=150, deadline=None)
    def test_every_lane_equals_the_scalar_chain(self, populations, params, lanes, provenance):
        platforms = [make_platform(gamma_h=gh, gamma_l=gl, moderation=m) for gh, gl, m, _ in lanes]
        tax = np.array([lane[3] for lane in lanes])
        batched = static_equilibrium_welfare(populations, Postures.of(platforms), params, tax=tax)
        expected = [scalar_welfare(populations, p, params, t) for p, t in zip(platforms, tax.tolist())]
        assert batched.tolist() == expected
        q_h, q_l = np.linspace(1.0, 40.0, len(lanes)), np.linspace(60.0, 2.0, len(lanes))
        together = clear(q_h, q_l, Postures.of(platforms), populations, params, provenance)
        for i, p in enumerate(platforms):
            alone = clear(q_h[i:i + 1], q_l[i:i + 1], Postures.of([p]), populations, params,
                          provenance)
            for name in ("pollution", "verify_rate", "precision", "verification_spend"):
                assert alone[name][0] == together[name][i]
            # One lane as floats clears to the one-lane array's bits.
            floats = clear(q_h.item(i), q_l.item(i), p, populations, params, provenance)
            for name in ("pollution", "verify_rate", "precision", "verification_spend", "flow",
                         "platform_profit"):
                value = floats[name]
                assert type(value) is float
                assert np.array([value]).tobytes() == alone[name].tobytes()
            welfare = floats["welfare"]
            assert np.array([welfare]).tobytes() == alone["welfare"].tobytes()

    def test_the_anchor_lanes_solve_alone_as_in_the_batch(self, populations, params):
        rho = np.linspace(0.0, 1.0, 1126)
        v, precision, _ = solve_verification_fixed_point(rho, populations.consumers,
                                                         params=params)
        for i in range(rho.size):
            v_alone, precision_alone, _ = solve_verification_fixed_point(
                rho[i:i + 1], populations.consumers, params=params)
            assert (v_alone[0], precision_alone[0]) == (v[i], precision[i])

    @given(lanes=st.lists(LANE, min_size=1, max_size=8), one_tax=st.booleans(),
           cost_h=st.sampled_from([None, math.nan, math.inf]),
           rationality=st.sampled_from([1.0, 0.0, 1e300]))
    @settings(max_examples=100, deadline=None)
    def test_supply_rows_equal_one_dimensional_dots(self, populations, params, lanes, one_tax,
                                                    cost_h, rationality):
        # A float argument broadcasts unwrapped and a per-lane one as a
        # column; the clipped logit gap keeps its bits, NaN and -0.0 included.
        pool = replace(populations.producers, rationality=rationality)
        platforms = [make_platform(gamma_h=gh, gamma_l=gl, moderation=m) for gh, gl, m, _ in lanes]
        tax = [-0.0 if one_tax else lane[3] for lane in lanes]
        cost_l = _base_costs(params, 0.8)[1]
        cost_h = _base_costs(params, 0.8)[0] if cost_h is None else cost_h
        with np.errstate(all="ignore"):
            supply = supply_response(pool, Postures.of(platforms), params.platform,
                                     cost_h_base=cost_h, cost_l_base=cost_l, gen_boost=1.3,
                                     tax=tax[0] if one_tax else np.array(tax), extra_q_l=2.5)
            for i, (p, t) in enumerate(zip(platforms, tax)):
                # The one-posture supply with 1-D `np.dot` reductions, as before batching.
                margin = (1.0 - params.platform.revenue_share) * params.platform.ad_rate
                pi_h = margin * p.gamma_h - cost_h / pool.prod_h
                pi_l = margin * p.gamma_l - cost_l / (pool.prod_l * 1.3) - t
                gap = np.clip(pool.rationality * (pi_h - pi_l), -700.0, 700.0)
                prob_h = 1.0 / (1.0 + np.exp(-gap))
                q_h = float(np.dot(prob_h, pool.weight_h))
                q_l = float(np.dot(1.0 - prob_h, pool.weight_l)) + 2.5
                profit = float(np.dot(prob_h, pool.weight_h * pi_h)
                               + np.dot(1.0 - prob_h, pool.weight_l * (pi_l + t)))
                assert bits(supply.q_h[i], supply.q_l[i], supply.producer_profit[i]) == bits(
                    q_h, q_l, profit)

    @pytest.mark.parametrize("seed", [42, 1, 7, 1790146652])
    def test_anchors_equal_the_per_posture_loop(self, seed):
        for r, sigma_l in ((1.0, 1.5), (0.6, 1.2), (1.4, 1.8), (0.2, 1.05)):
            params = SimParams().with_overrides({"econ.ai_rental": r, "econ.sigma_l": sigma_l})
            sim = Simulation(params, None, seed)
            assert (sim.w_so, sim.w_min) == scalar_anchor_loop(sim.populations, params)

    @given(
        points=st.tuples(st.integers(1, 4), st.integers(2, 4), st.integers(1, 4)),
        tax_max=st.floats(0.0, 4.0),
        size=st.sampled_from([(10, 20), (30, 60)]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_anchors_equal_the_loop_over_lattice_shapes(self, points, tax_max, size, seed):
        # Moderation and tax axes of one point collapse, and a tax_max of 0
        # stacks the tax axis on one value, so lanes collide in supply and in
        # pollution.
        m, gamma, taxes = points
        params = SimParams().with_overrides({
            "ipi.anchor_m_points": m, "ipi.anchor_gamma_points": gamma,
            "ipi.anchor_tax_points": taxes, "ipi.anchor_tax_max": tax_max,
            "agents.n_producers": size[0], "agents.n_consumers": size[1],
        })
        sim = Simulation(params, None, seed)
        assert (sim.w_so, sim.w_min) == scalar_anchor_loop(sim.populations, params)

    def test_distinct_rows_compare_bits_in_order_of_appearance(self):
        nan = float("nan")
        rows = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [-0.0, 1.0], [0.0, 1.0],
                         [nan, 1.0], [nan, 1.0], [5.0, 5.0]])
        first, row = market._distinct_rows(rows)
        assert first.tolist() == [0, 1, 3, 5, 7]
        assert row.tolist() == [0, 1, 0, 2, 1, 3, 3, 4]

    def test_unmet_tolerance_raises_like_the_loop(self, populations):
        strict = SimParams().with_overrides({"market.fp_tol": 0.0})
        with pytest.raises(NoConvergence) as loop:
            scalar_anchor_loop(populations, strict)
        with pytest.raises(NoConvergence, match=r"not below market.fp_tol = 0\.000e\+00 "
                                                r"\(pollution=") as batched:
            welfare_anchors(populations, strict)
        assert str(batched.value) == str(loop.value)

    def test_lane_input_checks(self, populations, params):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError, match="^supply leaves the nonnegative floats: "):
                market._check_outputs(np.ones(2), np.array([1.0, bad]), np.zeros(2))
        with pytest.raises(ValueError, match="pollution must lie"):
            solve_verification_fixed_point(np.array([0.5, 1.5]), populations.consumers,
                                           params=params)
        with pytest.raises(ConfigError, match="market.pi_base must be finite"):
            params.with_overrides({"market.pi_base": float("nan")})

    def test_one_lane_input_checks_as_floats_and_arrays(self):
        # NaN outputs are named first, whatever the surplus.
        for q_h, q_l, f in ((1.0, -1.0, 0.0), (1.0, math.nan, math.nan), (math.nan, 1.0, 0.0),
                            (-0.5, 1.0, -math.inf)):
            for lane in ((q_h, q_l, f), (np.array([q_h]), np.array([q_l]), np.array([f]))):
                with pytest.raises(ConfigError, match="^supply leaves the nonnegative floats: "
                                                      ".* is NaN$"):
                    market._check_outputs(*lane)
        # A cost that overflows on one type: finite outputs, surplus -inf or NaN.
        for f in (-math.inf, math.nan):
            for lane in ((1.0, 2.0, f), (np.ones(2), np.ones(2), np.array([0.0, f]))):
                with pytest.raises(ConfigError, match="^producer surplus leaves the floats: .*"
                                                      "agents.mean_prod_l.* is -inf$"):
                    market._check_outputs(*lane)
        # +inf (margins that overflow) is left to the welfare anchors.
        for lane in ((1.0, 2.0, math.inf), (np.ones(2), np.ones(2), np.array([0.0, math.inf]))):
            market._check_outputs(*lane)

    def test_one_supply_call_per_tick_and_one_batch_per_anchor_search(self, monkeypatch):
        calls, seen = Counter(), {}
        names = ("supply_response", "static_equilibrium_welfare", "solve_verification_fixed_point")
        for name in names:
            def counted(*args, _name=name, _fn=getattr(market, name), **kwargs):
                calls[_name] += 1
                seen.setdefault(_name, (args, kwargs))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(market, name, counted)
        params = SimParams().with_overrides({"agents.n_producers": 30, "agents.n_consumers": 60})
        sim = Simulation(params, None, 42)
        assert calls == dict.fromkeys(names, 1)
        # Supply sees each distinct (gamma_h, gamma_l, tax) of the lattice once
        # (the corner is a lattice key), and the fixed point each bit-distinct
        # pollution, in order of appearance.
        (_, lanes, _), anchor = seen["static_equilibrium_welfare"]
        tax = anchor["tax"]
        keys = list(dict.fromkeys(zip(lanes.gamma_h.tolist(), lanes.gamma_l.tolist(),
                                      tax.tolist())))
        (_, postures, *_), supplied = seen["supply_response"]
        assert (tax.size, len(keys)) == (1126, 125)
        assert list(zip(postures.gamma_h.tolist(), postures.gamma_l.tolist(),
                        supplied["tax"].tolist())) == keys
        cost_h, cost_l = _base_costs(params, params.econ.ai_rental)
        supply = supply_response(sim.populations.producers, lanes, params.platform,
                                 cost_h_base=cost_h, cost_l_base=cost_l, gen_boost=1.0, tax=tax)
        rho, _, _ = exposure(supply.q_h, supply.q_l, lanes, sim.populations, params)
        distinct = list(dict.fromkeys(rho.view(np.uint64).tolist()))
        (solved, *_), _ = seen["solve_verification_fixed_point"]
        assert solved.view(np.uint64).tolist() == distinct
        assert len(distinct) < rho.size // 2
        calls.clear()
        for _ in range(5):
            sim.advance()
        assert calls["supply_response"] == 5
