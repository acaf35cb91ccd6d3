"""Agent decision-rule tests: logit choice, Bayes updating, platform projection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket.agents import (
    ConsumerPool,
    Postures,
    ProducerPool,
    consumer_posterior,
    draw_consumers,
    draw_producers,
    platform_update,
    verification_threshold,
)
from infomarket.config import PlatformParams, SimParams
from infomarket.errors import ConfigError
from infomarket.market import _base_costs, supply_response

E_OVER_1PE = 0.73105857863000487925  # e/(1+e), 50-digit evaluation
UNIT_COST_L = 2.803374574213722369  # sigma=1.5, delta=0.65, A=1, r=1, w=8

# Utility gaps: ordinary, zero, subnormal, and large up to 1e308.
DU = st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e308),
               st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300]))

PLATFORM = Postures(gamma_h=1.0, gamma_l=1.0, moderation=0.0)
PARAMS = PlatformParams(revenue_share=0.25, ad_rate=4.0, lr_gamma=0.05, lr_mod=0.05,
                        trust_price=50.0)


def one_producer(gamma_h=1.0, gamma_l=1.0, cost_h=0.0, cost_l=0.0, tax=0.0, rationality=1.0):
    """`supply_response` of one producer of unit productivity under one posture
    (revenue share 0.25, ad rate 4): its q_h is the producer's probability of
    choosing high quality, its producer profit the expected pre-tax margin."""
    posture = Postures(np.array([gamma_h]), np.array([gamma_l]), np.array([0.0]))
    pool = ProducerPool(prod_h=[1.0], prod_l=[1.0], rationality=rationality)
    return supply_response(pool, posture, PARAMS, cost_h_base=cost_h, cost_l_base=cost_l,
                           gen_boost=1.0, tax=tax)


def choice_prob(profit_h: float, profit_l: float, rationality: float) -> float:
    """The logit choice at the given unit profits: with zero amplification the
    margins are 0, so cost bases of -profit give unit profits of profit exactly."""
    supply = one_producer(0.0, 0.0, cost_h=-profit_h, cost_l=-profit_l, rationality=rationality)
    return float(supply.q_h[0])


def margin(**kw) -> float:
    """Expected pre-tax unit profit of the one producer (see `one_producer`)."""
    return float(one_producer(**kw).producer_profit[0])


class TestChoiceProb:
    def test_equal_payoffs(self):
        assert choice_prob(2.0, 2.0, 1.7) == pytest.approx(0.5)

    def test_zero_rationality(self):
        assert choice_prob(100.0, -50.0, 0.0) == pytest.approx(0.5)

    def test_unit_gap_oracle(self):
        assert choice_prob(1.0, 0.0, 1.0) == pytest.approx(E_OVER_1PE, rel=1e-12)

    def test_extreme_inputs_stay_finite(self):
        assert choice_prob(1e6, -1e6, 10.0) == pytest.approx(1.0)
        assert choice_prob(-1e6, 1e6, 10.0) == pytest.approx(0.0)

    @given(
        a=st.floats(-50, 50), b=st.floats(-50, 50), beta=st.floats(0, 20)
    )
    @settings(max_examples=300, deadline=None)
    def test_complement_sums_to_one(self, a, b, beta):
        total = choice_prob(a, b, beta) + choice_prob(b, a, beta)
        assert abs(total - 1.0) <= 1e-12

    def test_sharp_rationality_approaches_indicator(self):
        assert choice_prob(1.0, 0.0, 1e3) > 1 - 1e-9
        assert choice_prob(0.0, 1.0, 1e3) < 1e-9

    def test_monotone_in_profits(self):
        probs = [choice_prob(x, 0.0, 1.0) for x in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a < b for a, b in zip(probs, probs[1:]))
        probs_l = [choice_prob(0.0, x, 1.0) for x in (-1.0, 0.0, 1.0)]
        assert all(a > b for a, b in zip(probs_l, probs_l[1:]))


class TestUnitProfit:
    # At rationality 1e3 a margin gap of 1 or more clips the logit at 700, so
    # the producer picks the better type with probability exactly 1.

    def test_exact_break_even(self):
        # (1 - 0.25) * 4 * 1 - 3 = 0 on high quality
        assert margin(cost_h=3.0, cost_l=1e3, rationality=1e3) == 0.0

    def test_composed_with_ces_cost(self):
        # (1 - 0.25) * 4 * 1 - c_L at the table parameters
        _, cost_l = _base_costs(SimParams(), 1.0)
        assert cost_l == pytest.approx(UNIT_COST_L, rel=1e-12)
        got = margin(cost_h=1e3, cost_l=cost_l, rationality=1e3)
        assert got == pytest.approx(3.0 - UNIT_COST_L, rel=1e-12)
        assert got == pytest.approx(0.196625425786278, rel=1e-12)

    def test_tax_wedge_is_linear(self):
        # Producers choose on the margin net of the levy: a levy of 0.5 moves
        # them as a cost 0.5 higher does, and a 1.5 high-quality margin ties
        # with the taxed low-quality one.
        taxed = one_producer(cost_h=1.5, cost_l=1.0, tax=0.5)
        assert taxed.q_h[0] == one_producer(cost_h=1.5, cost_l=1.5).q_h[0] == 0.5
        # Producer surplus is pre-tax: the levy is a transfer.
        kw = dict(cost_h=1e3, cost_l=1.0, rationality=1e3)
        assert margin(tax=0.5, **kw) == margin(**kw) == 2.0


class TestPosterior:
    def test_uninformative_signal_returns_prior(self):
        for prior in (0.0, 0.3, 0.9, 1.0):
            assert consumer_posterior(prior, 0.5) == pytest.approx(prior)

    def test_flat_prior_good_signal(self):
        assert consumer_posterior(0.5, 0.8) == pytest.approx(0.8)

    def test_hand_bayes_oracle(self):
        # 0.4 * 0.9 / (0.4 * 0.9 + 0.6 * 0.1) = 6/7
        assert consumer_posterior(0.4, 0.9) == pytest.approx(6.0 / 7.0, rel=1e-12)

    def test_monotone_in_prior_and_precision(self):
        posts = [consumer_posterior(p, 0.8) for p in (0.1, 0.4, 0.7)]
        assert posts == sorted(posts)
        by_prec = [consumer_posterior(0.4, pi) for pi in (0.5, 0.7, 0.95)]
        assert by_prec == sorted(by_prec)


class TestVerificationThreshold:
    def test_constant_gap(self):
        for p in (0.0, 0.42, 1.0):
            assert verification_threshold(p, 1.3, 1.3) == pytest.approx(1.3)

    def test_corner_posterior(self):
        assert verification_threshold(1.0, 0.5, 2.0) == pytest.approx(0.5)
        assert verification_threshold(0.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_linear_interpolation_oracle(self):
        assert verification_threshold(0.3, 0.5, 2.0) == pytest.approx(1.55, rel=1e-12)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            verification_threshold(0.5, -0.1, 1.0)

    @given(
        lanes=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.5, 1.0)), min_size=1,
                       max_size=8),
        du=st.one_of(st.tuples(DU, DU), DU.map(lambda x: (x, x))),
    )
    @example(lanes=[(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)], du=(0.5, 2.0))
    @example(lanes=[(0.0, 0.5), (0.0, 1.0), (1.0, 0.5), (1.0, 1.0)], du=(2.0, 0.5))
    @settings(max_examples=500, deadline=None)
    def test_every_threshold_lies_between_the_corner_posteriors(self, lanes, du):
        # The fixed point's knot window rests on this, bit for bit.
        bounds = [verification_threshold(p, *du) for p in (0.0, 1.0)]
        lo, hi = min(bounds), max(bounds)
        prior, precision = (list(x) for x in zip(*lanes))
        floats = [verification_threshold(consumer_posterior(p, pi), *du)
                  for p, pi in zip(prior, precision)]
        array = verification_threshold(consumer_posterior(np.array(prior), np.array(precision)),
                                       *du)
        assert all(lo <= k <= hi for k in floats)
        assert ((lo <= array) & (array <= hi)).all()


class TestPlatformUpdate:
    def test_stationary_point(self):
        assert platform_update(PLATFORM, PARAMS, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)) == PLATFORM

    def test_frozen_learner(self):
        frozen = Postures(gamma_h=1.0, gamma_l=1.0, moderation=0.3)
        still = PlatformParams(lr_gamma=0.0, lr_mod=0.0, trust_price=50.0)
        assert platform_update(frozen, still, (5.0, -2.0), (0.0, 0.0), (3.0, 1.0)) == frozen

    def test_single_euler_step(self):
        state = Postures(gamma_h=1.0, gamma_l=0.5, moderation=0.0)
        params = PlatformParams(lr_gamma=0.1, lr_mod=0.05, trust_price=0.0)
        updated = platform_update(state, params, (1.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        assert updated.gamma_l == pytest.approx(0.6, rel=1e-12)
        assert updated.gamma_h == pytest.approx(1.0)
        assert updated.moderation == pytest.approx(0.0)

    def test_trust_erosion_brakes(self):
        state = Postures(gamma_h=1.0, gamma_l=1.0, moderation=0.0)
        params = PlatformParams(lr_gamma=0.1, lr_mod=0.1, trust_price=10.0)
        updated = platform_update(state, params, (1.0, 0.5), (0.0, 0.0), (0.0, 0.0))
        # profit pull +1 against erosion 10 * 0.5 nets to a downward step
        assert updated.gamma_l == pytest.approx(1.0 + 0.1 * (1.0 - 5.0))
        assert updated.gamma_l == 0.6

    @given(
        gpl=st.floats(-1e4, 1e4), gtl=st.floats(-1e4, 1e4),
        gpm=st.floats(-1e4, 1e4), gtm=st.floats(-1e4, 1e4),
        gph=st.floats(-1e4, 1e4), gth=st.floats(-1e4, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_projection_keeps_invariants(self, gpl, gtl, gpm, gtm, gph, gth):
        updated = platform_update(PLATFORM, PARAMS, (gpl, gtl), (gph, gth), (gpm, gtm))
        assert 0 <= updated.gamma_l <= PARAMS.gamma_max
        assert 0 <= updated.gamma_h <= PARAMS.gamma_max
        assert 0 <= updated.moderation <= 1


class TestPopulationDraws:
    def test_lognormal_means_within_three_standard_errors(self):
        n = 10_000
        producers = draw_producers(
            n, np.random.default_rng(42),
            mean_prod_h=1.0, mean_prod_l=1.2, log_sd=0.5, rationality=1.0,
        )
        sd = math.sqrt(math.exp(0.25) - 1.0)  # scaled lognormal coefficient of variation
        for sample, target in ((producers.prod_h, 1.0), (producers.prod_l, 1.2)):
            se = target * sd / math.sqrt(n)
            assert abs(sample.mean() - target) < 3 * se

    def test_consumer_draw_bounds(self):
        consumers = draw_consumers(500, np.random.default_rng(3), k_max=4.0)
        assert consumers.n == 500
        assert consumers.costs.min() >= 0 and consumers.costs.max() <= 4.0

    def test_fixed_seed_reproducible(self):
        a = draw_producers(50, np.random.default_rng(9), mean_prod_h=1.0,
                           mean_prod_l=1.2, log_sd=0.5, rationality=1.0)
        b = draw_producers(50, np.random.default_rng(9), mean_prod_h=1.0,
                           mean_prod_l=1.2, log_sd=0.5, rationality=1.0)
        for field in ("prod_h", "prod_l", "weight_h", "weight_l"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.rationality == b.rationality


class TestAgentValidation:
    def test_producer_bounds(self):
        with pytest.raises(ValueError):
            ProducerPool(prod_h=[1.0, 0.0], prod_l=[1.0, 1.0], rationality=1.0)
        with pytest.raises(ValueError):
            ProducerPool(prod_h=[1.0, 1.0], prod_l=[1.0, -2.0], rationality=1.0)
        with pytest.raises(ValueError):
            ProducerPool(prod_h=[1.0], prod_l=[1.0], rationality=-0.1)
        with pytest.raises(ValueError):
            draw_producers(5, np.random.default_rng(0), mean_prod_h=1.0,
                           mean_prod_l=1.2, log_sd=0.5, rationality=-0.1)

    def test_consumer_bounds(self):
        with pytest.raises(ValueError):
            ConsumerPool([1.0, -0.5, 2.0])
        with pytest.raises(ValueError):
            draw_consumers(10, np.random.default_rng(3), k_max=-1.0)

    def test_costs_whose_cdf_slope_overflows(self):
        # Knots a subnormal span apart: the CDF would read inf * 0 at a knot.
        with pytest.raises(ValueError, match="slope"):
            ConsumerPool([0.0, 1e-320, 2e-320])
        with pytest.raises(ConfigError, match="agents.k_max = 1e-310 and agents.n_consumers"):
            draw_consumers(200, np.random.default_rng(3), k_max=1e-310)
