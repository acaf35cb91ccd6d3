"""Index tests: dimension formulas, composite algebra, weights, and proxies."""


from dataclasses import dataclass
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.agents import Postures
from infomarket.config import SimParams
from infomarket.errors import DegenerateAnchors, WeightSumViolation, ZeroBaseline
from infomarket.harness import build_overlays, run_worlds
from infomarket.ipi import (
    FIXED_WEIGHTS,
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
from infomarket.market import exposure, harmful_exposure

mp.mp.dps = 50


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
        assert dim_tech_risk(3.0, 3.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_tech_risk_saturation(self):
        assert dim_tech_risk(1e12, 1.0, 0.0, 1.0) > 0.999999
        assert dim_tech_risk(1.0, 1e12, 0.0, 1.0) < 1e-6

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


class TestEndogenousWeights:
    def test_equal_sensitivities_give_equal_weights(self):
        weights, fallback = endogenous_weights([(-2.0, 0.5)] * 4)
        assert not fallback
        assert weights == pytest.approx((0.25, 0.25, 0.25, 0.25))

    def test_flat_welfare_falls_back_to_fixed(self):
        weights, fallback = endogenous_weights(
            [(-2.0, 0.5), (0.0, 0.5), (-2.0, 0.5), (-2.0, 0.5)]
        )
        assert fallback
        assert weights == FIXED_WEIGHTS

    def test_sensitivity_proportions(self):
        weights, _ = endogenous_weights([(-3.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
        assert weights[0] == pytest.approx(0.5)
        assert weights[1] == pytest.approx(1.0 / 6.0)
        assert sum(weights) == pytest.approx(1.0)


def _log(high=(), low=(), feedback=(0.0, 0.0, 0.0), severities=(1.0, 3.0, 10.0),
         churn=(0.1, 0.1, 0.1), acc_new=0.9, acc_base=0.9):
    """A one-tick log: per-item impressions of each type, then one value per field."""
    high = list(high) + [0.0] * (len(low) - len(high))
    low = list(low) + [0.0] * (len(high) - len(low))
    return SyntheticEventLog(
        impressions=np.array([high + low], dtype=float).reshape(1, -1),
        feedback=np.array([feedback], dtype=float),
        severities=severities,
        churn=np.array([churn], dtype=float),
        acc_new=np.array([acc_new], dtype=float),
        acc_base=acc_base,
    )


class TestProxies:
    def test_exposure_all_low_quality(self):
        log = _log(low=[50.0, 25.0])
        assert proxy_exposure(log) == 1.0

    def test_exposure_none_low_quality(self):
        log = _log(high=[50.0])
        assert proxy_exposure(log) == 0.0

    def test_exposure_direct_ratio(self):
        log = _log(high=[70.0], low=[30.0])
        assert proxy_exposure(log) == pytest.approx(0.3)

    def test_exposure_empty_log_convention(self):
        assert proxy_exposure(_log()) == 0.0

    def test_harm_no_feedback(self):
        assert proxy_harm(_log(high=[100.0])) == 0.0

    def test_harm_single_event(self):
        log = _log(high=[100.0], feedback=(0.0, 1.0, 0.0), severities=(1.0, 2.0, 10.0))
        assert proxy_harm(log) == pytest.approx(0.02)

    def test_harm_mixed_ledger(self):
        log = _log(high=[150.0], low=[50.0], feedback=(8.0, 2.0, 0.5), severities=(1.0, 3.0, 10.0))
        # (8 + 6 + 5) / 200
        assert proxy_harm(log) == pytest.approx(0.095)

    def test_harm_that_overflows_is_inf_and_clamps_to_one(self):
        # `proxy.sev_fraud 1e308`: the weighted count overflows, with no RuntimeWarning.
        log = _log(high=[150.0], low=[50.0], feedback=(8.0, 2.0, 2.0),
                   severities=(1.0, 3.0, 1e308))
        assert proxy_harm(log).tolist() == [np.inf]
        assert proxy_composite(log, (0.0, 1.0, 0.0, 0.0)).tolist() == [1.0]

    def test_churn_gap(self):
        assert proxy_churn_gap(_log(churn=(0.12, 0.08, 0.10))) == pytest.approx(0.4)
        assert proxy_churn_gap(_log(churn=(0.1, 0.1, 0.2))) == 0.0

    def test_churn_zero_baseline_guard(self):
        with pytest.raises(ZeroBaseline):
            proxy_churn_gap(_log(churn=(0.1, 0.05, 0.0)))

    def test_detection_gap(self):
        assert proxy_detection_gap(_log(acc_new=0.9, acc_base=0.9)) == 0.0
        assert proxy_detection_gap(_log(acc_new=0.45, acc_base=0.9)) == pytest.approx(0.5)

    def test_detection_gap_negative_reported_as_is(self):
        assert proxy_detection_gap(_log(acc_new=0.99, acc_base=0.9)) == pytest.approx(-0.1)

    @pytest.mark.parametrize("field, kwargs", [
        ("impression", dict(high=[-1.0])),
        ("feedback", dict(feedback=(0.0, -1.0, 0.0))),
        ("churn", dict(churn=(0.1, 1.5, 0.1))),
        ("acc_base", dict(acc_base=0.0)),
        ("acc_new", dict(acc_new=1.5)),
    ])
    def test_log_checks(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            _log(**kwargs)


def _fields(log):
    return (log.impressions, log.feedback, np.array(log.severities), log.churn, log.acc_new,
            np.array(log.acc_base))


def assert_logs_equal(a, b):
    for x, y in zip(_fields(a), _fields(b)):
        assert x.shape == y.shape and (x == y).all()


class TestSynthesizeLog:
    def _series(self, populations, params, q_h=10.0, q_l=30.0, trust=0.4):
        """One tick's columns, with the pollution its posture gives its outputs."""
        platform = Postures(gamma_h=1.0, gamma_l=1.0, moderation=0.0)
        (rho,), _, _ = exposure(
            np.array([q_h]), np.array([q_l]), Postures.of([platform]), populations, params
        )
        columns = dict(q_h=q_h, q_l=q_l, pollution=rho, verify_rate=0.3, precision=0.75,
                       trust=trust, gamma_h=1.0, gamma_l=1.0, m=0.0, cap_gen=1.0, cap_det=1.0)
        return {name: np.array([value]) for name, value in columns.items()}

    def test_zero_noise_is_deterministic_without_consuming_randomness(self, params, populations):
        series = self._series(populations, params)
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = synthesize_log(series, params, 0.0, rng1)
        b = synthesize_log(series, params, 0.0, rng2)
        assert_logs_equal(a, b)
        # noise 0 draws nothing, so the stream is untouched
        assert rng1.uniform() == np.random.default_rng(5).uniform()

    def test_same_seed_same_noisy_log(self, params, populations):
        series = self._series(populations, params)
        a = synthesize_log(series, params, 0.2, np.random.default_rng(9))
        b = synthesize_log(series, params, 0.2, np.random.default_rng(9))
        assert_logs_equal(a, b)

    def test_exposure_proxy_coheres_with_pollution_dimension(self, params, populations):
        series = self._series(populations, params, q_h=7.0, q_l=13.0)
        log = synthesize_log(series, params, 0.0, np.random.default_rng(0))
        assert abs(proxy_exposure(log)[0] - series["pollution"][0]) < 1e-9

    def test_zero_pollution_means_zero_exposure(self, params, populations):
        series = self._series(populations, params, q_h=10.0, q_l=0.0)
        log = synthesize_log(series, params, 0.0, np.random.default_rng(0))
        assert proxy_exposure(log) == 0.0

    def test_proxy_composite_in_unit_interval(self, params, populations):
        series = self._series(populations, params)
        log = synthesize_log(series, params, 0.2, np.random.default_rng(3))
        assert 0.0 <= proxy_composite(log) <= 1.0


# -- per-tick reference ------------------------------------------------------
# One tick per call, with Python floats and Python's sum; the series path
# must equal it bit for bit.


@dataclass(frozen=True)
class ChurnCohorts:
    churn_high: float
    churn_low: float
    churn_base: float

    def __post_init__(self) -> None:
        for name in ("churn_high", "churn_low", "churn_base"):
            rate = getattr(self, name)
            if not 0 <= rate <= 1:
                raise ValueError(f"{name} out of [0, 1]: {rate}")


@dataclass(frozen=True)
class DetectorReport:
    acc_new: float
    acc_base: float

    def __post_init__(self) -> None:
        if not 0 < self.acc_base <= 1:
            raise ValueError("acc_base must lie in (0, 1]")
        if not 0 <= self.acc_new <= 1:
            raise ValueError("acc_new must lie in [0, 1]")


@dataclass(frozen=True)
class TickEventLog:
    impressions: tuple[tuple[int, bool, float], ...]  # (item id, is low quality, count)
    feedback: tuple[tuple[str, float, float], ...]  # (harm type, severity, count)
    cohorts: ChurnCohorts
    detector: DetectorReport

    def __post_init__(self) -> None:
        if any(count < 0 for _, _, count in self.impressions):
            raise ValueError("impression counts must be nonnegative")
        if any(count < 0 for _, _, count in self.feedback):
            raise ValueError("feedback counts must be nonnegative")


def tick_synthesize_log(state, platform, rng, noise_level, *, cap_gen, cap_det, params):
    px = params.proxy

    def noisy(x):
        if noise_level == 0.0:
            return x
        return x * float(rng.uniform(1.0 - noise_level, 1.0 + noise_level))

    amp_h = platform.gamma_h * state.q_h * px.impression_scale
    amp_l = platform.gamma_l * (1.0 - platform.moderation) * state.q_l * px.impression_scale
    impressions = []
    item_id = 0
    for total, is_low in ((amp_h, False), (amp_l, True)):
        share = total / px.items_per_type
        for _ in range(px.items_per_type):
            impressions.append((item_id, is_low, noisy(share)))
            item_id += 1
    exposure_ = harmful_exposure(state.q_l, platform, state.verify_rate, state.precision)
    exposure_ *= px.impression_scale
    feedback = tuple(
        (kind, sev, noisy(rate * exposure_))
        for kind, sev, rate in (
            ("clickbait", px.sev_clickbait, px.harm_rate_clickbait),
            ("misinformation", px.sev_misinformation, px.harm_rate_misinformation),
            ("fraud", px.sev_fraud, px.harm_rate_fraud),
        )
    )
    t_max = params.trust.t_max
    depletion = (t_max - state.trust) / t_max
    churn_base = px.churn_base_floor + px.churn_trust_slope * depletion
    half_gap = 0.5 * px.churn_gap_coef * depletion * churn_base
    cohorts = ChurnCohorts(
        churn_high=noisy(churn_base + half_gap),
        churn_low=noisy(max(churn_base - half_gap, 0.0)),
        churn_base=noisy(churn_base),
    )
    acc_new = px.detector_acc_base * min((cap_det / cap_gen) ** px.detector_exponent, 1.0)
    detector = DetectorReport(
        acc_new=min(max(noisy(acc_new), 0.0), 1.0), acc_base=px.detector_acc_base
    )
    return TickEventLog(tuple(impressions), feedback, cohorts, detector)


def tick_proxy_composite(log, weights):
    total = sum(count for _, _, count in log.impressions)
    low = sum(count for _, is_low, count in log.impressions if is_low)
    harm = sum(sev * count for _, sev, count in log.feedback)
    c = log.cohorts
    dims = [
        0.0 if total == 0 else low / total,
        0.0 if total == 0 else harm / total,
        (c.churn_high - c.churn_low) / c.churn_base,
        1.0 - log.detector.acc_new / log.detector.acc_base,
    ]
    return composite([min(max(d, 0.0), 1.0) for d in dims], weights)


def tick_rows(log):
    """The per-tick log in the series log's column layout."""
    return (
        [count for _, _, count in log.impressions],
        [count for _, _, count in log.feedback],
        [log.cohorts.churn_high, log.cohorts.churn_low, log.cohorts.churn_base],
        log.detector.acc_new,
    )


@pytest.mark.parametrize("seed, overrides", [
    (42, {}),
    (7, {"econ.ai_rental": 0.6}),  # cheap AI: generation outgrows detection
    (3, {"proxy.items_per_type": 3}),
    (1790146652, {"econ.ai_rental": 0.6, "proxy.items_per_type": 3}),
])
def test_series_log_equals_per_tick_reference(seed, overrides):
    params = SimParams().with_overrides(overrides)
    # The series is the record's columns, with the posture each tick was
    # cleared under, and the capability stocks of the world's path.
    (record,) = run_worlds([params], 40, master_seed=seed)
    path = build_overlays(40, (), params)
    series = {name: record.column(name) for name in
              ("q_h", "q_l", "verify_rate", "precision", "trust", "gamma_h", "gamma_l", "m")}
    series["cap_gen"] = np.array([overlay.cap_gen for overlay in path])
    series["cap_det"] = np.array([overlay.cap_det for overlay in path])
    weights = (0.1, 0.2, 0.3, 0.4)
    for noise in (0.0, 0.05, 0.1, 0.2, 1.0):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        log = synthesize_log(series, params, noise, rng)
        got = proxy_composite(log, weights)
        for t, overlay in enumerate(path):
            row = SimpleNamespace(**{name: col[t].item() for name, col in record.columns.items()})
            ref = tick_synthesize_log(row, Postures(row.gamma_h, row.gamma_l, row.m), ref_rng,
                                      noise, cap_gen=overlay.cap_gen, cap_det=overlay.cap_det,
                                      params=params)
            impressions, feedback, churn, acc_new = tick_rows(ref)
            assert log.impressions[t].tolist() == impressions
            assert log.feedback[t].tolist() == feedback
            assert log.churn[t].tolist() == churn
            assert log.acc_new[t] == acc_new
            assert got[t] == tick_proxy_composite(ref, weights)
        assert rng.uniform() == ref_rng.uniform()
