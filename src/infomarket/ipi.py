"""The information pollution index: four dimensions, weights, and proxy estimators.

The composite is a weighted sum of four [0,1] harm dimensions: effective
pollution density, normalized welfare shortfall against planner anchors,
trust-stock depletion, and a saturating transform of the generation-vs-
detection capability log-ratio.  Weights default to the fixed vector used
throughout the experiments; welfare-sensitivity (endogenous) weights are an
opt-in mode.

Each dimension has an observable proxy computable from a platform event
log; `synthesize_log` bridges the simulator to that estimator surface so
the measurement layer can be stress-tested under noise without real data.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .agents import PlatformState
from .config import WEIGHT_TOL, SimParams
from .errors import DegenerateAnchors, WeightSumViolation, ZeroBaseline
from .market import harmful_exposure, pollution_density

logger = logging.getLogger(__name__)

FIXED_WEIGHTS = (0.35, 0.25, 0.25, 0.15)


@dataclass(frozen=True)
class IpiReading:
    """Four dimension values, their weights, and the composite at one tick."""

    i1: float
    i2: float
    i3: float
    i4: float
    w1: float
    w2: float
    w3: float
    w4: float
    composite: float

    def __post_init__(self) -> None:
        weights = (self.w1, self.w2, self.w3, self.w4)
        dims = (self.i1, self.i2, self.i3, self.i4)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > WEIGHT_TOL:
            raise WeightSumViolation(f"weights must be nonnegative and sum to 1: {weights}")
        if any(not 0 <= d <= 1 for d in dims):
            raise ValueError(f"dimensions must lie in [0, 1]: {dims}")
        if abs(self.composite - sum(w * d for w, d in zip(weights, dims))) > WEIGHT_TOL:
            raise ValueError("composite inconsistent with weighted dimensions")

    @classmethod
    def build(cls, dims: Sequence[float], weights: Sequence[float]) -> "IpiReading":
        return cls(*dims, *weights, composite(dims, weights))


def dim_pollution(q_h: float, q_l: float, platform: PlatformState) -> float:
    """Effective pollution density; delegates to the market-clearing formula."""
    return pollution_density(q_h, q_l, platform)


def dim_deadweight(w: float, w_so: float, w_min: float) -> float:
    """Welfare shortfall normalized between the planner optimum and the worst corner."""
    if w_so <= w_min:
        raise DegenerateAnchors(f"anchors collapse: w_so={w_so} <= w_min={w_min}")
    if not w_min <= w <= w_so:
        logger.debug("welfare %.4f outside anchors [%.4f, %.4f]; clamping", w, w_min, w_so)
        w = min(max(w, w_min), w_so)
    return (w_so - w) / (w_so - w_min)


def dim_trust_decay(trust: float, t_max: float) -> float:
    """Depletion of the trust stock relative to its ceiling."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not 0 <= trust <= t_max:
        raise ValueError(f"trust out of [0, {t_max}]: {trust}")
    return (t_max - trust) / t_max


def dim_tech_risk(
    cap_gen: float, cap_det: float, mu_tech: float = 0.0, sigma_tech: float = 1.0
) -> float:
    """Saturating transform of the generation-vs-detection capability log-ratio."""
    if cap_gen <= 0 or cap_det <= 0:
        raise ValueError("capability stocks must be positive")
    if sigma_tech <= 0:
        raise ValueError("sigma_tech must be positive")
    z = (math.log(cap_gen / cap_det) - mu_tech) / sigma_tech
    return 0.5 * (1.0 + math.tanh(z))


def composite(dims: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted combination of the four dimensions."""
    if len(dims) != 4 or len(weights) != 4:
        raise ValueError("expected four dimensions and four weights")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > WEIGHT_TOL:
        raise WeightSumViolation(f"weights must be nonnegative and sum to 1: {tuple(weights)}")
    return float(sum(w * d for w, d in zip(weights, dims)))


class DimensionContext(Protocol):
    """Welfare re-evaluation surface for endogenous weighting.

    ``dimension_response(j, eps)`` perturbs the driver of dimension j
    (low-quality scale, the welfare identity, the trust stock, or the
    generation capability) and returns (delta_welfare, delta_dimension).
    """

    def dimension_response(self, dim: int, eps: float) -> tuple[float, float]: ...


def endogenous_weights(
    context: DimensionContext, perturbation: float = 0.01
) -> tuple[tuple[float, float, float, float], bool]:
    """Welfare-sensitivity weights: |dW/dI_j| normalized to sum one.

    Falls back to the fixed default vector (flagged via the second return
    value) whenever any dimension's welfare response is numerically flat —
    sensitivities are undefined on a plateau.
    """
    sensitivities = []
    for dim in range(4):
        d_w, d_i = context.dimension_response(dim, perturbation)
        if abs(d_w) < 1e-12 or d_i == 0.0:
            logger.debug("flat welfare response on dimension %d; using fixed weights", dim + 1)
            return FIXED_WEIGHTS, True
        sensitivities.append(abs(d_w / d_i))
    total = sum(sensitivities)
    return tuple(s / total for s in sensitivities), False


# -- proxy estimator surface -------------------------------------------------


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
class SyntheticEventLog:
    """A platform event log: impressions, harm feedback, churn cohorts, detector scores."""

    impressions: tuple[tuple[int, bool, float], ...]  # (item id, is low quality, count)
    feedback: tuple[tuple[str, float, float], ...]  # (harm type, severity, count)
    cohorts: ChurnCohorts
    detector: DetectorReport

    def __post_init__(self) -> None:
        if any(count < 0 for _, _, count in self.impressions):
            raise ValueError("impression counts must be nonnegative")
        if any(count < 0 for _, _, count in self.feedback):
            raise ValueError("feedback counts must be nonnegative")


def proxy_exposure(log: SyntheticEventLog) -> float:
    """Share of impressions from low-quality items; 0 on an empty log."""
    total = sum(count for _, _, count in log.impressions)
    if total == 0:
        logger.debug("empty impression log; exposure proxy defaults to 0")
        return 0.0
    low = sum(count for _, is_low, count in log.impressions if is_low)
    return low / total


def proxy_harm(log: SyntheticEventLog) -> float:
    """Severity-weighted harm feedback per impression."""
    total = sum(count for _, _, count in log.impressions)
    if total == 0:
        return 0.0
    return sum(sev * count for _, sev, count in log.feedback) / total


def proxy_churn_gap(cohorts: ChurnCohorts) -> float:
    """Churn-rate gap between exposure cohorts, normalized by the baseline rate."""
    if cohorts.churn_base == 0:
        raise ZeroBaseline("churn baseline is zero")
    return (cohorts.churn_high - cohorts.churn_low) / cohorts.churn_base


def proxy_detection_gap(detector: DetectorReport) -> float:
    """Detector accuracy shortfall on new generators vs the benchmark baseline.

    Negative values mean detection is ahead of generation; they are
    informative and returned unclamped.
    """
    gap = 1.0 - detector.acc_new / detector.acc_base
    if gap < 0:
        logger.debug("detector ahead of generators (gap %.4f)", gap)
    return gap


def synthesize_log(
    state,
    platform: PlatformState,
    rng: np.random.Generator,
    noise_level: float,
    *,
    cap_gen: float = 1.0,
    cap_det: float = 1.0,
    params: SimParams | None = None,
) -> SyntheticEventLog:
    """Fabricate one tick's event log from the market state.

    Impressions are proportional to amplified exposure per type, harm
    feedback to effective low-quality exposure, churn cohorts follow the
    trust level split by exposure, and detector accuracy follows the
    capability stocks.  Multiplicative U(1-noise, 1+noise) noise is applied
    per field; noise 0 consumes no randomness, so noise-free logs are exact.
    """
    p = params or SimParams()
    px = p.proxy
    if not 0 <= noise_level <= 1:
        raise ValueError("noise_level must lie in [0, 1]")

    def noisy(x: float) -> float:
        if noise_level == 0.0:
            return x
        return x * float(rng.uniform(1.0 - noise_level, 1.0 + noise_level))

    amp_h = platform.gamma_h * state.q_h * px.impression_scale
    amp_l = (
        platform.gamma_l * (1.0 - platform.moderation) * state.q_l * px.impression_scale
    )
    impressions = []
    item_id = 0
    for total, is_low in ((amp_h, False), (amp_l, True)):
        share = total / px.items_per_type
        for _ in range(px.items_per_type):
            impressions.append((item_id, is_low, noisy(share)))
            item_id += 1

    exposure = harmful_exposure(state.q_l, platform, state.verify_rate, state.precision)
    exposure *= px.impression_scale
    feedback = tuple(
        (kind, sev, noisy(rate * exposure))
        for kind, sev, rate in (
            ("clickbait", px.sev_clickbait, px.harm_rate_clickbait),
            ("misinformation", px.sev_misinformation, px.harm_rate_misinformation),
            ("fraud", px.sev_fraud, px.harm_rate_fraud),
        )
    )

    t_max = p.trust.t_max
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
        acc_new=min(max(noisy(acc_new), 0.0), 1.0),
        acc_base=px.detector_acc_base,
    )
    return SyntheticEventLog(
        impressions=tuple(impressions), feedback=feedback, cohorts=cohorts, detector=detector
    )


def proxy_composite(log: SyntheticEventLog, weights: Sequence[float] = FIXED_WEIGHTS) -> float:
    """Compose the four proxies into an index, clamping each into [0, 1] first."""
    dims = [
        proxy_exposure(log),
        proxy_harm(log),
        proxy_churn_gap(log.cohorts),
        proxy_detection_gap(log.detector),
    ]
    clamped = [min(max(d, 0.0), 1.0) for d in dims]
    return composite(clamped, weights)
