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
A log covers a whole series with one row per tick, and each proxy returns
one value per tick.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .agents import Postures
from .config import WEIGHT_TOL, IpiParams, SimParams
from .errors import ConfigError, DegenerateAnchors, WeightSumViolation, ZeroBaseline
from .market import _clamp, amplified, harmful_exposure

logger = logging.getLogger(__name__)

FIXED_WEIGHTS = IpiParams().weights


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


def dim_tech_risk(cap_gen: float, cap_det: float, mu_tech: float, sigma_tech: float) -> float:
    """Saturating transform of the generation-vs-detection capability log-ratio."""
    if cap_gen <= 0 or cap_det <= 0:
        raise ValueError("capability stocks must be positive")
    if sigma_tech <= 0:
        raise ValueError("sigma_tech must be positive")
    z = (math.log(cap_gen / cap_det) - mu_tech) / sigma_tech
    return 0.5 * (1.0 + math.tanh(z))


def composite(dims: Sequence, weights: Sequence[float]) -> float | np.ndarray:
    """Weighted combination of the four dimensions, each a float or an array of them."""
    if len(dims) != 4 or len(weights) != 4:
        raise ValueError("expected four dimensions and four weights")
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > WEIGHT_TOL:
        raise WeightSumViolation(f"weights must be nonnegative and sum to 1: {tuple(weights)}")
    return sum(w * d for w, d in zip(weights, dims))


def is_flat(d_w: float, d_i: float) -> bool:
    """Whether a (welfare, dimension) response is too flat to weight by:
    sensitivities are undefined on a plateau."""
    return abs(d_w) < 1e-12 or d_i == 0.0


def endogenous_weights(
    responses: Sequence[tuple[float, float]],
) -> tuple[tuple[float, float, float, float], bool]:
    """Welfare-sensitivity weights: |dW/dI_j| normalized to sum one.

    ``responses`` holds each dimension's (delta_welfare, delta_dimension)
    under a small step in its driver.  Falls back to the fixed default
    vector (flagged via the second return value) whenever any response is
    flat.
    """
    for dim, (d_w, d_i) in enumerate(responses):
        if is_flat(d_w, d_i):
            logger.debug("flat welfare response on dimension %d; using fixed weights", dim + 1)
            return FIXED_WEIGHTS, True
    sensitivities = [abs(d_w / d_i) for d_w, d_i in responses]
    total = sum(sensitivities)
    return tuple(s / total for s in sensitivities), False


# -- proxy estimator surface -------------------------------------------------


@dataclass(frozen=True, eq=False)
class SyntheticEventLog:
    """A platform event log over a series, one row per tick.

    Impression counts per item (high-quality items first, then as many
    low-quality ones), clickbait, misinformation and fraud feedback counts
    with their severities, the churn rates of the high-exposure,
    low-exposure and baseline cohorts, and detector accuracy on new
    generators against the benchmark accuracy.
    """

    impressions: np.ndarray
    feedback: np.ndarray
    severities: tuple[float, float, float]
    churn: np.ndarray
    acc_new: np.ndarray
    acc_base: float

    def __post_init__(self) -> None:
        if (self.impressions < 0).any():
            raise ValueError("impression counts must be nonnegative")
        if (self.feedback < 0).any():
            raise ValueError("feedback counts must be nonnegative")
        if not ((0 <= self.churn) & (self.churn <= 1)).all():
            raise ValueError("churn rates must lie in [0, 1]")
        if not 0 < self.acc_base <= 1:
            raise ValueError("acc_base must lie in (0, 1]")
        if not ((0 <= self.acc_new) & (self.acc_new <= 1)).all():
            raise ValueError("acc_new must lie in [0, 1]")


def _per_impression(log: SyntheticEventLog, counts: np.ndarray) -> np.ndarray:
    """Per tick, the counts over all impressions; 0 on a tick without impressions.

    Both sums add item by item, as Python's sum does.
    """
    none = np.zeros(len(log.impressions))
    total = sum(log.impressions.T, none)
    empty = total == 0.0
    return np.where(empty, 0.0, sum(counts.T, none) / (total + empty))


def proxy_exposure(log: SyntheticEventLog) -> np.ndarray:
    """Share of impressions from low-quality items per tick; 0 on a tick without any."""
    return _per_impression(log, log.impressions[:, log.impressions.shape[1] // 2:])


def proxy_harm(log: SyntheticEventLog) -> np.ndarray:
    """Severity-weighted harm feedback per impression, per tick; a weighted
    count that overflows gives inf, which the composite clamps to 1."""
    with np.errstate(over="ignore"):
        return _per_impression(log, log.feedback * np.array(log.severities))


def proxy_churn_gap(log: SyntheticEventLog) -> np.ndarray:
    """Churn-rate gap between exposure cohorts per tick, normalized by the baseline rate."""
    high, low, base = log.churn.T
    if (base == 0).any():
        raise ZeroBaseline("churn baseline is zero")
    return (high - low) / base


def proxy_detection_gap(log: SyntheticEventLog) -> np.ndarray:
    """Detector accuracy shortfall on new generators vs the benchmark baseline, per tick.

    Negative values mean detection is ahead of generation; they are
    informative and returned unclamped.
    """
    gap = 1.0 - log.acc_new / log.acc_base
    if (gap < 0).any():
        logger.debug("detector ahead of generators (min gap %.4f)", gap.min())
    return gap


def synthesize_log(
    series: Mapping[str, np.ndarray],
    params: SimParams,
    noise_level: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SyntheticEventLog:
    """Fabricate the event log of a series of ticks from its columns.

    ``series`` maps each name to one value per tick: the run record's
    ``q_h``, ``q_l``, ``verify_rate``, ``precision`` and ``trust``, the
    posture the tick was cleared under (``gamma_h``, ``gamma_l``, ``m``),
    and the capability stocks ``cap_gen`` and ``cap_det`` of its exogenous
    path.  Impressions are proportional to amplified exposure per type, harm
    feedback to effective low-quality exposure, churn cohorts follow the
    trust level split by exposure, and detector accuracy follows the
    capability stocks.  Multiplicative U(1-noise, 1+noise) noise is drawn
    for every field in one call, tick by tick in field order.  Noise 0
    draws nothing (``rng`` may then be None), so noise-free logs are exact.
    """
    px = params.proxy
    if not 0 <= noise_level <= 1:
        raise ValueError("noise_level must lie in [0, 1]")
    q_h, q_l, verify_rate, precision, trust = (
        series[c] for c in ("q_h", "q_l", "verify_rate", "precision", "trust"))
    postures = Postures(series["gamma_h"], series["gamma_l"], series["m"])
    high, low = amplified(q_h, q_l, postures)
    t_max = params.trust.t_max
    depletion = (t_max - trust) / t_max
    churn_base = px.churn_base_floor + px.churn_trust_slope * depletion
    half_gap = 0.5 * px.churn_gap_coef * depletion * churn_base
    # Python's ** per tick: numpy's power differs from it in the last bit.
    # Detection at or ahead of generation caps the ratio at 1 without the
    # power, which a large exponent would overflow.
    ratio = np.array([
        1.0 if d >= g else min((d / g) ** px.detector_exponent, 1.0)
        for g, d in zip(series["cap_gen"].tolist(), series["cap_det"].tolist())
    ])
    k = px.items_per_type
    rates = (px.harm_rate_clickbait, px.harm_rate_misinformation, px.harm_rate_fraud)
    # A finite scale can overflow the counts, and the proxies would divide inf by inf.
    with np.errstate(over="ignore"):
        harm = harmful_exposure(q_l, postures, verify_rate, precision) * px.impression_scale
        rows = np.column_stack(
            [high * px.impression_scale / k] * k
            + [low * px.impression_scale / k] * k
            + [rate * harm for rate in rates]
            + [churn_base + half_gap, np.maximum(churn_base - half_gap, 0.0), churn_base]
            + [px.detector_acc_base * ratio]
        )
        if noise_level != 0.0:
            rows = rows * rng.uniform(1.0 - noise_level, 1.0 + noise_level, size=rows.shape)
    if not np.isfinite(rows).all():
        raise ConfigError(
            f"proxy.impression_scale = {px.impression_scale!r} with proxy.harm_rate_clickbait, "
            f"_misinformation and _fraud = {rates!r} overflows the event log: the proxy "
            "section's counts must stay finite"
        )
    impressions, feedback, churn, acc_new = np.split(rows, [2 * k, 2 * k + 3, 2 * k + 6], axis=1)
    return SyntheticEventLog(
        impressions=impressions,
        feedback=feedback,
        severities=(px.sev_clickbait, px.sev_misinformation, px.sev_fraud),
        churn=churn,
        acc_new=_clamp(acc_new[:, 0], 0.0, 1.0),
        acc_base=px.detector_acc_base,
    )


def proxy_composite(log: SyntheticEventLog, weights: Sequence[float] = FIXED_WEIGHTS) -> np.ndarray:
    """Compose the four proxies into an index per tick, clamping each into [0, 1] first."""
    dims = [proxy_exposure(log), proxy_harm(log), proxy_churn_gap(log), proxy_detection_gap(log)]
    return composite([_clamp(d, 0.0, 1.0) for d in dims], weights)
