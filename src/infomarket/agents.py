"""Behavioral rules for producers, consumers, and the platform.

Producers pick a content type through a logit choice over expected unit
profits; consumers update beliefs from a noisy binary quality signal and
verify when the expected value of resolving uncertainty covers their cost;
the platform nudges its amplification weights and moderation intensity by
projected gradient ascent on profit net of a trust penalty.

All decision rules are pure functions.  Populations are held as arrays
from the moment they are drawn (`ProducerPool`, `ConsumerPool`); the
simulation loop owns all mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal, Sequence

import numpy as np

from .errors import TaxOnHighQuality

ContentType = Literal["H", "L"]


@dataclass(frozen=True)
class PlatformState:
    """Platform levers and learning parameters.

    ``gamma_h`` / ``gamma_l`` are amplification weights in [0, gamma_max],
    ``moderation`` removes that fraction of amplified low-quality exposure,
    ``revenue_share`` is the platform's cut of ad revenue, ``ad_rate`` the
    revenue per amplified unit.  ``lr_gamma`` / ``lr_mod`` are the gradient
    step sizes and ``trust_price`` the shadow price attached to trust
    erosion in the update rule.
    """

    gamma_h: float
    gamma_l: float
    moderation: float
    revenue_share: float
    ad_rate: float
    lr_gamma: float
    lr_mod: float
    trust_price: float
    gamma_max: float = 2.0

    def __post_init__(self) -> None:
        if not 0 <= self.gamma_h <= self.gamma_max:
            raise ValueError(f"gamma_h out of [0, {self.gamma_max}]: {self.gamma_h}")
        if not 0 <= self.gamma_l <= self.gamma_max:
            raise ValueError(f"gamma_l out of [0, {self.gamma_max}]: {self.gamma_l}")
        if not 0 <= self.moderation <= 1:
            raise ValueError(f"moderation out of [0, 1]: {self.moderation}")
        if not 0 < self.revenue_share < 1:
            raise ValueError(f"revenue_share out of (0, 1): {self.revenue_share}")
        if not self.ad_rate > 0:
            raise ValueError("ad_rate must be positive")
        if self.lr_gamma < 0 or self.lr_mod < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.trust_price < 0:
            raise ValueError("trust_price must be nonnegative")


def producer_choice_prob(profit_h: float, profit_l: float, rationality: float) -> float:
    """Logit probability of choosing high-quality production.

    exp(beta*pi_H) / (exp(beta*pi_H) + exp(beta*pi_L)), evaluated after
    subtracting the larger scaled payoff so neither exponential overflows.
    beta = 0 collapses to a fair coin; beta -> inf approaches the indicator
    of the larger profit.
    """
    a = rationality * profit_h
    b = rationality * profit_l
    m = max(a, b)
    ea = math.exp(a - m)
    eb = math.exp(b - m)
    return ea / (ea + eb)


def unit_profit(
    content_type: ContentType,
    platform: PlatformState,
    cost: float,
    tax: float = 0.0,
) -> float:
    """Profit per unit of content: (1 - theta) * rho * gamma_j - cost - tax.

    The levy applies to low-quality output only; taxing high-quality output
    is rejected rather than silently ignored.
    """
    if content_type == "H":
        if tax > 0:
            raise TaxOnHighQuality("per-unit levy applies to low-quality output only")
        gamma = platform.gamma_h
        wedge = 0.0
    else:
        gamma = platform.gamma_l
        wedge = tax
    return (1.0 - platform.revenue_share) * platform.ad_rate * gamma - cost - wedge


def consumer_posterior(prior_h: float, signal: ContentType, precision: float) -> float:
    """Posterior probability of high quality after one noisy signal.

    The channel is symmetric: the stated precision is the probability the
    signal matches the true type in either direction.
    """
    if not 0 <= prior_h <= 1:
        raise ValueError("prior_h must lie in [0, 1]")
    if not 0.5 <= precision <= 1:
        raise ValueError("precision must lie in [0.5, 1]")
    like_h = precision if signal == "H" else 1.0 - precision
    like_l = 1.0 - precision if signal == "H" else precision
    num = prior_h * like_h
    den = num + (1.0 - prior_h) * like_l
    if den == 0.0:
        return prior_h
    return num / den


def verification_threshold(posterior_h: float, du_h: float, du_l: float) -> float:
    """Cost cutoff below which verification pays: k* = p*dU_H + (1-p)*dU_L."""
    if du_h < 0 or du_l < 0:
        raise ValueError("utility gaps must be nonnegative")
    return posterior_h * du_h + (1.0 - posterior_h) * du_l


def platform_update(
    state: PlatformState,
    grad_profit_gamma: float,
    grad_trust_gamma: float,
    grad_profit_mod: float,
    grad_trust_mod: float,
    grad_profit_gamma_h: float = 0.0,
    grad_trust_gamma_h: float = 0.0,
) -> PlatformState:
    """One projected gradient-ascent step on the platform levers.

    gamma_L <- clamp(gamma_L + eta*(dPi/dgamma_L - lambda*dErosion/dgamma_L)),
    and symmetrically for gamma_H with its own gradients; moderation moves by
    its own step size xi.  Trust gradients are passed as one-tick-ahead trust
    *erosion* per unit increase of the lever (a positive value means the
    lever destroys trust), so the lambda term brakes pollution-amplifying
    moves and rewards trust-protecting ones.
    """
    gl = state.gamma_l + state.lr_gamma * (
        grad_profit_gamma - state.trust_price * grad_trust_gamma
    )
    gh = state.gamma_h + state.lr_gamma * (
        grad_profit_gamma_h - state.trust_price * grad_trust_gamma_h
    )
    m = state.moderation + state.lr_mod * (
        grad_profit_mod - state.trust_price * grad_trust_mod
    )
    return replace(
        state,
        gamma_l=min(max(gl, 0.0), state.gamma_max),
        gamma_h=min(max(gh, 0.0), state.gamma_max),
        moderation=min(max(m, 0.0), 1.0),
    )


@dataclass
class ProducerPool:
    """Producer population as arrays, with pre-baked aggregation weights.

    ``prod_h`` / ``prod_l`` hold each producer's type-specific productivity;
    ``rationality`` is the population's logit sharpness.  The aggregation
    weights are the productivities relative to their population means.
    """

    prod_h: np.ndarray
    prod_l: np.ndarray
    rationality: float
    weight_h: np.ndarray = field(init=False)
    weight_l: np.ndarray = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        self.prod_h = np.asarray(self.prod_h, dtype=float)
        self.prod_l = np.asarray(self.prod_l, dtype=float)
        if not (np.all(self.prod_h > 0) and np.all(self.prod_l > 0)):
            raise ValueError("productivities must be positive")
        if self.rationality < 0:
            raise ValueError("rationality must be nonnegative")
        self.weight_h = self.prod_h / self.prod_h.mean()
        self.weight_l = self.prod_l / self.prod_l.mean()
        self.n = int(self.prod_h.size)


class ConsumerPool:
    """Consumer population as a sorted verification-cost vector.

    The population CDF of verification costs is the piecewise-linear
    interpolation through the step-ECDF knots (value -> fraction with cost
    <= value).  Interpolating keeps the mapping continuous -- a raw step
    ECDF generically has no exact fixed point -- while agreeing with the
    step ECDF exactly at every observed cost.
    """

    def __init__(self, costs: Sequence[float] | np.ndarray):
        ks = np.sort(np.asarray(costs, dtype=float))
        if ks.size == 0:
            raise ValueError("consumer population is empty")
        if ks[0] < 0:
            raise ValueError("verification costs must be nonnegative")
        self.costs = ks
        self.n = ks.size
        uniq, counts = np.unique(ks, return_counts=True)
        self._knots_x = uniq
        self._knots_y = np.cumsum(counts) / self.n
        self._cumcost = np.concatenate([[0.0], np.cumsum(ks)])

    def cdf(self, k: float) -> float:
        """Fraction of consumers whose cost is covered by threshold k."""
        x, y = self._knots_x, self._knots_y
        if k < x[0]:
            # Ramp from zero at cost 0 up to the first knot.
            if k <= 0.0:
                return 0.0
            return float(y[0] * k / x[0])
        if k >= x[-1]:
            return 1.0
        j = int(np.searchsorted(x, k, side="right"))
        x0, x1 = x[j - 1], x[j]
        y0, y1 = y[j - 1], y[j]
        return float(y0 + (y1 - y0) * (k - x0) / (x1 - x0))

    def cdf_many(self, k: np.ndarray) -> np.ndarray:
        """`cdf` elementwise over an array of thresholds, with the same arithmetic."""
        x, y = self._knots_x, self._knots_y
        j = np.clip(np.searchsorted(x, k, side="right"), 1, x.size - 1)
        x0, x1 = x[j - 1], x[j]
        y0, y1 = y[j - 1], y[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ramp = np.where(k <= 0.0, 0.0, y[0] * k / x[0])
            inner = np.where(k >= x[-1], 1.0, y0 + (y1 - y0) * (k - x0) / (x1 - x0))
        return np.where(k < x[0], ramp, inner)

    def spend(self, k: float | np.ndarray) -> float | np.ndarray:
        """Total verification outlay of everyone with cost <= k (elementwise over an array)."""
        return self._cumcost[np.searchsorted(self.costs, k, side="right")]


def draw_producers(
    n: int,
    rng: np.random.Generator,
    *,
    mean_prod_h: float,
    mean_prod_l: float,
    log_sd: float,
    rationality: float,
) -> ProducerPool:
    """Draw a producer population with lognormal productivities.

    Draws are lognormal(0, log_sd) rescaled by exp(-log_sd^2/2) so the
    population mean of each productivity equals its configured target.
    """
    correction = math.exp(-0.5 * log_sd**2)
    a_h = rng.lognormal(0.0, log_sd, size=n) * mean_prod_h * correction
    a_l = rng.lognormal(0.0, log_sd, size=n) * mean_prod_l * correction
    return ProducerPool(prod_h=a_h, prod_l=a_l, rationality=rationality)


def draw_consumers(n: int, rng: np.random.Generator, *, k_max: float) -> ConsumerPool:
    """Draw consumers with uniform verification costs on [0, k_max]."""
    return ConsumerPool(rng.uniform(0.0, k_max, size=n))
