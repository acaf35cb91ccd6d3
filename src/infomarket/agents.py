"""Behavioral rules for consumers and the platform, and the agent populations.

Consumers update beliefs from a noisy binary quality signal and verify
when the expected value of resolving uncertainty covers their cost; the
platform nudges its three levers (`Postures`: two amplification weights
and the moderation intensity) by projected gradient ascent on profit net
of a trust penalty, with every other platform quantity read from
`PlatformParams`.  Producers' logit choice over unit profits runs over
whole pools in `market.supply_response`.

All decision rules are pure functions.  Populations are held as arrays
from the moment they are drawn (`ProducerPool`, `ConsumerPool`); the
simulation loop owns all mutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import PlatformParams
from .errors import ConfigError


@dataclass(frozen=True)
class Postures:
    """The platform's three levers: amplification weights and moderation.

    ``gamma_h`` / ``gamma_l`` amplify high- and low-quality content within
    [0, platform.gamma_max]; ``moderation`` removes that fraction of
    amplified low-quality exposure.  One world's posture holds floats, and
    its row of lanes in the tick tuples; a batch of lanes holds arrays of
    one shape (one lane per row, or in the tick, a row of lanes per world).
    Every other platform quantity is a fixed parameter of `PlatformParams`.
    """

    gamma_h: float | np.ndarray
    gamma_l: float | np.ndarray
    moderation: float | np.ndarray

    @classmethod
    def of(cls, postures: Sequence[Postures]) -> Postures:
        """Stack one-world postures into a batch, one lane each (or one row
        each, for postures whose levers are rows of lanes)."""
        return cls(
            gamma_h=np.array([p.gamma_h for p in postures]),
            gamma_l=np.array([p.gamma_l for p in postures]),
            moderation=np.array([p.moderation for p in postures]),
        )

    def take(self, index) -> Postures:
        """The lanes at the given index (rows, or columns of rows)."""
        return Postures(self.gamma_h[index], self.gamma_l[index], self.moderation[index])


def consumer_posterior(prior_h, precision):
    """Posterior probability of high quality after a favorable signal (elementwise).

    ``prior_h`` lies in [0, 1] and ``precision`` in [0.5, 1], the
    probability that the signal reads high when the content is high
    quality and low when it is low.  Where the posterior is undefined (a
    certain-low prior contradicted by a perfect signal) it is 0.  Operators
    only, so floats in give a float out and arrays an array.
    """
    num = prior_h * precision
    den = num + (1.0 - prior_h) * (1.0 - precision)
    # den is 0 only where prior_h, and so num, is 0: the posterior is then 0 / 1.
    return num / (den + (den == 0.0))


def verification_threshold(posterior_h, du_h: float, du_l: float):
    """Cost cutoff below which verification pays: k* = p*dU_H + (1-p)*dU_L (elementwise)."""
    if du_h < 0 or du_l < 0:
        raise ValueError("utility gaps must be nonnegative")
    return posterior_h * (du_h - du_l) + du_l


def platform_update(
    posture: Postures,
    params: PlatformParams,
    gamma_l: tuple[float, float],
    gamma_h: tuple[float, float],
    moderation: tuple[float, float],
) -> Postures:
    """One projected gradient-ascent step on one world's levers, given one
    (profit, trust erosion) gradient pair per lever.

    gamma_L <- clamp(gamma_L + eta*(dPi/dgamma_L - lambda*dErosion/dgamma_L)),
    and symmetrically for gamma_H with its own gradients; moderation moves by
    its own step size xi.  Trust gradients are passed as one-tick-ahead trust
    *erosion* per unit increase of the lever (a positive value means the
    lever destroys trust), so the lambda term brakes pollution-amplifying
    moves and rewards trust-protecting ones.
    """
    (profit_gl, erosion_gl), (profit_gh, erosion_gh), (profit_m, erosion_m) = (
        gamma_l, gamma_h, moderation)
    gl = posture.gamma_l + params.lr_gamma * (profit_gl - params.trust_price * erosion_gl)
    gh = posture.gamma_h + params.lr_gamma * (profit_gh - params.trust_price * erosion_gh)
    m = posture.moderation + params.lr_mod * (profit_m - params.trust_price * erosion_m)
    return Postures(
        gamma_h=min(max(gh, 0.0), params.gamma_max),
        gamma_l=min(max(gl, 0.0), params.gamma_max),
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
    interpolation through the step-ECDF points (value -> fraction with cost
    <= value) at 0 and at every observed cost, constant at 1 past the
    largest.  Interpolating keeps the mapping continuous -- a raw step ECDF
    generically has no exact fixed point -- while agreeing with the step
    ECDF exactly at every observed cost.  ``knot_k`` / ``knot_v`` hold the
    knots' costs and CDF values, starting at cost 0.
    """

    def __init__(self, costs: Sequence[float] | np.ndarray):
        ks = np.sort(np.asarray(costs, dtype=float))
        if ks.size == 0:
            raise ValueError("consumer population is empty")
        if ks[0] < 0:
            raise ValueError("verification costs must be nonnegative")
        self.costs = ks
        self.n = ks.size
        knots, counts = np.unique(np.concatenate([[0.0], ks]), return_counts=True)
        counts[0] -= 1  # the knot at 0 is not a consumer
        self.knot_k = knots
        self.knot_v = np.cumsum(counts) / self.n
        # The rise from each knot to the next; flat over a unit span past the
        # last, whatever the largest cost's spacing.
        self._dk = np.append(np.diff(knots), 1.0)
        self._slope = np.diff(self.knot_v, append=1.0) / self._dk
        # Costs near the largest float may sum past it: the outlay is then inf.
        with np.errstate(over="ignore"):
            self._cumcost = np.concatenate([[0.0], np.cumsum(ks)])

    def cdf(self, k):
        """Fraction of consumers whose cost is covered by threshold k
        (elementwise; a float gives a float with the array form's bits).

        Thresholds are nonnegative; a negative k is read as 0.
        """
        if isinstance(k, float):  # as np.maximum(k, 0.0): NaN stays, -0.0 is 0.0
            k = k if k > 0.0 or k != k else 0.0
        else:
            k = np.maximum(np.asarray(k, dtype=float), 0.0)
        i = self.knot_k.searchsorted(k, side="right") - 1
        if isinstance(i, np.ndarray):
            return self.knot_v[i] + self._slope[i] * (k - self.knot_k[i])
        return self.knot_v.item(i) + self._slope.item(i) * (k - self.knot_k.item(i))

    def segments(self, i: np.ndarray) -> tuple[np.ndarray, ...]:
        """(cost, CDF value) at knot i, the cost span to the next knot and the
        CDF's slope over it, for each i."""
        return self.knot_k[i], self.knot_v[i], self._dk[i], self._slope[i]

    def spend(self, k: float | np.ndarray) -> float | np.ndarray:
        """Total verification outlay of everyone with cost <= k (elementwise
        over an array; a float gives a float)."""
        i = self.costs.searchsorted(k, side="right")
        return self._cumcost[i] if isinstance(i, np.ndarray) else self._cumcost.item(i)


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
    population mean of each productivity equals its configured target.  A
    draw that leaves the positive finite floats (the rescaling underflows
    to 0, or a large target overflows), or whose mean overflows, is a
    configuration error naming the keys: the aggregation weights divide by
    that mean.
    """
    try:
        correction = math.exp(-0.5 * log_sd**2)
    except OverflowError:  # log_sd**2 past the largest float
        correction = 0.0
    draws = []
    for key, mean in (("agents.mean_prod_h", mean_prod_h), ("agents.mean_prod_l", mean_prod_l)):
        with np.errstate(all="ignore"):
            a = rng.lognormal(0.0, log_sd, size=n) * mean * correction
            mean_drawn = a.mean()
        if not (np.all((a > 0.0) & (a < math.inf)) and mean_drawn < math.inf):
            raise ConfigError(
                f"{key} = {mean!r} and agents.prod_log_sd = {log_sd!r} draw productivities "
                "outside the positive finite floats, or whose mean overflows"
            )
        draws.append(a)
    return ProducerPool(prod_h=draws[0], prod_l=draws[1], rationality=rationality)


def draw_consumers(n: int, rng: np.random.Generator, *, k_max: float) -> ConsumerPool:
    """Draw consumers with uniform verification costs on [0, k_max]."""
    return ConsumerPool(rng.uniform(0.0, k_max, size=n))
