"""One-tick market clearing, the verification fixed point, trust, and welfare.

A tick runs the three stages of the game in fixed order: producers choose
content types from last tick's platform posture (logit over expected unit
profits), the platform's amplification and moderation turn supply into
effective pollution, consumers settle into a verification rate consistent
with the signal precision it induces, trust moves one Euler step, welfare is
assembled, and the platform takes one projected gradient step from central
finite differences of its one-tick-ahead profit and trust responses.

Postures clear as lanes of a batch (`Postures`, one lane per row).
`supply_response` takes a batch: a tick makes one seven-row call, the
posted posture plus the six finite-difference probes.  `clear_market`
clears a batch of lanes: the tick clears its posted posture as one lane,
the welfare anchors clear the whole lattice and the worst corner as lanes
of one `static_equilibrium_welfare` call, and the endogenous-weight
re-evaluation clears a base and a perturbed lane.  The verification fixed point is solved
exactly per lane (`solve_verification_fixed_point`), so a lane's result
does not depend on the batch it is cleared in.

Supply is aggregated in expectation: each producer contributes its
productivity-scaled unit mass split between the two types by its choice
probability, so a run is deterministic given the population draw and the
series is smooth enough for finite-difference platform gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import econ
from .agents import (
    ConsumerPool,
    PlatformState,
    ProducerPool,
    consumer_posterior,
    platform_update,
    verification_threshold,
)
from .config import SimParams, TrustParams
from .errors import NoConvergence
from .policy import fiduciary_objective


@dataclass(frozen=True)
class MarketState:
    """Snapshot of one tick: outputs, pollution, verification, trust, welfare."""

    tick: int
    q_h: float
    q_l: float
    pollution: float
    verify_rate: float
    precision: float
    trust: float
    welfare: float

    def __post_init__(self) -> None:
        if self.q_h < 0 or self.q_l < 0:
            raise ValueError("outputs must be nonnegative")
        if not 0 <= self.pollution <= 1:
            raise ValueError(f"pollution out of [0, 1]: {self.pollution}")
        if not 0 <= self.verify_rate <= 1:
            raise ValueError(f"verify_rate out of [0, 1]: {self.verify_rate}")
        if not 0.5 <= self.precision <= 1:
            raise ValueError(f"precision out of [0.5, 1]: {self.precision}")
        if self.trust < 0:
            raise ValueError("trust must be nonnegative")


def pollution_density(q_h: float, q_l: float, platform: PlatformState) -> float:
    """Share of amplified, unmoderated low-quality content in total amplified exposure.

    Returns 0 when both outputs are zero (documented convention for the
    empty market).
    """
    if q_h < 0 or q_l < 0:
        raise ValueError("outputs must be nonnegative")
    low = platform.gamma_l * (1.0 - platform.moderation) * q_l
    total = platform.gamma_h * q_h + low
    if total == 0.0:
        return 0.0
    return low / total


def signal_precision(
    pollution,
    verify_rate,
    provenance_boost: float,
    *,
    pi_base: float = 0.85,
    kappa_pollution: float = 0.3,
    kappa_verify: float = 0.1,
):
    """Affine signal precision, clamped to [0.5, 1] (elementwise).

    Pollution dilutes the public signal, aggregate verification and
    provenance standards sharpen it.
    """
    raw = pi_base - pollution * kappa_pollution + verify_rate * kappa_verify + provenance_boost
    return np.minimum(np.maximum(raw, 0.5), 1.0)[()]


def _precision(pollution, verify_rate, provenance_boost: float, params: SimParams):
    mk = params.market
    return signal_precision(pollution, verify_rate, provenance_boost, pi_base=mk.pi_base,
                            kappa_pollution=mk.kappa_pollution, kappa_verify=mk.kappa_verify)


def _threshold(pollution, precision, params: SimParams):
    """Verification cost cutoff after a favorable signal (prior 1 - pollution)."""
    post = consumer_posterior(1.0 - pollution, "H", precision)
    return verification_threshold(post, params.agents.du_h, params.agents.du_l)


# Lanes per block of the knot scan: memory stays O(block x knots).
_LANE_BLOCK = 64
_CLAMPS = np.array([0.5, 1.0])  # precision's bounds


@dataclass(frozen=True)
class FixedPoint:
    """Rate, precision and cost threshold at the fixed point; unpacks as (rate, precision)."""

    verify_rate: float | np.ndarray
    precision: float | np.ndarray
    threshold: float | np.ndarray

    def __iter__(self):
        return iter((self.verify_rate, self.precision))


def solve_verification_fixed_point(
    pollution,
    consumers: ConsumerPool,
    provenance_boost: float = 0.0,
    *,
    params: SimParams,
) -> FixedPoint:
    """Find the verification rate consistent with the precision it induces, exactly.

    The mapping is T(V) = F(k*(pi(pollution, V))): precision is affine in
    the rate and clamped to [0.5, 1], the posterior after a favorable signal
    (prior 1 - pollution) is Moebius in precision and sets the threshold
    k*, and the consumer-cost CDF F, linear between its knots, turns k*
    back into a rate.  Per lane of ``pollution``:

    1. Scan the CDF knots (k_i, V_i), in blocks of lanes, for the first one
       with k*(pi(V_i)) < k_i; the fixed point's segment ends there (none:
       everyone verifies, V = 1).
    2. On the segment, rate and raw precision are linear in the cost k.
       Where precision is clamped the threshold is a constant; between the
       clamps (k - k*) times the posterior's denominator is a quadratic in
       k, solved in closed form.  The sign of k - k* at the clamp edges
       picks the piece.
    3. Check the residual |T(V) - V| once against ``market.fp_tol``; raise
       NoConvergence naming the first lane that misses it.

    When du_h <= du_l (the default) T falls in V and the fixed point is
    unique.  When du_h > du_l T rises in V and may have several; the solve
    returns the least, unless T(V) - V dips below zero and back between two
    neighbouring knots, which the scan cannot see.  Near a certain-low
    prior (pollution within about 1e-8 of 1) a signal that can reach
    precision 1 makes T jump between neighbouring floats, and no float
    meets the tolerance.

    Lanes are solved independently: a lane's result does not depend on its
    batch.  Scalars in give scalars out.
    """
    mk = params.market
    rho = np.asarray(pollution, dtype=float)
    lanes = rho.reshape(-1)
    if not ((lanes >= 0.0) & (lanes <= 1.0)).all():
        raise ValueError("pollution must lie in [0, 1]")
    knot_k, knot_v = consumers.knot_k, consumers.knot_v

    # (1) per block of lanes: the thresholds at every knot's rate and at the
    # two precision clamps; the segment ends at the first knot whose
    # threshold lies below its cost (never knot 0, so 0 marks "none")
    end = np.empty(lanes.size, dtype=np.intp)
    k_clamp = np.empty((lanes.size, 2))
    for start in range(0, lanes.size, _LANE_BLOCK):
        block = slice(start, start + _LANE_BLOCK)
        r = lanes[block, None]
        pi = np.empty((r.size, knot_v.size + 2))
        pi[:, :-2] = _precision(r, knot_v, provenance_boost, params)
        pi[:, -2:] = _CLAMPS
        k_star = _threshold(r, pi, params)
        end[block] = np.argmax(k_star[:, :-2] < knot_k, axis=1)
        k_clamp[block] = k_star[:, -2:]
    v = _segment_root(lanes, end, k_clamp, consumers, provenance_boost, params)

    # (3) the residual check
    precision = _precision(lanes, v, provenance_boost, params)
    k_star = _threshold(lanes, precision, params)
    resid = np.abs(consumers.cdf(k_star) - v)
    if not (resid < mk.fp_tol).all():
        i = int(np.argmax(~(resid < mk.fp_tol)))
        raise NoConvergence(
            f"verification fixed point: residual {resid[i]:.3e} not below "
            f"market.fp_tol = {mk.fp_tol:.3e} (pollution={lanes[i]:.4f})"
        )
    shape = rho.shape
    return FixedPoint(v.reshape(shape)[()], precision.reshape(shape)[()], k_star.reshape(shape)[()])


def _segment_root(
    rho: np.ndarray,
    end: np.ndarray,
    k_clamp: np.ndarray,
    consumers: ConsumerPool,
    provenance_boost: float,
    params: SimParams,
) -> np.ndarray:
    """Step 2 of the solve: each lane's root on the CDF segment ending at knot `end`.

    At cost k = k0 + x (x in [0, dk]) the rate is v0 + s x and raw precision
    pi0 + sigma x, which reaches the clamps at x_lo and x_hi.  Beyond them
    the threshold is k_clamp, the root x_flat; between them the root is
    the quadratic's a x^2 + b x + c.
    """
    mk, ag = params.market, params.agents
    # Lanes with no segment (end 0) read the flat one past the last knot: V = 1.
    k0, v0, dk, s = consumers.segments(end - 1)
    # Raw precision at v0, in `signal_precision`'s arithmetic as the scan had it.
    pi0 = mk.pi_base - rho * mk.kappa_pollution + v0 * mk.kappa_verify + provenance_boost
    sigma = s * mk.kappa_verify
    prior = 1.0 - rho
    skew = prior - rho  # the posterior's denominator is rho + skew * precision
    d0 = rho + skew * pi0
    u = k0 - ag.du_l
    du_prior = prior * (ag.du_h - ag.du_l)
    # A flat precision (sigma 0) divides by zero and a subnormal one
    # overflows; fmax/fmin send the results to an edge of the segment.  A
    # root lost to overflow shows in the residual check.
    with np.errstate(all="ignore"):
        a = skew * sigma
        b = sigma * (u * skew - du_prior) + d0
        c = u * d0 - du_prior * pi0
        # The upward crossing (-b + root) / 2a, as q / a or c / q to avoid cancellation.
        q = (b + np.copysign(np.sqrt(np.maximum(b * b - a * 4.0 * c, 0.0)), b)) * -0.5
        x_lo, x_hi = np.fmin(np.fmax((_CLAMPS - pi0[:, None]) / sigma[:, None], 0.0), dk[:, None]).T
        x_mid = np.where(b < 0.0, q / a, c / q)
    x_flat_lo, x_flat_hi = (k_clamp - k0[:, None]).T
    # The lower clamp's root if k - k* turns nonnegative on it (at x = 0 the
    # threshold there is k_lo, so x_flat_lo >= 0), else the upper clamp's if
    # k - k* is still negative where it starts, else the quadratic's.
    x = np.where(
        (x_hi < dk) & (x_flat_hi > x_hi), np.fmin(x_flat_hi, dk), np.fmin(np.fmax(x_mid, x_lo), x_hi)
    )
    x = np.where((x_lo > 0.0) & (x_flat_lo <= x_lo), x_flat_lo, x)
    return v0 + s * x


def trust_update(trust: float, i1: float, flow: float, params: TrustParams) -> float:
    """One Euler step of the trust stock, clamped into [0, t_max].

    T' = T - hit * I1 * flow + repair_gain * repair_flow - decay * T.
    """
    if not 0 <= trust <= params.t_max:
        raise ValueError(f"trust out of [0, {params.t_max}]: {trust}")
    if not 0 <= i1 <= 1:
        raise ValueError("i1 must lie in [0, 1]")
    if flow < 0:
        raise ValueError("flow must be nonnegative")
    t = (
        trust
        - params.pollution_hit * i1 * flow
        + params.repair_gain * params.repair_flow
        - params.decay * trust
    )
    return min(max(t, 0.0), params.t_max)


def steady_state_trust(i1: np.ndarray, flow: np.ndarray, params: TrustParams) -> np.ndarray:
    """Trust level at which the Euler step is stationary, clamped into bounds (per lane)."""
    t = (params.repair_gain * params.repair_flow - params.pollution_hit * i1 * flow) / params.decay
    return _clamp(t, 0.0, params.t_max)


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """min(max(x, lo), hi) elementwise, resolving ties and NaN as Python's min/max do."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def harmful_exposure(
    q_l: float, platform: PlatformState, verify_rate: float, precision: float
) -> float:
    """Amplified low-quality exposure that actually lands: unmoderated,
    unverified, and signal-misled."""
    return (
        platform.gamma_l
        * (1.0 - platform.moderation)
        * q_l
        * (1.0 - verify_rate)
        * (1.0 - precision)
    )


def welfare_value(
    *,
    q_h: float,
    q_l: float,
    verify_rate: float,
    precision: float,
    trust: float,
    platform: PlatformState,
    producer_profit: float,
    platform_profit: float,
    verification_spend: float,
    params: SimParams,
) -> float:
    """Assemble social welfare for one tick.

    Consumed high-quality value, convex harm from effective low-quality
    exposure, both surpluses (producer surplus pre-tax: the levy and the
    revenue share are transfers), the real resource cost of verification,
    and the trust stock at its shadow value.  Exactly linear in value_h and
    lambda_trust by construction.
    """
    w = params.welfare
    x = harmful_exposure(q_l, platform, verify_rate, precision)
    harm = w.harm_lin * x + w.harm_quad * x * x
    value = w.value_h * platform.gamma_h * q_h
    return (
        value
        - harm
        + producer_profit
        + platform_profit
        - verification_spend
        + w.lambda_trust * trust
    )


@dataclass(frozen=True)
class Populations:
    producers: ProducerPool
    consumers: ConsumerPool

    @property
    def total(self) -> int:
        return self.producers.n + self.consumers.n


@dataclass(frozen=True)
class Postures:
    """A batch of posted platform postures, one lane per row.

    The levers vary by lane; revenue share and ad rate are shared.  A batch
    stands in for a `PlatformState` in the lane arithmetic of the clearing
    chain (`harmful_exposure`, `welfare_value`).
    """

    gamma_h: np.ndarray
    gamma_l: np.ndarray
    moderation: np.ndarray
    revenue_share: float
    ad_rate: float

    @classmethod
    def of(cls, platforms: Sequence[PlatformState]) -> Postures:
        """Stack postures that share the first one's revenue share and ad rate."""
        return cls(
            gamma_h=np.array([p.gamma_h for p in platforms]),
            gamma_l=np.array([p.gamma_l for p in platforms]),
            moderation=np.array([p.moderation for p in platforms]),
            revenue_share=platforms[0].revenue_share,
            ad_rate=platforms[0].ad_rate,
        )

    def take(self, rows: np.ndarray | slice) -> Postures:
        """The lanes at the given row indices."""
        return Postures(
            self.gamma_h[rows], self.gamma_l[rows], self.moderation[rows], self.revenue_share,
            self.ad_rate,
        )


@dataclass(frozen=True)
class SupplyResult:
    """Per-row supply of a batch of postures, arrays of shape (B,)."""

    q_h: np.ndarray
    q_l: np.ndarray
    producer_profit: np.ndarray


def supply_response(
    pool: ProducerPool,
    postures: Postures,
    *,
    cost_h_base: float,
    cost_l_base: float,
    gen_boost: float | np.ndarray,
    tax: float | np.ndarray,
    extra_q_l: float = 0.0,
) -> SupplyResult:
    """Expected supply and producer surplus for each of a batch of posted postures.

    Per-producer unit costs divide the type-level closed-form cost by the
    individual productivity; generation capability cheapens low-quality
    templates by the gen_boost factor.  Choice probabilities are the stable
    logit over per-unit profits; contributions are productivity-scaled unit
    masses.  Producer surplus is reported pre-tax (the levy is a transfer).
    ``tax`` and ``gen_boost`` are one value for every row or one per row.

    Rows reduce with `np.vecdot`, which equals a 1-D `np.dot` of each row
    bit for bit, so a row's result does not depend on the batch it is in;
    `@`, `einsum` and `.sum(axis=-1)` differ from it in the last bit.
    """
    share = (1.0 - postures.revenue_share) * postures.ad_rate
    margin_h = (share * postures.gamma_h)[:, None]
    margin_l = (share * postures.gamma_l)[:, None]
    tax = np.asarray(tax, dtype=float)[..., None]
    cost_h = cost_h_base / pool.prod_h
    cost_l = cost_l_base / (pool.prod_l * np.asarray(gen_boost, dtype=float)[..., None])
    pi_h = margin_h - cost_h
    pi_l = margin_l - cost_l - tax
    gap = np.clip(pool.rationality * (pi_h - pi_l), -700.0, 700.0)
    prob_h = 1.0 / (1.0 + np.exp(-gap))
    prob_l = 1.0 - prob_h
    q_h = np.vecdot(prob_h, pool.weight_h)
    q_l = np.vecdot(prob_l, pool.weight_l) + extra_q_l
    profit = np.vecdot(prob_h, pool.weight_h * pi_h) + np.vecdot(prob_l, pool.weight_l * (pi_l + tax))
    return SupplyResult(q_h=q_h, q_l=q_l, producer_profit=profit)


@dataclass(frozen=True)
class Clearing:
    """The market's response to given outputs under posted postures, per lane.

    ``flow`` is amplified exposure per agent, the flow that erodes trust.
    Welfare follows once a trust level and producer surplus are supplied.
    """

    q_h: np.ndarray
    q_l: np.ndarray
    posture: Postures
    pollution: np.ndarray
    verify_rate: np.ndarray
    precision: np.ndarray
    verification_spend: np.ndarray
    flow: np.ndarray
    platform_profit: np.ndarray

    def welfare(
        self,
        trust: float | np.ndarray,
        producer_profit: float | np.ndarray,
        params: SimParams,
    ) -> np.ndarray:
        return welfare_value(
            q_h=self.q_h,
            q_l=self.q_l,
            verify_rate=self.verify_rate,
            precision=self.precision,
            trust=trust,
            platform=self.posture,
            producer_profit=producer_profit,
            platform_profit=self.platform_profit,
            verification_spend=self.verification_spend,
            params=params,
        )


def _exposure(
    q_h: np.ndarray, q_l: np.ndarray, postures: Postures, populations: Populations, params: SimParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pollution, amplified exposure per agent, platform profit) of outputs, per lane.

    Pollution is the share of amplified, unmoderated low-quality content in
    total amplified exposure (0 for an empty market, as `pollution_density`).
    Platform profit is the ad revenue share on amplified exposure, low
    quality monetizing at ``engagement_bias`` times a high-quality unit, net
    of the convex moderation cost.
    """
    pf = params.platform
    high = postures.gamma_h * q_h
    low = postures.gamma_l * (1.0 - postures.moderation) * q_l
    amplified = high + low
    # An empty market (amplified 0, so low 0) has pollution 0 / 1.
    rho = low / (amplified + (amplified == 0.0))
    profit = (high + low * pf.engagement_bias) * (postures.revenue_share * postures.ad_rate) - (
        postures.moderation**2 * pf.moderation_cost * q_l
    )
    return rho, amplified / populations.total, profit


def clear_market(
    q_h: np.ndarray,
    q_l: np.ndarray,
    postures: Postures,
    populations: Populations,
    params: SimParams,
    provenance_boost: float = 0.0,
) -> Clearing:
    """Clear given outputs under posted postures, one lane per posture.

    Pollution, the verification fixed point, the outlay of everyone whose
    cost the resulting threshold covers, exposure flow, and platform
    profit.  Each lane is cleared independently of the others.
    """
    # The min is NaN if any output is, which fails the comparison.
    if not np.minimum(q_h, q_l).min() >= 0:
        raise ValueError("outputs must be nonnegative")
    rho, flow, plat_profit = _exposure(q_h, q_l, postures, populations, params)
    fixed = solve_verification_fixed_point(
        rho, populations.consumers, provenance_boost, params=params
    )
    return Clearing(
        q_h=q_h,
        q_l=q_l,
        posture=postures,
        pollution=rho,
        verify_rate=fixed.verify_rate,
        precision=fixed.precision,
        verification_spend=populations.consumers.spend(fixed.threshold),
        flow=flow,
        platform_profit=plat_profit,
    )


@dataclass
class TickInputs:
    """Per-tick exogenous conditions assembled by the orchestration layer."""

    ai_rental: float
    gen_boost: float
    tax: float
    provenance_boost: float
    fiduciary: float
    extra_q_l: float = 0.0
    trust_delta: float = 0.0


@dataclass(frozen=True)
class TickResult:
    state: MarketState
    platform: PlatformState
    producer_profit: float


def _base_costs(params: SimParams, ai_rental: float) -> tuple[float, float]:
    e = params.econ
    prices = econ.FactorPrices(ai_rental=ai_rental, wage=e.wage)
    tech_h = econ.CesTechnology(tfp=e.tfp_h, share=e.delta_h, elasticity=e.sigma_h)
    tech_l = econ.CesTechnology(tfp=e.tfp_l, share=e.delta_l, elasticity=e.sigma_l)
    return econ.unit_cost(tech_h, prices), econ.unit_cost(tech_l, prices)


def market_step(
    state: MarketState,
    populations: Populations,
    platform: PlatformState,
    inputs: TickInputs,
    params: SimParams,
) -> TickResult:
    """Advance the market one tick (stages 1-6 of the tick cycle).

    Stage order: producer supply from the posted platform posture;
    pollution; the verification fixed point; the trust step; welfare; and
    the platform's projected gradient update.  The adaptive-policy stage is
    applied by the orchestration loop once the tick's index reading exists.
    Deterministic: no randomness is consumed here.
    """
    cost_h_base, cost_l_base = _base_costs(params, inputs.ai_rental)

    # (1) producer choices and aggregate supply, for the posted posture and,
    # in the same call, for the probes of the gradient step
    postures = _probes(platform, params.platform.fd_step)
    supply = supply_response(
        populations.producers,
        postures,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=inputs.gen_boost,
        tax=inputs.tax,
        extra_q_l=inputs.extra_q_l,
    )
    producer_profit = float(supply.producer_profit[0])

    # (2-3) pollution under the posture producers responded to, and the
    # verification fixed point
    posted = slice(0, 1)
    cleared = clear_market(
        supply.q_h[posted], supply.q_l[posted], postures.take(posted), populations, params,
        inputs.provenance_boost,
    )
    rho = float(cleared.pollution[0])

    # (4) trust step (exogenous shocks land before the Euler update)
    trust_in = min(max(state.trust + inputs.trust_delta, 0.0), params.trust.t_max)
    trust = trust_update(trust_in, rho, float(cleared.flow[0]), params.trust)

    # (5) welfare, on floats: one-lane arrays would cost more than the arithmetic
    q_h, q_l = float(supply.q_h[0]), float(supply.q_l[0])
    verify_rate, precision = float(cleared.verify_rate[0]), float(cleared.precision[0])
    w = welfare_value(q_h=q_h, q_l=q_l, verify_rate=verify_rate, precision=precision, trust=trust,
                      platform=platform, producer_profit=producer_profit,
                      platform_profit=float(cleared.platform_profit[0]),
                      verification_spend=float(cleared.verification_spend[0]), params=params)

    # (6) platform gradient step from one-tick-ahead finite differences
    probes = slice(1, None)
    new_platform = _platform_gradient_step(
        populations,
        platform,
        postures.take(probes),
        supply.q_h[probes],
        supply.q_l[probes],
        inputs,
        params,
        trust_now=trust,
        cleared=cleared,
    )

    next_state = MarketState(
        tick=state.tick + 1,
        q_h=q_h,
        q_l=q_l,
        pollution=rho,
        verify_rate=verify_rate,
        precision=precision,
        trust=trust,
        welfare=w,
    )
    return TickResult(state=next_state, platform=new_platform, producer_profit=producer_profit)


# The levers of the platform's gradient step, in the order it probes them.
_LEVERS = ("gamma_l", "gamma_h", "moderation")


def _probes(platform: PlatformState, h: float) -> Postures:
    """The posted posture, then the central-difference probes, as lanes.

    Each lever in `_LEVERS` order moves one step up, then one down, within
    its bounds.
    """
    gl, gh, m, top = platform.gamma_l, platform.gamma_h, platform.moderation, platform.gamma_max
    return Postures(
        gamma_h=np.array([gh, gh, gh, min(gh + h, top), max(gh - h, 0.0), gh, gh]),
        gamma_l=np.array([gl, min(gl + h, top), max(gl - h, 0.0), gl, gl, gl, gl]),
        moderation=np.array([m, m, m, m, m, min(m + h, 1.0), max(m - h, 0.0)]),
        revenue_share=platform.revenue_share,
        ad_rate=platform.ad_rate,
    )


def _lookahead(
    populations: Populations,
    postures: Postures,
    q_h: np.ndarray,
    q_l: np.ndarray,
    inputs: TickInputs,
    params: SimParams,
    *,
    trust_now: float,
    cleared: Clearing,
) -> tuple[list[float], list[float]]:
    """(objectives, trust levels) one tick ahead if the platform posts each posture.

    ``q_h``/``q_l`` are supply's response to each posture.  The profit side
    is per-producer normalized so learning rates are population-size
    invariant; under a fiduciary duty the objective blends in the consumer
    value/harm fragment.  The verification response is held at this tick's
    clearing within the lookahead.
    """
    rho, flow, objective = _exposure(q_h, q_l, postures, populations, params)
    if inputs.fiduciary > 0.0:
        wcfg = params.welfare
        x = harmful_exposure(q_l, postures, cleared.verify_rate, cleared.precision)
        value = wcfg.value_h * postures.gamma_h * q_h
        harm = wcfg.harm_lin * x + wcfg.harm_quad * x * x
        objective = fiduciary_objective(objective, value, harm, inputs.fiduciary)
    trust_next = [
        trust_update(trust_now, i1, f, params.trust) for i1, f in zip(rho.tolist(), flow.tolist())
    ]
    return (objective / populations.producers.n).tolist(), trust_next


def _platform_gradient_step(
    populations: Populations,
    platform: PlatformState,
    probes: Postures,
    q_h: np.ndarray,
    q_l: np.ndarray,
    inputs: TickInputs,
    params: SimParams,
    **kw,
) -> PlatformState:
    """One `platform_update` from central differences over the probes.

    ``q_h``/``q_l`` hold supply's response to each probe, in probe order.
    """
    f, t = _lookahead(populations, probes, q_h, q_l, inputs, params, **kw)
    grads = []
    for i, field in enumerate(_LEVERS):
        up, dn = 2 * i, 2 * i + 1
        lever = getattr(probes, field)
        lever_up, lever_dn = float(lever[up]), float(lever[dn])
        if lever_up == lever_dn:
            grads.append((0.0, 0.0))
            continue
        span = lever_up - lever_dn
        # Trust gradient enters the update rule as erosion per unit increase.
        grads.append(((f[up] - f[dn]) / span, -(t[up] - t[dn]) / span))
    (gp_gl, gt_gl), (gp_gh, gt_gh), (gp_m, gt_m) = grads
    return platform_update(platform, gp_gl, gt_gl, gp_m, gt_m, gp_gh, gt_gh)


def static_equilibrium_welfare(
    populations: Populations,
    postures: Postures,
    params: SimParams,
    *,
    tax: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Long-run welfare of a batch of pinned postures, one value per lane.

    Supply responds, verification settles at its fixed point, and trust sits
    at its steady state.  Every lane equals the same chain run on that lane
    alone bit for bit.  Supply does not read moderation, so it is solved
    once per distinct (gamma_h, gamma_l, tax) and shared by the lanes that
    differ only in moderation.  Used for the planner-optimum and
    worst-corner anchors of the deadweight dimension.
    """
    cost_h_base, cost_l_base = _base_costs(params, params.econ.ai_rental)
    tax = np.broadcast_to(np.asarray(tax, dtype=float), postures.gamma_h.shape)
    keys = np.column_stack([postures.gamma_h, postures.gamma_l, tax])
    _, first, row = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    supply = supply_response(
        populations.producers,
        postures.take(first),
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=1.0,
        tax=tax[first],
    )
    cleared = clear_market(supply.q_h[row], supply.q_l[row], postures, populations, params)
    trust = steady_state_trust(cleared.pollution, cleared.flow, params.trust)
    return cleared.welfare(trust, supply.producer_profit[row], params)


def welfare_anchors(populations: Populations, params: SimParams) -> tuple[float, float]:
    """(W_so, W_min): planner-optimum and worst-corner welfare anchors.

    W_so is a lattice search over (moderation, gamma_h, gamma_l, tax) of
    static equilibrium welfare under the same agent responses; W_min is the
    no-moderation, max-amplification, no-tax corner.  The corner and the
    lattice clear as the lanes of one batch.  Lattice resolution is
    config-exposed.
    """
    ip = params.ipi
    base = _platform_from_params(params)
    axes = (
        np.linspace(0.0, 1.0, ip.anchor_m_points),
        np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points),
        np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points),
        np.linspace(0.0, ip.anchor_tax_max, ip.anchor_tax_points),
    )
    # Lane 0 is the corner; the lattice follows with moderation outermost
    # and tax innermost.
    corner = (0.0, base.gamma_h, base.gamma_max, 0.0)
    m, gh, gl, tax = (
        np.concatenate([[c], a.ravel()])
        for c, a in zip(corner, np.meshgrid(*axes, indexing="ij"))
    )
    lanes = Postures(
        gamma_h=gh, gamma_l=gl, moderation=m, revenue_share=base.revenue_share, ad_rate=base.ad_rate
    )
    w = static_equilibrium_welfare(populations, lanes, params, tax=tax)
    # The first lane strictly above every earlier one wins; a NaN lane never does.
    lattice = np.where(np.isnan(w[1:]), -math.inf, w[1:])
    return float(lattice[np.argmax(lattice)]), float(w[0])


def _platform_from_params(params: SimParams) -> PlatformState:
    p = params.platform
    return PlatformState(
        gamma_h=p.gamma_init,
        gamma_l=p.gamma_init,
        moderation=p.moderation_init,
        revenue_share=p.revenue_share,
        ad_rate=p.ad_rate,
        lr_gamma=p.lr_gamma,
        lr_mod=p.lr_mod,
        trust_price=p.trust_price,
        gamma_max=p.gamma_max,
    )

