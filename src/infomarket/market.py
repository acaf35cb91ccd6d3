"""One-tick market clearing, the verification fixed point, trust, and welfare.

A tick runs the three stages of the game in fixed order: producers choose
content types from last tick's platform posture (logit over expected unit
profits), the platform's amplification and moderation turn supply into
effective pollution, consumers settle into a verification rate consistent
with the signal precision it induces, trust moves one Euler step, welfare is
assembled, and the platform takes one projected gradient step from central
finite differences of its one-tick-ahead profit and trust responses.

The tick, the static anchors and the endogenous-weight re-evaluation all
clear outputs through `clear_market`.

Supply is aggregated in expectation: each producer contributes its
productivity-scaled unit mass split between the two types by its choice
probability, so a run is deterministic given the population draw and the
series is smooth enough for finite-difference platform gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    pollution: float,
    verify_rate: float,
    provenance_boost: float,
    *,
    pi_base: float = 0.85,
    kappa_pollution: float = 0.3,
    kappa_verify: float = 0.1,
) -> float:
    """Affine signal precision, clamped to [0.5, 1].

    Pollution dilutes the public signal, aggregate verification and
    provenance standards sharpen it.
    """
    raw = pi_base - kappa_pollution * pollution + kappa_verify * verify_rate + provenance_boost
    return min(max(raw, 0.5), 1.0)


def solve_verification_fixed_point(
    pollution: float,
    consumers: ConsumerPool,
    provenance_boost: float = 0.0,
    *,
    params: SimParams,
    du_h: float | None = None,
    du_l: float | None = None,
) -> tuple[float, float]:
    """Find the verification rate consistent with the precision it induces.

    The mapping is T(V) = F(k*(pi(pollution, V))): precision follows from
    pollution and the candidate rate, the posterior after a favorable signal
    (prior 1 - pollution) sets the verification threshold, and the consumer
    cost CDF turns the threshold back into a rate.  Damped iteration
    V <- (1-a)V + a T(V) from V0 with a bisection polish inside the bracket
    the iterates establish; raises NoConvergence when the residual tolerance
    is unmet after the iteration cap.

    Returns (verify_rate, precision at the fixed point).
    """
    mk = params.market
    du_h = params.agents.du_h if du_h is None else du_h
    du_l = params.agents.du_l if du_l is None else du_l

    def precision(v: float) -> float:
        return signal_precision(
            pollution,
            v,
            provenance_boost,
            pi_base=mk.pi_base,
            kappa_pollution=mk.kappa_pollution,
            kappa_verify=mk.kappa_verify,
        )

    def mapping(v: float) -> float:
        post = consumer_posterior(1.0 - pollution, "H", precision(v))
        return consumers.cdf(verification_threshold(post, du_h, du_l))

    v = mk.fp_start
    lo, hi = 0.0, 1.0  # bracket for the sign change of T(V) - V
    for _ in range(mk.fp_max_iter):
        t = mapping(v)
        resid = t - v
        if abs(resid) < mk.fp_tol:
            return v, precision(v)
        if resid > 0:
            lo = max(lo, v)
        else:
            hi = min(hi, v)
        v_next = (1.0 - mk.fp_damping) * v + mk.fp_damping * t
        # Every evaluated point becomes a bracket endpoint, so demanding a
        # strictly interior candidate also breaks period-2 cycles of the
        # damped map (possible where the interpolated CDF is steep).
        if not lo < v_next < hi:
            v_next = 0.5 * (lo + hi)
        v = v_next
    raise NoConvergence(
        f"verification fixed point: residual {abs(mapping(v) - v):.3e} after "
        f"{mk.fp_max_iter} iterations (pollution={pollution:.4f})"
    )


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


def steady_state_trust(i1: float, flow: float, params: TrustParams) -> float:
    """Trust level at which the Euler step is stationary, clamped into bounds."""
    t = (params.repair_gain * params.repair_flow - params.pollution_hit * i1 * flow) / params.decay
    return min(max(t, 0.0), params.t_max)


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
class SupplyResult:
    q_h: float
    q_l: float
    producer_profit: float


def supply_response(
    pool: ProducerPool,
    platform: PlatformState,
    *,
    cost_h_base: float,
    cost_l_base: float,
    gen_boost: float,
    tax: float,
    extra_q_l: float = 0.0,
) -> SupplyResult:
    """Expected supply and producer surplus given a posted platform posture.

    Per-producer unit costs divide the type-level closed-form cost by the
    individual productivity; generation capability cheapens low-quality
    templates by the gen_boost factor.  Choice probabilities are the stable
    logit over per-unit profits; contributions are productivity-scaled unit
    masses.  Producer surplus is reported pre-tax (the levy is a transfer).
    """
    margin_h = (1.0 - platform.revenue_share) * platform.ad_rate * platform.gamma_h
    margin_l = (1.0 - platform.revenue_share) * platform.ad_rate * platform.gamma_l
    cost_h = cost_h_base / pool.prod_h
    cost_l = cost_l_base / (pool.prod_l * gen_boost)
    pi_h = margin_h - cost_h
    pi_l = margin_l - cost_l - tax
    gap = np.clip(pool.rationality * (pi_h - pi_l), -700.0, 700.0)
    prob_h = 1.0 / (1.0 + np.exp(-gap))
    q_h = float(np.dot(prob_h, pool.weight_h))
    q_l = float(np.dot(1.0 - prob_h, pool.weight_l)) + extra_q_l
    profit = float(
        np.dot(prob_h, pool.weight_h * pi_h)
        + np.dot(1.0 - prob_h, pool.weight_l * (pi_l + tax))
    )
    return SupplyResult(q_h=q_h, q_l=q_l, producer_profit=profit)


def platform_profit_value(
    q_h: float,
    q_l: float,
    platform: PlatformState,
    moderation_cost: float,
    engagement_bias: float = 1.0,
) -> float:
    """Ad revenue share on amplified exposure net of the convex moderation cost.

    ``engagement_bias`` scales how an amplified low-quality unit monetizes
    relative to a high-quality one (engagement-driven ad loads); producer
    payouts are unaffected.
    """
    monetized = platform.gamma_h * q_h + engagement_bias * platform.gamma_l * (
        1.0 - platform.moderation
    ) * q_l
    return (
        platform.revenue_share * platform.ad_rate * monetized
        - moderation_cost * platform.moderation**2 * q_l
    )


@dataclass(frozen=True)
class Clearing:
    """The market's response to given outputs under a posted posture.

    ``flow`` is amplified exposure per agent, the flow that erodes trust.
    Welfare follows once a trust level and producer surplus are supplied.
    """

    q_h: float
    q_l: float
    posture: PlatformState
    pollution: float
    verify_rate: float
    precision: float
    verification_spend: float
    flow: float
    platform_profit: float

    def welfare(self, trust: float, producer_profit: float, params: SimParams) -> float:
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
    q_h: float, q_l: float, posture: PlatformState, populations: Populations, params: SimParams
) -> tuple[float, float, float]:
    """(pollution, amplified exposure per agent, platform profit) of outputs under a posture."""
    amplified = posture.gamma_h * q_h + posture.gamma_l * (1.0 - posture.moderation) * q_l
    profit = platform_profit_value(
        q_h, q_l, posture, params.platform.moderation_cost, params.platform.engagement_bias
    )
    return pollution_density(q_h, q_l, posture), amplified / populations.total, profit


def clear_market(
    q_h: float,
    q_l: float,
    posture: PlatformState,
    populations: Populations,
    provenance_boost: float,
    params: SimParams,
) -> Clearing:
    """Clear given outputs under a posted posture.

    Pollution, the verification fixed point, the outlay of everyone whose
    cost the resulting threshold covers, exposure flow, and platform profit.
    """
    rho, flow, plat_profit = _exposure(q_h, q_l, posture, populations, params)
    verify_rate, precision = solve_verification_fixed_point(
        rho, populations.consumers, provenance_boost, params=params
    )
    post = consumer_posterior(1.0 - rho, "H", precision)
    k_star = verification_threshold(post, params.agents.du_h, params.agents.du_l)
    return Clearing(
        q_h=q_h,
        q_l=q_l,
        posture=posture,
        pollution=rho,
        verify_rate=verify_rate,
        precision=precision,
        verification_spend=populations.consumers.spend(k_star),
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

    # (1) producer choices and aggregate supply
    supply = supply_response(
        populations.producers,
        platform,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=inputs.gen_boost,
        tax=inputs.tax,
        extra_q_l=inputs.extra_q_l,
    )

    # (2-3) pollution under the posture producers responded to, and the
    # verification fixed point
    cleared = clear_market(
        supply.q_h, supply.q_l, platform, populations, inputs.provenance_boost, params
    )

    # (4) trust step (exogenous shocks land before the Euler update)
    trust_in = min(max(state.trust + inputs.trust_delta, 0.0), params.trust.t_max)
    trust = trust_update(trust_in, cleared.pollution, cleared.flow, params.trust)

    # (5) welfare
    w = cleared.welfare(trust, supply.producer_profit, params)

    # (6) platform gradient step from one-tick-ahead finite differences
    new_platform = _platform_gradient_step(
        populations,
        platform,
        inputs,
        params,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        trust_now=trust,
        cleared=cleared,
    )

    next_state = MarketState(
        tick=state.tick + 1,
        q_h=supply.q_h,
        q_l=supply.q_l,
        pollution=cleared.pollution,
        verify_rate=cleared.verify_rate,
        precision=cleared.precision,
        trust=trust,
        welfare=w,
    )
    return TickResult(state=next_state, platform=new_platform, producer_profit=supply.producer_profit)


def _lookahead(
    populations: Populations,
    posture: PlatformState,
    inputs: TickInputs,
    params: SimParams,
    *,
    cost_h_base: float,
    cost_l_base: float,
    trust_now: float,
    cleared: Clearing,
) -> tuple[float, float]:
    """(objective, trust) one tick ahead if the platform posts `posture`.

    The profit side is per-producer normalized so learning rates are
    population-size invariant; under a fiduciary duty the objective blends
    in the consumer value/harm fragment.  The verification response is
    held at this tick's clearing within the lookahead.
    """
    supply = supply_response(
        populations.producers,
        posture,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=inputs.gen_boost,
        tax=inputs.tax,
        extra_q_l=inputs.extra_q_l,
    )
    rho, flow, profit = _exposure(supply.q_h, supply.q_l, posture, populations, params)
    objective = profit
    if inputs.fiduciary > 0.0:
        wcfg = params.welfare
        x = harmful_exposure(supply.q_l, posture, cleared.verify_rate, cleared.precision)
        value = wcfg.value_h * posture.gamma_h * supply.q_h
        harm = wcfg.harm_lin * x + wcfg.harm_quad * x * x
        objective = fiduciary_objective(profit, value, harm, inputs.fiduciary)
    trust_next = trust_update(trust_now, rho, flow, params.trust)
    return objective / populations.producers.n, trust_next


def _platform_gradient_step(
    populations: Populations,
    platform: PlatformState,
    inputs: TickInputs,
    params: SimParams,
    **kw,
) -> PlatformState:
    h = params.platform.fd_step

    def central(field: str, lo: float, hi: float) -> tuple[float, float]:
        base = getattr(platform, field)
        up = min(base + h, hi)
        dn = max(base - h, lo)
        if up == dn:
            return 0.0, 0.0
        f_up, t_up = _lookahead(
            populations, replace(platform, **{field: up}), inputs, params, **kw
        )
        f_dn, t_dn = _lookahead(
            populations, replace(platform, **{field: dn}), inputs, params, **kw
        )
        span = up - dn
        # Trust gradient enters the update rule as erosion per unit increase.
        return (f_up - f_dn) / span, -(t_up - t_dn) / span

    gp_gl, gt_gl = central("gamma_l", 0.0, platform.gamma_max)
    gp_gh, gt_gh = central("gamma_h", 0.0, platform.gamma_max)
    gp_m, gt_m = central("moderation", 0.0, 1.0)
    return platform_update(platform, gp_gl, gt_gl, gp_m, gt_m, gp_gh, gt_gh)


def static_equilibrium_welfare(
    populations: Populations,
    platform: PlatformState,
    params: SimParams,
    *,
    tax: float = 0.0,
) -> float:
    """Long-run welfare of a pinned platform posture.

    Supply responds, verification settles at its fixed point, and trust sits
    at its steady state.  Used for the planner-optimum and worst-corner
    anchors of the deadweight dimension.
    """
    cost_h_base, cost_l_base = _base_costs(params, params.econ.ai_rental)
    supply = supply_response(
        populations.producers,
        platform,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=1.0,
        tax=tax,
    )
    cleared = clear_market(supply.q_h, supply.q_l, platform, populations, 0.0, params)
    trust = steady_state_trust(cleared.pollution, cleared.flow, params.trust)
    return cleared.welfare(trust, supply.producer_profit, params)


def welfare_anchors(populations: Populations, params: SimParams) -> tuple[float, float]:
    """(W_so, W_min): planner-optimum and worst-corner welfare anchors.

    W_so is a lattice search over (moderation, gamma_h, gamma_l, tax) of
    static equilibrium welfare under the same agent responses; W_min is the
    no-moderation, max-amplification, no-tax corner.  Lattice resolution is
    config-exposed.
    """
    ip = params.ipi
    base = _platform_from_params(params)
    w_min = static_equilibrium_welfare(
        populations, replace(base, moderation=0.0, gamma_l=base.gamma_max), params, tax=0.0
    )
    best = -math.inf
    for m in np.linspace(0.0, 1.0, ip.anchor_m_points):
        for gh in np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points):
            for gl in np.linspace(0.0, base.gamma_max, ip.anchor_gamma_points):
                posture = replace(base, moderation=float(m), gamma_h=float(gh), gamma_l=float(gl))
                for tax in np.linspace(0.0, ip.anchor_tax_max, ip.anchor_tax_points):
                    w = static_equilibrium_welfare(populations, posture, params, tax=float(tax))
                    if w > best:
                        best = w
    return best, w_min


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

