"""One-tick market clearing, the verification fixed point, trust, and welfare.

A tick runs the three stages of the game in fixed order: producers choose
content types from last tick's platform posture (logit over expected unit
profits), the platform's amplification and moderation turn supply into
effective pollution, consumers settle into a verification rate consistent
with the signal precision it induces, trust moves one Euler step, welfare is
assembled, and the platform takes one projected gradient step from central
finite differences of its one-tick-ahead profit and trust responses.

Postures clear in batches where many are cleared at once.  `supply_response`
takes a batch of postures (`Postures`, one lane per row): a tick makes one
seven-row call, the posted posture plus the six finite-difference probes.
The welfare anchors clear the whole lattice and the worst corner as lanes
of one `static_equilibrium_welfare` call, whose verification fixed point
is a lane-masked copy of the scalar iteration.  The tick and the
endogenous-weight re-evaluation clear a single posture through
`clear_market` and keep the scalar `solve_verification_fixed_point`: at one
lane the masked solve costs more than ten times the scalar one.  Every lane
does the scalar chain's arithmetic in the same order, so a batched result
equals the single-posture one bit for bit.

Supply is aggregated in expectation: each producer contributes its
productivity-scaled unit mass split between the two types by its choice
probability, so a run is deterministic given the population draw and the
series is smooth enough for finite-difference platform gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

    def take(self, rows: np.ndarray) -> Postures:
        """The lanes at the given row indices."""
        return replace(
            self,
            gamma_h=self.gamma_h[rows],
            gamma_l=self.gamma_l[rows],
            moderation=self.moderation[rows],
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
    gen_boost: float,
    tax: float | np.ndarray,
    extra_q_l: float = 0.0,
) -> SupplyResult:
    """Expected supply and producer surplus for each of a batch of posted postures.

    Per-producer unit costs divide the type-level closed-form cost by the
    individual productivity; generation capability cheapens low-quality
    templates by the gen_boost factor.  Choice probabilities are the stable
    logit over per-unit profits; contributions are productivity-scaled unit
    masses.  Producer surplus is reported pre-tax (the levy is a transfer).
    ``tax`` is one levy for every row or one per row.

    Rows reduce with `np.vecdot`, which equals a 1-D `np.dot` of each row
    bit for bit, so a row's result does not depend on the batch it is in;
    `@`, `einsum` and `.sum(axis=-1)` differ from it in the last bit.
    """
    share = (1.0 - postures.revenue_share) * postures.ad_rate
    margin_h = (share * postures.gamma_h)[:, None]
    margin_l = (share * postures.gamma_l)[:, None]
    tax = np.asarray(tax, dtype=float)[..., None]
    cost_h = cost_h_base / pool.prod_h
    cost_l = cost_l_base / (pool.prod_l * gen_boost)
    pi_h = margin_h - cost_h
    pi_l = margin_l - cost_l - tax
    gap = np.clip(pool.rationality * (pi_h - pi_l), -700.0, 700.0)
    prob_h = 1.0 / (1.0 + np.exp(-gap))
    prob_l = 1.0 - prob_h
    q_h = np.vecdot(prob_h, pool.weight_h)
    q_l = np.vecdot(prob_l, pool.weight_l) + extra_q_l
    profit = np.vecdot(prob_h, pool.weight_h * pi_h) + np.vecdot(prob_l, pool.weight_l * (pi_l + tax))
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
    The fields are floats for one posture and arrays for a batch of lanes.
    """

    q_h: float | np.ndarray
    q_l: float | np.ndarray
    posture: PlatformState | Postures
    pollution: float | np.ndarray
    verify_rate: float | np.ndarray
    precision: float | np.ndarray
    verification_spend: float | np.ndarray
    flow: float | np.ndarray
    platform_profit: float | np.ndarray

    def welfare(
        self,
        trust: float | np.ndarray,
        producer_profit: float | np.ndarray,
        params: SimParams,
    ) -> float | np.ndarray:
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
        verification_spend=float(populations.consumers.spend(k_star)),
        flow=flow,
        platform_profit=plat_profit,
    )


def _clear_lanes(
    q_h: np.ndarray,
    q_l: np.ndarray,
    postures: Postures,
    populations: Populations,
    params: SimParams,
) -> Clearing:
    """`clear_market` elementwise over lanes, with no provenance standard.

    The same arithmetic in the same order as the single-posture chain, the
    same input checks (raised if any lane fails them), and the lane-masked
    verification fixed point.
    """
    if np.any(q_h < 0) or np.any(q_l < 0):
        raise ValueError("outputs must be nonnegative")
    pf = params.platform
    high = postures.gamma_h * q_h
    unmoderated = 1.0 - postures.moderation
    low = postures.gamma_l * unmoderated * q_l
    amplified = high + low
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(amplified == 0.0, 0.0, low / amplified)
    monetized = high + pf.engagement_bias * postures.gamma_l * unmoderated * q_l
    # Python's float power, as `platform_profit_value` squares a scalar:
    # libm pow(m, 2) and m * m differ in the last bit for about 0.1 % of m.
    mod_sq = np.array([m**2 for m in postures.moderation.tolist()])
    plat_profit = (
        postures.revenue_share * postures.ad_rate * monetized - pf.moderation_cost * mod_sq * q_l
    )
    verify_rate, precision = _solve_verification_lanes(rho, populations.consumers, params)
    post = _posterior_h(1.0 - rho, precision)
    k_star = verification_threshold(post, params.agents.du_h, params.agents.du_l)
    return Clearing(
        q_h=q_h,
        q_l=q_l,
        posture=postures,
        pollution=rho,
        verify_rate=verify_rate,
        precision=precision,
        verification_spend=populations.consumers.spend(k_star),
        flow=amplified / populations.total,
        platform_profit=plat_profit,
    )


def _posterior_h(prior: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """`consumer_posterior(prior, "H", precision)` elementwise, with its input checks."""
    if not np.all((0 <= prior) & (prior <= 1)):
        raise ValueError("prior_h must lie in [0, 1]")
    if not np.all((0.5 <= precision) & (precision <= 1)):
        raise ValueError("precision must lie in [0.5, 1]")
    num = prior * precision
    den = num + (1.0 - prior) * (1.0 - precision)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, prior, num / den)


def _solve_verification_lanes(
    pollution: np.ndarray, consumers: ConsumerPool, params: SimParams
) -> tuple[np.ndarray, np.ndarray]:
    """`solve_verification_fixed_point` for every lane's pollution at once.

    Each lane runs the scalar solver's damped, bracketed iteration with the
    same arithmetic in the same order, and leaves the batch once it meets
    the tolerance.  Raises NoConvergence, naming the first lane short of the
    tolerance, when any lane is still short at the iteration cap.  The
    anchors pin no provenance standard, so its term is left out: adding 0.0
    changes only a -0.0, which the 0.5 floor clamps anyway.
    """
    mk = params.market
    du_h, du_l = params.agents.du_h, params.agents.du_l

    def precision(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _clamp(mk.pi_base - mk.kappa_pollution * rho + mk.kappa_verify * v, 0.5, 1.0)

    def mapping(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
        post = _posterior_h(1.0 - rho, precision(rho, v))
        return consumers.cdf_many(verification_threshold(post, du_h, du_l))

    lane = np.arange(pollution.size)
    rho = pollution
    v = np.full(rho.shape, mk.fp_start)
    lo, hi = np.zeros(rho.shape), np.ones(rho.shape)
    solved = np.empty(rho.shape)
    for _ in range(mk.fp_max_iter):
        t = mapping(rho, v)
        resid = t - v
        met = np.abs(resid) < mk.fp_tol
        solved[lane[met]] = v[met]
        if met.all():
            return solved, precision(pollution, solved)
        go = ~met
        lane, rho, v, t, resid, lo, hi = (a[go] for a in (lane, rho, v, t, resid, lo, hi))
        rising = resid > 0
        lo = np.where(rising & (v > lo), v, lo)
        hi = np.where(~rising & (v < hi), v, hi)
        v_next = (1.0 - mk.fp_damping) * v + mk.fp_damping * t
        v = np.where((lo < v_next) & (v_next < hi), v_next, 0.5 * (lo + hi))
    resid = abs(mapping(rho[:1], v[:1]) - v[:1])[0]
    raise NoConvergence(
        f"verification fixed point: residual {resid:.3e} after "
        f"{mk.fp_max_iter} iterations (pollution={rho[0]:.4f})"
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
    probes = _probes(platform, params.platform.fd_step)
    supply = supply_response(
        populations.producers,
        Postures.of([platform, *probes]),
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=inputs.gen_boost,
        tax=inputs.tax,
        extra_q_l=inputs.extra_q_l,
    )
    q_h, q_l = supply.q_h.tolist(), supply.q_l.tolist()
    producer_profit = float(supply.producer_profit[0])

    # (2-3) pollution under the posture producers responded to, and the
    # verification fixed point
    cleared = clear_market(
        q_h[0], q_l[0], platform, populations, inputs.provenance_boost, params
    )

    # (4) trust step (exogenous shocks land before the Euler update)
    trust_in = min(max(state.trust + inputs.trust_delta, 0.0), params.trust.t_max)
    trust = trust_update(trust_in, cleared.pollution, cleared.flow, params.trust)

    # (5) welfare
    w = cleared.welfare(trust, producer_profit, params)

    # (6) platform gradient step from one-tick-ahead finite differences
    new_platform = _platform_gradient_step(
        populations,
        platform,
        probes,
        q_h[1:],
        q_l[1:],
        inputs,
        params,
        trust_now=trust,
        cleared=cleared,
    )

    next_state = MarketState(
        tick=state.tick + 1,
        q_h=q_h[0],
        q_l=q_l[0],
        pollution=cleared.pollution,
        verify_rate=cleared.verify_rate,
        precision=cleared.precision,
        trust=trust,
        welfare=w,
    )
    return TickResult(state=next_state, platform=new_platform, producer_profit=producer_profit)


# The levers of the platform's gradient step, in the order it probes them.
_LEVERS = ("gamma_l", "gamma_h", "moderation")


def _probes(platform: PlatformState, h: float) -> list[PlatformState]:
    """Central-difference postures: each lever one step up, then one down, within its bounds."""
    probes = []
    for field in _LEVERS:
        base = getattr(platform, field)
        hi = 1.0 if field == "moderation" else platform.gamma_max
        probes.append(replace(platform, **{field: min(base + h, hi)}))
        probes.append(replace(platform, **{field: max(base - h, 0.0)}))
    return probes


def _lookahead(
    populations: Populations,
    posture: PlatformState,
    q_h: float,
    q_l: float,
    inputs: TickInputs,
    params: SimParams,
    *,
    trust_now: float,
    cleared: Clearing,
) -> tuple[float, float]:
    """(objective, trust) one tick ahead if the platform posts `posture`.

    ``q_h``/``q_l`` are supply's response to `posture`.  The profit side is
    per-producer normalized so learning rates are population-size
    invariant; under a fiduciary duty the objective blends in the consumer
    value/harm fragment.  The verification response is held at this tick's
    clearing within the lookahead.
    """
    rho, flow, profit = _exposure(q_h, q_l, posture, populations, params)
    objective = profit
    if inputs.fiduciary > 0.0:
        wcfg = params.welfare
        x = harmful_exposure(q_l, posture, cleared.verify_rate, cleared.precision)
        value = wcfg.value_h * posture.gamma_h * q_h
        harm = wcfg.harm_lin * x + wcfg.harm_quad * x * x
        objective = fiduciary_objective(profit, value, harm, inputs.fiduciary)
    trust_next = trust_update(trust_now, rho, flow, params.trust)
    return objective / populations.producers.n, trust_next


def _platform_gradient_step(
    populations: Populations,
    platform: PlatformState,
    probes: list[PlatformState],
    q_h: list[float],
    q_l: list[float],
    inputs: TickInputs,
    params: SimParams,
    **kw,
) -> PlatformState:
    """One `platform_update` from central differences over the probes.

    ``q_h``/``q_l`` hold supply's response to each probe, in probe order.
    """
    grads = []
    for i, field in enumerate(_LEVERS):
        up, dn = 2 * i, 2 * i + 1
        lever_up, lever_dn = getattr(probes[up], field), getattr(probes[dn], field)
        if lever_up == lever_dn:
            grads.append((0.0, 0.0))
            continue
        span = lever_up - lever_dn
        f_up, t_up = _lookahead(populations, probes[up], q_h[up], q_l[up], inputs, params, **kw)
        f_dn, t_dn = _lookahead(populations, probes[dn], q_h[dn], q_l[dn], inputs, params, **kw)
        # Trust gradient enters the update rule as erosion per unit increase.
        grads.append(((f_up - f_dn) / span, -(t_up - t_dn) / span))
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
    at its steady state.  Every lane equals the single-posture chain
    (`supply_response` on one row, `clear_market`, `steady_state_trust`,
    `Clearing.welfare`) bit for bit.  Supply does not read moderation, so it
    is solved once per distinct (gamma_h, gamma_l, tax) and shared by the
    lanes that differ only in moderation.  Used for the planner-optimum and
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
    cleared = _clear_lanes(supply.q_h[row], supply.q_l[row], postures, populations, params)
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

