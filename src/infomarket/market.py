"""One-tick market clearing, the verification fixed point, trust, and welfare.

A tick runs the three stages of the game in fixed order: producers choose
content types from last tick's platform posture (logit over expected unit
profits), the platform's amplification and moderation turn supply into
effective pollution, consumers settle into a verification rate consistent
with the signal precision it induces, trust moves one Euler step, welfare is
assembled, and the platform takes one projected gradient step from central
finite differences of its one-tick-ahead profit and trust responses.

A posture is the platform's three levers (`agents.Postures`); every other
platform quantity (revenue share, ad rate, learning rates, bounds) is read
from ``params.platform``.  Postures clear as lanes of a batch, one lane
per element of the levers.  `market_step` advances a batch of worlds that
share their populations and parameters: it takes each world's carried
trust, posted posture, exogenous row, levy and weight step, and returns
the tick's outcomes as columns, one value per world, the weight lanes'
results of the worlds that weigh, and the stepped postures; it builds no
per-world record.  Each world's row of lanes (`_probes`) holds its posted
posture, the six finite-difference probes, and an eighth lane when some
world's index weights are endogenous (the posted posture again, supplied
at its stepped generation boost); `supply_response` takes every row in
one call, and the gradient step reads its probes' levers from the rows.
A tick clears one lane table: each world's posted lane and, for
endogenous index weights, two more (scaled low-quality output, and the
stepped supply).  The welfare anchors put the whole lattice and the
worst corner through one `static_equilibrium_welfare` call, which solves
supply once per distinct (gamma_h, gamma_l, tax) and clears one lane per
distinct pollution.  The verification fixed point is
solved exactly per lane (`solve_verification_fixed_point`), and every
stage is elementwise over lanes, so a lane's result does not depend on
the batch it is cleared in.

`market_step` is one body that calls each stage once per block of lanes;
the world count picks only how lanes are gathered into blocks and the
shape of what leaves.  A lone world's blocks are its lanes, as Python
floats: on a handful of elements numpy's per-call overhead costs more than
the arithmetic, and the stage functions give a float lane the array
form's bits (the solve bisects the reachable knots when du_h <= du_l,
then takes its root and residual check).  A batch gathers its whole lane
table into one block, cleared with one `clear_market` call and valued
with one welfare call, and every world's probes into one (worlds, 6)
block for one `_lookahead` call.

Supply is aggregated in expectation: each producer contributes its
productivity-scaled unit mass split between the two types by its choice
probability, so a run is deterministic given the population draw and the
series is smooth enough for finite-difference platform gradients.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import econ
from .agents import (
    ConsumerPool,
    Postures,
    ProducerPool,
    consumer_posterior,
    platform_update,
    verification_threshold,
)
from .config import MarketParams, PlatformParams, SimParams, TrustParams, WelfareParams
from .errors import ConfigError, NoConvergence
from .policy import fiduciary_objective


def _raw_precision(pollution, verify_rate, provenance_boost, params: MarketParams):
    """Signal precision before its clamp: affine in pollution, rate and provenance."""
    return (
        params.pi_base
        - pollution * params.kappa_pollution
        + verify_rate * params.kappa_verify
        + provenance_boost
    )


def signal_precision(pollution, verify_rate, provenance_boost: float, params: MarketParams):
    """Affine signal precision, clamped to [0.5, 1] (elementwise; floats give a float).

    Pollution dilutes the public signal, aggregate verification and
    provenance standards sharpen it.
    """
    return _clamp(_raw_precision(pollution, verify_rate, provenance_boost, params), 0.5, 1.0)


def _threshold(pollution, precision, params: SimParams):
    """Verification cost cutoff after a favorable signal (prior 1 - pollution)."""
    post = consumer_posterior(1.0 - pollution, precision)
    return verification_threshold(post, params.agents.du_h, params.agents.du_l)


# Lanes per block of the knot scan: memory stays O(block x reachable knots).
_LANE_BLOCK = 64
_CLAMPS = np.array([0.5, 1.0])  # precision's bounds


def solve_verification_fixed_point(
    pollution,
    consumers: ConsumerPool,
    provenance_boost: float = 0.0,
    *,
    params: SimParams,
) -> tuple:
    """(rate, precision, cost threshold) at the verification fixed point,
    found exactly: the rate consistent with the precision it induces.

    The mapping is T(V) = F(k*(pi(pollution, V))): precision is affine in
    the rate and clamped to [0.5, 1], the posterior after a favorable signal
    (prior 1 - pollution) is Moebius in precision and sets the threshold
    k*, and the consumer-cost CDF F, linear between its knots, turns k*
    back into a rate.  Per lane of ``pollution``:

    1. Find the first CDF knot (k_i, V_i) with k*(pi(V_i)) < k_i; the fixed
       point's segment ends there (none: everyone verifies, V = 1).
       k* = p (du_h - du_l) + du_l with the posterior p in [0, 1], and
       rounding is monotone in p, so every k* lies between
       `verification_threshold` at p = 0 and at p = 1, bit for bit.  A knot
       at or below the lower value never ends a segment and the first knot
       above the upper one always does (its threshold is still evaluated,
       not assumed), so only the knots between, and that first one above,
       are read (`_knot_window`).  Arrays scan them in blocks of lanes
       (`_scan_ends`).  A float lane with du_h <= du_l bisects them in
       Python floats (`_bisect_end`): k* then does not rise along the knots
       while k_i does, so the test goes false and then true along the
       window.  When du_h > du_l k* rises too, and a float lane is scanned
       as well.  This choice is the only step that differs for a float.
    2. On the segment, rate and raw precision are linear in the cost k.
       Where precision is clamped the threshold is a constant; between the
       clamps (k - k*) times the posterior's denominator is a quadratic in
       k, solved in closed form.  The sign of k - k* at the clamp edges
       picks the piece (`_segment_root`).
    3. Check the residual |T(V) - V| of every lane against ``market.fp_tol``
       (`ConsumerPool.cdf` of the thresholds, one call per solve); raise
       NoConvergence naming the first lane that misses it.

    When du_h <= du_l (the default) T falls in V and the fixed point is
    unique.  When du_h > du_l T rises in V and may have several; the solve
    returns the least, unless T(V) - V dips below zero and back between two
    neighbouring knots, which the scan cannot see.  Near a certain-low
    prior (pollution within about 1e-8 of 1) a signal that can reach
    precision 1 makes T jump between neighbouring floats, and no float
    meets the tolerance.

    Lanes are solved independently: a lane's result does not depend on its
    batch.  An array in gives arrays of its shape out (0-d: numpy
    scalars).  A float gives floats.  Its steps 2 and 3 run on Python
    floats and the numpy scalars of its one lane, without one-element
    arrays, because numpy's per-call overhead on them is most of their
    cost; it gives the array form's bits, inf and NaN included, and the
    same errors.
    """
    lane = isinstance(pollution, float)
    lanes = pollution if lane else np.asarray(pollution, dtype=float).reshape(-1)
    _check_pollution(lanes)
    mk, ag = params.market, params.agents
    if lane and ag.du_h <= ag.du_l:
        end = _bisect_end(lanes, consumers, provenance_boost, params)
        k_lo, k_hi = (_threshold(lanes, clamp, params) for clamp in _CLAMPS.tolist())
    else:
        end, k_lo, k_hi = _scan_ends(lanes, consumers, provenance_boost, params)
    v = _segment_root(lanes, end, k_lo, k_hi, consumers, provenance_boost, params)
    # (3) the residual check
    precision = signal_precision(lanes, v, provenance_boost, mk)
    k_star = _threshold(lanes, precision, params)
    resid = abs(consumers.cdf(k_star) - v)
    met = _elements(resid < mk.fp_tol)
    if not all(met):
        first = met.index(False)
        raise _missed_tolerance(_elements(resid)[first], _elements(lanes)[first], mk.fp_tol)
    if lane:
        return float(v), float(precision), float(k_star)
    shape = np.shape(pollution)
    return v.reshape(shape)[()], precision.reshape(shape)[()], k_star.reshape(shape)[()]


def _check_pollution(rho) -> None:
    """Raise ValueError unless every lane's pollution lies in [0, 1] (NaN does not)."""
    inside = 0.0 <= rho <= 1.0 if isinstance(rho, float) else ((rho >= 0.0) & (rho <= 1.0)).all()
    if not inside:
        raise ValueError("pollution must lie in [0, 1]")


def _knot_window(consumers: ConsumerPool, params: SimParams) -> tuple[int, int]:
    """(first, above) of step 1: the first knot above the lower threshold
    bound, and the first above the upper one (the knot count if none is).

    An infinite du makes the p = 0 bound NaN and the p = 1 bound inf or
    NaN; both sort past every knot and empty the window, and such a k*
    (inf or NaN) never ends a segment either.
    """
    ag = params.agents
    lo = verification_threshold(0.0, ag.du_h, ag.du_l)
    hi = verification_threshold(1.0, ag.du_h, ag.du_l)
    first, above = consumers.knot_k.searchsorted(
        (lo, hi) if lo <= hi else (hi, lo), side="right").tolist()
    return first, above


def _scan_ends(rho, consumers: ConsumerPool, provenance_boost: float,
               params: SimParams) -> tuple:
    """Step 1 over blocks of lanes: each lane's `end` knot, and its
    thresholds at the two precision clamps, k_lo and k_hi (for a float
    lane, a Python int and floats).

    The thresholds at the window's knots' rates and at the clamps form one
    (lanes, window + 2) block; the segment ends at the first knot whose
    threshold lies below its cost (never knot 0, so 0 marks "none").
    """
    lanes = np.array(rho, ndmin=1, copy=None)
    first, above = _knot_window(consumers, params)
    knot_k, knot_v = consumers.knot_k[first:above + 1], consumers.knot_v[first:above + 1]
    # Without a knot above the upper bound a lane may find no end.
    forced = above < consumers.knot_k.size
    end = np.zeros(lanes.size, dtype=np.intp)
    k_clamp = np.empty((lanes.size, 2))
    for start in range(0, lanes.size, _LANE_BLOCK):
        block = slice(start, start + _LANE_BLOCK)
        r = lanes[block, None]
        pi = np.empty((r.size, knot_v.size + 2))
        pi[:, :-2] = signal_precision(r, knot_v, provenance_boost, params.market)
        pi[:, -2:] = _CLAMPS
        k_star = _threshold(r, pi, params)
        k_clamp[block] = k_star[:, -2:]
        if knot_k.size:
            below = k_star[:, :-2] < knot_k
            hit = below.argmax(axis=1)
            end[block] = first + hit if forced else np.where(below.any(axis=1), first + hit, 0)
    if isinstance(rho, float):
        return end.item(), *k_clamp[0].tolist()
    return end, *k_clamp.T


def _bisect_end(
    rho: float, consumers: ConsumerPool, provenance_boost: float, params: SimParams
) -> int:
    """`_scan_ends`' end knot of one lane when du_h <= du_l, by bisection
    in Python floats: about log2(window) thresholds instead of the window's.

    The knots' rates V_i rise, so raw precision, its clamp and the
    posterior do not fall, and with du_h - du_l <= 0 neither does k* rise,
    while k_i does: the test k*(pi(V_i)) < k_i is false and then true along
    the window.  Each operation rounds monotonically, but the posterior is
    a quotient of two rising terms, not proved to; the full scan is the
    oracle of a property test.  Without a true test the end is the
    window's first knot if a knot lies above the upper bound (the scan's
    argmax of none), else 0.
    """
    first, above = _knot_window(consumers, params)
    knot_k, knot_v = consumers.knot_k, consumers.knot_v
    stop = min(above + 1, knot_k.size)  # the window is [first, stop)
    lo, hi = first, stop
    while lo < hi:
        mid = (lo + hi) // 2
        precision = signal_precision(rho, knot_v.item(mid), provenance_boost, params.market)
        if _threshold(rho, precision, params) < knot_k.item(mid):
            hi = mid
        else:
            lo = mid + 1
    if lo < stop:
        return lo
    return first if above < knot_k.size else 0


def _missed_tolerance(resid: float, pollution: float, fp_tol: float) -> NoConvergence:
    """NoConvergence naming a lane whose residual misses ``fp_tol``."""
    return NoConvergence(f"verification fixed point: residual {resid:.3e} not below "
                         f"market.fp_tol = {fp_tol:.3e} (pollution={pollution:.4f})")


def _segment_root(rho, end, k_lo, k_hi, consumers: ConsumerPool, provenance_boost: float,
                  params: SimParams):
    """Step 2 of the solve: each lane's root on the CDF segment ending at
    knot `end` (elementwise; one lane's float and int give a float).

    At cost k = k0 + x (x in [0, dk]) the rate is v0 + s x and raw precision
    pi0 + sigma x, which reaches the clamps at x_lo and x_hi.  Beyond them
    the threshold is the clamp's, k_lo or k_hi, the root x_flat; between
    them the root is the quadratic's a x^2 + b x + c.  One lane keeps
    `ConsumerPool.segments`' numpy scalars, so its quotients are numpy's
    and a zero divisor gives inf or NaN as an array's does; its root is
    handed on as a Python float, for the residual check's arithmetic.
    """
    mk, ag = params.market, params.agents
    # Lanes with no segment (end 0) read the flat one past the last knot: V = 1.
    k0, v0, dk, s = consumers.segments(end - 1)
    # Raw precision at v0, bit for bit as the scan had it.
    pi0 = _raw_precision(rho, v0, provenance_boost, mk)
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
        q = (b + _signed_sqrt(b * b - a * 4.0 * c, b)) * -0.5
        x_lo, x_hi = (_fmin(_fmax((clamp - pi0) / sigma, 0.0), dk) for clamp in _CLAMPS.tolist())
        x_mid = _where(b < 0.0, q / a, c / q)
    x_flat_lo, x_flat_hi = k_lo - k0, k_hi - k0
    # The lower clamp's root if k - k* turns nonnegative on it (at x = 0 the
    # threshold there is k_lo, so x_flat_lo >= 0), else the upper clamp's if
    # k - k* is still negative where it starts, else the quadratic's.
    x = _where((x_hi < dk) & (x_flat_hi > x_hi), _fmin(x_flat_hi, dk),
               _fmin(_fmax(x_mid, x_lo), x_hi))
    x = _where((x_lo > 0.0) & (x_flat_lo <= x_lo), x_flat_lo, x)
    v = v0 + s * x
    return float(v) if isinstance(rho, float) else v


def _fmax(x, y):
    """np.fmax (a NaN loses, a tie returns x); in Python for a float x."""
    if isinstance(x, float):
        return x if x >= y or y != y else y
    return np.fmax(x, y)


def _fmin(x, y):
    """np.fmin (a NaN loses, a tie returns x); in Python for a float x."""
    if isinstance(x, float):
        return x if x <= y or y != y else y
    return np.fmin(x, y)


def _where(cond, x, y):
    """np.where; a Python conditional for one lane's condition."""
    return np.where(cond, x, y) if isinstance(cond, np.ndarray) else x if cond else y


def _signed_sqrt(x, sign):
    """copysign(sqrt(max(x, 0)), sign), NaN staying NaN; math's for a float x."""
    if isinstance(x, float):
        return math.copysign(math.sqrt(max(x, 0.0)), sign)
    return np.copysign(np.sqrt(np.maximum(x, 0.0)), sign)


def trust_update(trust, i1, flow, params: TrustParams):
    """One Euler step of the trust stock, clamped into [0, t_max]
    (elementwise; floats give a float).

    T' = T - hit * I1 * flow + repair_gain * repair_flow - decay * T.
    Raises ValueError for trust outside [0, t_max], then for i1 outside
    [0, 1], then for a negative flow (NaN fails a range but not the sign),
    as one lane or as arrays.
    """
    # Element by element, as for a scalar (NaN fails a range but not a sign):
    # for the few lanes of a tick, cheaper than array reductions, and for
    # floats three comparisons.
    t_max = params.t_max
    if isinstance(trust, float) and isinstance(i1, float) and isinstance(flow, float):
        faults = not 0 <= trust <= t_max, not 0 <= i1 <= 1, flow < 0
    else:
        faults = (not all(0 <= x <= t_max for x in _elements(trust)),
                  not all(0 <= x <= 1 for x in _elements(i1)),
                  any(x < 0 for x in _elements(flow)))
    if faults[0]:
        raise ValueError(f"trust out of [0, {t_max}]: {trust}")
    if faults[1]:
        raise ValueError("i1 must lie in [0, 1]")
    if faults[2]:
        raise ValueError("flow must be nonnegative")
    t = (
        trust
        - params.pollution_hit * i1 * flow
        + params.repair_gain * params.repair_flow
        - params.decay * trust
    )
    return _clamp(t, 0.0, t_max)


def _quiet(x):
    """A context that silences numpy's overflow and invalid warnings for
    arithmetic on ``x``'s lanes: none for a Python float, whose arithmetic
    overflows to inf and NaN without one."""
    return _NO_CONTEXT if isinstance(x, float) else np.errstate(over="ignore", invalid="ignore")


_NO_CONTEXT = nullcontext()  # stateless, so shared: a float lane builds none per call


def _elements(x) -> list[float]:
    """The values of a float or an array, as a list."""
    return x.ravel().tolist() if isinstance(x, np.ndarray) else [x]


def steady_state_trust(i1: np.ndarray, flow: np.ndarray, params: TrustParams) -> np.ndarray:
    """Trust level at which the Euler step is stationary, clamped into bounds (per lane)."""
    t = (params.repair_gain * params.repair_flow - params.pollution_hit * i1 * flow) / params.decay
    return _clamp(t, 0.0, params.t_max)


def _clamp(x, lo: float, hi: float):
    """min(max(x, lo), hi): Python's for a float, and elementwise the same
    for an array, ties and NaN resolving as Python's min/max do."""
    if isinstance(x, float):
        return min(max(x, lo), hi)
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)[()]


def amplified(q_h, q_l, platform: Postures):
    """(high-quality, unmoderated low-quality) amplified exposure under the levers."""
    return platform.gamma_h * q_h, platform.gamma_l * (1.0 - platform.moderation) * q_l


def harmful_exposure(
    q_l: float, platform: Postures, verify_rate: float, precision: float
) -> float:
    """Amplified low-quality exposure that actually lands: unmoderated,
    unverified, and signal-misled."""
    _, low = amplified(0.0, q_l, platform)  # the high-quality side plays no part
    return low * (1.0 - verify_rate) * (1.0 - precision)


def value_and_harm(q_h, q_l, verify_rate, precision, platform, params: WelfareParams):
    """(consumed high-quality value, convex harm from effective low-quality exposure)."""
    x = harmful_exposure(q_l, platform, verify_rate, precision)
    return params.value_h * platform.gamma_h * q_h, params.harm_lin * x + params.harm_quad * x * x


def welfare_value(
    *,
    q_h: float,
    q_l: float,
    verify_rate: float,
    precision: float,
    trust: float,
    platform: Postures,
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
    value, harm = value_and_harm(q_h, q_l, verify_rate, precision, platform, params.welfare)
    return (
        value
        - harm
        + producer_profit
        + platform_profit
        - verification_spend
        + params.welfare.lambda_trust * trust
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
    """Per-lane supply of a batch of postures, arrays of the postures' shape."""

    q_h: np.ndarray
    q_l: np.ndarray
    producer_profit: np.ndarray


def supply_response(
    pool: ProducerPool,
    postures: Postures,
    platform: PlatformParams,
    *,
    cost_h_base: float | np.ndarray,
    cost_l_base: float | np.ndarray,
    gen_boost: float | np.ndarray,
    tax: float | np.ndarray,
    extra_q_l: float | np.ndarray = 0.0,
) -> SupplyResult:
    """Expected supply and producer surplus for each of a batch of posted postures.

    Per-producer unit costs divide the type-level closed-form cost by the
    individual productivity; generation capability cheapens low-quality
    templates by the gen_boost factor.  Choice probabilities are the stable
    logit over per-unit profits; contributions are productivity-scaled unit
    masses; the margins are the amplified ad revenue net of the platform's
    share (``platform.revenue_share`` and ``platform.ad_rate``).  Producer
    surplus is reported pre-tax (the levy is a transfer).  The results have
    the shape of the posture levers.  The cost bases, ``gen_boost``, ``tax``
    and ``extra_q_l`` broadcast against it: one value for every lane, one
    per lane, or (in the tick) one per world as a column.

    Lanes reduce with `np.vecdot`, which equals a 1-D `np.dot` of each lane
    bit for bit, so a lane's result does not depend on the batch it is in;
    `@`, `einsum` and `.sum(axis=-1)` differ from it in the last bit.
    """
    share = (1.0 - platform.revenue_share) * platform.ad_rate
    margin_h = (share * postures.gamma_h)[..., None]
    margin_l = (share * postures.gamma_l)[..., None]
    tax = _per_lane(tax)
    cost_h = _per_lane(cost_h_base) / pool.prod_h
    cost_l = _per_lane(cost_l_base) / (pool.prod_l * _per_lane(gen_boost))
    pi_h = margin_h - cost_h
    pi_l = margin_l - cost_l - tax
    gap = pi_h - pi_l
    with np.errstate(over="ignore"):  # the clip below takes an overflow's inf to 700
        gap *= pool.rationality
    # np.clip's bits (NaN stays, -0.0 stays), in place
    np.maximum(gap, -700.0, out=gap)
    np.minimum(gap, 700.0, out=gap)
    prob_h = 1.0 / (1.0 + np.exp(-gap))
    prob_l = 1.0 - prob_h
    q_h = np.vecdot(prob_h, pool.weight_h)
    q_l = np.vecdot(prob_l, pool.weight_l) + extra_q_l
    profit = np.vecdot(prob_h, pool.weight_h * pi_h) + np.vecdot(prob_l, pool.weight_l * (pi_l + tax))
    return SupplyResult(q_h=q_h, q_l=q_l, producer_profit=profit)


def _per_lane(x: float | np.ndarray) -> float | np.ndarray:
    """A supply argument against the (lanes, producers) axes: a float
    broadcasts as it is, an array gains the producers' axis."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)[..., None]


@dataclass(frozen=True)
class Clearing:
    """The market's response to given outputs under posted postures, per
    lane: arrays, or floats for one lane cleared as floats.

    ``flow`` is amplified exposure per agent, the flow that erodes trust.
    Welfare follows once a trust level and producer surplus are supplied.
    """

    q_h: float | np.ndarray
    q_l: float | np.ndarray
    posture: Postures
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


def exposure(q_h, q_l, postures: Postures, populations: Populations, params: SimParams) -> tuple:
    """(pollution, amplified exposure per agent, platform profit) of outputs,
    per lane (elementwise; floats give floats).

    Pollution is the share of amplified, unmoderated low-quality content in
    total amplified exposure, 0 for an empty market.
    Platform profit is the ad revenue share on amplified exposure, low
    quality monetizing at ``engagement_bias`` times a high-quality unit, net
    of the convex moderation cost.
    """
    pf = params.platform
    high, low = amplified(q_h, q_l, postures)
    total = high + low
    # An empty market (total 0, so low 0) has pollution 0 / 1.
    rho = low / (total + (total == 0.0))
    profit = (high + low * pf.engagement_bias) * (pf.revenue_share * pf.ad_rate) - (
        postures.moderation * postures.moderation * pf.moderation_cost * q_l
    )
    return rho, total / populations.total, profit


def clear_market(
    q_h: float | np.ndarray,
    q_l: float | np.ndarray,
    postures: Postures,
    populations: Populations,
    params: SimParams,
    provenance_boost: float = 0.0,
    exposed: tuple | None = None,
) -> Clearing:
    """Clear given outputs under posted postures, one lane per posture.

    Pollution, the verification fixed point, the outlay of everyone whose
    cost the resulting threshold covers, exposure flow, and platform
    profit.  Each lane is cleared independently of the others.
    ``exposed`` is the lanes' `exposure`, for a caller that already has it.
    One lane given as floats (outputs, levers and ``exposed``) clears in
    Python floats, to the same bits.
    """
    _check_outputs(q_h, q_l)
    rho, flow, plat_profit = exposed or exposure(q_h, q_l, postures, populations, params)
    rate, precision, threshold = solve_verification_fixed_point(
        rho, populations.consumers, provenance_boost, params=params
    )
    return Clearing(
        q_h=q_h,
        q_l=q_l,
        posture=postures,
        pollution=rho,
        verify_rate=rate,
        precision=precision,
        verification_spend=populations.consumers.spend(threshold),
        flow=flow,
        platform_profit=plat_profit,
    )


def _check_outputs(q_h, q_l) -> None:
    """Raise ValueError unless every lane's outputs are nonnegative."""
    if isinstance(q_h, float):
        nonnegative = q_h >= 0.0 and q_l >= 0.0  # NaN fails either comparison
    else:
        nonnegative = np.minimum(q_h, q_l).min() >= 0  # NaN if any output is, which fails
    if not nonnegative:
        raise ValueError("outputs must be nonnegative")


@dataclass(slots=True)
class TickOverlay:
    """One world's exogenous row for a tick, which no market outcome moves:
    the rental rate and the type-level unit costs at it (`_base_costs`), the
    capability stocks with the generation boost ``cap_gen ** kappa_gen`` and
    the index's i4 they give, a burst's extra low-quality supply, a trust
    shock's hit and the event marker.  `harness.build_overlays` makes them."""

    ai_rental: float
    cost_h_base: float
    cost_l_base: float
    cap_gen: float
    cap_det: float
    gen_boost: float
    i4: float
    extra_q_l: float
    trust_delta: float
    event: str


def _base_costs(params: SimParams, ai_rental: float) -> tuple[float, float]:
    """The type-level unit costs (high, low) at the rental rate; a CES cost
    bracket that leaves the floats (0 or an overflow) is a configuration error."""
    e = params.econ
    prices = econ.FactorPrices(ai_rental=ai_rental, wage=e.wage)
    costs = []
    for kind, tfp, share, sigma in (("h", e.tfp_h, e.delta_h, e.sigma_h),
                                    ("l", e.tfp_l, e.delta_l, e.sigma_l)):
        try:
            costs.append(econ.unit_cost(econ.CesTechnology(tfp, share, sigma), prices))
        except (ZeroDivisionError, OverflowError):
            raise ConfigError(
                f"econ.sigma_{kind} = {sigma!r} takes the CES unit cost out of the floats at "
                f"AI rental {ai_rental!r} (with econ.delta_{kind} and econ.wage)"
            ) from None
    return costs[0], costs[1]


# The levers of the platform's gradient step, in the order it probes them.
_LEVERS = ("gamma_l", "gamma_h", "moderation")


def market_step(
    trust: Sequence[float],
    populations: Populations,
    platforms: Sequence[Postures],
    overlays: Sequence[TickOverlay],
    taxes: Sequence[float],
    weight_steps: Sequence[tuple[float, float] | None],
    params: SimParams,
) -> tuple[list[list], dict[int, tuple[float, float, float]], list[Postures]]:
    """Advance a batch of worlds one tick (stages 1-6 of the tick cycle), one lane per world.

    Stage order: producer supply from the posted platform posture;
    pollution; the verification fixed point; the trust step; welfare; and
    the platform's projected gradient update.  The adaptive-policy stage is
    applied by the orchestration loop once the tick's index reading exists.
    Deterministic: no randomness is consumed here.

    The worlds share the populations and the parameter sections read here
    (agents, market, trust, welfare, platform, and the policy's provenance
    boost and fiduciary weight), passed once; each world has its own
    posture, carried trust, exogenous row and levy, and a weight step:
    None, or for endogenous index weights ``(eps, gen_boost)``, the
    relative step in their drivers and the generation boost at the stepped
    capability stock.  The tick clears one lane table: each world's posted
    lane, then for each world with a step its low-quality output scaled by
    ``1 + eps`` and supply at the stepped boost (an eighth supply lane).
    Every lane's welfare takes its world's trust after this tick's step
    and its own producer surplus.

    Each world's `_probes` row gives its supply lanes' postures, stacked
    into arrays once for the supply call, and the levers of its gradient
    step.  Every stage is elementwise over lanes, so a world's result does
    not depend on its batch.  One body calls each stage after supply once
    per block of lanes, and the world count picks only the blocks and the
    shape of what leaves: a lone world's blocks are its lanes as Python
    floats (one to three table lanes, then six probes), a batch's are its
    gathered lane table and its (worlds, 6) probes as arrays.  Returns the
    tick's columns, one value per world, (q_h, q_l, pollution, verify_rate,
    precision, trust, welfare); the weighing worlds' ``{world: (scaled
    welfare, scaled pollution, stepped-supply welfare)}``; and each world's
    stepped posture.  Welfare may overflow; the caller checks it.
    Amplified exposure that leaves the floats, in a supply lane or a scaled
    lane, is a ConfigError, the same alone and in a batch.  Every lane's
    outputs, then every lane's pollution, are checked before any lane is
    solved; a lane whose fixed point misses ``market.fp_tol`` then raises
    NoConvergence for the whole batch, naming the first such lane of the
    table.
    """
    pf, pp = params.platform, params.policy
    n = len(platforms)
    weighted = [w for w, step in enumerate(weight_steps) if step is not None]
    k = len(weighted)
    # (1) producer choices and aggregate supply over each world's row of
    # lanes (`_probes`): its posted posture and the probes of its gradient
    # step, and when some world weighs its index an eighth lane
    rows = _probes(platforms, pf, eighth=bool(weighted))
    postures = Postures.of(rows)
    cost_h, cost_l, gen_boost, tax, extra_q_l = (_per_world(column) for column in zip(*[
        (o.cost_h_base, o.cost_l_base, o.gen_boost, tax, o.extra_q_l)
        for o, tax in zip(overlays, taxes)
    ]))
    if weighted:
        gen_boost = np.full(postures.gamma_h.shape, gen_boost)
        gen_boost[weighted, -1] = [weight_steps[w][1] for w in weighted]
    supply = supply_response(
        populations.producers, postures, pf, cost_h_base=cost_h, cost_l_base=cost_l,
        gen_boost=gen_boost, tax=tax, extra_q_l=extra_q_l,
    )
    # Exogenous trust shocks land before the Euler update of stage (4).
    t_max = params.trust.t_max
    trust_in = [_clamp(t + o.trust_delta, 0.0, t_max) for t, o in zip(trust, overlays)]

    # (2) exposure under every supply lane's posture, block by block: a lone
    # world's lanes as Python floats, levers from its row, or a batch's
    # (worlds, lanes) arrays as one block
    if n == 1:
        q_h, q_l, profit = (x.ravel().tolist() for x in (
            supply.q_h, supply.q_l, supply.producer_profit))
        lanes = list(map(Postures, rows[0].gamma_h, rows[0].gamma_l, rows[0].moderation))
    else:
        q_h, q_l, profit, lanes = [supply.q_h], [supply.q_l], [supply.producer_profit], [postures]
    with _quiet(q_h[0]):  # an overflow shows in the check below
        exposed = [exposure(h, l, p, populations, params) for h, l, p in zip(q_h, q_l, lanes)]
    _check_exposure(exposed, "shocks.fake_news_burst (times agents.n_producers), amplified by "
                             "up to platform.gamma_max, overflows it")

    # The lane table, each lane (q_h, q_l, producer profit, posted posture,
    # exposure): each world's posted lane (supply lane 0) and, for a weight
    # step, its low-quality output scaled by ``1 + eps`` (exposure None: it
    # is its own) and its stepped supply (the last lane); and the probe
    # lanes (1-6).  A lone world's blocks are its lanes.  A batch gathers its
    # table into one block of (world, supply lane) pairs, its posted lanes
    # alone taken as views of column 0 (gathering them made a fixed-weight
    # tick about 5 % slower), and its probes into one block.
    if n == 1:
        table = [(q_h[0], q_l[0], profit[0], lanes[0], exposed[0])]
        if k:
            table += [(q_h[0], q_l[0] * (1.0 + weight_steps[0][0]), profit[0], lanes[0], None),
                      (q_h[7], q_l[7], profit[7], lanes[7], exposed[7])]
        probes = zip(q_h[1:7], q_l[1:7], lanes[1:7], exposed[1:7])
        trust_in = trust_in[0]
    else:
        world = np.array([*range(n), *weighted, *weighted])
        gather = (world, np.array([0] * (n + k) + [-1] * k)) if k else np.s_[:, 0]
        scaled = supply.q_l[gather]
        if k:
            with _quiet(scaled):
                scaled[n:n + k] *= [1.0 + weight_steps[w][0] for w in weighted]
        table = [(supply.q_h[gather], scaled, supply.producer_profit[gather],
                  postures.take(gather), None if k else tuple(x[gather] for x in exposed[0]))]
        probe = np.s_[:, 1:7]
        probes = [(supply.q_h[probe], supply.q_l[probe], postures.take(probe),
                   tuple(x[probe] for x in exposed[0]))]
        trust_in = np.array(trust_in)

    # (3) pollution under the posture producers responded to, and the
    # verification fixed point of every table lane.  Every lane's outputs,
    # then every lane's pollution, are checked before any lane solves (one
    # block's `clear_market` checks its own).
    if k:  # the weight lanes' own exposure: a lone world's second lane, or a batch's table
        at = 1 if n == 1 else 0
        h, l, f, p, _ = table[at]
        with _quiet(l):
            e = exposure(h, l, p, populations, params)
        _check_exposure([e], "ipi.weight_perturbation scales the low-quality output of a weight "
                        "lane (ipi.endogenous_weights) past it")
        table[at] = (h, l, f, p, e)
    if len(table) > 1:
        for h, l, *_ in table:
            _check_outputs(h, l)
        for *_, (rho, _, _) in table:
            _check_pollution(rho)
    cleared = [clear_market(h, l, p, populations, params, pp.provenance_boost, exposed=e)
               for h, l, _, p, e in table]

    # (4) the posted lanes' trust step
    posted = cleared[0]
    rho, flow = (posted.pollution, posted.flow) if n == 1 else (
        posted.pollution[:n], posted.flow[:n])
    trust_out = trust_update(trust_in, rho, flow, params.trust)

    # (5) every table lane's welfare at its world's trust; a huge finite
    # output can overflow the harm's square
    spread = trust_out if n == 1 else trust_out[world]
    with _quiet(trust_out):
        welfare = [c.welfare(spread, f, params) for c, (_, _, f, _, _) in zip(cleared, table)]

    # (6) one-tick-ahead finite differences over the probe lanes, holding
    # each world's verification at its posted lane's
    trust_now, rate, precision = (trust_out, posted.verify_rate, posted.precision) if n == 1 else (
        trust_out[:, None], posted.verify_rate[:n, None], posted.precision[:n, None])
    outlook = [_lookahead(p, h, l, e, pp.fiduciary, params, trust_now=trust_now,
                          verify_rate=rate, precision=precision,
                          producers=populations.producers.n)
               for h, l, p, e in probes]

    outcome = (posted.q_h, posted.q_l, posted.pollution, posted.verify_rate, posted.precision,
               trust_out, welfare[0])
    if n == 1:
        columns = [[x] for x in outcome]
        weighed = {0: (welfare[1], cleared[1].pollution, welfare[2])} if k else {}
        objectives, trust_next = ([list(x)] for x in zip(*outlook))
    else:
        columns = [x[:n].tolist() for x in outcome]
        welfare, pollution = welfare[0].tolist(), posted.pollution.tolist()
        weighed = dict(zip(weighted, zip(welfare[n:n + k], pollution[n:n + k], welfare[n + k:])))
        objectives, trust_next = (x.tolist() for x in outlook[0])
    stepped = _platform_gradient_steps(platforms, rows, objectives, trust_next, pf)
    return columns, weighed, stepped


def _check_exposure(exposed: list[tuple], cause: str) -> None:
    """Raise ConfigError naming ``cause`` if some lane's amplified exposure
    per agent (`exposure`'s flow) overflows to inf.  A NaN flow comes from
    NaN outputs, which `_check_outputs` names as before."""
    for _, flow, _ in exposed:
        if flow == math.inf if isinstance(flow, float) else (flow == math.inf).any():
            raise ConfigError(f"amplified exposure leaves the floats: {cause}")


def _per_world(values: tuple[float, ...]) -> float | np.ndarray:
    """One float if every world has the same value, else a column of them: a
    float broadcasts at less cost per call.

    Equal values give equal results: the only equal floats whose bits
    differ are 0.0 and -0.0, and a zero levy or burst adds or subtracts to
    the same result either way (the cost bases and boosts are positive).
    A lane's result does not depend on whether its value comes as the
    float or as an element of an array.
    """
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values, dtype=float)[:, None]


def _probes(
    platforms: Sequence[Postures], pf: PlatformParams, eighth: bool = False
) -> list[Postures]:
    """Each world's row of lanes, its levers as tuples: lane 0 the posted
    posture, then the six central-difference probes, and with ``eighth``
    an eighth, the posted posture again (the stepped-supply lane of
    endogenous weights).

    Each lever in `_LEVERS` order moves one step of ``fd_step`` up, then one
    down, within its bounds: lever i's probes are lanes 2i + 1 and 2i + 2.
    """
    h, top = pf.fd_step, pf.gamma_max
    width = 8 if eighth else 7
    rows = []
    for p in platforms:
        gl, gh, m = p.gamma_l, p.gamma_h, p.moderation
        rows.append(Postures(
            (gh, gh, gh, min(gh + h, top), max(gh - h, 0.0), gh, gh, gh)[:width],
            (gl, min(gl + h, top), max(gl - h, 0.0), gl, gl, gl, gl, gl)[:width],
            (m, m, m, m, m, min(m + h, 1.0), max(m - h, 0.0), m)[:width],
        ))
    return rows


def _lookahead(
    postures: Postures,
    q_h,
    q_l,
    exposed: Sequence,
    fiduciary: float,
    params: SimParams,
    *,
    trust_now,
    verify_rate,
    precision,
    producers: int,
) -> tuple:
    """(objective, trust level) one tick ahead if a platform posts a probe
    posture, elementwise: floats for one probe, or arrays of a row of
    probes per world.

    ``q_h``/``q_l`` are supply's response to the probe and ``exposed`` its
    `exposure`.  The profit side is per-producer normalized so learning
    rates are population-size invariant; under a fiduciary duty the
    objective blends in the consumer value/harm fragment.  The verification
    response is held at this tick's clearing within the lookahead:
    ``verify_rate`` and ``precision`` are the posted lane's, as
    ``trust_now`` is (floats, or one value per world as a column).
    """
    rho, flow, objective = exposed
    if fiduciary > 0.0:
        # As in welfare, a huge finite output can overflow the harm's square.
        with _quiet(q_h):
            value, harm = value_and_harm(q_h, q_l, verify_rate, precision, postures,
                                         params.welfare)
            objective = fiduciary_objective(objective, value, harm, fiduciary)
    return objective / producers, trust_update(trust_now, rho, flow, params.trust)


def _platform_gradient_steps(
    platforms: Sequence[Postures], rows: Sequence[Postures], objectives: list[list[float]],
    trust_next: list[list[float]], pf: PlatformParams,
) -> list[Postures]:
    """One `platform_update` per world from central differences over its probes.

    ``rows`` are the worlds' `_probes` rows, lane 0 the posted posture;
    ``objectives`` and ``trust_next`` hold `_lookahead`'s Python floats for
    each world's six probe lanes (lanes 1-6), one list per world.
    """
    stepped = []
    for platform, row, f, t in zip(platforms, rows, objectives, trust_next):
        grads = []
        for i, name in enumerate(_LEVERS):
            lever = getattr(row, name)
            up, dn = 2 * i, 2 * i + 1  # the probes' indices in f and t, lanes 1 + up and 1 + dn
            span = lever[1 + up] - lever[1 + dn]
            if span == 0.0:  # no room either way
                grads.append((0.0, 0.0))
                continue
            # Trust gradient enters the update rule as erosion per unit increase.
            grads.append(((f[up] - f[dn]) / span, -(t[up] - t[dn]) / span))
        stepped.append(platform_update(platform, pf, *grads))
    return stepped


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, row) of a 2-D float array: each distinct row's first lane, in
    order of appearance, and each lane's index into ``first``.

    Rows compare by their float64 bits, so 0.0 and -0.0 never merge, and
    lanes that share a row share every result computed from it alone.
    """
    bits = np.ascontiguousarray(rows, dtype=float).view(np.uint64)
    order = np.lexsort(bits.T)  # stable: a run of equal rows starts at its first lane
    ranked = bits[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    heads = order[starts]  # each run's first lane
    is_head = np.zeros(order.size, dtype=bool)
    is_head[heads] = True
    # Number the runs by their first lanes' order of appearance.
    number = (np.cumsum(is_head) - 1)[heads]
    row = np.empty_like(order)
    row[order] = number[np.cumsum(starts) - 1]
    return np.flatnonzero(is_head), row


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
    alone bit for bit, so lanes with equal inputs share one solve.  Supply
    does not read moderation: it is solved once per distinct (gamma_h,
    gamma_l, tax).  The fixed point reads only pollution: `clear_market`
    clears the first lane of each distinct pollution, and the lanes that
    share it take its verification rate, precision and spend.  Used for the
    planner-optimum and worst-corner anchors of the deadweight dimension.
    """
    cost_h_base, cost_l_base = _base_costs(params, params.econ.ai_rental)
    tax = np.broadcast_to(np.asarray(tax, dtype=float), postures.gamma_h.shape)
    first, row = _distinct_rows(np.column_stack([postures.gamma_h, postures.gamma_l, tax]))
    supply = supply_response(
        populations.producers,
        postures.take(first),
        params.platform,
        cost_h_base=cost_h_base,
        cost_l_base=cost_l_base,
        gen_boost=1.0,
        tax=tax[first],
    )
    q_h, q_l = supply.q_h[row], supply.q_l[row]
    exposed = exposure(q_h, q_l, postures, populations, params)
    lead, same = _distinct_rows(exposed[0][:, None])
    solved = clear_market(q_h[lead], q_l[lead], postures.take(lead), populations, params,
                          exposed=tuple(x[lead] for x in exposed))
    rho, flow, platform_profit = exposed
    return welfare_value(
        q_h=q_h, q_l=q_l, verify_rate=solved.verify_rate[same], precision=solved.precision[same],
        trust=steady_state_trust(rho, flow, params.trust), platform=postures,
        producer_profit=supply.producer_profit[row], platform_profit=platform_profit,
        verification_spend=solved.verification_spend[same], params=params,
    )


def welfare_anchors(populations: Populations, params: SimParams) -> tuple[float, float]:
    """(W_so, W_min): planner-optimum and worst-corner welfare anchors.

    W_so is a lattice search over (moderation, gamma_h, gamma_l, tax) of
    static equilibrium welfare under the same agent responses; W_min is the
    no-moderation, max-amplification, no-tax corner.  The corner and the
    lattice clear as the lanes of one batch.  Lattice resolution is
    config-exposed.  Raises ConfigError if either anchor is not finite
    (finite inputs, such as the welfare coefficients or the ad rate, can
    still overflow welfare) or if W_so does not exceed W_min, which the
    deadweight dimension divides by.
    """
    ip, pf = params.ipi, params.platform
    axes = (
        np.linspace(0.0, 1.0, ip.anchor_m_points),
        np.linspace(0.0, pf.gamma_max, ip.anchor_gamma_points),
        np.linspace(0.0, pf.gamma_max, ip.anchor_gamma_points),
        np.linspace(0.0, ip.anchor_tax_max, ip.anchor_tax_points),
    )
    # Lane 0 is the corner (gamma_H at its initial value); the lattice
    # follows with moderation outermost and tax innermost.
    corner = (0.0, pf.gamma_init, pf.gamma_max, 0.0)
    m, gh, gl, tax = (
        np.concatenate([[c], a.ravel()])
        for c, a in zip(corner, np.meshgrid(*axes, indexing="ij"))
    )
    # Overflow shows as a non-finite anchor, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        w = static_equilibrium_welfare(populations, Postures(gh, gl, m), params, tax=tax)
    # The first lane strictly above every earlier one wins; a NaN lane never does.
    lattice = np.where(np.isnan(w[1:]), -math.inf, w[1:])
    w_so, w_min = float(lattice[np.argmax(lattice)]), float(w[0])
    if not (math.isfinite(w_so) and math.isfinite(w_min)):
        raise ConfigError(
            f"welfare anchors must be finite, got w_so={w_so}, w_min={w_min}: the welfare "
            "section's coefficients, or the quantities they weigh, overflow"
        )
    # E.g. a negative harm coefficient can make the corner the lattice's best posture.
    if not w_so > w_min:
        raise ConfigError(
            f"welfare anchors collapse: w_so={w_so} <= w_min={w_min}: no posture of the "
            "ipi.anchor_* lattice beats the worst corner"
        )
    return w_so, w_min
