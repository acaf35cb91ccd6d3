"""Simulation parameters, the flat dotted-key config surface, and file parsing.

Every tunable lives in one of the section dataclasses below and is
addressable as ``section.field`` from config files and CLI flags alike.
Precedence is CLI > file > defaults.  Config files are flat text::

    # comment
    econ.ai_rental = 0.8
    platform.trust_price = 300

`SimParams.resolved_text` renders the fully-expanded configuration (the
form written next to every experiment's results) and `config_hash` derives
the run fingerprint from it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError


def _bound(section: Any, prefix: str, names: str, ok: Callable[[Any], bool], rule: str) -> None:
    """Raise ConfigError for the first of the space-separated fields that breaks the rule."""
    for name in names.split():
        value = getattr(section, name)
        if not ok(value):
            raise ConfigError(f"{prefix}.{name} must {rule}, got {value!r}")


def _positive(v: float) -> bool:
    return v > 0


def _nonnegative(v: float) -> bool:
    return v >= 0


# Fixed index weights must be nonnegative and sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class EconParams:
    sigma_h: float = 0.75
    sigma_l: float = 1.5
    delta_h: float = 0.35
    delta_l: float = 0.65
    tfp_h: float = 1.0
    tfp_l: float = 1.0
    ai_rental: float = 1.0
    wage: float = 8.0
    # Reference rental rate; generation capability compounds only below it.
    ai_rental_baseline: float = 1.0

    def __post_init__(self) -> None:
        _bound(self, "econ", "ai_rental wage tfp_h tfp_l sigma_h sigma_l", _positive, "be positive")
        _bound(self, "econ", "delta_h delta_l", lambda v: 0 < v < 1, "lie in (0, 1)")


@dataclass(frozen=True)
class AgentParams:
    n_producers: int = 80
    n_consumers: int = 200
    rationality: float = 1.0
    # At unit mean productivity, high-quality output never breaks even at
    # baseline prices (unit cost 7.8 vs max attainable revenue 6.0), so the
    # whole population floods low quality; 2.0 puts the margin inside the
    # productivity distribution.
    mean_prod_h: float = 2.0
    mean_prod_l: float = 1.2
    prod_log_sd: float = 0.5
    k_max: float = 4.0
    du_h: float = 0.5
    du_l: float = 2.0

    def __post_init__(self) -> None:
        _bound(self, "agents", "n_producers n_consumers", lambda v: v >= 1, "be at least 1")
        _bound(self, "agents", "mean_prod_h mean_prod_l", _positive, "be positive")
        _bound(self, "agents", "rationality prod_log_sd k_max du_h du_l", _nonnegative,
               "be nonnegative")


@dataclass(frozen=True)
class PlatformParams:
    gamma_init: float = 1.0
    gamma_max: float = 2.0
    moderation_init: float = 0.0
    revenue_share: float = 0.25
    ad_rate: float = 4.0
    lr_gamma: float = 0.05
    lr_mod: float = 0.05
    trust_price: float = 50.0
    moderation_cost: float = 2.0
    fd_step: float = 1e-3
    # Platform-side monetization premium on amplified low-quality exposure:
    # clickbait engages better per amplified unit.  Producers' margins are
    # unaffected (they sell amplification, not engagement).
    engagement_bias: float = 1.3

    def __post_init__(self) -> None:
        _bound(self, "platform", "revenue_share", lambda v: 0 < v < 1, "lie in (0, 1)")
        # At 0 nothing is amplified, and the anchor lattice collapses onto its worst corner.
        _bound(self, "platform", "gamma_max", _positive, "be positive")
        _bound(self, "platform", "gamma_init", lambda v: 0 <= v <= self.gamma_max,
               f"lie in [0, platform.gamma_max = {self.gamma_max!r}]")
        _bound(self, "platform", "moderation_init", lambda v: 0 <= v <= 1, "lie in [0, 1]")
        _bound(self, "platform", "ad_rate", _positive, "be positive")
        # The producers' margin at the top amplification, as `supply_response` computes it.
        _bound(self, "platform", "gamma_max",
               lambda v: math.isfinite((1.0 - self.revenue_share) * self.ad_rate * v),
               "keep the margin (1 - platform.revenue_share) * platform.ad_rate * gamma_max "
               "finite")
        _bound(self, "platform", "lr_gamma lr_mod trust_price moderation_cost engagement_bias",
               _nonnegative, "be nonnegative")
        # At 0 every finite-difference probe is the posted posture, and the platform freezes.
        _bound(self, "platform", "fd_step", _positive, "be positive")


@dataclass(frozen=True)
class MarketParams:
    pi_base: float = 0.85
    kappa_pollution: float = 0.3
    # Nonnegative: verification sharpens the signal, which makes the fixed
    # point unique when du_h <= du_l.
    kappa_verify: float = 0.1
    # The verification fixed point must meet |T(V) - V| < fp_tol.  The exact
    # solve's own rounding leaves residuals up to about 1.1e-16, so below
    # about 1e-15 rounding decides pass or fail; 0 always fails (exit 3).
    fp_tol: float = 1e-8

    def __post_init__(self) -> None:
        _bound(self, "market", "kappa_pollution kappa_verify fp_tol", _nonnegative,
               "be nonnegative")


@dataclass(frozen=True)
class TrustParams:
    """Euler-discretized trust dynamics: decay, pollution hit, and repair inflow."""

    decay: float = 0.05
    pollution_hit: float = 0.02
    repair_gain: float = 3.0
    repair_flow: float = 0.01
    t_max: float = 1.0
    initial: float = 0.5

    def __post_init__(self) -> None:
        _bound(self, "trust", "decay", lambda v: 0 < v < 1, "lie in (0, 1)")
        _bound(self, "trust", "pollution_hit t_max", _positive, "be positive")
        # Above t_max is allowed: the first tick clamps it.
        _bound(self, "trust", "repair_gain repair_flow initial", _nonnegative, "be nonnegative")


@dataclass(frozen=True)
class WelfareParams:
    value_h: float = 1.0
    harm_lin: float = 0.8
    harm_quad: float = 0.1
    lambda_trust: float = 10.0


@dataclass(frozen=True)
class IpiParams:
    w_pollution: float = 0.35
    w_deadweight: float = 0.25
    w_trust: float = 0.25
    w_tech: float = 0.15
    endogenous_weights: bool = False
    weight_perturbation: float = 0.01
    mu_tech: float = 0.0
    sigma_tech: float = 1.0
    cap_gen_growth: float = 0.02
    cap_det_growth: float = 0.01
    # Exponent linking generation capability to the effective low-quality cost.
    kappa_gen: float = 0.5
    # The welfare anchors' lattice: moderation, each amplification and the
    # levy on evenly spaced points from 0.  An axis of one point holds its
    # lever at 0, so anchor_m_points = 1 searches unmoderated postures only
    # and anchor_tax_points = 1 untaxed ones.
    anchor_m_points: int = 9
    anchor_gamma_points: int = 5
    anchor_tax_points: int = 5
    anchor_tax_max: float = 2.0

    def __post_init__(self) -> None:
        # The planner optimum is a maximum over the lattice's lanes; it needs one.
        if min(self.anchor_m_points, self.anchor_gamma_points, self.anchor_tax_points) < 1:
            raise ConfigError("ipi.anchor_*_points must be at least 1")
        # One point is gamma 0 alone: no lattice posture amplifies anything.
        _bound(self, "ipi", "anchor_gamma_points", lambda v: v >= 2, "be at least 2")
        _bound(self, "ipi", "w_pollution w_deadweight w_trust w_tech", _nonnegative,
               "be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= WEIGHT_TOL:
            raise ConfigError(f"ipi.w_* must sum to 1, got {sum(self.weights)!r}")
        # At 0 every welfare response is flat, and the weights fall back to the fixed ones.
        _bound(self, "ipi", "sigma_tech weight_perturbation", _positive, "be positive")
        # A negative top levy would make the anchor lattice search subsidies.
        _bound(self, "ipi", "anchor_tax_max", _nonnegative, "be nonnegative")
        # A stock that grows by a factor of 1 + rate must stay positive.
        _bound(self, "ipi", "cap_gen_growth cap_det_growth", lambda v: v > -1,
               "be above -1")

    @property
    def weights(self) -> tuple[float, float, float, float]:
        """The fixed index weights, in dimension order."""
        return (self.w_pollution, self.w_deadweight, self.w_trust, self.w_tech)


@dataclass(frozen=True)
class ProxyParams:
    items_per_type: int = 5
    impression_scale: float = 100.0
    harm_rate_clickbait: float = 0.05
    harm_rate_misinformation: float = 0.02
    harm_rate_fraud: float = 0.004
    sev_clickbait: float = 1.0
    sev_misinformation: float = 3.0
    sev_fraud: float = 10.0
    churn_base_floor: float = 0.02
    churn_trust_slope: float = 0.10
    churn_gap_coef: float = 1.0
    detector_acc_base: float = 0.95
    detector_exponent: float = 0.25

    def __post_init__(self) -> None:
        _bound(self, "proxy", "items_per_type", lambda v: v >= 1, "be at least 1")
        _bound(self, "proxy", "impression_scale churn_base_floor", _positive, "be positive")
        # A negative detector exponent would make detection fall as it gains on generation.
        _bound(self, "proxy", "harm_rate_clickbait harm_rate_misinformation harm_rate_fraud "
               "sev_clickbait sev_misinformation sev_fraud churn_trust_slope churn_gap_coef "
               "detector_exponent", _nonnegative, "be nonnegative")
        _bound(self, "proxy", "detector_acc_base", lambda v: 0 < v <= 1, "lie in (0, 1]")
        # Churn peaks at full trust depletion, and noise of level at most 1
        # can double it; every churn rate must stay a probability.
        peak = (self.churn_base_floor + self.churn_trust_slope) * (1.0 + 0.5 * self.churn_gap_coef)
        if not peak <= 0.5:
            raise ConfigError(
                "proxy: (churn_base_floor + churn_trust_slope) * (1 + churn_gap_coef / 2) "
                f"must be at most 0.5, got {peak!r}"
            )


@dataclass(frozen=True)
class PolicyParams:
    tax_init: float = 0.0
    fiduciary: float = 0.0
    provenance_boost: float = 0.0
    adaptive_enabled: bool = False
    adaptive_eta: float = 0.05
    adaptive_target: float = 0.5

    def __post_init__(self) -> None:
        _bound(self, "policy", "tax_init provenance_boost", _nonnegative, "be nonnegative")
        _bound(self, "policy", "fiduciary", lambda v: 0 <= v <= 1, "lie in [0, 1]")
        if self.adaptive_enabled:
            _bound(self, "policy", "adaptive_eta", _positive, "be positive")
            _bound(self, "policy", "adaptive_target", lambda v: 0 < v < 1, "lie in (0, 1)")


@dataclass(frozen=True)
class ShockParams:
    ticks: tuple[int, ...] = (40, 70, 100, 130)
    duration: int = 5
    cost_drop: float = 0.75
    capability_jump: float = 2.0
    fake_news_burst: float = 0.5
    trust_shock: float = 0.35

    def __post_init__(self) -> None:
        # Shocks enter at whole ticks; the run checks that each lies inside its horizon.
        _bound(self, "shocks", "ticks", lambda v: all(isinstance(t, int) and t >= 0 for t in v),
               "be nonnegative integers")
        _bound(self, "shocks", "cost_drop capability_jump fake_news_burst trust_shock",
               _nonnegative, "be nonnegative")
        # A negative window would revert a capability jump before it enters.
        _bound(self, "shocks", "duration", _nonnegative, "be nonnegative")
        # A cost drop scales the AI rental rate by (1 - magnitude), which must stay positive.
        _bound(self, "shocks", "cost_drop", lambda v: v < 1, "be below 1")


@dataclass(frozen=True)
class SimParams:
    """The full parameter set for one simulated world."""

    econ: EconParams = field(default_factory=EconParams)
    agents: AgentParams = field(default_factory=AgentParams)
    platform: PlatformParams = field(default_factory=PlatformParams)
    market: MarketParams = field(default_factory=MarketParams)
    trust: TrustParams = field(default_factory=TrustParams)
    welfare: WelfareParams = field(default_factory=WelfareParams)
    ipi: IpiParams = field(default_factory=IpiParams)
    proxy: ProxyParams = field(default_factory=ProxyParams)
    policy: PolicyParams = field(default_factory=PolicyParams)
    shocks: ShockParams = field(default_factory=ShockParams)

    def flatten(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for section in fields(self):
            sub = getattr(self, section.name)
            out |= {f"{section.name}.{f.name}": getattr(sub, f.name) for f in fields(sub)}
        return out

    def with_overrides(self, overrides: dict[str, Any]) -> "SimParams":
        """Apply dotted-key overrides, coercing values to the field's type."""
        current = self.flatten()
        staged: dict[str, dict[str, Any]] = {}
        for key, value in overrides.items():
            if key not in current:
                raise ConfigError(f"unknown config key: {key!r}")
            coerced = _coerce(value, current[key], key)
            # No parameter is meaningful at NaN or infinity, bounded or not.
            if isinstance(coerced, float) and not math.isfinite(coerced):
                raise ConfigError(f"{key} must be finite, got {coerced!r}")
            section, _, name = key.partition(".")
            staged.setdefault(section, {})[name] = coerced
        updated = {
            section: replace(getattr(self, section), **kwargs)
            for section, kwargs in staged.items()
        }
        return replace(self, **updated)

    def resolved_text(self) -> str:
        lines = [f"{key} = {_render(value)}" for key, value in sorted(self.flatten().items())]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:16]


def _coerce(value: Any, current: Any, key: str) -> Any:
    """``value`` as the type of ``current``, the dotted key's present value;
    an error names the key."""
    if isinstance(value, str):
        text = value.strip()
        if isinstance(current, bool):
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ConfigError(f"expected a boolean for {key!r}, got {value!r}")
        try:
            if isinstance(current, int):
                return int(text)
            if isinstance(current, float):
                return float(text)
            if isinstance(current, tuple):
                return tuple(_number(x) for x in text.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"cannot parse {value!r} for key {key!r}") from None
        return text
    if isinstance(current, bool) and not isinstance(value, bool):
        raise ConfigError(f"expected a boolean for {key!r}, got {value!r}")
    if isinstance(current, float) and isinstance(value, (int, float)):
        return float(value)
    if isinstance(current, int) and isinstance(value, int):
        return value
    if isinstance(current, tuple) and isinstance(value, (list, tuple)):
        return tuple(value)
    if type(value) is type(current):
        return value
    raise ConfigError(f"cannot coerce {value!r} for key {key!r}")


def _number(text: str) -> int | float:
    """A tuple element: an int if integral (``4``, ``4.0``, ``1e1``), else a
    float, inf and NaN included.  Integer text parses exactly, past 2**53."""
    try:
        return int(text)
    except ValueError:
        x = float(text)
        return int(x) if x.is_integer() else x


def _render(value: Any) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key = value config file into an override mapping; a file
    that cannot be read as UTF-8 text is a configuration error."""
    overrides: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"{path}: cannot read the config file: {getattr(exc, 'strerror', None) or exc}"
        ) from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides
