"""Experiment orchestration: the simulation loop, the world runner, the nine
experiment procedures, persistence, and summary statistics.

Every experiment is deterministic in (configuration, master seed): random
streams are derived from the master seed by a fixed splitting rule
(SeedSequence children: producer draws, consumer draws, then per-purpose
streams keyed by small integer tags), a multi-world experiment is a list of
(parameters, policy) worlds whose records come back to the parent in world
order, however many processes ran them, and the parent writes every file,
with floats in a fixed format.  Output layout per experiment::

    <out>/config.txt        resolved configuration (all defaults expanded)
    <out>/results/*.csv     run record and experiment tables
    <out>/figures/*.csv     plot-ready two-column series
    <out>/summary.json      machine-readable report
    <out>/summary.txt       the same report as text
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .agents import draw_consumers, draw_producers
from .config import SimParams, parse_config_file
from .errors import ConfigError, NoConvergence
from .ipi import (
    FIXED_WEIGHTS,
    IpiReading,
    dim_deadweight,
    dim_tech_risk,
    dim_trust_decay,
    endogenous_weights,
    proxy_composite,
    synthesize_log,
)
from .market import (
    MarketState,
    Populations,
    Postures,
    TickInputs,
    _base_costs,
    _platform_from_params,
    clear_market,
    market_step,
    supply_response,
    welfare_anchors,
)
from .policy import (
    SCENARIOS,
    PolicyConfig,
    RobustSelection,
    adaptive_tax,
    max_min_select,
    scenario_config,
)

CSV_COLUMNS = (
    "tick", "q_h", "q_l", "pollution", "verify_rate", "precision", "trust",
    "welfare", "i1", "i2", "i3", "i4", "ipi", "tau", "gamma_h", "gamma_l",
    "m", "event",
)

SHOCK_KINDS = ("cost_drop", "capability_jump", "fake_news_burst", "trust_shock")


def _fmt(x: float) -> str:
    # repr round-trips exactly, so a written record re-reads bit-identical
    return repr(float(x))


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: experiment id, seed, horizon, sizes, overrides, output."""

    experiment: str = "baseline"
    master_seed: int = 42
    max_ticks: int = 150
    jobs: int = 1
    out_dir: Path | None = None
    overrides: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}"
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if self.max_ticks < 0:
            raise ConfigError("max_ticks must be nonnegative")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def params(self) -> SimParams:
        return SimParams().with_overrides(self.overrides)


@dataclass(frozen=True)
class TickRow:
    tick: int
    q_h: float
    q_l: float
    pollution: float
    verify_rate: float
    precision: float
    trust: float
    welfare: float
    i1: float
    i2: float
    i3: float
    i4: float
    ipi: float
    tau: float
    gamma_h: float
    gamma_l: float
    m: float
    event: str = ""


@dataclass
class RunRecord:
    """Time-indexed series of market states and index readings plus metadata."""

    rows: list[TickRow]
    metadata: dict[str, str]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow(
                [r.tick]
                + [_fmt(getattr(r, c)) for c in CSV_COLUMNS[1:-1]]
                + [r.event]
            )
        return buf.getvalue()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv_text(), encoding="utf-8")

    @classmethod
    def from_csv(cls, path: Path, metadata: dict[str, str] | None = None) -> "RunRecord":
        rows = []
        with open(path, newline="", encoding="utf-8") as f:
            for rec in csv.DictReader(f):
                rows.append(
                    TickRow(
                        tick=int(rec["tick"]),
                        **{c: float(rec[c]) for c in CSV_COLUMNS[1:-1]},
                        event=rec["event"],
                    )
                )
        return cls(rows=rows, metadata=metadata or {})


@dataclass(frozen=True)
class ShockEvent:
    """An exogenous disturbance injected at a tick."""

    tick: int
    kind: str
    magnitude: float

    def __post_init__(self) -> None:
        if self.kind not in SHOCK_KINDS:
            raise ConfigError(f"unknown shock kind {self.kind!r}")
        if self.magnitude < 0:
            raise ConfigError("shock magnitude must be nonnegative")
        # The rental rate over the window is ai_rental * (1 - magnitude).
        if self.kind == "cost_drop" and self.magnitude >= 1:
            raise ConfigError(f"a cost drop must be below 1, got {self.magnitude!r}")


class Simulation:
    """Owns one run: populations, platform, capability stocks, and policy state.

    Strictly sequential and deterministic; independent runs get their own
    instances.
    """

    def __init__(
        self, params: SimParams, policy: PolicyConfig | None = None, master_seed: int = 42
    ):
        self.params = params
        self.policy = policy or PolicyConfig()
        self.master_seed = master_seed
        prod_ss, cons_ss = np.random.SeedSequence(master_seed).spawn(2)
        ag = params.agents
        self.populations = Populations(
            producers=draw_producers(
                ag.n_producers,
                np.random.default_rng(prod_ss),
                mean_prod_h=ag.mean_prod_h,
                mean_prod_l=ag.mean_prod_l,
                log_sd=ag.prod_log_sd,
                rationality=ag.rationality,
            ),
            consumers=draw_consumers(
                ag.n_consumers, np.random.default_rng(cons_ss), k_max=ag.k_max
            ),
        )
        self.platform = _platform_from_params(params)
        self.state = MarketState(
            tick=0,
            q_h=0.0,
            q_l=0.0,
            pollution=0.0,
            verify_rate=0.0,
            precision=min(max(params.market.pi_base, 0.5), 1.0),
            trust=params.trust.initial,
            welfare=0.0,
        )
        self.cap_gen = 1.0
        self.cap_det = 1.0
        self.tax = self.policy.tax_l
        self.prev_ipi: float | None = None
        self.w_so, self.w_min = welfare_anchors(self.populations, params)

    def _weights(self, reading_dims: tuple[float, float, float, float]) -> tuple[float, ...]:
        ip = self.params.ipi
        if not ip.endogenous_weights:
            return (ip.w_pollution, ip.w_deadweight, ip.w_trust, ip.w_tech)
        ctx = WeightContext(self)
        weights, _fallback = endogenous_weights(ctx, ip.weight_perturbation)
        return weights

    def advance(self, overlay: "TickOverlay | None" = None) -> TickRow:
        """Run one full tick cycle and return its record row."""
        p = self.params
        ov = overlay or TickOverlay()
        r_eff = ov.ai_rental if ov.ai_rental is not None else p.econ.ai_rental

        # Capability stocks move first; cheap AI compounds generation.
        if ov.cap_gen_mult != 1.0:
            self.cap_gen *= ov.cap_gen_mult
        if r_eff < p.econ.ai_rental_baseline:
            self.cap_gen *= 1.0 + p.ipi.cap_gen_growth
        self.cap_det *= 1.0 + p.ipi.cap_det_growth

        # Adaptive levy (stage 7 of the previous tick's cycle).
        if self.policy.adaptive and self.prev_ipi is not None:
            self.tax = adaptive_tax(
                self.tax, self.prev_ipi, self.policy.ipi_target, self.policy.adaptive_eta
            )

        inputs = TickInputs(
            ai_rental=r_eff,
            gen_boost=self.cap_gen**p.ipi.kappa_gen,
            tax=self.tax,
            provenance_boost=self.policy.provenance_boost,
            fiduciary=self.policy.fiduciary,
            extra_q_l=ov.extra_q_l,
            trust_delta=ov.trust_delta,
        )
        posture = self.platform  # what producers and amplification saw this tick
        result = market_step(self.state, self.populations, self.platform, inputs, p)
        self.state = result.state
        self.platform = result.platform
        self._last_inputs = inputs
        self._last_result = result

        dims = (
            self.state.pollution,
            dim_deadweight(self.state.welfare, self.w_so, self.w_min),
            dim_trust_decay(self.state.trust, p.trust.t_max),
            dim_tech_risk(self.cap_gen, self.cap_det, p.ipi.mu_tech, p.ipi.sigma_tech),
        )
        reading = IpiReading.build(dims, self._weights(dims))
        self.prev_ipi = reading.composite
        return TickRow(
            tick=self.state.tick,
            q_h=self.state.q_h,
            q_l=self.state.q_l,
            pollution=self.state.pollution,
            verify_rate=self.state.verify_rate,
            precision=self.state.precision,
            trust=self.state.trust,
            welfare=self.state.welfare,
            i1=reading.i1,
            i2=reading.i2,
            i3=reading.i3,
            i4=reading.i4,
            ipi=reading.composite,
            tau=inputs.tax,
            gamma_h=posture.gamma_h,
            gamma_l=posture.gamma_l,
            m=posture.moderation,
            event=ov.event,
        )

    def run(self, ticks: int, shocks: Sequence[ShockEvent] = ()) -> RunRecord:
        overlays = build_overlays(ticks, shocks, self.params)
        rows = [self.advance(overlays[t]) for t in range(ticks)]
        meta = {
            "experiment": "run",
            "seed": str(self.master_seed),
            "config_hash": self.params.config_hash(),
            "version": __version__,
        }
        return RunRecord(rows=rows, metadata=meta)


@dataclass
class TickOverlay:
    """Exogenous per-tick conditions derived from the shock schedule."""

    ai_rental: float | None = None
    extra_q_l: float = 0.0
    trust_delta: float = 0.0
    cap_gen_mult: float = 1.0
    event: str = ""


def build_overlays(
    ticks: int, shocks: Sequence[ShockEvent], params: SimParams
) -> list[TickOverlay]:
    """Expand a shock schedule into per-tick overlays.

    All shocks are transient pulses of the configured duration: a cost drop
    scales the rental rate by (1 - magnitude) across the window, a
    capability jump multiplies the generation stock by (1 + magnitude) at
    entry and reverts at exit, a burst adds magnitude * n_producers of
    extra low-quality supply, and a trust shock subtracts its magnitude
    once at entry.  Zero magnitudes are valid no-ops.
    """
    overlays = [TickOverlay() for _ in range(ticks)]
    duration = params.shocks.duration
    for shock in shocks:
        if not 0 <= shock.tick < ticks:
            raise ConfigError(f"shock tick {shock.tick} outside horizon {ticks}")
        window = range(shock.tick, min(shock.tick + duration, ticks))
        entry = overlays[shock.tick]
        entry.event = shock.kind if not entry.event else f"{entry.event}+{shock.kind}"
        if shock.kind == "cost_drop":
            for t in window:
                overlays[t].ai_rental = params.econ.ai_rental * (1.0 - shock.magnitude)
        elif shock.kind == "capability_jump":
            entry.cap_gen_mult *= 1.0 + shock.magnitude
            exit_tick = shock.tick + duration
            if exit_tick < ticks:
                overlays[exit_tick].cap_gen_mult /= 1.0 + shock.magnitude
        elif shock.kind == "fake_news_burst":
            for t in window:
                overlays[t].extra_q_l += shock.magnitude * params.agents.n_producers
        elif shock.kind == "trust_shock":
            entry.trust_delta -= shock.magnitude
    return overlays


class WeightContext:
    """Welfare re-evaluation surface backing endogenous index weights.

    Perturbs, one driver at a time: the low-quality supply scale (pollution
    dimension), the welfare identity (deadweight, analytic), the trust stock
    (linear by construction), and the generation capability (through the
    low-quality cost channel).
    """

    def __init__(self, sim: Simulation):
        self.sim = sim

    def dimension_response(self, dim: int, eps: float) -> tuple[float, float]:
        sim = self.sim
        p = sim.params
        state = sim.state
        if dim == 1:
            span = sim.w_so - sim.w_min
            return -span * eps, eps
        if dim == 2:
            delta_t = -eps * p.trust.t_max
            return p.welfare.lambda_trust * delta_t, eps
        inputs = sim._last_inputs
        if dim == 0:
            (w, bumped_w), (rho, bumped_rho) = self._evaluate(
                np.array([state.q_h, state.q_h]),
                np.array([state.q_l, state.q_l * (1.0 + eps)]),
                inputs,
            )
            return bumped_w - w, bumped_rho - rho
        base_i4 = dim_tech_risk(sim.cap_gen, sim.cap_det, p.ipi.mu_tech, p.ipi.sigma_tech)
        new_i4 = dim_tech_risk(
            sim.cap_gen * (1.0 + eps), sim.cap_det, p.ipi.mu_tech, p.ipi.sigma_tech
        )
        boost = (sim.cap_gen * (1.0 + eps)) ** p.ipi.kappa_gen
        base, bumped = self._supply_welfare(inputs, (inputs.gen_boost, boost))
        return bumped - base, new_i4 - base_i4

    def _evaluate(
        self, q_h: np.ndarray, q_l: np.ndarray, inputs: TickInputs
    ) -> tuple[list[float], list[float]]:
        """(welfare, pollution) for each lane of outputs, re-solving verification."""
        sim = self.sim
        cleared = clear_market(
            q_h, q_l, Postures.of([sim.platform] * q_h.size), sim.populations, sim.params,
            inputs.provenance_boost,
        )
        w = cleared.welfare(sim.state.trust, sim._last_result.producer_profit, sim.params)
        return w.tolist(), cleared.pollution.tolist()

    def _supply_welfare(self, inputs: TickInputs, gen_boosts: Sequence[float]) -> list[float]:
        """Welfare after a full supply re-solve under each perturbed cost channel."""
        sim = self.sim
        cost_h_base, cost_l_base = _base_costs(sim.params, inputs.ai_rental)
        supply = supply_response(
            sim.populations.producers,
            Postures.of([sim.platform] * len(gen_boosts)),
            cost_h_base=cost_h_base,
            cost_l_base=cost_l_base,
            gen_boost=np.array(gen_boosts),
            tax=inputs.tax,
            extra_q_l=inputs.extra_q_l,
        )
        w, _rho = self._evaluate(supply.q_h, supply.q_l, inputs)
        profit = supply.producer_profit.tolist()
        return [wi + pi - sim._last_result.producer_profit for wi, pi in zip(w, profit)]


# -- statistics ---------------------------------------------------------------


def safe_corr(x: np.ndarray, y: np.ndarray) -> float | None:
    """Pearson correlation, or None when either series is constant."""
    if len(x) != len(y) or len(x) < 2:
        return None
    if float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def final_window(n_ticks: int) -> int:
    return max(20, n_ticks // 10) if n_ticks else 0


@dataclass(frozen=True)
class SummaryStats:
    n_ticks: int
    window: int
    final_means: dict[str, float]
    correlations: dict[str, float | None]
    flags: list[str]
    converged: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_ticks": self.n_ticks,
            "final_window": self.window,
            "final_means": self.final_means,
            "correlations": self.correlations,
            "flags": self.flags,
            "converged": self.converged,
        }


def summary_stats(record: RunRecord) -> SummaryStats:
    """Correlations over the full series plus final-window means.

    Undefined correlations (constant series) are flagged by name instead of
    propagating NaN.  Convergence means the index moved by less than 0.02
    per tick across the last 20 ticks.
    """
    n = len(record.rows)
    win = min(final_window(n), n)
    flags: list[str] = []
    ticks = [r.tick for r in record.rows]
    if any(b <= a for a, b in zip(ticks, ticks[1:])):
        flags.append("non_monotone_ticks")
    final_means = {}
    for col in ("welfare", "pollution", "ipi", "trust", "verify_rate", "q_h", "q_l"):
        series = record.column(col)
        final_means[col] = float(series[-win:].mean()) if n else math.nan
    correlations: dict[str, float | None] = {}
    for name, (a, b) in {
        "ipi_welfare": ("ipi", "welfare"),
        "pollution_welfare": ("pollution", "welfare"),
        "ipi_trust": ("ipi", "trust"),
    }.items():
        c = safe_corr(record.column(a), record.column(b)) if n else None
        if c is None:
            flags.append(f"correlation_undefined:{name}")
        correlations[name] = c
    converged = False
    if n >= 21:
        ipi = record.column("ipi")
        converged = bool(np.max(np.abs(np.diff(ipi[-21:]))) < 0.02)
    return SummaryStats(
        n_ticks=n,
        window=win,
        final_means=final_means,
        correlations=correlations,
        flags=flags,
        converged=converged,
    )


# -- persistence --------------------------------------------------------------


def _write_table(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def _finite_or_none(value: Any) -> Any:
    """`value` with every non-finite float (an undefined statistic) replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _write_outputs(
    cfg: ExperimentConfig,
    params: SimParams,
    record: RunRecord | None,
    report: dict[str, Any],
    text_lines: list[str],
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence[Any]]]] | None = None,
) -> None:
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = params.resolved_text() + (
        f"run.experiment = {cfg.experiment}\n"
        f"run.master_seed = {cfg.master_seed}\n"
        f"run.max_ticks = {cfg.max_ticks}\n"
        f"run.jobs = {cfg.jobs}\n"
    )
    (out / "config.txt").write_text(resolved, encoding="utf-8")
    if record is not None:
        record.write(out / "results" / "run.csv")
        ticks = record.column("tick")
        _write_table(
            out / "figures" / "ipi_vs_time.csv",
            ("tick", "ipi"),
            list(zip((int(t) for t in ticks), record.column("ipi"))),
        )
        _write_table(
            out / "figures" / "welfare_vs_time.csv",
            ("tick", "welfare"),
            list(zip((int(t) for t in ticks), record.column("welfare"))),
        )
    for name, (header, rows) in (tables or {}).items():
        _write_table(out / "results" / f"{name}.csv", header, rows)
    (out / "summary.json").write_text(
        json.dumps(_finite_or_none(report), indent=2, sort_keys=True, allow_nan=False,
                   default=str) + "\n",
        encoding="utf-8",
    )
    (out / "summary.txt").write_text("\n".join(text_lines) + "\n", encoding="utf-8")


# -- worlds -------------------------------------------------------------------


def _policy_from_params(params: SimParams) -> PolicyConfig:
    pp = params.policy
    return PolicyConfig(
        tax_l=pp.tax_init,
        fiduciary=pp.fiduciary,
        provenance_boost=pp.provenance_boost,
        adaptive_eta=pp.adaptive_eta if pp.adaptive_enabled else None,
        ipi_target=pp.adaptive_target if pp.adaptive_enabled else None,
    )


World = tuple[SimParams, PolicyConfig]


def _run_world(task: tuple[SimParams, PolicyConfig, int, int]) -> RunRecord | str:
    params, policy, master_seed, ticks = task
    try:
        return Simulation(params, policy, master_seed).run(ticks)
    except NoConvergence as exc:
        return f"NoConvergence: {exc}"


def run_worlds(
    worlds: Sequence[World], ticks: int, *, master_seed: int = 42, jobs: int = 1
) -> Iterator[RunRecord | str]:
    """Run every (params, policy) world to the horizon; yield outcomes in world order.

    Each world gets the same master seed, so the same population draw.  With
    ``jobs > 1`` the worlds run in one process pool; the outcomes come back in
    world order either way.  A world that fails to converge gives its
    ``NoConvergence`` message instead of a record.  Outcomes are yielded one
    at a time, so a caller that reduces each record holds one record, not all.
    """
    tasks = [(params, policy, master_seed, ticks) for params, policy in worlds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(_run_world, tasks)
    else:
        yield from map(_run_world, tasks)


def _records(cfg: ExperimentConfig, worlds: Sequence[World]) -> list[RunRecord]:
    """Run the worlds at cfg's horizon, seed and jobs; every world must converge."""
    outcomes = list(
        run_worlds(worlds, cfg.max_ticks, master_seed=cfg.master_seed, jobs=cfg.jobs)
    )
    failures = [f"world {i}: {o}" for i, o in enumerate(outcomes) if isinstance(o, str)]
    if failures:
        raise NoConvergence("; ".join(failures))
    return outcomes


# -- experiments --------------------------------------------------------------


def run(cfg: ExperimentConfig) -> RunRecord:
    """The baseline procedure: initialize, run the horizon, persist."""
    params = cfg.params()
    sim = Simulation(params, _policy_from_params(params), cfg.master_seed)
    record = sim.run(cfg.max_ticks)
    record.metadata["experiment"] = cfg.experiment
    stats = summary_stats(record)
    report = {"experiment": cfg.experiment, "stats": stats.to_dict(),
              "metadata": record.metadata}
    lines = [f"experiment: {cfg.experiment}", f"ticks: {stats.n_ticks}"]
    lines += [f"final {k}: {_fmt(v)}" for k, v in stats.final_means.items()]
    lines += [
        f"corr {k}: {'undefined' if v is None else _fmt(v)}"
        for k, v in stats.correlations.items()
    ]
    lines.append(f"converged: {stats.converged}")
    _write_outputs(cfg, params, record, report, lines)
    return record


def default_shocks(params: SimParams) -> list[ShockEvent]:
    s = params.shocks
    mags = {
        "cost_drop": s.cost_drop,
        "capability_jump": s.capability_jump,
        "fake_news_burst": s.fake_news_burst,
        "trust_shock": s.trust_shock,
    }
    # Late cost shock: the index baseline has settled by then, so the
    # pollution spike reads as a clean rise rather than riding the transient.
    order = ("trust_shock", "capability_jump", "fake_news_burst", "cost_drop")
    return [
        ShockEvent(tick=t, kind=kind, magnitude=mags[kind])
        for t, kind in zip(s.ticks, order)
    ]


@dataclass(frozen=True)
class ShockResponse:
    kind: str
    tick: int
    pre_mean: float
    peak: float
    rise_pct: float
    recovery_per_tick: float
    declining_ticks: int


def shock_stats(record: RunRecord, shocks: Sequence[ShockEvent]) -> list[ShockResponse]:
    """Peak index rise over the pre-shock mean and the post-peak decay rate."""
    ipi = record.column("ipi")
    out = []
    for shock in shocks:
        t = shock.tick
        pre = float(ipi[max(0, t - 5): t].mean()) if t else float(ipi[0])
        horizon = min(t + 10, len(ipi) - 1)
        peak_off = int(np.argmax(ipi[t: horizon + 1]))
        peak_t = t + peak_off
        peak = float(ipi[peak_t])
        post = ipi[peak_t: min(peak_t + 11, len(ipi))]
        rec_rate = float(-(np.diff(post)).mean()) if len(post) > 1 else 0.0
        declining = 0
        for d in np.diff(post):
            if d < 0:
                declining += 1
            else:
                break
        out.append(
            ShockResponse(
                kind=shock.kind,
                tick=t,
                pre_mean=pre,
                peak=peak,
                rise_pct=100.0 * (peak - pre) / pre if pre else math.inf,
                recovery_per_tick=rec_rate,
                declining_ticks=declining,
            )
        )
    return out


def run_shocks(
    cfg: ExperimentConfig, shocks: Sequence[ShockEvent] | None = None
) -> tuple[RunRecord, list[ShockResponse]]:
    params = cfg.params()
    shocks = list(shocks) if shocks is not None else default_shocks(params)
    sim = Simulation(params, _policy_from_params(params), cfg.master_seed)
    record = sim.run(cfg.max_ticks, shocks)
    record.metadata["experiment"] = cfg.experiment
    responses = shock_stats(record, shocks)
    mean_rise = float(np.mean([r.rise_pct for r in responses])) if responses else 0.0
    report = {
        "experiment": "shocks",
        "mean_rise_pct": mean_rise,
        "responses": [asdict(r) for r in responses],
        "stats": summary_stats(record).to_dict(),
    }
    lines = [f"shock response: mean IPI rise {mean_rise:.1f}%"]
    lines += [
        f"  {r.kind}@{r.tick}: +{r.rise_pct:.1f}% peak {r.peak:.3f} "
        f"recovery {r.recovery_per_tick:.4f}/tick ({r.declining_ticks} declining)"
        for r in responses
    ]
    _write_outputs(
        cfg, params, record, report, lines,
        tables={
            "shock_responses": (
                ("kind", "tick", "pre_mean", "peak", "rise_pct", "recovery_per_tick",
                 "declining_ticks"),
                [(r.kind, r.tick, r.pre_mean, r.peak, r.rise_pct, r.recovery_per_tick,
                  r.declining_ticks) for r in responses],
            )
        },
    )
    return record, responses


DEFAULT_WEIGHT_SETS: tuple[tuple[float, float, float, float], ...] = (
    FIXED_WEIGHTS,
    (0.25, 0.25, 0.25, 0.25),
    (0.55, 0.15, 0.15, 0.15),
    (0.15, 0.55, 0.15, 0.15),
    (0.15, 0.15, 0.55, 0.15),
    (0.15, 0.15, 0.15, 0.55),
)


def run_weight_sensitivity(
    cfg: ExperimentConfig,
    weight_sets: Sequence[tuple[float, float, float, float]] | None = None,
) -> dict[str, Any]:
    """Correlation of index and welfare under alternative weightings."""
    params = cfg.params()
    sets = list(weight_sets) if weight_sets is not None else list(DEFAULT_WEIGHT_SETS)
    keys = ("ipi.w_pollution", "ipi.w_deadweight", "ipi.w_trust", "ipi.w_tech")
    world_params = [params.with_overrides(dict(zip(keys, weights))) for weights in sets]
    records = _records(cfg, [(p_i, _policy_from_params(p_i)) for p_i in world_params])
    rows = []
    sign_flips = []
    for i, (weights, record) in enumerate(zip(sets, records)):
        corr = safe_corr(record.column("ipi"), record.column("welfare"))
        if corr is not None and corr > 0:
            sign_flips.append(i)
        rows.append((str(weights), corr if corr is not None else math.nan,
                     abs(corr) if corr is not None else math.nan))
    report = {
        "experiment": "weight_sensitivity",
        "weight_sets": [list(w) for w in sets],
        "correlations": [r[1] for r in rows],
        "abs_range": [min(r[2] for r in rows), max(r[2] for r in rows)],
        "sign_flips": sign_flips,
    }
    lines = ["weight sensitivity: corr(IPI, W) per weight set"]
    lines += [f"  {w}: {c:.4f}" for w, c, _ in rows]
    if sign_flips:
        lines.append(f"SIGN FLIP in sets {sign_flips}")
    _write_outputs(
        cfg, params, None, report, lines,
        tables={"weight_sensitivity": (("weights", "corr", "abs_corr"), rows)},
    )
    return report


def run_noise(
    cfg: ExperimentConfig, noise_levels: Sequence[float] | None = None, trials: int = 3
) -> dict[str, Any]:
    """Proxy-index measurement error and volatility under multiplicative noise.

    Dynamics are independent of measurement noise, so each trial seed runs
    the market once and synthesizes logs per noise level; the error is the
    mean absolute gap to the same trial's noise-free proxy index.
    """
    params = cfg.params()
    levels = list(noise_levels) if noise_levels is not None else [0.0, 0.05, 0.1, 0.2]
    weights = (params.ipi.w_pollution, params.ipi.w_deadweight,
               params.ipi.w_trust, params.ipi.w_tech)
    sim = Simulation(params, _policy_from_params(params), cfg.master_seed)
    states = []
    for _ in range(cfg.max_ticks):
        sim.advance()
        states.append((sim.state, sim.platform, sim.cap_gen, sim.cap_det))

    def proxy_series(noise: float, rng: np.random.Generator) -> np.ndarray:
        vals = []
        for state, platform, cap_gen, cap_det in states:
            log = synthesize_log(
                state, platform, rng, noise,
                cap_gen=cap_gen, cap_det=cap_det, params=params,
            )
            vals.append(proxy_composite(log, weights))
        return np.array(vals)

    rows = []
    for li, level in enumerate(levels):
        errors = []
        vols = []
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.master_seed, 11, li, trial])
            )
            noise_free = proxy_series(0.0, rng)
            noisy = proxy_series(level, rng)
            if len(noisy):  # an empty series has no error or volatility
                errors.append(float(np.mean(np.abs(noisy - noise_free))))
                vols.append(float(np.std(np.diff(noisy))) if len(noisy) > 1 else 0.0)
        rows.append((level, _mean_or_nan(errors), _mean_or_nan(vols)))
    report = {
        "experiment": "noise_robustness",
        "levels": levels,
        "errors": [r[1] for r in rows],
        "volatility": [r[2] for r in rows],
        "trials": trials,
    }
    lines = ["noise robustness (proxy IPI):"]
    lines += [f"  level {lv:.2f}: error {err:.5f}, volatility {vol:.5f}" for lv, err, vol in rows]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={"noise_robustness": (("level", "ipi_error", "volatility"), rows)},
    )
    return report


def _mean_or_nan(values: list[float]) -> float:
    """Mean of the values; NaN (written as null) when there are none."""
    return float(np.mean(values)) if values else math.nan


def run_event_detection(
    cfg: ExperimentConfig, burst_tick: int | None = None, magnitude: float | None = None
) -> dict[str, Any]:
    """Inject a fake-news burst and measure the index's early-warning value."""
    params = cfg.params()
    tick = burst_tick if burst_tick is not None else cfg.max_ticks // 2
    mag = magnitude if magnitude is not None else params.shocks.fake_news_burst
    shock = ShockEvent(tick=tick, kind="fake_news_burst", magnitude=mag)
    sim = Simulation(params, _policy_from_params(params), cfg.master_seed)
    record = sim.run(cfg.max_ticks, [shock])
    record.metadata["experiment"] = cfg.experiment
    (response,) = shock_stats(record, [shock])
    # Lead-lag around the event only; the run-level transient would swamp it.
    lo = max(0, tick - 10)
    hi = min(len(record.rows), tick + 30)
    ipi = record.column("ipi")[lo:hi]
    drop = -np.diff(record.column("welfare")[lo:hi])  # welfare decline per tick
    lags = {}
    for k in range(1, 11):
        c = safe_corr(ipi[: len(drop) - k + 1], drop[k - 1:])
        lags[k] = c if c is not None else math.nan
    finite = {k: v for k, v in lags.items() if not math.isnan(v)}
    # The index leads welfare damage by the window with the strongest
    # positive correlation between today's reading and the future drop.
    best_window = max(finite, key=lambda k: finite[k]) if finite else None
    report = {
        "experiment": "event_detection",
        "burst_tick": tick,
        "magnitude": mag,
        "peak_rise_pct": response.rise_pct,
        "recovery_per_tick": response.recovery_per_tick,
        "lead_lag_corr": lags,
        "best_window": best_window,
    }
    lines = [
        f"event detection: burst at tick {tick}, peak IPI rise {response.rise_pct:.1f}%",
        f"recovery {response.recovery_per_tick:.4f}/tick",
        f"best prediction window: {best_window} ticks "
        f"(corr {finite.get(best_window, math.nan):.3f})" if best_window else
        "best prediction window: undefined",
    ]
    _write_outputs(
        cfg, params, record, report, lines,
        tables={
            "lead_lag": (("window", "corr_ipi_future_welfare"),
                         [(k, v) for k, v in lags.items()])
        },
    )
    return report


DEFAULT_PLATFORM_PRESETS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("open", {}),
    ("moderated", {"platform.trust_price": 400.0}),
    ("premium", {"platform.revenue_share": 0.4, "agents.k_max": 3.0}),
    ("civic", {"platform.trust_price": 600.0, "agents.k_max": 2.0,
               "platform.gamma_max": 1.5}),
)


def run_cross_platform(
    cfg: ExperimentConfig,
    presets: Sequence[tuple[str, dict[str, Any]]] | None = None,
) -> dict[str, Any]:
    """Compare final outcomes across platform environments."""
    params = cfg.params()
    chosen = list(presets) if presets is not None else list(DEFAULT_PLATFORM_PRESETS)
    world_params = [params.with_overrides(overrides) for _, overrides in chosen]
    records = _records(cfg, [(p_i, _policy_from_params(p_i)) for p_i in world_params])
    rows = []
    for (name, _), record in zip(chosen, records):
        means = summary_stats(record).final_means
        rows.append((name, means["ipi"], means["welfare"], means["pollution"], means["trust"]))
    ipis = [r[1] for r in rows]
    report = {
        "experiment": "cross_platform",
        "presets": [name for name, _ in chosen],
        "rows": [
            {"preset": r[0], "ipi": r[1], "welfare": r[2], "pollution": r[3], "trust": r[4]}
            for r in rows
        ],
        "ipi_min": min(ipis),
        "ipi_max": max(ipis),
        "ipi_spread": max(ipis) - min(ipis),
    }
    lines = ["cross-platform comparison (final-window means):"]
    lines += [
        f"  {r[0]}: IPI {r[1]:.3f} welfare {r[2]:.2f} pollution {r[3]:.3f}" for r in rows
    ]
    lines.append(f"IPI spread: {report['ipi_spread']:.3f}")
    _write_outputs(
        cfg, params, None, report, lines,
        tables={
            "cross_platform": (("preset", "ipi", "welfare", "pollution", "trust"), rows)
        },
    )
    return report


DEFAULT_SWEEP_R = (0.6, 0.8, 1.0, 1.2, 1.4)
DEFAULT_SWEEP_SIGMA_L = (1.2, 1.4, 1.6, 1.8)


@dataclass(frozen=True)
class SweepReport:
    rows: list[dict[str, float]]  # r, sigma_l, welfare, pollution, ipi
    corr_r_welfare: float | None
    corr_r_pollution: float | None
    failures: list[str]


def sweep_cells(
    grid: Sequence[tuple[float, float]],
    base_params: SimParams,
    *,
    master_seed: int = 42,
    ticks: int = 120,
    jobs: int = 1,
) -> SweepReport:
    """Run every (rental rate, sigma_L) cell and correlate outcomes with r."""
    policy = _policy_from_params(base_params)
    worlds = [
        (base_params.with_overrides({"econ.ai_rental": r, "econ.sigma_l": sigma_l}), policy)
        for r, sigma_l in grid
    ]
    outcomes = run_worlds(worlds, ticks, master_seed=master_seed, jobs=jobs)
    rows = []
    failures = []
    for index, (outcome, (r, sigma_l)) in enumerate(zip(outcomes, grid)):
        if isinstance(outcome, str):
            failures.append(f"cell {index} (r={r}, sigma_l={sigma_l}): {outcome}")
            continue
        means = summary_stats(outcome).final_means
        rows.append({"r": r, "sigma_l": sigma_l,
                     **{k: means[k] for k in ("welfare", "pollution", "ipi")}})
    rs = np.array([row["r"] for row in rows])
    return SweepReport(
        rows=rows,
        corr_r_welfare=safe_corr(rs, np.array([row["welfare"] for row in rows])),
        corr_r_pollution=safe_corr(rs, np.array([row["pollution"] for row in rows])),
        failures=failures,
    )


def run_sweep(
    cfg: ExperimentConfig,
    r_values: Sequence[float] = DEFAULT_SWEEP_R,
    sigma_values: Sequence[float] = DEFAULT_SWEEP_SIGMA_L,
) -> SweepReport:
    params = cfg.params()
    grid = [(r, s) for r in r_values for s in sigma_values]
    report = sweep_cells(
        grid, params, master_seed=cfg.master_seed, ticks=cfg.max_ticks, jobs=cfg.jobs
    )
    if report.failures:
        raise NoConvergence("; ".join(report.failures))
    by_r: dict[float, list[float]] = {}
    for row in report.rows:
        by_r.setdefault(row["r"], []).append(row["pollution"])
    pollution_vs_r = [(r, float(np.mean(v))) for r, v in sorted(by_r.items())]
    doc = {
        "experiment": "sweep",
        "corr_r_welfare": report.corr_r_welfare,
        "corr_r_pollution": report.corr_r_pollution,
        "rows": report.rows,
        "pollution_by_r": pollution_vs_r,
    }
    lines = [
        "parameter sweep (final-window means):",
        f"corr(r, welfare) = {report.corr_r_welfare:.3f}",
        f"corr(r, pollution) = {report.corr_r_pollution:.3f}",
    ]
    lines += [f"  r={r:.1f}: mean pollution {p:.3f}" for r, p in pollution_vs_r]
    _write_outputs(
        cfg, params, None, doc, lines,
        tables={
            "sweep": (
                ("r", "sigma_l", "welfare", "pollution", "ipi"),
                [(row["r"], row["sigma_l"], row["welfare"], row["pollution"], row["ipi"])
                 for row in report.rows],
            )
        },
    )
    if cfg.out_dir is not None:
        _write_table(
            Path(cfg.out_dir) / "figures" / "pollution_vs_r.csv",
            ("r", "pollution"), pollution_vs_r,
        )
    return report


def run_policy_comparison(cfg: ExperimentConfig) -> dict[str, Any]:
    """Run the six intervention scenarios on a shared seed and compare."""
    params = cfg.params()
    specs = [scenario_config(scenario) for scenario in SCENARIOS]
    records = _records(
        cfg, [(params.with_overrides(spec.overrides), spec.policy) for spec in specs]
    )
    rows = []
    for scenario, spec, record in zip(SCENARIOS, specs, records):
        means = summary_stats(record).final_means
        rows.append({"scenario": scenario, "note": spec.note,
                     **{k: means[k] for k in ("welfare", "pollution", "ipi", "trust")}})
    base = rows[0]
    for row in rows:
        row["welfare_delta"] = row["welfare"] - base["welfare"]
        row["pollution_delta"] = row["pollution"] - base["pollution"]
    report = {"experiment": "policy_comparison", "rows": rows}
    lines = ["policy comparison (final-window means, deltas vs baseline):"]
    lines += [
        f"  {r['scenario']:<11} W {r['welfare']:8.2f} ({r['welfare_delta']:+.2f})  "
        f"pollution {r['pollution']:.3f} ({r['pollution_delta']:+.3f})  "
        f"IPI {r['ipi']:.3f}  trust {r['trust']:.3f}"
        for r in rows
    ]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={
            "policy_comparison": (
                ("scenario", "welfare", "pollution", "ipi", "trust",
                 "welfare_delta", "pollution_delta", "note"),
                [(r["scenario"], r["welfare"], r["pollution"], r["ipi"], r["trust"],
                  r["welfare_delta"], r["pollution_delta"], r["note"]) for r in rows],
            )
        },
    )
    return report


def robust_select(
    policies: Sequence[PolicyConfig],
    worlds: Sequence[dict[str, Any]],
    horizon: int,
    *,
    base_params: SimParams | None = None,
    master_seed: int = 42,
    jobs: int = 1,
) -> RobustSelection:
    """Run every (policy, world) cell for the horizon and pick by max-min.

    The cells run policy-major through `run_worlds`; `policy.max_min_select`
    applies the rule to their final-window welfare and index.
    """
    if not policies or not worlds:
        raise ValueError("policies and worlds must be nonempty")
    base = base_params or SimParams()
    params = [base.with_overrides(world) for world in worlds]
    outcomes = run_worlds(
        [(p, policy) for policy in policies for p in params],
        horizon, master_seed=master_seed, jobs=jobs,
    )
    n_w = len(worlds)
    welfare = [[math.nan] * n_w for _ in policies]
    ipi = [[math.nan] * n_w for _ in policies]
    failures = []
    for idx, outcome in enumerate(outcomes):
        pi, wi = divmod(idx, n_w)
        if isinstance(outcome, str):
            failures.append((pi, wi))
        else:
            means = summary_stats(outcome).final_means
            welfare[pi][wi] = means["welfare"]
            ipi[pi][wi] = means["ipi"]
    return max_min_select(policies, welfare, ipi, failures)


DEFAULT_ROBUST_WORLDS: tuple[dict[str, Any], ...] = (
    {"econ.ai_rental": 0.8},
    {"econ.ai_rental": 1.2, "econ.sigma_l": 1.7},
)


def run_robust_select(
    cfg: ExperimentConfig,
    policies: Sequence[PolicyConfig] | None = None,
    worlds: Sequence[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    params = cfg.params()
    chosen_policies = (
        list(policies)
        if policies is not None
        else [
            PolicyConfig(scenario="baseline"),
            PolicyConfig(scenario="levy", tax_l=0.5),
            PolicyConfig(
                scenario="adaptive", adaptive_eta=params.policy.adaptive_eta,
                ipi_target=params.policy.adaptive_target,
            ),
        ]
    )
    chosen_worlds = list(worlds) if worlds is not None else list(DEFAULT_ROBUST_WORLDS)
    selection = robust_select(
        chosen_policies, chosen_worlds, cfg.max_ticks,
        base_params=params, master_seed=cfg.master_seed, jobs=cfg.jobs,
    )
    report = {
        "experiment": "robust_select",
        "selected_index": selection.selected_index,
        "selected_scenario": selection.selected.scenario,
        "welfare_matrix": [list(r) for r in selection.welfare_matrix],
        "ipi_matrix": [list(r) for r in selection.ipi_matrix],
        "failures": [list(f) for f in selection.failures],
    }
    lines = [
        f"robust selection: policy {selection.selected_index} "
        f"({selection.selected.scenario})",
        "welfare matrix (policies x worlds):",
    ]
    lines += ["  " + "  ".join(f"{w:9.2f}" for w in row) for row in selection.welfare_matrix]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={
            "robust_select": (
                ("policy", "scenario") + tuple(f"world_{i}" for i in range(len(chosen_worlds))),
                [(i, chosen_policies[i].scenario) + tuple(selection.welfare_matrix[i])
                 for i in range(len(chosen_policies))],
            )
        },
    )
    return report


# Experiment id -> (procedure, default horizon in ticks).
EXPERIMENTS: dict[str, tuple[Callable[[ExperimentConfig], Any], int]] = {
    "baseline": (run, 150),
    "shocks": (run_shocks, 150),
    "weight_sensitivity": (run_weight_sensitivity, 100),
    "noise_robustness": (run_noise, 150),
    "event_detection": (run_event_detection, 150),
    "cross_platform": (run_cross_platform, 120),
    "sweep": (run_sweep, 120),
    "policy_comparison": (run_policy_comparison, 150),
    "robust_select": (run_robust_select, 100),
}


def run_experiment(cfg: ExperimentConfig) -> Any:
    """Run one experiment by id."""
    procedure, _ticks = EXPERIMENTS[cfg.experiment]
    return procedure(cfg)


def load_overrides(config_path: str | Path | None, cli_pairs: dict[str, str]) -> dict[str, Any]:
    """Merge file and CLI overrides (CLI wins) and validate against the schema."""
    overrides: dict[str, Any] = {}
    if config_path is not None:
        overrides.update(parse_config_file(config_path))
    overrides.update(cli_pairs)
    run_keys = {k: v for k, v in overrides.items() if k.startswith("run.")}
    sim_keys = {k: v for k, v in overrides.items() if not k.startswith("run.")}
    SimParams().with_overrides(sim_keys)  # validate early
    allowed_run = {"run.experiment", "run.master_seed", "run.max_ticks", "run.jobs"}
    for key in run_keys:
        if key not in allowed_run:
            raise ConfigError(f"unknown config key: {key!r}")
    return overrides
