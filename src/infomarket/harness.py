"""Experiment orchestration: the simulation loop, the world runner, the nine
experiment procedures, persistence, and summary statistics.

Every experiment is deterministic in (configuration, master seed): random
streams are derived from the master seed by a fixed splitting rule
(SeedSequence children: producer draws, consumer draws, then per-purpose
streams keyed by small integer tags), and the parent writes every file,
with floats in a fixed format.  A world is one `SimParams`, whose
``policy`` section holds its instruments; a multi-world experiment is a
list of worlds, each the run's parameters under labeled overrides, whose
records come back to the parent in world order, however many processes
ran them.  A world's exogenous path (rental rate, cost bases, capability
stocks, generation boost, the index's i4, shocks) is computed before its
first tick (`build_overlays`); the adaptive levy is the only tick input
the market moves.  One step (`_step`) makes the
only `market_step` call: worlds that share their populations and every
parameter the clearing reads advance through it in lockstep (`run_worlds`,
which runs every experiment), and a world driven tick by tick advances
through it as a batch of one (`Simulation.advance`); a world with
endogenous index weights clears their lanes in that call's one lane
table, and a world's record does not depend on its batch.  A tick's
outcomes exist once, as its record row (`TickRow`): the step builds it
from `market_step`'s columns, and the world carries it to the next tick as
``Simulation.state``, from which the next levy and the trust step read.
A world's record (`RunRecord`) is its columns, one array per CSV column,
built once when its batch ends; the statistics and the writers index the
arrays, and one formatter (`_csv_text`) writes every CSV file.  Output
layout per experiment::

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
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .agents import Postures, draw_consumers, draw_producers
from .config import SCHEDULED_SHOCKS, SimParams, _coerce, parse_config_file
from .errors import ConfigError, NoConvergence
from .ipi import (
    FIXED_WEIGHTS,
    composite,
    dim_deadweight,
    dim_tech_risk,
    dim_trust_decay,
    endogenous_weights,
    is_flat,
    proxy_composite,
    synthesize_log,
)
from .market import (
    Populations,
    TickOverlay,
    _base_costs,
    market_step,
    signal_precision,
    welfare_anchors,
)
from .policy import PolicyConfig, RobustSelection, adaptive_tax, max_min_select

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


# The ``run.*`` keys: what a config file may set and config.txt records.
RUN_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                 if f.name not in ("out_dir", "overrides"))


# Not frozen: a frozen row costs four times as much to build, once per world
# and tick, and the step fills in the index reading once its weights are known.
@dataclass(slots=True)
class TickRow:
    """One tick of a world's record, and what the world carries to the next tick."""

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


# A record's columns, in file order: a tick's fields.
CSV_COLUMNS = tuple(f.name for f in fields(TickRow))
_ROW_VALUES = attrgetter(*CSV_COLUMNS)
_KINDS = {"tick": int, "event": str}  # every other column is float


@dataclass
class RunRecord:
    """A world's time series, one array per `CSV_COLUMNS` entry (``tick`` as
    ints, ``event`` as strings, the rest floats)."""

    columns: dict[str, np.ndarray]

    @classmethod
    def of(cls, rows: Sequence[TickRow]) -> "RunRecord":
        """The record of a world's rows: their transpose."""
        columns = list(zip(*map(_ROW_VALUES, rows))) or [()] * len(CSV_COLUMNS)
        return cls({c: np.array(v, dtype=_KINDS.get(c, float))
                    for c, v in zip(CSV_COLUMNS, columns)})

    def __len__(self) -> int:
        return len(self.columns["tick"])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def _csv_rows(self) -> Iterable[tuple[Any, ...]]:
        return zip(*(self.columns[c].tolist() for c in CSV_COLUMNS))

    @classmethod
    def from_csv(cls, path: Path) -> "RunRecord":
        """Read a written record; a file that is not one is a configuration
        error naming the file, and the line and column where it fails (a
        header other than `CSV_COLUMNS` in order, or a row with a missing or
        an extra cell, the line).  A
        written record holds finite floats only (`_step` rejects a non-finite
        welfare, and every other column is bounded), so an inf or NaN cell
        fails too."""
        cells: dict[str, list[Any]] = {c: [] for c in CSV_COLUMNS}
        try:
            with open(path, newline="", encoding="utf-8") as f:
                reader = csv.DictReader(f)
                for name in CSV_COLUMNS:
                    if name not in (reader.fieldnames or ()):
                        raise ConfigError(f"{path}, line 1: the header has no column {name!r}")
                if tuple(reader.fieldnames) != CSV_COLUMNS:
                    raise ConfigError(f"{path}, line 1: the header is not {','.join(CSV_COLUMNS)}")
                for rec in reader:
                    for name, values in cells.items():
                        kind = _KINDS.get(name, float)
                        try:
                            value = kind(rec[name])
                        except (TypeError, ValueError):  # a short row's cells are None
                            value = None
                        if value is None or kind is float and not math.isfinite(value):
                            raise ConfigError(
                                f"{path}, line {reader.line_num}, column {name!r}: {rec[name]!r} "
                                f"is not {'an int' if kind is int else 'a finite float'}"
                            )
                        values.append(value)
                    # A row short of its event cell alone reads str(None) there.
                    if None in rec or None in rec.values():
                        raise ConfigError(f"{path}, line {reader.line_num}: the row has "
                                          f"{'more' if None in rec else 'fewer'} cells than "
                                          "the header")
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(
                f"{path}: not a readable run record: {getattr(exc, 'strerror', None) or exc}"
            ) from None
        return cls({c: np.array(v, dtype=_KINDS.get(c, float)) for c, v in cells.items()})


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
    """Owns one run: populations, welfare anchors, and what a world carries
    between ticks.

    Between ticks a world is three things: ``state``, its last record row
    (before tick 1, a tick-0 row with the initial trust, the levy
    ``policy.tax_init`` and the initial posture, whose index readings are
    NaN); ``platform``, the posture it posts next; and ``last_overlay``,
    its last exogenous row.  Strictly sequential and deterministic;
    independent runs get their own instances.  The instruments are
    ``params.policy``; an explicit ``policy`` replaces that section, so
    ``params`` describes the world that runs.
    """

    def __init__(
        self, params: SimParams, policy: PolicyConfig | None = None, master_seed: int = 42
    ):
        if policy is not None:
            # Without both eta and target the rule is off, and the section
            # keeps its own (unread) ones.  The section checks every value.
            adaptive = policy.adaptive_eta is not None and policy.ipi_target is not None
            rule = ({"adaptive_eta": policy.adaptive_eta, "adaptive_target": policy.ipi_target}
                    if adaptive else {})
            params = replace(params, policy=replace(
                params.policy, tax_init=policy.tax_l, fiduciary=policy.fiduciary,
                provenance_boost=policy.provenance_boost, adaptive_enabled=adaptive, **rule,
            ))
        self.params = params
        prod_ss, cons_ss = np.random.SeedSequence(master_seed).spawn(2)
        ag = params.agents
        self.populations = Populations(
            producers=draw_producers(
                ag.n_producers, np.random.default_rng(prod_ss), mean_prod_h=ag.mean_prod_h,
                mean_prod_l=ag.mean_prod_l, log_sd=ag.prod_log_sd, rationality=ag.rationality,
            ),
            consumers=draw_consumers(ag.n_consumers, np.random.default_rng(cons_ss),
                                     k_max=ag.k_max),
        )
        pf = params.platform
        self.platform = Postures(pf.gamma_init, pf.gamma_init, pf.moderation_init)
        nan = math.nan
        self.state = TickRow(
            0, 0.0, 0.0, 0.0, 0.0, signal_precision(0.0, 0.0, 0.0, params.market),
            params.trust.initial, 0.0, nan, nan, nan, nan, nan, params.policy.tax_init,
            pf.gamma_init, pf.gamma_init, pf.moderation_init,
        )
        self.last_overlay: TickOverlay | None = None
        self.w_so, self.w_min = welfare_anchors(self.populations, params)

    def advance(self, overlay: TickOverlay | None = None) -> TickRow:
        """Run one tick under its exogenous row and return its record row,
        which becomes ``state``.

        Without a row the tick is unscheduled: its row follows the last one
        this world ran, with no shock.
        """
        if overlay is None:
            overlay = _next_overlay(self.last_overlay, self.params, self.state.tick + 1)
        (row,) = _step([self], [overlay])
        if isinstance(row, NoConvergence):
            raise row
        return row

    def _levy(self) -> float:
        """The next tick's levy: after tick 0 the adaptive levy moves on the
        last row's levy and index reading (stage 7 of that tick's cycle).
        A levy that overflows is a configuration error naming the rule's keys."""
        s, pp = self.state, self.params.policy
        if not (pp.adaptive_enabled and s.tick > 0):
            return s.tau
        tax = adaptive_tax(s.tau, s.ipi, pp.adaptive_target, pp.adaptive_eta)
        if tax == math.inf:
            raise ConfigError(
                f"the adaptive levy overflows at tick {s.tick + 1}: policy.adaptive_eta = "
                f"{pp.adaptive_eta!r} over policy.adaptive_target = {pp.adaptive_target!r} "
                "scales the index's distance from its target past the floats"
            )
        return tax

    def _row(self, ov: TickOverlay, tau: float, outcome: Sequence[float],
             weighed: tuple[float, float, float] | None) -> TickRow:
        """The next tick's record row from this world's market outcome (q_h
        through welfare, in `market_step`'s column order): the index reads
        the row, with weights from it and from its weight lanes ``weighed``
        (`weight_responses`) when they are endogenous."""
        ip = self.params.ipi
        posted = self.platform  # what producers and amplification saw this tick
        _q_h, _q_l, pollution, _v, _pi, trust, welfare = outcome
        dims = (
            pollution,
            dim_deadweight(welfare, self.w_so, self.w_min),
            dim_trust_decay(trust, self.params.trust.t_max),
            ov.i4,
        )
        row = TickRow(self.state.tick + 1, *outcome, *dims, math.nan, tau, posted.gamma_h,
                      posted.gamma_l, posted.moderation, ov.event)
        weights = ip.weights
        if ip.endogenous_weights:
            weights, _fallback = endogenous_weights(weight_responses(self, ov, row, weighed))
        row.ipi = composite(dims, weights)
        return row


def _step(
    sims: Sequence[Simulation], overlays: Sequence[TickOverlay]
) -> list[TickRow | NoConvergence]:
    """Run one tick of worlds that share a batch key, each under its own
    exogenous row: one `market_step` clears them all, with the weight lanes
    of every world whose index weights are endogenous (`_weight_step`) in
    its one lane table, and each world adopts its record row, its stepped
    posture and its exogenous row.

    When some lane's fixed point misses ``market.fp_tol``, each world steps
    alone: it gets its record row, or in its place the NoConvergence it
    raises alone, and then does not advance.  A world's row does not depend
    on its batch.  A stepped generation boost that overflows, or a
    non-finite welfare, is a configuration error.
    """
    taxes = [sim._levy() for sim in sims]
    first = sims[0]
    try:
        columns, weighed, stepped = market_step(
            [sim.state.trust for sim in sims], first.populations,
            [sim.platform for sim in sims], overlays, taxes,
            [_weight_step(sim, overlay) for sim, overlay in zip(sims, overlays)], first.params,
        )
    except NoConvergence as exc:
        if len(sims) == 1:
            return [exc]
        return [row for sim, overlay in zip(sims, overlays) for row in _step([sim], [overlay])]
    for welfare in columns[6]:
        if not math.isfinite(welfare):
            raise ConfigError(
                f"welfare is {welfare} at tick {first.state.tick + 1}: the tick's outputs, "
                "or the welfare section's coefficients that weigh them, overflow"
            )
    for welfare in (w for scaled, _, shifted in weighed.values() for w in (scaled, shifted)):
        if not math.isfinite(welfare):
            raise ConfigError(
                f"a weight lane's welfare is {welfare} at tick {first.state.tick + 1}: "
                "ipi.weight_perturbation steps the index drivers (ipi.endogenous_weights) "
                "past what the welfare section's coefficients can weigh"
            )
    rows = []
    for world, (sim, overlay, tax, platform, *outcome) in enumerate(
            zip(sims, overlays, taxes, stepped, *columns)):
        row = sim._row(overlay, tax, outcome, weighed.get(world))
        sim.state, sim.platform, sim.last_overlay = row, platform, overlay
        rows.append(row)
    return rows


def build_overlays(
    ticks: int, shocks: Sequence[ShockEvent], params: SimParams
) -> list[TickOverlay]:
    """Each tick's exogenous row over the horizon under a shock schedule.

    All shocks are transient pulses of the configured duration: a cost drop
    scales the rental rate by (1 - magnitude) across the window, a
    capability jump multiplies the generation stock by (1 + magnitude) at
    entry and reverts at exit, a burst adds magnitude * n_producers of
    extra low-quality supply, and a trust shock subtracts its magnitude
    once at entry.  Zero magnitudes are valid no-ops.  Each row follows the
    one before through `_next_overlay`, so a path that leaves the floats
    fails here, before any tick runs.
    """
    shocked = [dict(jump=1.0, ai_rental=None, extra_q_l=0.0, trust_delta=0.0, event="")
               for _ in range(ticks)]
    duration = params.shocks.duration
    for shock in shocks:
        if not 0 <= shock.tick < ticks:
            raise ConfigError(f"shock tick {shock.tick} outside horizon {ticks}")
        window = range(shock.tick, min(shock.tick + duration, ticks))
        entry = shocked[shock.tick]
        entry["event"] = shock.kind if not entry["event"] else f"{entry['event']}+{shock.kind}"
        if shock.kind == "cost_drop":
            for t in window:
                shocked[t]["ai_rental"] = params.econ.ai_rental * (1.0 - shock.magnitude)
        elif shock.kind == "capability_jump":
            entry["jump"] *= 1.0 + shock.magnitude
            if shock.tick + duration < ticks:
                shocked[shock.tick + duration]["jump"] /= 1.0 + shock.magnitude
        elif shock.kind == "fake_news_burst":
            for t in window:
                shocked[t]["extra_q_l"] += shock.magnitude * params.agents.n_producers
                if not math.isfinite(shocked[t]["extra_q_l"]):
                    raise ConfigError(f"shocks.fake_news_burst = {shock.magnitude!r} overflows "
                                      f"the burst's supply magnitude * n_producers at tick {t + 1}")
        elif shock.kind == "trust_shock":
            entry["trust_delta"] -= shock.magnitude
    overlays: list[TickOverlay] = []
    for t, conditions in enumerate(shocked):
        overlays.append(_next_overlay(overlays[-1] if overlays else None, params, t + 1,
                                      **conditions))
    return overlays


def _next_overlay(
    prev: TickOverlay | None, params: SimParams, tick: int, *, jump: float = 1.0,
    ai_rental: float | None = None, extra_q_l: float = 0.0, trust_delta: float = 0.0,
    event: str = "",
) -> TickOverlay:
    """The exogenous row of ``tick``, which follows ``prev`` (None before
    tick 1), under the tick's composed capability jump and shocks; stocks
    that leave the finite positive floats are a configuration error."""
    e, ip = params.econ, params.ipi
    rate = e.ai_rental if ai_rental is None else ai_rental
    cap_gen, cap_det = (1.0, 1.0) if prev is None else (prev.cap_gen, prev.cap_det)
    # Capability stocks move first; cheap AI compounds generation.
    cap_gen *= jump
    if rate < e.ai_rental_baseline:
        cap_gen *= 1.0 + ip.cap_gen_growth
    cap_det *= 1.0 + ip.cap_det_growth
    if not (0.0 < cap_gen < math.inf and 0.0 < cap_det < math.inf and cap_gen / cap_det > 0.0):
        raise ConfigError(
            f"ipi.cap_gen_growth = {ip.cap_gen_growth!r} and ipi.cap_det_growth = "
            f"{ip.cap_det_growth!r} take the capability stocks to cap_gen = {cap_gen!r}, "
            f"cap_det = {cap_det!r} at tick {tick}; they and their ratio must stay finite "
            "and positive"
        )
    # The cost bases change only with the rental rate.
    if prev is not None and prev.ai_rental == rate:
        cost_h, cost_l = prev.cost_h_base, prev.cost_l_base
    else:
        cost_h, cost_l = _base_costs(params, rate)
    return TickOverlay(
        rate, cost_h, cost_l, cap_gen, cap_det, _gen_boost(cap_gen, params, tick),
        dim_tech_risk(cap_gen, cap_det, ip.mu_tech, ip.sigma_tech), extra_q_l, trust_delta, event,
    )


def _gen_boost(cap_gen: float, params: SimParams, tick: int) -> float:
    """The factor ``cap_gen ** kappa_gen`` by which generation capability
    cheapens low-quality templates; an overflow, or an underflow to 0 (which
    would make the low-quality unit cost inf), is a configuration error."""
    try:
        boost = cap_gen**params.ipi.kappa_gen
    except OverflowError:
        boost = math.inf
    if 0.0 < boost < math.inf:
        return boost
    raise ConfigError(
        f"ipi.kappa_gen = {params.ipi.kappa_gen!r} "
        f"{'overflows' if boost else 'underflows to 0'} the generation boost "
        f"cap_gen ** kappa_gen at tick {tick} (cap_gen = {cap_gen!r})"
    )


def _analytic_responses(sim: Simulation) -> list[tuple[float, float]]:
    """The deadweight (i2) and trust (i3) dimensions' (delta_welfare,
    delta_dimension) under the relative step ``ipi.weight_perturbation``."""
    p = sim.params
    eps = p.ipi.weight_perturbation
    return [(-(sim.w_so - sim.w_min) * eps, eps),
            (p.welfare.lambda_trust * (-eps * p.trust.t_max), eps)]


def _weight_step(sim: Simulation, overlay: TickOverlay) -> tuple[float, float] | None:
    """The world's weight step for its next tick under ``overlay``: the
    relative step ``eps`` and the generation boost at the capability stock
    stepped by it; None when its index weights are fixed, or when a flat
    analytic response makes them fall back whatever the others are."""
    ip = sim.params.ipi
    if not ip.endogenous_weights or any(is_flat(*r) for r in _analytic_responses(sim)):
        return None
    eps = ip.weight_perturbation
    return eps, _gen_boost(overlay.cap_gen * (1.0 + eps), sim.params, sim.state.tick + 1)


def weight_responses(
    sim: Simulation, overlay: TickOverlay, row: TickRow, weighed: tuple[float, float, float] | None
) -> list[tuple[float, float]]:
    """Each index dimension's (delta_welfare, delta_dimension) under a relative
    step ``ipi.weight_perturbation`` in its driver, around the tick ``row``
    of ``sim`` under the exogenous row ``overlay``; its index readings are
    not read.

    The deadweight (i2) and trust (i3) responses are analytic.  The
    pollution driver (i1) is the low-quality output scale; the technology
    driver (i4) is the generation capability, through the low-quality cost
    channel and a supply re-solve.  Both step from the tick's own welfare
    and pollution: ``weighed`` is what `market_step` cleared for them in
    the tick's lane table under its posted posture, the scaled lane's
    welfare and pollution and the stepped-supply lane's welfare.  None is
    the fallback `_weight_step` settled on a flat analytic response: the
    tick cleared no weight lane, and i1 and i4 read (0.0, 0.0).
    """
    deadweight, trust = _analytic_responses(sim)
    if weighed is None:
        return [(0.0, 0.0), deadweight, trust, (0.0, 0.0)]
    scaled, scaled_pollution, stepped = weighed
    ip = sim.params.ipi
    stepped_i4 = dim_tech_risk(overlay.cap_gen * (1.0 + ip.weight_perturbation), overlay.cap_det,
                               ip.mu_tech, ip.sigma_tech)
    return [(scaled - row.welfare, scaled_pollution - row.pollution),
            deadweight, trust, (stepped - row.welfare, stepped_i4 - overlay.i4)]


# -- statistics ---------------------------------------------------------------


def safe_corr(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation, or NaN when it is undefined: series of
    different lengths or shorter than two, or either constant or holding NaN.

    Finite series whose squares overflow are correlated after dividing each
    by its largest magnitude, which leaves the correlation unchanged.
    """
    if len(x) != len(y) or len(x) < 2:
        return math.nan
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _corr(x, y)
    except FloatingPointError:
        return _corr(x / (np.max(np.abs(x)) or 1.0), y / (np.max(np.abs(y)) or 1.0))


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    # A constant series, or one that holds NaN, has no positive spread.
    if not (np.std(x) > 0.0 and np.std(y) > 0.0):
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


def _mean(x: Sequence[float] | np.ndarray) -> float:
    """The mean of a series, NaN (written as null) over an empty one; finite
    values whose sum overflows are averaged after dividing by their largest
    magnitude, as `safe_corr` does."""
    x = np.asarray(x, dtype=float)
    if not len(x):
        return math.nan
    try:
        with np.errstate(over="raise"):
            return float(x.mean())
    except FloatingPointError:
        scale = np.max(np.abs(x))
        return float((x / scale).mean() * scale)


def final_window(n_ticks: int) -> int:
    return max(20, n_ticks // 10) if n_ticks else 0


@dataclass(frozen=True)
class SummaryStats:
    n_ticks: int
    final_window: int
    final_means: dict[str, float]
    correlations: dict[str, float]
    flags: list[str]
    converged: bool


def summary_stats(record: RunRecord) -> SummaryStats:
    """Correlations over the full series plus final-window means.

    Undefined correlations (NaN: constant series) are also flagged by name.
    Convergence means the index moved by less than 0.02 per tick across the
    last 20 ticks.
    """
    n = len(record)
    win = min(final_window(n), n)
    flags: list[str] = []
    if (np.diff(record.column("tick")) <= 0).any():
        flags.append("non_monotone_ticks")
    final_means = {}
    for col in ("welfare", "pollution", "ipi", "trust", "verify_rate", "q_h", "q_l"):
        final_means[col] = _mean(record.column(col)[-win:])
    correlations = {}
    for name, (a, b) in {
        "ipi_welfare": ("ipi", "welfare"),
        "pollution_welfare": ("pollution", "welfare"),
        "ipi_trust": ("ipi", "trust"),
    }.items():
        c = safe_corr(record.column(a), record.column(b))
        if math.isnan(c):
            flags.append(f"correlation_undefined:{name}")
        correlations[name] = c
    converged = False
    if n >= 21:
        ipi = record.column("ipi")
        converged = bool(np.max(np.abs(np.diff(ipi[-21:]))) < 0.02)
    return SummaryStats(
        n_ticks=n,
        final_window=win,
        final_means=final_means,
        correlations=correlations,
        flags=flags,
        converged=converged,
    )


# -- persistence --------------------------------------------------------------


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Every CSV file's text: a header, then one line per row, floats exact."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _finite_or_none(value: Any) -> Any:
    """`value` with every non-finite float (an undefined statistic) replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def _json_text(value: Any) -> str:
    """The text of summary.json and of `report`: keys sorted, every
    undefined statistic (a non-finite float) null."""
    return json.dumps(_finite_or_none(value), indent=2, sort_keys=True, allow_nan=False,
                      default=str) + "\n"


def _write_outputs(
    cfg: ExperimentConfig,
    params: SimParams,
    record: RunRecord | None,
    report: dict[str, Any],
    text_lines: list[str],
    tables: dict[str, tuple[Sequence[str], Iterable[Sequence[Any]]]] | None = None,
) -> None:
    """Write the run's directory; ``tables`` maps each further CSV file's
    path under it to its header and rows.  summary.json names the run's
    experiment, as config.txt does.  A directory that cannot be written is
    a configuration error naming the path."""
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    texts = {"config.txt": params.resolved_text() + "".join(
        f"run.{key} = {getattr(cfg, key)}\n" for key in RUN_KEYS)}
    if record is not None:
        ticks = record.column("tick").tolist()
        texts["results/run.csv"] = _csv_text(CSV_COLUMNS, record._csv_rows())
        for name in ("ipi", "welfare"):
            texts[f"figures/{name}_vs_time.csv"] = _csv_text(
                ("tick", name), zip(ticks, record.column(name).tolist()))
    for name, (header, rows) in (tables or {}).items():
        texts[name] = _csv_text(header, rows)
    texts["summary.json"] = _json_text({"experiment": cfg.experiment} | report)
    texts["summary.txt"] = "\n".join(text_lines) + "\n"
    try:
        for folder in dict.fromkeys((out / name).parent for name in texts):
            folder.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            f"{exc.filename or out}: cannot write the run's outputs: {exc.strerror or exc}"
        ) from None


# -- worlds -------------------------------------------------------------------


def _batch_key(params: SimParams) -> str:
    """What `market_step` reads of a world besides its per-lane inputs.

    Worlds with equal keys share a batch.  The key is a repr, not an ==
    comparison, because 0.0 and -0.0 are equal but need not give the same
    bits.
    """
    return repr((params.agents, params.market, params.trust, params.welfare, params.platform,
                 params.policy.provenance_boost, params.policy.fiduciary))


def _run_batch(
    task: tuple[list[SimParams], list[list[TickOverlay]], int]
) -> list[RunRecord | str]:
    """Run worlds of one batch key along their exogenous paths in lockstep:
    one `_step` per tick clears every world still running.

    A world that fails to converge is retired with the ``NoConvergence``
    message it gives when run alone, and the rest run on.
    """
    worlds, paths, master_seed = task
    outcomes: list[list[TickRow] | str] = []  # a live world's rows so far, or its failure
    live: dict[int, Simulation] = {}
    for i, params in enumerate(worlds):
        try:
            live[i] = Simulation(params, master_seed=master_seed)
            outcomes.append([])
        except NoConvergence as exc:
            outcomes.append(f"NoConvergence: {exc}")
    for overlays in zip(*paths):
        if not live:
            break
        order = list(live)
        for i, row in zip(order, _step([live[i] for i in order], [overlays[i] for i in order])):
            if isinstance(row, NoConvergence):
                outcomes[i] = f"NoConvergence: {row}"
                del live[i]
            else:
                outcomes[i].append(row)
    return [RunRecord.of(rows) if i in live else rows for i, rows in enumerate(outcomes)]


def run_worlds(
    worlds: Sequence[SimParams], ticks: int, *, shocks: Sequence[ShockEvent] = (),
    master_seed: int = 42, jobs: int = 1,
) -> list[RunRecord | str]:
    """Run every world, given by its parameters, to the horizon under one
    shock schedule; return outcomes in world order.

    Every world's exogenous path (`build_overlays`) is computed before any
    world is built.  Each world gets the same master seed, so the same
    population draw.  Worlds equal in every section `market_step` reads
    (agents, market, trust, welfare, platform) and in their provenance
    boost and fiduciary weight share a batch, which advances in lockstep
    (`_run_batch`); worlds that differ in econ, ipi, proxy, shocks or the
    levy do not split one.  With ``jobs > 1`` each batch is split into up
    to ``jobs`` contiguous chunks, and the chunks run in one process pool.
    A world's record is the same in any batch and at any ``jobs``.  A world
    that fails to converge gives its ``NoConvergence`` message instead of a
    record.
    """
    paths = [build_overlays(ticks, shocks, params) for params in worlds]
    batches: dict[str, list[int]] = {}
    for i, params in enumerate(worlds):
        batches.setdefault(_batch_key(params), []).append(i)
    chunks = [
        chunk.tolist()
        for members in batches.values()
        for chunk in np.array_split(np.array(members), min(jobs, len(members)))
    ]
    tasks = [([worlds[i] for i in chunk], [paths[i] for i in chunk], master_seed)
             for chunk in chunks]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_batch, tasks))
    else:
        results = [_run_batch(task) for task in tasks]
    outcomes = {i: o for chunk, result in zip(chunks, results) for i, o in zip(chunk, result)}
    return [outcomes[i] for i in range(len(worlds))]


def _records(
    cfg: ExperimentConfig, worlds: Sequence[SimParams], shocks: Sequence[ShockEvent] = ()
) -> list[RunRecord]:
    """Run the worlds at cfg's horizon, seed and jobs; every world must
    converge."""
    outcomes = run_worlds(worlds, cfg.max_ticks, shocks=shocks, master_seed=cfg.master_seed,
                          jobs=cfg.jobs)
    failures = [f"world {i}: {o}" for i, o in enumerate(outcomes) if isinstance(o, str)]
    if failures:
        raise NoConvergence("; ".join(failures))
    return outcomes


# -- experiments --------------------------------------------------------------


def run(cfg: ExperimentConfig) -> RunRecord:
    """The baseline procedure: initialize, run the horizon, persist."""
    params = cfg.params()
    (record,) = _records(cfg, [params])
    stats = summary_stats(record)
    metadata = {"experiment": cfg.experiment, "seed": str(cfg.master_seed),
                "config_hash": params.config_hash(), "version": __version__}
    report = {"stats": asdict(stats), "metadata": metadata}
    lines = [f"experiment: {cfg.experiment}", f"ticks: {stats.n_ticks}"]
    lines += [f"final {k}: {_fmt(v)}" for k, v in stats.final_means.items()]
    lines += [f"corr {k}: {_or_undefined('{!r}', v)}" for k, v in stats.correlations.items()]
    lines.append(f"converged: {stats.converged}")
    _write_outputs(cfg, params, record, report, lines)
    return record


def default_shocks(params: SimParams) -> list[ShockEvent]:
    s = params.shocks
    # Late cost shock: the index baseline has settled by then, so the
    # pollution spike reads as a clean rise rather than riding the transient.
    return [ShockEvent(tick=t, kind=kind, magnitude=getattr(s, kind))
            for t, kind in zip(s.ticks, SCHEDULED_SHOCKS)]


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
    """Peak index rise over the pre-shock mean and the post-peak decay rate;
    NaN (written as null) over an empty window: the pre-shock mean and rise
    of a shock at tick 0, and the recovery of a peak on the record's last tick."""
    ipi = record.column("ipi")
    out = []
    for shock in shocks:
        t = shock.tick
        pre = _mean(ipi[max(0, t - 5): t])
        horizon = min(t + 10, len(ipi) - 1)
        peak_off = int(np.argmax(ipi[t: horizon + 1]))
        peak_t = t + peak_off
        peak = float(ipi[peak_t])
        post = ipi[peak_t: min(peak_t + 11, len(ipi))]
        rec_rate = _mean(-(np.diff(post)))
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


def run_shocks(cfg: ExperimentConfig) -> tuple[RunRecord, list[ShockResponse]]:
    params = cfg.params()
    shocks = default_shocks(params)
    (record,) = _records(cfg, [params], shocks)
    responses = shock_stats(record, shocks)
    mean_rise = _mean([r.rise_pct for r in responses])
    report = {
        "mean_rise_pct": mean_rise,
        "responses": [asdict(r) for r in responses],
        "stats": asdict(summary_stats(record)),
    }
    lines = [f"shock response: mean IPI rise {_or_undefined('{:.1f}%', mean_rise)}"]
    lines += [
        f"  {r.kind}@{r.tick}: {_or_undefined('+{:.1f}%', r.rise_pct)} peak {r.peak:.3f} "
        f"recovery {_or_undefined('{:.4f}/tick', r.recovery_per_tick)} "
        f"({r.declining_ticks} declining)"
        for r in responses
    ]
    _write_outputs(
        cfg, params, record, report, lines,
        tables={"results/shock_responses.csv": (
            [f.name for f in fields(ShockResponse)], [astuple(r) for r in responses])},
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
    if params.ipi.endogenous_weights:
        raise ConfigError(
            "weight-sensitivity compares fixed weight sets, and ipi.endogenous_weights "
            "true would replace every one of them; run it with fixed weights"
        )
    sets = list(weight_sets) if weight_sets is not None else list(DEFAULT_WEIGHT_SETS)
    keys = ("ipi.w_pollution", "ipi.w_deadweight", "ipi.w_trust", "ipi.w_tech")
    records = _records(cfg, [params.with_overrides(dict(zip(keys, weights))) for weights in sets])
    rows = []
    sign_flips = []
    for i, (weights, record) in enumerate(zip(sets, records)):
        corr = safe_corr(record.column("ipi"), record.column("welfare"))
        if corr > 0:
            sign_flips.append(i)
        rows.append((str(weights), corr, abs(corr)))
    report = {
        "weight_sets": [list(w) for w in sets],
        "correlations": [r[1] for r in rows],
        "abs_range": [min(r[2] for r in rows), max(r[2] for r in rows)],
        "sign_flips": sign_flips,
    }
    lines = ["weight sensitivity: corr(IPI, W) per weight set"]
    lines += [f"  {w}: {_or_undefined('{:.4f}', c)}" for w, c, _ in rows]
    if sign_flips:
        lines.append(f"SIGN FLIP in sets {sign_flips}")
    _write_outputs(
        cfg, params, None, report, lines,
        tables={"results/weight_sensitivity.csv": (("weights", "corr", "abs_corr"), rows)},
    )
    return report


def run_noise(
    cfg: ExperimentConfig, noise_levels: Sequence[float] | None = None, trials: int = 3
) -> dict[str, Any]:
    """Proxy-index measurement error and volatility under multiplicative noise.

    Dynamics are independent of measurement noise, so the world runs once
    through `run_worlds`; the event log reads its record's tick columns
    (with the posture each tick was cleared under) and its path's
    capability stocks.  Noise 0 draws nothing, so one noise-free proxy
    index serves every trial; each (level, trial) synthesizes one noisy log
    of the whole series, and the error is the mean absolute gap to the
    noise-free index.  The proxy index is weighted with the fixed
    ``ipi.w_*``; endogenous weights reach the run only through an adaptive
    levy, so without one the world computes none.
    """
    params = cfg.params()
    levels = list(noise_levels) if noise_levels is not None else [0.0, 0.05, 0.1, 0.2]
    weights = params.ipi.weights
    # The run's own index feeds only the adaptive levy: the proxy log skips
    # the record's index columns, and the proxy composite reads ipi.w_*.
    world = params if params.policy.adaptive_enabled else params.with_overrides(
        {"ipi.endogenous_weights": False}
    )
    (record,) = _records(cfg, [world])
    path = build_overlays(cfg.max_ticks, (), world)
    series = record.columns | {
        name: np.array([getattr(ov, name) for ov in path]) for name in ("cap_gen", "cap_det")}
    noise_free = proxy_composite(synthesize_log(series, params), weights) if len(record) else None

    rows = []
    for li, level in enumerate(levels):
        errors = []
        vols = []
        # An empty series has no error or volatility, and one tick no volatility.
        for trial in range(trials if len(record) else 0):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.master_seed, 11, li, trial])
            )
            noisy = proxy_composite(synthesize_log(series, params, level, rng), weights)
            errors.append(_mean(np.abs(noisy - noise_free)))
            vols.append(float(np.std(np.diff(noisy))) if len(noisy) > 1 else math.nan)
        rows.append((level, _mean(errors), _mean(vols)))
    report = {
        "levels": levels,
        "errors": [r[1] for r in rows],
        "volatility": [r[2] for r in rows],
        "trials": trials,
    }
    lines = ["noise robustness (proxy IPI):"]
    lines += [f"  level {lv:.2f}: error {err:.5f}, volatility {vol:.5f}" for lv, err, vol in rows]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={"results/noise_robustness.csv": (("level", "ipi_error", "volatility"), rows)},
    )
    return report


def _or_undefined(template: str, x: float) -> str:
    """``template`` filled with ``x``, or "undefined" where ``x`` is NaN."""
    return "undefined" if math.isnan(x) else template.format(x)


def run_event_detection(cfg: ExperimentConfig) -> dict[str, Any]:
    """Inject a fake-news burst at mid-horizon and measure the index's early-warning value."""
    if cfg.max_ticks == 0:
        raise ConfigError("event-detection injects its burst at mid-horizon, and "
                          "run.max_ticks = 0 has no tick; run it for at least one tick")
    params = cfg.params()
    tick, mag = cfg.max_ticks // 2, params.shocks.fake_news_burst
    shock = ShockEvent(tick=tick, kind="fake_news_burst", magnitude=mag)
    (record,) = _records(cfg, [params], [shock])
    (response,) = shock_stats(record, [shock])
    # Lead-lag around the event only; the run-level transient would swamp it.
    lo = max(0, tick - 10)
    hi = min(len(record), tick + 30)
    ipi = record.column("ipi")[lo:hi]
    drop = -np.diff(record.column("welfare")[lo:hi])  # welfare decline per tick
    lags = {k: safe_corr(ipi[: len(drop) - k + 1], drop[k - 1:]) for k in range(1, 11)}
    finite = {k: v for k, v in lags.items() if not math.isnan(v)}
    # The index leads welfare damage by the window with the strongest
    # positive correlation between today's reading and the future drop.
    best_window = max(finite, key=lambda k: finite[k]) if finite else None
    report = {
        "burst_tick": tick,
        "magnitude": mag,
        "peak_rise_pct": response.rise_pct,
        "recovery_per_tick": response.recovery_per_tick,
        "lead_lag_corr": lags,
        "best_window": best_window,
    }
    lines = [
        f"event detection: burst at tick {tick}, "
        f"peak IPI rise {_or_undefined('{:.1f}%', response.rise_pct)}",
        f"recovery {_or_undefined('{:.4f}/tick', response.recovery_per_tick)}",
        f"best prediction window: {best_window} ticks "
        f"(corr {finite.get(best_window, math.nan):.3f})" if best_window else
        "best prediction window: undefined",
    ]
    _write_outputs(
        cfg, params, record, report, lines,
        tables={
            "results/lead_lag.csv": (("window", "corr_ipi_future_welfare"), list(lags.items()))
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

# The six policy-comparison scenarios: (label, overrides, note).  The levy
# is proxied by a raised revenue share, the subsidy by a lower verification
# cost ceiling; override magnitudes are artifact defaults.
DEFAULT_POLICY_SCENARIOS: tuple[tuple[str, dict[str, Any], str], ...] = (
    ("baseline", {}, "no intervention"),
    ("pigouvian", {"platform.revenue_share": 0.35},
     "levy proxied by raised revenue share (theta 0.25 -> 0.35)"),
    ("subsidy", {"agents.k_max": 2.0}, "verification subsidy (k_max 4.0 -> 2.0)"),
    ("joint", {"platform.revenue_share": 0.35, "agents.k_max": 2.0},
     "revenue-share levy plus verification subsidy"),
    ("tech", {"ipi.cap_det_growth": 0.03},
     "detection-capability growth boost (1%/tick -> 3%/tick)"),
    ("efficiency", {"agents.mean_prod_h": 2.6},
     "high-quality productivity boost (mean 2.0 -> 2.6)"),
)


def run_cross_platform(
    cfg: ExperimentConfig,
    presets: Sequence[tuple[str, dict[str, Any]]] | None = None,
) -> dict[str, Any]:
    """Compare final outcomes across platform environments."""
    params = cfg.params()
    chosen = list(presets) if presets is not None else list(DEFAULT_PLATFORM_PRESETS)
    records = _records(cfg, [params.with_overrides(overrides) for _, overrides in chosen])
    header = ("preset", "ipi", "welfare", "pollution", "trust")
    rows = [(name, *map(summary_stats(record).final_means.get, header[1:]))
            for (name, _), record in zip(chosen, records)]
    ipis = [r[1] for r in rows]
    report = {
        "presets": [name for name, _ in chosen],
        "rows": [dict(zip(header, r)) for r in rows],
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
        tables={"results/cross_platform.csv": (header, rows)},
    )
    return report


DEFAULT_SWEEP_R = (0.6, 0.8, 1.0, 1.2, 1.4)
DEFAULT_SWEEP_SIGMA_L = (1.2, 1.4, 1.6, 1.8)


@dataclass(frozen=True)
class SweepReport:
    rows: list[dict[str, float]]  # r, sigma_l, welfare, pollution, ipi
    corr_r_welfare: float
    corr_r_pollution: float
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
    worlds = [base_params.with_overrides({"econ.ai_rental": r, "econ.sigma_l": sigma_l})
              for r, sigma_l in grid]
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


def run_sweep(cfg: ExperimentConfig) -> SweepReport:
    params = cfg.params()
    grid = [(r, s) for r in DEFAULT_SWEEP_R for s in DEFAULT_SWEEP_SIGMA_L]
    report = sweep_cells(
        grid, params, master_seed=cfg.master_seed, ticks=cfg.max_ticks, jobs=cfg.jobs
    )
    if report.failures:
        raise NoConvergence("; ".join(report.failures))
    by_r: dict[float, list[float]] = {}
    for row in report.rows:
        by_r.setdefault(row["r"], []).append(row["pollution"])
    pollution_vs_r = [(r, _mean(v)) for r, v in sorted(by_r.items())]
    doc = {
        "corr_r_welfare": report.corr_r_welfare,
        "corr_r_pollution": report.corr_r_pollution,
        "rows": report.rows,
        "pollution_by_r": pollution_vs_r,
    }
    lines = ["parameter sweep (final-window means):"]
    lines += [f"corr(r, {name}) = {_or_undefined('{:.3f}', c)}"
              for name, c in (("welfare", report.corr_r_welfare),
                              ("pollution", report.corr_r_pollution))]
    lines += [f"  r={r:.1f}: mean pollution {p:.3f}" for r, p in pollution_vs_r]
    _write_outputs(
        cfg, params, None, doc, lines,
        tables={
            "results/sweep.csv": (("r", "sigma_l", "welfare", "pollution", "ipi"),
                                  [list(row.values()) for row in report.rows]),
            "figures/pollution_vs_r.csv": (("r", "pollution"), pollution_vs_r),
        },
    )
    return report


def run_policy_comparison(cfg: ExperimentConfig) -> dict[str, Any]:
    """Run the six intervention scenarios (`DEFAULT_POLICY_SCENARIOS`) on a
    shared seed and compare.

    Each scenario's world is the run's parameters under its overrides; its
    instruments are that world's ``policy`` section.
    """
    params = cfg.params()
    records = _records(cfg, [params.with_overrides(o) for _, o, _ in DEFAULT_POLICY_SCENARIOS])
    rows = []
    for (scenario, _, note), record in zip(DEFAULT_POLICY_SCENARIOS, records):
        means = summary_stats(record).final_means
        rows.append({"scenario": scenario, "note": note,
                     **{k: means[k] for k in ("welfare", "pollution", "ipi", "trust")}})
    base = rows[0]
    for row in rows:
        row["welfare_delta"] = row["welfare"] - base["welfare"]
        row["pollution_delta"] = row["pollution"] - base["pollution"]
    report = {"rows": rows}
    header = ("scenario", "welfare", "pollution", "ipi", "trust", "welfare_delta",
              "pollution_delta", "note")
    lines = ["policy comparison (final-window means, deltas vs baseline):"]
    lines += [
        f"  {r['scenario']:<11} W {r['welfare']:8.2f} ({r['welfare_delta']:+.2f})  "
        f"pollution {r['pollution']:.3f} ({r['pollution_delta']:+.3f})  "
        f"IPI {r['ipi']:.3f}  trust {r['trust']:.3f}"
        for r in rows
    ]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={"results/policy_comparison.csv": (header, [[r[k] for k in header] for r in rows])},
    )
    return report


def robust_select(
    policies: Sequence[tuple[str, dict[str, Any]]],
    worlds: Sequence[dict[str, Any]],
    horizon: int,
    *,
    base_params: SimParams | None = None,
    master_seed: int = 42,
    jobs: int = 1,
) -> RobustSelection:
    """Run every (policy, world) cell for the horizon and pick by max-min.

    A policy is a label and its overrides; cell (p, w) is the base
    parameters under world w's overrides, then policy p's.  The cells run
    policy-major through `run_worlds`; `policy.max_min_select` applies the
    rule to their final-window welfare and index.
    """
    if not policies or not worlds:
        raise ValueError("policies and worlds must be nonempty")
    base = base_params or SimParams()
    outcomes = run_worlds(
        [base.with_overrides({**world, **overrides}) for _, overrides in policies
         for world in worlds],
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
    return max_min_select([label for label, _ in policies], welfare, ipi, failures)


# robust-select's candidates: each sets the levy, fixed or adaptive; the
# run's ``policy`` section supplies the other instruments.
DEFAULT_ROBUST_POLICIES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("baseline", {"policy.tax_init": 0.0, "policy.adaptive_enabled": False}),
    ("levy", {"policy.tax_init": 0.5, "policy.adaptive_enabled": False}),
    ("adaptive", {"policy.tax_init": 0.0, "policy.adaptive_enabled": True}),
)

DEFAULT_ROBUST_WORLDS: tuple[dict[str, Any], ...] = (
    {"econ.ai_rental": 0.8},
    {"econ.ai_rental": 1.2, "econ.sigma_l": 1.7},
)


def run_robust_select(cfg: ExperimentConfig) -> dict[str, Any]:
    if cfg.max_ticks == 0:
        raise ConfigError("robust-select compares final-window welfare, and run.max_ticks = 0 "
                          "measures none; run it for at least one tick")
    params = cfg.params()
    policies, worlds = DEFAULT_ROBUST_POLICIES, DEFAULT_ROBUST_WORLDS
    selection = robust_select(
        policies, worlds, cfg.max_ticks,
        base_params=params, master_seed=cfg.master_seed, jobs=cfg.jobs,
    )
    report = {
        "selected_index": selection.selected_index,
        "selected_scenario": selection.selected,
        "welfare_matrix": [list(r) for r in selection.welfare_matrix],
        "ipi_matrix": [list(r) for r in selection.ipi_matrix],
        "failures": [list(f) for f in selection.failures],
    }
    lines = [
        f"robust selection: policy {selection.selected_index} ({selection.selected})",
        "welfare matrix (policies x worlds):",
    ]
    lines += ["  " + "  ".join(f"{w:9.2f}" for w in row) for row in selection.welfare_matrix]
    _write_outputs(
        cfg, params, None, report, lines,
        tables={
            "results/robust_select.csv": (
                ("policy", "scenario") + tuple(f"world_{i}" for i in range(len(worlds))),
                [(i, label) + tuple(row)
                 for i, ((label, _), row) in enumerate(zip(policies, selection.welfare_matrix))],
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


# The experiments that write a run record (results/run.csv), which `report` reads.
RECORDED_EXPERIMENTS = ("baseline", "shocks", "event_detection")


def run_experiment(cfg: ExperimentConfig) -> Any:
    """Run one experiment by id."""
    procedure, _ticks = EXPERIMENTS[cfg.experiment]
    return procedure(cfg)


def load_overrides(
    config_path: str | Path | None, cli_pairs: dict[str, str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Merge file and CLI overrides (CLI wins), validate them and split them
    into ``(run, overrides)``: the ``run.*`` keys without their prefix,
    parsed to their types and checked as `ExperimentConfig` checks them,
    and the simulation keys, checked against the schema."""
    merged: dict[str, Any] = {}
    if config_path is not None:
        merged.update(parse_config_file(config_path))
    merged.update(cli_pairs)
    run: dict[str, Any] = {}
    overrides: dict[str, Any] = {}
    for key, value in merged.items():
        if key.startswith("run."):
            name = key.removeprefix("run.")
            if name not in RUN_KEYS:
                raise ConfigError(f"unknown config key: {key!r}")
            run[name] = _coerce(value, getattr(ExperimentConfig, name), key)
        else:
            overrides[key] = value
    ExperimentConfig(**run)
    SimParams().with_overrides(overrides)
    return run, overrides
