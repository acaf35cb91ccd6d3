"""The benchmark's workloads, their output checks, and the metrics of one run.

Every workload drives only the package's public entry points (`Simulation`,
`Simulation.advance`, `build_overlays`, `sweep_cells`, `run_noise`,
`SimParams.with_overrides`) with inputs generated from the workload seed.

A run repeats the workload body until its time budget is spent and reports
medians.  `setup_s` samples are constructions of the workload's first world,
timed apart from the body and taken after every body repeat, so that they
span the whole run.  Tick latency is taken from `Simulation.advance` calls
the benchmark makes itself: on `long_run` these are the body; on the other
workloads, whose ticks run inside `sweep_cells` or `run_noise`, a copy of
the first world is advanced through the workload's horizon after each body
repeat.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from infomarket.config import SimParams
from infomarket.errors import NoConvergence
from infomarket.harness import (
    CSV_COLUMNS,
    DEFAULT_SWEEP_R,
    DEFAULT_SWEEP_SIGMA_L,
    SHOCK_KINDS,
    ExperimentConfig,
    ShockEvent,
    Simulation,
    build_overlays,
    run_noise,
    sweep_cells,
)
from infomarket.policy import PolicyConfig

from tracer import Tracer

GOLDEN_CSV = Path("tests") / "golden" / "baseline_seed42.csv"
GOLDEN_SEED = 42
GOLDEN_RTOL = 1e-9
# The cheap-AI paradox in full (corr(r, pollution) < 0 < corr(r, welfare)) is
# the package's claim at its acceptance configuration: this seed over
# `Sizes.reference_ticks`.  On other seeds only the pollution sign is robust.
REFERENCE_SEED = 42

# After each body repeat, the first world is built again for this share of
# the repeat's time (at least once), then a copy of it is advanced for the
# probe's share.
SETUP_SHARE = 0.25
PROBE_SHARE = 0.25

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tick_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "econ.unit_cost.calls": "count",
    "econ.unit_cost.s": "s",
    "agents.draw.s": "s",
    "agents.platform_update.calls": "count",
    "market.welfare_anchors.s": "s",
    "market.static_equilibrium_welfare.calls_per_anchor": "calls/anchor",
    "market.solve_verification_fixed_point.calls": "count",
    "market.solve_verification_fixed_point.s": "s",
    "market.solve_verification_fixed_point.us_per_call": "us",
    "market.fp.iters_per_solve": "iters/solve",
    "market.supply_response.calls": "count",
    "market.supply_response.s": "s",
    "market.supply_response.calls_per_tick": "calls/tick",
    "market.market_step.s": "s",
    "market.market_step.self_s": "s",
    "ipi.synthesize_log.calls": "count",
    "ipi.synthesize_log.s": "s",
    "ipi.proxy_composite.calls": "count",
    "ipi.proxy_composite.s": "s",
    "ipi.endogenous_weights.calls": "count",
    "ipi.endogenous_weights.s": "s",
    "policy.adaptive_tax.calls": "count",
    "harness.simulation_init.s": "s",
    "harness.advance.self_s": "s",
    "harness.summary_stats.s": "s",
    "harness.persist.s": "s",
    "harness.persist.bytes": "B",
    "harness.pool.worker_cpu_s": "s",
    "harness.pool.efficiency": "ratio",
    "config.with_overrides.calls": "count",
    "config.with_overrides.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one repeat of each workload does."""

    long_run_ticks: int = 3000
    # Final-window means settle past the platform's transient by about tick
    # 45; at 30 ticks corr(r, welfare) still carries the transient's sign.
    grid_ticks: int = 60
    grid: tuple[tuple[float, float], ...] = tuple(
        (r, s) for r in DEFAULT_SWEEP_R for s in DEFAULT_SWEEP_SIGMA_L
    )
    # Horizon of the reference sweep, the acceptance suite's paradox run.
    reference_ticks: int = 120
    measure_ticks: int = 300
    measure_trials: int = 5
    # Applied to every world but the golden one; the smoke test shrinks the
    # anchor lattice with it.
    overrides: tuple[tuple[str, Any], ...] = ()


class Tally:
    """Attempted and failed operations of a run: worlds and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def worlds(self, done: int, failed: int = 0) -> None:
        self.attempted += done
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check failed: {name} {detail}".rstrip())
        return ok


def digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def check_digests(tally: Tally, name: str, digests: list[str]) -> bool:
    """Every repeat of a workload must produce byte-identical results."""
    return tally.check(f"{name}.repeat_digest", len(set(digests)) == 1,
                       f"{len(set(digests))} distinct digests over {len(digests)} repeats")


def check_golden(root: Path, tally: Tally) -> None:
    """Seed-42 default run against the frozen 150-tick record at 1e-9."""
    with open(root / GOLDEN_CSV, newline="", encoding="utf-8") as f:
        golden = list(csv.DictReader(f))
    params = SimParams()
    sim = Simulation(params, PolicyConfig(), GOLDEN_SEED)
    try:
        rows = [sim.advance(ov) for ov in build_overlays(len(golden), (), params)]
    except NoConvergence:
        rows = []
    tally.worlds(1, not rows)
    numeric = CSV_COLUMNS[1:-1]
    got = np.array([[getattr(r, c) for c in numeric] for r in rows], dtype=float)
    want = np.array([[float(g[c]) for c in numeric] for g in golden], dtype=float)
    same = (got.shape == want.shape and np.allclose(got, want, rtol=GOLDEN_RTOL, atol=0.0)
            and [r.tick for r in rows] == [int(g["tick"]) for g in golden]
            and [r.event for r in rows] == [g["event"] for g in golden])
    tally.check("golden_seed42", same)


def shock_schedule(seed: int, ticks: int, params: SimParams) -> list[ShockEvent]:
    """Shocks through the whole horizon, all four kinds, magnitudes within the defaults."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2509]))
    shocks = []
    t = int(rng.integers(5, 30))
    kinds: list[str] = []
    while t < ticks:
        if not kinds:
            kinds = [SHOCK_KINDS[i] for i in rng.permutation(len(SHOCK_KINDS))]
        kind = kinds.pop()
        magnitude = getattr(params.shocks, kind) * float(rng.uniform(0.25, 1.0))
        shocks.append(ShockEvent(tick=t, kind=kind, magnitude=magnitude))
        t += int(rng.integers(20, 61))
    return shocks


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    body_s: list[float] = field(default_factory=list)
    tick_ns: list[int] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    worlds_per_body: int = 0


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _time_advance(sim: Simulation, overlay, ticks: list[int]):
    t0 = time.perf_counter_ns()
    row = sim.advance(overlay)
    ticks.append(time.perf_counter_ns() - t0)
    return row


class Workload:
    """One workload: its first world, its body, and its output checks."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, root: Path, tally: Tally):
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.tally = tally
        self.overrides = dict(sizes.overrides)
        self.horizon = 0
        self.persist_bytes = 0  # bytes the body leaves in its output directory
        self.notes: list[str] = []  # printed by the run, not gated
        self._probe: Simulation | None = None

    def first_world(self) -> Simulation:
        raise NotImplementedError

    def body(self, samples: Samples) -> None:
        """One timed repeat; appends its body time, CPU time and digest."""
        raise NotImplementedError

    def checks(self, samples: Samples) -> None:
        check_digests(self.tally, self.name, samples.digests)

    def pool_numbers(self, samples: Samples) -> tuple[float, float]:
        """CPU seconds of the processes that ran one body's worlds, and their
        share of jobs x wall.  Without a pool that is this process at jobs=1."""
        return (statistics.median(samples.cpu_s),
                statistics.median(c / w for c, w in zip(samples.cpu_s, samples.body_s)))

    def _timed(self, samples: Samples, fn) -> Any:
        cpu0 = _cpu(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        out = fn()
        samples.body_s.append(time.perf_counter() - t0)
        samples.cpu_s.append(_cpu(resource.RUSAGE_SELF) - cpu0)
        return out

    def close(self) -> None:
        """Remove what the run left behind."""

    def between(self, samples: Samples) -> None:
        """After a body repeat: set-up samples, then probe ticks."""
        sim = self.setup(SETUP_SHARE * samples.body_s[-1], samples)
        self.probe(sim, PROBE_SHARE * samples.body_s[-1], samples)

    def setup(self, budget_s: float, samples: Samples) -> Simulation:
        """Build the first world once, and again until `budget_s` has passed."""
        t_end = time.perf_counter() + budget_s
        while True:
            t0 = time.perf_counter()
            sim = self.first_world()
            samples.setup_s.append(time.perf_counter() - t0)
            self.tally.worlds(1)
            if time.perf_counter() >= t_end:
                return sim

    def probe(self, sim: Simulation, budget_s: float, samples: Samples) -> None:
        """Advance a copy of the first world through the workload's horizon,
        starting a fresh copy at its end, so the probe times the ticks the
        workload runs."""
        t_end = time.perf_counter() + budget_s
        n = 0
        while n < 2 or time.perf_counter() < t_end:  # two, so that a quantile exists
            if self._probe is None or self._probe.state.tick >= self.horizon:
                self._probe = copy.deepcopy(sim)
            _time_advance(self._probe, None, samples.tick_ns)
            n += 1


class LongRun(Workload):
    name = "long_run"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.params = SimParams().with_overrides(
            {**self.overrides, "policy.adaptive_enabled": True})
        pp = self.params.policy
        self.policy = PolicyConfig(adaptive_eta=pp.adaptive_eta, ipi_target=pp.adaptive_target)
        self.shocks = shock_schedule(self.seed, self.sizes.long_run_ticks, self.params)

    def first_world(self) -> Simulation:
        return Simulation(self.params, self.policy, self.seed)

    def between(self, samples: Samples) -> None:
        return None  # each repeat builds its own world and times its own ticks

    def body(self, samples: Samples) -> None:
        t0 = time.perf_counter()
        sim = self.first_world()
        samples.setup_s.append(time.perf_counter() - t0)
        samples.worlds_per_body = 1

        def ticks():
            overlays = build_overlays(self.sizes.long_run_ticks, self.shocks, self.params)
            try:
                return [_time_advance(sim, ov, samples.tick_ns) for ov in overlays]
            except NoConvergence:
                return None

        rows = self._timed(samples, ticks)
        self.tally.worlds(1, rows is None)
        samples.digests.append(digest([astuple(r) for r in rows or ()]))


class WorldGrid(Workload):
    name = "world_grid"
    pool_jobs = max(2, len(os.sched_getaffinity(0)))

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.base = SimParams().with_overrides(self.overrides)
        self.horizon = self.sizes.grid_ticks
        self.reports = []
        self.pool: tuple[float, float] = (0.0, 0.0)

    def first_world(self) -> Simulation:
        r, sigma_l = self.sizes.grid[0]
        params = SimParams().with_overrides(
            {**self.overrides, "econ.ai_rental": r, "econ.sigma_l": sigma_l})
        return Simulation(params, PolicyConfig(), self.seed)

    def sweep(self, jobs: int, seed: int | None = None, ticks: int | None = None):
        return sweep_cells(list(self.sizes.grid), self.base,
                           master_seed=self.seed if seed is None else seed,
                           ticks=ticks or self.sizes.grid_ticks, jobs=jobs)

    def body(self, samples: Samples) -> None:
        report = self._timed(samples, lambda: self.sweep(1))
        samples.worlds_per_body = len(self.sizes.grid)
        self.tally.worlds(len(self.sizes.grid), len(report.failures))
        samples.digests.append(digest(report))
        self.reports.append(report)

    def checks(self, samples: Samples) -> None:
        super().checks(samples)
        report = self.reports[0]
        cp, cw = report.corr_r_pollution, report.corr_r_welfare
        self.notes.append(f"{self.name}: seed {self.seed} corr(r, pollution) {cp!r}, "
                          f"corr(r, welfare) {cw!r}")
        self.tally.check("world_grid.pollution_sign", cp is not None and cp < 0,
                         f"corr(r, pollution)={cp}")
        ref = self.sweep(self.pool_jobs, REFERENCE_SEED, self.sizes.reference_ticks)
        self.tally.worlds(len(self.sizes.grid), len(ref.failures))
        cp, cw = ref.corr_r_pollution, ref.corr_r_welfare
        self.tally.check("world_grid.reference_paradox_signs",
                         cp is not None and cw is not None and cp < 0 < cw,
                         f"corr(r, pollution)={cp} corr(r, welfare)={cw}")
        # The same grid split over a process pool must give identical bytes.
        # Child CPU counts once the pool has joined its workers.
        cpu0 = _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        pooled = self.sweep(self.pool_jobs)
        wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu0
        self.pool = (cpu, cpu / (self.pool_jobs * wall))
        self.tally.worlds(len(self.sizes.grid), len(pooled.failures))
        self.tally.check("world_grid.pool_matches_jobs1", digest(pooled) == samples.digests[0])

    def pool_numbers(self, samples: Samples) -> tuple[float, float]:
        return self.pool


class Measure(Workload):
    name = "measure"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # Apart per seed and process, so that runs side by side do not mix files.
        self.out_dir = self.root / ".bench_out" / f"{self.name}-{self.seed}-{os.getpid()}"
        self.run_overrides = {**self.overrides, "ipi.endogenous_weights": True}
        self.horizon = self.sizes.measure_ticks
        self.reports = []

    def first_world(self) -> Simulation:
        return Simulation(SimParams().with_overrides(self.run_overrides), PolicyConfig(),
                          self.seed)

    def body(self, samples: Samples) -> None:
        cfg = ExperimentConfig(experiment="noise_robustness", master_seed=self.seed,
                               max_ticks=self.sizes.measure_ticks, out_dir=self.out_dir,
                               overrides=self.run_overrides)

        def noise():
            try:
                return run_noise(cfg, trials=self.sizes.measure_trials)
            except NoConvergence:
                return None

        shutil.rmtree(self.out_dir, ignore_errors=True)
        report = self._timed(samples, noise)
        samples.worlds_per_body = 1
        self.tally.worlds(1, report is None)
        files = sorted(p for p in self.out_dir.rglob("*") if p.is_file())
        self.persist_bytes = sum(p.stat().st_size for p in files)
        samples.digests.append(digest(json.dumps(report, sort_keys=True),
                                      *(p.relative_to(self.out_dir).as_posix().encode()
                                        + p.read_bytes() for p in files)))
        self.reports.append(report)

    def checks(self, samples: Samples) -> None:
        super().checks(samples)
        report = self.reports[0]
        ok = report is not None and report["levels"][0] == 0.0 and report["errors"][0] == 0.0
        self.tally.check("measure.zero_error_at_noise_0", ok,
                         "" if report is None else f"errors={report['errors']}")

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LongRun, WorldGrid, Measure)}


def measure_repeats(workload: Workload, seconds: float, samples: Samples,
                    traced: bool = False) -> int:
    """Repeat the body, each followed by set-up samples and probe ticks,
    until `seconds` have passed.

    A traced pass runs the bodies only, so that the spans cover the
    workload's own work and nothing the benchmark adds to time it.
    """
    t_end = time.perf_counter() + seconds
    reps = 0
    while reps == 0 or time.perf_counter() < t_end:
        workload.body(samples)
        if not traced:
            workload.between(samples)
        reps += 1
    return reps


def end_to_end(samples: Samples) -> dict[str, float]:
    return {
        "setup_s": statistics.median(samples.setup_s),
        "wall_s": statistics.median(samples.body_s),
        "tick_ms_p90": statistics.quantiles(samples.tick_ns, n=10)[8] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, units: int, traced_wall_s: float, untraced: Samples,
              traced: Samples, workload: Workload) -> dict[str, float]:
    """Per-layer numbers per traced repeat; pool numbers from untraced work."""
    def per(x: float) -> float:
        return x / units

    solves = tr.calls("market.solve_verification_fixed_point")
    anchors = tr.calls("market.welfare_anchors")
    steps = tr.calls("market.market_step")
    wall = statistics.median(untraced.body_s)
    pool_cpu_s, pool_efficiency = workload.pool_numbers(untraced)
    return {
        "econ.unit_cost.calls": per(tr.calls("econ.unit_cost")),
        "econ.unit_cost.s": per(tr.total_s("econ.unit_cost")),
        "agents.draw.s": per(tr.total_s("agents.draw_producers")
                             + tr.total_s("agents.draw_consumers")),
        "agents.platform_update.calls": per(tr.calls("agents.platform_update")),
        "market.welfare_anchors.s": per(tr.total_s("market.welfare_anchors")),
        "market.static_equilibrium_welfare.calls_per_anchor": _ratio(
            tr.calls("market.static_equilibrium_welfare", "market.welfare_anchors"), anchors),
        "market.solve_verification_fixed_point.calls": per(solves),
        "market.solve_verification_fixed_point.s": per(
            tr.total_s("market.solve_verification_fixed_point")),
        "market.solve_verification_fixed_point.us_per_call": 1e6 * _ratio(
            tr.total_s("market.solve_verification_fixed_point"), solves),
        "market.fp.iters_per_solve": _ratio(
            tr.calls("market.consumer_cdf", "market.solve_verification_fixed_point"), solves),
        "market.supply_response.calls": per(tr.calls("market.supply_response")),
        "market.supply_response.s": per(tr.total_s("market.supply_response")),
        "market.supply_response.calls_per_tick": _ratio(
            tr.calls("market.supply_response", "market.market_step"), steps),
        "market.market_step.s": per(tr.total_s("market.market_step")),
        "market.market_step.self_s": per(tr.self_s("market.market_step")),
        "ipi.synthesize_log.calls": per(tr.calls("ipi.synthesize_log")),
        "ipi.synthesize_log.s": per(tr.total_s("ipi.synthesize_log")),
        "ipi.proxy_composite.calls": per(tr.calls("ipi.proxy_composite")),
        "ipi.proxy_composite.s": per(tr.total_s("ipi.proxy_composite")),
        "ipi.endogenous_weights.calls": per(tr.calls("ipi.endogenous_weights")),
        "ipi.endogenous_weights.s": per(tr.total_s("ipi.endogenous_weights")),
        "policy.adaptive_tax.calls": per(tr.calls("policy.adaptive_tax")),
        "harness.simulation_init.s": per(tr.self_s("harness.simulation_init")),
        "harness.advance.self_s": per(tr.self_s("harness.advance")),
        "harness.summary_stats.s": per(tr.total_s("harness.summary_stats")),
        "harness.persist.s": per(tr.total_s("harness.persist")),
        "harness.persist.bytes": float(workload.persist_bytes),
        "harness.pool.worker_cpu_s": pool_cpu_s,
        "harness.pool.efficiency": pool_efficiency,
        "config.with_overrides.calls": per(tr.calls("config.with_overrides")),
        "config.with_overrides.s": per(tr.total_s("config.with_overrides")),
        "trace.wall_s": per(traced_wall_s),
        "trace.untraced_s": per(traced_wall_s - tr.top_s),
        "trace.overhead_s": statistics.median(traced.body_s) - wall,
    }


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def to_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = Sizes()) -> RunResult:
    """One benchmark run of workload `name`: untraced, or half untraced and half traced."""
    tally = Tally()
    check_golden(root, tally)
    workload = WORKLOADS[name](seed, sizes, root, tally)
    notes = []
    untraced = Samples()
    if not trace:
        reps = measure_repeats(workload, seconds, untraced)
        workload.checks(untraced)
        values = end_to_end(untraced)
        units = END_TO_END
        # The tick median and p99 are printed, not gated.  On a shared host
        # whose speed switches between two levels the median flips between
        # them from run to run, and the p99 of a 1 ms tick follows how often
        # the host deschedules this process for a few milliseconds.  Worlds
        # per second is a fixed multiple of 1 / wall_s, so it is printed too.
        p99 = statistics.quantiles(untraced.tick_ns, n=100)[98] / 1e6
        notes.append(f"{name}: {reps} repeats, {len(untraced.setup_s)} setup samples, "
                     f"{len(untraced.tick_ns)} tick samples, tick p50 "
                     f"{statistics.median(untraced.tick_ns) / 1e6!r} ms, p99 {p99!r} ms, "
                     f"{untraced.worlds_per_body / values['wall_s']!r} worlds/s")
    else:
        measure_repeats(workload, seconds / 2, untraced)
        traced = Samples()
        tr = Tracer()
        tr.install()
        try:
            reps = measure_repeats(workload, seconds / 2, traced, traced=True)
        finally:
            tr.uninstall()
        workload.checks(Samples(digests=untraced.digests + traced.digests))
        # A long_run repeat builds its world, so its set-up is traced too.
        traced_wall = sum(traced.body_s) + sum(traced.setup_s)
        values = per_layer(tr, reps, traced_wall, untraced, traced, workload)
        units = PER_LAYER
        notes.append(f"{name}: {reps} traced repeats; {len(tr.bindings)} bindings patched")
        out = root / ".bench_out" / f"trace-{name}-{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"repeats": reps, "spans": tr.table()}, indent=1))
    workload.close()
    notes += workload.notes + tally.messages
    metrics = {k: (float(values[k]), u) for k, u in units.items()}
    return RunResult(correct=tally.failed == 0, attempted=tally.attempted,
                     failed=tally.failed, metrics=metrics, notes=notes)
