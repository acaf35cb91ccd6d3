"""Harness tests: records, determinism, config plumbing, statistics, CLI."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infomarket import harness
from infomarket.cli import main
from infomarket.config import SimParams, parse_config_file
from infomarket.errors import ConfigError, NoConvergence
from infomarket.harness import (
    CSV_COLUMNS,
    DEFAULT_POLICY_SCENARIOS,
    DEFAULT_ROBUST_POLICIES,
    DEFAULT_ROBUST_WORLDS,
    DEFAULT_SWEEP_R,
    DEFAULT_SWEEP_SIGMA_L,
    EXPERIMENTS,
    ExperimentConfig,
    RunRecord,
    ShockEvent,
    Simulation,
    TickRow,
    build_overlays,
    load_overrides,
    run,
    run_experiment,
    run_noise,
    run_policy_comparison,
    run_weight_sensitivity,
    run_worlds,
    safe_corr,
    summary_stats,
    sweep_cells,
)
from infomarket.ipi import proxy_exposure
from infomarket.market import _base_costs, market_step, welfare_anchors
from infomarket.policy import PolicyConfig, adaptive_tax

SMALL = {
    "agents.n_producers": 30,
    "agents.n_consumers": 60,
    "ipi.anchor_m_points": 3,
    "ipi.anchor_gamma_points": 3,
    "ipi.anchor_tax_points": 2,
}


def advanced(sim, ticks):
    """The record of `ticks` unscheduled `advance` calls."""
    return RunRecord.of([sim.advance() for _ in range(ticks)])


def assert_same_columns(got, want):
    """Every column of two records agrees bit for bit, in type and width too."""
    assert list(got.columns) == list(want.columns) == list(CSV_COLUMNS)
    for name in CSV_COLUMNS:
        assert got.column(name).dtype == want.column(name).dtype, name
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


HEADER = ",".join(CSV_COLUMNS)
ROW = ",".join(["1"] + ["0.5"] * 16 + [""])  # a well-formed tick


def small_cfg(tmp_path=None, **kwargs) -> ExperimentConfig:
    defaults = dict(
        experiment="baseline", master_seed=42, max_ticks=25,
        overrides=dict(SMALL), out_dir=tmp_path,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="warp_drive")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(master_seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig(jobs=0)

    def test_unknown_override_key_rejected(self):
        cfg = ExperimentConfig(overrides={"nope.key": 1})
        with pytest.raises(ConfigError):
            cfg.params()


class TestRunRecord:
    def test_same_config_twice_is_byte_identical(self):
        a = run(small_cfg())
        b = run(small_cfg())
        assert a.to_csv_text() == b.to_csv_text()

    def test_zero_ticks_gives_header_only(self):
        record = run(small_cfg(max_ticks=0))
        text = record.to_csv_text()
        assert text.count("\n") == 1
        assert text.startswith("tick,")

    def test_csv_round_trip_preserves_summary(self, tmp_path):
        record = run(small_cfg())
        path = tmp_path / "run.csv"
        path.write_text(record.to_csv_text(), encoding="utf-8")
        reread = RunRecord.from_csv(path)
        assert summary_stats(reread) == summary_stats(record)
        assert_same_columns(reread, record)
        assert len(reread) == 25 and reread.column("tick").tolist() == list(range(1, 26))

    def test_zero_tick_record_round_trips(self, tmp_path):
        record = run(small_cfg(max_ticks=0))
        path = tmp_path / "run.csv"
        path.write_text(record.to_csv_text(), encoding="utf-8")
        reread = RunRecord.from_csv(path)
        assert len(record) == len(reread) == 0
        assert_same_columns(reread, record)
        assert reread.to_csv_text() == record.to_csv_text() == HEADER + "\n"

    def test_columns_are_a_transpose_of_the_rows(self):
        sim = Simulation(SimParams().with_overrides(SMALL), master_seed=42)
        rows = [sim.advance() for _ in range(4)]
        record = RunRecord.of(rows)
        assert CSV_COLUMNS == tuple(field.name for field in fields(TickRow))
        assert [field.name for field in fields(RunRecord)] == ["columns"]
        for name in CSV_COLUMNS:
            assert record.column(name).tolist() == [getattr(r, name) for r in rows]
        assert record.column("tick").dtype.kind == "i"
        assert record.column("event").dtype.kind == "U"

    @pytest.mark.parametrize("lines, where", [
        ([HEADER, "3,abc"], "line 2, column 'q_h': 'abc' is not a float"),
        (["tick,ipi", "1,0.5"], "line 1: the header has no column 'q_h'"),
        ([], "line 1: the header has no column 'tick'"),
        ([HEADER, "1.5"], "line 2, column 'tick': '1.5' is not an int"),
        ([HEADER, ROW, ",".join(["2", *["0.5"] * 6, "abc", *["0.5"] * 9, ""])],
         "line 3, column 'welfare': 'abc' is not a float"),
        ([HEADER, "1,0.5,0.5"], "line 2, column 'pollution': None is not a float"),
    ])
    def test_malformed_record_is_a_config_error(self, tmp_path, lines, where):
        path = tmp_path / "run.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            RunRecord.from_csv(path)
        assert str(info.value) == f"{path}, {where}"

    def test_event_markers_survive_round_trip(self, tmp_path):
        params = SimParams().with_overrides(SMALL)
        (record,) = run_worlds([params], 20,
                               shocks=[ShockEvent(tick=10, kind="trust_shock", magnitude=0.2)])
        path = tmp_path / "run.csv"
        path.write_text(record.to_csv_text(), encoding="utf-8")
        reread = RunRecord.from_csv(path)
        assert reread.column("event")[10] == "trust_shock"
        assert reread.column("event")[5] == ""
        assert_same_columns(reread, record)

    def test_metadata_fields(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run(cfg)
        metadata = json.loads((tmp_path / "summary.json").read_text())["metadata"]
        assert metadata["seed"] == "42"
        assert metadata["config_hash"] == cfg.params().config_hash()
        assert len(metadata["config_hash"]) == 16


class TestOverlays:
    def test_out_of_horizon_shock_rejected(self):
        params = SimParams()
        with pytest.raises(ConfigError):
            build_overlays(10, [ShockEvent(tick=12, kind="cost_drop", magnitude=0.5)], params)

    def test_cost_drop_window(self):
        params = SimParams()
        overlays = build_overlays(20, [ShockEvent(tick=5, kind="cost_drop", magnitude=0.5)],
                                  params)
        base = _base_costs(params, params.econ.ai_rental)
        dropped = _base_costs(params, 0.5)
        assert base != dropped
        for t, ov in enumerate(overlays):
            inside = 5 <= t < 10
            assert ov.ai_rental == (0.5 if inside else params.econ.ai_rental)
            assert (ov.cost_h_base, ov.cost_l_base) == (dropped if inside else base)
        assert overlays[5].event == "cost_drop"

    def test_capability_jump_reverts(self):
        params = SimParams()
        overlays = build_overlays(
            20, [ShockEvent(tick=5, kind="capability_jump", magnitude=2.0)], params
        )
        # At the default rental rate generation does not compound.
        assert [ov.cap_gen for ov in overlays] == [1.0] * 5 + [3.0] * 5 + [1.0] * 10
        assert overlays[5].gen_boost == 3.0**params.ipi.kappa_gen

    @pytest.mark.parametrize("tick", [2, 15])
    @pytest.mark.parametrize("duration", [0, 1, 5, 30])
    def test_capability_jump_reverts_at_tick_plus_duration_or_never(self, tick, duration):
        params = SimParams().with_overrides({"shocks.duration": duration})
        jump = ShockEvent(tick=tick, kind="capability_jump", magnitude=2.0)
        multipliers = [1.0] * 20
        multipliers[tick] *= 3.0
        if tick + duration < 20:
            multipliers[tick + duration] /= 3.0
        expected, stock = [], 1.0
        for multiplier in multipliers:
            stock *= multiplier
            expected.append(stock)
        assert [ov.cap_gen for ov in build_overlays(20, [jump], params)] == expected

    def test_zero_magnitude_is_noop(self):
        params = SimParams()
        overlays = build_overlays(
            20,
            [ShockEvent(tick=5, kind=k, magnitude=0.0)
             for k in ("cost_drop", "capability_jump", "fake_news_burst", "trust_shock")],
            params,
        )
        assert overlays[5].event == "cost_drop+capability_jump+fake_news_burst+trust_shock"
        overlays[5].event = ""
        # Rental rate, cost bases, stocks, boost, i4, burst and trust hit as if unshocked.
        assert overlays == build_overlays(20, (), params)

    def test_total_cost_drop_rejected(self):
        # The window's rental rate, ai_rental * (1 - magnitude), must stay positive.
        with pytest.raises(ConfigError):
            ShockEvent(tick=5, kind="cost_drop", magnitude=1.0)
        ShockEvent(tick=5, kind="fake_news_burst", magnitude=1.0)


class TestExogenousPath:
    """Every world's exogenous row is known before its first tick."""

    @pytest.mark.parametrize("overrides", [{}, {"econ.ai_rental": 0.6}],
                             ids=["default", "cheap_ai"])
    def test_rows_equal_what_unscheduled_ticks_use(self, monkeypatch, overrides):
        params = SimParams().with_overrides({**SMALL, **overrides})
        ticks = 30
        rows = build_overlays(ticks, (), params)
        boosts = []

        def spied(trust, populations, platforms, overlays, *args, **kwargs):
            boosts.extend(ov.gen_boost for ov in overlays)
            return market_step(trust, populations, platforms, overlays, *args, **kwargs)

        monkeypatch.setattr(harness, "market_step", spied)
        sim = Simulation(params, PolicyConfig(), 42)
        used = []
        for _ in range(ticks):
            record_row = sim.advance()
            ov = sim.last_overlay
            used.append((ov.cap_gen, ov.cap_det, ov.gen_boost, ov.i4, record_row.i4))
        assert used == [(r.cap_gen, r.cap_det, r.gen_boost, r.i4, r.i4) for r in rows]
        assert boosts == [r.gen_boost for r in rows]
        if overrides:  # cheap AI compounds generation
            assert rows[-1].cap_gen > rows[0].cap_gen > 1.0

    @pytest.mark.parametrize("command, ticks, flags", [
        ("baseline", 40, ("--ipi.cap_det_growth", "1e10")),
        ("noise-robustness", 40, ("--ipi.cap_det_growth", "1e10")),
        ("sweep", 40, ("--ipi.cap_det_growth", "1e10")),
        ("shocks", 150, ("--ipi.cap_gen_growth", "1e10", "--econ.ai_rental", "0.5")),
        ("baseline", 50, ("--econ.ai_rental", "0.5", "--ipi.kappa_gen", "1000")),
    ])
    def test_rejected_path_solves_no_welfare_anchors(self, tmp_path, capsys, monkeypatch,
                                                     command, ticks, flags):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return welfare_anchors(*args, **kwargs)

        monkeypatch.setattr(harness, "welfare_anchors", counted)
        code = main([command, "--ticks", str(ticks), "--out", str(tmp_path / "x"), *flags])
        assert code == 2 and "config error: " in capsys.readouterr().err
        assert calls == []

    def test_default_detection_stock_overflows_near_tick_71300(self):
        with pytest.raises(ConfigError, match=r"ipi.cap_det_growth = 0.01 .* cap_det = inf "
                                              r"at tick 713\d\d;"):
            build_overlays(72_000, (), SimParams())


class TestSummaryStats:
    def _record(self, ipi, welfare):
        rows = [
            TickRow(tick=t + 1, q_h=1, q_l=1, pollution=0.5, verify_rate=0.5,
                    precision=0.8, trust=0.5, welfare=w, i1=0.5, i2=0.5, i3=0.5,
                    i4=0.5, ipi=i, tau=0, gamma_h=1, gamma_l=1, m=0)
            for t, (i, w) in enumerate(zip(ipi, welfare))
        ]
        return RunRecord.of(rows)

    def test_constant_series_flagged_not_nan(self):
        record = self._record([0.5] * 30, [1.0] * 30)
        stats = summary_stats(record)
        assert stats.correlations["ipi_welfare"] is None
        assert "correlation_undefined:ipi_welfare" in stats.flags

    def test_perfect_anticorrelation(self):
        ipi = list(np.linspace(0.1, 0.9, 40))
        welfare = [100.0 - 50.0 * x for x in ipi]
        stats = summary_stats(self._record(ipi, welfare))
        assert stats.correlations["ipi_welfare"] == pytest.approx(-1.0)

    def test_final_window_rule(self):
        stats = summary_stats(self._record([0.5] * 30, list(range(30))))
        assert stats.final_window == 20
        stats = summary_stats(self._record([0.5] * 300, list(range(300))))
        assert stats.final_window == 30

    def test_safe_corr_guards(self):
        assert safe_corr(np.array([1.0]), np.array([2.0])) is None
        assert safe_corr(np.ones(10), np.arange(10.0)) is None

    def test_safe_corr_of_series_whose_squares_overflow(self):
        x = np.linspace(0.0, 1.0, 30) ** 2
        y = np.cos(np.arange(30.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = safe_corr(1e300 * x, y)
            both = safe_corr(1e300 * x, -1e305 * y)
        assert big == pytest.approx(safe_corr(x, y), rel=1e-12)
        assert both == pytest.approx(-safe_corr(x, y), rel=1e-12)

    def test_a_final_mean_whose_sum_overflows_stays_finite(self, tmp_path, capsys):
        # Welfare near 5e307 on every tick: the window's plain sum overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["baseline", "--ticks", "5", "--out", str(tmp_path),
                         "--welfare.lambda_trust", "1e308"])
        assert code == 0
        welfare = RunRecord.from_csv(tmp_path / "results" / "run.csv").column("welfare")
        assert welfare.min() > 4e307
        stats = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["stats"]
        assert stats["final_means"]["welfare"] == pytest.approx((welfare / 1e307).mean() * 1e307)
        assert "final welfare: inf" not in capsys.readouterr().out


class TestConfigPlumbing:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "econ.ai_rental = 0.8\n"
            "agents.n_producers = 40   # inline comment\n"
            "\n"
            "run.max_ticks = 60\n",
            encoding="utf-8",
        )
        overrides = parse_config_file(path)
        assert overrides == {
            "econ.ai_rental": "0.8",
            "agents.n_producers": "40",
            "run.max_ticks": "60",
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("market.unknown_knob = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_overrides(path, {})

    # Keys that name a method, a dunder or an empty section are no parameter.
    @pytest.mark.parametrize("key", ["flatten.x", "with_overrides.x", "__class__.x",
                                     "econ.__init__", "econ.__dataclass_fields__", ".x",
                                     "foo.bar"])
    def test_attribute_names_are_unknown_keys(self, tmp_path, capsys, key):
        with pytest.raises(ConfigError, match=r"^unknown config key: "):
            SimParams().with_overrides({key: "1"})
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        assert main(["baseline", "--ticks", "3", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: unknown config key: {key!r}\n"
        assert not (tmp_path / "out").exists()

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("econ.ai_rental = 0.8\nrun.max_ticks = 60\n", encoding="utf-8")
        run, overrides = load_overrides(path, {"econ.ai_rental": "1.2", "run.max_ticks": "70"})
        assert (run, overrides) == ({"max_ticks": 70}, {"econ.ai_rental": "1.2"})

    def test_type_coercion_and_hash_stability(self):
        params = SimParams().with_overrides({"agents.n_producers": "50",
                                             "ipi.endogenous_weights": "true"})
        assert params.agents.n_producers == 50
        assert params.ipi.endogenous_weights is True
        assert params.config_hash() == SimParams().with_overrides(
            {"agents.n_producers": 50, "ipi.endogenous_weights": True}
        ).config_hash()

    def test_resolved_text_round_trips(self):
        params = SimParams().with_overrides({"econ.ai_rental": 0.75})
        text = params.resolved_text()
        reparsed = {**{k: v for k, v in
                       (line.split(" = ") for line in text.strip().splitlines())}}
        rebuilt = SimParams().with_overrides(reparsed)
        assert rebuilt == params

    def test_simulation_takes_its_policy_from_params(self):
        params = SimParams().with_overrides(
            {**SMALL, "policy.tax_init": 0.5, "policy.fiduciary": 0.3}
        )
        implied = Simulation(params, None, 42)
        explicit = Simulation(SimParams().with_overrides(SMALL),
                              PolicyConfig(tax_l=0.5, fiduciary=0.3), 42)
        # An explicit policy is folded into the parameters, which then
        # describe the world that runs.
        assert explicit.params == implied.params
        implied, explicit = advanced(implied, 5), advanced(explicit, 5)
        assert implied.column("tau")[0] == 0.5
        assert implied.to_csv_text() == explicit.to_csv_text()
        # The adaptive levy given as a `PolicyConfig` is the adaptive policy section.
        params = SimParams().with_overrides({**SMALL, "econ.ai_rental": 0.8})
        adaptive = params.with_overrides({"policy.adaptive_enabled": "true"})
        pp = adaptive.policy
        explicit = Simulation(
            params, PolicyConfig(adaptive_eta=pp.adaptive_eta, ipi_target=pp.adaptive_target), 42
        )
        implied = Simulation(adaptive, None, 42)
        assert explicit.params == implied.params
        implied, explicit = advanced(implied, 30), advanced(explicit, 30)
        assert implied.to_csv_text() == explicit.to_csv_text()
        assert len(set(implied.column("tau").tolist())) > 1

    def test_adaptive_levy_moves_on_the_last_row(self):
        params = SimParams().with_overrides(
            {"econ.ai_rental": 0.8, "policy.adaptive_enabled": True}
        )
        sim = Simulation(params, master_seed=42)
        rows = [sim.advance() for _ in range(40)]
        pp = params.policy
        assert rows[0].tau == pp.tax_init
        for prev, row in zip(rows, rows[1:]):
            assert row.tau == adaptive_tax(prev.tau, prev.ipi, pp.adaptive_target,
                                           pp.adaptive_eta)
        assert len({row.tau for row in rows}) > 1

    def test_policy_comparison_reads_the_policy_section(self, tmp_path):
        def table(name, overrides):
            out = tmp_path / name
            run_policy_comparison(ExperimentConfig(
                experiment="policy_comparison", master_seed=42, max_ticks=20, out_dir=out,
                overrides=overrides,
            ))
            return (out / "results" / "policy_comparison.csv").read_text(encoding="utf-8")

        default = table("default", {})
        assert table("fiduciary", {"policy.fiduciary": 0.9}) != default
        # No scenario sets an instrument: by default each runs the default policy section.
        outcomes = run_worlds(
            [SimParams().with_overrides(overrides) for _, overrides, _ in DEFAULT_POLICY_SCENARIOS],
            20,
        )
        welfare = [float(row["welfare"]) for row in csv.DictReader(io.StringIO(default))]
        assert welfare == [summary_stats(o).final_means["welfare"] for o in outcomes]

    def test_robust_select_reads_the_policy_section(self, tmp_path):
        # Each candidate sets the levy; the run's policy section supplies
        # the fiduciary duty and provenance.
        def table(name, overrides):
            out = tmp_path / name
            run_experiment(ExperimentConfig(
                experiment="robust_select", master_seed=42, max_ticks=20, out_dir=out,
                overrides=overrides,
            ))
            text = (out / "results" / "robust_select.csv").read_text(encoding="utf-8")
            return list(csv.reader(io.StringIO(text)))

        default = table("default", {})
        assert [row[:2] for row in default] == [
            ["policy", "scenario"], ["0", "baseline"], ["1", "levy"], ["2", "adaptive"]]
        assert [float(x) for row in default[1:] for x in row[2:]] == pytest.approx([
            251.8179325814756, 237.64876418649334,
            279.3889986456669, 261.33824750576997,
            261.6580977837275, 246.33165642766676,
        ], rel=1e-9)
        assert table("fiduciary", {"policy.fiduciary": 0.5}) != default
        assert table("provenance", {"policy.provenance_boost": 0.05}) != default
        assert table("levy", {"policy.tax_init": 0.3, "policy.adaptive_enabled": True}) == default


class TestOutputs:
    def test_experiment_writes_resolved_config_and_results(self, tmp_path):
        run(small_cfg(tmp_path=tmp_path))
        assert (tmp_path / "config.txt").exists()
        assert (tmp_path / "results" / "run.csv").exists()
        assert (tmp_path / "figures" / "ipi_vs_time.csv").exists()
        assert (tmp_path / "figures" / "welfare_vs_time.csv").exists()
        report = json.loads((tmp_path / "summary.json").read_text())
        assert report["experiment"] == "baseline"
        resolved = (tmp_path / "config.txt").read_text()
        assert "agents.n_producers = 30" in resolved
        assert "run.master_seed = 42" in resolved

    def test_written_files_are_deterministic(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        run(small_cfg(tmp_path=a_dir))
        run(small_cfg(tmp_path=b_dir))
        for rel in ("results/run.csv", "summary.json", "config.txt"):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()


class TestParallelCells:
    def test_jobs_do_not_change_results(self):
        grid = [(0.8, 1.4), (1.2, 1.4), (1.0, 1.6)]
        base = SimParams().with_overrides(SMALL)
        serial = sweep_cells(grid, base, master_seed=42, ticks=15, jobs=1)
        parallel = sweep_cells(grid, base, master_seed=42, ticks=15, jobs=2)
        assert serial == parallel

    def test_unconverged_cell_reports_a_failure(self):
        strict = SimParams().with_overrides({**SMALL, "market.fp_tol": 0.0})
        report = sweep_cells([(1.0, 1.5)], strict, master_seed=42, ticks=2)
        assert report.rows == []
        (failure,) = report.failures
        assert "NoConvergence" in failure and "not below market.fp_tol" in failure

    @pytest.mark.parametrize("experiment", [
        "weight_sensitivity", "cross_platform", "sweep", "policy_comparison", "robust_select",
    ])
    def test_jobs_do_not_change_written_files(self, tmp_path, experiment):
        small = {**SMALL, "agents.n_producers": 40, "agents.n_consumers": 80}
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(small_cfg(tmp_path=out, experiment=experiment, max_ticks=10,
                                     jobs=jobs, overrides=small))
            outputs.append({
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file() and path.name != "config.txt"
            })
        assert outputs[0] and outputs[0] == outputs[1]


def sweep_worlds(**overrides):
    """The default sweep grid's worlds, as `sweep_cells` builds them."""
    return [
        SimParams().with_overrides({**SMALL, **overrides, "econ.ai_rental": r,
                                    "econ.sigma_l": sigma_l})
        for r in DEFAULT_SWEEP_R for sigma_l in DEFAULT_SWEEP_SIGMA_L
    ]


def robust_worlds():
    """`robust-select`'s default policy x world cells, policy-major: no levy,
    a fixed levy and the adaptive levy."""
    return [SimParams().with_overrides({**SMALL, **world, **overrides})
            for _, overrides in DEFAULT_ROBUST_POLICIES for world in DEFAULT_ROBUST_WORLDS]


def endogenous_worlds():
    """The sweep grid under the adaptive levy, so that the index feeds back,
    with endogenous index weights on alternate worlds at two weight steps."""
    return [
        world.with_overrides({"ipi.endogenous_weights": i % 2 == 0,
                              "ipi.weight_perturbation": (0.01, 0.02)[i // 2 % 2]})
        for i, world in enumerate(sweep_worlds(**{"policy.adaptive_enabled": True}))
    ]


def alone(worlds, ticks, shocks=()):
    """Each world run by itself, one `advance` per tick: its CSV text, or its
    failure message."""
    out = []
    for params in worlds:
        try:
            sim = Simulation(params, master_seed=42)
            rows = [sim.advance(ov) for ov in build_overlays(ticks, shocks, params)]
            out.append(RunRecord.of(rows).to_csv_text())
        except NoConvergence as exc:
            out.append(f"NoConvergence: {exc}")
    return out


def builds(params):
    """Whether the world's welfare anchors converge."""
    try:
        Simulation(params, master_seed=42)
    except NoConvergence:
        return False
    return True


def batched(worlds, ticks, size, jobs, shocks=()):
    """The worlds through `run_worlds`, `size` at a time."""
    return [
        outcome if isinstance(outcome, str) else outcome.to_csv_text()
        for start in range(0, len(worlds), size)
        for outcome in run_worlds(worlds[start:start + size], ticks, shocks=shocks,
                                  master_seed=42, jobs=jobs)
    ]


BATCH_TICKS = 12


@pytest.fixture(scope="module")
def world_lists():
    shocked = sweep_worlds(**{"shocks.ticks": (2, 4, 6, 8), "shocks.duration": 3})
    # every instrument at once: a fiduciary duty, provenance standards, the
    # adaptive levy and the shocks, the worlds differing in econ only
    instruments = sweep_worlds(**{
        "policy.fiduciary": 0.3, "policy.provenance_boost": 0.05,
        "policy.adaptive_enabled": True, "shocks.ticks": (2, 4, 6, 8), "shocks.duration": 3,
    })
    lists = {
        "sweep": (sweep_worlds(), ()),
        "robust_select": (robust_worlds(), ()),
        # all four shock kinds, their windows overlapping
        "shocked": (shocked, harness.default_shocks(shocked[0])),
        "endogenous": (endogenous_worlds(), ()),
        "instruments": (instruments, harness.default_shocks(instruments[0])),
    }
    return {name: (worlds, shocks, alone(worlds, BATCH_TICKS, shocks))
            for name, (worlds, shocks) in lists.items()}


class TestLockstepBatches:
    """A world's record is the same byte for byte alone and in a batch of any size."""

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("size", [1, 3, None])
    @pytest.mark.parametrize("name", ["sweep", "robust_select", "shocked", "endogenous",
                                      "instruments"])
    def test_batch_equals_alone(self, world_lists, name, size, jobs):
        worlds, shocks, expected = world_lists[name]
        # The whole list is one batch: the worlds differ only in econ or the levy.
        assert len({harness._batch_key(world) for world in worlds}) == 1
        assert batched(worlds, BATCH_TICKS, size or len(worlds), jobs, shocks) == expected

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("fp_tol, endogenous", [(0.0, False), (1e-16, False), (1e-16, True)])
    def test_failing_worlds_retire_with_their_own_message(self, fp_tol, endogenous, jobs):
        # fp_tol 0 fails every world as it builds; at 1e-16, 3 worlds fail to
        # build, 15 fail at ticks 3 to 23, and 2 run through.
        worlds = sweep_worlds(**{"market.fp_tol": fp_tol, "ipi.endogenous_weights": endogenous})
        ticks = 30
        expected = alone(worlds, ticks)
        failed = sum(o.startswith("NoConvergence") for o in expected)
        built = sum(builds(params) for params in worlds)
        assert (built, failed) == ((0, 20) if fp_tol == 0.0 else (17, 18))
        if endogenous:
            # A fixed levy reads no index, so each world follows its
            # fixed-weight path: 7 of the 15 worlds that fail on it fail
            # first on a weight lane, with a message of their own.
            fixed = alone(sweep_worlds(**{"market.fp_tol": fp_tol}), ticks)
            assert sum(e != f for e, f in zip(expected, fixed)
                       if f.startswith("NoConvergence")) == 7
        assert batched(worlds, ticks, len(worlds), jobs) == expected

    def test_a_tick_that_loses_a_world_steps_each_world_alone(self, monkeypatch):
        # At fp_tol 1e-16, 17 of the grid's worlds build; tick 9 loses one of
        # the 12 still running, and tick 10 none of the 11 left.
        worlds = [w for w in sweep_worlds(**{"market.fp_tol": 1e-16}) if builds(w)]
        batch = [Simulation(params, master_seed=42) for params in worlds]
        twins = [Simulation(params, master_seed=42) for params in worlds]
        paths = [build_overlays(10, (), params) for params in worlds]
        sizes = []

        def spied(trust, *args, _fn=harness.market_step):
            sizes.append(len(trust))
            return _fn(trust, *args)

        monkeypatch.setattr(harness, "market_step", spied)
        live, trace = list(range(len(worlds))), []
        for tick, overlays in enumerate(zip(*paths), start=1):
            sizes.clear()
            rows = harness._step([batch[i] for i in live], [overlays[i] for i in live])
            lost = [i for i, row in zip(live, rows) if isinstance(row, NoConvergence)]
            # one call for the batch, then, when it loses a world, one per world
            assert sizes == [len(live)] + [1] * len(live) * bool(lost)
            for i, row in zip(live, rows):
                try:
                    alone_row = twins[i].advance(overlays[i])
                except NoConvergence as exc:
                    alone_row = exc
                assert repr(row) == repr(alone_row)  # the row, or the message, it gets alone
            trace.append((tick, len(live), lost))
            live = [i for i in live if i not in lost]
        assert trace[2:] == [(3, 17, [0, 4]), (4, 15, [9]), (5, 14, [11, 13]), (6, 12, []),
                             (7, 12, []), (8, 12, []), (9, 12, [7]), (10, 11, [])]

    def test_the_batch_key_names_every_parameter_the_tick_reads(self, monkeypatch):
        # `market_step` reads its parameters through a proxy that records
        # each read as "section.field"; worlds share a batch by `_batch_key`.
        reads, calls = set(), []

        class Section:
            def __init__(self, name, section):
                self._name, self._section = name, section

            def __getattr__(self, field):
                reads.add(f"{self._name}.{field}")
                return getattr(self._section, field)

        class Recorded:
            def __init__(self, params):
                self._params = params

            def __getattr__(self, name):
                return Section(name, getattr(self._params, name))

        def recorded(trust, populations, platforms, overlays, taxes, steps, params,
                     _fn=harness.market_step):
            calls.append((len(trust), any(step is not None for step in steps)))
            return _fn(trust, populations, platforms, overlays, taxes, steps, Recorded(params))

        monkeypatch.setattr(harness, "market_step", recorded)
        worlds = sweep_worlds(**{"policy.fiduciary": 0.5, "policy.provenance_boost": 0.05})[:3]
        worlds[1] = worlds[1].with_overrides({"ipi.endogenous_weights": True})
        run_worlds(worlds[1:2], 3)  # a lone weighing world
        run_worlds(worlds, 3)  # a batch that holds it
        assert calls == [(1, True)] * 3 + [(3, True)] * 3
        instruments = {"policy.fiduciary", "policy.provenance_boost"}
        assert instruments <= reads
        sections = {"agents", "market", "trust", "welfare", "platform"}
        assert sorted(read for read in reads
                      if read.split(".")[0] not in sections and read not in instruments) == []

    def test_worlds_that_differ_in_what_the_market_reads_do_not_share_a_batch(self):
        base = SimParams().with_overrides(SMALL)
        keys = {harness._batch_key(base.with_overrides(overrides)) for overrides in [
            {},
            {"policy.fiduciary": 0.3},
            {"policy.provenance_boost": 0.05},
            {"platform.trust_price": 400.0},
            {"agents.k_max": 3.0},
            {"welfare.harm_quad": -0.0},
        ]}
        assert len(keys) == 6


class TestWeightSensitivity:
    def test_identical_sets_give_identical_correlations(self):
        cfg = small_cfg(max_ticks=30, experiment="weight_sensitivity")
        report = run_weight_sensitivity(
            cfg, weight_sets=[(0.25, 0.25, 0.25, 0.25)] * 2
        )
        assert report["correlations"][0] == report["correlations"][1]

    def test_single_set(self):
        cfg = small_cfg(max_ticks=30, experiment="weight_sensitivity")
        report = run_weight_sensitivity(cfg, weight_sets=[(0.4, 0.3, 0.2, 0.1)])
        assert len(report["correlations"]) == 1


class TestNoise:
    def test_one_log_per_level_and_trial_plus_one_noise_free(self, tmp_path, monkeypatch):
        calls = {"synthesize_log": 0, "proxy_composite": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        cfg = small_cfg(tmp_path, max_ticks=5, experiment="noise_robustness")
        report = run_noise(cfg, noise_levels=[0.0, 0.1, 0.2], trials=4)
        assert calls == {"synthesize_log": 3 * 4 + 1, "proxy_composite": 3 * 4 + 1}
        assert report["errors"][0] == 0.0

    def test_one_tick_has_no_volatility(self, tmp_path):
        # Volatility is the spread of tick-to-tick changes, and one tick has none.
        report = run_noise(small_cfg(tmp_path, max_ticks=1, experiment="noise_robustness"),
                           noise_levels=[0.0, 0.1], trials=2)
        assert np.isnan(report["volatility"]).all()
        assert report["errors"][0] == 0.0 and report["errors"][1] > 0.0
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["volatility"] == [None, None]
        text = (tmp_path / "summary.txt").read_text(encoding="utf-8")
        assert text.count("volatility nan") == 2

    def test_noise_free_exposure_proxy_reads_the_recorded_pollution(self, monkeypatch):
        # The log reads the posture each tick was cleared under, so its
        # exposure share is the record's pollution up to rounding.
        seen = {}

        def records(*args, _original=harness._records, **kwargs):
            seen["records"] = _original(*args, **kwargs)
            return seen["records"]

        def synthesize(*args, _original=harness.synthesize_log, **kwargs):
            log = _original(*args, **kwargs)
            seen.setdefault("log", log)  # the first log is the noise-free one
            return log

        monkeypatch.setattr(harness, "_records", records)
        monkeypatch.setattr(harness, "synthesize_log", synthesize)
        cfg = ExperimentConfig(experiment="noise_robustness", master_seed=42, max_ticks=150)
        run_noise(cfg, noise_levels=[0.0], trials=1)
        (record,) = seen["records"]
        gap = np.abs(proxy_exposure(seen["log"]) - record.column("pollution"))
        assert len(gap) == 150 and gap.max() <= 1e-15

    @staticmethod
    def _outputs(tmp_path, name, overrides, ticks):
        """run_noise's report and written files, but for config.txt (which
        records the overrides)."""
        out = tmp_path / name
        cfg = ExperimentConfig(experiment="noise_robustness", max_ticks=ticks, out_dir=out,
                               overrides=overrides)
        report = run_noise(cfg, trials=2)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file() and p.name != "config.txt"}
        return hashlib.sha256(json.dumps([report, sorted(files)]).encode()
                              + b"".join(files.values())).hexdigest()

    def test_fixed_levy_computes_no_endogenous_weights(self, tmp_path, monkeypatch):
        # The proxy index reads ipi.w_*, and a fixed levy reads no index.
        fixed = self._outputs(tmp_path, "fixed", dict(SMALL), 30)

        def unread(*args, **kwargs):
            raise AssertionError("endogenous weights computed in a fixed-levy noise run")

        monkeypatch.setattr(harness, "weight_responses", unread)
        endogenous = self._outputs(
            tmp_path, "endogenous", {**SMALL, "ipi.endogenous_weights": True}, 30
        )
        assert endogenous == fixed

    def test_adaptive_levy_reads_endogenous_weights(self, tmp_path):
        adaptive = {"policy.adaptive_enabled": True}
        fixed = self._outputs(tmp_path, "fixed", adaptive, 80)
        endogenous = self._outputs(
            tmp_path, "endogenous", {**adaptive, "ipi.endogenous_weights": True}, 80
        )
        assert endogenous != fixed


class TestSupplyFloor:
    def test_zero_amplification_with_levy_pins_low_quality_at_floor(self):
        # Frozen platform, no amplification for low quality, plus a levy:
        # supply sits at the logit floor and never grows.
        overrides = dict(SMALL)
        overrides.update({
            "platform.gamma_init": 1.0,
            "platform.lr_gamma": 0.0,
            "platform.lr_mod": 0.0,
            "policy.tax_init": 2.0,
        })
        params = SimParams().with_overrides(overrides)
        from dataclasses import replace

        sim = Simulation(params, PolicyConfig(tax_l=2.0), 42)
        sim.platform = replace(sim.platform, gamma_l=0.0, gamma_h=2.0)
        rows = [sim.advance() for _ in range(50)]
        q_l = [r.q_l for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(q_l, q_l[1:]))  # never grows
        assert q_l[-1] < 0.15 * params.agents.n_producers  # at the floor
        baseline = Simulation(SimParams().with_overrides(SMALL), PolicyConfig(), 42)
        baseline_rows = [baseline.advance() for _ in range(50)]
        assert q_l[-1] < baseline_rows[-1].q_l


def assert_config_exit_code(tmp_path, key, value):
    """Both `validate-config` and a run reject the value with exit code 2."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    code = main([
        "baseline", "--ticks", "1", "--out", str(tmp_path / "x"),
        "--agents.n_producers", "30", "--agents.n_consumers", "60", f"--{key}", value,
    ])
    assert code == 2


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text("econ.ai_rental = 0.9\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 0

    def test_sweep_with_a_constant_outcome_prints_undefined(self, tmp_path, capsys):
        # Under a strong duty every cell's final pollution is 0, so its
        # correlation with r is undefined.
        out = tmp_path / "out"
        assert main(["sweep", "--policy.fiduciary", "0.9", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "corr(r, pollution) = undefined" in lines
        assert "corr(r, welfare) = -0.993" in lines
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["corr_r_pollution"] is None
        assert summary["corr_r_welfare"] == pytest.approx(-0.9925797121206016, rel=1e-9)

    @pytest.mark.parametrize("command,ticks", [("sweep", 0), ("weight-sensitivity", 0),
                                               ("weight-sensitivity", 1)])
    def test_correlations_without_a_series_print_undefined(self, tmp_path, capsys, command,
                                                           ticks):
        # Final means of no ticks are NaN, and a series shorter than two has no spread.
        out = tmp_path / "out"
        flags = [x for key, value in SMALL.items() for x in (f"--{key}", str(value))]
        assert main([command, "--ticks", str(ticks), "--out", str(out), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if command == "sweep":
            assert {"corr(r, welfare) = undefined", "corr(r, pollution) = undefined"} <= set(lines)
            assert summary["corr_r_welfare"] is None and summary["corr_r_pollution"] is None
        else:
            assert sum(line.endswith(": undefined") for line in lines) == 6
            assert summary["correlations"] == [None] * 6
            table = (out / "results" / "weight_sensitivity.csv").read_text(encoding="utf-8")
            assert [row.split(",")[-2:] for row in table.splitlines()[1:]] == [["nan", "nan"]] * 6

    def test_shock_measurements_without_a_window_are_undefined(self, tmp_path, capsys):
        # A shock at tick 0 has no pre-shock tick, and one on the last tick
        # peaks there, with no post-peak tick.
        out = tmp_path / "out"
        flags = [x for key, value in SMALL.items() for x in (f"--{key}", str(value))]
        assert main(["shocks", "--shocks.ticks", "0,29", "--ticks", "30", "--out", str(out),
                     *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "shock response: mean IPI rise undefined"
        assert lines[1].startswith("  trust_shock@0: undefined peak ")
        assert lines[1].endswith("/tick (10 declining)")
        assert lines[2].startswith("  capability_jump@29: +")
        assert lines[2].endswith(" recovery undefined (0 declining)")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        first, last = summary["responses"]
        assert summary["mean_rise_pct"] is None
        assert first["pre_mean"] is None and first["rise_pct"] is None
        assert first["recovery_per_tick"] > 0.0
        assert last["rise_pct"] > 0.0 and last["recovery_per_tick"] is None
        table = (out / "results" / "shock_responses.csv").read_text(encoding="utf-8")
        # pre_mean, rise_pct and recovery_per_tick
        undefined = [[row.split(",")[i] == "nan" for i in (2, 4, 5)]
                     for row in table.splitlines()[1:]]
        assert undefined == [[True, True, False], [False, False, True]]

    def test_a_burst_on_the_only_tick_has_no_rise_or_recovery(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = [x for key, value in SMALL.items() for x in (f"--{key}", str(value))]
        assert main(["event-detection", "--ticks", "1", "--out", str(out), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["event detection: burst at tick 0, peak IPI rise undefined",
                             "recovery undefined"]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["peak_rise_pct"] is None and summary["recovery_per_tick"] is None

    def test_robust_select_without_ticks_exits_config_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["robust-select", "--ticks", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "run.max_ticks" in err and not out.exists()

    def test_validate_config_bad_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus.key = 1\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 2

    def test_baseline_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "baseline", "--seed", "42", "--ticks", "12", "--out", str(out),
            "--agents.n_producers", "30", "--agents.n_consumers", "60",
            "--ipi.anchor_m_points", "3", "--ipi.anchor_gamma_points", "3",
            "--ipi.anchor_tax_points", "2",
        ])
        assert code == 0
        assert (out / "results" / "run.csv").exists()
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_ticks"] == 12

    def test_report_on_an_empty_record_prints_strict_json(self, tmp_path, capsys):
        out = tmp_path / "out"
        flags = [x for key, value in SMALL.items() for x in (f"--{key}", str(value))]
        assert main(["baseline", "--ticks", "0", "--out", str(out), *flags]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0

        def non_standard(name):
            raise AssertionError(f"report printed {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=non_standard)
        assert payload["n_ticks"] == 0
        assert payload["final_means"] and set(payload["final_means"].values()) == {None}

    @pytest.mark.parametrize("flags, config, message", [
        (["--econ.ai_rental", "abc"], None, "cannot parse 'abc' for key 'econ.ai_rental'"),
        (["--ipi.endogenous_weights", "maybe"], None,
         "expected a boolean for 'ipi.endogenous_weights', got 'maybe'"),
        (["--agents.n_producers", "1e3"], None, "cannot parse '1e3' for key 'agents.n_producers'"),
        (["--shocks.ticks", "4 x"], None, "cannot parse '4 x' for key 'shocks.ticks'"),
        ([], "run.max_ticks = abc", "cannot parse 'abc' for key 'run.max_ticks'"),
    ])
    def test_unparsable_values_name_the_dotted_key(self, tmp_path, capsys, flags, config,
                                                   message):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config + "\n", encoding="utf-8")
            flags = ["--config", str(path)]
        code = main(["baseline", "--ticks", "3", "--out", str(tmp_path / "x"), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bad_flag_value_exits_config_code(self, tmp_path):
        code = main([
            "baseline", "--ticks", "2", "--out", str(tmp_path / "x"),
            "--agents.n_producers", "not_a_number",
        ])
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("trust.decay", "0"),
        ("trust.t_max", "0"),
        ("trust.pollution_hit", "0"),
        ("trust.repair_flow", "-0.01"),
    ])
    def test_trust_bounds_exit_config_code(self, tmp_path, key, value):
        assert_config_exit_code(tmp_path, key, value)

    @pytest.mark.parametrize("key, value", [
        ("ipi.anchor_m_points", "0"),
        ("ipi.anchor_gamma_points", "-1"),
        ("ipi.anchor_gamma_points", "1"),
        ("ipi.anchor_tax_points", "0"),
        ("agents.n_producers", "0"),
        ("agents.n_consumers", "0"),
        ("platform.revenue_share", "1.5"),
        ("econ.ai_rental", "-1"),
        ("trust.initial", "-1"),
        ("platform.gamma_init", "3"),
        ("platform.gamma_init", "-0.5"),
        ("platform.gamma_max", "0"),
        ("platform.gamma_max", "-1"),
        ("platform.moderation_init", "2"),
        ("platform.ad_rate", "0"),
        ("platform.trust_price", "-1"),
        ("platform.lr_gamma", "-1"),
        ("platform.lr_mod", "-1"),
        ("agents.k_max", "-1"),
        ("agents.du_h", "-1"),
        ("agents.du_l", "-1"),
        ("agents.rationality", "-1"),
        ("agents.mean_prod_h", "0"),
        ("agents.mean_prod_l", "-1"),
        ("agents.prod_log_sd", "-1"),
        ("econ.wage", "0"),
        ("econ.tfp_h", "0"),
        ("econ.tfp_l", "0"),
        ("econ.sigma_h", "0"),
        ("econ.sigma_l", "-1"),
        ("econ.delta_h", "1"),
        ("econ.delta_l", "0"),
        ("shocks.cost_drop", "1"),
        ("shocks.trust_shock", "-0.1"),
        ("shocks.duration", "-5"),
        # Shocks enter at whole ticks: a fraction, a negative tick and one
        # that overflows every float are rejected before any run.
        ("shocks.ticks", "1.5"),
        ("shocks.ticks", "-1"),
        ("shocks.ticks", "1e400"),
        ("ipi.sigma_tech", "0"),
        ("ipi.w_pollution", "-1"),
        ("ipi.w_tech", "0.2"),
        ("policy.tax_init", "-1"),
        ("policy.fiduciary", "2"),
        ("policy.provenance_boost", "-0.1"),
        ("market.pi_base", "nan"),
        ("market.kappa_verify", "-1"),
        ("market.kappa_pollution", "-1"),
        ("market.fp_tol", "-1"),
        ("welfare.harm_lin", "nan"),
        ("platform.fd_step", "inf"),
        ("platform.fd_step", "0"),
        ("platform.fd_step", "-0.001"),
        ("platform.moderation_cost", "-1"),
        ("platform.engagement_bias", "-1"),
        ("ipi.weight_perturbation", "0"),
        ("ipi.anchor_tax_max", "-1"),
        ("ipi.cap_det_growth", "-1"),
        ("ipi.cap_det_growth", "-2"),
        ("ipi.cap_gen_growth", "-2"),
        ("proxy.items_per_type", "0"),
        ("proxy.items_per_type", "-1"),
        ("proxy.detector_acc_base", "0"),
        ("proxy.detector_acc_base", "1.5"),
        ("proxy.churn_base_floor", "-1"),
        ("proxy.churn_base_floor", "0"),  # at full trust the churn baseline is the floor
        ("proxy.churn_trust_slope", "-1"),
        ("proxy.harm_rate_fraud", "-1"),
        ("proxy.churn_gap_coef", "100"),
        ("proxy.detector_exponent", "-0.1"),
    ])
    def test_section_bounds_exit_config_code(self, tmp_path, key, value):
        assert_config_exit_code(tmp_path, key, value)

    @pytest.mark.parametrize("whole, ticks", [("4.0", "4"), ("1e1", "10"), ("2.0 4e0", "2 4")])
    def test_whole_shock_ticks_written_as_floats_run_as_integers(self, tmp_path, whole, ticks):
        flags = [x for key, value in SMALL.items() for x in (f"--{key}", str(value))]
        outputs = []
        for name, value in (("whole", whole), ("ticks", ticks)):
            out = tmp_path / name
            assert main(["shocks", "--ticks", "20", "--out", str(out), *flags,
                         "--shocks.ticks", value]) == 0
            outputs.append({path.relative_to(out): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        assert outputs[0] and outputs[0] == outputs[1]

    def test_integer_shock_ticks_parse_exactly(self):
        # 2**53 + 1 has no float: parsed through float it would lose its last bit.
        params = SimParams().with_overrides({"shocks.ticks": "9007199254740993 1e1 4.0"})
        assert params.shocks.ticks == (2**53 + 1, 10, 4)

    @pytest.mark.parametrize("value", ["1.5", "-1", "1e400"])
    def test_shock_ticks_that_are_not_whole_ticks_name_the_key(self, tmp_path, capsys, value):
        code = main(["shocks", "--ticks", "20", "--out", str(tmp_path / "x"),
                     "--shocks.ticks", value])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: shocks.ticks must be nonnegative integers")

    @pytest.mark.parametrize("command, ticks, config, named", [
        ("noise-robustness", 3, {"proxy.impression_scale": "1e308"},
         ("proxy.impression_scale",)),
        # The harm feedback counts overflow where the impressions do not.
        ("noise-robustness", 3, {"proxy.harm_rate_fraud": "1e308"},
         ("proxy.harm_rate_clickbait, _misinformation and _fraud = (0.05, 0.02, 1e+308)",)),
        # cap_gen ** kappa_gen at cap_gen 1.01: the endogenous weights' stepped stock.
        ("baseline", 3, {"ipi.endogenous_weights": "true", "ipi.kappa_gen": "1e5"},
         ("ipi.kappa_gen", "at tick 1 (cap_gen = 1.01)")),
        # Capability stocks that leave the finite positive floats, found before tick 1.
        ("baseline", 40, {"ipi.cap_det_growth": "1e10"}, ("ipi.cap_det_growth", "tick 31")),
        ("noise-robustness", 40, {"ipi.cap_det_growth": "1e10"},
         ("ipi.cap_det_growth", "tick 31")),
        ("sweep", 40, {"ipi.cap_det_growth": "1e10"}, ("ipi.cap_det_growth", "tick 31")),
        ("baseline", 60, {"ipi.cap_det_growth": "-0.999999"},
         ("ipi.cap_det_growth", "tick 54")),
        ("baseline", 60, {"ipi.cap_gen_growth": "-0.999999", "econ.ai_rental": "0.5"},
         ("ipi.cap_gen_growth", "tick 54")),
        ("baseline", 60, {"ipi.cap_gen_growth": "1e10", "econ.ai_rental": "0.5"},
         ("ipi.cap_gen_growth", "tick 31")),
        # Both stocks finite and positive, their ratio below the smallest float.
        ("baseline", 200, {"ipi.cap_gen_growth": "-0.99", "ipi.cap_det_growth": "1",
                           "econ.ai_rental": "0.5"},
         ("ipi.cap_gen_growth", "ipi.cap_det_growth", "tick 141")),
        # A burst whose extra supply magnitude * n_producers overflows, found
        # before tick 1; event-detection bursts at tick ticks // 2 + 1.
        ("event-detection", 3, {"shocks.fake_news_burst": "1e308"},
         ("shocks.fake_news_burst", "tick 2")),
        ("shocks", 150, {"shocks.fake_news_burst": "1e308"},
         ("shocks.fake_news_burst", "tick 101")),
        # A burst that stays finite overflows the harm's square: welfare is -inf.
        ("event-detection", 3, {"shocks.fake_news_burst": "1e300"}, ("welfare", "tick 2")),
        # A fiduciary duty weighs the harm in the platform's lookahead, which overflows too.
        ("event-detection", 3, {"shocks.fake_news_burst": "1e300", "policy.fiduciary": "0.5"},
         ("welfare", "tick 2")),
        ("shocks", 150, {"shocks.fake_news_burst": "1e300"}, ("welfare", "tick 101")),
        # A finite burst whose amplified exposure gamma_L * q_l overflows.
        ("event-detection", 3, {"shocks.fake_news_burst": "2.24e306"},
         ("shocks.fake_news_burst", "platform.gamma_max")),
        # A weight lane's scaled output whose exposure overflows, and one
        # whose welfare overflows to -inf.
        ("baseline", 5, {"ipi.endogenous_weights": "true", "ipi.weight_perturbation": "1e308"},
         ("ipi.weight_perturbation", "exposure")),
        ("baseline", 3, {"ipi.endogenous_weights": "true", "ipi.weight_perturbation": "1e300"},
         ("ipi.weight_perturbation", "welfare", "tick 1")),
    ])
    def test_valid_configs_the_run_rejects_exit_config_code(self, tmp_path, capsys, command,
                                                            ticks, config, named):
        # The config is valid; the run finds what it breaks before dividing
        # by it, with no RuntimeWarning on the way.
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 0
        capsys.readouterr()
        code = main([command, "--ticks", str(ticks), "--out", str(tmp_path / "x"),
                     "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert all(name in err for name in named)

    @pytest.mark.parametrize("config, named", [
        ({"welfare.value_h": "1e308"}, ("welfare section",)),  # both anchors inf
        # Low-quality exposure as a good: the worst corner is the lattice's best posture.
        ({"platform.gamma_init": "0", "welfare.harm_lin": "-100"}, ("ipi.anchor_*",)),
        # Productivity draws that leave the positive finite floats: the
        # rescaling underflows to 0, or the draws overflow.
        ({"agents.prod_log_sd": "38"}, ("agents.prod_log_sd",)),
        ({"agents.prod_log_sd": "1e200"}, ("agents.prod_log_sd",)),
        ({"agents.mean_prod_h": "1e308"}, ("agents.mean_prod_h",)),
        ({"agents.mean_prod_l": "1e308"}, ("agents.mean_prod_l",)),
        # Every draw finite, their mean not: the aggregation weights would all be 0.
        ({"agents.mean_prod_h": "1e307"}, ("agents.mean_prod_h",)),
        # Every cost 0 and gamma_max 1 on the small lattice: the worst corner is its best.
        ({"agents.k_max": "0", "platform.gamma_max": "1", **SMALL}, ("ipi.anchor_*",)),
        # Costs a subnormal span apart: the CDF's slope between knots overflows.
        ({"agents.k_max": "1e-310"}, ("agents.k_max", "agents.n_consumers")),
        ({"agents.k_max": "1e-320", "agents.du_h": "0", "agents.du_l": "0"},
         ("agents.k_max", "agents.n_consumers")),
    ])
    def test_configs_whose_world_does_not_build_exit_config_code(self, tmp_path, capsys,
                                                               config, named):
        # `validate-config` builds the world a run builds before tick 1
        # (populations and welfare anchors) and rejects it as the run does.
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        codes = [main(["validate-config", "--config", str(path)])]
        errors = [capsys.readouterr().err]
        codes.append(main(["baseline", "--ticks", "5", "--out", str(tmp_path / "x"),
                           "--config", str(path)]))
        errors.append(capsys.readouterr().err)
        assert codes == [2, 2]
        assert errors[0] == errors[1]
        assert errors[0].startswith("config error: ") and errors[0].count("\n") == 1
        assert all(name in errors[0] for name in named)

    @pytest.mark.parametrize("perturbation", ["1e308", "1e300"])
    def test_an_overflowing_weight_lane_fails_alone_as_in_a_batch(self, tmp_path, capsys,
                                                                  perturbation):
        errors = []
        for command in ("baseline", "sweep"):  # one world, then a batch of 20
            assert main([command, "--ticks", "3", "--out", str(tmp_path / command),
                         "--ipi.endogenous_weights", "true",
                         "--ipi.weight_perturbation", perturbation]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("config error: ")

    def test_a_world_whose_anchors_miss_the_tolerance_validates(self, tmp_path):
        # The run exits 3, which the exit-code contract allows for a valid config.
        path = tmp_path / "run.cfg"
        path.write_text("market.fp_tol = 0\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["baseline", "--ticks", "1", "--out", str(tmp_path / "x"),
                     "--config", str(path)]) == 3

    @pytest.mark.parametrize("overrides", [
        ["--agents.k_max", "1e20", "--agents.du_l", "1e30"],  # everyone verifies: V = 1
        ["--agents.k_max", "1e20"],
        ["--agents.k_max", "1e308"],  # the total verification outlay overflows to inf
    ])
    def test_costs_past_two_to_the_53_run_without_a_warning(self, tmp_path, capsys, overrides):
        # The flat CDF segment past the largest cost keeps its unit span.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["baseline", "--ticks", "5", "--out", str(tmp_path / "x"), *overrides])
        assert code in (0, 2), capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("run.max_ticks", "abc"),
        ("run.master_seed", "1.5"),
        ("run.experiment", "nonsense"),
        ("run.master_seed", "-3"),
        ("run.jobs", "0"),
        ("run.max_ticks", "-1"),
    ])
    def test_bad_run_keys_exit_config_code(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        codes = [main(["validate-config", "--config", str(path)])]
        errors = [capsys.readouterr().err]
        codes.append(main(["baseline", "--ticks", "1", "--out", str(tmp_path / "x"),
                           "--config", str(path), *(f"--{k}={v}" for k, v in SMALL.items())]))
        errors.append(capsys.readouterr().err)
        assert codes == [2, 2]
        for err in errors:
            assert err.startswith("config error: ") and err.count("\n") == 1
            assert key.removeprefix("run.") in err

    def test_run_flags_beat_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.master_seed = 7\nrun.jobs = 2\nrun.max_ticks = 4\n",
                        encoding="utf-8")

        def resolved(name, *flags):
            out = tmp_path / name
            assert main(["baseline", "--out", str(out), "--config", str(path), *flags,
                         *(f"--{k}={v}" for k, v in SMALL.items())]) == 0
            seed = json.loads((out / "summary.json").read_text())["metadata"]["seed"]
            run_lines = [line for line in (out / "config.txt").read_text().splitlines()
                         if line.startswith("run.")]
            return seed, run_lines

        assert resolved("file") == ("7", [
            "run.experiment = baseline", "run.master_seed = 7", "run.max_ticks = 4",
            "run.jobs = 2"])
        assert resolved("flags", "--seed", "9", "--jobs", "1", "--ticks", "3") == ("9", [
            "run.experiment = baseline", "run.master_seed = 9", "run.max_ticks = 3",
            "run.jobs = 1"])

    def test_capability_power_overflow_exits_config_code(self, tmp_path, capsys):
        # Cheap AI compounds cap_gen 2 % a tick; its power overflows at tick 36.
        code = main([
            "baseline", "--ticks", "50", "--out", str(tmp_path / "x"),
            "--econ.ai_rental", "0.5", "--ipi.kappa_gen", "1000",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "ipi.kappa_gen" in err and "tick 36" in err

    def test_overflowing_welfare_squares_keep_their_correlations(self, tmp_path, capsys):
        code = main(["baseline", "--ticks", "3", "--out", str(tmp_path / "x"),
                     "--welfare.value_h", "1e300"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        corr = json.loads((tmp_path / "x" / "summary.json").read_text())["stats"]["correlations"]
        assert corr["ipi_welfare"] < -0.99 and corr["pollution_welfare"] > 0.99

    def test_weight_sensitivity_rejects_endogenous_weights(self, tmp_path, capsys):
        # Endogenous weights would replace all six weight sets alike.
        code = main([
            "weight-sensitivity", "--ticks", "3", "--out", str(tmp_path / "x"),
            "--ipi.endogenous_weights", "true",
        ])
        assert code == 2
        assert "ipi.endogenous_weights" in capsys.readouterr().err

    def test_gamma_init_bound_follows_gamma_max(self):
        with pytest.raises(ConfigError):
            SimParams().with_overrides({"platform.gamma_max": 0.5})  # gamma_init is 1.0
        SimParams().with_overrides({"platform.gamma_max": 0.5, "platform.gamma_init": 0.5})
        # With no amplification at all the anchor lattice collapses onto its worst corner.
        with pytest.raises(ConfigError, match="platform.gamma_max must be positive"):
            SimParams().with_overrides({"platform.gamma_max": 0.0, "platform.gamma_init": 0.0})
        SimParams().with_overrides({"platform.gamma_max": 1e-300, "platform.gamma_init": 0.0})

    def test_total_cost_drop_exits_config_code(self, tmp_path):
        code = main(["shocks", "--out", str(tmp_path / "x"), "--shocks.cost_drop", "1"])
        assert code == 2

    @pytest.mark.parametrize("ticks", [0, 1, 2])
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_short_horizons_keep_the_exit_code_contract(self, tmp_path, experiment, ticks):
        out = tmp_path / "x"
        code = main([
            experiment.replace("_", "-"), "--ticks", str(ticks), "--out", str(out),
            "--agents.n_producers", "30", "--agents.n_consumers", "60",
            "--ipi.anchor_m_points", "3", "--ipi.anchor_gamma_points", "3",
            "--ipi.anchor_tax_points", "2",
        ])
        # The default shock ticks (40...) and a burst at tick ticks // 2 = 0 lie
        # outside such horizons: a config error, never a crash.
        # robust-select has no final window to select from at 0 ticks.
        outside = experiment == "shocks" or (
            experiment in ("event_detection", "robust_select") and ticks == 0)
        assert code == (2 if outside else 0)
        if code == 0:
            # Undefined statistics are written as null, never as NaN.
            def reject(token):
                raise AssertionError(f"summary.json holds {token}")

            json.loads((out / "summary.json").read_text(), parse_constant=reject)

    def test_large_detector_exponent_runs(self, tmp_path):
        # Detection ahead of generation caps the detector ratio at 1 before any power.
        code = main([
            "noise-robustness", "--ticks", "3", "--out", str(tmp_path / "x"),
            "--proxy.detector_exponent", "1e6",
        ])
        assert code == 0

    def test_robust_select_with_every_policy_failing_exits_code_three(self, tmp_path):
        code = main([
            "robust-select", "--ticks", "5", "--out", str(tmp_path / "x"),
            "--agents.n_producers", "30", "--agents.n_consumers", "60",
            "--market.fp_tol", "0",
        ])
        assert code == 3

    def test_convergence_failure_exits_code_three(self, tmp_path, capsys):
        # noise-robustness runs its world through the world runner too, so
        # its message names the world.
        for command in ("baseline", "noise-robustness"):
            code = main([
                command, "--ticks", "3", "--out", str(tmp_path / command),
                "--agents.n_producers", "30", "--agents.n_consumers", "60",
                "--market.fp_tol", "0",
            ])
            assert code == 3
            assert capsys.readouterr().err.startswith(
                "convergence failure: world 0: NoConvergence: "
            )

    def test_report_on_missing_directory(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2

    @pytest.mark.parametrize("lines", [[HEADER, "3,abc"], ["tick,ipi", "1,0.5"]])
    def test_report_on_a_malformed_record_exits_config_code(self, tmp_path, capsys, lines):
        run_csv = tmp_path / "results" / "run.csv"
        run_csv.parent.mkdir()
        run_csv.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {run_csv}, line ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_exits_config_code(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"econ.ai_rental = 0.9 # \xff\xfe\n")
        codes = [main(["validate-config", "--config", str(path)]),
                 main(["baseline", "--ticks", "1", "--out", str(tmp_path / "x"),
                       "--config", str(path)])]
        assert codes == [2, 2]
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith(f"config error: {path}: cannot read the config file: ")
        assert not (tmp_path / "x").exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "infomarket.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "experiment" in proc.stdout


POSITIVE = ("1.0", "0.5", "0", "-1", "nan", "inf", "1e308")
NONNEGATIVE = ("0", "0.5", "-0.1", "nan", "inf", "1e308")
OPEN_UNIT = ("0.5", "0", "1", "1.5", "nan")
WEIGHT = ("0.35", "0.25", "0", "1", "-1", "nan")
# Bounded keys and values on both sides of their bounds.
CONFIG_SPACE = {
    **{f"econ.{k}": POSITIVE for k in ("sigma_h", "sigma_l", "tfp_h", "tfp_l", "ai_rental", "wage")},
    **{f"econ.{k}": OPEN_UNIT for k in ("delta_h", "delta_l")},
    **{f"agents.{k}": NONNEGATIVE for k in ("rationality", "prod_log_sd", "k_max", "du_h", "du_l")},
    **{f"agents.{k}": POSITIVE for k in ("mean_prod_h", "mean_prod_l")},
    "platform.revenue_share": OPEN_UNIT,
    "platform.gamma_init": ("0", "1", "2", "3", "-0.5", "nan"),
    # Positive, and at least gamma_init (1 unless drawn).
    "platform.gamma_max": ("2", "1", "0.5", "1e-9", "0", "-1", "nan", "1e308"),
    "platform.moderation_init": ("0", "0.5", "1", "2", "nan"),
    "platform.ad_rate": POSITIVE,
    **{f"platform.{k}": NONNEGATIVE for k in (
        "lr_gamma", "lr_mod", "trust_price", "moderation_cost", "engagement_bias",
    )},
    "platform.fd_step": ("1e-3", "0.1", "0", "-1e-3", "nan", "inf"),
    "market.pi_base": ("0.85", "0.3", "1.2", "nan", "inf"),
    **{f"market.{k}": NONNEGATIVE for k in ("kappa_pollution", "kappa_verify")},
    "market.fp_tol": ("1e-8", "0", "-1", "nan", "1"),
    "trust.decay": OPEN_UNIT,
    **{f"trust.{k}": POSITIVE for k in ("pollution_hit", "t_max")},
    **{f"trust.{k}": NONNEGATIVE for k in ("repair_gain", "repair_flow")},
    "trust.initial": ("0", "0.5", "2", "-1", "nan"),
    **{f"ipi.{k}": WEIGHT for k in ("w_pollution", "w_deadweight", "w_trust", "w_tech")},
    **{f"ipi.{k}": POSITIVE for k in ("sigma_tech", "weight_perturbation")},
    "ipi.anchor_tax_max": NONNEGATIVE,
    **{f"ipi.anchor_{k}_points": ("1", "2", "9", "0", "-1") for k in ("m", "gamma", "tax")},
    **{f"ipi.{k}": ("0.02", "-0.5", "-1", "nan") for k in ("cap_gen_growth", "cap_det_growth")},
    "ipi.endogenous_weights": ("true", "false"),
    "proxy.items_per_type": ("1", "5", "0", "-1", "nan"),
    **{f"proxy.{k}": POSITIVE for k in ("impression_scale", "churn_base_floor")},
    **{f"proxy.{k}": NONNEGATIVE for k in (
        "harm_rate_clickbait", "harm_rate_misinformation", "harm_rate_fraud", "sev_clickbait",
        "sev_misinformation", "sev_fraud", "churn_trust_slope", "churn_gap_coef",
        "detector_exponent",
    )},
    "proxy.detector_acc_base": ("0.95", "1", "0", "1.5", "nan"),
    "policy.tax_init": NONNEGATIVE,
    "policy.fiduciary": ("0", "0.3", "1", "2", "-1", "nan"),
    "policy.provenance_boost": ("0", "0.05", "0.2", "-0.1", "nan"),
    # event-detection's burst falls at tick 1 of 3; a window may outlast the horizon.
    "shocks.duration": ("0", "1", "5", "-1", "1.5"),
    "shocks.cost_drop": ("0", "0.5", "0.99", "1", "-0.1", "nan"),
    # Whole ticks inside the 3-tick horizon, and three that no run accepts.
    "shocks.ticks": ("0", "2", "0 1", "2.0", "1.5", "-1", "1e400"),
    **{f"shocks.{k}": NONNEGATIVE for k in ("capability_jump", "fake_news_burst", "trust_shock")},
    # Unbounded keys must still be finite.
    **{key: ("0.1", "nan", "inf") for key in (
        "welfare.value_h", "welfare.harm_lin", "welfare.harm_quad", "welfare.lambda_trust",
        "ipi.mu_tech", "ipi.kappa_gen",
    )},
}


# At 1e308 these keys pass `validate-config` and break a check that only a
# run makes, the proxy event log or a burst's supply, which
# `TestCli.test_valid_configs_the_run_rejects_exit_config_code` pins; and
# robust-select's worlds set their own `econ.ai_rental`.  Every value runs
# alone through `test_every_single_value_follows_the_exit_rule`.
RUN_CHECKED = {"econ.ai_rental", "proxy.impression_scale", "proxy.harm_rate_clickbait",
               "proxy.harm_rate_misinformation", "proxy.harm_rate_fraud",
               "shocks.fake_news_burst"}
DRAWN_SPACE = {key: tuple(v for v in values if key not in RUN_CHECKED or v != "1e308")
               for key, values in CONFIG_SPACE.items()}


# The small sizes, and the default shock ticks moved inside the 3-tick horizon.
UNDRAWN = {**SMALL, "shocks.ticks": 1}


def write_small_world(path: Path, config: dict) -> Path:
    """Write ``config`` over `UNDRAWN` (a drawn key keeps its drawn value), so
    that `validate-config` and a run read one world."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**UNDRAWN, **config}.items()),
                    encoding="utf-8")
    return path


class TestConfigSpace:
    @given(config=st.lists(st.sampled_from(sorted(DRAWN_SPACE)), min_size=1, max_size=3,
                           unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                               {key: st.sampled_from(DRAWN_SPACE[key]) for key in keys})))
    # Every cost 0 and gamma_max 1 collapse the small world's anchors.
    @example(config={"agents.k_max": "0", "platform.gamma_max": "1"})
    @settings(max_examples=40, deadline=None)
    def test_no_config_exits_one(self, config):
        """Accepted configs run or fail to converge; rejected ones exit 2 from every command."""
        with tempfile.TemporaryDirectory() as tmp:
            path = write_small_world(Path(tmp) / "space.cfg", config)
            validated = main(["validate-config", "--config", str(path)])
            ran = [
                main([experiment, "--ticks", "3", "--out", str(Path(tmp) / "x"),
                      "--config", str(path)])
                # robust-select runs its six worlds as one lockstep batch
                for experiment in ("baseline", "noise-robustness", "robust-select",
                                   "event-detection", "shocks")
            ]
        assert validated in (0, 2)
        for code in ran:
            assert code == 2 if validated == 2 else code in (0, 3)

    @pytest.mark.parametrize("key, value", [(k, v) for k in CONFIG_SPACE for v in CONFIG_SPACE[k]])
    def test_every_single_value_follows_the_exit_rule(self, tmp_path, key, value):
        """Each pair of the space alone, so that no bad value goes undrawn."""
        path = write_small_world(tmp_path / "one.cfg", {key: value})
        validated = main(["validate-config", "--config", str(path)])
        ran = main(["baseline", "--ticks", "3", "--out", str(tmp_path / "x"),
                    "--config", str(path)])
        assert validated in (0, 2)
        assert ran == 2 if validated == 2 else ran in (0, 3)
