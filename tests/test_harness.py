"""Harness tests: records, determinism, config plumbing, statistics, CLI."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.cli import main
from infomarket.config import SimParams, parse_config_file
from infomarket.errors import ConfigError
from infomarket.harness import (
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
    run_weight_sensitivity,
    safe_corr,
    summary_stats,
    sweep_cells,
)
from infomarket.policy import PolicyConfig

SMALL = {
    "agents.n_producers": 30,
    "agents.n_consumers": 60,
    "ipi.anchor_m_points": 3,
    "ipi.anchor_gamma_points": 3,
    "ipi.anchor_tax_points": 2,
}


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
        record.write(path)
        reread = RunRecord.from_csv(path)
        assert summary_stats(reread) == summary_stats(record)

    def test_event_markers_survive_round_trip(self, tmp_path):
        params = SimParams().with_overrides(SMALL)
        sim = Simulation(params, PolicyConfig(), 42)
        record = sim.run(20, [ShockEvent(tick=10, kind="trust_shock", magnitude=0.2)])
        path = tmp_path / "run.csv"
        record.write(path)
        reread = RunRecord.from_csv(path)
        assert reread.rows[10].event == "trust_shock"
        assert reread.rows[5].event == ""

    def test_metadata_fields(self):
        record = run(small_cfg())
        assert record.metadata["seed"] == "42"
        assert len(record.metadata["config_hash"]) == 16


class TestOverlays:
    def test_out_of_horizon_shock_rejected(self):
        params = SimParams()
        with pytest.raises(ConfigError):
            build_overlays(10, [ShockEvent(tick=12, kind="cost_drop", magnitude=0.5)], params)

    def test_cost_drop_window(self):
        params = SimParams()
        overlays = build_overlays(20, [ShockEvent(tick=5, kind="cost_drop", magnitude=0.5)],
                                  params)
        assert overlays[4].ai_rental is None
        for t in range(5, 10):
            assert overlays[t].ai_rental == pytest.approx(0.5)
        assert overlays[10].ai_rental is None
        assert overlays[5].event == "cost_drop"

    def test_capability_jump_reverts(self):
        params = SimParams()
        overlays = build_overlays(
            20, [ShockEvent(tick=5, kind="capability_jump", magnitude=2.0)], params
        )
        assert overlays[5].cap_gen_mult == pytest.approx(3.0)
        assert overlays[10].cap_gen_mult == pytest.approx(1.0 / 3.0)

    def test_zero_magnitude_is_noop(self):
        params = SimParams()
        overlays = build_overlays(
            20,
            [ShockEvent(tick=5, kind=k, magnitude=0.0)
             for k in ("cost_drop", "capability_jump", "fake_news_burst", "trust_shock")],
            params,
        )
        ov = overlays[5]
        assert ov.ai_rental == pytest.approx(params.econ.ai_rental)
        assert ov.cap_gen_mult == 1.0
        assert ov.extra_q_l == 0.0
        assert ov.trust_delta == 0.0

    def test_total_cost_drop_rejected(self):
        # The window's rental rate, ai_rental * (1 - magnitude), must stay positive.
        with pytest.raises(ConfigError):
            ShockEvent(tick=5, kind="cost_drop", magnitude=1.0)
        ShockEvent(tick=5, kind="fake_news_burst", magnitude=1.0)


class TestSummaryStats:
    def _record(self, ipi, welfare):
        rows = [
            TickRow(tick=t + 1, q_h=1, q_l=1, pollution=0.5, verify_rate=0.5,
                    precision=0.8, trust=0.5, welfare=w, i1=0.5, i2=0.5, i3=0.5,
                    i4=0.5, ipi=i, tau=0, gamma_h=1, gamma_l=1, m=0)
            for t, (i, w) in enumerate(zip(ipi, welfare))
        ]
        return RunRecord(rows=rows, metadata={})

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
        assert stats.window == 20
        stats = summary_stats(self._record([0.5] * 300, list(range(300))))
        assert stats.window == 30

    def test_safe_corr_guards(self):
        assert safe_corr(np.array([1.0]), np.array([2.0])) is None
        assert safe_corr(np.ones(10), np.arange(10.0)) is None


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

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("econ.ai_rental = 0.8\n", encoding="utf-8")
        merged = load_overrides(path, {"econ.ai_rental": "1.2"})
        assert merged["econ.ai_rental"] == "1.2"

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
        ("ipi.anchor_tax_points", "0"),
        ("agents.n_producers", "0"),
        ("agents.n_consumers", "0"),
        ("platform.revenue_share", "1.5"),
        ("econ.ai_rental", "-1"),
        ("trust.initial", "-1"),
        ("platform.gamma_init", "3"),
        ("platform.gamma_init", "-0.5"),
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
    ])
    def test_section_bounds_exit_config_code(self, tmp_path, key, value):
        assert_config_exit_code(tmp_path, key, value)

    def test_gamma_init_bound_follows_gamma_max(self):
        with pytest.raises(ConfigError):
            SimParams().with_overrides({"platform.gamma_max": 0.5})  # gamma_init is 1.0
        SimParams().with_overrides({"platform.gamma_max": 0.5, "platform.gamma_init": 0.5})

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
        outside = experiment == "shocks" or (experiment == "event_detection" and ticks == 0)
        assert code == (2 if outside else 0)
        if code == 0:
            # Undefined statistics are written as null, never as NaN.
            def reject(token):
                raise AssertionError(f"summary.json holds {token}")

            json.loads((out / "summary.json").read_text(), parse_constant=reject)

    def test_robust_select_with_every_policy_failing_exits_code_three(self, tmp_path):
        code = main([
            "robust-select", "--ticks", "5", "--out", str(tmp_path / "x"),
            "--agents.n_producers", "30", "--agents.n_consumers", "60",
            "--market.fp_tol", "0",
        ])
        assert code == 3

    def test_convergence_failure_exits_code_three(self, tmp_path):
        code = main([
            "baseline", "--ticks", "3", "--out", str(tmp_path / "x"),
            "--agents.n_producers", "30", "--agents.n_consumers", "60",
            "--market.fp_tol", "0",
        ])
        assert code == 3

    def test_report_on_missing_directory(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "infomarket.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "experiment" in proc.stdout


POSITIVE = ("1.0", "0.5", "0", "-1", "nan", "inf")
NONNEGATIVE = ("0", "0.5", "-0.1", "nan", "inf")
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
    "platform.moderation_init": ("0", "0.5", "1", "2", "nan"),
    "platform.ad_rate": POSITIVE,
    **{f"platform.{k}": NONNEGATIVE for k in ("lr_gamma", "lr_mod", "trust_price")},
    "market.pi_base": ("0.85", "0.3", "1.2", "nan", "inf"),
    **{f"market.{k}": NONNEGATIVE for k in ("kappa_pollution", "kappa_verify")},
    "market.fp_tol": ("1e-8", "0", "-1", "nan", "1"),
    "trust.decay": OPEN_UNIT,
    **{f"trust.{k}": POSITIVE for k in ("pollution_hit", "t_max")},
    **{f"trust.{k}": NONNEGATIVE for k in ("repair_gain", "repair_flow")},
    "trust.initial": ("0", "0.5", "2", "-1", "nan"),
    **{f"ipi.{k}": WEIGHT for k in ("w_pollution", "w_deadweight", "w_trust", "w_tech")},
    "ipi.sigma_tech": POSITIVE,
    "policy.tax_init": NONNEGATIVE,
    "policy.fiduciary": ("0", "0.3", "1", "2", "-1", "nan"),
    "policy.provenance_boost": ("0", "0.05", "0.2", "-0.1", "nan"),
    # Unbounded keys must still be finite.
    **{key: ("0.1", "nan", "inf") for key in (
        "welfare.harm_quad", "platform.fd_step", "platform.engagement_bias", "ipi.mu_tech",
    )},
}


class TestConfigSpace:
    @given(config=st.lists(st.sampled_from(sorted(CONFIG_SPACE)), min_size=1, max_size=3,
                           unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                               {key: st.sampled_from(CONFIG_SPACE[key]) for key in keys})))
    @settings(max_examples=40, deadline=None)
    def test_no_config_exits_one(self, config):
        """Accepted configs run or fail to converge; rejected ones exit 2 from both commands."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
            validated = main(["validate-config", "--config", str(path)])
            ran = main([
                "baseline", "--ticks", "3", "--out", str(Path(tmp) / "x"), "--config", str(path),
                *(f"--{k}={v}" for k, v in SMALL.items()),
            ])
        assert validated in (0, 2)
        assert ran == 2 if validated == 2 else ran in (0, 3)
