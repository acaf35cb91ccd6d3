"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Expensive artifacts (the seed-42 baseline run, the parameter sweep) are
computed once per session and shared.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from infomarket.agents import (
    ConsumerPool,
    Postures,
    ProducerPool,
    consumer_posterior,
    verification_threshold,
)
from infomarket.config import PlatformParams, SimParams
from infomarket.econ import (
    CesTechnology,
    FactorPrices,
    cost_asymmetry_report,
    cost_share_ai,
    factor_ratio,
    log_cost_elasticity_fd,
    unit_cost,
)
from infomarket.harness import (
    ExperimentConfig,
    Simulation,
    robust_select,
    run,
    run_noise,
    run_policy_comparison,
    run_shocks,
    sweep_cells,
)
from infomarket.ipi import (
    FIXED_WEIGHTS,
    SyntheticEventLog,
    composite,
    dim_deadweight,
    dim_tech_risk,
    dim_trust_decay,
    proxy_churn_gap,
    proxy_detection_gap,
    proxy_exposure,
)
from infomarket.market import (
    Populations,
    exposure,
    signal_precision,
    solve_verification_fixed_point,
    supply_response,
    trust_update,
    TrustParams,
    welfare_value,
)
from infomarket.policy import adaptive_tax, fiduciary_objective

from conftest import record_text

pytestmark = pytest.mark.acceptance


def report(n: int, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n:2d} {verdict}: {detail} [{elapsed:.2f}s]")
    assert ok, detail


@pytest.fixture(scope="module")
def baseline_record():
    cfg = ExperimentConfig(experiment="baseline", master_seed=42, max_ticks=150)
    start = time.perf_counter()
    record = run(cfg)
    return record, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_report():
    grid = [(r, s) for r in (0.6, 0.8, 1.0, 1.2, 1.4) for s in (1.2, 1.4, 1.6, 1.8)]
    start = time.perf_counter()
    rep = sweep_cells(grid, SimParams(), master_seed=42, ticks=120, jobs=1)
    return rep, time.perf_counter() - start


def test_criterion_1_cost_asymmetry_exact():
    start = time.perf_counter()
    tech_h = CesTechnology(tfp=1.0, share=0.35, elasticity=0.75)
    tech_l = CesTechnology(tfp=1.0, share=0.65, elasticity=1.5)
    grid = [FactorPrices(r, 8.0) for r in (0.6, 0.8, 1.0, 1.2, 1.4)]
    rows = cost_asymmetry_report(tech_h, tech_l, grid)
    ordering = all(row.asymmetry_holds for row in rows)
    fd_ok = all(
        abs(log_cost_elasticity_fd(tech, prices) - cost_share_ai(tech, prices)) < 1e-5
        for tech in (tech_h, tech_l)
        for prices in grid
    )
    elapsed = time.perf_counter() - start
    report(1, ordering and fd_ok and elapsed < 1.0,
           f"s_L > s_H on all {len(rows)} grid points, shares match "
           f"finite-difference elasticities to 1e-5", elapsed)


def test_criterion_2_shephard_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        sigma = float(rng.uniform(0.3, 2.5))
        if abs(sigma - 1.0) < 1e-3:
            sigma += 0.01
        tech = CesTechnology(
            tfp=float(rng.uniform(0.5, 2.0)),
            share=float(rng.uniform(0.15, 0.85)),
            elasticity=sigma,
        )
        prices = FactorPrices(float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.3, 8.0)))
        analytic = unit_cost(tech, prices)
        brute = _brute_force_cost(tech, prices)
        worst = max(worst, abs(analytic - brute) / brute)
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-6 and elapsed < 10.0,
           f"analytic unit cost matches brute-force minimization, worst "
           f"relative error {worst:.2e}", elapsed)


def _brute_force_cost(tech: CesTechnology, prices: FactorPrices) -> float:
    rho = tech.rho
    target = 1.0 / tech.tfp

    def scan(grid: np.ndarray) -> tuple[float, float]:
        inner = (target**rho - tech.share * grid**rho) / (1.0 - tech.share)
        with np.errstate(invalid="ignore"):
            labor = np.where(inner > 0, inner ** (1.0 / rho), np.nan)
        cost = prices.ai_rental * grid + prices.wage * labor
        idx = int(np.nanargmin(cost))
        return float(cost[idx]), float(grid[idx])

    best, k = scan(np.logspace(-8, 8, 10_000))
    for span in (1e-2, 1e-5):
        best2, k = scan(np.logspace(np.log10(k) - span, np.log10(k) + span, 10_000))
        best = min(best, best2)
    return best


def test_criterion_3_fixed_point(populations, params):
    start = time.perf_counter()
    pool = populations.consumers

    def residual(rho: float, v: float) -> float:
        pi = signal_precision(rho, v, 0.0, params.market)
        post = consumer_posterior(1.0 - rho, pi)
        return pool.cdf(verification_threshold(post, 0.5, 2.0)) - v

    v_star, _, _ = solve_verification_fixed_point(0.6, pool, 0.0, params=params)
    base_ok = abs(residual(0.6, v_star)) < 1e-8

    grid = np.linspace(0.0, 1.0, 100_001)
    values = np.array([residual(0.6, x) for x in grid])
    idx = int(np.argmax(values < 0))
    crossing = grid[idx - 1] + (grid[idx] - grid[idx - 1]) * values[idx - 1] / (
        values[idx - 1] - values[idx]
    )
    oracle_ok = abs(v_star - crossing) < 1e-4

    rng = np.random.default_rng(303)
    worst = 0.0
    for rho in rng.uniform(0.0, 1.0, 100):
        v, _, _ = solve_verification_fixed_point(float(rho), pool, 0.0, params=params)
        worst = max(worst, abs(residual(float(rho), v)))
    elapsed = time.perf_counter() - start
    report(3, base_ok and oracle_ok and worst < 1e-8 and elapsed < 5.0,
           f"residual < 1e-8 on baseline and 100 fuzzed densities "
           f"(worst {worst:.2e}); grid-scan oracle agrees to "
           f"{abs(v_star - crossing):.2e}", elapsed)


def test_criterion_4_welfare_thermometer(baseline_record):
    record, elapsed = baseline_record
    corr = float(np.corrcoef(record.column("ipi"), record.column("welfare"))[0, 1])
    report(4, corr <= -0.3 and elapsed < 5.0,
           f"baseline seed-42 corr(IPI, W) = {corr:.3f} <= -0.3", elapsed)


def test_criterion_5_ai_progress_paradox(sweep_report):
    rep, elapsed = sweep_report
    by_r: dict[float, list[float]] = {}
    for row in rep.rows:
        by_r.setdefault(row["r"], []).append(row["pollution"])
    gap = float(np.mean(by_r[0.6]) - np.mean(by_r[1.4]))
    ok = (
        rep.corr_r_pollution is not None
        and rep.corr_r_pollution <= -0.5
        and rep.corr_r_welfare is not None
        and rep.corr_r_welfare > 0.0
        and gap >= 0.15
        and not rep.failures
        and elapsed < 120.0
    )
    report(5, ok,
           f"corr(r, pollution) = {rep.corr_r_pollution:.3f}, "
           f"corr(r, W) = {rep.corr_r_welfare:.3f}, pollution gap "
           f"r=0.6 vs r=1.4 = {gap:.3f}", elapsed)


def test_criterion_6_shock_response():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="shocks", master_seed=42, max_ticks=150)
    _record, responses = run_shocks(cfg)
    elapsed = time.perf_counter() - start
    ok = (
        len(responses) == 4
        and all(r.rise_pct >= 10.0 for r in responses)
        and all(r.declining_ticks >= 5 for r in responses)
        and elapsed < 10.0
    )
    detail = ", ".join(f"{r.kind} +{r.rise_pct:.1f}%/{r.declining_ticks}dn"
                       for r in responses)
    report(6, ok, detail, elapsed)


def test_criterion_7_noise_robustness():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="noise_robustness", master_seed=42, max_ticks=150)
    rep = run_noise(cfg, noise_levels=[0.0, 0.2], trials=3)
    elapsed = time.perf_counter() - start
    err0, err20 = rep["errors"]
    report(7, err0 < 1e-9 and err20 <= 0.08 and elapsed < 30.0,
           f"proxy-IPI error {err0:.2e} at level 0, {err20:.4f} at level 0.2",
           elapsed)


def test_criterion_8_policy_comparison():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="policy_comparison", master_seed=42, max_ticks=150)
    rep = run_policy_comparison(cfg)
    elapsed = time.perf_counter() - start
    rows = {row["scenario"]: row for row in rep["rows"]}
    joint_beats = rows["joint"]["welfare"] > rows["baseline"]["welfare"]
    best_cut = max(rows["baseline"]["pollution"] - row["pollution"]
                   for row in rep["rows"])
    ok = joint_beats and best_cut >= 0.05 and len(rep["rows"]) == 6 and elapsed < 60.0
    report(8, ok,
           f"joint welfare {rows['joint']['welfare']:.2f} > baseline "
           f"{rows['baseline']['welfare']:.2f}; best pollution cut {best_cut:.3f}; "
           f"{len(rep['rows'])} scenarios", elapsed)


def test_criterion_9_adaptive_controller():
    # Demonstrated in a polluted world (cheap AI): with the index settling
    # at the target already, the zero-floored levy is inert by design.
    start = time.perf_counter()
    overrides = {"econ.ai_rental": 0.8}
    params = SimParams().with_overrides(overrides)
    # The policy section's default rule: eta 0.05, target 0.5.
    closed = Simulation(params.with_overrides({"policy.adaptive_enabled": True}), None, 42)
    frozen = Simulation(params, None, 42)
    ipi_closed = np.array([closed.advance().ipi for _ in range(150)][-30:])
    ipi_frozen = np.array([frozen.advance().ipi for _ in range(150)][-30:])
    err_closed = float(np.abs(ipi_closed - 0.5).mean())
    err_frozen = float(np.abs(ipi_frozen - 0.5).mean())
    elapsed = time.perf_counter() - start
    report(9, err_closed < err_frozen and elapsed < 10.0,
           f"closed-loop |IPI - 0.5| = {err_closed:.4f} < frozen "
           f"{err_frozen:.4f} (final 30 ticks, ai_rental 0.8)", elapsed)


def test_criterion_10_determinism():
    start = time.perf_counter()
    small = {
        "agents.n_producers": 40, "agents.n_consumers": 80,
        "ipi.anchor_m_points": 3, "ipi.anchor_gamma_points": 3,
        "ipi.anchor_tax_points": 2,
    }
    cfg = ExperimentConfig(experiment="baseline", master_seed=42, max_ticks=40,
                           overrides=small)
    byte_identical = record_text(run(cfg)) == record_text(run(cfg))
    grid = [(0.8, 1.4), (1.0, 1.5), (1.2, 1.6), (1.4, 1.8)]
    base = SimParams().with_overrides(small)
    serial = sweep_cells(grid, base, master_seed=42, ticks=20, jobs=1)
    parallel = sweep_cells(grid, base, master_seed=42, ticks=20, jobs=3)
    elapsed = time.perf_counter() - start
    report(10, byte_identical and serial == parallel,
           "byte-identical reruns; sweep identical at jobs=1 and jobs=3", elapsed)


def test_criterion_11_ipi_algebra_and_trivial_examples():
    start = time.perf_counter()
    checks: list[bool] = []
    approx = lambda a, b, tol=1e-12: abs(a - b) <= tol  # noqa: E731

    # composite algebra
    dims = (0.6, 0.5, 0.7, 0.4)
    checks.append(approx(composite(dims, FIXED_WEIGHTS), 0.57))
    checks.append(composite(dims, (1.0, 0.0, 0.0, 0.0)) == 0.6)
    checks.append(composite((0.0,) * 4, FIXED_WEIGHTS) == 0.0)
    bumped = (0.6, 0.5, 0.7 + 0.125, 0.4)
    checks.append(
        approx(composite(bumped, FIXED_WEIGHTS) - composite(dims, FIXED_WEIGHTS),
               FIXED_WEIGHTS[2] * 0.125)
    )
    checks.append(approx(sum(FIXED_WEIGHTS), 1.0))

    # econ trivials
    sym = CesTechnology(tfp=1.0, share=0.5, elasticity=1.5)
    checks.append(approx(factor_ratio(sym, FactorPrices(1.0, 1.0)), 1.0))
    tech_l = CesTechnology(tfp=1.0, share=0.65, elasticity=1.5)
    checks.append(approx(factor_ratio(tech_l, FactorPrices(1.0, 8.0)),
                         factor_ratio(tech_l, FactorPrices(2.0, 16.0)), 1e-10))
    doubled = CesTechnology(tfp=2.0, share=0.65, elasticity=1.5)
    checks.append(approx(unit_cost(doubled, FactorPrices(1.0, 8.0)) * 2.0,
                         unit_cost(tech_l, FactorPrices(1.0, 8.0)), 1e-10))
    checks.append(approx(unit_cost(tech_l, FactorPrices(2.0, 16.0)),
                         2.0 * unit_cost(tech_l, FactorPrices(1.0, 8.0)), 1e-10))
    checks.append(approx(cost_share_ai(sym, FactorPrices(1.0, 1.0)), 0.5))

    # agents trivials, the logit and margins through one producer of unit
    # productivity under one posture, whose unit margin is (1 - 0.25) * 4 * gamma
    platform = Postures(gamma_h=1.0, gamma_l=1.0, moderation=0.0)
    posture = Postures.of([platform])
    margins = PlatformParams(revenue_share=0.25, ad_rate=4.0)

    def supply(cost_h, cost_l, tax=0.0, rationality=1.0):
        pool = ProducerPool(prod_h=[1.0], prod_l=[1.0], rationality=rationality)
        return supply_response(pool, posture, margins, cost_h_base=cost_h, cost_l_base=cost_l,
                               gen_boost=1.0, tax=tax)

    # equal profits (3 - 0 each) split evenly; rationality 0 is a fair coin
    checks.append(approx(supply(0.0, 0.0, rationality=2.0).q_h[0], 0.5))
    checks.append(approx(supply(0.0, 8.0, rationality=0.0).q_h[0], 0.5))
    # break-even at cost 3: a margin gap of 1e3 at rationality 1e3 makes
    # the choice certain, so producer surplus is the high-quality margin
    checks.append(approx(supply(3.0, 1e3, rationality=1e3).producer_profit[0], 0.0))
    # a levy of 0.5 lowers the low-quality margin by 0.5: it ties with 3 - 1.5
    checks.append(approx(supply(1.5, 1.0, tax=0.5).q_h[0], 0.5))
    checks.append(approx(consumer_posterior(0.37, 0.5), 0.37))
    checks.append(approx(consumer_posterior(0.5, 0.8), 0.8))
    checks.append(approx(verification_threshold(0.7, 1.1, 1.1), 1.1))
    checks.append(approx(verification_threshold(1.0, 0.5, 2.0), 0.5))

    # market trivials
    params = SimParams()
    populations = Populations(ProducerPool([1.0], [1.0], 1.0), ConsumerPool([1.0]))

    def pollution(q_h, q_l, platform):
        rho, _, _ = exposure(np.array([q_h]), np.array([q_l]), Postures.of([platform]),
                             populations, params)
        return rho[0]

    checks.append(pollution(5.0, 0.0, platform) == 0.0)
    m_full = replace(platform, moderation=1.0)
    checks.append(pollution(1.0, 9.0, m_full) == 0.0)
    checks.append(approx(pollution(2.0, 2.0, platform), 0.5))
    checks.append(approx(signal_precision(0.0, 0.0, 0.0, params.market), 0.85))
    steep = replace(params.market, kappa_pollution=9.0)
    checks.append(signal_precision(1.0, 0.0, 0.0, steep) == 0.5)
    cfg = TrustParams(decay=0.05, pollution_hit=0.2, repair_gain=1.0,
                      repair_flow=0.0, t_max=1.0)
    checks.append(approx(trust_update(0.8, 0.0, 0.0, cfg), 0.76))
    checks.append(trust_update(0.0, 1.0, 5.0, cfg) == 0.0)
    checks.append(
        welfare_value(q_h=0.0, q_l=0.0, verify_rate=0.0, precision=0.85, trust=0.0,
                      platform=platform, producer_profit=0.0, platform_profit=0.0,
                      verification_spend=0.0, params=params) == 0.0
    )

    # ipi dimension trivials
    checks.append(dim_deadweight(100.0, 100.0, 0.0) == 0.0)
    checks.append(dim_deadweight(0.0, 100.0, 0.0) == 1.0)
    checks.append(approx(dim_deadweight(50.0, 100.0, 0.0), 0.5))
    checks.append(dim_trust_decay(1.0, 1.0) == 0.0)
    checks.append(dim_trust_decay(0.0, 1.0) == 1.0)
    checks.append(approx(dim_tech_risk(2.0, 2.0, 0.0, 1.0), 0.5))
    checks.append(dim_tech_risk(1e12, 1.0, 0.0, 1.0) > 0.999)

    # proxy trivials
    checks.append(proxy_exposure(one_tick_log(impressions=(0.0, 42.0)))[0] == 1.0)
    checks.append(proxy_exposure(one_tick_log(impressions=(42.0, 0.0)))[0] == 0.0)
    checks.append(approx(proxy_churn_gap(one_tick_log(churn=(0.12, 0.08, 0.10)))[0], 0.4, 1e-9))
    checks.append(proxy_detection_gap(one_tick_log(acc_new=0.9))[0] == 0.0)
    checks.append(approx(proxy_detection_gap(one_tick_log(acc_new=0.45))[0], 0.5))

    # policy trivials
    checks.append(fiduciary_objective(10.0, 6.0, 2.0, 0.0) == 10.0)
    checks.append(fiduciary_objective(10.0, 6.0, 2.0, 1.0) == 4.0)
    checks.append(approx(adaptive_tax(0.7, 0.4, 0.4, 0.1), 0.7))
    checks.append(approx(adaptive_tax(0.5, 0.8, 0.4, 0.1), 0.6))

    elapsed = time.perf_counter() - start
    report(11, all(checks), f"{len(checks)} algebra and boundary checks", elapsed)


def one_tick_log(impressions=(42.0, 0.0), churn=(0.1, 0.1, 0.1), acc_new=0.9):
    """A one-tick event log: one high- and one low-quality item, no feedback, acc_base 0.9."""
    return SyntheticEventLog(
        impressions=np.array([impressions]),
        feedback=np.zeros((1, 3)),
        severities=(1.0, 3.0, 10.0),
        churn=np.array([churn]),
        acc_new=np.array([acc_new]),
        acc_base=0.9,
    )


def test_criterion_12_robust_selection():
    start = time.perf_counter()
    small = {
        "agents.n_producers": 40, "agents.n_consumers": 80,
        "ipi.anchor_m_points": 3, "ipi.anchor_gamma_points": 3,
        "ipi.anchor_tax_points": 2,
    }
    policies = [("baseline", {}), ("levy", {"policy.tax_init": 0.8})]
    worlds = [{"econ.ai_rental": 0.8}, {"econ.ai_rental": 1.2}]
    selection = robust_select(policies, worlds, horizon=40,
                              base_params=SimParams().with_overrides(small),
                              master_seed=42)
    worst = [min(row) for row in selection.welfare_matrix]
    brute = max(range(len(policies)), key=lambda i: worst[i])
    elapsed = time.perf_counter() - start
    report(12, selection.selected_index == brute,
           f"max-min choice {selection.selected_index} matches brute-force "
           f"enumeration (worst-case welfare {worst[brute]:.2f})", elapsed)
