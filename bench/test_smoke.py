"""Smoke test of the benchmark itself, on tiny workloads.

    python3 -m pytest bench/test_smoke.py
"""

import json

import pytest

import run as bench_run

bench_run.load_program(bench_run.ROOT)

import infomarket.harness  # noqa: E402
import infomarket.market  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = workloads.Sizes(
    long_run_ticks=30,
    grid_ticks=5,
    reference_ticks=5,
    grid=((0.6, 1.2), (1.4, 1.6)),
    measure_ticks=10,
    measure_trials=1,
    overrides=(("ipi.anchor_m_points", 2), ("ipi.anchor_gamma_points", 2),
               ("ipi.anchor_tax_points", 2)),
)


def declared(kind):
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}, [w["name"] for w in spec["workloads"]]


def test_declared_workloads_exist():
    _, names = declared("end_to_end")
    assert set(names) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result = workloads.run(name, seed=3, seconds=0, trace=trace, root=bench_run.ROOT, sizes=TINY)
    units, _ = declared("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in result.metrics.items()} == units
    doc = json.loads(result.to_json())
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1
    assert all(isinstance(m["value"], float) for m in doc["metrics"].values())


def test_checks_fire_on_corrupted_digest():
    tally = workloads.Tally()
    workload = workloads.WORKLOADS["long_run"](3, TINY, bench_run.ROOT, tally)
    samples = workloads.Samples()
    workload.body(samples)
    workload.body(samples)
    workload.checks(samples)
    assert tally.failed == 0
    samples.digests[1] = "0" * 64
    workload.checks(samples)
    assert tally.failed == 1
    assert "long_run.repeat_digest" in tally.messages[0]


def test_tracer_patches_from_imported_bindings_and_restores_them():
    original = infomarket.market.market_step
    assert infomarket.harness.market_step is original
    tracer = Tracer()
    tracer.install()
    try:
        assert infomarket.harness.market_step is infomarket.market.market_step
        assert infomarket.harness.market_step is not original
        assert "infomarket.harness.market_step" in tracer.bindings
        assert "infomarket.market.platform_update" in tracer.bindings
    finally:
        tracer.uninstall()
    assert infomarket.harness.market_step is original
