"""Self-tests of the benchmark: its declaration, determinism and attribution.

Run from the root of a checkout with ``python -m pytest perfbench/tests``.
The workloads run here at reduced sizes so the suite stays short; the
sizes change the amount of work, not the code paths.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest

from perfbench import harness
from perfbench.layers import layer_metrics
from perfbench.workloads import WORKLOADS, CrashSweep, DsRead, ServeWrite, SocFlush
from repro.timing.system import TimingSystem

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "soc-flush": lambda: SocFlush(lines_per_core=8),
    "ds-read": lambda: DsRead(structures=(("bst", 600), ("hashtable", 256)),
                              chunk_cycles=20_000, hash_buckets=32),
    "serve-write": lambda: ServeWrite(duration=20_000, key_space=10_000),
    "crash-sweep": lambda: CrashSweep(optimizers=("skipit",), group_commits=(8,)),
}


def _rounds(workload, seed=7):
    state = workload.setup(seed)
    return harness.run_rounds(workload, state, workload.min_rounds)


# --------------------------------------------------------------- declaration
def test_benchmark_json_declares_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    measured = harness.measure(SMALL["soc-flush"](), seed=1, seconds=0)
    assert [m["name"] for m in spec["end_to_end"]] == list(measured["metrics"])
    for metric in spec["end_to_end"]:
        assert measured["metrics"][metric["name"]][1] == metric["unit"]
    layers = layer_metrics({}, {})
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(declared) - set(layers) == {
        "trace.overhead_s", "trace.overhead_frac", "trace.spans"
    }
    for name, (_, unit) in layers.items():
        assert declared[name] == unit


# --------------------------------------------------------------- determinism
@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_runs_give_identical_sim_metrics_and_counts(name):
    first, second = _rounds(SMALL[name]()), _rounds(SMALL[name]())
    assert first.sim == second.sim
    assert first.counts == second.counts
    assert sum(r.failed for r in first.rounds) == 0
    assert sum(r.ops for r in first.rounds) > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_does_not_perturb_the_simulation(name):
    workload = SMALL[name]()
    out = harness.trace(workload, seed=7)
    report = out["report"]
    assert report["sim"] == report["sim_untraced"]
    assert out["correct"] and out["failed"] == 0
    # layer counts of the traced rounds equal those of an untraced run
    untraced = _rounds(SMALL[name]())
    derived = layer_metrics(untraced.counts, {})
    for metric, (value, unit) in out["metrics"].items():
        if unit == "count" and metric in derived and metric != "timing.in_flight_max":
            if not metric.endswith(".calls") and metric != "sim.engine.stepped":
                assert value == derived[metric][0], metric


def test_each_workload_loads_its_own_layer():
    traced = {name: harness.trace(make(), seed=3)["metrics"] for name, make in SMALL.items()}
    assert traced["soc-flush"]["sim.engine.stepped"][0] > 0
    assert traced["ds-read"]["persist.structures.contains.calls"][0] > 0
    assert traced["serve-write"]["serve.put.calls"][0] > 0
    assert traced["crash-sweep"]["verify.crash_points"][0] > 0
    assert traced["soc-flush"]["timing.load.calls"][0] == 0
    assert traced["ds-read"]["sim.engine.stepped"][0] == 0
    assert traced["crash-sweep"]["persist.structures.contains.calls"][0] == 0


# --------------------------------------------------------------- attribution
DELAY_S = 40e-6


def _slow_load(original):
    def load(self, ctx, address):
        until = perf_counter() + DELAY_S
        while perf_counter() < until:
            pass
        return original(self, ctx, address)
    return load


def test_slowed_timing_load_shows_in_its_span_and_in_ds_read_only(monkeypatch):
    base_ds = harness.trace(SMALL["ds-read"](), seed=5)["metrics"]
    base_rate = harness.measure(SMALL["ds-read"](), seed=5, seconds=0.5)["metrics"]
    base_soc = harness.measure(SMALL["soc-flush"](), seed=5, seconds=0.5)["metrics"]

    monkeypatch.setattr(TimingSystem, "load", _slow_load(TimingSystem.load))
    slow_ds = harness.trace(SMALL["ds-read"](), seed=5)["metrics"]
    slow_rate = harness.measure(SMALL["ds-read"](), seed=5, seconds=0.5)["metrics"]
    slow_soc = harness.measure(SMALL["soc-flush"](), seed=5, seconds=0.5)["metrics"]
    soc_trace = harness.trace(SMALL["soc-flush"](), seed=5)["metrics"]

    calls = slow_ds["timing.load.calls"][0]
    assert calls == base_ds["timing.load.calls"][0] > 0
    # self times are calibrated, so the busy-wait shows up within a factor
    added = slow_ds["timing.load.self_s"][0] - base_ds["timing.load.self_s"][0]
    assert added > 0.5 * calls * DELAY_S
    for other in ("persist.read.self_s", "persist.structures.contains.self_s",
                  "timing.cbo.self_s", "bench.step.self_s"):
        assert slow_ds[other][0] - base_ds[other][0] < 0.2 * added, other
    assert slow_rate["ops_per_s"][0] < 0.7 * base_rate["ops_per_s"][0]
    # soc-flush never calls the slowed layer; its rate stays put
    assert soc_trace["timing.load.calls"][0] == 0
    assert 0.5 < slow_soc["ops_per_s"][0] / base_soc["ops_per_s"][0] < 2.0
