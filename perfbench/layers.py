"""The per-layer metrics of the traced run, and how each is derived.

Every workload reports every metric; a layer a workload leaves idle
reads 0.  Span names follow ``<layer>.<object>.<method>`` as the
workloads wrap them (``timing.load``, ``persist.structures.insert``);
counts are summed by the workloads from the public ``stats`` objects.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

Spans = Dict[str, Tuple[int, float, float]]  # name -> (calls, inclusive s, self s)

#: layers whose methods get ``<span>.calls`` and ``<span>.self_s`` metrics
TIMING_METHODS = ("load", "store", "cas", "cbo", "cbo_range", "fence",
                  "persisted_image", "crash")
PERSIST_METHODS = ("read", "write", "cas", "flush", "clean", "clean_range", "op_end")
STRUCTURE_METHODS = ("insert", "delete", "contains")
STORE_METHODS = ("put", "delete", "get", "sync", "checkpoint", "recover")
SERVE_METHODS = ("put", "get", "snapshot_get", "harvest", "drain")
SWEEP_KINDS = ("store", "ranged", "shared", "txn", "serve")

CALL_SPANS = (
    [f"timing.{m}" for m in TIMING_METHODS]
    + [f"persist.{m}" for m in PERSIST_METHODS]
    + [f"persist.structures.{m}" for m in STRUCTURE_METHODS]
    + [f"store.{m}" for m in STORE_METHODS]
    + [f"serve.{m}" for m in SERVE_METHODS]
)

#: self-time metrics that sum the self time of one or more spans
SELF_TIME = {
    "sim.engine.self_s": ("sim.engine.step", "sim.engine.run_until"),
    "uarch.soc.self_s": ("uarch.soc.run_programs", "uarch.soc.drain"),
    "uarch.cpu.self_s": ("uarch.cpu.tick",),
    "uarch.l1.self_s": ("uarch.l1.tick",),
    "uarch.l2.self_s": ("uarch.l2.tick",),
    "uarch.dram.self_s": ("uarch.dram.tick",),
    "core.flush_unit.self_s": (
        "core.flush_unit.tick", "core.flush_unit.offer", "core.flush_unit.offer_range"
    ),
    "timing.scheduler.self_s": ("timing.scheduler.run",),
    "workloads.openloop.keys.self_s": ("workloads.openloop.keys.next",),
    "workloads.openloop.arrivals.self_s": ("workloads.openloop.arrivals.next",),
    "workloads.openloop.client.self_s": ("workloads.openloop.client.step",),
    "bench.step.self_s": ("bench.step",),
    **{f"verify.{kind}.self_s": (f"verify.{kind}",) for kind in SWEEP_KINDS},
}

#: counts reported as summed by the workloads
COUNTS = (
    "sim.engine.cycles",
    "uarch.instrs", "uarch.cpu.nacks",
    "uarch.l1.load_misses", "uarch.l1.mshr_allocated", "uarch.l1.replays",
    "uarch.l2.acquires", "uarch.l2.root_writebacks",
    "uarch.l2.root_writebacks_skipped", "uarch.l2.dram_fetches",
    "core.flush.enqueued", "core.flush.skipped", "core.flush.coalesced",
    "core.flush.nacked_full", "core.fshr.allocated",
    "timing.mem_fills", "timing.in_flight_max",
    "persist.flush_requests",
    "store.wal_records", "store.fences", "store.commits", "store.checkpoints",
    "serve.shed", "serve.backpressure_engagements",
    "workloads.openloop.max_client_queue",
    "verify.crash_points", "verify.violations",
)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: Dict[str, object], spans: Spans) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    def self_of(*names: str) -> float:
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    def count(name: str) -> float:
        return counts.get(name, 0)

    out: Dict[str, Tuple[float, str]] = {}
    cycles = count("sim.engine.cycles")
    engine_s = spans.get("sim.engine.run_until", (0, 0.0, 0.0))[1]
    out["sim.engine.stepped"] = (spans.get("sim.engine.step", (0,))[0], "count")
    out["sim.engine.cycles_per_s"] = (_ratio(cycles, engine_s), "1/s")
    for name in COUNTS:
        out[name] = (count(name), "count")
    out["core.flush.skip_frac"] = (
        _ratio(
            count("core.flush.skipped"),
            count("core.flush.skipped") + count("core.flush.enqueued")
            + count("core.flush.coalesced"),
        ),
        "ratio",
    )
    out["timing.l1_hit_frac"] = (
        _ratio(count("timing.l1_hits"), count("timing.accesses")), "ratio"
    )
    out["timing.cbo_skip_frac"] = (
        _ratio(
            count("timing.cbo_skipped"),
            count("timing.cbo_skipped") + count("timing.cbo_issued"),
        ),
        "ratio",
    )
    out["persist.issue_frac"] = (
        _ratio(count("persist.cbos"), count("persist.flush_requests")), "ratio"
    )
    out["store.records_per_fence"] = (
        _ratio(count("store.wal_records"), count("store.fences")), "ratio"
    )
    out["serve.snapshot_hit_frac"] = (
        _ratio(
            count("serve.snapshot_reads"),
            count("serve.snapshot_reads") + count("serve.snapshot_fallbacks"),
        ),
        "ratio",
    )
    out["serve.queue_wait_p99_cycles"] = (
        percentile(counts.get("serve.queue_waits", []), 99), "cycles"
    )
    for span in CALL_SPANS:
        calls, _, own = spans.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (own, "s")
    for name, members in SELF_TIME.items():
        out[name] = (self_of(*members), "s")
    return out
