"""The four benchmark workloads, each a seeded sequence of fixed rounds.

A workload object knows how to ``setup(seed, between)`` its state, run
one ``round(state, index, between)`` and report what it did as a
:class:`~perfbench.harness.RoundResult`, turn pooled simulated counters
into ``sim_*`` metrics, and ``instrument`` its live objects for the
traced run.  It calls ``between()`` after each timed unit, outside its
timed sections, where the harness runs a calibration loop.  Each class
carries a one-line ``why``: the layer it loads and the layers it leaves
idle.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures import STRUCTURES
from repro.persist.structures.base import persisted_reader
from repro.serve.tier import ServeTier
from repro.sim.config import SoCParams
from repro.sim.engine import SimulationDeadlock
from repro.store.recovery import RecoveryError, recover
from repro.store.shared import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.scheduler import VirtualTimeScheduler
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify import serve as verify_serve
from repro.verify import store as verify_store
from repro.verify import txn as verify_txn
from repro.verify.store import StoreOracle
from repro.workloads import openloop
from repro.workloads.openloop import OpenLoopClient, PoissonArrivals, ZipfianKeys

from perfbench.harness import RoundResult, merge
from perfbench.layers import (
    PERSIST_METHODS,
    SERVE_METHODS,
    STORE_METHODS,
    STRUCTURE_METHODS,
    TIMING_METHODS,
    percentile,
)
from perfbench.tracing import Tracer

#: the paper's core clock (§7.1), for simulated Mops/s
CLOCK_HZ = 50e6
_MASK63 = (1 << 63) - 1


def _delta(after: Dict[str, int], before: Dict[str, int], keys: Sequence[str]) -> Dict[str, int]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}


def round_seed(seed: int, index: int) -> int:
    """Seed of round *index*: rounds differ, so one run averages over inputs."""
    return seed * 1000 + index


def _sum_stats(dicts) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for stats in dicts:
        merge(total, stats)
    return total


# ------------------------------------------------------------ timing model
def _timing_counts(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Timing-model counters between two ``TimingSystem.stats`` dicts."""
    d = _delta(after, before, ("loads", "stores", "l1_hits", "cbo_issued",
                                "cbo_skipped", "cbo_range_issued", "mem_fills"))
    return {
        "timing.accesses": d["loads"] + d["stores"],
        "timing.l1_hits": d["l1_hits"],
        "timing.cbo_issued": d["cbo_issued"],
        "timing.cbo_skipped": d["cbo_skipped"],
        "timing.mem_fills": d["mem_fills"],
        "persist.cbos": d["cbo_issued"] + d["cbo_skipped"] + d["cbo_range_issued"],
    }


class _InFlightGauge:
    """Longest ``TimingSystem.in_flight`` list seen at a cbo or fence call."""

    def __init__(self, system: TimingSystem) -> None:
        self.system = system
        self.longest = 0

    def __call__(self, *args, **kwargs) -> None:
        self.longest = max(self.longest, len(self.system.in_flight))


def _instrument_timing(tracer: Tracer, system: TimingSystem, views) -> _InFlightGauge:
    gauge = _InFlightGauge(system)
    tracer.wrap(system, "timing", TIMING_METHODS,
                before={"cbo": gauge, "cbo_range": gauge, "fence": gauge})
    for view in views:
        tracer.wrap(view, "persist", PERSIST_METHODS)
    return gauge


# --------------------------------------------------------------- soc-flush
@dataclass
class _SocState:
    socs: Dict[str, Soc]
    base: int
    salt: int
    next_value: int = 0


class SocFlush:
    """Figures 13, 10 and 9 on the cycle-level SoC, naive and Skip It."""

    name = "soc-flush"
    why = ("only workload on sim.engine, uarch and core (cycle-level SoC); "
           "timing, persist, store, serve and verify stay idle")
    setup_repeats = 3
    min_rounds = 3
    CORES = 2
    REDUNDANT = 10  # figure 13: redundant CBO.CLEANs after the necessary one
    REREAD_CBOS = 10  # figure 10: CBO.FLUSHes before the fence and re-read
    REGION_STRIDE = 1 << 20
    REGION_BASE = 1 << 24

    def __init__(self, lines_per_core: int = 32) -> None:
        self.lines = lines_per_core

    def setup(self, seed: int, between=lambda: None) -> _SocState:
        rng = random.Random(f"soc-flush/{seed}")
        state = _SocState(
            socs={
                label: Soc(SoCParams().with_cores(self.CORES).with_skip_it(skip))
                for label, skip in (("naive", False), ("skipit", True))
            },
            # a seeded line offset moves the regions across L1/L2 sets
            base=self.REGION_BASE + rng.randrange(512) * 64,
            salt=rng.getrandbits(40) << 20,
        )
        # the first repetition warms the caches and belongs to set-up
        self.round(state, -1, between)
        return state

    def _value(self, state: _SocState) -> int:
        state.next_value += 1
        return (state.salt + state.next_value) & _MASK63 or 1

    def _phases(self, state: _SocState, line_bytes: int):
        """Per-core programs for one repetition, each with its expected image.

        Yields ``(name, programs, expect)``; *expect* maps every line the
        phase flushed or cleaned to the value that must be persisted once
        its fence has retired (``None`` for the dirtying passes).  Every
        store writes a fresh value, so a lost writeback cannot hide
        behind an earlier repetition's identical data.
        """
        regions = [
            [state.base + core * self.REGION_STRIDE + i * line_bytes
             for i in range(self.lines)]
            for core in range(self.CORES)
        ]

        def build(per_line: Callable, fence_at_end: bool = True):
            programs, expect = [], {}
            for lines in regions:
                program = []
                for address in lines:
                    value = self._value(state)
                    expect[address] = value
                    program.extend(per_line(address, value))
                if fence_at_end:
                    program.append(Instr.fence())
                programs.append(program)
            return programs, expect

        def stores(a, v):
            return [Instr.store(a, v)]

        yield "dirty", build(stores, fence_at_end=False)[0], None
        # figure 13: store, one necessary + ten redundant CBO.CLEAN; fence
        yield ("fig13",) + build(
            lambda a, v: [Instr.store(a, v)] + [Instr.clean(a) for _ in range(1 + self.REDUNDANT)])
        # figure 10: write, CBO.FLUSH x10, fence, re-read — per line
        yield ("fig10",) + build(
            lambda a, v: [Instr.store(a, v)] + [Instr.flush(a) for _ in range(self.REREAD_CBOS)]
            + [Instr.fence(), Instr.load(a)],
            fence_at_end=False)
        # figure 9: dirty the region, then flush it line by line, one fence
        dirty, expect = build(stores, fence_at_end=False)
        yield "fig9-dirty", dirty, None
        flush = [[Instr.flush(a) for a in lines] + [Instr.fence()] for lines in regions]
        yield "fig9-flush", flush, expect

    def round(self, state: _SocState, index: int, between=lambda: None) -> RoundResult:
        result = RoundResult()
        for label, soc in state.socs.items():
            before = _soc_stats(soc)
            cycle0 = soc.engine.cycle
            instrs_run = 0
            for phase, programs, expect in self._phases(state, soc.params.line_bytes):
                instrs = sum(len(p) for p in programs)
                instrs_run += instrs
                begin = perf_counter()
                try:
                    cycles = soc.run_programs(programs)
                    soc.drain()
                except SimulationDeadlock:
                    result.failed += instrs
                    continue
                elapsed = perf_counter() - begin
                result.seconds += elapsed
                result.op_seconds.append(elapsed / instrs)
                merge(result.sim, {"sim_cycles": cycles,
                                   f"sim_cycles.{label}.{phase}": cycles})
                if expect and any(soc.persisted_value(a) != v for a, v in expect.items()):
                    result.failed += instrs
                between()
            result.ops += instrs_run
            counts = _soc_counts(before, _soc_stats(soc))
            counts["sim.engine.cycles"] = soc.engine.cycle - cycle0
            counts["uarch.instrs"] = instrs_run
            merge(result.counts, counts)
        return result

    def sim_metrics(self, sim: Dict[str, object]) -> Dict[str, object]:
        return dict(sorted(sim.items()))

    def instrument(self, state: _SocState, tracer: Tracer) -> None:
        for soc in state.socs.values():
            tracer.wrap(soc, "uarch.soc", ("run_programs", "drain"))
            tracer.wrap(soc.engine, "sim.engine", ("step", "run_until"))
            for core in soc.cores:
                tracer.wrap(core, "uarch.cpu", ("tick",))
            for l1 in soc.l1s:
                tracer.wrap(l1, "uarch.l1", ("tick",))
                tracer.wrap(l1.flush_unit, "core.flush_unit",
                            ("tick", "offer", "offer_range"))
            tracer.wrap(soc.l2, "uarch.l2", ("tick",))
            tracer.wrap(soc.dram, "uarch.dram", ("tick",))


def _soc_stats(soc: Soc) -> Dict[str, Dict[str, int]]:
    return {
        "cpu": _sum_stats(core.stats.as_dict() for core in soc.cores),
        "l1": _sum_stats(l1.stats.as_dict() for l1 in soc.l1s),
        "flush": _sum_stats(l1.flush_unit.stats.as_dict() for l1 in soc.l1s),
        "l2": soc.l2.stats.as_dict(),
    }


def _soc_counts(before, after) -> Dict[str, int]:
    """Layer counts between two :func:`_soc_stats` snapshots."""
    counts: Dict[str, int] = {}
    for unit, prefix, keys in (
        ("cpu", "uarch.cpu", ("nacks",)),
        ("l1", "uarch.l1", ("load_misses", "mshr_allocated", "replays")),
        ("l2", "uarch.l2", ("acquires", "root_writebacks",
                            "root_writebacks_skipped", "dram_fetches")),
        ("flush", "core.flush", ("enqueued", "skipped", "coalesced", "nacked_full")),
        ("flush", "core.fshr", ("fshr_allocated",)),
    ):
        for key, value in _delta(after[unit], before[unit], keys).items():
            counts[f"{prefix}.{key.replace('fshr_', '')}"] = value
    return counts


# ----------------------------------------------------------------- ds-read
@dataclass
class _DsConfig:
    label: str
    system: TimingSystem
    views: List[PMemView]
    structure: object
    scheduler: VirtualTimeScheduler
    shadow: set
    steps: List[Callable] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)
    failed: int = 0
    gauge: Optional[_InFlightGauge] = None


class DsRead:
    """Figure-14 shape: read-mostly persistent sets on the timing model."""

    name = "ds-read"
    why = ("read-heavy structure ops through the timing model's load/fill path "
           "and the persist filters; SoC, store, serve and verify stay idle")
    setup_repeats = 2
    min_rounds = 3
    OPTIMIZERS = ("skipit", "flit-hashtable")
    THREADS = 2
    UPDATE_FRACTION = 0.05  # split evenly between inserts and deletes

    def __init__(
        self,
        structures: Sequence = (("bst", 20_000), ("hashtable", 8192)),
        chunk_cycles: int = 200_000,
        hash_buckets: int = 512,
    ) -> None:
        # BST: ~1.2 MiB of touched lines, past the modelled 512 KiB L2;
        # hash table: ~290 KiB, fits the L2 but not the 32 KiB L1
        self.structures = tuple(structures)
        self.chunk_cycles = chunk_cycles
        self.hash_buckets = hash_buckets

    def setup(self, seed: int, between=lambda: None) -> List[_DsConfig]:
        configs = []
        for structure, key_range in self.structures:
            for optimizer in self.OPTIMIZERS:
                configs.append(self._build(structure, key_range, optimizer, seed))
                between()
        return configs

    def _build(self, structure_name: str, key_range: int, optimizer_name: str,
               seed: int) -> _DsConfig:
        label = f"{structure_name}/{optimizer_name}"
        params = TimingParams(num_threads=self.THREADS,
                              skip_it=optimizer_name == "skipit")
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(optimizer_name, heap, 1024)
        kwargs = {"num_buckets": self.hash_buckets} if structure_name == "hashtable" else {}
        structure = STRUCTURES[structure_name](heap, field_stride=optimizer.field_stride,
                                               **kwargs)
        views = [PMemView(ctx, make_policy("automatic"), optimizer)
                 for ctx in system.threads]
        structure.initialize(views[0])
        # prefill half the key range without flushes, then declare the
        # warm state persisted: every configuration starts alike
        prefill = PMemView(views[0].ctx, make_policy("none"), optimizer)
        rng = random.Random(f"ds-read/{seed}/{label}")
        keys = rng.sample(range(1, key_range + 1), key_range // 2)
        for key in keys:
            structure.insert(prefill, key)
        system.persist_all()
        optimizer.declare_persisted(system)
        config = _DsConfig(label, system, views, structure,
                           VirtualTimeScheduler(system), set(keys))
        config.steps = [
            self._step(config, view, key_range, random.Random(f"ds-read/{seed}/{label}/{tid}"))
            for tid, view in enumerate(views)
        ]
        return config

    def _step(self, config: _DsConfig, view: PMemView, key_range: int, rng: random.Random):
        """One thread's op stream, checked against the shadow set in scheduler order."""
        insert_cut, delete_cut = self.UPDATE_FRACTION / 2, self.UPDATE_FRACTION
        shadow, samples, structure = config.shadow, config.samples, config.structure

        def step(ctx) -> None:
            r = rng.random()
            key = rng.randint(1, key_range)
            present = key in shadow
            if r < insert_cut:
                op, want = structure.insert, not present
                shadow.add(key)
            elif r < delete_cut:
                op, want = structure.delete, present
                shadow.discard(key)
            else:
                op, want = structure.contains, present
            begin = perf_counter()
            got = op(view, key)
            samples.append(perf_counter() - begin)
            if got != want:
                config.failed += 1

        return step

    def round(self, configs: List[_DsConfig], index: int, between=lambda: None) -> RoundResult:
        result = RoundResult()
        for config in configs:
            before = config.system.stats.as_dict()
            requests = sum(v.flush_requests for v in config.views)
            failed = config.failed
            begin = perf_counter()
            run = config.scheduler.run(config.steps, duration=self.chunk_cycles)
            result.seconds += perf_counter() - begin
            result.ops += run.total_ops
            result.failed += config.failed - failed
            result.op_seconds.extend(config.samples)
            config.samples.clear()
            merge(result.sim, {"ops": run.total_ops, "cycles": run.elapsed,
                               f"ops.{config.label}": run.total_ops,
                               f"cycles.{config.label}": run.elapsed})
            counts = _timing_counts(before, config.system.stats.as_dict())
            counts["persist.flush_requests"] = (
                sum(v.flush_requests for v in config.views) - requests)
            if config.gauge is not None:
                counts["timing.in_flight_max"] = config.gauge.longest
            merge(result.counts, counts)
            between()
        return result

    def sim_metrics(self, sim: Dict[str, object]) -> Dict[str, object]:
        out = {"sim_mops": sim["ops"] * CLOCK_HZ / sim["cycles"] / 1e6,
               "sim_ops": sim["ops"], "sim_cycles": sim["cycles"]}
        for key in sorted(sim):
            if key.startswith("ops."):
                label = key[4:]
                out[f"sim_mops.{label}"] = (
                    sim[key] * CLOCK_HZ / sim[f"cycles.{label}"] / 1e6)
        return out

    def instrument(self, configs: List[_DsConfig], tracer: Tracer) -> None:
        for config in configs:
            config.gauge = _instrument_timing(tracer, config.system, config.views)
            tracer.wrap(config.structure, "persist.structures", STRUCTURE_METHODS)
            tracer.wrap(config.scheduler, "timing.scheduler", ("run",))
            config.steps = [tracer.span("bench.step", step) for step in config.steps]


# ------------------------------------------------------------- serve-write
@dataclass
class _ServeConfig:
    optimizer: str
    system: TimingSystem
    views: List[PMemView]
    store: SharedLogStore
    tier: ServeTier
    oracle: StoreOracle
    clients: List[OpenLoopClient]
    scheduler: VirtualTimeScheduler
    gauge: Optional[_InFlightGauge] = None


@dataclass
class _ServeState:
    seed: int
    configs: List[_ServeConfig]
    tracer: Optional[Tracer] = None
    recover: Callable = recover


class ServeWrite:
    """Figure-19 shape: open-loop tenants past the knee, then crash + recover."""

    name = "serve-write"
    why = ("write-heavy serving: WAL append, epoch seal, checkpoint, admission "
           "and the timing model's CBO/fence path; SoC and verify stay idle")
    setup_repeats = 3
    min_rounds = 3
    OPTIMIZERS = ("skipit", "plain")
    OFFERED_LOAD = 32.0  # ops per kilocycle over all tenants: past the knee
    SESSIONS = 4  # three OLTP tenants at 60 % puts, one read-mostly analytics
    GROUP_COMMIT = 8
    CHECKPOINT_EVERY = 4
    THETA = 0.99
    PREFILL_KEYS = 128

    def __init__(self, duration: int = 150_000, key_space: int = 1_000_000) -> None:
        self.duration = duration
        self.key_space = key_space

    def setup(self, seed: int, between=lambda: None) -> _ServeState:
        # every set-up pays the O(keyspace) zeta sum, as a fresh process does
        openloop._ZETA_CACHE.clear()
        configs = []
        for optimizer in self.OPTIMIZERS:
            configs.append(self._build(optimizer, round_seed(seed, 0)))
            between()
        return _ServeState(seed, configs)

    def _build(self, optimizer_name: str, seed: int) -> _ServeConfig:
        params = TimingParams(num_threads=self.SESSIONS,
                              skip_it=optimizer_name == "skipit")
        system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        optimizer = make_optimizer(optimizer_name, heap, 1024)
        policy = make_policy("none")
        views = [PMemView(ctx, policy, optimizer) for ctx in system.threads]
        store = SharedLogStore(heap, views, log_capacity=512,
                               batch_size=self.GROUP_COMMIT,
                               checkpoint_every=self.CHECKPOINT_EVERY, num_buckets=64)
        oracle = StoreOracle()
        store.wal.on_append = oracle.observe
        tier = ServeTier(store, high_water=48, low_water=12)
        # a published checkpoint of hot keys, so snapshot reads hit from cycle 0
        hot = ZipfianKeys(self.key_space, self.THETA, seed=seed + 977)
        prefilled = set()
        while len(prefilled) < self.PREFILL_KEYS:
            key = hot.next()
            if key not in prefilled:
                prefilled.add(key)
                store.put(0, key, 1_000 + len(prefilled))
        store.checkpoint(0)
        system.persist_all()
        optimizer.declare_persisted(system)
        system.stats.reset()
        store.reset_measurement()
        mean_interarrival = 1000.0 * self.SESSIONS / self.OFFERED_LOAD
        oltp = self.SESSIONS - 1
        clients = [
            OpenLoopClient(
                tier,
                tier.session(sid, sid),
                ZipfianKeys(self.key_space, self.THETA, seed=seed + sid),
                PoissonArrivals(mean_interarrival, seed=seed + 31 * sid),
                update_fraction=0.6 if sid < oltp else 0.05,
                snapshot_fraction=0.15 if sid < oltp else 0.80,
                value_base=1_000_000 + sid * 10_000_000,
                seed=seed + 7 * sid,
            )
            for sid in range(self.SESSIONS)
        ]
        return _ServeConfig(optimizer_name, system, views, store, tier, oracle,
                            clients, VirtualTimeScheduler(system))

    def _instrument_config(self, config: _ServeConfig, tracer: Tracer) -> None:
        config.gauge = _instrument_timing(tracer, config.system, config.views)
        tracer.wrap(config.store, "store", [m for m in STORE_METHODS if m != "recover"])
        tracer.wrap(config.tier, "serve", SERVE_METHODS)
        tracer.wrap(config.scheduler, "timing.scheduler", ("run",))
        for client in config.clients:
            tracer.wrap(client, "workloads.openloop.client", ("step",))
            tracer.wrap(client.keys, "workloads.openloop.keys", ("next",))
            tracer.wrap(client.arrivals, "workloads.openloop.arrivals", ("next",))

    def round(self, state: _ServeState, index: int, between=lambda: None) -> RoundResult:
        result = RoundResult()
        configs, state.configs = state.configs, []
        # the previous round's tiers and stores hold reference cycles;
        # free them now so peak memory does not depend on collector timing
        gc.collect()
        for optimizer in self.OPTIMIZERS:
            if configs:
                config = configs.pop(0)
            else:  # later rounds run the next seeded input on fresh objects
                config = self._build(optimizer, round_seed(state.seed, index))
                if state.tracer is not None:
                    self._instrument_config(config, state.tracer)
            self._run(config, state, result)
            between()
        return result

    def _run(self, config: _ServeConfig, state: _ServeState, result: RoundResult) -> None:
        samples: List[float] = []

        def timed(client: OpenLoopClient):
            def step(ctx) -> None:
                begin = perf_counter()
                client.step(ctx)
                samples.append(perf_counter() - begin)
            return step

        store, tier, system = config.store, config.tier, config.system
        records = store.wal.records_appended
        requests = sum(v.flush_requests for v in config.views)
        begin = perf_counter()
        run = config.scheduler.run([timed(c) for c in config.clients],
                                   duration=self.duration, warmup=0)
        tier.drain()
        result.seconds += perf_counter() - begin
        served = sum(c.served for c in config.clients)
        result.ops += served
        result.op_seconds.extend(samples)
        stats = tier.stats
        completed = stats.get("serve_completed")
        acked = store.acked_lsn
        merge(result.counts, _timing_counts({}, system.stats.as_dict()))
        # power fails after the drain: every acked write must come back
        image = system.crash()
        try:
            recovered = state.recover(persisted_reader(image), store.layout)
        except RecoveryError:
            result.failed += served
        else:
            if config.oracle.check_state(recovered, store.layout, acked_lsn=acked,
                                         initiated_lsn=store.initiated_lsn, at="end"):
                result.failed += served
        merge(result.sim, {
            "completed": completed,
            "cycles": run.elapsed,
            "served": served,
            "shed": stats.get("serve_rejected"),
            "offered_writes": stats.get("serve_admitted") + stats.get("serve_rejected"),
            "ack_cycles": tier.ack_latency.samples,
            f"completed.{config.optimizer}": completed,
        })
        merge(result.counts, {
            "persist.flush_requests": sum(v.flush_requests for v in config.views) - requests,
            "store.wal_records": store.wal.records_appended - records,
            "store.fences": store.stats.get("store_fences"),
            "store.commits": store.stats.get("store_commits"),
            "store.checkpoints": store.stats.get("store_checkpoints"),
            "serve.shed": stats.get("serve_rejected"),
            "serve.snapshot_reads": stats.get("serve_snapshot_reads"),
            "serve.snapshot_fallbacks": stats.get("serve_snapshot_fallback"),
            "serve.queue_waits": tier.queue_wait.samples,
            "serve.backpressure_engagements": tier.admission.engagements,
            "workloads.openloop.max_client_queue": max(
                c.max_queue_depth for c in config.clients),
            "timing.in_flight_max": config.gauge.longest if config.gauge else 0,
        })

    def sim_metrics(self, sim: Dict[str, object]) -> Dict[str, object]:
        acks = sim["ack_cycles"]
        out = {
            "sim_mops": sim["completed"] * CLOCK_HZ / sim["cycles"] / 1e6,
            "sim_ack_p50_cycles": percentile(acks, 50),
            "sim_ack_p99_cycles": percentile(acks, 99),
            "sim_ack_samples": len(acks),
            "sim_shed_frac": sim["shed"] / sim["offered_writes"],
            "sim_served": sim["served"],
        }
        out.update({f"sim_{k}": v for k, v in sorted(sim.items()) if k.startswith("completed")})
        return out

    def instrument(self, state: _ServeState, tracer: Tracer) -> None:
        state.tracer = tracer
        state.recover = tracer.span("store.recover", recover)
        for config in state.configs:
            self._instrument_config(config, tracer)


# ------------------------------------------------------------- crash-sweep
SWEEPS = (
    ("store", verify_store, "run_store_sweep"),
    ("ranged", verify_store, "run_ranged_store_sweep"),
    ("shared", verify_store, "run_shared_store_sweep"),
    ("txn", verify_txn, "run_txn_sweep"),
    ("serve", verify_serve, "run_serve_sweep"),
)


@dataclass
class _SweepState:
    seed: int
    entries: Dict[str, Callable]


class CrashSweep:
    """The verifier's store, ranged, shared, txn and serve crash sweeps."""

    name = "crash-sweep"
    why = ("only workload on verify and store recovery (replay, not append); "
           "SoC, structures and the serve hot path stay idle")
    setup_repeats = 3
    min_rounds = 2

    def __init__(self, optimizers: Sequence[str] = ("plain", "skipit"),
                 group_commits: Sequence[int] = (1, 8)) -> None:
        self.optimizers = tuple(optimizers)
        self.group_commits = tuple(group_commits)

    def setup(self, seed: int, between=lambda: None) -> _SweepState:
        state = _SweepState(seed, {kind: getattr(module, fn) for kind, module, fn in SWEEPS})
        # warm-up: each sweep once on its first configuration
        for entry in state.entries.values():
            entry(self.optimizers[:1], self.group_commits[:1], seed=seed)
            between()
        return state

    def round(self, state: _SweepState, index: int, between=lambda: None) -> RoundResult:
        result = RoundResult()
        for kind, entry in state.entries.items():
            for optimizer in self.optimizers:
                for group_commit in self.group_commits:
                    begin = perf_counter()
                    reports = entry((optimizer,), (group_commit,),
                                    seed=round_seed(state.seed, index))
                    elapsed = perf_counter() - begin
                    points = sum(r.crash_points for _, r in reports)
                    violations = sum(len(r.violations) for _, r in reports)
                    result.seconds += elapsed
                    result.ops += points
                    result.failed += min(points, violations)
                    result.op_seconds.append(elapsed / points)
                    merge(result.sim, {"crash_points": points,
                                       f"crash_points.{kind}": points})
                    merge(result.counts, {"verify.crash_points": points,
                                          "verify.violations": violations})
                    between()
        return result

    def sim_metrics(self, sim: Dict[str, object]) -> Dict[str, object]:
        return {f"sim_{k}": v for k, v in sorted(sim.items())}

    def instrument(self, state: _SweepState, tracer: Tracer) -> None:
        tracer.patch(TimingSystem, "persisted_image", "timing.persisted_image")
        for module in (verify_store, verify_serve, verify_txn):
            if getattr(module, "recover", None) is recover:
                tracer.patch(module, "recover", "store.recover")
        state.entries = {kind: tracer.span(f"verify.{kind}", entry)
                         for kind, entry in state.entries.items()}


WORKLOADS = {w.name: w for w in (SocFlush, DsRead, ServeWrite, CrashSweep)}
