"""Wiring: attach an event bus and a metrics registry to a simulator.

Every instrumented component carries an ``obs`` attribute that defaults
to ``None``; :func:`acquire_bus` flips them all to one shared
:class:`~repro.obs.events.EventBus` and :func:`release_bus` restores the
no-op state.  The bus is reference-counted so the high-level
:class:`Observability` facade and other holders — a test reading
``acquire_bus(soc).events`` — can share one SoC's bus.

:class:`Observability` additionally builds the hierarchical
:class:`~repro.obs.registry.MetricsRegistry` over the SoC —
``soc.core0.l1.flush_unit.*`` counters, queue-occupancy / FSHR-in-use /
flush-counter gauges, and the bus's per-FSM-state latency histograms —
so ``Observability.attach(soc)`` is the one-liner that turns a run into
a metrics snapshot plus an exportable trace.

The fast timing model gets the same treatment at its own granularity:
:func:`timing_registry` adopts a :class:`~repro.timing.system.TimingSystem`'s
counters, :func:`attach_timing` wires its event hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.events import EventBus
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.timing.system import TimingSystem
    from repro.uarch.soc import Soc


def _soc_channels(soc: "Soc") -> Iterator:
    for link in soc.l2.links:
        yield from (link.a, link.b, link.c, link.d, link.e)
    yield from (soc.dram.chan_a, soc.dram.chan_c, soc.dram.chan_d)


def _observed_components(soc: "Soc") -> Iterator:
    yield soc.engine
    yield soc.l2
    for l1 in soc.l1s:
        yield l1
        yield l1.flush_unit
        yield l1.probe_unit
        yield l1.wbu
    for core in soc.cores:
        yield core
    yield from _soc_channels(soc)


def acquire_bus(soc: "Soc", max_events: Optional[int] = None) -> EventBus:
    """Wire one shared bus into *soc* (idempotent, reference-counted)."""
    bus = soc.engine.obs
    if bus is None:
        bus = EventBus(**({"max_events": max_events} if max_events is not None else {}))
        for component in _observed_components(soc):
            component.obs = bus
    bus.refs += 1
    return bus


def release_bus(soc: "Soc") -> None:
    """Drop one reference; fully unwire when the last holder releases."""
    bus = soc.engine.obs
    if bus is None:
        return
    bus.refs -= 1
    if bus.refs <= 0:
        for component in _observed_components(soc):
            component.obs = None
        # Drop span bookkeeping so a later re-attach starts clean instead
        # of transitioning keys that only existed on the released bus.
        soc.l2._obs_slots = []
        for l1 in soc.l1s:
            l1._obs_mshr_keys.clear()
            l1.probe_unit._obs_key = None


class Observability:
    """Bus + registry for one :class:`~repro.uarch.soc.Soc`.

    Usage::

        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs([...])
        snapshot = obs.snapshot()          # one JSON-ready dict
        write_jsonl("run.jsonl", obs.bus)  # exportable trace
        obs.detach()                       # hooks become no-ops again
    """

    def __init__(self, soc: "Soc", max_events: Optional[int] = None) -> None:
        self.soc = soc
        self.bus = acquire_bus(soc, max_events=max_events)
        self.registry = soc_registry(soc, self.bus)
        self._attached = True

    @classmethod
    def attach(cls, soc: "Soc", max_events: Optional[int] = None) -> "Observability":
        return cls(soc, max_events=max_events)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def detach(self) -> None:
        if self._attached:
            release_bus(self.soc)
            self._attached = False


def soc_registry(soc: "Soc", bus: Optional[EventBus] = None) -> MetricsRegistry:
    """Build the full ``soc.*`` metrics tree over a (possibly running) SoC."""
    registry = MetricsRegistry()
    for i, (l1, core) in enumerate(zip(soc.l1s, soc.cores)):
        base = f"soc.core{i}"
        registry.register_counter(f"{base}.cpu", core.stats)
        registry.register_counter(f"{base}.l1", l1.stats)
        fu = l1.flush_unit
        registry.register_counter(f"{base}.l1.flush_unit", fu.stats)
        registry.register_gauge(
            f"{base}.l1.flush_unit.queue_occupancy", lambda fu=fu: len(fu.queue)
        )
        registry.register_gauge(
            f"{base}.l1.flush_unit.fshrs_busy",
            lambda fu=fu: sum(1 for f in fu.fshrs if f.busy),
        )
        registry.register_gauge(
            f"{base}.l1.flush_unit.flush_counter", lambda fu=fu: fu.flush_counter
        )
        registry.register_gauge(
            f"{base}.l1.mshrs_busy",
            lambda l1=l1: sum(1 for m in l1.mshrs if m.busy),
        )
        pu = l1.probe_unit
        registry.register_gauge(
            f"{base}.l1.probe_unit.probes_handled", lambda pu=pu: pu.probes_handled
        )
        registry.register_gauge(
            f"{base}.l1.probe_unit.stalled_cycles",
            lambda pu=pu: pu.probes_stalled_cycles,
        )
        registry.register_gauge(
            f"{base}.l1.wbu.evictions", lambda wbu=l1.wbu: wbu.evictions
        )
        registry.register_gauge(
            f"{base}.l1.wbu.busy", lambda wbu=l1.wbu: not wbu.wb_rdy
        )
        for name in "abcde":
            channel = getattr(l1, f"chan_{name}")
            registry.register_gauge(
                f"{base}.link.{name}_in_flight", lambda c=channel: len(c)
            )
    registry.register_counter("soc.l2", soc.l2.stats)
    registry.register_gauge(
        "soc.l2.mshrs_busy",
        lambda l2=soc.l2: sum(1 for m in l2.mshrs if m is not None),
    )
    registry.register_gauge(
        "soc.l2.list_buffer_occupancy", lambda l2=soc.l2: len(l2.list_buffer)
    )
    registry.register_gauge("soc.dram.busy", lambda dram=soc.dram: dram.busy)
    registry.register_gauge("soc.engine.cycle", lambda engine=soc.engine: engine.cycle)
    if bus is not None:
        registry.register_provider("obs.latency", bus.latency_summary)
        registry.register_gauge("obs.events_buffered", lambda b=bus: len(b.events))
        registry.register_gauge("obs.spans_completed", lambda b=bus: len(b.spans))
        registry.register_gauge("obs.spans_open", lambda b=bus: len(b.open_spans))
    return registry


# ------------------------------------------------------------ timing model
def timing_registry(system: "TimingSystem") -> MetricsRegistry:
    """Adopt a fast-timing-model system's counters and per-thread gauges."""
    registry = MetricsRegistry()
    registry.register_counter("timing.system", system.stats)
    for ctx in system.threads:
        base = f"timing.threads.t{ctx.tid}"
        registry.register_gauge(f"{base}.now", lambda c=ctx: c.now)
        registry.register_gauge(f"{base}.ops", lambda c=ctx: c.ops)
        registry.register_gauge(
            f"{base}.outstanding_writebacks", lambda c=ctx: len(c.outstanding)
        )
    return registry


def store_registry(store) -> MetricsRegistry:
    """Metrics tree for a store (:class:`~repro.store.store.LogStore`).

    ``store.*`` counters (commits, fences, checkpoints, log traffic),
    the commit-batch-size histogram, and liveness gauges over the
    commit/log state — the group-commit amortization and checkpoint
    cadence read straight out of one snapshot.
    """
    registry = MetricsRegistry()
    registry.register_counter("store", store.stats)
    registry.register_histogram("store.commit_batch", store.batch_sizes)
    registry.register_gauge(
        "store.wal.records_appended", lambda s=store: s.wal.records_appended
    )
    registry.register_gauge(
        "store.wal.bytes_appended", lambda s=store: s.wal.bytes_appended
    )
    registry.register_gauge(
        "store.wal.next_lsn", lambda s=store: s.wal.next_lsn
    )
    registry.register_gauge("store.acked_lsn", lambda s=store: s.acked_lsn)
    registry.register_gauge("store.watermark", lambda s=store: s.watermark)
    registry.register_gauge(
        "store.pending_ops", lambda s=store: len(s.sealer.pending)
    )
    registry.register_gauge(
        "store.memtable_size", lambda s=store: len(s.memtable)
    )
    registry.register_gauge(
        "store.flush_requests",
        lambda s=store: sum(v.flush_requests for v in s.views),
    )
    return registry


def shared_store_registry(store) -> MetricsRegistry:
    """Metrics tree for a :class:`~repro.store.shared.SharedLogStore`.

    Everything :func:`store_registry` exposes, plus the shared-log
    specifics: per-thread and aggregate **ack-latency histograms**
    (submit→durable cycles, the subsystem's headline metric — p50/p99
    in every snapshot), the leader tid, and tail-reservation traffic.
    """
    registry = store_registry(store)
    registry.register_histogram("store.ack_latency", store.ack_latency_all)
    for tid, histogram in enumerate(store.ack_latency):
        registry.register_histogram(f"store.ack_latency.t{tid}", histogram)
    registry.register_gauge(
        "store.wal.tail_cas_failures", lambda s=store: s.wal.tail_cas_failures
    )
    registry.register_gauge("store.leader_tid", lambda s=store: s.leader_tid)
    return registry


def serve_registry(tier) -> MetricsRegistry:
    """Metrics tree for a :class:`~repro.serve.tier.ServeTier`.

    ``serve.*`` counters (admitted / rejected / completed,
    snapshot reads and fallbacks, backpressure transitions), the
    **queue-wait** and **arrival→durable ack-latency** histograms that
    figure 19 reports, admission-state gauges and per-session LSN
    floors — the saturation story of one run in a single snapshot.
    """
    registry = MetricsRegistry()
    registry.register_counter("serve", tier.stats)
    registry.register_histogram("serve.queue_wait", tier.queue_wait)
    registry.register_histogram("serve.ack_latency", tier.ack_latency)
    registry.register_gauge(
        "serve.admission.engaged", lambda t=tier: int(t.admission.engaged)
    )
    registry.register_gauge(
        "serve.admission.admitted", lambda t=tier: t.admission.admitted
    )
    registry.register_gauge(
        "serve.admission.rejections", lambda t=tier: t.admission.shed
    )
    registry.register_gauge(
        "serve.admission.engagements", lambda t=tier: t.admission.engagements
    )
    registry.register_gauge(
        "serve.admission.releases", lambda t=tier: t.admission.releases
    )
    registry.register_gauge("serve.max_depth", lambda t=tier: t.max_depth)
    registry.register_gauge("serve.inflight", lambda t=tier: t.inflight)
    registry.register_gauge(
        "serve.sessions", lambda t=tier: len(t.sessions)
    )
    for sid, session in sorted(tier.sessions.items()):
        registry.register_gauge(
            f"serve.session.s{sid}.lsn_floor", lambda s=session: s.lsn_floor
        )
        registry.register_gauge(
            f"serve.session.s{sid}.writes", lambda s=session: s.writes
        )
        registry.register_gauge(
            f"serve.session.s{sid}.snapshot_reads",
            lambda s=session: s.snapshot_reads,
        )
    return registry


def attach_timing(
    system: "TimingSystem", bus: Optional[EventBus] = None
) -> EventBus:
    """Wire event hooks of the fast timing model; returns the bus."""
    if bus is None:
        bus = EventBus()
    system.obs = bus
    return bus


def detach_timing(system: "TimingSystem") -> None:
    system.obs = None
