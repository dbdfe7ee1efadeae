"""Integration tests: the observability layer attached to the simulators.

Covers span open/close pairing across every FSHR FSM path (including the
probe-interference abort of §5.4.1), registry snapshot shape over a SoC,
Chrome-trace export of a real run, deadlock diagnostics content, and the
regression guarantee that an attached-but-unsubscribed observer changes
no cycle counts.
"""

import pytest

from repro.core.flush_queue import CboKind
from repro.core.flush_unit import OfferResult
from repro.core.fshr import FshrState
from repro.obs import (
    Observability,
    acquire_bus,
    attach_timing,
    chrome_trace,
    detach_timing,
    release_bus,
    timing_registry,
)
from repro.obs.export import validate_chrome_trace
from repro.sim.config import SoCParams
from repro.sim.engine import SimulationDeadlock
from repro.tilelink.permissions import Cap
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc

LINE = 0x9000


def cbo_spans(bus):
    return [s for s in bus.spans if s.category == "cbo"]


def states_of(span):
    return [segment[0] for segment in span.states]


class TestCboSpanPaths:
    """One span per CBO.X, walking the documented FSHR FSM path."""

    def test_dirty_clean_full_path(self):
        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        spans = cbo_spans(obs.bus)
        assert len(spans) == 1
        span = spans[0]
        assert span.closed
        assert states_of(span) == [
            "queued",
            "meta_write",
            "fill_buffer",
            "root_release_data",
            "root_release_ack",
        ]
        assert sum(span.state_durations().values()) == span.duration
        assert span.args["kind"] == "clean" and span.args["dirty"] is True

    def test_clean_line_flush_skips_fill(self):
        # store+clean+fence persists; a later flush finds the line clean.
        # Without Skip It hardware the flush still runs (meta_write, no
        # fill_buffer, dataless release).
        soc = Soc(SoCParams().with_skip_it(False))
        obs = Observability.attach(soc)
        soc.run_programs(
            [
                [
                    Instr.store(LINE, 1),
                    Instr.clean(LINE),
                    Instr.fence(),
                    Instr.flush(LINE),
                    Instr.fence(),
                ]
            ]
        )
        flush_span = next(s for s in cbo_spans(obs.bus) if s.args["kind"] == "flush")
        assert states_of(flush_span) == [
            "queued",
            "meta_write",
            "root_release",
            "root_release_ack",
        ]

    def test_miss_path_goes_straight_to_release(self):
        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs([[Instr.clean(LINE), Instr.fence()]])
        span = cbo_spans(obs.bus)[0]
        assert span.args["hit"] is False
        assert states_of(span) == ["queued", "root_release", "root_release_ack"]

    def test_inval_discards_without_fill(self):
        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs([[Instr.store(LINE, 1), Instr.inval(LINE), Instr.fence()]])
        span = next(s for s in cbo_spans(obs.bus) if s.args["kind"] == "inval")
        # dirty hit + inval: metadata invalidated, buffer never filled
        assert states_of(span) == ["queued", "meta_write", "root_release", "root_release_ack"]

    def test_probe_interference_aborts_to_miss_path(self):
        """§5.4.1: a probe downgrades a queued entry before dequeue."""
        soc = Soc()
        soc.run_programs([[Instr.store(LINE, 1)]])  # make the line dirty
        obs = Observability.attach(soc)
        l1 = soc.l1s[0]
        fu = l1.flush_unit
        result = fu.offer(LINE, CboKind.FLUSH, l1.meta.lookup(LINE))
        assert result is OfferResult.ACCEPTED
        # the probe lands while the request still waits in the queue
        fu.probe_invalidate(LINE, Cap.toN)
        soc.engine.run_until(lambda: fu.flush_counter == 0, max_cycles=10_000)
        span = cbo_spans(obs.bus)[-1]
        assert span.args["probe_downgraded"] == "toN"
        # downgraded to a miss entry: no meta_write, no data buffer
        assert "meta_write" not in states_of(span)
        assert "fill_buffer" not in states_of(span)
        assert "root_release" in states_of(span)

    def test_every_span_closes_and_pairs(self):
        soc = Soc()
        obs = Observability.attach(soc)
        programs = []
        for core in range(len(soc.cores)):
            base = 0x10000 + core * 0x4000
            program = []
            for i in range(6):
                program += [
                    Instr.store(base + i * 64, i + 1),
                    Instr.clean(base + i * 64),
                ]
            program += [Instr.fence(), Instr.flush(base), Instr.fence()]
            programs.append(program)
        soc.run_programs(programs)
        soc.drain()
        assert not obs.bus.open_spans  # nothing left dangling
        assert obs.bus.dropped == 0
        begins = sum(1 for e in obs.bus.events if e.name.endswith(":begin"))
        ends = sum(1 for e in obs.bus.events if e.name.endswith(":end"))
        assert begins == ends == len(obs.bus.spans)
        for span in obs.bus.spans:
            assert sum(span.state_durations().values()) == span.duration
        acks = sum(l1.flush_unit.stats.get("acks") for l1 in soc.l1s)
        assert len(cbo_spans(obs.bus)) == acks

    def test_skipped_cbo_emits_instant_not_span(self):
        soc = Soc()
        soc.run_programs([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        obs = Observability.attach(soc)
        soc.run_programs([[Instr.clean(LINE), Instr.fence()]])
        assert cbo_spans(obs.bus) == []
        skipped = [e for e in obs.bus.events if e.name == "skipped"]
        assert len(skipped) == 1 and skipped[0].args["address"] == LINE


class TestRegistrySnapshot:
    def test_soc_snapshot_shape(self):
        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        snapshot = obs.snapshot()
        fu = snapshot["soc"]["core0"]["l1"]["flush_unit"]
        assert fu["enqueued"] == 1 and fu["acks"] == 1
        assert fu["queue_occupancy"] == 0 and fu["fshrs_busy"] == 0
        assert fu["flush_counter"] == 0
        assert snapshot["soc"]["core0"]["l1"]["mshrs_busy"] == 0
        assert snapshot["soc"]["engine"]["cycle"] == soc.engine.cycle
        assert "l2" in snapshot["soc"] and "dram" in snapshot["soc"]
        # per-state latency summaries ride along under obs.latency
        latency = snapshot["obs"]["latency"]["cbo"]
        assert latency["total"]["count"] == 1
        assert latency["queued"]["count"] == 1

    def test_timing_registry_snapshot(self):
        system = TimingSystem()
        ctx = system.threads[0]
        ctx.store(0x40, 1)
        ctx.clean(0x40)
        ctx.fence()
        snapshot = timing_registry(system).snapshot()
        assert snapshot["timing"]["system"]["cbo_issued"] == 1
        thread = snapshot["timing"]["threads"]["t0"]
        assert thread["now"] == ctx.now and thread["outstanding_writebacks"] == 0


class TestChromeExportOfRun:
    def test_quickstart_run_produces_valid_trace(self):
        soc = Soc()
        obs = Observability.attach(soc)
        soc.run_programs(
            [[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]]
        )
        soc.drain()
        trace = chrome_trace(obs.bus.events, obs.bus.spans)
        assert validate_chrome_trace(trace) == []
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # one top-level slice per completed CBO.X...
        cbo_slices = [s for s in slices if s["name"] == "cbo.clean"]
        assert len(cbo_slices) == len(cbo_spans(obs.bus))
        # ...whose per-state slices sum to its duration
        for top in cbo_slices:
            key = top["args"]["key"]
            segments = [
                s
                for s in slices
                if s["name"].startswith("cbo.clean.")
                and s["args"].get("key") == key
            ]
            assert sum(s["dur"] for s in segments) == top["dur"]


class TestDeadlockDiagnostics:
    def _wedge(self, soc):
        """Fake a never-acked FSHR so a fence can never commit."""
        fu = soc.l1s[0].flush_unit
        from repro.core.flush_queue import FlushRequest

        fshr = fu.fshrs[0]
        fshr.request = FlushRequest(
            address=LINE, kind=CboKind.CLEAN, is_hit=False, is_dirty=False
        )
        fshr.state = FshrState.ROOT_RELEASE_ACK
        fu.flush_counter += 1
        return fu

    def test_forced_deadlock_report_contents(self):
        soc = Soc()
        soc.engine.watchdog_interval = 300
        self._wedge(soc)
        with pytest.raises(SimulationDeadlock) as excinfo:
            soc.run_programs([[Instr.fence()]])
        report = excinfo.value.report
        core0 = report["soc"]["core0"]
        assert core0["flush_counter"] == 1
        assert core0["flush_queue"]["occupancy"] == 0
        assert core0["fshrs"] == [
            {"index": 0, "state": "root_release_ack", "address": hex(LINE)}
        ]
        assert core0["mshrs"] == []
        assert "list_buffer_occupancy" in report["soc"]["l2"]
        assert "--- deadlock diagnostics ---" in str(excinfo.value)

    def test_report_carries_event_tail_when_observed(self):
        soc = Soc()
        soc.engine.watchdog_interval = 300
        obs = Observability.attach(soc)
        self._wedge(soc)
        with pytest.raises(SimulationDeadlock) as excinfo:
            soc.run_programs([[Instr.store(LINE, 7), Instr.fence()]])
        report = excinfo.value.report
        assert report["last_events"]  # the trailing bus events rode along
        assert any("cycle" in e for e in report["last_events"])
        obs.detach()

    def test_unobserved_report_has_no_event_tail(self):
        soc = Soc()
        soc.engine.watchdog_interval = 300
        self._wedge(soc)
        with pytest.raises(SimulationDeadlock) as excinfo:
            soc.run_programs([[Instr.fence()]])
        assert "last_events" not in excinfo.value.report

    def test_max_cycles_timeout_also_carries_report(self):
        soc = Soc()
        self._wedge(soc)
        with pytest.raises(SimulationDeadlock) as excinfo:
            soc.run_programs([[Instr.fence()]], max_cycles=100)
        assert excinfo.value.report["soc"]["core0"]["flush_counter"] == 1


def _regression_programs(num_cores):
    programs = []
    for core in range(num_cores):
        base = 0x20000 + core * 0x4000
        program = []
        for i in range(8):
            program += [Instr.store(base + i * 64, i + 1), Instr.clean(base + i * 64)]
        program += [Instr.fence()]
        # cross-core sharing to exercise probes while observed
        other = 0x20000 + ((core + 1) % num_cores) * 0x4000
        program += [Instr.load(other), Instr.store(base, 42), Instr.flush(base)]
        program += [Instr.fence()]
        programs.append(program)
    return programs


class TestObserverIsTimingNeutral:
    """Attaching a bus must not change a single cycle anywhere."""

    def test_soc_cycle_counts_unchanged(self):
        plain = Soc()
        cycles_plain = plain.run_programs(_regression_programs(len(plain.cores)))

        observed = Soc()
        obs = Observability.attach(observed)
        cycles_observed = observed.run_programs(
            _regression_programs(len(observed.cores))
        )
        assert cycles_observed == cycles_plain
        assert observed.stats_summary() == plain.stats_summary()
        assert len(obs.bus.spans) > 0  # the observer did actually record

    def test_detached_soc_is_unwired(self):
        soc = Soc()
        obs = Observability.attach(soc)
        obs.detach()
        assert soc.engine.obs is None
        assert all(l1.obs is None for l1 in soc.l1s)
        assert all(l1.flush_unit.obs is None for l1 in soc.l1s)
        assert soc.l2.obs is None
        soc.run_programs([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        assert len(obs.bus.spans) == 0  # nothing recorded after detach

    def test_refcounted_bus_shared_between_holders(self):
        soc = Soc()
        obs = Observability.attach(soc)
        bus = acquire_bus(soc)
        assert bus is obs.bus  # one shared bus
        release_bus(soc)
        assert soc.engine.obs is obs.bus  # still held by the Observability
        obs.detach()
        assert soc.engine.obs is None

    def test_timing_model_unchanged_when_observed(self):
        def run(system):
            ctx = system.threads[0]
            for i in range(32):
                ctx.store(0x1000 + i * 64, i)
                ctx.clean(0x1000 + i * 64)
            ctx.fence()
            return ctx.now

        plain = TimingSystem()
        observed = TimingSystem()
        bus = attach_timing(observed)
        assert run(observed) == run(plain)
        assert observed.stats.as_dict() == plain.stats.as_dict()
        assert any(e.name == "cbo_issued" for e in bus.events)
        detach_timing(observed)


class TestBusAcquireRelease:
    def test_acquire_release_cycle(self):
        soc = Soc()
        bus = acquire_bus(soc)
        assert bus.refs == 1 and soc.engine.obs is bus
        assert acquire_bus(soc) is bus and bus.refs == 2
        release_bus(soc)
        assert soc.engine.obs is bus
        release_bus(soc)
        assert soc.engine.obs is None

    def test_release_stops_recording(self):
        soc = Soc()
        bus = acquire_bus(soc)
        soc.run_programs([[Instr.load(LINE)]])
        recorded = len(bus.events)
        assert recorded > 0
        release_bus(soc)
        assert soc.engine.obs is None
        soc.run_programs([[Instr.load(LINE + 0x40)]])
        assert len(bus.events) == recorded  # nothing new after release
        release_bus(soc)  # idempotent

    def test_max_events_keeps_newest(self):
        soc = Soc()
        bus = acquire_bus(soc, max_events=5)
        program = [Instr.store(0x3000 + i * 64, i) for i in range(10)]
        soc.run_programs([program])
        soc.drain()
        assert len(bus.events) == 5
        # the retained tail is the newest traffic
        assert bus.events[-1].cycle >= bus.events[0].cycle

    def test_reattach_after_release_starts_clean(self):
        soc = Soc()
        acquire_bus(soc)
        soc.run_programs([[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]])
        release_bus(soc)
        bus2 = acquire_bus(soc)
        soc.run_programs([[Instr.clean(LINE + 0x40), Instr.fence()]])
        soc.drain()
        assert bus2.dropped == 0
        assert not bus2.open_spans
