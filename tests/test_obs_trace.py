"""Causal store tracing: blame attribution, zero-cost detach, export.

The contract under test is the tentpole's acceptance bar:

* for every acked op the blame buckets sum *exactly* to the raw
  submit→durable cycle count the store itself measured (cross-checked
  against the tickets, not the tracer's own arithmetic);
* with no tracer attached a benchmark run is bit-identical to a traced
  run's numbers — the hooks are pure observation;
* a recorded trace survives the JSONL → Chrome trace-event round trip
  with span nesting, flow links and monotone counter tracks intact.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.shared import shared_row
from repro.bench.store import run_mix
from repro.obs.events import EventBus
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    write_jsonl,
)
from repro.obs.query import (
    blame_from_spans,
    format_blame,
    query_trace,
    top_slowest,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import BLAME_BUCKETS, StoreTracer
from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.store.shared import SharedLogStore
from repro.store.store import DurableStore
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def _shared_store(threads=2, batch_size=4, optimizer="skipit"):
    params = TimingParams(num_threads=max(2, threads))
    system = TimingSystem(params)
    heap = SimHeap(line_bytes=params.line_bytes)
    opt = make_optimizer(optimizer, heap, 1024)
    policy = make_policy("none")
    views = [
        PMemView(ctx, policy, opt) for ctx in system.threads[:threads]
    ]
    store = SharedLogStore(heap, views, batch_size=batch_size)
    return store, system


def _private_store(batch_size=4):
    params = TimingParams(num_threads=2)
    system = TimingSystem(params)
    heap = SimHeap(line_bytes=params.line_bytes)
    opt = make_optimizer("skipit", heap, 1024)
    policy = make_policy("none")
    view = PMemView(system.threads[0], policy, opt)
    store = DurableStore(heap, view, batch_size=batch_size)
    return store, system


class TestBlameExactness:
    def test_shared_blame_sums_match_tickets_exactly(self):
        store, system = _shared_store(threads=2, batch_size=4)
        tracer = StoreTracer().attach(store, system)
        tickets = []
        for i in range(1, 25):
            tickets.append(store.put(i % 2, i, i + 100))
        store.sync()
        assert all(t.acked for t in tickets)
        by_id = {t.trace_id: t for t in tickets}
        assert len(tracer.records) == len(tickets)
        for record in tracer.records:
            ticket = by_id[record.trace_id]
            # cycle-exact: the buckets telescope to the ticket's own
            # raw submit->durable delta, not the tracer's bookkeeping
            assert sum(record.buckets.values()) == (
                ticket.durable_now - ticket.submit_now
            )
            assert record.latency == ticket.durable_now - ticket.submit_now
            assert record.submit_now == ticket.submit_now
            assert record.lsn == ticket.lsn
            assert record.tid == ticket.tid
            assert set(record.buckets) == set(BLAME_BUCKETS)

    def test_private_store_blame_sums_exactly(self):
        store, system = _private_store(batch_size=4)
        tracer = StoreTracer().attach(store, system)
        tickets = [store.put(k, k + 10) for k in range(1, 13)]
        store.sync()
        assert all(t.acked for t in tickets)
        assert len(tracer.records) == len(tickets)
        by_id = {t.trace_id: t for t in tickets}
        for record in tracer.records:
            assert record.trace_id in by_id
            assert sum(record.buckets.values()) == record.latency
            # single-view store: clocks can't run backwards
            assert record.latency >= 0 and not record.clamped

    def test_fig18_quick_run_blame_sums_exactly(self):
        tracer = StoreTracer()
        rig = run_mix("skipit", 8, 2, 20_000, shared=True, tracer=tracer)
        assert rig.result.total_ops > 0
        assert tracer.records, "quick run acked no ops"
        for record in tracer.records:
            assert sum(record.buckets.values()) == record.latency
            assert record.latency == record.durable_now - record.submit_now
        # the clamp counter agrees with the per-record clamped flags
        assert shared_row(rig).ack_clamped == sum(
            1 for r in tracer.records if r.clamped
        )

    def test_blame_exact_under_ack_before_fence_mutant(self):
        # the seeded bug acks followers before the fence; the identity
        # must still telescope (fence buckets simply read zero)
        store, system = _shared_store(threads=2, batch_size=4)
        store.mutants.add("shared_ack_before_fence")
        tracer = StoreTracer().attach(store, system)
        tickets = [store.put(i % 2, i, i + 5) for i in range(1, 17)]
        store.sync()
        by_id = {t.trace_id: t for t in tickets}
        assert len(tracer.records) == len(tickets)
        for record in tracer.records:
            ticket = by_id[record.trace_id]
            assert sum(record.buckets.values()) == (
                ticket.durable_now - ticket.submit_now
            )

    def test_dominant_bucket_and_metrics(self):
        store, system = _shared_store(threads=2, batch_size=4)
        tracer = StoreTracer().attach(store, system)
        for i in range(1, 9):
            store.put(i % 2, i, i + 1)
        store.sync()
        registry = MetricsRegistry()
        tracer.register_metrics(registry)
        flat = registry.flat()
        assert any("store.blame.latency" in key for key in flat)
        for record in tracer.records:
            assert record.dominant in BLAME_BUCKETS
            assert record.buckets[record.dominant] == max(
                record.buckets.values()
            )


class TestZeroCostDetached:
    FIELDS = (
        "throughput_mops",
        "fences",
        "ack_p50",
        "ack_p99",
        "cbo_issued",
        "cbo_skipped",
        "wal_records",
        "commits",
        "ack_clamped",
    )

    def test_traced_run_is_bit_identical_to_detached(self):
        # same seed, same duration: attaching the tracer must not move
        # a single cycle anywhere in the run
        plain = run_mix("skipit", 8, 2, 15_000, seed=77, shared=True)
        traced = run_mix(
            "skipit", 8, 2, 15_000, seed=77, shared=True, tracer=StoreTracer()
        )
        assert plain.result.total_ops == traced.result.total_ops
        assert plain.result.elapsed == traced.result.elapsed
        plain_row, traced_row = shared_row(plain), shared_row(traced)
        for name in self.FIELDS:
            assert getattr(plain_row, name) == getattr(traced_row, name), name

    def test_detach_restores_store_and_system(self):
        store, system = _shared_store()
        tracer = StoreTracer().attach(store, system)
        assert store.tracer is tracer and system.obs is tracer.bus
        tracer.detach()
        assert store.tracer is None and system.obs is None


class TestQuery:
    def _traced_run(self, tmp_path):
        tracer = StoreTracer()
        run_mix("skipit", 8, 2, 15_000, shared=True, tracer=tracer)
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), tracer.bus)
        return tracer, path

    def test_jsonl_round_trip_reproduces_records(self, tmp_path):
        tracer, path = self._traced_run(tmp_path)
        _, spans = read_jsonl(str(path))
        rebuilt = {r.trace_id: r for r in blame_from_spans(spans)}
        assert len(rebuilt) == len(tracer.records)
        for record in tracer.records:
            twin = rebuilt[record.trace_id]
            assert twin.latency == record.latency
            assert twin.buckets == record.buckets
            assert twin.epoch == record.epoch
            assert twin.submit_now == record.submit_now

    def test_top_slowest_ordering(self, tmp_path):
        tracer, _ = self._traced_run(tmp_path)
        top = top_slowest(tracer.records, top=5)
        assert len(top) == min(5, len(tracer.records))
        latencies = [r.latency for r in top]
        assert latencies == sorted(latencies, reverse=True)
        assert latencies[0] == max(r.latency for r in tracer.records)

    def test_query_cli_output_names_dominant_bucket(self, tmp_path):
        tracer, path = self._traced_run(tmp_path)
        text = query_trace(str(path), top=5)
        assert "top 5 slowest ops" in text
        assert "dominant" in text
        slowest = top_slowest(tracer.records, top=1)[0]
        assert f"op:{slowest.trace_id}" in text
        assert slowest.dominant in text

    def test_format_blame_empty(self):
        assert "no acked ops" in format_blame([])


class TestStoreCommands:
    """``python -m repro.obs record-store`` and ``query`` end to end."""

    def test_record_store_writes_all_three_files_and_query_reads_them(
        self, tmp_path, capsys
    ):
        from repro.obs.__main__ import main

        out = tmp_path / "st.jsonl"
        chrome = tmp_path / "st.json"
        metrics = tmp_path / "sm.json"
        argv = ["record-store", "--out", str(out), "--chrome", str(chrome)]
        argv += ["--metrics", str(metrics), "--duration", "5000"]
        assert main(argv) == 0
        assert out.exists() and chrome.exists() and metrics.exists()
        capsys.readouterr()
        assert main(["query", str(out)]) == 0
        acked = re.match(r"(\d+) acked ops", capsys.readouterr().out)
        assert acked and int(acked.group(1)) > 0
        records = blame_from_spans(read_jsonl(str(out))[1])
        assert len(records) == int(acked.group(1))
        for record in records:
            assert record.buckets["leader_wait"] >= 0, record
            assert sum(record.buckets.values()) == record.latency, record


class TestPerfettoRoundTrip:
    def _soc_trace(self, tmp_path):
        from repro.obs.__main__ import _demo_programs
        from repro.obs.attach import Observability
        from repro.sim.config import SoCParams
        from repro.uarch.soc import Soc

        soc = Soc(SoCParams().with_cores(2))
        obs = Observability.attach(soc)
        soc.run_programs(_demo_programs(2, lines=6, redundant=2))
        soc.drain()
        path = tmp_path / "soc.jsonl"
        write_jsonl(str(path), obs.bus)
        events, spans = read_jsonl(str(path))
        trace = chrome_trace(events, spans)
        obs.detach()
        return trace

    def test_soc_round_trip_validates_and_nests(self, tmp_path):
        trace = self._soc_trace(tmp_path)
        # re-parse through JSON to prove serialisability
        trace = json.loads(json.dumps(trace))
        assert validate_chrome_trace(trace) == []
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        parents = {
            e["args"]["key"]: e
            for e in slices
            if "state" not in e.get("args", {})
        }
        nested = 0
        for entry in slices:
            state = entry.get("args", {}).get("state")
            if state is None:
                continue
            parent = parents[entry["args"]["key"]]
            assert entry["tid"] == parent["tid"]
            assert entry["ts"] >= parent["ts"]
            assert entry["ts"] + entry["dur"] <= parent["ts"] + parent["dur"]
            nested += 1
        assert nested > 0, "no state slices nested under request slices"

    def test_soc_counter_tracks_present_and_sane(self, tmp_path):
        trace = self._soc_trace(tmp_path)
        counters = {}
        for entry in trace["traceEvents"]:
            if entry["ph"] == "C":
                counters.setdefault(entry["name"], []).append(
                    (entry["ts"], entry["args"]["value"])
                )
        assert set(counters) >= {
            "flush_queue_depth",
            "outstanding_fshrs",
            "skip_filtered_cleans",
        }
        for name, samples in counters.items():
            ts = [t for t, _ in samples]
            assert ts == sorted(ts), f"{name} timestamps out of order"
            assert all(v >= 0 for _, v in samples), f"{name} went negative"
        skip_values = [v for _, v in counters["skip_filtered_cleans"]]
        assert skip_values == sorted(skip_values), (
            "cumulative skip counter must be monotone"
        )
        assert skip_values[-1] > 0

    def test_store_trace_flow_links_pair_up(self, tmp_path):
        tracer = StoreTracer()
        run_mix("skipit", 8, 2, 15_000, shared=True, tracer=tracer)
        path = tmp_path / "store.jsonl"
        write_jsonl(str(path), tracer.bus)
        events, spans = read_jsonl(str(path))
        trace = json.loads(json.dumps(chrome_trace(events, spans)))
        assert validate_chrome_trace(trace) == []
        starts = {
            e["id"]: e for e in trace["traceEvents"] if e["ph"] == "s"
        }
        ends = {e["id"]: e for e in trace["traceEvents"] if e["ph"] == "f"}
        # every flow start has exactly one end, and at least one op->epoch
        # link exists per acked op
        assert starts and set(starts) == set(ends)
        assert len(starts) >= len(tracer.records)
        slice_anchors = {
            (e["tid"], e["ts"])
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        for flow_id, start in starts.items():
            end = ends[flow_id]
            assert (start["tid"], start["ts"]) in slice_anchors
            assert (end["tid"], end["ts"]) in slice_anchors


class TestCausalEventBus:
    def test_causal_scope_injects_and_restores(self):
        bus = EventBus()
        with bus.causal("op:1"):
            bus.emit(5, "cat", "inner")
            with bus.causal("op:2"):
                bus.emit(6, "cat", "nested")
            bus.emit(7, "cat", "back")
        bus.emit(8, "cat", "outside")
        causes = [e.args.get("cause") for e in bus.events]
        assert causes == ["op:1", "op:2", "op:1", None]

    def test_explicit_cause_wins_over_ambient(self):
        bus = EventBus()
        with bus.causal("ambient"):
            bus.emit(1, "cat", "n", cause="explicit")
        assert bus.events[0].args["cause"] == "explicit"
