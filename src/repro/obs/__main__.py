"""Observability CLI: ``python -m repro.obs <command>``.

Commands
--------
``record``
    Run a quickstart-scale workload on the cycle-level SoC with the
    observability layer attached and write the trace as JSONL (and
    optionally Chrome trace-event JSON for Perfetto).
``summary``
    Aggregate a recorded JSONL trace: event counts, span latency stats.
``convert``
    Convert a JSONL trace to Chrome trace-event JSON
    (open at https://ui.perfetto.dev or ``chrome://tracing``).
``hot``
    List the top-N hottest cache lines of a recorded trace.
``record-store``
    Run one figure-18 shared-log store cell with the causal
    :class:`~repro.obs.trace.StoreTracer` attached; write the trace and
    print the blame report (which pipeline stage each op's latency went
    to).
``query``
    Answer "where did the cycles of the slowest acks go" over a
    recorded store trace: top-K slowest ops with per-bucket blame.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.attach import Observability
from repro.obs.export import (
    chrome_trace,
    hottest_lines,
    read_jsonl,
    summarize,
    write_jsonl,
)


def _demo_programs(num_cores: int, lines: int, redundant: int):
    """The quickstart workload: stores, necessary + redundant cleans, a
    cross-core sharing round, and a trailing flush + fence per core."""
    from repro.uarch.cpu import Instr

    programs = []
    for core in range(num_cores):
        base = 0x10000 + core * 0x8000
        program = []
        for i in range(lines):
            address = base + i * 64
            program.append(Instr.store(address, i + 1))
            program.append(Instr.clean(address))
            program.extend(Instr.clean(address) for _ in range(redundant))
        program.append(Instr.fence())
        # touch the neighbour core's region to exercise probes
        neighbour = 0x10000 + ((core + 1) % num_cores) * 0x8000
        program.append(Instr.load(neighbour))
        program.append(Instr.store(base, 99))
        program.append(Instr.flush(base))
        program.append(Instr.fence())
        programs.append(program)
    return programs


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.sim.config import SoCParams
    from repro.uarch.soc import Soc

    params = SoCParams().with_cores(args.cores)
    soc = Soc(params)
    obs = Observability.attach(soc)
    cycles = soc.run_programs(
        _demo_programs(args.cores, args.lines, args.redundant)
    )
    soc.drain()
    written = write_jsonl(args.out, obs.bus)
    print(f"ran {cycles} cycles; wrote {written} records to {args.out}")
    if args.chrome:
        trace = chrome_trace(obs.bus.events, obs.bus.spans)
        with open(args.chrome, "w") as handle:
            json.dump(trace, handle)
        print(
            f"wrote {len(trace['traceEvents'])} trace entries to {args.chrome} "
            "(open at https://ui.perfetto.dev)"
        )
    if args.metrics:
        with open(args.metrics, "w") as handle:
            handle.write(obs.registry.to_json())
        print(f"wrote metrics snapshot to {args.metrics}")
    snapshot = obs.snapshot()
    for i in range(args.cores):
        fu = snapshot["soc"][f"core{i}"]["l1"]["flush_unit"]
        print(
            f"core{i}: enqueued={fu.get('enqueued', 0)} "
            f"skipped={fu.get('skipped', 0)} acks={fu.get('acks', 0)}"
        )
    obs.detach()
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    events, spans = read_jsonl(args.trace)
    result = summarize(events, spans)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    events, spans = read_jsonl(args.trace)
    trace = chrome_trace(events, spans)
    with open(args.out, "w") as handle:
        json.dump(trace, handle)
    print(f"wrote {len(trace['traceEvents'])} trace entries to {args.out}")
    return 0


def _cmd_record_store(args: argparse.Namespace) -> int:
    from repro.bench.store import run_mix
    from repro.obs.query import format_blame
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import StoreTracer

    tracer = StoreTracer()
    result = run_mix(
        args.optimizer, args.group_commit, args.threads, args.duration,
        shared=True, tracer=tracer,
    ).result
    written = write_jsonl(args.out, tracer.bus)
    print(
        f"{result.total_ops} ops in {result.elapsed} cycles "
        f"({result.throughput() / 1e6:.3f} Mops/s); "
        f"wrote {written} records to {args.out}"
    )
    if args.chrome:
        trace = chrome_trace(tracer.bus.events, tracer.bus.spans)
        with open(args.chrome, "w") as handle:
            json.dump(trace, handle)
        print(
            f"wrote {len(trace['traceEvents'])} trace entries to {args.chrome} "
            "(open at https://ui.perfetto.dev)"
        )
    if args.metrics:
        registry = MetricsRegistry()
        tracer.register_metrics(registry)
        with open(args.metrics, "w") as handle:
            handle.write(registry.to_json())
        print(f"wrote blame metrics snapshot to {args.metrics}")
    print()
    print(format_blame(tracer.records, top=args.top))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.obs.query import query_trace

    print(query_trace(args.trace, top=args.top))
    return 0


def _cmd_hot(args: argparse.Namespace) -> int:
    events, spans = read_jsonl(args.trace)
    rows = hottest_lines(events, spans, top=args.top)
    if not rows:
        print("no line activity recorded")
        return 0
    print(f"{'address':>12} {'spans':>6} {'cycles':>8} {'messages':>8}")
    for row in rows:
        print(
            f"{row['address']:#12x} {row['spans']:>6} "
            f"{row['span_cycles']:>8} {row['messages']:>8}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Record, summarize and convert observability traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run a demo workload and record it")
    record.add_argument("--out", default="trace.jsonl", help="JSONL output path")
    record.add_argument("--chrome", help="also write Chrome trace-event JSON here")
    record.add_argument("--metrics", help="also write the metrics snapshot here")
    record.add_argument("--cores", type=int, default=2)
    record.add_argument("--lines", type=int, default=16, help="lines per core")
    record.add_argument(
        "--redundant", type=int, default=2, help="redundant cleans per line"
    )
    record.set_defaults(fn=_cmd_record)

    summary = sub.add_parser("summary", help="summarize a recorded trace")
    summary.add_argument("trace")
    summary.set_defaults(fn=_cmd_summary)

    convert = sub.add_parser("convert", help="JSONL -> Chrome trace-event JSON")
    convert.add_argument("trace")
    convert.add_argument("-o", "--out", default="trace.json")
    convert.set_defaults(fn=_cmd_convert)

    hot = sub.add_parser("hot", help="top-N hottest cache lines")
    hot.add_argument("trace")
    hot.add_argument("-n", "--top", type=int, default=10)
    hot.set_defaults(fn=_cmd_hot)

    rstore = sub.add_parser(
        "record-store", help="record a causally-traced shared-store run"
    )
    rstore.add_argument(
        "--out", default="store_trace.jsonl", help="JSONL output path"
    )
    rstore.add_argument("--chrome", help="also write Chrome trace-event JSON here")
    rstore.add_argument("--metrics", help="also write blame metrics here")
    rstore.add_argument("--optimizer", default="skipit")
    rstore.add_argument("--threads", type=int, default=2)
    rstore.add_argument("--group-commit", type=int, default=8)
    rstore.add_argument("--duration", type=int, default=30_000)
    rstore.add_argument("-n", "--top", type=int, default=5)
    rstore.set_defaults(fn=_cmd_record_store)

    query = sub.add_parser(
        "query", help="top-K slowest ops and their dominant blame bucket"
    )
    query.add_argument("trace")
    query.add_argument("-n", "--top", type=int, default=5)
    query.set_defaults(fn=_cmd_query)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
