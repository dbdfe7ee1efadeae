"""``python -m repro.verify`` — the verification harness entry point.

``--smoke`` (the default, also the CI gate) runs eight stages:

1. **Timing crash-point matrix** — {clean, flush} x dirty-in-{own L1,
   other L1, L2, victim L3} x Skip It on/off through
   :class:`~repro.verify.injector.TimingCrashInjector`, checking the
   crash image at every operation boundary (including the mid-writeback
   window between CBO issue and fence).
2. **Soc crash-point sweep** — cycle-level programs chosen to drive the
   flush unit through every FSHR state and the §5.4 probe interference
   window, through :class:`~repro.verify.injector.SocCrashInjector`
   (sampled crash points; ``--exhaustive`` checks every cycle), with
   :class:`~repro.verify.coverage.FsmCoverage` riding the same event bus.
3. **Differential fuzzing** — a few seeded cross-model cases
   (``--fuzz N`` runs more; a failing case is shrunk to a minimal
   reproducer and reported with its seed).
4. **Store crash sweep** — the :mod:`repro.store` durable KV store
   driven through the ``store`` scenario of the crash sweep
   (:class:`~repro.verify.sweep.CrashSweep`): every optimizer x
   group-commit {1, 8, 64}, checking at every protocol boundary
   (including mid-writeback windows) that acknowledged commits survive,
   nothing beyond the last initiated epoch surfaces, and the recovered
   state equals the journal prefix.
5. **Shared-log crash sweep** — the same contract over the ``shared``
   scenario: N threads interleaving appends into one shared WAL, epochs
   sealed by a leader whose single fence must cover every thread's
   records; crashes at every seal boundary and writeback-completion
   window.
6. **Ranged seal crash sweep** — the store sweep again with
   ``ranged_seal`` on: epochs sealed by one ``CBO.RANGE.CLEAN`` over the
   log span plus a completion wait; the mid-range crash windows
   enumerate every cursor position of the sweep, every optimizer x
   group-commit {1, 8, 64}.
7. **Serve session sweep** — the serving tier's contracts over the
   ``serve`` scenario: sessions driving a
   :class:`~repro.serve.tier.ServeTier` (admission control engaged,
   snapshot reads exercised), checking journal-prefix durability at
   every crash point plus read-your-writes, per-session monotonic
   reads, and that shed requests are never journaled or recovered.
8. **Transaction sweep** — multi-key atomicity over the ``txn-shared``
   scenario: mixed plain and transactional traffic on the 3-thread
   shared log, every optimizer x group-commit {1, 8, 64}; the
   :class:`~repro.verify.txn.TxnOracle` rejects any crash image
   recovering a proper subset of a transaction's writes or any write of
   an uncommitted transaction.

``--exhaustive`` also checks the Soc crash image at every cycle and runs
the full crash-sweep product: every scenario in
:data:`~repro.verify.sweep.SCENARIOS` under both seal modes.

``--json PATH`` also writes the verdict as JSON: ``elapsed_seconds``
for the whole run and ``stage_seconds``, the wall time of each stage
keyed by its printed header.

Exit status: 0 all green, 1 on any oracle violation or model divergence,
2 when FSM coverage is below the floor (``--floor``, default 90% of
FSHR states).
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.sim.config import CacheGeometry
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc
from repro.verify.coverage import DEFAULT_FLOOR, FsmCoverage
from repro.verify.fuzz import DifferentialFuzzer
from repro.verify.injector import (
    CrashPointReport,
    SocCrashInjector,
    TimingCrashInjector,
)
from repro.verify.sweep import sweep_matrix

MATRIX_ADDR = 0x10000
MATRIX_VALUE = 42
MATRIX_LOCATIONS = ("own_l1", "other_l1", "l2", "l3")

#: the crash-sweep stages --smoke runs: (header, scenario, ranged_seal)
SMOKE_SWEEPS = (
    ("store crash sweep", "store", False),
    ("shared-log crash sweep", "shared", False),
    ("ranged seal crash sweep", "store", True),
    ("serve session sweep", "serve", False),
    ("txn atomicity sweep", "txn-shared", False),
)
#: --exhaustive adds the rest of the scenario x seal-mode product
EXHAUSTIVE_SWEEPS = SMOKE_SWEEPS + (
    ("private-log txn sweep", "txn", False),
    ("ranged seal shared-log sweep", "shared", True),
    ("ranged seal private-log txn sweep", "txn", True),
    ("ranged seal txn atomicity sweep", "txn-shared", True),
    ("ranged seal serve session sweep", "serve", True),
)


# ------------------------------------------------------ timing matrix
def matrix_system(skip_it: bool) -> TimingSystem:
    """Small geometries so the L3-dirty cell is reachable with few stores."""
    return TimingSystem(
        TimingParams(
            num_threads=2,
            skip_it=skip_it,
            l1=CacheGeometry(size_bytes=256, ways=2),
            l2=CacheGeometry(size_bytes=512, ways=2),
            l3=CacheGeometry(size_bytes=4096, ways=4),
        )
    )


def matrix_schedule(
    system: TimingSystem, op: str, location: str
) -> List[Tuple[int, Instr]]:
    """Dirty MATRIX_ADDR in exactly *location*, then CBO + fence."""
    schedule: List[Tuple[int, Instr]] = [
        (0, Instr.store(MATRIX_ADDR, MATRIX_VALUE))
    ]
    if location == "other_l1":
        schedule = [(1, Instr.store(MATRIX_ADDR, MATRIX_VALUE))]
    elif location == "l2":
        # a reader probe pulls the dirty data down into the L2 copy
        schedule.append((1, Instr.load(MATRIX_ADDR)))
    elif location == "l3":
        # conflict stores push the line out of L1 and L2 into the L3
        stride = system.params.l2.num_sets * system.params.line_bytes
        schedule += [
            (0, Instr.store(MATRIX_ADDR + i * stride, 100 + i))
            for i in range(1, 5)
        ]
    cbo = Instr.clean if op == "clean" else Instr.flush
    tid = 1 if location == "other_l1" else 0
    schedule += [(tid, cbo(MATRIX_ADDR)), (tid, Instr.fence())]
    return schedule


def run_timing_matrix() -> List[Tuple[str, CrashPointReport]]:
    """The {clean,flush} x location x skip_it sweep, every op boundary."""
    results = []
    for skip_it in (False, True):
        for op in ("clean", "flush"):
            for location in MATRIX_LOCATIONS:
                system = matrix_system(skip_it)
                schedule = matrix_schedule(system, op, location)
                injector = TimingCrashInjector(system)
                report = injector.run(schedule)
                name = f"{op}/{location}/skip={'on' if skip_it else 'off'}"
                results.append((name, report))
    return results


# --------------------------------------------------------- soc sweep
def _soc_cases(skip_it: bool) -> List[Tuple[str, List[List[Instr]]]]:
    """Programs that drive the FSHR FSM through every state.

    Values are unique nonzero per program set (the oracle requires it);
    each case runs on a fresh Soc so values may repeat across cases.
    """
    a_line, b_line, c_line, miss = 0x3000, 0x3040, 0x3080, 0x7000
    cases = []
    # dirty-hit clean + flush: meta_write -> fill_buffer ->
    # root_release_data -> root_release_ack; the second core's late load
    # probes mid-flush (the §5.4 interference window)
    cases.append(
        (
            "dirty_hit",
            [
                [
                    Instr.store(a_line, 1),
                    Instr.clean(a_line),
                    Instr.fence(),
                    Instr.store(b_line, 2),
                    Instr.flush(b_line),
                    Instr.fence(),
                ],
                [
                    Instr.store(c_line, 3),
                    Instr.clean(c_line),
                    Instr.fence(),
                    Instr.load(a_line),
                    Instr.load(b_line),
                ],
            ],
        )
    )
    # clean-hit (no dirty data): meta_write -> root_release (nodata);
    # reachable with Skip It off, or on a miss either way
    cases.append(
        (
            "clean_hit_and_miss",
            [
                [
                    Instr.store(a_line, 1),
                    Instr.clean(a_line),
                    Instr.fence(),
                    Instr.clean(a_line),  # skip on: dropped; off: nodata
                    Instr.flush(a_line),
                    Instr.fence(),
                    Instr.clean(miss),  # miss: root_release, no meta_write
                    Instr.fence(),
                ]
            ],
        )
    )
    # redundant clean after load fill: GrantData sets the skip bit, the
    # second clean must be dropped (skip on) or go nodata (skip off)
    cases.append(
        (
            "skip_path",
            [
                [
                    Instr.load(b_line),
                    Instr.clean(b_line),
                    Instr.fence(),
                    Instr.store(b_line, 4),
                    Instr.clean(b_line),
                    Instr.fence(),
                ]
            ],
        )
    )
    # CBO.RANGE over a mixed region: two dirty lines (range_meta_write ->
    # range_fill_buffer -> range_release_data -> range_release_ack), one
    # clean-resident line (range_release nodata with Skip It off, scan
    # filter with it on), all walked by range_scan under one flush-queue
    # entry; the second core's loads probe mid-sweep, and the per-line
    # redundant clean afterwards keeps both FSM families in one run
    cases.append(
        (
            "ranged_sweep",
            [
                [
                    Instr.store(a_line, 5),
                    Instr.store(c_line, 6),
                    Instr.load(b_line),
                    Instr.clean_range(a_line, 3 * 64),
                    Instr.fence(),
                    Instr.store(b_line, 7),
                    Instr.flush_range(b_line, 2 * 64),
                    Instr.fence(),
                ],
                [
                    Instr.load(a_line),
                    Instr.load(b_line),
                ],
            ],
        )
    )
    return cases


def run_soc_sweep(
    mode: str, floor: float
) -> Tuple[List[Tuple[str, CrashPointReport]], FsmCoverage]:
    from repro.obs.attach import acquire_bus, release_bus

    coverage = FsmCoverage(floor=floor)
    results = []
    for skip_it in (False, True):
        for name, programs in _soc_cases(skip_it):
            soc = Soc(Soc().params.with_skip_it(skip_it))
            bus = acquire_bus(soc)
            coverage.attach(bus)
            try:
                report = SocCrashInjector(soc, mode=mode).run(programs)
            finally:
                coverage.detach()
                release_bus(soc)
            results.append(
                (f"{name}/skip={'on' if skip_it else 'off'}", report)
            )
    return results, coverage


# -------------------------------------------------------------- fuzz
def run_fuzz(
    cases: int, seed: int, num_cores: int
) -> List[Tuple[str, object]]:
    """Seeded differential cases; failing ones are shrunk for the report."""
    lines: List[Tuple[str, object]] = []
    for cores in sorted({1, num_cores}):
        fuzzer = DifferentialFuzzer(skip_it=True, num_cores=cores)
        failures = fuzzer.run(cases, seed=seed)
        lines.append((f"{cores}-core x{cases}", failures))
        for failure in failures[:1]:
            shrunk = fuzzer.shrink(failure.bodies)
            failure.bodies = shrunk
    return lines


# -------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="crash-point fault injection + differential fuzzing",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="sampled crash-point sweep + coverage gate (the default)",
    )
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help=(
            "check the Soc crash image every cycle instead of sampling, "
            "and run every crash scenario under both seal modes"
        ),
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=3,
        metavar="N",
        help="differential cases per core-count (default 3)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cores", type=int, default=2, help="cores for multi-core fuzzing"
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=DEFAULT_FLOOR,
        help="FSHR-state coverage gate (default %(default)s)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )
    args = parser.parse_args(argv)
    mode = "exhaustive" if args.exhaustive else "sampled"

    started = perf_counter()
    failures = 0
    out = []
    # (header, perf_counter at its start) for every stage the run prints
    stages: List[Tuple[str, float]] = []

    def stage(header: str) -> None:
        out.append(f"== {header} ==")
        stages.append((header, perf_counter()))

    stage("timing crash-point matrix")
    for name, report in run_timing_matrix():
        mark = "ok" if report.ok else "FAIL"
        out.append(
            f"  {mark} {name:<24} {report.crash_points} crash points, "
            f"{report.seals} seals"
        )
        failures += len(report.violations)
        for violation in report.violations[:3]:
            out.append(f"       {violation}")

    stage(f"soc crash-point sweep ({mode})")
    soc_results, coverage = run_soc_sweep(mode, args.floor)
    for name, report in soc_results:
        mark = "ok" if report.ok else "FAIL"
        out.append(
            f"  {mark} {name:<28} {report.crash_points} crash points "
            f"over {report.boundaries} cycles, {report.seals} seals"
        )
        failures += len(report.violations)
        for violation in report.violations[:3]:
            out.append(f"       {violation}")

    stage(f"differential fuzzing (seed {args.seed})")
    for label, case_failures in run_fuzz(args.fuzz, args.seed, args.cores):
        mark = "ok" if not case_failures else "FAIL"
        out.append(f"  {mark} {label}: {len(case_failures)} divergences")
        failures += len(case_failures)
        for failure in case_failures[:1]:
            out.append("       " + failure.summary().replace("\n", "\n       "))

    for header, scenario, ranged_seal in (
        EXHAUSTIVE_SWEEPS if args.exhaustive else SMOKE_SWEEPS
    ):
        stage(header)
        for name, report in sweep_matrix(scenario, ranged_seal=ranged_seal):
            mark = "ok" if report.ok else "FAIL"
            out.append(
                f"  {mark} {name:<28} {report.crash_points} crash points "
                f"over {report.boundaries} boundaries"
            )
            failures += len(report.violations)
            for violation in report.violations[:3]:
                out.append(f"       {violation}")

    stage("fsm coverage")
    out.extend("  " + line for line in coverage.report_lines())

    finished = perf_counter()
    elapsed = finished - started
    ends = [begun for _, begun in stages[1:]] + [finished]
    stage_seconds: Dict[str, float] = {
        header: end - begun for (header, begun), end in zip(stages, ends)
    }
    gate_ok = coverage.meets_floor(args.floor)
    status = 0 if failures == 0 and gate_ok else (1 if failures else 2)
    out.append(
        f"== verdict: {'PASS' if status == 0 else 'FAIL'} "
        f"({failures} failures, coverage "
        f"{'met' if gate_ok else 'BELOW FLOOR'}, {elapsed:.1f}s) =="
    )
    print("\n".join(out))

    if args.json:
        payload = {
            "mode": mode,
            "failures": failures,
            "coverage": coverage.report(),
            "elapsed_seconds": elapsed,
            "stage_seconds": stage_seconds,
            "status": status,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
    return status


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
