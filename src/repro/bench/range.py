"""Figure 21: loop-of-CBOs vs CBO.RANGE (the ranged-flush figure).

Three series, each run once per ``mode`` in ``{"loop", "range"}``:

* ``micro`` — dirty a region of the figure-9 sizes, then make it
  durable either with a per-line ``CBO.CLEAN`` loop closed by a FENCE
  (``loop``) or with a single ``CBO.RANGE.CLEAN`` whose completion
  wait is the ordering token (``range``).  A second, redundant sweep
  over the now-clean region measures the Skip It filter *inside* the
  range: every line resolves to a skip-bit lookup instead of a
  writeback, in both modes.
* ``store`` / ``shared`` — the figure-17/18 store workloads with
  ``ranged_seal`` off (``loop``) vs on (``range``): epoch seals and
  checkpoint publishes collapse from ``RECORD_FIELDS``-per-record
  clean loops plus fences into one ranged clean per contiguous log
  span plus one completion wait.

The headline columns are flush-queue entries (``flush_requests`` /
``cbo_issued`` vs ``cbo_range_issued``) and fences per kop — the
ranged encoding must issue *fewer* of both for the same durable work.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.format import human_size
from repro.bench.micro import FULL_SIZES, QUICK_SIZES
from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Claim,
    Column,
    Figure,
    FigureKind,
    Judgement,
    rounded,
    versus,
)
from repro.bench.store import run_mix
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem

MODES = ("loop", "range")
STORE_SERIES = ("store", "shared")
QUICK_OPTIMIZERS = ("plain", "skipit")
#: group commit of both store series, and each series' thread count
GROUP_COMMIT = 8
THREADS = {"store": 2, "shared": 3}
#: simulated cycles of a store cell, and repeats of a micro cell
QUICK_DURATION, FULL_DURATION = 40_000, 120_000
QUICK_REPEATS, FULL_REPEATS = 3, 5


@dataclass
class RangeRow:
    """One cell of figure 21 (one series x mode coordinate)."""

    figure: int
    series: str  # "micro" | "store" | "shared"
    mode: str  # "loop" | "range"
    optimizer: str  # "" for the micro series
    size_bytes: int  # region size for micro, 0 for the stores
    group_commit: int  # 0 for micro
    threads: int
    sweep_cycles: float = 0.0  # micro: first (dirty) sweep
    resweep_cycles: float = 0.0  # micro: redundant sweep (skip filter)
    throughput_mops: float = 0.0  # store series
    fences: int = 0
    ranged_seals: int = 0
    flush_requests: int = 0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    cbo_range_issued: int = 0
    cbo_range_lines: int = 0
    cbo_range_skipped: int = 0
    fences_per_kop: float = 0.0
    metrics: Optional[Dict[str, object]] = field(default=None)


RANGE = FigureKind(
    key=(
        "range|{series}|{mode}|{optimizer}|size={size_bytes}"
        "|gc={group_commit}|t={threads}"
    ),
    columns=(
        Column("series", "series"),
        Column("mode", "mode"),
        Column("optimizer", "optimizer", lambda name: name or "-"),
        Column("size", "size_bytes", lambda size: human_size(size) if size else "-"),
        Column("sweep cyc", "sweep_cycles"),
        Column("resweep cyc", "resweep_cycles"),
        Column("Mops/s", "throughput_mops", rounded(3)),
        Column("fences", "fences"),
        Column("flush reqs", "flush_requests"),
        Column("cbo", "cbo_issued"),
        Column("cbo.range", "cbo_range_issued"),
        Column("fences/kop", "fences_per_kop", rounded(2)),
    ),
    values={
        "sweep_cycles": LOWER,
        "resweep_cycles": LOWER,
        "throughput_mops": HIGHER,
        "fences": LOWER,
        "ranged_seals": NEUTRAL,
        "flush_requests": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
        "cbo_range_issued": LOWER,
        "cbo_range_lines": NEUTRAL,
        "cbo_range_skipped": NEUTRAL,
        "fences_per_kop": LOWER,
    },
)


# --------------------------------------------------------------- micro cell
def _micro_cell(size_bytes: int, mode: str, repeats: int) -> RangeRow:
    """Make a dirty region durable: per-line loop+fence vs one range."""
    sweeps: List[int] = []
    resweeps: List[int] = []
    last_stats: Dict[str, int] = {}
    for _ in range(repeats):
        params = TimingParams(num_threads=1, skip_it=True)
        system = TimingSystem(params)
        ctx = system.threads[0]
        lb = params.line_bytes
        nlines = max(1, size_bytes // lb)
        base = lb * 16

        for i in range(nlines):
            ctx.store(base + i * lb, i + 1)

        def sweep() -> int:
            start = ctx.now
            if mode == "loop":
                for i in range(nlines):
                    ctx.clean(base + i * lb)
                ctx.fence()
            else:
                ctx.clean_range(base, nlines * lb, wait=True)
            return ctx.now - start

        sweeps.append(sweep())
        # the region is clean now: the redundant pass measures the
        # in-range Skip It filter (lookup per line, no writebacks)
        resweeps.append(sweep())
        last_stats = system.stats.as_dict()

    return RangeRow(
        figure=21,
        series="micro",
        mode=mode,
        optimizer="",
        size_bytes=size_bytes,
        group_commit=0,
        threads=1,
        sweep_cycles=statistics.median(sweeps),
        resweep_cycles=statistics.median(resweeps),
        fences=last_stats.get("fences", 0),
        flush_requests=last_stats.get("cbo_issued", 0)
        + last_stats.get("cbo_range_issued", 0),
        cbo_issued=last_stats.get("cbo_issued", 0),
        cbo_skipped=last_stats.get("cbo_skipped", 0),
        cbo_range_issued=last_stats.get("cbo_range_issued", 0),
        cbo_range_lines=last_stats.get("cbo_range_lines", 0),
        cbo_range_skipped=last_stats.get("cbo_range_line_skipped", 0),
    )


# --------------------------------------------------------------- store cells
def _store_cell(
    kind: str, optimizer: str, mode: str, duration: int, seed: int
) -> RangeRow:
    """A figure-17 (``store``) or figure-18 (``shared``) cell with
    ``ranged_seal`` off (``loop``) or on (``range``)."""
    rig = run_mix(
        optimizer,
        GROUP_COMMIT,
        THREADS[kind],
        duration,
        seed,
        shared=(kind == "shared"),
        ranged_seal=(mode == "range"),
    )
    fences, ops = rig.total("store_fences"), rig.result.total_ops
    if kind == "store":
        kops = ops / 1000.0
        fences_per_kop = (fences / kops) if kops else 0.0
    else:
        fences_per_kop = fences * 1000.0 / ops if ops else 0.0
    return rig.row(
        RangeRow,
        figure=21,
        series=kind,
        mode=mode,
        size_bytes=0,
        fences_per_kop=fences_per_kop,
    )


# ------------------------------------------------------------------- figure
def fig21_cells(quick: bool = False) -> List[Cell]:
    """Loop-of-CBOs vs CBO.RANGE across regions and store workloads.

    The micro cells come first, then the seeded store cells.
    """
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    duration = QUICK_DURATION if quick else FULL_DURATION
    cells = [
        Cell.of(
            f"micro,{mode},size={size}",
            _micro_cell,
            size_bytes=size,
            mode=mode,
            repeats=repeats,
        )
        for mode in MODES
        for size in (QUICK_SIZES if quick else FULL_SIZES)
    ]
    cells += [
        Cell.seeded(
            21,
            f"{kind},{optimizer},{mode}",
            _store_cell,
            kind=kind,
            optimizer=optimizer,
            mode=mode,
            duration=duration,
        )
        for kind in STORE_SERIES
        for optimizer in (QUICK_OPTIMIZERS if quick else OPTIMIZER_NAMES)
        for mode in MODES
    ]
    return cells


# ----------------------------------------------------------------- claims
def _modes(rows, fields, test, micro_only: bool = False) -> Judgement:
    """*test(range row, loop row)* at every point run in both modes, a
    point named by its series and optimizer (a micro point by its size)."""
    named = [
        {**row, "point": row["optimizer"] or human_size(row["size_bytes"])}
        for row in rows
        if row["series"] == "micro" or not micro_only
    ]
    return versus(named, ("series", "point"), fields, test, "range", "loop", "mode")


FIG21 = Figure(
    fig21_cells,
    RANGE,
    "CBO.RANGE: loop-of-CBOs vs one ranged flush, micro + store workloads "
    "(repro.bench.range)",
    (
        Claim(
            "CBO.RANGE",
            "fewer flush-queue entries: one per micro sweep at any size (2 with "
            "the resweep), and fewer than the loop's in every store series",
            lambda rows: _modes(
                rows,
                ["flush_requests"],
                lambda rng, loop: rng["flush_requests"] == 2
                if rng["series"] == "micro"
                else rng["flush_requests"] < loop["flush_requests"],
            ),
        ),
        Claim(
            "CBO.RANGE",
            "fewer fences: the range is its own ordering token, so it fences "
            "nothing where the loop fences",
            lambda rows: _modes(
                rows, ["fences"], lambda rng, loop: rng["fences"] == 0 < loop["fences"]
            ),
        ),
        Claim(
            "CBO.RANGE",
            "Skip It still filters inside the range: it skips lines of the "
            "redundant resweep, which costs no more than the loop's and less "
            "than the dirty sweep",
            lambda rows: _modes(
                rows,
                ["cbo_range_skipped", "resweep_cycles"],
                lambda rng, loop: rng["cbo_range_skipped"] > 0
                and rng["resweep_cycles"] <= loop["resweep_cycles"]
                and all(r["resweep_cycles"] < r["sweep_cycles"] for r in (loop, rng)),
                micro_only=True,
            ),
        ),
    ),
)
