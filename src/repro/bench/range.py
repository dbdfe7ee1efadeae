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
from typing import Dict, Iterable, List, Optional, Sequence

from repro.bench.format import human_size
from repro.bench.micro import FULL_SIZES, QUICK_SIZES
from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind, rounded
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.workloads.store import SharedStoreBenchmark, StoreBenchmark

MODES = ("loop", "range")
STORE_SERIES = ("store", "shared")
QUICK_OPTIMIZERS = ("plain", "skipit")


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


def sweep_axes(figure: int, quick: bool) -> Dict[str, Sequence]:
    """Axis values figure 21 sweeps (mirrors ``run_fig21`` defaults)."""
    if figure != 21:
        raise ValueError(f"range sweep_axes only covers figure 21, not {figure}")
    return {
        "modes": MODES,
        "region_sizes": tuple(QUICK_SIZES if quick else FULL_SIZES),
        "series": STORE_SERIES,
        "optimizers": QUICK_OPTIMIZERS if quick else tuple(OPTIMIZER_NAMES),
    }


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
    optimizer: str,
    mode: str,
    group_commit: int,
    threads: int,
    duration: int,
    seed: Optional[int],
) -> RangeRow:
    extra = {} if seed is None else {"seed": seed}
    result = StoreBenchmark(
        optimizer,
        group_commit,
        threads=threads,
        ranged_seal=(mode == "range"),
        **extra,
    ).run(duration=duration)
    kops = result.total_ops / 1000.0
    return RangeRow(
        figure=21,
        series="store",
        mode=mode,
        optimizer=optimizer,
        size_bytes=0,
        group_commit=group_commit,
        threads=threads,
        throughput_mops=result.throughput_mops,
        fences=result.fences,
        ranged_seals=result.ranged_seals,
        flush_requests=result.flush_requests,
        cbo_issued=result.cbo_issued,
        cbo_skipped=result.cbo_skipped,
        cbo_range_issued=result.cbo_range_issued,
        cbo_range_lines=result.cbo_range_lines,
        cbo_range_skipped=result.cbo_range_skipped,
        fences_per_kop=(result.fences / kops) if kops else 0.0,
        metrics=result.metrics,
    )


def _shared_cell(
    optimizer: str,
    mode: str,
    group_commit: int,
    threads: int,
    duration: int,
    seed: Optional[int],
) -> RangeRow:
    extra = {} if seed is None else {"seed": seed}
    result = SharedStoreBenchmark(
        optimizer,
        group_commit,
        threads=threads,
        ranged_seal=(mode == "range"),
        **extra,
    ).run(duration=duration)
    return RangeRow(
        figure=21,
        series="shared",
        mode=mode,
        optimizer=optimizer,
        size_bytes=0,
        group_commit=group_commit,
        threads=threads,
        throughput_mops=result.throughput_mops,
        fences=result.fences,
        ranged_seals=result.ranged_seals,
        flush_requests=result.flush_requests,
        cbo_issued=result.cbo_issued,
        cbo_skipped=result.cbo_skipped,
        cbo_range_issued=result.cbo_range_issued,
        cbo_range_lines=result.cbo_range_lines,
        cbo_range_skipped=result.cbo_range_skipped,
        fences_per_kop=result.fences_per_kop,
        metrics=result.metrics,
    )


# ------------------------------------------------------------------- figure
def run_fig21(
    quick: bool = False,
    modes: Optional[Iterable[str]] = None,
    region_sizes: Optional[Iterable[int]] = None,
    series: Optional[Iterable[str]] = None,
    optimizers: Optional[Iterable[str]] = None,
    group_commit: int = 8,
    threads: int = 2,
    shared_threads: int = 3,
    duration: Optional[int] = None,
    repeats: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[RangeRow]:
    """Loop-of-CBOs vs CBO.RANGE across regions and store workloads.

    Narrowing kwargs mirror the sweep axes so the runner can decompose
    the figure into seeded per-cell points: an empty ``region_sizes``
    skips the micro series, an empty ``series`` skips the stores.
    """
    axes = sweep_axes(21, quick)
    modes = tuple(modes) if modes is not None else tuple(axes["modes"])
    region_sizes = (
        tuple(region_sizes)
        if region_sizes is not None
        else tuple(axes["region_sizes"])
    )
    series = tuple(series) if series is not None else tuple(axes["series"])
    optimizers = (
        tuple(optimizers) if optimizers is not None else tuple(axes["optimizers"])
    )
    if duration is None:
        duration = 40_000 if quick else 120_000
    if repeats is None:
        repeats = 3 if quick else 5

    rows: List[RangeRow] = []
    for mode in modes:
        for size in region_sizes:
            rows.append(_micro_cell(size, mode, repeats))
    for kind in series:
        cell = _store_cell if kind == "store" else _shared_cell
        nthreads = threads if kind == "store" else shared_threads
        for optimizer in optimizers:
            for mode in modes:
                rows.append(
                    cell(optimizer, mode, group_commit, nthreads, duration, seed)
                )
    return rows
