"""Cycle-level microbenchmark figures (9-13).

Each figure (``FIGNN``) is one ordered list of cells (``figNN_cells``)
that ``run_figNN`` and the parallel runner both run, and the paper's
claims about it, judged on its serialized rows.  ``quick=True`` shrinks
the sweep sizes while preserving the series shapes; a claim whose points
only the full sweep has (32 KiB, eight threads) is ``n/a`` on quick rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.format import human_size
from repro.bench.spec import (
    LOWER,
    NEUTRAL,
    Cell,
    Claim,
    Column,
    Figure,
    FigureKind,
    Judgement,
    axis,
    each,
    num,
    pivot,
    rising,
)
from repro.workloads.sweep import (
    clean_vs_flush_reread,
    redundant_writeback_latency,
    writeback_sweep,
)
from repro.xarch.models import platform_models

KIB = 1024

FULL_SIZES = [64, 256, KIB, 4 * KIB, 16 * KIB, 32 * KIB]
QUICK_SIZES = [64, 512, 4 * KIB]
FULL_THREADS = [1, 2, 4, 8]
QUICK_THREADS = [1, 4]
#: figure 10's sweep: sizes and thread counts (quick, full), repeats
FIG10_QUICK_SIZES, FIG10_FULL_SIZES = [64, 512], [64, 512, 4 * KIB]
FIG10_QUICK_THREADS, FIG10_FULL_THREADS = [1], [1, 8]
FIG10_REPEATS = 2
#: figure 13's default sizes and thread counts (quick, full)
FIG13_QUICK_SIZES, FIG13_FULL_SIZES = [64, 512], [64, 512, 4 * KIB, 16 * KIB]
FIG13_QUICK_THREADS, FIG13_FULL_THREADS = [1], [1, 8]
#: repetitions of a figure 11/12 simulated point
COMPARATIVE_REPEATS = 2


@dataclass
class MicroRow:
    """One (size, threads, series) latency point."""

    figure: int
    series: str
    size_bytes: int
    threads: int
    median_cycles: float
    stdev_cycles: float = 0.0


MICRO = FigureKind(
    key="{series}|size={size_bytes}|t={threads}",
    columns=(
        Column("series", "series"),
        Column("size", "size_bytes", human_size),
        Column("threads", "threads"),
        Column("median cycles", "median_cycles"),
        Column("sigma", "stdev_cycles"),
    ),
    values={"median_cycles": LOWER, "stdev_cycles": NEUTRAL},
)


def _flush_cell(size: int, threads: int, repeats: int) -> MicroRow:
    res = writeback_sweep(size, threads=threads, clean=False, repeats=repeats)
    return MicroRow(9, f"{threads}-thread flush", size, threads, res.median, res.stdev)


def fig09_cells(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    threads: Optional[Sequence[int]] = None,
    repeats: int = 3,
) -> List[Cell]:
    """Figure 9: CBO.X latency vs writeback size across thread counts."""
    sizes = axis(sizes, QUICK_SIZES if quick else FULL_SIZES)
    threads = axis(threads, QUICK_THREADS if quick else FULL_THREADS)
    return [
        Cell.of(
            f"t={t},size={size}", _flush_cell, size=size, threads=t, repeats=repeats
        )
        for t in threads
        for size in sizes
        if size >= t * 64
    ]


def _reread_cell(size: int, threads: int, clean: bool) -> MicroRow:
    res = clean_vs_flush_reread(
        size, threads=threads, clean=clean, repeats=FIG10_REPEATS
    )
    series = f"{threads}-thread {'clean' if clean else 'flush'}"
    return MicroRow(10, series, size, threads, res.median, res.stdev)


def fig10_cells(quick: bool = False) -> List[Cell]:
    """Figure 10: write / 10x CBO.X / fence / re-read, clean vs flush."""
    sizes = FIG10_QUICK_SIZES if quick else FIG10_FULL_SIZES
    threads = FIG10_QUICK_THREADS if quick else FIG10_FULL_THREADS
    return [
        Cell.of(
            f"t={t},{'clean' if clean else 'flush'},size={size}",
            _reread_cell,
            size=size,
            threads=t,
            clean=clean,
        )
        for t in threads
        for clean in (True, False)
        for size in sizes
        if size >= t * 64
    ]


def _sim_cell(figure: int, size: int, threads: int, repeats: int) -> List[MicroRow]:
    """The SonicBOOM flush and clean points of one size."""
    rows: List[MicroRow] = []
    for clean in (False, True):
        res = writeback_sweep(size, threads=threads, clean=clean, repeats=repeats)
        series = f"SonicBOOM {'cbo.clean' if clean else 'cbo.flush'}"
        rows.append(MicroRow(figure, series, size, threads, res.median, res.stdev))
    return rows


def _models_cell(
    figure: int, sizes: Sequence[int], threads: int
) -> List[MicroRow]:
    """Every platform model's curve over *sizes* (no simulation)."""
    return [
        MicroRow(
            figure=figure,
            series=f"{platform} {instruction}",
            size_bytes=size,
            threads=threads,
            median_cycles=model.latency(instruction, size, threads),
        )
        for platform, model in platform_models().items()
        for instruction in model.variants()
        for size in sizes
    ]


def _comparative_cells(
    figure: int, threads: int, quick: bool, repeats: int
) -> List[Cell]:
    """One simulated cell per size, then the platform models' rows."""
    sizes = [s for s in (QUICK_SIZES if quick else FULL_SIZES) if s >= threads * 64]
    cells = [
        Cell.of(
            f"sim,size={size}",
            _sim_cell,
            figure=figure,
            size=size,
            threads=threads,
            repeats=repeats,
        )
        for size in sizes
    ]
    cells.append(
        Cell.of(
            "models", _models_cell, figure=figure, sizes=tuple(sizes), threads=threads
        )
    )
    return cells


def fig11_cells(quick: bool = False) -> List[Cell]:
    """Figure 11: single-thread writeback latency across architectures."""
    return _comparative_cells(11, 1, quick, COMPARATIVE_REPEATS)


def fig12_cells(quick: bool = False) -> List[Cell]:
    """Figure 12: eight-thread writeback latency across architectures."""
    return _comparative_cells(12, 2 if quick else 8, quick, COMPARATIVE_REPEATS)


def _redundant_cell(size: int, threads: int, skip_it: bool, repeats: int) -> MicroRow:
    res = redundant_writeback_latency(
        size, threads=threads, skip_it=skip_it, repeats=repeats
    )
    series = f"{threads}-thread {'Skip It' if skip_it else 'naive'}"
    return MicroRow(13, series, size, threads, res.median, res.stdev)


def fig13_cells(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    threads: Optional[Sequence[int]] = None,
    repeats: int = 2,
) -> List[Cell]:
    """Figure 13: 1 + 10 redundant CBO.X per line, naive vs Skip It."""
    sizes = axis(sizes, FIG13_QUICK_SIZES if quick else FIG13_FULL_SIZES)
    threads = axis(threads, FIG13_QUICK_THREADS if quick else FIG13_FULL_THREADS)
    return [
        Cell.of(
            f"t={t},{'skipit' if skip_it else 'naive'},size={size}",
            _redundant_cell,
            size=size,
            threads=t,
            skip_it=skip_it,
            repeats=repeats,
        )
        for t in threads
        for skip_it in (False, True)
        for size in sizes
        if size >= t * 64
    ]


def rows_by_series(rows: Sequence[MicroRow]) -> Dict[str, List[MicroRow]]:
    series: Dict[str, List[MicroRow]] = {}
    for row in rows:
        series.setdefault(row.series, []).append(row)
    return series


# ----------------------------------------------------------------- claims
#: a micro row set as ``{series: {size: median cycles}}`` is
#: ``pivot(rows, *CURVES)``
CURVES = ("series", "size_bytes", "median_cycles")
#: the x86 flush instructions (clwb writes back without invalidating)
X86_FLUSHES = ("intel clflush", "intel clflushopt", "amd clflush", "amd clflushopt")
BOOM, GRAVITON = "SonicBOOM cbo.flush", "graviton3 dccivac"


def _ratios(over: Dict[int, float], under: Dict[int, float]) -> Dict[int, float]:
    return {size: over[size] / under[size] for size in sorted(over.keys() & under)}


def _listed(ratios: Dict[int, float]) -> str:
    return ", ".join(f"{human_size(size)} {num(r)}×" for size, r in ratios.items())


def _cycles(size: int, low: float, high: float):
    """Judge: a 1-thread flush of *size* costs between *low* and *high*."""

    def judge(rows) -> Judgement:
        one = pivot(rows, *CURVES).get("1-thread flush", {})
        if size not in one:
            return None
        return low <= one[size] <= high, f"{num(one[size])} cycles"

    return judge


def _ratio(slow: str, fast: str, low: float, high=math.inf, at=None):
    """Judge: *slow*'s cycles over *fast*'s lie inside (*low*, *high*) at
    every size both series ran, or only at size *at* (``max``: the largest)."""

    def judge(rows) -> Judgement:
        curves = pivot(rows, *CURVES)
        ratios = _ratios(curves.get(slow, {}), curves.get(fast, {}))
        if ratios and at is not None:
            size = max(ratios) if at is max else at
            ratios = {size: ratios[size]} if size in ratios else {}
        if not ratios:
            return None
        return all(low < r < high for r in ratios.values()), _listed(ratios)

    return judge


def _sizes(series: str, test, most: bool = False, threads=None, least: int = 0):
    """Judge: *test(curves, size)* holds at every size of *series* from
    *least* bytes up (with *most*, at more than half of them), over the
    rows at *threads* when given."""

    def judge(rows) -> Judgement:
        c = pivot([r for r in rows if threads in (None, r["threads"])], *CURVES)
        sizes = [size for size in sorted(c.get(series, ())) if size >= least]
        if not sizes:
            return None
        hits = [size for size in sizes if test(c, size)]
        holds = 2 * len(hits) > len(sizes) if most else hits == sizes
        named = ", ".join(human_size(size) for size in hits)
        return holds, f"{len(hits)} of {len(sizes)} sizes ({named})"

    return judge


def _x86(c, size: int) -> float:
    return min(c[name][size] for name in X86_FLUSHES)


def _clflush_blows_up(rows) -> Judgement:
    c = pivot(rows, *CURVES)
    size = max(c.get("intel clflush", {0: 0}))
    if size < 4 * KIB:
        return None
    names = ("intel clflush", "intel clflushopt", BOOM, GRAVITON)
    clflush, opt, boom, grav = (c[name][size] for name in names)
    holds = clflush > 10 * opt and max(boom, grav) < clflush
    return holds, (
        f"{human_size(size)}: clflush {num(clflush)}, clflushopt {num(opt)}, "
        f"SonicBOOM {num(boom)}, Graviton3 {num(grav)}"
    )


def _boom_competitive(rows) -> Judgement:
    c = pivot(rows, *CURVES)
    if 64 not in c.get(BOOM, ()):
        return None
    best = min(c[name][64] for name in ("intel clflushopt", "amd clflushopt", GRAVITON))
    return c[BOOM][64] < 2 * best, f"{num(c[BOOM][64])} vs {num(best)}"


def _clflush_gap_at_eight(rows) -> Judgement:
    c = pivot([r for r in rows if r["threads"] == 8], *CURVES)
    ratios = _ratios(c.get("intel clflush", {}), c.get("intel clflushopt", {}))
    if not {4 * KIB, 32 * KIB} <= ratios.keys():
        return None
    gap = {size: ratios[size] for size in (4 * KIB, 32 * KIB)}
    return gap[4 * KIB] < 6 and gap[32 * KIB] > 4, _listed(gap)


FIG09 = Figure(
    fig09_cells,
    MICRO,
    "CBO.X latency vs writeback size and threads (§7.2)",
    (
        Claim(
            "§7.2", "one line costs ≈ 100 cycles (70–140)", _cycles(64, 70, 140)
        ),
        Claim(
            "§7.2",
            "32 KiB costs ≈ 7460 cycles (3500–12000)",
            _cycles(32 * KIB, 3500, 12_000),
        ),
        Claim(
            "§7.2",
            "latency grows with size at every thread count",
            lambda rows: each(rows, "size_bytes", "median_cycles", rising, by="series"),
        ),
        Claim(
            "§7.2",
            "4 threads flush the largest size > 2.5× faster",
            _ratio("1-thread flush", "4-thread flush", 2.5, at=max),
        ),
        Claim(
            "§7.2",
            "8 threads flush 32 KiB ≈ 7.2× faster (5–9×)",
            _ratio("1-thread flush", "8-thread flush", 5, 9, at=32 * KIB),
        ),
    ),
)
FIG10 = Figure(
    fig10_cells,
    MICRO,
    "write / 10x CBO.X / fence / re-read (§7.2)",
    (
        Claim(
            "§7.2",
            "a re-read after CBO.CLEAN is ≈ 2× faster than after CBO.FLUSH "
            "(1.5–4×)",
            _ratio("1-thread flush", "1-thread clean", 1.5, 4),
        ),
        Claim(
            "§7.2",
            "the clean advantage holds at 8 threads (> 1.4×)",
            _ratio("8-thread flush", "8-thread clean", 1.4),
        ),
    ),
)
FIG11 = Figure(
    fig11_cells,
    MICRO,
    "single-thread writeback latency across architectures (§7.3)",
    (
        Claim(
            "§7.3",
            "Intel clflush is catastrophic at the largest size (≥ 4 KiB): > 10× "
            "clflushopt, and SonicBOOM and Graviton3 beat it",
            _clflush_blows_up,
        ),
        Claim(
            "§7.3",
            "Intel clflushopt is the fastest x86 flush at every size",
            _sizes(
                "intel clflushopt", lambda c, s: c["intel clflushopt"][s] == _x86(c, s)
            ),
        ),
        Claim(
            "§7.3",
            "AMD clflush ≈ clflushopt (within 5 %)",
            _sizes(
                "amd clflush",
                lambda c, s: abs(c["amd clflush"][s] - c["amd clflushopt"][s])
                < 0.05 * c["amd clflushopt"][s],
            ),
        ),
        Claim(
            "§7.3",
            "SonicBOOM's CBO.FLUSH beats every x86 flush at most sizes",
            _sizes(BOOM, lambda c, s: c[BOOM][s] < _x86(c, s), most=True),
        ),
        Claim(
            "§7.3",
            "a one-line CBO.X is under 2× the best commercial flush",
            _boom_competitive,
        ),
        Claim(
            "§7.3",
            "Graviton3 grows sub-linearly and passes SonicBOOM at ≥ 16 KiB",
            _sizes(BOOM, lambda c, s: c[GRAVITON][s] < c[BOOM][s], least=16 * KIB),
        ),
        Claim(
            "§7.2",
            "CBO.CLEAN costs what CBO.FLUSH costs in isolation",
            _sizes(BOOM, lambda c, s: c[BOOM][s] == c["SonicBOOM cbo.clean"][s]),
        ),
    ),
)
FIG12 = Figure(
    fig12_cells,
    MICRO,
    "eight-thread writeback latency across architectures (§7.3)",
    (
        Claim(
            "§7.3",
            "8 threads mute the clflush gap at 4 KiB (< 6×), not 32 KiB (> 4×)",
            _clflush_gap_at_eight,
        ),
        Claim(
            "§7.3",
            "at eight threads SonicBOOM is the fastest platform at every size",
            _sizes(
                BOOM,
                lambda c, s: c[BOOM][s] < min(c[k][s] for k in c if "BOOM" not in k),
                threads=8,
            ),
        ),
    ),
)
FIG13 = Figure(
    fig13_cells,
    MICRO,
    "redundant writebacks: naive vs Skip It (§7.4)",
    (
        Claim(
            "§7.4",
            "with 1 real + 10 redundant CBO.X per line, Skip It is ≥ 15 % faster "
            "than naive (paper: 15–30 %)",
            _ratio("1-thread naive", "1-thread Skip It", 1 / 0.85),
        ),
        Claim(
            "§7.4",
            "the Skip It advantage holds at 8 threads",
            _ratio("8-thread naive", "8-thread Skip It", 1),
        ),
    ),
)


#: each figure's rows, its cells simulated in order in this process
run_fig09 = FIG09.run
run_fig10 = FIG10.run
run_fig11 = FIG11.run
run_fig12 = FIG12.run
run_fig13 = FIG13.run
