"""Cycle-level microbenchmark figures (9-13).

Each figure is one ordered list of cells (``figNN_cells``) that
``run_figNN`` and the parallel runner both run.  ``quick=True`` (used by
tests and pytest-benchmark) shrinks the sweep sizes while preserving the
series shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.format import human_size
from repro.bench.spec import (
    LOWER,
    NEUTRAL,
    Cell,
    Column,
    FigureKind,
    axis,
    run_cells,
)
from repro.workloads.redundant import redundant_writeback_latency
from repro.workloads.reread import clean_vs_flush_reread
from repro.workloads.sweep import writeback_sweep
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


def run_fig09(quick: bool = False, **axes) -> List[MicroRow]:
    """Figure 9's rows; *axes* narrow :func:`fig09_cells`."""
    return run_cells(fig09_cells(quick, **axes))


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


def run_fig10(quick: bool = False) -> List[MicroRow]:
    """Figure 10's rows: :func:`fig10_cells` simulated in order."""
    return run_cells(fig10_cells(quick))


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


def fig11_cells(quick: bool = False, repeats: int = 2) -> List[Cell]:
    """Figure 11: single-thread writeback latency across architectures."""
    return _comparative_cells(11, 1, quick, repeats)


def run_fig11(quick: bool = False, **axes) -> List[MicroRow]:
    """Figure 11's rows; *axes* narrow :func:`fig11_cells`."""
    return run_cells(fig11_cells(quick, **axes))


def fig12_cells(quick: bool = False, repeats: int = 2) -> List[Cell]:
    """Figure 12: eight-thread writeback latency across architectures."""
    return _comparative_cells(12, 2 if quick else 8, quick, repeats)


def run_fig12(quick: bool = False, **axes) -> List[MicroRow]:
    """Figure 12's rows; *axes* narrow :func:`fig12_cells`."""
    return run_cells(fig12_cells(quick, **axes))


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


def run_fig13(quick: bool = False, **axes) -> List[MicroRow]:
    """Figure 13's rows; *axes* narrow :func:`fig13_cells`."""
    return run_cells(fig13_cells(quick, **axes))


def rows_by_series(rows: Sequence[MicroRow]) -> Dict[str, List[MicroRow]]:
    series: Dict[str, List[MicroRow]] = {}
    for row in rows:
        series.setdefault(row.series, []).append(row)
    return series
