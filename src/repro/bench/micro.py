"""Cycle-level microbenchmark figures (9-13).

Every runner accepts ``quick=True`` (used by tests and pytest-benchmark)
to shrink sweep sizes while preserving the series shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.format import human_size
from repro.bench.spec import LOWER, NEUTRAL, Column, FigureKind
from repro.workloads.redundant import redundant_writeback_latency
from repro.workloads.reread import clean_vs_flush_reread
from repro.workloads.sweep import writeback_sweep
from repro.xarch.models import platform_models

KIB = 1024

FULL_SIZES = [64, 256, KIB, 4 * KIB, 16 * KIB, 32 * KIB]
QUICK_SIZES = [64, 512, 4 * KIB]
FULL_THREADS = [1, 2, 4, 8]
QUICK_THREADS = [1, 4]


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of a microbenchmark figure.

    Single source of truth shared by the ``run_figNN`` defaults and the
    parallel runner's point decomposition (:mod:`repro.bench.runner`), so
    the two can never drift apart.
    """
    if figure == 9:
        return {
            "sizes": QUICK_SIZES if quick else FULL_SIZES,
            "threads": QUICK_THREADS if quick else FULL_THREADS,
        }
    if figure == 10:
        return {
            "sizes": [64, 512] if quick else [64, 512, 4 * KIB],
            "threads": [1] if quick else [1, 8],
            "cleans": [True, False],
        }
    if figure == 11:
        return {"sizes": QUICK_SIZES if quick else FULL_SIZES, "threads": [1]}
    if figure == 12:
        return {
            "sizes": QUICK_SIZES if quick else FULL_SIZES,
            "threads": [2] if quick else [8],
        }
    if figure == 13:
        return {
            "sizes": [64, 512] if quick else [64, 512, 4 * KIB, 16 * KIB],
            "threads": [1] if quick else [1, 8],
            "skip_its": [False, True],
        }
    raise KeyError(f"figure {figure} is not a microbenchmark figure")


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


def run_fig09(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    threads: Optional[Sequence[int]] = None,
    repeats: int = 3,
) -> List[MicroRow]:
    """Figure 9: CBO.X latency vs writeback size across thread counts."""
    axes = sweep_axes(9, quick)
    sizes = list(sizes) if sizes is not None else axes["sizes"]
    threads = list(threads) if threads is not None else axes["threads"]
    rows: List[MicroRow] = []
    for t in threads:
        for size in sizes:
            if size < t * 64:
                continue
            res = writeback_sweep(size, threads=t, clean=False, repeats=repeats)
            rows.append(
                MicroRow(
                    figure=9,
                    series=f"{t}-thread flush",
                    size_bytes=size,
                    threads=t,
                    median_cycles=res.median,
                    stdev_cycles=res.stdev,
                )
            )
    return rows


def run_fig10(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    threads: Optional[Sequence[int]] = None,
    repeats: int = 2,
    cleans: Optional[Sequence[bool]] = None,
) -> List[MicroRow]:
    """Figure 10: write / 10x CBO.X / fence / re-read, clean vs flush."""
    axes = sweep_axes(10, quick)
    sizes = list(sizes) if sizes is not None else axes["sizes"]
    threads = list(threads) if threads is not None else axes["threads"]
    cleans = list(cleans) if cleans is not None else axes["cleans"]
    rows: List[MicroRow] = []
    for t in threads:
        for clean in cleans:
            for size in sizes:
                if size < t * 64:
                    continue
                res = clean_vs_flush_reread(
                    size, threads=t, clean=clean, repeats=repeats
                )
                rows.append(
                    MicroRow(
                        figure=10,
                        series=f"{t}-thread {'clean' if clean else 'flush'}",
                        size_bytes=size,
                        threads=t,
                        median_cycles=res.median,
                        stdev_cycles=res.stdev,
                    )
                )
    return rows


def _comparative(
    figure: int,
    threads: int,
    quick: bool,
    repeats: int,
    sizes: Optional[Sequence[int]] = None,
    include_sim: bool = True,
    include_models: bool = True,
) -> List[MicroRow]:
    sizes = list(sizes) if sizes is not None else sweep_axes(figure, quick)["sizes"]
    rows: List[MicroRow] = []
    if include_sim:
        for size in sizes:
            if size < threads * 64:
                continue
            for clean in (False, True):
                res = writeback_sweep(size, threads=threads, clean=clean, repeats=repeats)
                op = "cbo.clean" if clean else "cbo.flush"
                rows.append(
                    MicroRow(
                        figure=figure,
                        series=f"SonicBOOM {op}",
                        size_bytes=size,
                        threads=threads,
                        median_cycles=res.median,
                        stdev_cycles=res.stdev,
                    )
                )
    if include_models:
        for platform, model in platform_models().items():
            for instruction in model.variants():
                for size in sizes:
                    if size < threads * 64:
                        continue
                    rows.append(
                        MicroRow(
                            figure=figure,
                            series=f"{platform} {instruction}",
                            size_bytes=size,
                            threads=threads,
                            median_cycles=model.latency(instruction, size, threads),
                        )
                    )
    return rows


def run_fig11(
    quick: bool = False,
    repeats: int = 2,
    sizes: Optional[Sequence[int]] = None,
    include_sim: bool = True,
    include_models: bool = True,
) -> List[MicroRow]:
    """Figure 11: single-thread writeback latency across architectures."""
    return _comparative(
        figure=11,
        threads=1,
        quick=quick,
        repeats=repeats,
        sizes=sizes,
        include_sim=include_sim,
        include_models=include_models,
    )


def run_fig12(
    quick: bool = False,
    repeats: int = 2,
    sizes: Optional[Sequence[int]] = None,
    include_sim: bool = True,
    include_models: bool = True,
) -> List[MicroRow]:
    """Figure 12: eight-thread writeback latency across architectures."""
    return _comparative(
        figure=12,
        threads=2 if quick else 8,
        quick=quick,
        repeats=repeats,
        sizes=sizes,
        include_sim=include_sim,
        include_models=include_models,
    )


def run_fig13(
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    threads: Optional[Sequence[int]] = None,
    repeats: int = 2,
    skip_its: Optional[Sequence[bool]] = None,
) -> List[MicroRow]:
    """Figure 13: 1 + 10 redundant CBO.X per line, naive vs Skip It."""
    axes = sweep_axes(13, quick)
    sizes = list(sizes) if sizes is not None else axes["sizes"]
    threads = list(threads) if threads is not None else axes["threads"]
    skip_its = list(skip_its) if skip_its is not None else axes["skip_its"]
    rows: List[MicroRow] = []
    for t in threads:
        for skip_it in skip_its:
            for size in sizes:
                if size < t * 64:
                    continue
                res = redundant_writeback_latency(
                    size, threads=t, skip_it=skip_it, repeats=repeats
                )
                rows.append(
                    MicroRow(
                        figure=13,
                        series=f"{t}-thread {'Skip It' if skip_it else 'naive'}",
                        size_bytes=size,
                        threads=t,
                        median_cycles=res.median,
                        stdev_cycles=res.stdev,
                    )
                )
    return rows


def rows_by_series(rows: Sequence[MicroRow]) -> Dict[str, List[MicroRow]]:
    series: Dict[str, List[MicroRow]] = {}
    for row in rows:
        series.setdefault(row.series, []).append(row)
    return series
