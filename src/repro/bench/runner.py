"""Parallel benchmark runner: fan a figure's cells over processes.

Every figure declares its sweep once, as the ordered cell list of
``FIGURES[n].cells`` (:class:`~repro.bench.spec.Cell`).  The cells are
*independent* simulation runs — no cell reads another's state — so
regenerating a figure parallelises trivially.  This module numbers each
figure's cells into :class:`BenchPoint`\\ s and executes them either
serially or on a ``ProcessPoolExecutor``.  Three properties make the
fan-out safe:

* **One declaration** — the cell list, and so the order in which cell
  rows are concatenated, is a pure function of ``(figure, quick)``, and
  ``FIGURES[n].run`` runs the same list in-process.  Serial, parallel
  and direct runs produce identical row lists.
* **Deterministic per-cell seeding** — every seeded cell carries a seed
  derived (CRC-32, :func:`~repro.bench.spec.point_seed`) from its own
  coordinates, never from scheduling, worker identity, or wall-clock.
  Re-runs reproduce bit-identical rows for any ``--jobs`` value.
* **Process isolation** — workers are separate interpreters; a cell
  cannot leak simulator state into its neighbours.

Cell failures are reported per point (label + traceback) and collected
into a single :class:`BenchPointError` after every point has finished,
so one bad cell does not hide the others.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import FIGURES
from repro.bench.spec import Cell


@dataclass(frozen=True)
class BenchPoint:
    """One cell of a figure sweep, numbered in the figure's order."""

    figure: int
    index: int  # position in the figure's canonical order
    cell: Cell


@dataclass
class PointResult:
    """Outcome of executing one point (rows or a formatted traceback)."""

    point: BenchPoint
    rows: Optional[list]
    elapsed: float
    error: Optional[str] = None


@dataclass
class FigureRun:
    """All rows of one figure, in canonical order, plus wall-clock."""

    figure: int
    rows: list = field(default_factory=list)
    elapsed: float = 0.0  # wall-clock spent on this figure's points
    points: int = 0


class BenchPointError(RuntimeError):
    """One or more sweep points failed; carries every failure."""

    def __init__(self, failures: Sequence[PointResult]):
        lines = [f"{len(failures)} benchmark point(s) failed:"]
        for res in failures:
            lines.append(f"--- fig {res.point.figure} [{res.point.cell.label}] ---")
            lines.append(res.error or "<no traceback>")
        super().__init__("\n".join(lines))
        self.failures = list(failures)


def decompose(figure: int, quick: bool = False) -> List[BenchPoint]:
    """*figure*'s cells, numbered in its canonical order."""
    cells = FIGURES[figure].cells(quick=quick)
    return [BenchPoint(figure, index, cell) for index, cell in enumerate(cells)]


def execute_point(point: BenchPoint) -> PointResult:
    """Run one point in the current process (also the pool worker)."""
    started = time.perf_counter()
    try:
        rows = point.cell.rows()
    except Exception:
        return PointResult(
            point, None, time.perf_counter() - started, traceback.format_exc()
        )
    return PointResult(point, rows, time.perf_counter() - started)


def run_figures(
    figures: Sequence[int],
    quick: bool = False,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[int, FigureRun]:
    """Execute the cells of *figures*, fanning them over *jobs* processes.

    Returns ``{figure: FigureRun}`` in the order given.  ``jobs <= 1``
    runs every point serially in this process (the fallback path); the
    rows are identical either way.  Raises :class:`BenchPointError`
    after all points finish if any of them failed.
    """
    points: List[BenchPoint] = []
    for figure in figures:
        points.extend(decompose(figure, quick))
    runs = {figure: FigureRun(figure) for figure in figures}
    total = len(points)
    done = 0

    def note(result: PointResult) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            status = "FAILED" if result.error else (
                f"{len(result.rows or [])} rows, {result.elapsed:.1f}s"
            )
            progress(
                f"[{done}/{total}] fig {result.point.figure} "
                f"[{result.point.cell.label}] {status}"
            )

    started = time.perf_counter()
    results: Dict[Tuple[int, int], PointResult] = {}
    if jobs <= 1 or total <= 1:
        for point in points:
            result = execute_point(point)
            results[(point.figure, point.index)] = result
            note(result)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
            pending = {pool.submit(execute_point, point) for point in points}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    result = future.result()
                    results[(result.point.figure, result.point.index)] = result
                    note(result)
    wall = time.perf_counter() - started

    failures = [r for r in results.values() if r.error]
    if failures:
        raise BenchPointError(sorted(failures, key=lambda r: r.point.index))

    for point in points:
        run, result = runs[point.figure], results[(point.figure, point.index)]
        run.rows.extend(result.rows or [])
        run.elapsed += result.elapsed
        run.points += 1
    if progress is not None:
        cpu = sum(r.elapsed for r in results.values())
        progress(
            f"{total} points in {wall:.1f}s wall "
            f"({cpu:.1f}s cpu, jobs={max(1, jobs)})"
        )
    return runs
