"""Parallel benchmark runner: fan independent sweep points over processes.

Every figure sweep is a grid of *independent* simulation runs — no point
reads another's state — so regenerating a figure parallelises trivially.
This module decomposes each figure into a canonical ordered list of
:class:`BenchPoint`\\ s (one ``run_figNN`` call with the sweep axes
narrowed to a single coordinate) and executes them either serially or on
a ``ProcessPoolExecutor``.  Three properties make the fan-out safe:

* **Canonical decomposition** — the point list, and the order in which
  point rows are concatenated, is a pure function of ``(figure, quick)``.
  Serial and parallel runs produce identical row lists.
* **Deterministic per-point seeding** — every throughput point carries a
  seed derived (CRC-32) from its own coordinates, never from scheduling,
  worker identity, or wall-clock.  Re-runs reproduce bit-identical rows
  for any ``--jobs`` value.
* **Process isolation** — workers are separate interpreters; a point
  cannot leak simulator state into its neighbours.

Point failures are reported per point (label + traceback) and collected
into a single :class:`BenchPointError` after every point has finished,
so one bad cell does not hide the others.
"""

from __future__ import annotations

import time
import traceback
import zlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.micro import sweep_axes as micro_axes
from repro.bench.range import sweep_axes as range_axes
from repro.bench.serve import sweep_axes as serve_axes
from repro.bench.shared import sweep_axes as shared_store_axes
from repro.bench.store import sweep_axes as store_axes
from repro.bench.structures import sweep_axes as throughput_axes
from repro.bench.txn import sweep_axes as txn_axes


@dataclass(frozen=True)
class BenchPoint:
    """One independent cell of a figure sweep.

    ``kwargs`` narrows the figure runner's axes to a single coordinate;
    it is stored as a sorted tuple of pairs so points stay hashable and
    picklable for the process pool.
    """

    figure: int
    index: int  # position in the figure's canonical order
    label: str
    kwargs: Tuple[Tuple[str, object], ...]


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
            lines.append(f"--- fig {res.point.figure} [{res.point.label}] ---")
            lines.append(res.error or "<no traceback>")
        super().__init__("\n".join(lines))
        self.failures = list(failures)


def point_seed(figure: int, label: str) -> int:
    """Deterministic per-point seed: a pure function of the coordinates."""
    return (zlib.crc32(f"fig{figure}:{label}".encode()) & 0x7FFFFFFF) or 1


def decompose(figure: int, quick: bool = False) -> List[BenchPoint]:
    """Split *figure*'s sweep into its canonical ordered point list.

    The nesting below mirrors each ``run_figNN``'s own loop order, so
    concatenating point rows by index reproduces the monolithic call's
    row order exactly.
    """
    points: List[BenchPoint] = []

    def add(label: str, seeded: bool = False, **kwargs: object) -> None:
        kwargs["quick"] = quick
        if seeded:
            kwargs["seed"] = point_seed(figure, label)
        points.append(
            BenchPoint(figure, len(points), label, tuple(sorted(kwargs.items())))
        )

    if figure in (9, 10, 13):
        axes = micro_axes(figure, quick)
        for t in axes["threads"]:
            for flag in axes.get("cleans", axes.get("skip_its", [None])):
                for size in axes["sizes"]:
                    if size < t * 64:
                        continue
                    if figure == 9:
                        add(f"t={t},size={size}", sizes=(size,), threads=(t,))
                    elif figure == 10:
                        add(
                            f"t={t},{'clean' if flag else 'flush'},size={size}",
                            sizes=(size,),
                            threads=(t,),
                            cleans=(flag,),
                        )
                    else:
                        add(
                            f"t={t},{'skipit' if flag else 'naive'},size={size}",
                            sizes=(size,),
                            threads=(t,),
                            skip_its=(flag,),
                        )
    elif figure in (11, 12):
        axes = micro_axes(figure, quick)
        (t,) = axes["threads"]
        for size in axes["sizes"]:
            if size < t * 64:
                continue
            add(f"sim,size={size}", sizes=(size,), include_models=False)
        add("models", include_sim=False)
    elif figure == 14:
        axes = throughput_axes(14, quick)
        for structure in axes["structures"]:
            add(
                f"{structure},baseline",
                seeded=True,
                structures=(structure,),
                policies=(),
                include_baseline=True,
            )
            for policy in axes["policies"]:
                for optimizer in axes["optimizers"]:
                    add(
                        f"{structure},{policy},{optimizer}",
                        seeded=True,
                        structures=(structure,),
                        policies=(policy,),
                        optimizers=(optimizer,),
                        include_baseline=False,
                    )
    elif figure == 15:
        axes = throughput_axes(15, quick)
        for structure in axes["structures"]:
            for optimizer in axes["optimizers"]:
                for update in axes["update_percents"]:
                    add(
                        f"{structure},{optimizer},upd={update}",
                        seeded=True,
                        structures=(structure,),
                        optimizers=(optimizer,),
                        update_percents=(update,),
                    )
    elif figure == 16:
        axes = throughput_axes(16, quick)
        for entries in axes["table_sizes"]:
            add(
                f"flit-hashtable({entries})",
                seeded=True,
                table_sizes=(entries,),
                include_reference=False,
            )
        add("skipit-reference", seeded=True, table_sizes=(), include_reference=True)
    elif figure == 17:
        axes = store_axes(17, quick)
        for optimizer in axes["optimizers"]:
            for group_commit in axes["group_commits"]:
                add(
                    f"{optimizer},gc={group_commit}",
                    seeded=True,
                    optimizers=(optimizer,),
                    group_commits=(group_commit,),
                )
    elif figure == 18:
        axes = shared_store_axes(18, quick)
        for optimizer in axes["optimizers"]:
            for t in axes["threads"]:
                add(
                    f"{optimizer},t={t}",
                    seeded=True,
                    optimizers=(optimizer,),
                    threads=(t,),
                )
    elif figure == 19:
        axes = serve_axes(19, quick)
        for optimizer in axes["optimizers"]:
            for load in axes["offered_loads"]:
                add(
                    f"{optimizer},load={load:g}",
                    seeded=True,
                    optimizers=(optimizer,),
                    offered_loads=(load,),
                )
    elif figure == 20:
        axes = txn_axes(20, quick)
        for optimizer in axes["optimizers"]:
            for txn_size in axes["txn_sizes"]:
                add(
                    f"{optimizer},txn={txn_size}",
                    seeded=True,
                    optimizers=(optimizer,),
                    txn_sizes=(txn_size,),
                )
    elif figure == 21:
        axes = range_axes(21, quick)
        for mode in axes["modes"]:
            for size in axes["region_sizes"]:
                add(
                    f"micro,{mode},size={size}",
                    modes=(mode,),
                    region_sizes=(size,),
                    series=(),
                )
        for kind in axes["series"]:
            for optimizer in axes["optimizers"]:
                for mode in axes["modes"]:
                    add(
                        f"{kind},{optimizer},{mode}",
                        seeded=True,
                        modes=(mode,),
                        region_sizes=(),
                        series=(kind,),
                        optimizers=(optimizer,),
                    )
    else:
        raise KeyError(f"unknown figure {figure}")
    return points


def execute_point(point: BenchPoint) -> PointResult:
    """Run one point in the current process (also the pool worker)."""
    from repro.bench import FIGURES

    started = time.perf_counter()
    try:
        rows = FIGURES[point.figure].run(**dict(point.kwargs))
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
    """Execute the sweeps of *figures*, fanning points over *jobs* processes.

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
                f"[{result.point.label}] {status}"
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

    for figure in figures:
        run = runs[figure]
        for point in decompose(figure, quick):
            result = results[(figure, point.index)]
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
