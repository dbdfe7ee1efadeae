"""Figure specs: a figure's cells, and how its rows are keyed and compared.

Each row dataclass (``MicroRow``, ``StoreRow``, ...) has one
:class:`FigureKind` declared beside it.  The spec is the only place that
knows the row's baseline key, its table columns (the CLI's terminal
table and the ``--report`` Markdown table draw the same ones) and which
fields ``--check`` and :mod:`repro.bench.regress` compare, each with the
direction that counts as better.  :data:`repro.bench.FIGURES` binds a
figure number to its cell list, its kind and its title.

A figure's sweep is declared once, as an ordered list of cells
(:class:`Cell`): the parallel runner (:mod:`repro.bench.runner`) fans
the list over processes and :meth:`Figure.run` (the figure's
``run_figNN``) runs it in this process, so both give the same rows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

#: directions of a compared field: which way is better, or ``NEUTRAL``
#: for a count of work done, where a move either way means the runs did
#: different work
HIGHER, LOWER, NEUTRAL = "higher", "lower", "neutral"


@dataclass(frozen=True)
class Column:
    """One table column: its header, the row field, an optional formatter."""

    header: str
    field: str
    fmt: Optional[Callable[[object], object]] = None

    def cell(self, row: object) -> object:
        value = getattr(row, self.field)
        return self.fmt(value) if self.fmt else value


def rounded(ndigits: int) -> Callable[[float], float]:
    """Cell formatter rounding a float column to *ndigits* places."""
    return lambda value: round(value, ndigits)


@dataclass(frozen=True)
class FigureKind:
    """The declaration of one row kind."""

    #: ``str.format`` template over a serialized row, e.g.
    #: ``"{series}|size={size_bytes}|t={threads}"``; committed baseline
    #: rows are matched on it, so changing it orphans them
    key: str
    columns: Tuple[Column, ...]
    #: compared value field -> HIGHER | LOWER | NEUTRAL, in report order
    values: Mapping[str, str]
    #: end of the warning printed when rows clamped ack latencies to
    #: zero, e.g. ``"submit->durable latency for those ops"``; ``None``
    #: for kinds whose rows carry no ``ack_clamped`` count
    clamp_warning: Optional[str] = None

    def table(self, rows: Sequence[object]) -> Tuple[List[str], List[tuple]]:
        """Headers and formatted cells of *rows*, for any table renderer."""
        headers = [column.header for column in self.columns]
        return headers, [tuple(c.cell(row) for c in self.columns) for row in rows]

    def warning(self, rows: Sequence[object]) -> Optional[str]:
        """The clamped-ack warning for *rows*, or ``None`` when none clamped."""
        if self.clamp_warning is None:
            return None
        clamped = sum(row.ack_clamped for row in rows)
        if not clamped:
            return None
        return (
            f"WARNING: {clamped} ack latencies were clamped to zero "
            "(cross-thread virtual-clock skew); the p50/p99 columns "
            f"understate {self.clamp_warning}"
        )


def point_seed(figure: int, label: str) -> int:
    """Deterministic per-cell seed: a pure function of the coordinates."""
    return (zlib.crc32(f"fig{figure}:{label}".encode()) & 0x7FFFFFFF) or 1


def axis(given: Optional[Iterable], default: Iterable) -> list:
    """A sweep axis: *given* when the caller narrows it, else *default*."""
    return list(default if given is None else given)


@dataclass(frozen=True)
class Cell:
    """One independent point of a figure sweep: a label and one call.

    *fn* is a module-level function, so the cell pickles for the process
    pool; *kwargs* is a sorted tuple of pairs, so the cell stays hashable.
    """

    label: str
    fn: Callable[..., object]
    kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, label: str, fn: Callable[..., object], /, **kwargs: object) -> "Cell":
        return cls(label, fn, tuple(sorted(kwargs.items())))

    @classmethod
    def seeded(
        cls,
        figure: int,
        label: str,
        fn: Callable[..., object],
        seed: Optional[int],
        /,
        **kwargs: object,
    ) -> "Cell":
        """A cell run at *seed*, or at its coordinate seed when ``None``."""
        seed = point_seed(figure, label) if seed is None else seed
        return cls.of(label, fn, seed=seed, **kwargs)

    def rows(self) -> list:
        """Simulate the cell; a function returning one row gives one row."""
        rows = self.fn(**dict(self.kwargs))
        return rows if isinstance(rows, list) else [rows]


def run_cells(cells: Iterable[Cell]) -> list:
    """Every row of *cells*, in order, simulated in this process."""
    return [row for cell in cells for row in cell.rows()]


@dataclass(frozen=True)
class Figure:
    """One evaluation figure: its cell list, its row kind and its title.

    ``cells(quick=False, **axes)`` returns the figure's ordered cells;
    the axes narrow the sweep, and every cell of a seeded figure runs at
    its coordinate seed unless an explicit ``seed`` is given.
    """

    cells: Callable[..., List[Cell]]
    kind: FigureKind
    title: str

    def run(self, quick: bool = False, **axes: object) -> list:
        """The figure's rows, its cells simulated in order in this process."""
        return run_cells(self.cells(quick=quick, **axes))
