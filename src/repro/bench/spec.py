"""Figure specs: a figure's cells, and how its rows are keyed and compared.

Each row dataclass (``MicroRow``, ``StoreRow``, ...) has one
:class:`FigureKind` declared beside it.  The spec is the only place that
knows the row's baseline key, its table columns (the CLI's terminal
table and the ``--report`` Markdown table draw the same ones) and which
fields ``--check`` and :mod:`repro.bench.regress` compare, each with the
direction that counts as better.  A :class:`Figure` binds its cell list,
its kind, its title and the paper's claims about it (:class:`Claim`\\ s,
judged on the serialized rows, so a live run and a committed baseline
are judged alike).

A figure's sweep is declared once, as an ordered list of cells
(:class:`Cell`) that takes only ``quick``: the parallel runner
(:mod:`repro.bench.runner`) fans the list over processes and
:meth:`Figure.run` runs it in this process, so both give the same rows.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


#: a serialized row, as ``--json`` writes it
Record = Mapping[str, object]
#: a claim judge's result: ``None`` when the rows it needs are absent,
#: else ``(holds, measured values)``
Judgement = Optional[Tuple[bool, str]]

#: a claim's verdicts
HOLDS, FAILS, NA = "holds", "FAILS", "n/a"


def records(rows: Iterable[object]) -> List[Dict[str, object]]:
    """*rows* as the dicts ``--json`` writes and the baselines hold."""
    return [asdict(row) for row in rows]


#: a row field, or a tuple of fields naming a composite key
Fields = Union[str, Tuple[str, ...]]


def pivot(
    rows: Sequence[Record], by: Fields, x: Fields, y: Optional[str] = None
) -> Dict[object, Dict[object, object]]:
    """``{group: {x: y}}``: each row's *y* (the whole row when ``None``)
    under its *by* and *x* keys.

    Rows whose *y* is ``None`` (a cell that was not run, like BST ×
    link-and-persist) are left out.  Two rows at one ``(group, x)`` raise
    ``ValueError``, so a judge never reads fewer rows than it names.
    """

    def key(row: Record, fields: Fields) -> object:
        if isinstance(fields, tuple):
            return tuple(row[name] for name in fields)
        return row[fields]

    table: Dict[object, Dict[object, object]] = {}
    for row in rows:
        value = row if y is None else row[y]
        if value is None:
            continue
        group, at = key(row, by), key(row, x)
        points = table.setdefault(group, {})
        if at in points:
            raise ValueError(f"two rows at {by}={group!r}, {x}={at!r}")
        points[at] = value
    return table


def _label(fields: Fields, value: object) -> str:
    """A group in a verdict: text as is, a number as ``field=value``, and
    a composite joined by ``/``."""
    if isinstance(fields, tuple):
        return "/".join(_label(name, v) for name, v in zip(fields, value))
    return value if isinstance(value, str) else f"{fields}={num(value)}"


def num(value: float) -> str:
    """A measured number in a verdict: 95, 18.6, 0.0305."""
    if abs(value) >= 10:
        return f"{value:.1f}".removesuffix(".0")
    return f"{value:.3g}"


def trend(values: Mapping) -> str:
    """*values* in key order, as ``a → b → c``."""
    return " → ".join(num(values[key]) for key in sorted(values))


def rising(values: Mapping) -> bool:
    """Whether *values* strictly increase in key order."""
    ordered = [values[key] for key in sorted(values)]
    return all(a < b for a, b in zip(ordered, ordered[1:]))


def grows(values: Mapping) -> bool:
    """Whether the value at the largest key exceeds a positive value at
    the smallest."""
    return values[max(values)] > values[min(values)] > 0


def each(
    rows: Sequence[Record],
    x: Fields,
    y: Optional[str],
    test: Callable[[Dict], bool],
    need: Iterable = (),
    by: Fields = "optimizer",
    show: Callable[[Dict], str] = trend,
) -> Judgement:
    """*test* on every *by* group's curve ``{x: y}`` (``{x: row}`` when *y*
    is ``None``), each shown by *show*.

    Groups with fewer than two points, or without every *x* in *need*,
    are left out; with none left the claim is n/a.
    """
    curves = {
        group: points
        for group, points in pivot(rows, by, x, y).items()
        if len(points) >= 2 and set(need) <= points.keys()
    }
    if not curves:
        return None
    holds = all(test(points) for points in curves.values())
    return holds, "; ".join(f"{_label(by, g)}: {show(c)}" for g, c in curves.items())


def versus(
    rows: Sequence[Record],
    x: Fields,
    fields: Sequence[str],
    test: Callable[[Record, Record], bool],
    a: str = "skipit",
    b: str = "plain",
    by: str = "optimizer",
) -> Judgement:
    """*test(row of a, row of b)* at every *x* where both *by* values ran,
    each pair shown as its *fields*; n/a when they share no *x*."""

    def judge(pair: Dict) -> bool:
        return test(pair[a], pair[b])

    def show(pair: Dict) -> str:
        return ", ".join(f"{f} {num(pair[a][f])} vs {num(pair[b][f])}" for f in fields)

    return each(rows, by, None, judge, need=(a, b), by=x, show=show)


@dataclass(frozen=True)
class Claim:
    """One shape claim about a figure, judged on its serialized rows.

    *judge* returns ``None`` when the rows it needs are absent (a quick
    sweep lacks the 32 KiB point, say), else ``(holds, measured)``.  A
    tolerance is a constant inside the judge, fixed with the claim.
    """

    section: str
    text: str
    judge: Callable[[Sequence[Record]], Judgement]

    def verdict(self, rows: Sequence[Record]) -> Tuple[str, str]:
        """``(HOLDS | FAILS | NA, measured values)`` on *rows*."""
        result = self.judge(rows)
        if result is None:
            return NA, ""
        holds, measured = result
        return HOLDS if holds else FAILS, measured


def point_seed(figure: int, label: str) -> int:
    """Deterministic per-cell seed: a pure function of the coordinates."""
    return (zlib.crc32(f"fig{figure}:{label}".encode()) & 0x7FFFFFFF) or 1


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
        cls, figure: int, label: str, fn: Callable[..., object], /, **kwargs: object
    ) -> "Cell":
        """A cell run at its coordinate seed, :func:`point_seed`."""
        return cls.of(label, fn, seed=point_seed(figure, label), **kwargs)

    def rows(self) -> list:
        """Simulate the cell; a function returning one row gives one row."""
        rows = self.fn(**dict(self.kwargs))
        return rows if isinstance(rows, list) else [rows]


@dataclass(frozen=True)
class Figure:
    """One evaluation figure: its cell list, row kind, title and claims.

    ``cells(quick=False)`` returns the figure's ordered cells, every cell
    of a seeded figure at its coordinate seed.  To run part of a figure,
    pick its cells by label, or call the module's cell function with
    arguments of one's own.
    """

    cells: Callable[..., List[Cell]]
    kind: FigureKind
    title: str
    claims: Tuple[Claim, ...] = ()

    def run(self, quick: bool = False) -> list:
        """The figure's rows, its cells simulated in order in this process."""
        return [row for cell in self.cells(quick=quick) for row in cell.rows()]
