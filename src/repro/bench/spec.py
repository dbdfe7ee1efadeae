"""Figure-kind specs: how one row dataclass is keyed, drawn and compared.

Each row dataclass (``MicroRow``, ``StoreRow``, ...) has one
:class:`FigureKind` declared beside it.  The spec is the only place that
knows the row's baseline key, its table columns (the CLI's terminal
table and the ``--report`` Markdown table draw the same ones) and which
fields ``--check`` and :mod:`repro.bench.regress` compare, each with the
direction that counts as better.  :data:`repro.bench.FIGURES` binds a
figure number to its runner, its kind and its title.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class Figure:
    """One evaluation figure: its runner, its row kind and its title."""

    run: Callable[..., list]
    kind: FigureKind
    title: str
