"""Data-structure throughput figures (14-16), on the timing model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Column,
    FigureKind,
    axis,
    run_cells,
)
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.persist.structures import STRUCTURES
from repro.workloads.datastructs import DataStructureBenchmark

ALL_STRUCTURES = tuple(STRUCTURES)
ALL_POLICIES = ("automatic", "nvtraverse", "manual")
#: threads of every cell
THREADS = 2
#: update share of figures 14 and 16
UPDATE_PERCENT = 5
#: persistence policy of figures 15 and 16
POLICY = "automatic"


@dataclass
class ThroughputRow:
    """One cell of a Figure 14/15/16 grid."""

    figure: int
    structure: str
    policy: str
    optimizer: str
    update_percent: int
    throughput_mops: Optional[float]  # None when the combo is inapplicable
    flush_requests: int = 0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    #: ``timing.*`` metrics snapshot from the run (None when inapplicable)
    metrics: Optional[Dict[str, object]] = None


THROUGHPUT = FigureKind(
    key="{structure}|{policy}|{optimizer}|upd={update_percent}",
    columns=(
        Column("structure", "structure"),
        Column("policy", "policy"),
        Column("optimizer", "optimizer"),
        Column("upd%", "update_percent"),
        Column("Mops/s", "throughput_mops"),
        Column("flush reqs", "flush_requests"),
        Column("cbo issued", "cbo_issued"),
        Column("cbo skipped", "cbo_skipped"),
    ),
    values={
        "throughput_mops": HIGHER,
        "flush_requests": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
    },
)


def _run_cell(
    figure: int,
    structure: str,
    policy: str,
    optimizer: str,
    update_percent: int,
    duration: int,
    seed: int,
    key_range: Optional[int] = None,
    flit_table_entries: int = 1024,
) -> ThroughputRow:
    bench = DataStructureBenchmark(
        structure=structure,
        policy=policy,
        optimizer=optimizer,
        update_percent=update_percent,
        threads=THREADS,
        key_range=key_range,
        flit_table_entries=flit_table_entries,
        seed=seed,
    )
    if not bench.applicable:
        return ThroughputRow(
            figure, structure, policy, optimizer, update_percent, None
        )
    result = bench.run(duration=duration)
    return ThroughputRow(
        figure=figure,
        structure=structure,
        policy=policy,
        optimizer=optimizer,
        update_percent=update_percent,
        throughput_mops=result.throughput_mops,
        flush_requests=result.flush_requests,
        cbo_issued=result.cbo_issued,
        cbo_skipped=result.cbo_skipped,
        metrics=result.metrics,
    )


def fig14_cells(
    quick: bool = False,
    structures: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    optimizers: Optional[Sequence[str]] = None,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[Cell]:
    """Figure 14: throughput grid at 5% updates, 2 threads.

    Each structure's first cell is the non-persistent baseline
    (policy='none') the paper draws as the dark dotted line.
    """
    structures = axis(structures, ["list", "hashtable"] if quick else ALL_STRUCTURES)
    policies = axis(policies, ["automatic"] if quick else ALL_POLICIES)
    optimizers = axis(optimizers, OPTIMIZER_NAMES)
    duration = duration or (60_000 if quick else 300_000)
    grid = [("baseline", "none", "plain")] + [
        (f"{policy},{optimizer}", policy, optimizer)
        for policy in policies
        for optimizer in optimizers
    ]
    return [
        Cell.seeded(
            14,
            f"{structure},{coordinate}",
            _run_cell,
            seed,
            figure=14,
            structure=structure,
            policy=policy,
            optimizer=optimizer,
            update_percent=UPDATE_PERCENT,
            duration=duration,
        )
        for structure in structures
        for coordinate, policy, optimizer in grid
    ]


def run_fig14(quick: bool = False, **axes) -> List[ThroughputRow]:
    """Figure 14's rows; *axes* narrow :func:`fig14_cells`."""
    return run_cells(fig14_cells(quick, **axes))


def fig15_cells(
    quick: bool = False,
    structures: Optional[Sequence[str]] = None,
    optimizers: Optional[Sequence[str]] = None,
    update_percents: Optional[Sequence[int]] = None,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[Cell]:
    """Figure 15: throughput vs update percentage (automatic persistence)."""
    structures = axis(structures, ["list"] if quick else ALL_STRUCTURES)
    optimizers = axis(optimizers, OPTIMIZER_NAMES)
    update_percents = axis(
        update_percents, [0, 50] if quick else [0, 5, 20, 50, 100]
    )
    duration = duration or (60_000 if quick else 250_000)
    return [
        Cell.seeded(
            15,
            f"{structure},{optimizer},upd={update}",
            _run_cell,
            seed,
            figure=15,
            structure=structure,
            policy=POLICY,
            optimizer=optimizer,
            update_percent=update,
            duration=duration,
        )
        for structure in structures
        for optimizer in optimizers
        for update in update_percents
    ]


def run_fig15(quick: bool = False, **axes) -> List[ThroughputRow]:
    """Figure 15's rows; *axes* narrow :func:`fig15_cells`."""
    return run_cells(fig15_cells(quick, **axes))


def _flit_cell(entries: int, duration: int, key_range: int, seed: int) -> ThroughputRow:
    """A figure-16 FliT point, its optimizer named by its table size."""
    row = _run_cell(
        16,
        "bst",
        POLICY,
        "flit-hashtable",
        UPDATE_PERCENT,
        duration,
        seed,
        key_range=key_range,
        flit_table_entries=entries,
    )
    row.optimizer = f"flit-hashtable({entries})"
    return row


def fig16_cells(
    quick: bool = False,
    table_sizes: Optional[Sequence[int]] = None,
    duration: Optional[int] = None,
    key_range: int = 10_000,
    seed: Optional[int] = None,
) -> List[Cell]:
    """Figure 16: BST (10k keys) sensitivity to the FliT hash-table size.

    The last cell is the Skip It reference line, which no table size
    affects.
    """
    table_sizes = axis(
        table_sizes, [256, 4096] if quick else [256, 1024, 4096, 16_384, 65_536]
    )
    duration = duration or (60_000 if quick else 250_000)
    cells = [
        Cell.seeded(
            16,
            f"flit-hashtable({entries})",
            _flit_cell,
            seed,
            entries=entries,
            duration=duration,
            key_range=key_range,
        )
        for entries in table_sizes
    ]
    cells.append(
        Cell.seeded(
            16,
            "skipit-reference",
            _run_cell,
            seed,
            figure=16,
            structure="bst",
            policy=POLICY,
            optimizer="skipit",
            update_percent=UPDATE_PERCENT,
            duration=duration,
            key_range=key_range,
        )
    )
    return cells


def run_fig16(quick: bool = False, **axes) -> List[ThroughputRow]:
    """Figure 16's rows; *axes* narrow :func:`fig16_cells`."""
    return run_cells(fig16_cells(quick, **axes))


def rows_by_structure(rows: Sequence[ThroughputRow]) -> Dict[str, List[ThroughputRow]]:
    grouped: Dict[str, List[ThroughputRow]] = {}
    for row in rows:
        grouped.setdefault(row.structure, []).append(row)
    return grouped
