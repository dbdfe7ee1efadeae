"""Data-structure throughput figures (14-16), on the timing model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.persist.policies import POLICY_NAMES
from repro.persist.structures import STRUCTURES
from repro.workloads.datastructs import DataStructureBenchmark, DataStructureResult

ALL_STRUCTURES = tuple(STRUCTURES)
ALL_POLICIES = ("automatic", "nvtraverse", "manual")


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of a throughput figure.

    Single source of truth shared by the ``run_figNN`` defaults and the
    parallel runner's point decomposition (:mod:`repro.bench.runner`).
    """
    if figure == 14:
        return {
            "structures": ["list", "hashtable"] if quick else list(ALL_STRUCTURES),
            "policies": ["automatic"] if quick else list(ALL_POLICIES),
            "optimizers": list(OPTIMIZER_NAMES),
        }
    if figure == 15:
        return {
            "structures": ["list"] if quick else list(ALL_STRUCTURES),
            "optimizers": list(OPTIMIZER_NAMES),
            "update_percents": [0, 50] if quick else [0, 5, 20, 50, 100],
        }
    if figure == 16:
        return {
            "table_sizes": [256, 4096] if quick else [256, 1024, 4096, 16_384, 65_536],
        }
    raise KeyError(f"figure {figure} is not a throughput figure")


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
    threads: int,
    duration: int,
    key_range: Optional[int] = None,
    flit_table_entries: int = 1024,
    seed: Optional[int] = None,
) -> ThroughputRow:
    extra = {} if seed is None else {"seed": seed}
    bench = DataStructureBenchmark(
        structure=structure,
        policy=policy,
        optimizer=optimizer,
        update_percent=update_percent,
        threads=threads,
        key_range=key_range,
        flit_table_entries=flit_table_entries,
        **extra,
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


def run_fig14(
    quick: bool = False,
    structures: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    optimizers: Optional[Sequence[str]] = None,
    update_percent: int = 5,
    threads: int = 2,
    duration: Optional[int] = None,
    include_baseline: bool = True,
    seed: Optional[int] = None,
) -> List[ThroughputRow]:
    """Figure 14: throughput grid at 5% updates, 2 threads.

    Also emits the non-persistent baseline (policy='none') the paper draws
    as the dark dotted line (*include_baseline*; pass ``policies=[]`` with
    it to get the baseline rows alone).
    """
    axes = sweep_axes(14, quick)
    structures = list(structures) if structures is not None else axes["structures"]
    policies = list(policies) if policies is not None else axes["policies"]
    optimizers = list(optimizers) if optimizers is not None else axes["optimizers"]
    duration = duration or (60_000 if quick else 300_000)
    rows: List[ThroughputRow] = []
    for structure in structures:
        if include_baseline:
            rows.append(
                _run_cell(
                    14,
                    structure,
                    "none",
                    "plain",
                    update_percent,
                    threads,
                    duration,
                    seed=seed,
                )
            )
        for policy in policies:
            for optimizer in optimizers:
                rows.append(
                    _run_cell(
                        14,
                        structure,
                        policy,
                        optimizer,
                        update_percent,
                        threads,
                        duration,
                        seed=seed,
                    )
                )
    return rows


def run_fig15(
    quick: bool = False,
    structures: Optional[Sequence[str]] = None,
    optimizers: Optional[Sequence[str]] = None,
    update_percents: Optional[Sequence[int]] = None,
    policy: str = "automatic",
    threads: int = 2,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[ThroughputRow]:
    """Figure 15: throughput vs update percentage (automatic persistence)."""
    axes = sweep_axes(15, quick)
    structures = list(structures) if structures is not None else axes["structures"]
    optimizers = list(optimizers) if optimizers is not None else axes["optimizers"]
    update_percents = (
        list(update_percents)
        if update_percents is not None
        else axes["update_percents"]
    )
    duration = duration or (60_000 if quick else 250_000)
    rows: List[ThroughputRow] = []
    for structure in structures:
        for optimizer in optimizers:
            for update in update_percents:
                rows.append(
                    _run_cell(
                        15,
                        structure,
                        policy,
                        optimizer,
                        update,
                        threads,
                        duration,
                        seed=seed,
                    )
                )
    return rows


def run_fig16(
    quick: bool = False,
    table_sizes: Optional[Sequence[int]] = None,
    policy: str = "automatic",
    update_percent: int = 5,
    threads: int = 2,
    duration: Optional[int] = None,
    key_range: int = 10_000,
    include_reference: bool = True,
    seed: Optional[int] = None,
) -> List[ThroughputRow]:
    """Figure 16: BST (10k keys) sensitivity to the FliT hash-table size."""
    table_sizes = (
        list(table_sizes)
        if table_sizes is not None
        else sweep_axes(16, quick)["table_sizes"]
    )
    duration = duration or (60_000 if quick else 250_000)
    rows: List[ThroughputRow] = []
    for entries in table_sizes:
        row = _run_cell(
            16,
            "bst",
            policy,
            "flit-hashtable",
            update_percent,
            threads,
            duration,
            key_range=key_range,
            flit_table_entries=entries,
            seed=seed,
        )
        row.optimizer = f"flit-hashtable({entries})"
        rows.append(row)
    if include_reference:
        # Skip It reference line: unaffected by any table size
        rows.append(
            _run_cell(
                16, "bst", policy, "skipit", update_percent, threads, duration,
                key_range=key_range, seed=seed,
            )
        )
    return rows


def rows_by_structure(rows: Sequence[ThroughputRow]) -> Dict[str, List[ThroughputRow]]:
    grouped: Dict[str, List[ThroughputRow]] = {}
    for row in rows:
        grouped.setdefault(row.structure, []).append(row)
    return grouped
