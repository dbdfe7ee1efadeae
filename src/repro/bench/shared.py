"""Shared-log store figure (18): threads x optimizer, one fence per epoch.

Not a paper figure — the companion to figure 17 for the
:mod:`repro.store.shared` subsystem.  Where figure 17 scales the store
by sharding (every thread pays its own fence per batch), this sweep
shares the log: a leader seals epochs of ``group_commit`` ops *per
thread* with a single clean sequence and a single fence, so fences/op
shrinks with the thread count while each op's durability waits on a
cross-thread ack — the p50/p99 ack-latency columns are the cost side of
that trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Claim,
    Column,
    Figure,
    FigureKind,
    axis,
    each,
    grows,
    rounded,
)
from repro.bench.store import run_mix
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.rig import StoreRig

#: epoch trigger per thread (matches figure 17's middle group-commit)
GROUP_COMMIT = 8
ALL_THREADS = (1, 2, 4, 8)


@dataclass
class SharedStoreRow:
    """One cell of the threads x optimizer grid."""

    figure: int
    optimizer: str
    group_commit: int
    threads: int
    throughput_mops: float
    fences: int = 0
    fences_per_kop: float = 0.0
    ack_p50: float = 0.0
    ack_p99: float = 0.0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    commits: int = 0
    checkpoints: int = 0
    leader_takeovers: int = 0
    mean_batch: float = 0.0
    flush_requests: int = 0
    #: acks clamped to zero in the latency histograms (cross-thread
    #: virtual-clock skew); nonzero means p50/p99 understate latency
    ack_clamped: int = 0
    #: ``timing.*`` + ``store.shared.*`` metrics snapshot from the run
    metrics: Optional[Dict[str, object]] = None


SHARED = FigureKind(
    key="shared|{optimizer}|t={threads}|gc={group_commit}",
    columns=(
        Column("optimizer", "optimizer"),
        Column("threads", "threads"),
        Column("gc", "group_commit"),
        Column("Mops/s", "throughput_mops"),
        Column("fences/kop", "fences_per_kop", rounded(2)),
        Column("ack p50", "ack_p50"),
        Column("ack p99", "ack_p99"),
        Column("clamped", "ack_clamped"),
        Column("takeovers", "leader_takeovers"),
        Column("mean batch", "mean_batch", rounded(2)),
    ),
    values={
        "throughput_mops": HIGHER,
        "fences": LOWER,
        "fences_per_kop": LOWER,
        "ack_p50": LOWER,
        "ack_p99": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
        "wal_records": NEUTRAL,
        "commits": NEUTRAL,
    },
    clamp_warning="submit->durable latency for those ops",
)


def shared_row(rig: StoreRig) -> SharedStoreRow:
    """The figure-18 row of a finished :func:`~repro.bench.store.run_mix`
    on one shared log."""
    ack = rig.stores[0].ack_latency_all
    fences, ops = rig.total("store_fences"), rig.result.total_ops
    return rig.row(
        SharedStoreRow,
        figure=18,
        fences_per_kop=fences * 1000.0 / ops if ops else 0.0,
        ack_p50=ack.p50(),
        ack_p99=ack.p99(),
    )


def _shared_cell(
    optimizer: str, threads: int, duration: int, seed: int
) -> SharedStoreRow:
    return shared_row(
        run_mix(optimizer, GROUP_COMMIT, threads, duration, seed, shared=True)
    )


def fig18_cells(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    threads: Optional[Sequence[int]] = None,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[Cell]:
    """Figure 18: shared-log store scaling vs thread count."""
    optimizers = axis(optimizers, OPTIMIZER_NAMES)
    threads = axis(threads, [1, 2, 4] if quick else ALL_THREADS)
    duration = duration or (30_000 if quick else 150_000)
    return [
        Cell.seeded(
            18,
            f"{optimizer},t={t}",
            _shared_cell,
            seed,
            optimizer=optimizer,
            threads=t,
            duration=duration,
        )
        for optimizer in optimizers
        for t in threads
    ]


# ----------------------------------------------------------------- claims
FIG18 = Figure(
    fig18_cells,
    SHARED,
    "shared-log store: fences/op and ack latency vs threads "
    "(repro.store.shared)",
    (
        Claim(
            "repro.store.shared",
            "one leader fence covers every thread: fences/kop falls ≈ 1/threads "
            "(t=1 > 1.5× t=2 > 2× t=4)",
            lambda rows: each(
                rows,
                "threads",
                "fences_per_kop",
                lambda c: c[1] > 1.5 * c[2] > 2 * c[4],
                need=(1, 2, 4),
            ),
        ),
        Claim(
            "repro.store.shared",
            "the amortized fence is paid in ack latency: p50 rises with threads",
            lambda rows: each(rows, "threads", "ack_p50", grows),
        ),
        Claim(
            "repro.store.shared",
            "fewer fences buy throughput despite one contended log",
            lambda rows: each(rows, "threads", "throughput_mops", grows),
        ),
        Claim(
            "repro.store.shared",
            "leadership migrates: takeovers in every cell of two or more threads",
            lambda rows: each(
                [row for row in rows if row["threads"] >= 2],
                "threads",
                "leader_takeovers",
                lambda c: min(c.values()) > 0,
            ),
        ),
    ),
)


#: the figure's rows, its cells simulated in order in this process
run_fig18 = FIG18.run
