"""Serving-tier figure (19): p99 ack latency vs offered load, per optimizer.

Not a paper figure — the saturation companion to figure 18 for the
:mod:`repro.serve` tier.  Figure 18 measures the store under closed-loop
pressure (every thread always has a next op); this sweep drives it with
**open-loop** tenants at a configured offered load, so past the store's
capacity the client queues grow and the *arrival→durable* p99 diverges
instead of the throughput politely flattening.  The headline read: each
optimizer's curve has a knee where queueing delay takes over, and Skip
It's cheaper flush path pushes that knee to a higher offered load.  The
shed column shows admission control trading availability for latency on
the far side of the knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind, rounded
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.serve import ServeBenchmark

#: epoch trigger per session (matches figure 18's group commit)
DEFAULT_GROUP_COMMIT = 8
DEFAULT_SESSIONS = 4
#: total requests per kilocycle across tenants; the knee sits between
#: the middle loads at the default sessions/group-commit configuration
ALL_LOADS = (4.0, 8.0, 16.0, 24.0, 32.0, 48.0)
QUICK_LOADS = (8.0, 20.0, 32.0)


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of the serving-tier figure (runner-shared)."""
    if figure == 19:
        return {
            "optimizers": list(OPTIMIZER_NAMES),
            "offered_loads": list(QUICK_LOADS if quick else ALL_LOADS),
        }
    raise KeyError(f"figure {figure} is not a serving-tier figure")


@dataclass
class ServeRow:
    """One cell of the offered-load x optimizer grid."""

    figure: int
    optimizer: str
    offered_load: float
    sessions: int
    group_commit: int
    generated: int
    served: int
    completed: int
    shed: int
    throughput_mops: float  # completed-write goodput
    ack_p50: float = 0.0  # arrival -> durable (queueing delay included)
    ack_p99: float = 0.0
    queue_p50: float = 0.0  # arrival -> service start
    queue_p99: float = 0.0
    max_depth: int = 0
    max_client_queue: int = 0
    backpressure_engagements: int = 0
    snapshot_reads: int = 0
    snapshot_fallbacks: int = 0
    fences: int = 0
    commits: int = 0
    checkpoints: int = 0
    wal_records: int = 0
    #: ack latencies clamped to zero (cross-thread virtual-clock skew)
    ack_clamped: int = 0
    #: ``timing.*`` + ``serve.*`` + ``store.shared.*`` metrics snapshot
    metrics: Optional[Dict[str, object]] = None


SERVE = FigureKind(
    key="serve|{optimizer}|load={offered_load:g}|s={sessions}|gc={group_commit}",
    columns=(
        Column("optimizer", "optimizer"),
        Column("load", "offered_load"),
        Column("gen", "generated"),
        Column("done", "completed"),
        Column("shed", "shed"),
        Column("goodput", "throughput_mops", rounded(3)),
        Column("ack p50", "ack_p50"),
        Column("ack p99", "ack_p99"),
        Column("queue p99", "queue_p99"),
        Column("bp", "backpressure_engagements"),
        Column("snap", "snapshot_reads"),
    ),
    values={
        "generated": NEUTRAL,
        "served": NEUTRAL,
        "completed": HIGHER,
        "shed": LOWER,
        "throughput_mops": HIGHER,
        "ack_p50": LOWER,
        "ack_p99": LOWER,
        "queue_p50": LOWER,
        "queue_p99": LOWER,
        "snapshot_reads": NEUTRAL,
        "snapshot_fallbacks": LOWER,
        "fences": LOWER,
        "commits": NEUTRAL,
        "wal_records": NEUTRAL,
    },
    clamp_warning="arrival->durable latency for those requests",
)


def run_fig19(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    offered_loads: Optional[Sequence[float]] = None,
    sessions: int = DEFAULT_SESSIONS,
    group_commit: int = DEFAULT_GROUP_COMMIT,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[ServeRow]:
    """Figure 19: serving-tier saturation curves vs offered load."""
    axes = sweep_axes(19, quick)
    optimizers = (
        list(optimizers) if optimizers is not None else axes["optimizers"]
    )
    offered_loads = (
        list(offered_loads)
        if offered_loads is not None
        else axes["offered_loads"]
    )
    duration = duration or (30_000 if quick else 150_000)
    key_space = 65_536 if quick else 1_000_000
    rows: List[ServeRow] = []
    for optimizer in optimizers:
        for load in offered_loads:
            extra = {} if seed is None else {"seed": seed}
            bench = ServeBenchmark(
                optimizer,
                load,
                sessions=sessions,
                group_commit=group_commit,
                key_space=key_space,
                **extra,
            )
            result = bench.run(duration=duration)
            rows.append(
                ServeRow(
                    figure=19,
                    optimizer=optimizer,
                    offered_load=load,
                    sessions=sessions,
                    group_commit=group_commit,
                    generated=result.generated,
                    served=result.served,
                    completed=result.completed,
                    shed=result.shed,
                    throughput_mops=result.throughput_mops,
                    ack_p50=result.ack_p50,
                    ack_p99=result.ack_p99,
                    queue_p50=result.queue_p50,
                    queue_p99=result.queue_p99,
                    max_depth=result.max_depth,
                    max_client_queue=result.max_client_queue,
                    backpressure_engagements=result.backpressure_engagements,
                    snapshot_reads=result.snapshot_reads,
                    snapshot_fallbacks=result.snapshot_fallbacks,
                    fences=result.fences,
                    commits=result.commits,
                    checkpoints=result.checkpoints,
                    wal_records=result.wal_records,
                    ack_clamped=result.ack_clamped,
                    metrics=result.metrics,
                )
            )
    return rows
