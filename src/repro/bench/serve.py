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

from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Column,
    FigureKind,
    axis,
    rounded,
    run_cells,
)
from repro.bench.store import SHARED_LOG_CAPACITY
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.openloop import OpenLoopClient, PoissonArrivals, ZipfianKeys
from repro.workloads.rig import StoreRig

#: epoch trigger per session (matches figure 18's group commit)
GROUP_COMMIT = 8
DEFAULT_SESSIONS = 4
#: total requests per kilocycle across tenants; the knee sits between
#: the middle loads at the default sessions/group-commit configuration
ALL_LOADS = (4.0, 8.0, 16.0, 24.0, 32.0, 48.0)
QUICK_LOADS = (8.0, 20.0, 32.0)
#: publish a checkpoint every this many commits (snapshot reads hit it)
CHECKPOINT_EVERY = 4
#: admission control engages above HIGH_WATER queued writes and
#: releases below LOW_WATER
HIGH_WATER = 48
LOW_WATER = 12
#: zipfian skew of every tenant's keys
THETA = 0.99
#: distinct hot keys written before measurement
PREFILL_KEYS = 128
#: an OLTP tenant's put and snapshot-read shares (the rest are gets)
UPDATE_FRACTION = 0.6
SNAPSHOT_FRACTION = 0.15
#: read-mostly tenants, the last sessions
ANALYTICS_SESSIONS = 1


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


def serve_cell(
    optimizer: str,
    offered_load: float,
    sessions: int,
    duration: int,
    key_space: int,
    seed: int,
) -> ServeRow:
    """One figure-19 cell: *sessions* open-loop tenants against one
    :class:`~repro.serve.tier.ServeTier` over a shared log."""
    rig = StoreRig(
        optimizer,
        sessions,
        GROUP_COMMIT,
        SHARED_LOG_CAPACITY,
        shared=True,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    tier = rig.serve(high_water=HIGH_WATER, low_water=LOW_WATER)

    # Prefill a slice of the keyspace and publish a checkpoint so
    # snapshot reads have a snapshot to hit from cycle zero; prefill
    # values live below every tenant's value space.
    hot = ZipfianKeys(key_space, THETA, seed=seed + 977)
    prefilled = set()
    while len(prefilled) < PREFILL_KEYS:
        key = hot.next()
        if key not in prefilled:
            prefilled.add(key)
            rig.clients[0].put(key, 1_000 + len(prefilled))
    rig.clients[0].checkpoint()
    rig.settle()

    # offered_load is the *total* rate: split evenly across tenants
    mean_interarrival = 1000.0 * sessions / offered_load
    clients = []
    for sid in range(sessions):
        if sid < sessions - ANALYTICS_SESSIONS:
            update, snapshot = UPDATE_FRACTION, SNAPSHOT_FRACTION
        else:
            # read-mostly "analytics" tenant: lives on the published
            # checkpoint, so its floor stays at the watermark and its
            # reads never contend on the write path
            update, snapshot = 0.05, 0.80
        clients.append(
            OpenLoopClient(
                tier,
                tier.session(sid, sid),
                ZipfianKeys(key_space, THETA, seed=seed + sid),
                PoissonArrivals(mean_interarrival, seed=seed + 31 * sid),
                update_fraction=update,
                snapshot_fraction=snapshot,
                value_base=1_000_000 + sid * 10_000_000,
                seed=seed + 7 * sid,
            )
        )
    result = rig.run([client.step for client in clients], duration)

    completed = tier.stats.get("serve_completed")
    elapsed = result.elapsed
    return rig.row(
        ServeRow,
        figure=19,
        offered_load=offered_load,
        sessions=sessions,
        generated=sum(c.generated for c in clients),
        served=sum(c.served for c in clients),
        completed=completed,
        shed=tier.stats.get("serve_rejected"),
        throughput_mops=completed * 50e6 / elapsed / 1e6 if elapsed else 0.0,
        ack_p50=tier.ack_latency.p50(),
        ack_p99=tier.ack_latency.p99(),
        queue_p50=tier.queue_wait.p50(),
        queue_p99=tier.queue_wait.p99(),
        max_depth=tier.max_depth,
        max_client_queue=max(c.max_queue_depth for c in clients),
        backpressure_engagements=tier.admission.engagements,
        snapshot_reads=tier.stats.get("serve_snapshot_reads"),
        snapshot_fallbacks=tier.stats.get("serve_snapshot_fallback"),
        ack_clamped=tier.stats.get("serve_ack_latency_clamped"),
    )


def fig19_cells(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    offered_loads: Optional[Sequence[float]] = None,
    sessions: int = DEFAULT_SESSIONS,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[Cell]:
    """Figure 19: serving-tier saturation curves vs offered load."""
    optimizers = axis(optimizers, OPTIMIZER_NAMES)
    offered_loads = axis(offered_loads, QUICK_LOADS if quick else ALL_LOADS)
    if any(load <= 0 for load in offered_loads):
        raise ValueError("offered load must be positive")
    if ANALYTICS_SESSIONS >= sessions:
        raise ValueError("at least one OLTP session is required")
    duration = duration or (30_000 if quick else 150_000)
    key_space = 65_536 if quick else 1_000_000
    return [
        Cell.seeded(
            19,
            f"{optimizer},load={load:g}",
            serve_cell,
            seed,
            optimizer=optimizer,
            offered_load=load,
            sessions=sessions,
            duration=duration,
            key_space=key_space,
        )
        for optimizer in optimizers
        for load in offered_loads
    ]


def run_fig19(quick: bool = False, **axes) -> List[ServeRow]:
    """Figure 19's rows; *axes* narrow :func:`fig19_cells`."""
    return run_cells(fig19_cells(quick, **axes))
