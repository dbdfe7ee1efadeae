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
from typing import Dict, List, Optional

from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Claim,
    Column,
    Figure,
    FigureKind,
    Judgement,
    each,
    grows,
    rounded,
    versus,
)
from repro.bench.store import SHARED_LOG_CAPACITY
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.openloop import OpenLoopClient, PoissonArrivals, ZipfianKeys
from repro.workloads.rig import StoreRig

#: epoch trigger per session (matches figure 18's group commit)
GROUP_COMMIT = 8
#: tenants of a cell: the OLTP sessions, then ANALYTICS_SESSIONS
SESSIONS = 4
#: total requests per kilocycle across tenants; the knee sits between
#: the middle loads at SESSIONS tenants and GROUP_COMMIT
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
#: simulated cycles of a cell (quick, full)
QUICK_DURATION, FULL_DURATION = 30_000, 150_000


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


def fig19_cells(quick: bool = False) -> List[Cell]:
    """Figure 19: serving-tier saturation curves vs offered load."""
    offered_loads = QUICK_LOADS if quick else ALL_LOADS
    duration = QUICK_DURATION if quick else FULL_DURATION
    key_space = 65_536 if quick else 1_000_000
    return [
        Cell.seeded(
            19,
            f"{optimizer},load={load:g}",
            serve_cell,
            optimizer=optimizer,
            offered_load=load,
            sessions=SESSIONS,
            duration=duration,
            key_space=key_space,
        )
        for optimizer in OPTIMIZER_NAMES
        for load in offered_loads
    ]


# ----------------------------------------------------------------- claims
def _at_load(rows, pick) -> list:
    """The rows at the lowest (``min``) or highest (``max``) offered load."""
    loads = {row["offered_load"] for row in rows}
    return [row for row in rows if loads and row["offered_load"] == pick(loads)]


def _sheds_past_the_knee(rows) -> Judgement:
    if len({row["offered_load"] for row in rows}) < 2:
        return None
    low, high = _at_load(rows, min), _at_load(rows, max)
    holds = all(not r["shed"] and not r["backpressure_engagements"] for r in low)
    holds = holds and all(r["shed"] and r["backpressure_engagements"] for r in high)
    holds = holds and all(r["generated"] >= r["completed"] + r["shed"] for r in rows)
    return holds, "; ".join(
        f"{r['optimizer']} {r['shed']} shed, {r['backpressure_engagements']} engaged"
        for r in high
    )


FIG19 = Figure(
    fig19_cells,
    SERVE,
    "serving tier: p99 ack latency vs offered load saturation curves "
    "(repro.serve)",
    (
        Claim(
            "repro.serve",
            "open-loop load exposes saturation as client-side queueing (queue "
            "p99 grows from the lowest load to the highest)",
            lambda rows: each(rows, "offered_load", "queue_p99", grows),
        ),
        Claim(
            "repro.serve",
            "admission control sheds only past the knee (none at the lowest "
            "load), and every request is accounted for",
            _sheds_past_the_knee,
        ),
        Claim(
            "repro.serve",
            "Skip It pushes the knee right: at the highest load it completes "
            "more, sheds less and has a lower ack p99 than plain",
            lambda rows: versus(
                _at_load(rows, max),
                "offered_load",
                ["completed", "shed", "ack_p99"],
                lambda s, p: s["completed"] > p["completed"]
                and s["shed"] < p["shed"]
                and s["ack_p99"] < p["ack_p99"],
            ),
        ),
        Claim(
            "repro.serve",
            "snapshot reads serve the analytics tenant in every cell",
            lambda rows: each(
                rows, "offered_load", "snapshot_reads", lambda c: min(c.values()) > 0
            ),
        ),
    ),
)
