"""One store rig: every store-side run builds, settles, runs and
snapshots its store here.

Figures 17–21 (:mod:`repro.bench`), the crash sweep
(:mod:`repro.verify.sweep`) and ``python -m repro.obs record-store`` run
a store the way the paper's throughput method (§7.4) runs a structure:
one :class:`~repro.timing.system.TimingSystem`, one heap, one flush
filter, and the ``none`` policy (the store does its own cleans and
fences; an automatic policy would double-flush every log write).  A run
fills the store, settles it (:meth:`StoreRig.settle`), runs one step
function per thread (:meth:`StoreRig.run`) and reads the outcome with
:meth:`StoreRig.row`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import attach
from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.serve.tier import ServeTier
from repro.store.shared import SharedLogStore
from repro.store.store import DurableStore
from repro.timing.params import TimingParams
from repro.timing.scheduler import ScheduleResult, VirtualTimeScheduler
from repro.timing.system import TimingSystem

#: seed of every store-side figure run that is not given one
SEED = 12345
#: hash buckets of each store's checkpoint table
NUM_BUCKETS = 64


class StoreRig:
    """One store stack on the timing model.

    ``clients[tid]`` is thread *tid*'s put/delete/get/begin client: a
    private log is its own client, a shared log hands out
    ``handle(tid)``.  Heap allocation order fixes every simulated
    address, so it is part of the contract: the filter's table, then
    each store's superblock and log, then a shared log's tail and
    leader words.
    """

    def __init__(
        self,
        optimizer: str,
        threads: int,
        group_commit: int,
        log_capacity: int,
        *,
        shared: bool,
        num_buckets: int = NUM_BUCKETS,
        checkpoint_every: int = 0,
        ranged_seal: bool = False,
    ) -> None:
        self.optimizer = optimizer
        self.threads = threads
        self.group_commit = group_commit
        self.shared = shared
        # as in the structure figures: the skip bit exists only when
        # running the skipit filter
        params = TimingParams(num_threads=threads, skip_it=optimizer == "skipit")
        self.system = TimingSystem(params)
        heap = SimHeap(line_bytes=params.line_bytes)
        self.filter = make_optimizer(optimizer, heap)
        policy = make_policy("none")
        views = [PMemView(ctx, policy, self.filter) for ctx in self.system.threads]
        options = dict(
            log_capacity=log_capacity,
            batch_size=group_commit,
            checkpoint_every=checkpoint_every,
            num_buckets=num_buckets,
            ranged_seal=ranged_seal,
        )
        if shared:
            store = SharedLogStore(heap, views, **options)
            self.stores: List = [store]
            self.clients: List = [store.handle(tid) for tid in range(threads)]
        else:
            self.stores = [DurableStore(heap, view, **options) for view in views]
            self.clients = list(self.stores)
        self.tier: Optional[ServeTier] = None
        self.result: Optional[ScheduleResult] = None

    def serve(self, **watermarks: int) -> ServeTier:
        """Put a serving tier over the shared log; :meth:`run` then seals
        by draining it."""
        self.tier = ServeTier(self.stores[0], **watermarks)
        return self.tier

    def settle(self) -> None:
        """Make the fill durable and discard its traffic, so measurement
        starts from a durable steady state at cycle zero."""
        self.system.persist_all()
        self.filter.declare_persisted(self.system)
        self.system.stats.reset()
        for store in self.stores:
            store.reset_measurement()

    def run(self, steps: Sequence[Callable], duration: int) -> ScheduleResult:
        """Run one step function per thread for *duration* virtual cycles,
        then seal: drain the tier, or sync every log."""
        scheduler = VirtualTimeScheduler(self.system)
        self.result = scheduler.run(steps, duration=duration, warmup=0)
        if self.tier is not None:
            self.tier.drain()
        else:
            for store in self.stores:
                store.sync()
        return self.result

    def total(self, name: str) -> int:
        """Store counter *name*, summed over the logs."""
        return sum(store.stats.get(name) for store in self.stores)

    def snapshot(self) -> Dict[str, object]:
        """The metrics tree: ``timing.*``, then ``serve``, then
        ``store.shared`` or one ``store.t{tid}`` per private log."""
        snapshot = attach.timing_registry(self.system).snapshot()
        if self.tier is not None:
            snapshot["serve"] = attach.serve_registry(self.tier).snapshot()
        if self.shared:
            store = self.stores[0]
            snapshot["store.shared"] = attach.shared_store_registry(store).snapshot()
        else:
            for tid, store in enumerate(self.stores):
                snapshot[f"store.t{tid}"] = attach.store_registry(store).snapshot()
        return snapshot

    def row(self, cls, **values):
        """A *cls* row of the finished run: *values*, and every other
        field of *cls* that names one of the rig's own measures — its
        configuration, store counts summed over the logs, the system's
        CBO counts, throughput and the metrics tree."""
        counts = self.system.stats.as_dict()
        batches = [b for store in self.stores for b in store.batch_sizes.samples]
        measures = dict(
            optimizer=self.optimizer,
            group_commit=self.group_commit,
            threads=self.threads,
            throughput_mops=self.result.throughput() / 1e6,
            fences=self.total("store_fences"),
            commits=self.total("store_commits"),
            checkpoints=self.total("store_checkpoints"),
            ranged_seals=self.total("store_ranged_seals"),
            leader_takeovers=self.total("store_leader_takeovers"),
            ack_clamped=self.total("store_ack_latency_clamped"),
            wal_records=sum(s.wal.records_appended for s in self.stores),
            wal_bytes=sum(s.wal.bytes_appended for s in self.stores),
            mean_batch=(sum(batches) / len(batches)) if batches else 0.0,
            flush_requests=sum(v.flush_requests for s in self.stores for v in s.views),
            cbo_issued=counts.get("cbo_issued", 0),
            cbo_skipped=counts.get("cbo_skipped", 0),
            cbo_range_issued=counts.get("cbo_range_issued", 0),
            cbo_range_lines=counts.get("cbo_range_lines", 0),
            cbo_range_skipped=counts.get("cbo_range_line_skipped", 0),
            metrics=self.snapshot(),
        )
        for field in fields(cls):
            if field.name in measures and field.name not in values:
                values[field.name] = measures[field.name]
        return cls(**values)
