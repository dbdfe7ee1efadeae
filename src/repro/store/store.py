""":class:`LogStore` — the store engine — and :class:`DurableStore`, its
one-thread face over a private log.

The engine ties WAL, epoch sealing, checkpoint and recovery adoption
together over N per-thread views (``views[tid]``, each a
:class:`~repro.persist.api.PMemView`), keyed by the acting ``tid``.
:class:`DurableStore` is the engine on one thread with the private
:class:`WriteAheadLog`; :class:`~repro.store.shared.SharedLogStore` is
the engine on N threads with a CAS-reserved shared tail.  Both keep one
promise through one code path.

The store does its own explicit cleans and fences (that is the whole
point), so it is meant to run with the ``none`` persistence policy;
automatic policies would add per-access flushes on top and drown the
group-commit signal.

Durability contract
-------------------
``put``/``delete`` return a :class:`CommitTicket`.  The operation is
*durable* once ``ticket.acked`` is True (its epoch's fence retired, on
whichever thread sealed it).  Before that it may or may not survive a
crash — epochs are applied atomically, so recovery surfaces either the
whole epoch or none of it, and never anything beyond the last
*initiated* epoch marker.  ``get`` reads the shared memtable:
read-your-own-writes (every thread's), including unacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.persist.api import PMemView
from repro.persist.heap import SimHeap
from repro.sim.stats import Histogram, StatCounter
from repro.store.checkpoint import CheckpointManager
from repro.store.commit import EpochSealer
from repro.store.layout import (
    OP_DELETE,
    OP_PUT,
    OP_TXN,
    OP_TXN_COMMIT,
    RECORD_FIELDS,
    StoreLayout,
)
from repro.store.recovery import RecoveredState
from repro.store.txn import Transaction, TxnTicket
from repro.store.wal import WriteAheadLog


@dataclass
class CommitTicket:
    """Handle for one submitted operation.

    ``submit_now`` is the submitting thread's clock at append time;
    ``durable_now`` is the sealing thread's clock when the epoch's fence
    retired.  Their difference is the ack latency the store reports.
    """

    lsn: int
    tid: int = 0
    submit_now: int = 0
    acked: bool = False
    durable_now: Optional[int] = None
    #: causal trace id assigned by an attached StoreTracer (None untraced)
    trace_id: Optional[int] = None


class LogStore:
    """Crash-consistent KV engine over per-thread views (positive ints).

    Every mutating call takes the acting ``tid`` first and is charged to
    ``views[tid]``'s clock; ``sync``/``checkpoint`` default to the
    current leader.  Internal paths re-enter through ``self.sync(tid)``
    and ``self.checkpoint(tid)`` so a wrapper on the instance sees every
    seal and checkpoint.
    """

    def __init__(
        self,
        heap: SimHeap,
        views: Sequence[PMemView],
        *,
        log_capacity: int = 512,
        batch_size: int = 8,
        checkpoint_every: int = 0,
        num_buckets: int = 64,
        layout: Optional[StoreLayout] = None,
        probe: Optional[Callable[[str], None]] = None,
        ranged_seal: bool = False,
    ) -> None:
        if not views:
            raise ValueError("a store needs at least one thread view")
        strides = {view.optimizer.field_stride for view in views}
        if len(strides) != 1:
            raise ValueError("all views must share one optimizer stride")
        stride = strides.pop()
        if layout is None:
            superblock = heap.alloc_region(heap.line_bytes)
            log_base = heap.alloc_region(log_capacity * RECORD_FIELDS * stride)
            layout = StoreLayout(
                superblock=superblock,
                log_base=log_base,
                log_capacity=log_capacity,
                field_stride=stride,
                line_bytes=heap.line_bytes,
                num_buckets=num_buckets,
            )
        elif layout.field_stride != stride:
            raise ValueError("layout stride does not match the views' optimizer")
        # an epoch may overshoot by one record per thread (the leader's
        # grace round; a lone thread always leads, so it never does) and
        # needs its marker plus one op of slack, or the capacity check
        # below can never free enough slots
        threads = len(views)
        overshoot = threads if threads > 1 else 0
        if batch_size * threads + overshoot + 2 > layout.log_capacity:
            raise ValueError(
                f"epoch of {batch_size} ops x {threads} threads does "
                f"not fit a {layout.log_capacity}-slot log"
            )
        self.heap = heap
        self.views = list(views)
        self.layout = layout
        #: policy knob: seal epochs (and publish checkpoints) with
        #: CBO.RANGE sweeps instead of per-line clean loops + fences
        self.ranged_seal = ranged_seal
        self.wal = self._open_wal(layout)
        self.sealer = EpochSealer(self, batch_size)
        self.checkpointer = CheckpointManager(self)
        self.checkpoint_every = checkpoint_every
        self.memtable: Dict[int, int] = {}
        #: key -> LSN of its last submitted mutation (session plumbing:
        #: a memtable read of one key observes exactly this LSN, so a
        #: serving session's floor rises no further than it must)
        self.memtable_lsn: Dict[int, int] = {}
        self.acked_lsn = 0  # last durable epoch marker
        self.initiated_lsn = 0  # last epoch marker written to cache
        self.watermark = 0  # log below this is checkpointed
        self.stats = StatCounter()
        self.batch_sizes = Histogram()
        #: submit→durable cycles, per thread and aggregated — the
        #: headline metric of cross-thread group commit
        self.ack_latency: List[Histogram] = [Histogram() for _ in views]
        self.ack_latency_all = Histogram()
        self.mutants: Set[str] = set()  # seeded-bug flags (tests only)
        self.probe: Optional[Callable[[str], None]] = probe
        #: causal tracer (repro.obs.trace.StoreTracer); None = zero-cost
        self.tracer = None
        self._commits_at_checkpoint = 0
        self.txn_counter = 0  # txn ids, monotonic per store instance

    def _open_wal(self, layout: StoreLayout) -> WriteAheadLog:
        return WriteAheadLog(layout)

    @property
    def leader_tid(self) -> int:
        """The thread that seals (and that ``sync()`` defaults to)."""
        return self.sealer.leader_tid

    # ---------------------------------------------------------- internals
    def probe_point(self, name: str) -> None:
        """Crash-sweep hook: fired at every protocol boundary."""
        if self.probe is not None:
            self.probe(name)

    def _ensure_capacity(self, tid: int, span: int = 1) -> None:
        # slots in use after the next *span* appends (watermark,
        # next_lsn + span - 1] plus headroom for the epoch's marker
        if self.wal.next_lsn + span - self.watermark > self.layout.log_capacity:
            self.checkpoint(tid)

    def _maybe_checkpoint(self, tid: int) -> None:
        if not self.checkpoint_every:
            return
        commits = self.stats.get("store_commits")
        if commits - self._commits_at_checkpoint >= self.checkpoint_every:
            self.checkpoint(tid)

    def _submit(self, tid: int, op: int, key: int, value: int) -> CommitTicket:
        if key <= 0:
            raise ValueError("keys must be positive integers")
        self._ensure_capacity(tid)
        view = self.views[tid]
        tracer = self.tracer
        if tracer is not None:
            trace_id = tracer.op_begin(tid, view.ctx.now)
        lsn = self.wal.append(view, op, key, value)
        if op == OP_PUT:
            self.memtable[key] = value
        else:
            self.memtable.pop(key, None)
        self.memtable_lsn[key] = lsn
        ticket = CommitTicket(lsn, tid, view.ctx.now)
        if tracer is not None:
            tracer.op_submitted(trace_id, ticket, ticket.submit_now)
        self.probe_point("op_submitted")
        self.sealer.submit(tid, ticket)
        self._maybe_checkpoint(tid)
        return ticket

    # ---------------------------------------------------------------- API
    def put(self, tid: int, key: int, value: int) -> CommitTicket:
        if value <= 0:
            raise ValueError("values must be positive integers")
        self.stats.inc("store_puts")
        return self._submit(tid, OP_PUT, key, value)

    def delete(self, tid: int, key: int) -> CommitTicket:
        self.stats.inc("store_deletes")
        return self._submit(tid, OP_DELETE, key, 0)

    def get(self, tid: int, key: int) -> Optional[int]:
        self.stats.inc("store_gets")
        return self.memtable.get(key)

    # ------------------------------------------------------- transactions
    def begin(self, tid: int = 0) -> Transaction:
        """Open a buffered multi-key transaction on thread *tid*."""
        return Transaction(self, tid)

    def _txn_read(self, tid: int, key: int) -> Optional[int]:
        """Fall-through read for a transaction buffer miss."""
        self.stats.inc("store_gets")
        return self.memtable.get(key)

    def _commit_txn(self, txn: Transaction) -> TxnTicket:
        """Publish a transaction's write set as one atomic log run.

        The run (``n`` OP_TXN records + one OP_TXN_COMMIT, written
        last) is reserved contiguously — on a shared log with **one**
        CAS bump of the tail, so no other thread's append can land
        inside it — and handed to the sealer as **one** ticket: one
        epoch seal, one clean sequence, one fence makes the transaction
        durable, and recovery replays it iff the commit record (and its
        epoch marker) survives.  The per-key ``memtable_lsn`` advances
        only to the commit record's LSN (session floors move at txn
        commit, not per key).
        """
        tid = txn.tid
        self.stats.inc("store_txns")
        self.txn_counter += 1
        txn_id = self.txn_counter
        writes = txn.writes
        view = self.views[tid]
        if not writes:
            # nothing to log: durable by vacuity, covers no slots
            return TxnTicket(
                lsn=self.acked_lsn,
                txn_id=txn_id,
                first_lsn=self.acked_lsn + 1,
                records=0,
                tid=tid,
                submit_now=view.ctx.now,
                acked=True,
            )
        span = len(writes) + 1  # payload run + TXN_COMMIT record
        if span + 2 > self.layout.log_capacity:
            raise ValueError(
                f"transaction of {len(writes)} writes does not fit a "
                f"{self.layout.log_capacity}-slot log"
            )
        self._ensure_capacity(tid, span)
        tracer = self.tracer
        if tracer is not None:
            trace_id = tracer.op_begin(tid, view.ctx.now)
        first = self.wal.reserve_run(view, span)
        self.probe_point("txn_reserved")
        lsn = first
        for key, value in writes.items():
            self.wal.append_at(view, lsn, OP_TXN, key, value)
            lsn += 1
            self.probe_point("txn_record_appended")
        commit_lsn = first + len(writes)
        self.wal.append_at(
            view, commit_lsn, OP_TXN_COMMIT, txn_id, len(writes)
        )
        for key, value in writes.items():
            if value:
                self.memtable[key] = value
            else:
                self.memtable.pop(key, None)
            self.memtable_lsn[key] = commit_lsn
        self.stats.inc("store_txn_records", len(writes))
        ticket = TxnTicket(
            lsn=commit_lsn,
            txn_id=txn_id,
            first_lsn=first,
            records=len(writes),
            tid=tid,
            submit_now=view.ctx.now,
        )
        if tracer is not None:
            tracer.op_submitted(trace_id, ticket, ticket.submit_now)
        if "txn_commit_before_fence" in self.mutants:
            # seeded bug: the commit record exists only in cache, yet
            # the client is told the transaction is durable — a crash
            # before the epoch's fence loses an acknowledged txn
            ticket.acked = True
            self.acked_lsn = max(self.acked_lsn, commit_lsn)
        self.probe_point("txn_committed")
        self.sealer.submit(tid, ticket)
        self._maybe_checkpoint(tid)
        return ticket

    def sync(self, tid: Optional[int] = None) -> None:
        """Seal the pending epoch (if any) on *tid*'s clock; durable on
        return.  Defaults to the current leader."""
        self.sealer.seal(self.sealer.leader_tid if tid is None else tid)

    def checkpoint(self, tid: Optional[int] = None) -> None:
        """Sync, then compact the committed state into a snapshot."""
        tid = self.sealer.leader_tid if tid is None else tid
        self.sync(tid)
        self.checkpointer.checkpoint(self.views[tid])
        self._commits_at_checkpoint = self.stats.get("store_commits")

    # ------------------------------------------------------------ restart
    def adopt(self, state: RecoveredState, tid: int = 0) -> None:
        """Resume from a recovered image (same layout, same regions).

        Erases the stale log tail first: pre-crash records beyond
        ``applied_lsn`` carry LSNs this instance will hand out again,
        and a CRC-valid stale record must never satisfy a future
        replay.  Then seals recovery with a fresh checkpoint so the
        durable watermark is at ``applied_lsn`` before new traffic.
        """
        if self.memtable or self.wal.next_lsn != 1:
            raise RuntimeError("adopt() requires a fresh store instance")
        view = self.views[tid]
        self.memtable = dict(state.items)
        # recovery loses per-key provenance; pin every adopted key at the
        # applied tip (conservative: sessions over-wait, never under-wait)
        self.memtable_lsn = {key: state.applied_lsn for key in state.items}
        self.acked_lsn = state.applied_lsn
        self.initiated_lsn = state.applied_lsn
        self.watermark = state.checkpoint_lsn
        self.wal.reset_tail(view, state.applied_lsn)
        stale = self.layout.log_capacity - (
            state.applied_lsn - state.checkpoint_lsn
        )
        self.wal.invalidate_slots(view, state.applied_lsn + 1, stale)
        view.ctx.fence()
        self.stats.inc("store_fences")
        self.checkpoint(tid)

    # ---------------------------------------------------------- benchmark
    def reset_measurement(self) -> None:
        """Zero every measurement-facing counter and all thread clocks.

        Benchmarks prefill and checkpoint before measuring; this discards
        the prefill's traffic (stats, WAL counters, flush requests) and
        rewinds the virtual clocks so throughput starts from cycle zero.
        Durable state (log, memtable, LSNs) is untouched.
        """
        self.stats.reset()
        # store_commits restarts from zero, so the periodic-checkpoint
        # baseline must too (no-op when checkpoint_every is disabled)
        self._commits_at_checkpoint = 0
        self.batch_sizes = Histogram()
        self.ack_latency = [Histogram() for _ in self.views]
        self.ack_latency_all = Histogram()
        self.wal.reset_counters()
        for view in self.views:
            view.flush_requests = 0
            view.ctx.now = 0
            view.ctx.outstanding.clear()


class DurableStore(LogStore):
    """The engine on one thread with a private log.

    ``put``/``delete``/``get`` act as thread 0 (the only thread); every
    other call is the engine's own.
    """

    def __init__(self, heap: SimHeap, view: PMemView, **options) -> None:
        super().__init__(heap, [view], **options)
        self.view = view

    def put(self, key: int, value: int) -> CommitTicket:
        return super().put(0, key, value)

    def delete(self, key: int) -> CommitTicket:
        return super().delete(0, key)

    def get(self, key: int) -> Optional[int]:
        return super().get(0, key)
