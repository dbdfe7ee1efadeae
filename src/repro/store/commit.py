"""Epoch sealing: coalesce operations into one clean+fence epoch.

A fence costs ``fence_base`` plus the wait for every outstanding
writeback; issuing one per operation is the naive baseline the paper's
numbers argue against.  The :class:`EpochSealer` instead accumulates
every thread's tickets and, at a size or cycle-budget trigger, the
**leader** thread seals the whole epoch:

1. append one ``COMMIT`` marker record after the epoch's payload,
2. ``CBO.CLEAN`` every record word of the epoch (payload first, marker
   last — the marker must not be reachable-durable while a payload
   line is provably absent *from the same clean sequence*; actual
   ordering safety comes from the CRC + LSN chain, the clean order
   just keeps the common case honest),
3. one fence,
4. acknowledge every ticket in the epoch, recording its ack latency.

Recovery applies an epoch only when its COMMIT marker replays, so a
crash anywhere before the fence either surfaces the whole epoch or
none of it.  On one thread the submitter is always the leader, so the
sealer is plain group commit: it seals at exactly ``batch_size`` ops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.persist.api import PMemView
from repro.store.layout import OP_COMMIT
from repro.store.txn import ticket_lsns


class EpochSealer:
    """Leader-based group commit over every thread of one log.

    The epoch trigger is ``batch_size`` operations *per thread*: an
    epoch carries roughly ``batch_size × threads`` records and is sealed
    with one marker, one clean sequence and one fence — the same
    batching delay per thread as the sharded baseline at the same
    ``batch_size``, divided by N fences.

    Sealing is the leader's job.  A follower whose submit fires the
    trigger defers (counted in ``store_seals_deferred``); once the
    backlog exceeds the trigger by a full scheduler round (``threads``
    extra records) or the cycle budget has doubly expired, the follower
    CASes the leader word to itself and seals — leadership handoff for
    stalled or read-only leaders.
    """

    def __init__(
        self,
        store,
        batch_size: int = 8,
        cycle_budget: Optional[int] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.store = store
        self.batch_size = batch_size
        self.cycle_budget = cycle_budget
        self.leader_tid = 0
        self.pending: List = []  # CommitTicket / TxnTicket, submit order
        self._window_start: Optional[int] = None

    @property
    def epoch_records(self) -> int:
        return self.batch_size * len(self.store.views)

    # ------------------------------------------------------------- intake
    def submit(self, tid: int, ticket) -> None:
        """Queue a ticket; seal (or hand leadership over) on a trigger."""
        store = self.store
        now = store.views[tid].ctx.now
        if not self.pending:
            self._window_start = now
        self.pending.append(ticket)
        budget = self.cycle_budget
        elapsed = now - self._window_start if self._window_start is not None else 0
        excess = len(self.pending) - self.epoch_records
        if excess < 0 and not (budget is not None and elapsed >= budget):
            return
        if tid == self.leader_tid:
            self.seal(tid)
        elif excess >= len(store.views) or (
            budget is not None and elapsed >= 2 * budget
        ):
            self.take_over(tid)
            self.seal(tid)
        else:
            # trigger fired on a follower: give the leader one scheduler
            # round to claim the epoch before leadership moves
            store.stats.inc("store_seals_deferred")
            if store.tracer is not None:
                store.tracer.seal_deferred(now)

    def take_over(self, tid: int) -> None:
        """Claim leadership with a CAS on the shared leader word."""
        store = self.store
        view = store.views[tid]
        if view.cas(store.leader_addr, self.leader_tid + 1, tid + 1):
            self.leader_tid = tid
            store.stats.inc("store_leader_takeovers")

    # -------------------------------------------------------------- seal
    def seal(self, tid: int) -> None:
        """Seal the pending epoch on thread *tid*'s clock; no-op if empty.

        One marker covering every thread's records, one clean sequence
        (payload first, marker last), one fence — then every ticket in
        the epoch is acknowledged and its ack latency recorded.
        """
        store = self.store
        if not self.pending:
            return
        batch, self.pending = self.pending, []
        self._window_start = None
        view = store.views[tid]
        tracer = store.tracer
        epoch = None
        if tracer is not None:
            epoch = tracer.seal_begin(tid, view.ctx.now)

        marker_lsn = store.wal.append(view, OP_COMMIT, len(batch), 0)
        # the marker now exists in cache: an eviction could land it at
        # any moment, so the commit is *initiated* — the oracle's upper
        # bound on what recovery may surface
        store.initiated_lsn = marker_lsn
        if tracer is not None:
            tracer.seal_marker(epoch, marker_lsn, view.ctx.now)

        if store.ranged_seal:
            # one CBO.RANGE sweep over every thread's records at once
            # (two on a log wrap) instead of RECORD_FIELDS cleans per
            # record — the leader's sweep pulls dirty lines out of the
            # other threads' L1s just like its cleans would
            first_lsn = min(min(ticket_lsns(t)) for t in batch)
            store.wal.clean_span(view, first_lsn, marker_lsn)
        else:
            for ticket in batch:
                # a transaction ticket covers its whole contiguous run
                for lsn in ticket_lsns(ticket):
                    store.wal.clean_record(view, lsn)
            store.wal.clean_record(view, marker_lsn)
        if tracer is not None:
            tracer.seal_cleaned(epoch, view.ctx.now)

        if "store_ack_before_fence" in store.mutants:
            # seeded bug: acknowledge while the epoch's writebacks are
            # still in flight — a crash in that window loses acked ops
            self._acknowledge(batch, marker_lsn, view, epoch)
        elif "shared_ack_before_fence" in store.mutants:
            # seeded bug: the leader treats its fence as covering only
            # its own records and acks the followers' tickets while the
            # epoch's writebacks are still in flight — a crash in that
            # window loses acknowledged follower updates
            self._acknowledge(
                [t for t in batch if t.tid != tid], marker_lsn, view, epoch
            )

        store.probe_point("epoch_flushed")
        if store.ranged_seal:
            # the range is one ordering token: wait for its sweep's
            # writebacks to land instead of issuing a FENCE — atomicity
            # still comes from the marker + CRC/LSN chain, so the
            # cheaper completion wait gives the same durability promise
            waited_from = view.ctx.now
            view.ctx.await_writebacks()
            store.stats.inc("store_ranged_seals")
            waited = view.ctx.now - waited_from
        else:
            view.ctx.fence()
            store.stats.inc("store_fences")
            waited = view.ctx.last_fence_waited
        if tracer is not None:
            tracer.seal_fenced(epoch, view.ctx.now, waited)

        self._acknowledge(batch, marker_lsn, view, epoch)
        store.stats.inc("store_commits")
        store.batch_sizes.add(len(batch))
        store.probe_point("epoch_committed")
        if tracer is not None:
            tracer.seal_end(epoch, view.ctx.now, len(batch))

    def _acknowledge(
        self, tickets: Sequence, marker_lsn: int, view: PMemView, epoch=None
    ) -> None:
        store = self.store
        tracer = store.tracer
        now = view.ctx.now
        for ticket in tickets:
            if ticket.acked:
                continue
            ticket.acked = True
            ticket.durable_now = now
            latency = now - ticket.submit_now
            if latency < 0:
                # cross-thread clocks are only loosely synchronized by
                # the scheduler; a seal can complete on a clock slightly
                # behind the submitter's
                latency = 0
                store.stats.inc("store_ack_latency_clamped")
            store.ack_latency[ticket.tid].add(latency)
            store.ack_latency_all.add(latency)
            if tracer is not None and epoch is not None:
                tracer.op_acked(epoch, ticket, now)
        store.acked_lsn = max(store.acked_lsn, marker_lsn)
