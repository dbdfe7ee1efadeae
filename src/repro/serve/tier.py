"""The serving tier: multi-tenant front end over a ``SharedLogStore``.

One :class:`ServeTier` fronts one store.  Tenants open
:class:`~repro.serve.session.Session`\\ s (one per virtual-time thread in
the benchmarks) and issue three request kinds:

* ``put`` — admission-controlled, appended to the shared WAL via the
  store; the ticket is tracked so the request's **arrival→durable**
  latency (queueing delay included — the figure-19 metric) can be
  harvested once its epoch's fence retires.
* ``get`` — served from the live memtable; raises the session floor to
  the read key's last-write LSN.
* ``snapshot_get`` — served from the last published checkpoint when its
  watermark covers the session's LSN floor (read-your-writes gate),
  falling back to the memtable otherwise.
* ``transact`` — a multi-key atomic write set (``repro.store.txn``),
  admission-controlled as **one** unit and tracked by one ticket; the
  session floor advances only at the transaction's commit record.

Backpressure: before every write the tier probes the write-path backlog
— unsealed epoch records plus the acting thread's in-flight writebacks,
plus the caller-reported ingress queue (``backlog=``; the open-loop
clients pass their arrival-queue depth).  The ingress term matters: the
WAL tail is bounded by the epoch trigger, so under overload the queue
that actually grows is the one in front of the tier.  The combined
depth runs through the
:class:`~repro.serve.admission.AdmissionController`.  Engage/release
transitions fire the store's crash-probe points
(``backpressure_engaged`` / ``backpressure_released``), so the verify
sweeps crash inside backpressure windows too.

Seeded mutants (the verify serve session sweep must turn red on both):

* ``stale_snapshot_read`` — snapshot reads ignore the session floor;
* ``shed_acked_op`` — the admission decision is applied only *after*
  the op has been ticketed, so a request reported "shed" to the client
  is nonetheless journaled, sealed and made durable.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.serve.admission import AdmissionController
from repro.serve.session import Session, SnapshotReader
from repro.sim.stats import Histogram, StatCounter


class ServeTier:
    """Sessions + admission control + snapshot reads over one store."""

    def __init__(
        self,
        store,
        *,
        high_water: int = 48,
        low_water: int = 12,
    ) -> None:
        self.store = store
        self.admission = AdmissionController(
            high_water, low_water, on_transition=self._transition
        )
        self.snapshots = SnapshotReader(store)
        self.sessions: Dict[int, Session] = {}
        self.stats = StatCounter()
        #: client-side queueing delay (arrival → service start), per request
        self.queue_wait = Histogram()
        #: arrival → durable cycles for completed writes (the fig-19 metric)
        self.ack_latency = Histogram()
        self.max_depth = 0
        self.mutants: Set[str] = set()  # seeded-bug flags (tests only)
        #: oracle hooks (verify serve session sweep); None = zero-cost
        self.on_read: Optional[Callable[[int, int, Optional[int], str], None]] = None
        self.on_write: Optional[Callable[[int, int, object], None]] = None
        self.on_shed: Optional[Callable[[int, Optional[object]], None]] = None
        self._rid_seq = itertools.count(1)
        self._inflight: List[Tuple[object, int]] = []  # (ticket, arrival)

    # ----------------------------------------------------------- sessions
    def session(self, sid: int, tid: int) -> Session:
        """Open (or return) session *sid* bound to tenant thread *tid*."""
        session = self.sessions.get(sid)
        if session is None:
            session = Session(self.store, sid, tid)
            self.sessions[sid] = session
        return session

    # ------------------------------------------------------- backpressure
    def depth(self, tid: int, backlog: int = 0) -> int:
        """Write backlog the admission controller gates on.

        *backlog* is the caller's ingress-queue depth (requests arrived
        but not yet serviced) — the component that grows without bound
        past saturation.
        """
        return (
            backlog
            + self.store.unsealed_backlog
            + self.store.flush_backlog(tid)
        )

    def _transition(self, edge: str) -> None:
        self.stats.inc(f"serve_backpressure_{edge}")
        self.store.probe_point(f"backpressure_{edge}")

    def _probe_depth(self, tid: int, backlog: int) -> int:
        depth = self.depth(tid, backlog)
        if depth > self.max_depth:
            self.max_depth = depth
        return depth

    def _shed(
        self, tid: int, rid: int, ticket: Optional[object] = None
    ) -> Tuple[str, None]:
        """Refuse request *rid*, and drain the stalled write path.

        Shed writes append nothing, so a partially filled epoch would
        otherwise never reach its size trigger and the backlog could
        never fall back under ``low_water`` — backpressure that can only
        release through work it refuses to admit.  Sealing the pending
        epoch (cost charged to the shedding tenant's clock) drains the
        WAL tail and retires outstanding writebacks, so the controller's
        release edge is reachable as soon as the ingress queue empties.
        """
        self.stats.inc("serve_rejected")
        if self.on_shed is not None:
            self.on_shed(rid, ticket)
        if self.store.unsealed_backlog > 0:
            self.stats.inc("serve_backpressure_drains")
            self.store.sync(tid)
            self.harvest()
        return "shed", None

    def _note_wait(self, session: Session, arrival: Optional[int]) -> int:
        now = self.store.views[session.tid].ctx.now
        if arrival is None:
            arrival = now
        wait = max(0, now - arrival)
        self.queue_wait.add(wait)
        tracer = self.store.tracer
        if tracer is not None and hasattr(tracer, "request_queued"):
            tracer.request_queued(session.tid, wait, now)
        return arrival

    # ------------------------------------------------------------- writes
    def put(
        self,
        session: Session,
        key: int,
        value: int,
        *,
        arrival: Optional[int] = None,
        rid: Optional[int] = None,
        backlog: int = 0,
    ) -> Tuple[str, Optional[object]]:
        """Admission-gated durable write; returns ``(status, ticket)``.

        ``status`` is ``"ok"`` (ticketed; durable once acked) or
        ``"shed"`` (rejected — the op did not and will never happen under
        this rid).
        """
        store = self.store
        tid = session.tid
        rid = next(self._rid_seq) if rid is None else rid
        arrival = self._note_wait(session, arrival)
        depth = self._probe_depth(tid, backlog)

        if "shed_acked_op" in self.mutants:
            # seeded bug: the op is ticketed (journaled, in the epoch,
            # ack-bound) before admission runs, so a "shed" reply lies
            ticket = store.put(tid, key, value)
            session.observe_write(ticket)
            if self.on_write is not None:
                self.on_write(session.sid, key, ticket)
            if self.admission.offer(rid, depth) == "shed":
                return self._shed(tid, rid, ticket)
            self.stats.inc("serve_admitted")
            self._inflight.append((ticket, arrival))
            return "ok", ticket

        if self.admission.offer(rid, depth) == "shed":
            return self._shed(tid, rid)
        self.stats.inc("serve_admitted")
        ticket = store.put(tid, key, value)
        session.observe_write(ticket)
        if self.on_write is not None:
            self.on_write(session.sid, key, ticket)
        self._inflight.append((ticket, arrival))
        return "ok", ticket

    def transact(
        self,
        session: Session,
        writes: Dict[int, int],
        *,
        arrival: Optional[int] = None,
        rid: Optional[int] = None,
        backlog: int = 0,
    ) -> Tuple[str, Optional[object]]:
        """Admission-gated multi-key atomic write; ``(status, ticket)``.

        *writes* maps key -> value (value 0 = delete).  The whole
        transaction is **one admission unit**: one offer against the
        backlog, one rid, one ticket — a shed transaction leaves no
        trace, an admitted one is all-or-nothing durable once its ticket
        acks.  The session's LSN floor advances only at the
        transaction's commit record, never to an intermediate write.
        """
        store = self.store
        tid = session.tid
        rid = next(self._rid_seq) if rid is None else rid
        arrival = self._note_wait(session, arrival)
        depth = self._probe_depth(tid, backlog)

        if self.admission.offer(rid, depth) == "shed":
            return self._shed(tid, rid)
        self.stats.inc("serve_admitted")
        self.stats.inc("serve_txns")
        txn = store.begin(tid)
        for key, value in writes.items():
            if value:
                txn.put(key, value)
            else:
                txn.delete(key)
        ticket = txn.commit()
        session.observe_write(ticket)
        if self.on_write is not None:
            for key in writes:
                self.on_write(session.sid, key, ticket)
        if ticket.records:
            self._inflight.append((ticket, arrival))
        else:
            # empty write set: durable by vacuity, complete on the spot
            self.stats.inc("serve_completed")
        return "ok", ticket

    # -------------------------------------------------------------- reads
    def get(
        self,
        session: Session,
        key: int,
        *,
        arrival: Optional[int] = None,
    ) -> Optional[int]:
        """Memtable read: always fresh, raises the floor to the tip."""
        self._note_wait(session, arrival)
        value = self.store.get(session.tid, key)
        session.observe_memtable_read(key)
        self.stats.inc("serve_reads")
        if self.on_read is not None:
            self.on_read(session.sid, key, value, "memtable")
        return value

    def snapshot_get(
        self,
        session: Session,
        key: int,
        *,
        arrival: Optional[int] = None,
    ) -> Optional[int]:
        """Checkpoint read when it covers the session floor; else fall back.

        The fallback *is* the "block until covered" semantics in virtual
        time: instead of parking the session until a checkpoint at or
        past its floor publishes, the read is served from the memtable —
        which always covers the floor — at memtable cost.
        """
        self._note_wait(session, arrival)
        store = self.store
        stale = not session.snapshot_covers(store.watermark)
        if "stale_snapshot_read" in self.mutants:
            # seeded bug: the session LSN floor is never consulted
            stale = False
        result = None
        if not stale:
            result = self.snapshots.read(store.views[session.tid], key)
        if result is None:
            # stale for this session, or no checkpoint published yet
            self.stats.inc("serve_snapshot_fallback")
            value = store.get(session.tid, key)
            session.observe_memtable_read(key)
            if self.on_read is not None:
                self.on_read(session.sid, key, value, "memtable")
            return value
        _found, value, watermark = result
        self.stats.inc("serve_snapshot_reads")
        session.observe_snapshot_read(watermark)
        if self.on_read is not None:
            self.on_read(session.sid, key, value, "snapshot")
        return value

    # ------------------------------------------------------------ harvest
    def harvest(self) -> int:
        """Fold acked tickets into the arrival→durable latency histogram."""
        completed = 0
        still: List[Tuple[object, int]] = []
        for ticket, arrival in self._inflight:
            if ticket.acked:
                latency = ticket.durable_now - arrival
                if latency < 0:
                    # cross-thread virtual clocks are loosely synchronized
                    latency = 0
                    self.stats.inc("serve_ack_latency_clamped")
                self.ack_latency.add(latency)
                self.stats.inc("serve_completed")
                completed += 1
            else:
                still.append((ticket, arrival))
        self._inflight = still
        return completed

    def drain(self, tid: Optional[int] = None) -> None:
        """Seal the pending epoch and harvest every completed write."""
        self.store.sync(tid)
        self.harvest()

    @property
    def inflight(self) -> int:
        return len(self._inflight)
