"""Causal per-operation store tracing with latency blame attribution.

The store tier's headline number is submit→durable ack latency (figures
17/18), but the event bus records FSHR/TileLink/timing events in
isolation — nothing links a CBO back to the store operation whose epoch
issued it, and a p99 outlier cannot be decomposed.  This module closes
the loop:

* a :class:`StoreTracer` attaches to a store — either face of the one
  engine, :class:`~repro.store.store.DurableStore` or
  :class:`~repro.store.shared.SharedLogStore` (``store.tracer``, ``None``
  by default — the usual zero-cost-when-detached contract) — and opens
  one ``store.op`` span per submitted operation and one ``store.epoch``
  span per :class:`~repro.store.commit.EpochSealer` seal;
* while an op's append or an epoch's marker/clean/fence sequence runs,
  the tracer sets :attr:`~repro.obs.events.EventBus.cause`, so every
  bus record the work produces — ``cbo_issued``/``cbo_skipped``/``fence``
  events from the timing model, TileLink beats, FSHR spans — carries the
  ``op:<n>`` / ``epoch:<n>`` id that caused it;
* when the epoch's fence retires, each acked op's latency is decomposed
  into named **blame buckets** whose sum equals the measured
  submit→durable latency *exactly*, cycle for cycle (asserted in tests):

  ====================  ===================================================
  bucket                cycles between
  ====================  ===================================================
  ``batch_wait``        submit and the epoch trigger firing (batching delay)
  ``leader_wait``       trigger firing and the seal starting (leadership
                        deferral / takeover window; 0 when the leader's own
                        submit sealed, never negative)
  ``marker_append``     seal start and the COMMIT marker landing in cache
  ``clean_issue``       marker and the last CBO.CLEAN of the epoch issuing
  ``writeback_drain``   the fence waiting out in-flight DRAM writebacks
  ``fence_stall``       the remaining fence cost (``fence_base`` plus any
                        post-fence ack bookkeeping on the sealer's clock)
  ====================  ===================================================

  ``batch_wait`` is *signed*: cross-thread virtual clocks are only
  loosely synchronized, so an op submitted on a clock ahead of the
  sealer's can show a negative ``batch_wait`` — exactly the case the
  store's ``store_ack_latency_clamped`` counter clamps to zero in its
  histogram.  A deferral seen on a follower's clock that is ahead of the
  leader's seal start counts as triggering at the seal start, so
  ``leader_wait`` is never negative and ``batch_wait`` absorbs that skew
  too.  The blame identity holds on the raw (unclamped) latency.

:mod:`repro.obs.query` consumes the per-op records (live or re-parsed
from a JSONL trace) for top-K / histogram / CLI reporting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.events import EventBus
from repro.sim.stats import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.timing.system import TimingSystem

#: blame buckets in pipeline order; their values sum to the op's raw
#: submit→durable latency exactly
BLAME_BUCKETS = (
    "batch_wait",
    "leader_wait",
    "marker_append",
    "clean_issue",
    "writeback_drain",
    "fence_stall",
)


@dataclass
class OpBlame:
    """One acked operation's latency decomposition."""

    trace_id: int
    tid: int
    lsn: int
    epoch: str  # causing epoch's span key, e.g. "epoch:3"
    submit_now: int
    durable_now: int
    latency: int  # durable_now - submit_now, signed (pre-clamp)
    clamped: bool  # True when the store's histogram clamped it to 0
    buckets: Dict[str, int] = field(default_factory=dict)

    @property
    def dominant(self) -> str:
        """The bucket holding the most cycles (first wins ties)."""
        return max(BLAME_BUCKETS, key=lambda name: self.buckets.get(name, 0))

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "tid": self.tid,
            "lsn": self.lsn,
            "epoch": self.epoch,
            "submit_now": self.submit_now,
            "durable_now": self.durable_now,
            "latency": self.latency,
            "clamped": self.clamped,
            "dominant": self.dominant,
            "buckets": dict(self.buckets),
        }


@dataclass
class _EpochState:
    """Seal-sequence milestones on the sealing thread's clock."""

    epoch_id: int
    key: str
    seal_tid: int
    m0: int  # seal start
    defer_now: Optional[int] = None  # first deferred-trigger clock, if any
    m1: int = 0  # after the COMMIT marker append
    m2: int = 0  # after the clean loop
    m3: int = 0  # after the fence
    waited: int = 0  # fence writeback-drain cycles


class StoreTracer:
    """Per-op/per-epoch spans, causal ids, and blame attribution.

    One tracer serves one store.  ``attach``/``detach`` flip the store's
    ``tracer`` attribute (and optionally wire the timing system's event
    hooks to the same bus so CBO/fence events interleave with the store
    spans); every hook in the store is guarded by
    ``if tracer is not None``, so a detached store pays one attribute
    load per operation and nothing else.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus(max_events=None)
        #: blame records in ack order
        self.records: List[OpBlame] = []
        #: raw (signed) submit→durable latency across all acked ops
        self.latency = Histogram()
        #: per-bucket cycle histograms
        self.bucket_latency: Dict[str, Histogram] = {
            name: Histogram() for name in BLAME_BUCKETS
        }
        #: serving-tier queueing delay (arrival → service start).  This is
        #: *pre-submit* time, deliberately NOT a blame bucket: the blame
        #: buckets telescope to the submit→durable latency exactly, while
        #: queue wait happens before the op's ticket exists.
        self.queue_wait = Histogram()
        self._op_seq = itertools.count(1)
        self._epoch_seq = itertools.count(1)
        self._submit_now: Dict[int, int] = {}  # trace_id -> submit clock
        self._defer_now: Optional[int] = None
        self._store = None
        self._system: Optional["TimingSystem"] = None

    # -------------------------------------------------------------- wiring
    def attach(self, store, system: Optional["TimingSystem"] = None) -> "StoreTracer":
        """Hook *store* (and optionally its timing *system*) to this tracer."""
        store.tracer = self
        self._store = store
        if system is not None:
            system.obs = self.bus
            self._system = system
        self.bus.refs += 1
        return self

    def detach(self) -> None:
        if self._store is not None:
            self._store.tracer = None
            self._store = None
        if self._system is not None:
            self._system.obs = None
            self._system = None
        self.bus.refs = max(0, self.bus.refs - 1)

    def register_metrics(
        self, registry: "MetricsRegistry", prefix: str = "store.blame"
    ) -> None:
        """Expose the latency + per-bucket histograms under *prefix*."""
        registry.register_histogram(f"{prefix}.latency", self.latency)
        registry.register_histogram(f"{prefix}.queue_wait", self.queue_wait)
        for name in BLAME_BUCKETS:
            registry.register_histogram(
                f"{prefix}.{name}", self.bucket_latency[name]
            )

    # ------------------------------------------------------------ op hooks
    def op_begin(self, tid: int, now: int) -> int:
        """An operation is about to append; open its span, set the cause."""
        trace_id = next(self._op_seq)
        key = f"op:{trace_id}"
        self.bus.open_span(
            now,
            key,
            "store.op",
            name=f"op{trace_id}",
            track=f"t{tid}",
            state="batch_wait",
            tid=tid,
        )
        self.bus.cause = key
        return trace_id

    def op_submitted(self, trace_id: int, ticket, now: int) -> None:
        """The append finished and *ticket* exists; clock starts here.

        ``now`` is the submitting thread's clock at ticket creation —
        the same instant the store's ack-latency metric measures from.
        """
        self.bus.cause = None
        ticket.trace_id = trace_id
        self._submit_now[trace_id] = now
        self.bus.annotate(f"op:{trace_id}", lsn=ticket.lsn)

    def request_queued(self, tid: int, wait: int, now: int) -> None:
        """A serving-tier request waited *wait* cycles before service.

        Emitted by :class:`repro.serve.tier.ServeTier` for every request
        (zero wait included, so the histogram's mean is meaningful).
        """
        self.queue_wait.add(wait)
        if wait:
            self.bus.emit(
                now, "serve", "queue_wait", track=f"t{tid}", wait=wait
            )

    # ---------------------------------------------------------- seal hooks
    def seal_deferred(self, now: int) -> None:
        """The epoch trigger fired on a follower; the leader gets a grace
        round.  Only the first deferral marks the trigger instant."""
        if self._defer_now is None:
            self._defer_now = now

    def seal_begin(self, seal_tid: int, now: int) -> _EpochState:
        epoch_id = next(self._epoch_seq)
        es = _EpochState(
            epoch_id=epoch_id,
            key=f"epoch:{epoch_id}",
            seal_tid=seal_tid,
            m0=now,
            defer_now=self._defer_now,
        )
        self._defer_now = None
        self.bus.open_span(
            now,
            es.key,
            "store.epoch",
            name=f"epoch{epoch_id}",
            track=f"t{seal_tid}",
            state="marker_append",
            seal_tid=seal_tid,
        )
        self.bus.cause = es.key
        return es

    def seal_marker(self, es: _EpochState, marker_lsn: int, now: int) -> None:
        es.m1 = now
        self.bus.annotate(es.key, marker_lsn=marker_lsn)
        self.bus.transition(now, es.key, "clean_issue")

    def seal_cleaned(self, es: _EpochState, now: int) -> None:
        es.m2 = now
        self.bus.transition(now, es.key, "fence")

    def seal_fenced(self, es: _EpochState, now: int, waited: int) -> None:
        es.m3 = now
        es.waited = waited
        self.bus.transition(now, es.key, "ack", waited=waited)

    def op_acked(self, es: _EpochState, ticket, durable_now: int) -> Optional[OpBlame]:
        """Decompose one acked ticket's latency; close its op span.

        The buckets telescope over the seal milestones, so their sum is
        ``durable_now - submit_now`` by construction — exact on every op,
        including cross-clock (possibly negative) latencies.
        """
        trace_id = ticket.trace_id
        if trace_id is None:
            return None
        submit_now = self._submit_now.pop(trace_id, None)
        if submit_now is None:
            return None
        # a deferral seen on a clock ahead of the leader's seal start
        # counts as triggering at the seal start: leader_wait stays >= 0
        # and the signed batch_wait absorbs the cross-clock skew
        trigger = es.m0 if es.defer_now is None else min(es.defer_now, es.m0)
        buckets = {
            "batch_wait": trigger - submit_now,
            "leader_wait": es.m0 - trigger,
            "marker_append": es.m1 - es.m0,
            "clean_issue": es.m2 - es.m1,
            "writeback_drain": es.waited,
            "fence_stall": (durable_now - es.m2) - es.waited,
        }
        latency = durable_now - submit_now
        blame = OpBlame(
            trace_id=trace_id,
            tid=ticket.tid,
            lsn=ticket.lsn,
            epoch=es.key,
            submit_now=submit_now,
            durable_now=durable_now,
            latency=latency,
            clamped=latency < 0,
            buckets=buckets,
        )
        self.records.append(blame)
        self.latency.add(latency)
        for name, cycles in buckets.items():
            self.bucket_latency[name].add(cycles)
        self.bus.close_span(
            durable_now,
            f"op:{trace_id}",
            epoch=es.key,
            latency=latency,
            clamped=blame.clamped,
            blame=dict(buckets),
        )
        return blame

    def seal_end(self, es: _EpochState, now: int, batch_size: int) -> None:
        self.bus.cause = None
        self.bus.close_span(now, es.key, batch=batch_size)
