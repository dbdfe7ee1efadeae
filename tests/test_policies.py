"""Unit tests for the persistence policies and the PMemView frame."""

import random

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, Plain, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import (
    POLICY_NAMES,
    Automatic,
    Manual,
    NonPersistent,
    NVTraverse,
    make_policy,
)
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem


def view_for(policy):
    system = TimingSystem(TimingParams(num_threads=1))
    return PMemView(system.threads[0], policy, Plain()), system


class TestPolicyMatrices:
    def test_automatic_flushes_everything(self):
        p = Automatic()
        assert p.flush_on_read(False) and p.flush_on_read(True)
        assert p.flush_on_write(False) and p.flush_on_write(True)
        assert p.fence_on_op_end(False) and p.fence_on_op_end(True)

    def test_nvtraverse_flushes_critical_reads_all_writes(self):
        p = NVTraverse()
        assert not p.flush_on_read(False)
        assert p.flush_on_read(True)
        assert p.flush_on_write(False) and p.flush_on_write(True)
        assert p.fence_on_op_end(False)

    def test_manual_flushes_critical_writes_only(self):
        p = Manual()
        assert not p.flush_on_read(True)
        assert not p.flush_on_write(False)
        assert p.flush_on_write(True)
        assert p.fence_on_op_end(True) and not p.fence_on_op_end(False)

    def test_none_policy(self):
        p = NonPersistent()
        assert not p.flush_on_read(True)
        assert not p.flush_on_write(True)
        assert not p.fence_on_op_end(True)

    def test_factory(self):
        for name in ("automatic", "nvtraverse", "manual", "none"):
            assert make_policy(name).name == name
        with pytest.raises(ValueError):
            make_policy("bogus")


class TestPMemView:
    def test_automatic_read_triggers_flush(self):
        view, system = view_for(Automatic())
        view.ctx.store(0x40, 1)  # direct store: line dirty
        view.read(0x40)
        assert view.flush_requests == 1
        assert system.stats.get("cbo_issued") == 1

    def test_manual_read_never_flushes(self):
        view, system = view_for(Manual())
        view.read(0x40)
        assert view.flush_requests == 0

    def test_write_critical_flag_respected(self):
        view, system = view_for(Manual())
        view.write(0x40, 1, critical=False)
        assert view.flush_requests == 0
        view.write(0x40, 2, critical=True)
        assert view.flush_requests == 1

    def test_op_frame_fences_updates_only(self):
        view, system = view_for(Manual())
        view.op_begin()
        view.read(0x40)
        view.op_end()
        assert system.stats.get("fences") == 0
        view.op_begin()
        view.write(0x40, 1, critical=True)
        view.op_end()
        assert system.stats.get("fences") == 1

    def test_nvtraverse_critical_read_flushes(self):
        view, system = view_for(NVTraverse())
        view.ctx.store(0x40, 1)
        view.read(0x40)  # traversal read: no flush
        assert view.flush_requests == 0
        view.read(0x40, critical=True)
        assert view.flush_requests == 1
        assert system.stats.get("cbo_issued") == 1

    def test_automatic_critical_read_flushes(self):
        view, system = view_for(Automatic())
        view.ctx.store(0x40, 1)
        view.read(0x40, critical=True)
        assert view.flush_requests == 1

    def test_cas_failure_is_not_an_update(self):
        view, system = view_for(Manual())
        view.ctx.store(0x40, 5)
        view.op_begin()
        assert not view.cas(0x40, 99, 1)
        view.op_end()
        assert system.stats.get("fences") == 0

    def test_cas_failure_never_flushes_or_marks_update(self):
        # even under the most aggressive policy a failed CAS must not
        # flush (nothing changed) nor arm the op-end fence
        view, system = view_for(Automatic())
        view.ctx.store(0x40, 5)
        view.op_begin()
        assert not view.cas(0x40, 99, 1)
        assert view.flush_requests == 0
        assert not view._did_update
        assert view.read(0x40) == 5  # value untouched

    def test_clean_counts_as_flush_request(self):
        view, system = view_for(Manual())
        view.ctx.store(0x40, 5)
        view.clean(0x40)
        assert view.flush_requests == 1
        assert system.stats.get("cbo_issued") == 1

    def test_cas_success_flushes_and_fences(self):
        view, system = view_for(Manual())
        view.ctx.store(0x40, 5)
        view.op_begin()
        assert view.cas(0x40, 5, 6)
        view.op_end()
        assert view.flush_requests == 1
        assert system.stats.get("fences") == 1


class GenericView:
    """Reference view: asks the optimizer and the policy on every access.

    :class:`PMemView` works out at construction which reads and flushes
    can skip the optimizer and which read answers the policy gives; this
    is the dispatch it must reproduce.
    """

    def __init__(self, ctx, policy, optimizer):
        self.ctx, self.policy, self.optimizer = ctx, policy, optimizer
        self.did_update = False
        self.flush_requests = 0

    def read(self, address, critical=False):
        value = self.optimizer.read(self.ctx, address)
        if self.policy.flush_on_read(critical):
            self.flush(address)
        return value

    def write(self, address, value, critical=False):
        self.optimizer.write(self.ctx, address, value)
        self.did_update = True
        if self.policy.flush_on_write(critical):
            self.flush(address)

    def cas(self, address, expected, new, critical=True):
        ok = self.optimizer.cas(self.ctx, address, expected, new)
        if ok:
            self.did_update = True
            if self.policy.flush_on_write(critical):
                self.flush(address)
        return ok

    def flush(self, address):
        self.flush_requests += 1
        self.optimizer.flush(self.ctx, address)

    def clean(self, address):
        self.flush_requests += 1
        self.optimizer.clean(self.ctx, address)

    def op_begin(self):
        self.did_update = False

    def op_end(self):
        if self.policy.fence_on_op_end(self.did_update):
            self.ctx.fence()


#: the timing accesses perfbench's tracer wraps on the live system
TRACED = ("load", "store", "cas", "cbo", "fence")


def count_calls(system):
    """Shadow :data:`TRACED` on the *system* instance, as perfbench's
    ``Tracer.wrap`` does once the views exist; returns the live counts."""
    calls = dict.fromkeys(TRACED, 0)
    for name in TRACED:
        def counted(*args, _name=name, _method=getattr(system, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        setattr(system, name, counted)
    return calls


def run_mix(view_cls, optimizer_name, policy_name, seed, ops=400, traced=False):
    """One seeded access mix on a fresh 1-thread system; returns its state
    (with the :func:`count_calls` counts when *traced*)."""
    system = TimingSystem(
        TimingParams(num_threads=1, skip_it=optimizer_name == "skipit")
    )
    heap = SimHeap()
    optimizer = make_optimizer(optimizer_name, heap, table_entries=16)
    view = view_cls(system.threads[0], make_policy(policy_name), optimizer)
    calls = count_calls(system) if traced else None
    # 16-byte words, so FliT-adjacent counters never alias data; 12 lines
    words = [heap.alloc_region(64 * 12) + 16 * i for i in range(48)]
    rng = random.Random(seed)
    results = []
    for _ in range(ops):
        kind = rng.choice(
            ("read", "read", "read", "write", "cas", "flush", "clean", "frame")
        )
        address = rng.choice(words)
        critical = rng.random() < 0.5
        if kind == "read":
            results.append(view.read(address, critical=critical))
        elif kind == "write":
            view.write(address, rng.randint(1, 1 << 40), critical=critical)
        elif kind == "cas":
            current = view.read(address)
            expected = current if rng.random() < 0.7 else current + 1
            results.append(view.cas(address, expected, rng.randint(1, 1 << 40)))
        elif kind == "flush":
            view.flush(address)
        elif kind == "clean":
            view.clean(address)
        else:
            view.op_end()
            view.op_begin()
    return {
        "results": results,
        "now": system.threads[0].now,
        "stats": list(system.stats.as_dict().items()),
        "flush_requests": view.flush_requests,
        "arch": system.arch,
        "persisted": system.persisted,
        "calls": calls,
    }


class TestViewDispatch:
    """PMemView's construction-time dispatch equals asking every time."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("optimizer_name", OPTIMIZER_NAMES)
    def test_matches_generic_dispatch(self, optimizer_name, policy_name):
        for seed in range(3):
            fast = run_mix(PMemView, optimizer_name, policy_name, seed)
            generic = run_mix(GenericView, optimizer_name, policy_name, seed)
            assert fast == generic

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    @pytest.mark.parametrize("optimizer_name", OPTIMIZER_NAMES)
    def test_wrapped_system_sees_every_access(self, optimizer_name, policy_name):
        """Every view and filter access reaches the system's instance
        attributes, so a tracer that wraps them after the views are built
        counts them all."""
        fast = run_mix(PMemView, optimizer_name, policy_name, 0, traced=True)
        generic = run_mix(GenericView, optimizer_name, policy_name, 0, traced=True)
        assert fast == generic
        calls, stats = fast["calls"], dict(fast["stats"])
        assert calls["load"] == stats["loads"] > 0
        assert calls["store"] == stats["stores"] > 0
        assert calls["cas"] == stats.get("cas_successes", 0) + stats.get(
            "cas_failures", 0
        ) > 0
        assert calls["cbo"] == stats.get("cbo_issued", 0) + stats.get(
            "cbo_skipped", 0
        ) > 0
        assert calls["fence"] == stats.get("fences", 0)

    def test_counters_live_after_reset(self):
        view, system = view_for(Automatic())
        view.read(0x40)
        system.stats.reset()
        view.ctx.load(0x80)
        assert system.stats.get("loads") == 1
