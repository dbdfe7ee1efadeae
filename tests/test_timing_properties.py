"""Hypothesis properties of the timing model (with and without the L3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.persist.flushopt import _LNP_BIT, FlitAdjacent, LinkAndPersist
from repro.sim.config import CacheGeometry
from repro.tilelink.permissions import Perm
from repro.timing.params import TimingParams
from repro.timing.system import (
    InFlightWriteback,
    L1Rec,
    L2Rec,
    L3Rec,
    TimingSystem,
)
from repro.verify.mutants import TIMING_MUTANTS

LINES = [0x4000 + i * 64 for i in range(4)]

OP = st.one_of(
    st.tuples(st.just("store"), st.sampled_from(LINES), st.integers(1, 2**31)),
    st.tuples(st.just("load"), st.sampled_from(LINES), st.just(0)),
    st.tuples(st.just("clean"), st.sampled_from(LINES), st.just(0)),
    st.tuples(st.just("flush"), st.sampled_from(LINES), st.just(0)),
    st.tuples(st.just("fence"), st.just(0), st.just(0)),
)


def apply(thread, ops):
    latest = {}
    for op, address, value in ops:
        if op == "store":
            thread.store(address, value)
            latest[address] = value
        elif op == "load":
            assert thread.load(address) == latest.get(address, 0)
        elif op == "clean":
            thread.clean(address)
        elif op == "flush":
            thread.flush(address)
        else:
            thread.fence()
    return latest


def params(l3: bool, threads: int = 1) -> TimingParams:
    return TimingParams(
        num_threads=threads,
        l3=CacheGeometry(size_bytes=64 * 1024, ways=8) if l3 else None,
    )


class TestSingleThreadProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=40), l3=st.booleans())
    def test_loads_always_architecturally_correct(self, ops, l3):
        system = TimingSystem(params(l3))
        apply(system.threads[0], ops)  # asserts on every load

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=40), l3=st.booleans())
    def test_clock_strictly_monotone(self, ops, l3):
        system = TimingSystem(params(l3))
        thread = system.threads[0]
        last = 0
        actions = {
            "store": lambda a, v: thread.store(a, v),
            "load": lambda a, v: thread.load(a),
            "clean": lambda a, v: thread.clean(a),
            "flush": lambda a, v: thread.flush(a),
            "fence": lambda a, v: thread.fence(),
        }
        for op, address, value in ops:
            actions[op](address, value)
            assert thread.now >= last
            last = thread.now

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=40), l3=st.booleans())
    def test_persisted_never_exceeds_arch(self, ops, l3):
        """The persistence domain only ever holds values that were
        architecturally written at some point (no invented data)."""
        system = TimingSystem(params(l3))
        written = {}
        thread = system.threads[0]
        for op, address, value in ops:
            if op == "store":
                thread.store(address, value)
                written.setdefault(address, set()).add(value)
            elif op == "load":
                thread.load(address)
            elif op == "clean":
                thread.clean(address)
            elif op == "flush":
                thread.flush(address)
            else:
                thread.fence()
        for address, value in system.persisted.items():
            assert value in written.get(address, {0}) or value == 0

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=40))
    def test_l3_never_changes_final_persisted_state(self, ops):
        """The L3 is a performance feature: identical programs persist an
        identical image with and without it."""
        ops = ops + [("clean", line, 0) for line in LINES] + [("fence", 0, 0)]
        shallow = TimingSystem(params(l3=False))
        deep = TimingSystem(params(l3=True))
        apply(shallow.threads[0], ops)
        apply(deep.threads[0], ops)
        assert shallow.persisted == deep.persisted

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(OP, min_size=1, max_size=30))
    def test_skip_it_never_changes_persisted_requirements(self, ops):
        """Skip It is transparent: with a trailing clean+fence of every
        line, both configs persist the same final image."""
        ops = ops + [("clean", line, 0) for line in LINES] + [("fence", 0, 0)]
        base = TimingSystem(TimingParams(num_threads=1, skip_it=False))
        skip = TimingSystem(TimingParams(num_threads=1, skip_it=True))
        apply(base.threads[0], ops)
        apply(skip.threads[0], ops)
        assert base.persisted == skip.persisted
        assert skip.threads[0].now <= base.threads[0].now  # never slower


# -- the per-line index of in-flight writebacks ------------------------------

# three lines share an L1/L2 set (evictions, refills); one sits beside them
INDEX_LINES = [0x4000, 0x4040, 0x4100, 0x4200]
INDEX_WORDS = [line + word for line in INDEX_LINES for word in (0, 8)]
# kind -> weight: dirtying and cleaning dominate so writes pile up in
# flight; fences settle them; persist_all and crash are occasional
INDEX_KINDS = {
    "store": 10, "clean": 8, "flush": 4, "load": 4, "clean_range": 3,
    "flush_range": 3, "fence": 2, "await_writebacks": 1, "persist_all": 1,
    "crash": 1,
}


@st.composite
def index_op(draw):
    kind = draw(st.sampled_from([k for k, n in INDEX_KINDS.items() for _ in range(n)]))
    if kind in ("persist_all", "crash"):
        return (kind,)
    tid = draw(st.integers(0, 1))
    if kind in ("fence", "await_writebacks"):
        return (kind, tid)
    address = draw(st.sampled_from(INDEX_WORDS))
    if kind == "store":
        return (kind, tid, address, draw(st.integers(1, 99)))
    if kind.endswith("_range"):
        return (kind, tid, address, draw(st.integers(1, 4 * 64)), draw(st.booleans()))
    return (kind, tid, address)


def index_params(l3: bool) -> TimingParams:
    """Two threads on a 512 B 2-way L1 and L2, so evictions and refills
    (which settle a line's pending writes) happen every few ops."""
    return TimingParams(
        num_threads=2,
        skip_it=False,
        l1=CacheGeometry(size_bytes=512, ways=2),
        l2=CacheGeometry(size_bytes=512, ways=2),
        l3=CacheGeometry(size_bytes=1024, ways=2) if l3 else None,
    )


def scan_merge(in_flight, line):
    """Reference adopt merge: one pass over every in-flight write."""
    merged = {}
    for wb in in_flight:
        if wb.line == line:
            merged.update(wb.values)
    return merged


def index_merge(system, line):
    merged = {}
    for wb in system.in_flight_by_line.get(line, ()):
        merged.update(wb.values)
    return merged


def check_index(system):
    grouped = {}
    for wb in system.in_flight:
        grouped.setdefault(wb.line, []).append(wb)
    index = system.in_flight_by_line
    assert index.keys() == grouped.keys()
    for line, entries in grouped.items():
        assert len(index[line]) == len(entries)
        assert all(a is b for a, b in zip(index[line], entries))
    for line in INDEX_LINES:
        assert index_merge(system, line) == scan_merge(system.in_flight, line)


def run_index_op(system, op):
    kind = op[0]
    if kind in ("persist_all", "crash"):
        getattr(system, kind)()
        return
    thread = system.threads[op[1]]
    if kind.endswith("_range"):
        address, length, wait = op[2:]
        getattr(thread, kind)(address, length, wait=wait)
    else:
        getattr(thread, kind)(*op[2:])


class TestInFlightIndex:
    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(index_op(), min_size=20, max_size=60), l3=st.booleans())
    def test_index_matches_in_flight_grouped_by_line(self, ops, l3):
        system = TimingSystem(index_params(l3))
        for op in ops:
            before = list(system.in_flight)  # keeps ids unique while compared
            old = {id(wb) for wb in before}
            reference = {line: scan_merge(before, line) for line in INDEX_LINES}
            writes = dict(system.wb_lines)
            run_index_op(system, op)
            check_index(system)
            for wb in system.in_flight:
                if id(wb) in old or system.wb_lines.get(wb.line) != writes.get(wb.line):
                    continue
                # new, yet no DRAM write: adopted from what was in flight
                assert wb.values == reference[wb.line]


# -- the per-access paths against their method-call form ---------------------


class MethodCallTimingSystem(TimingSystem):
    """The per-access paths written through helper methods, ``LineCache``
    methods and ``StatCounter.inc``: the form the inlined ones must
    reproduce, step for step.

    ``load``, ``store``, ``cbo`` and ``_fill`` call ``LineCache`` methods;
    the memory fill goes through ``_fill_cost``, ``_l2_fetch`` and
    ``_persisted_line``; the L1 victim through ``_l1_evict``; the L2
    victim through ``LineCache.get``/``remove`` and ``StatCounter.inc``;
    an issued CBO through ``_issue_async`` and ``_record_wb`` (which
    copies its payload).  Those helpers live only here.
    """

    def _settle_line(self, line):
        pending = self.in_flight_by_line.pop(line, None)
        if pending is None:
            return
        for wb in pending:
            self.persisted.update(wb.values)
        self.persisted_version += 1
        self.in_flight = [wb for wb in self.in_flight if wb.line != line]

    def _persisted_line(self, line):
        # a DRAM fetch is ordered after any pending write of the same line
        self._settle_line(line)
        return {
            w: self.persisted[w] for w in self._words_of(line) if w in self.persisted
        }

    def _fill_cost(self, line):
        if self.l3 is not None and line in self.l3:
            return self.params.l3_hit
        return self.params.mem_access

    def _l2_fetch(self, line):
        l3rec = self.l3.remove(line) if self.l3 is not None else None
        if l3rec is not None:
            rec = L2Rec(dirty=l3rec.dirty, values=dict(l3rec.values))
            self.stats.inc("l3_hits")
        else:
            rec = L2Rec(dirty=False, values=self._persisted_line(line))
        evicted = self.l2.put(line, rec)
        if evicted is not None:
            self._l2_evict(*evicted)
        return rec

    def _count_wb(self, line):
        self.wb_lines[line] = self.wb_lines.get(line, 0) + 1

    def _l2_evict(self, line, rec):
        for tid in list(rec.directory.sharers):
            l1rec = self.l1s[tid].get(line)
            if l1rec is not None:
                if l1rec.dirty:
                    rec.values.update(self._arch_line(line))
                    rec.dirty = True
                self.l1s[tid].remove(line)
        if self.l3 is not None:
            spilled = self.l3.put(line, L3Rec(dirty=rec.dirty, values=rec.values))
            if spilled is not None:
                victim_line, victim = spilled
                if victim.dirty:
                    self.persisted.update(victim.values)
                    self.persisted_version += 1
                    self._count_wb(victim_line)
                    self.stats.inc("l3_evict_writebacks")
            self.stats.inc("l2_evict_to_l3")
        elif rec.dirty:
            self.persisted.update(rec.values)
            self.persisted_version += 1
            self._count_wb(line)
            self.stats.inc("l2_evict_writebacks")
        else:
            self.stats.inc("l2_evict_drops")

    def _issue_async(self, ctx, latency):
        start = ctx.now
        if len(ctx.outstanding) >= self.params.num_fshrs:
            start = max(start, ctx.outstanding.popleft())
        done = start + latency
        ctx.outstanding.append(done)
        return done

    def _record_wb(self, ctx, line, values, done):
        wb = InFlightWriteback(tid=ctx.tid, done=done, line=line, values=dict(values))
        self.in_flight.append(wb)
        self.in_flight_by_line.setdefault(line, []).append(wb)
        self._count_wb(line)

    def _record_or_adopt(self, ctx, line, payload, completion):
        if payload:
            self._record_wb(ctx, line, payload, done=completion)
            return
        pending = self.in_flight_by_line.get(line)
        if pending is None:
            return
        merged = {}
        for wb in pending:
            merged.update(wb.values)
        if merged:
            adopted = InFlightWriteback(
                tid=ctx.tid, done=completion, line=line, values=merged
            )
            self.in_flight.append(adopted)
            pending.append(adopted)

    def _fill(self, ctx, line, want_write):
        rec = self.l2.lookup(line)
        if rec is None:
            cost = self._fill_cost(line)
            rec = self._l2_fetch(line)
            self.stats.inc("mem_fills")
        else:
            cost = self.params.l2_hit
            self.stats.inc("l2_hits")
        if want_write:
            if self._merge_owner_dirty(line, rec, keep_owner=False):
                cost += self.params.probe_extra
            self._revoke_sharers(line, rec, keep=ctx.tid)
            perm = Perm.TRUNK
        else:
            if self._merge_owner_dirty(line, rec, keep_owner=True):
                cost += self.params.probe_extra
            perm = Perm.TRUNK if rec.directory.idle else Perm.BRANCH
        skip = self.params.skip_it and (
            not rec.dirty or "skip_dirty_grant" in self.mutants
        )
        l1rec = L1Rec(perm=perm, dirty=want_write, skip=skip and not want_write)
        evicted = self.l1s[ctx.tid].put(line, l1rec)
        if evicted is not None:
            self._l1_evict(ctx.tid, *evicted)
            cost += 5
        rec.directory.grant(ctx.tid, perm)
        return cost

    def _l1_evict(self, tid, line, l1rec):
        rec = self.l2.get(line)
        if rec is None:
            raise RuntimeError("L1 line absent from inclusive L2")
        if l1rec.dirty:
            rec.values.update(self._arch_line(line))
            rec.dirty = True
            self.stats.inc("l1_evict_writebacks")
        rec.directory.downgrade(tid, Perm.NONE)

    def load(self, ctx, address):
        line = address - address % self._line_bytes
        self.stats.inc("loads")
        if self.l1s[ctx.tid].lookup(line) is not None:
            ctx.now += self.params.l1_hit
            self.stats.inc("l1_hits")
        else:
            ctx.now += self._fill(ctx, line, want_write=False)
            self.stats.inc("l1_misses")
        return self.arch.get(address, 0)

    def store(self, ctx, address, value):
        line = address - address % self._line_bytes
        self.stats.inc("stores")
        l1 = self.l1s[ctx.tid]
        l1rec = l1.get(line)
        if l1rec is not None and l1rec.perm is Perm.TRUNK:
            l1.touch(line)
            ctx.now += self.params.l1_hit
            self.stats.inc("l1_hits")
        elif l1rec is not None:  # upgrade BRANCH -> TRUNK, LRU order kept
            rec = self.l2.get(line)
            assert rec is not None
            self._revoke_sharers(line, rec, keep=ctx.tid)
            rec.directory.downgrade(ctx.tid, Perm.NONE)
            rec.directory.grant(ctx.tid, Perm.TRUNK)
            l1rec.perm = Perm.TRUNK
            ctx.now += self.params.upgrade
            self.stats.inc("upgrades")
        else:
            ctx.now += self._fill(ctx, line, want_write=True)
            self.stats.inc("l1_misses")
            l1rec = l1.get(line)
            assert l1rec is not None
        l1rec.dirty = True
        if "store_keeps_skip" not in self.mutants:
            l1rec.skip = False
        self.arch[address] = value
        self._line_words.setdefault(line, set()).add(address)

    def cbo(self, ctx, address, invalidate):
        line = address - address % self._line_bytes
        l1rec = self.l1s[ctx.tid].get(line)
        if (
            self.params.skip_it
            and l1rec is not None
            and not l1rec.dirty
            and l1rec.skip
        ):
            ctx.now += self.params.cbo_skip
            self.stats.inc("cbo_skipped")
            return
        ctx.now += self.params.cbo_issue
        self.stats.inc("cbo_issued")
        latency, payload = self._cbo_line(ctx, line, l1rec, invalidate)
        completion = self._issue_async(ctx, latency)
        self._record_or_adopt(ctx, line, payload, completion)


# L1 2 sets, L2 4 sets, both 2-way: lines k = 0, 4, 8, 12 share L2 set 0
# and every even k shares L1 set 0, so evictions, refills, upgrades and
# probes of the other thread's copy all happen within a few ops
PATH_LINES = [0x8000 + 64 * k for k in (0, 1, 2, 3, 4, 8, 12)]
PATH_WORDS = [line + word for line in PATH_LINES for word in (0, 8)]
PATH_KINDS = {
    "load": 8, "store": 8, "cas": 3, "clean": 4, "flush": 3, "fence": 2,
    "clean_range": 1, "flush_range": 1, "crash": 1, "persist_all": 1,
}


@st.composite
def path_op(draw):
    kind = draw(st.sampled_from([k for k, n in PATH_KINDS.items() for _ in range(n)]))
    if kind in ("crash", "persist_all"):
        return (kind,)
    tid = draw(st.integers(0, 1))
    if kind == "fence":
        return (kind, tid)
    address = draw(st.sampled_from(PATH_WORDS))
    if kind == "store":
        return (kind, tid, address, draw(st.integers(1, 99)))
    if kind == "cas":
        return (kind, tid, address, draw(st.integers(0, 3)), draw(st.integers(1, 99)))
    if kind.endswith("_range"):
        return (kind, tid, address, draw(st.integers(1, 3 * 64)))
    return (kind, tid, address)


def path_params(l3, skip_it):
    # two FSHRs per thread, so issued CBOs often wait for a free one
    return TimingParams(
        num_threads=2,
        skip_it=skip_it,
        num_fshrs=2,
        l1=CacheGeometry(size_bytes=256, ways=2),
        l2=CacheGeometry(size_bytes=512, ways=2),
        l3=CacheGeometry(size_bytes=512, ways=2) if l3 else None,
    )


def run_path_op(system, op):
    kind = op[0]
    if kind in ("crash", "persist_all"):
        return getattr(system, kind)()
    thread = system.threads[op[1]]
    if kind == "cas":
        address, expected, new = op[2:]
        current = system.arch.get(address, 0)
        return thread.cas(address, current if expected else current + 1, new)
    return getattr(thread, kind)(*op[2:])


def model_state(system):
    """Everything an access can change, caches in LRU order."""
    def lines(cache, fields):
        return [(line, fields(rec)) for line, rec in cache.items()]

    return {
        "clocks": [(t.now, list(t.outstanding), t.last_fence_waited)
                   for t in system.threads],
        "stats": list(system.stats.as_dict().items()),
        "arch": system.arch,
        "persisted": system.persisted,
        "persisted_version": system.persisted_version,
        "in_flight": [(wb.tid, wb.done, wb.line, wb.values)
                      for wb in system.in_flight],
        "l1s": [lines(l1, lambda r: (r.perm, r.dirty, r.skip))
                for l1 in system.l1s],
        "l2": lines(system.l2, lambda r: (
            r.dirty, sorted(r.directory.sharers), r.directory.owner, r.values)),
        "l3": None if system.l3 is None
        else lines(system.l3, lambda r: (r.dirty, r.values)),
        "wb_lines": system.wb_lines,
    }


class TestAccessPathsMatchMethodCallForm:
    @pytest.mark.parametrize("mutant", [None, *TIMING_MUTANTS])
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(path_op(), min_size=10, max_size=60),
        l3=st.booleans(),
        skip_it=st.booleans(),
    )
    def test_same_state_after_every_op(self, mutant, ops, l3, skip_it):
        fast = TimingSystem(path_params(l3, skip_it))
        reference = MethodCallTimingSystem(path_params(l3, skip_it))
        if mutant is not None:
            fast.mutants.add(mutant)
            reference.mutants.add(mutant)
        for op in ops:
            assert run_path_op(fast, op) == run_path_op(reference, op), op
            assert model_state(fast) == model_state(reference), op


# -- crash images from the per-line index ------------------------------------


def arrival_order_image(system, at=None):
    """``persisted_image`` as one pass over ``in_flight`` in arrival order,
    with a per-line landing horizon: the form the per-line walk replaces."""
    image = dict(system.persisted)
    horizon = {}
    for wb in system.in_flight:
        effective = max(wb.done, horizon.get(wb.line, wb.done))
        horizon[wb.line] = effective
        deadline = at if at is not None else system.threads[wb.tid].now
        if effective <= deadline:
            image.update(wb.values)
    return image


class TestPersistedImageMatchesArrivalOrder:
    @pytest.mark.parametrize("mutant", [None, *TIMING_MUTANTS])
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(path_op(), min_size=10, max_size=60),
        l3=st.booleans(),
        skip_it=st.booleans(),
    )
    def test_same_image_at_every_landing_time(self, mutant, ops, l3, skip_it):
        system = TimingSystem(path_params(l3, skip_it))
        if mutant is not None:
            system.mutants.add(mutant)
        for op in ops:
            run_path_op(system, op)
            dones = {wb.done for wb in system.in_flight}
            for at in [None, *sorted(dones | {done - 1 for done in dones})]:
                assert system.persisted_image(at) == arrival_order_image(
                    system, at
                ), (op, at)


# -- the persistence-domain version and the sweep's landed words -------------

VERSION_KINDS = {
    "store": 8, "cas": 3, "clean": 4, "flush": 3, "clean_range": 2,
    "flush_range": 1, "fence": 2, "await_writebacks": 1, "crash": 2,
    "persist_all": 1, "declare_flit": 1, "declare_lnp": 1,
}


@st.composite
def version_op(draw):
    kind = draw(st.sampled_from([k for k, n in VERSION_KINDS.items() for _ in range(n)]))
    if kind == "crash":
        # now, or at the last in-flight completion (every write lands)
        return (kind, draw(st.booleans()))
    if kind in ("persist_all", "declare_flit", "declare_lnp"):
        return (kind,)
    tid = draw(st.integers(0, 1))
    if kind in ("fence", "await_writebacks"):
        return (kind, tid)
    address = draw(st.sampled_from(PATH_WORDS))
    if kind == "store":
        # some values carry link-and-persist's mark, for its declare to clear
        mark = draw(st.sampled_from((0, _LNP_BIT)))
        return (kind, tid, address, draw(st.integers(1, 99)) | mark)
    if kind == "cas":
        return (kind, tid, address, draw(st.integers(0, 3)), draw(st.integers(1, 99)))
    if kind.endswith("_range"):
        return (kind, tid, address, draw(st.integers(1, 3 * 64)), draw(st.booleans()))
    return (kind, tid, address)


def version_params(l3, skip_it):
    # L2 and L3 of two sets each: five PATH lines (k = 0, 2, 4, 8, 12)
    # share set 0, where L2 and a one-way L3 hold three, so the victim L3
    # spills dirty lines to memory
    return TimingParams(
        num_threads=2,
        skip_it=skip_it,
        num_fshrs=2,
        l1=CacheGeometry(size_bytes=256, ways=2),
        l2=CacheGeometry(size_bytes=256, ways=2),
        l3=CacheGeometry(size_bytes=128, ways=1) if l3 else None,
    )


def run_version_op(system, op, flit):
    kind = op[0]
    if kind == "crash":
        dones = [wb.done for wb in system.in_flight]
        system.crash(max(dones) if op[1] and dones else None)
    elif kind == "declare_flit":
        flit.declare_persisted(system)
    elif kind == "declare_lnp":
        LinkAndPersist().declare_persisted(system)
    elif kind == "cas":
        run_path_op(system, op)
    else:
        run_index_op(system, op)


class TestPersistedVersion:
    """Every write to ``persisted`` bumps ``persisted_version`` (the crash
    sweep reuses an outcome while it holds), and ``landed_words`` plus
    ``persisted`` is ``persisted_image`` at every crash point it names.
    Lines with pending writes are evicted and refilled within a few ops,
    with and without the victim L3."""

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(version_op(), min_size=30, max_size=80),
        l3=st.booleans(),
        skip_it=st.booleans(),
    )
    def test_version_and_landed_words(self, ops, l3, skip_it):
        system = TimingSystem(version_params(l3, skip_it))
        flit = FlitAdjacent()
        for line in PATH_LINES:
            flit._counter_of(line)  # a counter at line + 8, a PATH word
        for op in ops:
            version, persisted = system.persisted_version, dict(system.persisted)
            run_version_op(system, op, flit)
            if system.persisted_version == version:
                assert system.persisted == persisted, op
            points = list(system.landed_words(window=True))
            dones = sorted({wb.done for wb in system.in_flight})
            assert [at for at, _ in points] == [None, *dones]
            assert list(system.landed_words()) == points[:1]
            for at, words in points:
                assert all(system.persisted.get(w) != v for w, v in words.items())
                image = {**system.persisted, **words}
                assert image == system.persisted_image(at), (op, at)
