"""Redundant-writeback filters compared in §7.4 (Figure 14-16).

Every filter answers one question — *is this CBO.X redundant?* — with a
different bookkeeping cost:

* **Plain** — never filters; every requested flush reaches the hardware.
* **FliT adjacent** [73] — a persist counter next to every data word.
  Object stride doubles (data word, counter word interleaved), so every
  structure consumes twice the cache; stores pay an extra counter store,
  flush checks pay a counter load.
* **FliT hash table** [73] — counters in a separate fixed-size table; no
  object growth, but the table's lines contend for cache space (Figure 16)
  and collisions cause spurious (conservative) flushes.
* **Link-and-Persist** [23] — bit 63 of the data word itself marks
  "not yet persisted".  No extra memory, but every load must mask the bit
  (a per-access tax) and the trick is unusable for algorithms that use
  high pointer bits themselves (the BST here, as in the paper).
* **Skip It** (§6) — the hardware skip bit; no software state at all.
  The filter lives inside :meth:`repro.timing.system.TimingSystem.cbo`.

All bookkeeping traffic flows through the simulated cache hierarchy, so
its cost (extra accesses, cache pollution) is measured, not assumed.
"""

from __future__ import annotations

from typing import Optional

from repro.persist.heap import SimHeap
from repro.timing.system import ThreadCtx

_LNP_BIT = 1 << 62  # link-and-persist dirty mark (paper: the 63rd bit)


class FlushOptimizer:
    """Base class: direct pass-through behaviour, no bookkeeping.

    :class:`~repro.persist.api.PMemView` calls the timing system directly
    for an optimizer that inherits :meth:`read`, :meth:`write`,
    :meth:`cas`, :meth:`flush` or :meth:`clean` from here, so all five
    must stay pure pass-throughs.
    """

    name = "base"
    field_stride = 8  # bytes between consecutive 64-bit object fields
    supports_pointer_tagging_structures = True

    # -------------------------------------------------------- memory hooks
    def read(self, ctx: ThreadCtx, address: int) -> int:
        return ctx.load(address)

    def write(self, ctx: ThreadCtx, address: int, value: int) -> None:
        ctx.store(address, value)

    def cas(self, ctx: ThreadCtx, address: int, expected: int, new: int) -> bool:
        return ctx.cas(address, expected, new)

    def flush(self, ctx: ThreadCtx, address: int) -> None:
        ctx.flush(address)

    def clean(self, ctx: ThreadCtx, address: int) -> None:
        """Non-invalidating writeback (CBO.CLEAN) through the filter.

        The line stays resident, so a hot line (a log tail, a commit
        marker) cleaned once per epoch is exactly the redundant-writeback
        pattern the filters exist for.
        """
        ctx.clean(address)

    def clean_range(self, ctx: ThreadCtx, address: int, length: int) -> None:
        """Ranged non-invalidating writeback (CBO.RANGE.CLEAN).

        One instruction covers every line of ``[address, address+length)``.
        The base class hands the whole span to the hardware, which filters
        per line inside the sweep (with Skip It a persisted line costs a
        lookup, not a writeback).  Software filters override this to carve
        the span into contiguous sub-ranges of the lines their bookkeeping
        cannot prove persisted — the range encoding does not exempt them
        from their own bookkeeping traffic.
        """
        ctx.clean_range(address, length)

    def _clean_line_runs(self, ctx: ThreadCtx, lines) -> None:
        """Issue one ranged clean per contiguous run of line addresses."""
        line_bytes = ctx.system.params.line_bytes
        run_start = run_end = None
        for line in sorted(lines):
            if run_start is None:
                run_start = run_end = line
            elif line == run_end + line_bytes:
                run_end = line
            else:
                ctx.clean_range(run_start, run_end - run_start + line_bytes)
                run_start = run_end = line
        if run_start is not None:
            ctx.clean_range(run_start, run_end - run_start + line_bytes)

    def declare_persisted(self, system) -> None:
        """Reset bookkeeping after ``TimingSystem.persist_all`` (setup aid).

        Benchmarks declare the prefilled state persisted; filters that keep
        software dirty marks must clear them so the measurement does not
        start with a spurious flush-everything transient.  An override
        that writes ``system.persisted`` bumps ``system.persisted_version``.
        """

    # --------------------------------------------------------------- stats
    def describe(self) -> str:
        return self.name


class Plain(FlushOptimizer):
    """No filtering: every flush request is issued."""

    name = "plain"


class SkipItHardware(FlushOptimizer):
    """Defer to the hardware skip bit — software does nothing extra."""

    name = "skipit"


class Flit(FlushOptimizer):
    """FliT's counter protocol [73], shared by both counter placements.

    A store or successful CAS sets the written word's persist counter; a
    flush or clean reaches the hardware only while the counter is set,
    and then clears it.  Subclasses place the counter
    (:meth:`_counter_of`, which also records it) and filter ranged cleans.
    """

    def __init__(self) -> None:
        self._counters = set()

    def _counter_of(self, address: int) -> int:
        raise NotImplementedError

    def declare_persisted(self, system) -> None:
        for counter in self._counters:
            if system.arch.get(counter):
                system.arch[counter] = 0
            if system.persisted.get(counter):
                system.persisted[counter] = 0
                system.persisted_version += 1

    # The four hooks below call the timing system themselves rather than
    # the ThreadCtx wrappers: one frame fewer on every FliT access.
    def write(self, ctx: ThreadCtx, address: int, value: int) -> None:
        system = ctx.system
        system.store(ctx, address, value)
        system.store(ctx, self._counter_of(address), 1)

    def cas(self, ctx: ThreadCtx, address: int, expected: int, new: int) -> bool:
        system = ctx.system
        ok = system.cas(ctx, address, expected, new)
        if ok:
            system.store(ctx, self._counter_of(address), 1)
        return ok

    def flush(self, ctx: ThreadCtx, address: int) -> None:
        counter = self._counter_of(address)
        system = ctx.system
        if system.load(ctx, counter):
            system.cbo(ctx, address, True)
            system.store(ctx, counter, 0)

    def clean(self, ctx: ThreadCtx, address: int) -> None:
        counter = self._counter_of(address)
        system = ctx.system
        if system.load(ctx, counter):
            system.cbo(ctx, address, False)
            system.store(ctx, counter, 0)


class FlitAdjacent(Flit):
    """FliT with the counter placed adjacent to every data word.

    The counter of the field at address ``a`` lives at ``a + 8``; objects
    are laid out with a 16-byte stride so this slot always exists.
    """

    name = "flit-adjacent"
    field_stride = 16

    def _counter_of(self, address: int) -> int:
        counter = address + 8
        self._counters.add(counter)
        return counter

    def clean_range(self, ctx: ThreadCtx, address: int, length: int) -> None:
        # Per-field counters: a line needs the sweep iff any of its data
        # words' counters are set.  Loading each counter is real cache
        # traffic — the range encoding saves CBOs, not FliT bookkeeping.
        line_bytes = ctx.system.params.line_bytes
        lines = set()
        cleared = []
        for counter in sorted(self._counters):
            data = counter - 8
            if address <= data < address + length and ctx.load(counter):
                lines.add(data - data % line_bytes)
                cleared.append(counter)
        self._clean_line_runs(ctx, lines)
        for counter in cleared:
            ctx.store(counter, 0)


class FlitHashTable(Flit):
    """FliT with counters in a shared fixed-size table.

    ``table_entries`` is the Figure 16 sensitivity knob: a small table
    aliases heavily (spurious flushes); a large one pollutes the cache.
    """

    name = "flit-hashtable"

    def __init__(self, heap: SimHeap, table_entries: int = 1024) -> None:
        if table_entries < 1:
            raise ValueError("table must have at least one entry")
        super().__init__()
        self.table_entries = table_entries
        self.table_base = heap.alloc_region(table_entries * 8)
        self.line_bytes = heap.line_bytes

    def _counter_of(self, address: int) -> int:
        line = address // self.line_bytes
        slot = (line * 0x9E3779B97F4A7C15 >> 17) % self.table_entries
        counter = self.table_base + slot * 8
        self._counters.add(counter)
        return counter

    def clean_range(self, ctx: ThreadCtx, address: int, length: int) -> None:
        # The table hashes per line, so the ranged filter is one counter
        # load per covered line; collisions stay conservative (a stranger
        # line sharing the slot forces this line into the sweep).
        line_bytes = ctx.system.params.line_bytes
        base = address - address % line_bytes
        last = (address + length - 1) - (address + length - 1) % line_bytes
        lines = []
        cleared = []
        for line in range(base, last + line_bytes, line_bytes):
            counter = self._counter_of(line)
            if ctx.load(counter):
                lines.append(line)
                cleared.append(counter)
        self._clean_line_runs(ctx, lines)
        for counter in cleared:
            ctx.store(counter, 0)

    def describe(self) -> str:
        return f"{self.name}({self.table_entries})"


class LinkAndPersist(FlushOptimizer):
    """Dirty mark inside the data word itself [23].

    Stores set the mark for free (same store); loads pay a masking cycle;
    flushes that find the mark clear it with an extra store.  Not usable
    for structures that steal pointer bits themselves.
    """

    name = "link-and-persist"
    supports_pointer_tagging_structures = False

    def read(self, ctx: ThreadCtx, address: int) -> int:
        value = ctx.load(address)
        ctx.now += 1  # mask the mark bit out of every load
        return value & ~_LNP_BIT

    def write(self, ctx: ThreadCtx, address: int, value: int) -> None:
        ctx.store(address, value | _LNP_BIT)

    def cas(self, ctx: ThreadCtx, address: int, expected: int, new: int) -> bool:
        raw = ctx.load(address)
        ctx.now += 1
        if raw & ~_LNP_BIT != expected:
            ctx.now += 2
            return False
        return ctx.cas(address, raw, new | _LNP_BIT)

    def flush(self, ctx: ThreadCtx, address: int) -> None:
        # The data word was just read by the algorithm, so the mark test is
        # a register operation — the reason the paper finds L&P can beat
        # even Skip It on filter-dominated workloads (§7.4).
        raw = ctx.system.arch.get(address, 0)
        ctx.now += 1
        if raw & _LNP_BIT:
            ctx.flush(address)
            ctx.cas(address, raw, raw & ~_LNP_BIT)

    def clean(self, ctx: ThreadCtx, address: int) -> None:
        raw = ctx.system.arch.get(address, 0)
        ctx.now += 1
        if raw & _LNP_BIT:
            ctx.clean(address)
            ctx.cas(address, raw, raw & ~_LNP_BIT)

    def clean_range(self, ctx: ThreadCtx, address: int, length: int) -> None:
        # The mark lives in the data word, so the ranged filter is a
        # register scan of the span's words (one mask test per line) and
        # a CAS per marked word to drop the mark afterwards.  The CAS
        # re-dirties the line — same trade the per-address path makes.
        line_bytes = ctx.system.params.line_bytes
        nlines = ((address + length - 1) // line_bytes) - (address // line_bytes) + 1
        ctx.now += nlines
        marked = [
            (word, raw)
            for word, raw in ctx.system.arch.items()
            if address <= word < address + length and raw & _LNP_BIT
        ]
        self._clean_line_runs(
            ctx, {word - word % line_bytes for word, _ in marked}
        )
        for word, raw in marked:
            ctx.cas(word, raw, raw & ~_LNP_BIT)

    def declare_persisted(self, system) -> None:
        for store in (system.arch, system.persisted):
            for address, value in store.items():
                if value & _LNP_BIT:
                    store[address] = value & ~_LNP_BIT
        system.persisted_version += 1


OPTIMIZER_NAMES = (
    "plain",
    "flit-adjacent",
    "flit-hashtable",
    "link-and-persist",
    "skipit",
)


def make_optimizer(
    name: str, heap: SimHeap, table_entries: int = 1024
) -> FlushOptimizer:
    """Factory used by the benchmark harness."""
    if name == "plain":
        return Plain()
    if name == "flit-adjacent":
        return FlitAdjacent()
    if name == "flit-hashtable":
        return FlitHashTable(heap, table_entries)
    if name == "link-and-persist":
        return LinkAndPersist()
    if name == "skipit":
        return SkipItHardware()
    raise ValueError(f"unknown optimizer {name!r}; choose from {OPTIMIZER_NAMES}")
