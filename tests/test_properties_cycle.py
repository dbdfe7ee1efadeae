"""Property-based tests of the cycle-level model against the §4 oracle."""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.semantics import WritebackOracle
from repro.sim.config import CacheGeometry, FlushUnitParams, SoCParams
from repro.sim.engine import SimulationDeadlock, SimulationTimeout
from repro.uarch.cpu import Core, Instr
from repro.uarch.l1 import MISS_NACKS, L1DataCache
from repro.uarch.requests import MemOp
from repro.uarch.soc import Soc

# a small pool of lines, some sharing L1 sets, to provoke interference
LINES = [0x1000 + i * 64 for i in range(4)] + [0x1000 + 64 * 64, 0x1000 + 65 * 64]


def instr_strategy(lines=LINES, cmo=False):
    """One instruction over *lines*.

    With *cmo*, the CMO-extension ops join the mix: cbo.inval, cbo.zero
    and ranged CBOs of one to three lines.  (The §4 oracle models only
    stores, clean/flush and fences, so the oracle tests leave it off.)
    """
    address = st.sampled_from(lines)
    value = st.integers(min_value=1, max_value=2**32)
    ops = [
        st.builds(Instr.store, address, value),
        st.builds(Instr.load, address),
        st.builds(Instr.clean, address),
        st.builds(Instr.flush, address),
        st.just(Instr.fence()),
    ]
    if cmo:
        ranged = st.sampled_from(
            (Instr.clean_range, Instr.flush_range, Instr.inval_range)
        )
        ops += [
            st.builds(Instr.inval, address),
            st.builds(Instr.zero, address),
            st.builds(
                lambda make, base, lines: make(base, lines * 64),
                ranged,
                address,
                st.integers(min_value=1, max_value=3),
            ),
        ]
    return st.one_of(*ops)


def oracle_for(program):
    oracle = WritebackOracle()
    for instr in program:
        if instr.op is MemOp.STORE:
            oracle.write(instr.address, instr.data)
        elif instr.op.is_cbo:
            oracle.writeback(instr.address)
        elif instr.op is MemOp.FENCE:
            oracle.fence()
    return oracle


class TestSingleCoreSemanticsProperty:
    @settings(max_examples=30, deadline=None)
    @given(program=st.lists(instr_strategy(), min_size=1, max_size=25))
    def test_fence_requirements_hold(self, program):
        """After any program, everything the §4 oracle requires persisted
        is in main memory, and loads observe coherent values."""
        soc = Soc()
        soc.run_programs([program])
        soc.drain()
        oracle = oracle_for(program)
        assert oracle.check_memory(soc.persisted_value) == []

    @settings(max_examples=30, deadline=None)
    @given(program=st.lists(instr_strategy(), min_size=1, max_size=25))
    def test_loads_read_latest_store(self, program):
        """Single-core, in-order stores: every load sees the most recent
        same-address store that precedes it in program order."""
        soc = Soc()
        soc.run_programs([program])
        latest = {}
        for index, instr in enumerate(program):
            if instr.op is MemOp.STORE:
                latest[instr.address] = instr.data
            elif instr.op is MemOp.LOAD:
                expected = latest.get(instr.address, 0)
                assert soc.cores[0].load_result(index) == expected

    @settings(max_examples=20, deadline=None)
    @given(program=st.lists(instr_strategy(), min_size=1, max_size=25))
    def test_drain_reaches_quiescence(self, program):
        soc = Soc()
        soc.run_programs([program])
        soc.drain()
        assert soc.quiescent_check()


class TestTwoCoreProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        p0=st.lists(instr_strategy(), min_size=1, max_size=15),
        p1=st.lists(instr_strategy(), min_size=1, max_size=15),
    )
    def test_no_deadlock_and_invariants(self, p0, p1):
        """Contended random programs never deadlock (watchdog would fire),
        and the hierarchy ends inclusive with an accurate directory."""
        soc = Soc()
        soc.run_programs([p0, p1])
        soc.drain()
        # inclusion
        for l1 in soc.l1s:
            for set_idx, way, entry in l1.meta.iter_valid():
                address = l1.meta.address_of(set_idx, entry)
                assert address in soc.l2.lines
        # directory accuracy + single-writer
        for address, line in soc.l2.lines.items():
            writers = 0
            for client in range(len(soc.l1s)):
                state = soc.l1s[client].line_state(address)
                assert (state is not None) == line.directory.holds(client)
                if state is not None and state[0].writable:
                    writers += 1
                    assert line.directory.owner == client
            assert writers <= 1

    @settings(max_examples=15, deadline=None)
    @given(
        p0=st.lists(instr_strategy(), min_size=1, max_size=12),
        p1=st.lists(instr_strategy(), min_size=1, max_size=12),
    )
    def test_fenced_writebacks_persist_some_store(self, p0, p1):
        """Under contention, a fenced flush persists *a* value that some
        thread actually stored (no corruption / made-up data)."""
        soc = Soc()
        soc.run_programs([p0, p1])
        soc.drain()
        stored = {}
        for program in (p0, p1):
            for instr in program:
                if instr.op is MemOp.STORE:
                    stored.setdefault(instr.address, set()).add(instr.data)
        for address in LINES:
            value = soc.persisted_value(address)
            if value != 0:
                assert value in stored.get(address, set())


# ------------------------------------------------------ parking vs polling
# A nacked STQ request is parked (``Core._retry_parked``): it is no
# fast-forward event while the L1's nack decision says nack, and its
# retries are counted in bulk.  The reference is the polling LSU —
# parking patched out, every nacked request re-fired on its cadence —
# stepped cycle by cycle.  Both must agree on everything.

#: lines of a 4-set L1 (see ``tiny_params``): 0x1000, 0x1100 and 0x1200
#: share set 0, 0x1040 and 0x1140 share set 1
TINY_LINES = [0x1000, 0x1040, 0x1080, 0x1100, 0x1140, 0x1200]

#: the stat key of every nack rule in the decision: the L1's, then the
#: flush unit's
DECISION_KEYS = {
    "cbo_nack_mshr",
    "store_nack_flush",
    *MISS_NACKS,
    "nacked_dependent",
    "nacked_full",
    "range_nacked_dependent",
    "range_nacked_full",
}


def tiny_params(
    cores=1, skip_it=True, cross=False, fshrs=1, mshrs=1, rpq=1, ways=2
):
    """A SoC small enough that every nack rule fires on a few lines."""
    return SoCParams(
        num_cores=cores,
        l1=CacheGeometry(size_bytes=4 * ways * 64, ways=ways),
        num_l1_mshrs=mshrs,
        rpq_depth=rpq,
        flush_unit=FlushUnitParams(
            num_fshrs=fshrs, flush_queue_depth=2, coalesce_cross_kind=cross
        ),
        skip_it=skip_it,
    )


@contextmanager
def polling():
    """Parking patched out: every nacked request re-fires on its cadence."""
    fire = Core._fire

    def polled(self, slot, cycle):
        fire(self, slot, cycle)
        slot.nack = None

    Core._fire = polled
    try:
        yield
    finally:
        Core._fire = fire


def run_case(params, programs, fast_forward, max_cycles=5_000_000, watchdog=None):
    """Run *programs* and return everything a run can show."""
    soc = Soc(params)
    soc.engine.fast_forward = fast_forward
    if watchdog is not None:
        soc.engine.watchdog_interval = watchdog
    try:
        result = soc.run_programs(programs, max_cycles=max_cycles)
        soc.drain()
    except SimulationDeadlock as exc:
        result = type(exc).__name__
    stats = soc.stats_summary()
    for i, core in enumerate(soc.cores):
        stats[f"core_{i}"] = core.stats.as_dict()
        # a fire that passed the nack decision is never nacked after it
        assert "cbo_nack" not in stats[f"l1_{i}"]
        assert "cbo_range_nack" not in stats[f"l1_{i}"]
    return {
        "result": result,
        "cycle": soc.engine.cycle,
        "stats": stats,
        "memory": soc.memory.snapshot(),
        "loads": [
            [slot.value for slot in core.slots] for core in soc.cores
        ],
    }


def assert_parking_matches_polling(params, programs, **kwargs):
    with polling():
        reference = run_case(params, programs, fast_forward=False, **kwargs)
        assert run_case(params, programs, fast_forward=True, **kwargs) == reference
    for fast_forward in (True, False):
        assert run_case(params, programs, fast_forward, **kwargs) == reference
    return reference


def rare(program, ways=2, mshrs=1):
    """Arguments of an explicit one-core example of the corpus below."""
    return dict(
        case=((program,), ways),
        skip_it=True,
        cross=False,
        fshrs=1,
        mshrs=mshrs,
        rpq=1,
    )


@contextmanager
def recording_decisions(seen):
    """Count every key the L1's nack decision returns."""
    decide = L1DataCache.nack_keys

    def recorded(self, *args):
        nack = decide(self, *args)
        if nack is not None:
            seen.update(key for _, key in nack)
        return nack

    L1DataCache.nack_keys = recorded
    try:
        yield
    finally:
        L1DataCache.nack_keys = decide


class TestParkingMatchesPolling:
    def test_generated_programs(self):
        """1- and 2-core programs on tiny caches: parking is invisible.

        The corpus must reach every rule of the nack decision.  It is
        derandomized, and the explicit examples pin the rarest rules, so
        the closing coverage check does not depend on what a hypothesis
        version happens to generate.
        """
        seen = Counter()

        def program(lines):
            return st.lists(
                instr_strategy(lines, cmo=True), min_size=1, max_size=24
            )

        # (programs, L1 ways)
        one_core = st.tuples(
            st.tuples(program(TINY_LINES)), st.sampled_from((1, 2))
        )
        two_cores = st.tuples(
            st.tuples(program(TINY_LINES), program(TINY_LINES)), st.just(2)
        )

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(
            case=st.one_of(one_core, two_cores),
            skip_it=st.booleans(),
            cross=st.booleans(),
            fshrs=st.integers(min_value=1, max_value=2),
            mshrs=st.integers(min_value=1, max_value=2),
            rpq=st.integers(min_value=1, max_value=2),
        )
        # a store that must evict while an FSHR mutates line state
        @example(
            **rare(
                [
                    Instr.store(0x1000, 1),
                    Instr.fence(),
                    Instr.clean(0x1000),
                    Instr.store(0x1100, 2),
                ],
                ways=1,
            )
        )
        # a store miss whose set's only way an MSHR has reserved
        @example(
            **rare([Instr.store(0x1000, 1), Instr.store(0x1100, 2)], ways=1, mshrs=2)
        )
        # per-line and ranged CBOs finding the flush queue full
        @example(**rare([Instr.clean(a) for a in TINY_LINES[:5]]))
        @example(
            **rare(
                [Instr.clean(a) for a in TINY_LINES[:3]]
                + [Instr.clean_range(0x1100, 128)]
            )
        )
        def check(case, skip_it, cross, fshrs, mshrs, rpq):
            programs, ways = case
            params = tiny_params(
                len(programs), skip_it, cross, fshrs, mshrs, rpq, ways
            )
            with recording_decisions(seen):
                assert_parking_matches_polling(params, programs)

        check()
        assert DECISION_KEYS - set(seen) == set(), seen

    def test_timeout_while_parked(self):
        """``max_cycles`` runs out while a store waits for an MSHR."""
        params = tiny_params(mshrs=1)
        programs = [[Instr.store(0x1000, 1), Instr.store(0x1040, 2)]]
        soc = Soc(params)
        with pytest.raises(SimulationTimeout):
            soc.run_programs(programs, max_cycles=60)
        assert soc.cores[0].slots[1].nack is not None  # parked at the timeout
        reference = assert_parking_matches_polling(params, programs, max_cycles=60)
        assert reference["result"] == "SimulationTimeout"
        assert reference["stats"]["core_0"]["nacks"] > 0

    def test_watchdog_while_parked(self):
        """The watchdog fires while a store waits for an MSHR."""
        params = tiny_params(mshrs=1)
        programs = [[Instr.store(0x1000, 1), Instr.store(0x1040, 2)]]
        soc = Soc(params)
        soc.engine.watchdog_interval = 20
        with pytest.raises(SimulationDeadlock) as raised:
            soc.run_programs(programs)
        assert not isinstance(raised.value, SimulationTimeout)
        assert soc.cores[0].slots[1].nack is not None  # parked at the firing
        reference = assert_parking_matches_polling(params, programs, watchdog=20)
        assert reference["result"] == "SimulationDeadlock"

    def test_parked_retry_takes_a_fire_slot(self):
        """A nacked store at the head, two eligible loads behind it.

        With one MSHR, the second store and four missing loads nack, and
        the loads' retries pile up so that two are due on the store's
        cadence cycles.  Each cadence retry of the parked store takes one
        of the two fire slots, so only one load may fire beside it.
        """
        params = tiny_params(mshrs=1)
        programs = [
            [
                Instr.store(0x1000, 1),
                Instr.store(0x1040, 2),
                Instr.load(0x1080),
                Instr.load(0x1140),
                Instr.load(0x10C0),
                Instr.load(0x1180),
            ]
        ]
        reference = assert_parking_matches_polling(params, programs)
        assert reference["stats"]["l1_0"]["mshr_full_nack"] > 0

    def test_flipped_slot_fires_on_its_cadence_cycle(self):
        """The MSHR frees between two retries of a parked store.

        The store must fire on its next cadence cycle — which the hook
        reports — not on the cycle its nack decision flipped.
        """
        params = tiny_params(mshrs=1)
        programs = [[Instr.zero(0x1000), Instr.store(0x1040, 2)]]
        assert_parking_matches_polling(params, programs)
        soc = Soc(params)
        core, l1 = soc.cores[0], soc.l1s[0]
        core.run_program(programs[0])
        parked = core.slots[1]
        flipped = fired = None
        while not core.done:
            soc.engine.step()
            cycle = soc.engine.cycle
            if fired is None and parked.req_id is not None:
                fired = cycle
            if (
                flipped is None
                and parked.nack is not None
                and l1.nack_keys(parked.op, parked.instr.address) is None
            ):
                flipped = cycle
                assert core.next_event_cycle(cycle) == parked.retry_at
        assert flipped is not None
        assert fired == parked.retry_at == flipped + 1


def test_eviction_crossing_a_probe():
    """Core 0 evicts 0x1100 from its direct-mapped L1 while core 1's
    store makes the L2 probe that line.  The crossing eviction Release
    does not answer the probe: the L2 takes it, then the ProbeAck the L1
    still sends, as in TileLink."""
    soc = Soc(tiny_params(cores=2, skip_it=False, ways=1))
    soc.run_programs(
        [[Instr.load(0x1100), Instr.load(0x1000)], [Instr.store(0x1100, 1)]]
    )
    soc.drain()
    stats = soc.l2.stats.as_dict()
    assert stats["coherence_probes"] == 1
    assert stats["releases"] == 1
    assert stats["probe_acks"] == 1
