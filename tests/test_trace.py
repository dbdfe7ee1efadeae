"""Trace-level protocol checks over the observability bus's TileLink events."""

from repro.obs import acquire_bus
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc

LINE = 0x9000


def tilelink(bus, name, address=None, channel=""):
    """The TileLink messages of type *name* the bus recorded, oldest first."""
    return [
        e
        for e in bus.events
        if e.category == "tilelink"
        and e.name == name
        and e.track.startswith(channel)
        and (address is None or e.args["address"] == address)
    ]


class TestRecorder:
    """The bus records every TileLink message the SoC sends."""

    def test_records_acquire_grant_grantack(self):
        soc = Soc()
        bus = acquire_bus(soc)
        soc.run_programs([[Instr.load(LINE)]])
        soc.drain()
        # two Acquires: L1->L2 and L2->DRAM
        assert len(tilelink(bus, "Acquire", LINE)) == 2
        assert len(tilelink(bus, "GrantData", LINE)) >= 1
        assert len(tilelink(bus, "GrantAck", LINE)) == 1

    def test_filter_by_channel(self):
        soc = Soc()
        bus = acquire_bus(soc)
        soc.run_programs([[Instr.load(LINE)]])
        soc.drain()
        l1_side = tilelink(bus, "Acquire", channel="l10.a")
        assert all(e.track == "l10.a" for e in l1_side)
        assert l1_side  # the acquire went out on core 0's A channel


class TestProtocolViaTrace:
    def test_skipped_cbo_produces_no_root_release(self):
        """The whole point of Skip It: nothing leaves the L1."""
        soc = Soc()
        soc.run_programs(
            [[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]]
        )
        soc.drain()
        bus = acquire_bus(soc)
        soc.run_programs([[Instr.clean(LINE), Instr.fence()]])
        soc.drain()
        root_releases = [
            e
            for e in tilelink(bus, "ProbeAck")
            if "FLUSH" in e.args["detail"] or "CLEAN" in e.args["detail"]
        ]
        assert root_releases == []

    def test_naive_cbo_produces_root_release(self):
        soc = Soc(Soc().params.with_skip_it(False))
        soc.run_programs(
            [[Instr.store(LINE, 1), Instr.clean(LINE), Instr.fence()]]
        )
        soc.drain()
        bus = acquire_bus(soc)
        soc.run_programs([[Instr.clean(LINE), Instr.fence()]])
        soc.drain()
        root_releases = [
            e for e in tilelink(bus, "ProbeAck") if "CLEAN" in e.args["detail"]
        ]
        assert len(root_releases) == 1

    def test_dirty_flush_carries_line_payload(self):
        soc = Soc()
        bus = acquire_bus(soc)
        soc.run_programs(
            [[Instr.store(LINE, 1), Instr.flush(LINE), Instr.fence()]]
        )
        soc.drain()
        flushes = [
            e for e in tilelink(bus, "ProbeAck") if "FLUSH" in e.args["detail"]
        ]
        assert len(flushes) == 1
        assert "data[64B]" in flushes[0].args["detail"]

    def test_every_grant_is_acknowledged(self):
        soc = Soc()
        bus = acquire_bus(soc)
        program = [Instr.store(0x9000 + i * 64, i) for i in range(10)]
        soc.run_programs([program, [Instr.load(0x9000)]])
        soc.drain()
        grants = tilelink(bus, "GrantData", channel="l1")
        acks = tilelink(bus, "GrantAck")
        assert len(grants) == len(acks)
