"""SoC assembly: N BOOM-style cores, private L1s, shared inclusive L2, DRAM.

Mirrors the paper's experimental platform (§7.1): a dual-core SonicBOOM
with 32 KiB L1s and a shared 512 KiB inclusive L2.  ``Soc.run_programs``
is the top-level entry for the cycle-level experiments: it loads one
instruction list per core, runs the engine until every core commits its
last instruction, and returns the elapsed cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.mem.dram import DramModel
from repro.mem.memory import MainMemory
from repro.sim.config import DEFAULT_SOC, SoCParams
from repro.sim.engine import Engine
from repro.tilelink.channel import BeatChannel
from repro.uarch.cpu import Core, Instr
from repro.uarch.l1 import L1DataCache
from repro.uarch.l2 import ClientLink, InclusiveL2Cache


class Soc:
    """A complete simulated system."""

    def __init__(self, params: SoCParams = DEFAULT_SOC) -> None:
        self.params = params
        self.engine = Engine()
        self.memory = MainMemory(line_bytes=params.line_bytes)
        self.dram = DramModel(
            self.engine,
            self.memory,
            latency=params.latencies.dram_latency,
            bus_bytes=params.latencies.dram_bus_bytes,
        )
        self.l2 = InclusiveL2Cache(self.engine, params, self.dram)
        self.l1s: List[L1DataCache] = []
        self.cores: List[Core] = []
        bus = params.latencies.bus_bytes
        for core_id in range(params.num_cores):
            l1 = L1DataCache(self.engine, core_id, params)
            link = ClientLink(
                a=BeatChannel(f"l1{core_id}.a", bus),
                b=BeatChannel(f"l1{core_id}.b", bus),
                c=BeatChannel(f"l1{core_id}.c", bus),
                d=BeatChannel(f"l1{core_id}.d", bus),
                e=BeatChannel(f"l1{core_id}.e", bus),
            )
            l1.connect(link.a, link.b, link.c, link.d, link.e)
            self.l2.add_client(link)
            core = Core(self.engine, core_id, l1, params)
            self.l1s.append(l1)
            self.cores.append(core)
        # Deadlock diagnostics are always on: the provider reads live
        # component state only when the watchdog actually fires, so it
        # costs nothing per cycle and needs no observability bus.
        self.engine.add_diagnostics("soc", self._diagnostics)

    def _diagnostics(self) -> Dict[str, object]:
        """Structured dump of everything in flight (deadlock reports)."""
        report: Dict[str, object] = {}
        for i, (core, l1) in enumerate(zip(self.cores, self.l1s)):
            fu = l1.flush_unit
            report[f"core{i}"] = {
                "program_head": core.head,
                "program_len": len(core.slots),
                "flush_queue": {
                    "occupancy": len(fu.queue),
                    "depth": fu.queue.depth,
                    "entries": [
                        {
                            "address": hex(e.address),
                            "kind": e.kind.value,
                            "hit": e.is_hit,
                            "dirty": e.is_dirty,
                        }
                        for e in fu.queue.entries
                    ],
                },
                "flush_counter": fu.flush_counter,
                "fshrs": [
                    {
                        "index": f.index,
                        "state": f.state.value,
                        "address": hex(f.address) if f.address is not None else None,
                    }
                    for f in fu.fshrs
                    if f.busy
                ],
                "mshrs": [
                    {
                        "index": m.index,
                        "state": m.state.value,
                        "address": hex(m.address) if m.busy else None,
                    }
                    for m in l1.mshrs
                    if m.busy
                ],
                "wbu_busy_address": (
                    hex(l1.wbu.busy_address)
                    if l1.wbu.busy_address is not None
                    else None
                ),
                "probe_busy": not l1.probe_unit.probe_rdy,
                "channels": {
                    name: len(chan)
                    for name, chan in (
                        ("a", l1.chan_a),
                        ("b", l1.chan_b),
                        ("c", l1.chan_c),
                        ("d", l1.chan_d),
                        ("e", l1.chan_e),
                    )
                    if chan is not None
                },
            }
        report["l2"] = {
            "mshrs": [
                {
                    "kind": m.kind.value,
                    "state": m.state.value,
                    "address": hex(m.address),
                    "client": m.client,
                    "awaiting_acks": sorted(m.awaiting_acks),
                }
                for m in self.l2.mshrs
                if m is not None
            ],
            "list_buffer_occupancy": len(self.l2.list_buffer),
            "ingress_occupancy": len(self.l2._ingress),
        }
        report["dram_busy"] = self.dram.busy
        return report

    # ------------------------------------------------------------- running
    def run_programs(
        self,
        programs: Sequence[List[Instr]],
        max_cycles: Optional[int] = 5_000_000,
    ) -> int:
        """Run one program per core to completion; return elapsed cycles."""
        if len(programs) > len(self.cores):
            raise ValueError(
                f"{len(programs)} programs for {len(self.cores)} cores"
            )
        for core, program in zip(self.cores, programs):
            core.run_program(program)
        start = self.engine.cycle
        cores = self.cores

        def all_done() -> bool:
            # runs every stepped cycle: a plain loop, no generator and no
            # `Core.done` property call per core
            for core in cores:
                if core.head < len(core.slots):
                    return False
            return True

        self.engine.run_until(all_done, max_cycles=max_cycles)
        return self.engine.cycle - start

    def drain(self, max_cycles: int = 200_000) -> None:
        """Run until every cache/DRAM transaction settles (for checkers)."""
        self.engine.run_until(self.quiescent_check, max_cycles=max_cycles)

    def quiescent_check(self) -> bool:
        return (
            all(l1.quiescent for l1 in self.l1s)
            and self.l2.quiescent
            and not self.dram.busy
        )

    # ------------------------------------------------------------- queries
    def stats_summary(self) -> Dict[str, Dict[str, int]]:
        summary: Dict[str, Dict[str, int]] = {"l2": self.l2.stats.as_dict()}
        for i, l1 in enumerate(self.l1s):
            summary[f"l1_{i}"] = l1.stats.as_dict()
            summary[f"flush_unit_{i}"] = l1.flush_unit.stats.as_dict()
        return summary

    def coherent_value(self, address: int) -> int:
        """Architecturally current 64-bit value at *address* (test oracle).

        Priority: a TRUNK L1 copy, else the L2 copy, else memory.
        """
        line = self.params.l1.line_address(address)
        offset = address - line
        for l1 in self.l1s:
            hit = l1.meta.lookup(line)
            if hit is not None and hit[1].perm.writable:
                set_idx = l1.geometry.set_index(line)
                return l1.data.read_word(set_idx, hit[0], offset)
        l2_line = self.l2.lines.get(line)
        if l2_line is not None:
            return int.from_bytes(l2_line.data[offset : offset + 8], "little")
        return int.from_bytes(
            self.memory.peek_line(line)[offset : offset + 8], "little"
        )

    def persisted_value(self, address: int) -> int:
        """64-bit value currently in main memory (the persistence domain)."""
        line = self.params.l1.line_address(address)
        offset = address - line
        return int.from_bytes(
            self.memory.peek_line(line)[offset : offset + 8], "little"
        )
