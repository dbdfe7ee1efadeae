"""Cycle-level SoC microbenchmarks (Figures 9-13): one measuring loop.

Each thread works on its own disjoint region, one program per thread.
Every workload runs 1 + ``repeats`` repetitions on one SoC and discards
the first (first-touch effects); a repetition runs each phase's programs
and drains, and the last phase's cycles are the sample.

* :func:`writeback_sweep` (Figure 9, the SonicBOOM series of Figures
  11-12, the selftest): dirty the region, then flush (or clean) it line
  by line and fence once at the end, matching §7.2's "we dirty the
  cache, then each thread flushes sequentially and fences once at the
  end".  Only the writebacks and the fence are measured.
* :func:`clean_vs_flush_reread` (Figure 10): per line, write, issue the
  writeback ten times, fence, then re-read ("Write - Clean/Flush x 10 -
  Fence - Read").  A CBO.CLEAN leaves the line resident so the re-read
  hits; a CBO.FLUSH invalidates it, so the re-read refetches from memory.
* :func:`redundant_writeback_latency` (Figure 13): per line, a store,
  one necessary CBO.X and *redundant* more to the same (now persisted)
  line, with one fence per region; naive vs Skip It.  The paper runs
  CBO.FLUSH and notes CBO.CLEAN gives identical results (§7.4).  This
  reproduction runs CBO.CLEAN: a flushed line is no longer resident,
  and §6.1's filter applies only to resident lines, so the clean is the
  variant that reaches the L1-level drop (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.config import SoCParams
from repro.sim.stats import median, stdev
from repro.uarch.cpu import Instr
from repro.uarch.soc import Soc

#: Regions are spaced apart so threads never contend for lines (§7.2:
#: "non-contended lines, i.e. each thread flushes a different cache region").
REGION_STRIDE = 1 << 20
REGION_BASE = 1 << 24
#: CBO.X issued per line by figure 10's re-read loop
REREAD_CBOS = 10

#: one thread's lines: (address, the value its store writes)
Lines = Sequence[Tuple[int, int]]


@dataclass
class WritebackSweepResult:
    """Latency samples of one point."""

    samples: List[int] = field(default_factory=list)
    #: wall seconds spent inside run_programs/drain only (no SoC
    #: construction, no program building) and the total cycles the engine
    #: stepped — warmup and dirtying included — for raw-speed accounting
    engine_seconds: float = 0.0
    engine_cycles: int = 0

    @property
    def median(self) -> float:
        return median(self.samples)

    @property
    def stdev(self) -> float:
        return stdev(self.samples)


def _measure(
    params: Optional[SoCParams],
    size_bytes: int,
    threads: int,
    repeats: int,
    *phases: Callable[[Lines], List[Instr]],
) -> WritebackSweepResult:
    """Run *phases* per repetition on one SoC; sample the last phase.

    *size_bytes* is split evenly across *threads*, whole lines each; a
    phase builds one thread's program from that thread's lines.
    """
    params = (params or SoCParams()).with_cores(threads)
    soc = Soc(params)
    line = params.line_bytes
    per_thread = max(line, (size_bytes // threads) // line * line)
    regions = [
        [
            (REGION_BASE + t * REGION_STRIDE + offset, offset + 1)
            for offset in range(0, per_thread, line)
        ]
        for t in range(threads)
    ]
    result = WritebackSweepResult()
    # one discarded warmup repetition removes first-touch effects
    for rep in range(repeats + 1):
        programs = [[phase(lines) for lines in regions] for phase in phases]
        begin = time.perf_counter()
        for phase_programs in programs:
            cycles = soc.run_programs(phase_programs)
            soc.drain()
        result.engine_seconds += time.perf_counter() - begin
        if rep > 0:
            result.samples.append(cycles)
    result.engine_cycles = soc.engine.cycle
    return result


def writeback_sweep(
    size_bytes: int,
    threads: int = 1,
    clean: bool = False,
    repeats: int = 5,
    params: SoCParams = None,
) -> WritebackSweepResult:
    """Measure flushing *size_bytes* split evenly across *threads* threads."""
    make = Instr.clean if clean else Instr.flush

    def dirty(lines: Lines) -> List[Instr]:
        return [Instr.store(address, value) for address, value in lines]

    def writeback(lines: Lines) -> List[Instr]:
        return [make(address) for address, _ in lines] + [Instr.fence()]

    return _measure(params, size_bytes, threads, repeats, dirty, writeback)


def clean_vs_flush_reread(
    size_bytes: int,
    threads: int = 1,
    clean: bool = False,
    repeats: int = 3,
    params: SoCParams = None,
) -> WritebackSweepResult:
    """Measure the write/CBO.X^10/fence/read loop over *size_bytes*."""
    make = Instr.clean if clean else Instr.flush

    def reread(lines: Lines) -> List[Instr]:
        program: List[Instr] = []
        for address, value in lines:
            program.append(Instr.store(address, value))
            program.extend(make(address) for _ in range(REREAD_CBOS))
            program.append(Instr.fence())
            program.append(Instr.load(address))
        return program

    return _measure(params, size_bytes, threads, repeats, reread)


def redundant_writeback_latency(
    size_bytes: int,
    threads: int = 1,
    skip_it: bool = True,
    redundant: int = 10,
    repeats: int = 3,
    params: SoCParams = None,
) -> WritebackSweepResult:
    """Latency of store + CBO.CLEAN + *redundant* extra CBO.CLEAN per line."""

    def program(lines: Lines) -> List[Instr]:
        program: List[Instr] = []
        for address, value in lines:
            program.append(Instr.store(address, value))
            program.extend(Instr.clean(address) for _ in range(1 + redundant))
        program.append(Instr.fence())
        return program

    params = (params or SoCParams()).with_skip_it(skip_it)
    return _measure(params, size_bytes, threads, repeats, program)
