"""Cycle-level simulation kernel.

The kernel is deliberately small: components register with an
:class:`~repro.sim.engine.Engine` and are ticked once per simulated cycle.
They exchange messages over beat-accurate TileLink channels
(:mod:`repro.tilelink.channel`), so link occupancy and back-pressure are
explicit, as they are in the RTL the paper modifies.
"""

from repro.sim.engine import Engine, SimulationDeadlock
from repro.sim.stats import Histogram, StatCounter, median, stdev

__all__ = [
    "Engine",
    "SimulationDeadlock",
    "StatCounter",
    "Histogram",
    "median",
    "stdev",
]
