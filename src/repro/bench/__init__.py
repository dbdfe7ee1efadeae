"""Figure-regeneration harness.

Each evaluation figure's module declares the figure once, as ``FIGNN``
(a :class:`~repro.bench.spec.Figure`): its sweep as an ordered list of
independent cells (``FIGNN.cells(quick)``), its row kind, its title and
the paper's shape claims about it (:class:`~repro.bench.spec.Claim`).
``FIGURES[n].run(quick)`` simulates the cell list in this process and
returns structured rows; the CLI (``python -m repro.bench --fig 9`` or
the installed ``skipit-bench`` script) fans the same list over
processes, prints paper-style series and judges the claims on the rows
of the same run.
"""

from repro.bench.micro import FIG09, FIG10, FIG11, FIG12, FIG13
from repro.bench.range import FIG21
from repro.bench.serve import FIG19
from repro.bench.shared import FIG18
from repro.bench.store import FIG17
from repro.bench.structures import FIG14, FIG15, FIG16
from repro.bench.txn import FIG20

#: figure number -> its :class:`~repro.bench.spec.Figure`, declared in its
#: module: cell list, row kind (how the CLI, the report, ``--check`` and
#: ``regress`` key, draw and compare the rows), title and claims
FIGURES = {
    9: FIG09,
    10: FIG10,
    11: FIG11,
    12: FIG12,
    13: FIG13,
    14: FIG14,
    15: FIG15,
    16: FIG16,
    17: FIG17,
    18: FIG18,
    19: FIG19,
    20: FIG20,
    21: FIG21,
}

__all__ = ["FIGURES"]
