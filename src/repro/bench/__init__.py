"""Figure-regeneration harness.

Each evaluation figure declares its sweep once, as an ordered list of
independent cells (``figNN_cells``, see :mod:`repro.bench.spec`);
``run_figNN`` simulates that list in this process and returns structured
rows, and the CLI (``python -m repro.bench --fig 9`` or the installed
``skipit-bench`` script) fans the same list over processes and prints
paper-style series.  Each figure's module declares the figure
(``FIGNN``, a :class:`~repro.bench.spec.Figure`) with the paper's shape
claims about it (:class:`~repro.bench.spec.Claim`), which the CLI and
``--report`` judge on the rows of the same run.
"""

from repro.bench.micro import (
    FIG09,
    FIG10,
    FIG11,
    FIG12,
    FIG13,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
)
from repro.bench.range import FIG21, run_fig21
from repro.bench.serve import FIG19, run_fig19
from repro.bench.shared import FIG18, run_fig18
from repro.bench.store import FIG17, run_fig17
from repro.bench.structures import FIG14, FIG15, FIG16, run_fig14, run_fig15, run_fig16
from repro.bench.txn import FIG20, run_fig20

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

__all__ = [
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_fig18",
    "run_fig19",
    "run_fig20",
    "run_fig21",
    "FIGURES",
]
