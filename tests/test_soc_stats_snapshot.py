"""Exact stats trees of fixed SoC runs (figures 9, 10 and 13).

Figure rows carry only cycle medians, so ``--check`` cannot see a
miscounted nack, replay or skip.  These cases run the programs the
figure workloads build — ``workloads/redundant.py`` (figure 13, naive
and Skip It), ``workloads/reread.py`` (figure 10) and the selftest's
``writeback_sweep`` point (figure 9) — and compare every counter of the
SoC they ran on (``Soc.stats_summary()``, each core's stats) plus the
engine cycle and the measured samples against ``baselines/soc_stats.json``.

Regenerate the pins after an intended model change with
``PYTHONPATH=src python -m tests.test_soc_stats_snapshot > baselines/soc_stats.json``
and explain the change.
"""

import json
from pathlib import Path

import pytest

import repro.workloads.redundant as redundant
import repro.workloads.reread as reread
import repro.workloads.sweep as sweep
from repro.bench.selftest import (
    SELFTEST_REPEATS,
    SELFTEST_SIZE_BYTES,
    SELFTEST_THREADS,
)
from repro.uarch.soc import Soc

PINS = Path(__file__).resolve().parent.parent / "baselines" / "soc_stats.json"

#: name -> (workload module, entry point name, keyword arguments)
CASES = {
    "fig13-naive": (
        redundant,
        "redundant_writeback_latency",
        dict(size_bytes=4096, threads=2, skip_it=False, repeats=1),
    ),
    "fig13-skipit": (
        redundant,
        "redundant_writeback_latency",
        dict(size_bytes=4096, threads=2, skip_it=True, repeats=1),
    ),
    "fig10-flush": (
        reread,
        "clean_vs_flush_reread",
        dict(size_bytes=4096, threads=2, clean=False, repeats=1),
    ),
    "fig9-selftest": (
        sweep,
        "writeback_sweep",
        dict(
            size_bytes=SELFTEST_SIZE_BYTES,
            threads=SELFTEST_THREADS,
            clean=False,
            repeats=SELFTEST_REPEATS,
        ),
    ),
}


def snapshot(name):
    """Run one case and return its full stats tree."""
    module, entry, kwargs = CASES[name]
    built = []

    class RecordingSoc(Soc):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    original = module.Soc
    module.Soc = RecordingSoc
    try:
        result = getattr(module, entry)(**kwargs)
    finally:
        module.Soc = original
    (soc,) = built
    return {
        "cycle": soc.engine.cycle,
        "samples": list(result.samples),
        "soc": soc.stats_summary(),
        "cores": [core.stats.as_dict() for core in soc.cores],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_tree_matches_pin(name):
    expected = json.loads(PINS.read_text())[name]
    # round-trip through JSON so int keys and tuples compare as pinned
    assert json.loads(json.dumps(snapshot(name))) == expected


if __name__ == "__main__":
    print(
        json.dumps(
            {name: snapshot(name) for name in sorted(CASES)},
            indent=1,
            sort_keys=True,
        )
    )
