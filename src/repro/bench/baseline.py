"""Machine-readable benchmark baselines: ``--json`` snapshots, ``--check``.

``python -m repro.bench --json BENCH.json`` serialises every row of
the selected figures (plus the runs' registry-metric snapshots and
wall-clock) to a versioned JSON document.  A committed snapshot then acts
as a regression baseline: ``--check PATH`` re-keys the current rows
against it and fails on missing/extra rows or numeric drift beyond a
relative tolerance band.  The simulations are deterministic (pure Python,
fixed seeds), so on unchanged code ``--check`` passes exactly; the
tolerance only absorbs deliberate small parameter adjustments.

Wall-clock fields are recorded for the record but never compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench import FIGURES
from repro.bench.spec import records

SCHEMA_VERSION = 1

#: default relative tolerance band for --check
DEFAULT_REL_TOL = 0.02


def selftest_record(result: "SelftestResult") -> Dict[str, object]:  # noqa: F821
    """Serialise a sim-speed selftest sample for the baseline document.

    The record rides along as an additive top-level ``selftest`` key:
    ``check`` ignores it entirely (wall-clock is host-specific), while
    :mod:`repro.bench.regress` compares ``engine_cycles_per_sec`` with
    its own generous band to flag simulator slowdowns.
    """
    return {
        "size_bytes": result.size_bytes,
        "threads": result.threads,
        "repeats": result.repeats,
        "median_cycles": result.median_cycles,
        "engine_cycles": result.engine_cycles,
        "engine_seconds": round(result.engine_seconds, 3),
        "engine_cycles_per_sec": round(result.engine_cycles_per_sec, 1),
        "wall_seconds": round(result.wall_seconds, 3),
        "cycles_per_sec": round(result.cycles_per_sec, 1),
    }


def snapshot(
    runs: Mapping[int, "FigureRun"],  # noqa: F821 - repro.bench.runner.FigureRun
    quick: bool,
    jobs: int,
    selftest: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Serialise figure runs into the baseline document structure."""
    figures: Dict[str, object] = {}
    for figure, run in sorted(runs.items()):
        figures[str(figure)] = {
            "points": run.points,
            "elapsed_seconds": round(run.elapsed, 3),
            "rows": records(run.rows),
        }
    document: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "benchmark": "skipit-bench",
        "quick": quick,
        "jobs": jobs,
        "figures": figures,
    }
    if selftest is not None:
        document["selftest"] = dict(selftest)
    return document


def write(path: str, document: Mapping[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def _close(current: object, expected: object, rel_tol: float) -> bool:
    if current is None or expected is None:
        return current is None and expected is None
    a, b = float(current), float(expected)
    return abs(a - b) <= rel_tol * max(abs(a), abs(b)) + 1e-9


@dataclass
class Drift:
    """One compared field of one matched row that left the tolerance band."""

    figure: int
    row: str
    field: str
    current: object
    baseline: object
    direction: str  # the field's spec direction: higher | lower | neutral


@dataclass
class Comparison:
    """The row matcher's result, shared by ``check`` and ``regress``."""

    figures: List[int] = field(default_factory=list)
    rows_compared: int = 0
    #: structural problems: schema/mode mismatch, missing or extra rows
    problems: List[str] = field(default_factory=list)
    drifts: List[Drift] = field(default_factory=list)


def compare_rows(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    rel_tol: float,
    figures: Optional[Sequence[int]] = None,
) -> Comparison:
    """Match *current*'s rows to *baseline*'s by key; collect every drift.

    Only figures present in both documents (and in *figures*, when
    given) are compared, so a partial run checks just its own slice.
    Rows are keyed by their figure kind's ``key`` template, and each of
    the kind's value fields outside the *rel_tol* band is one
    :class:`Drift`; wall-clock fields are never compared.
    """
    result = Comparison()
    if baseline.get("schema") != SCHEMA_VERSION:
        result.problems.append(
            f"schema mismatch: baseline {baseline.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
        return result
    if bool(baseline.get("quick")) != bool(current.get("quick")):
        result.problems.append(
            f"mode mismatch: baseline quick={baseline.get('quick')}, "
            f"current quick={current.get('quick')}"
        )
        return result
    current_figs = current.get("figures", {})
    baseline_figs = baseline.get("figures", {})
    shared = sorted(set(current_figs) & set(baseline_figs), key=int)
    if figures is not None:
        wanted = {str(f) for f in figures}
        shared = [f for f in shared if f in wanted]
    if not shared:
        result.problems.append("no common figures between current run and baseline")
        return result
    result.figures = [int(f) for f in shared]
    for fig in shared:
        kind = FIGURES[int(fig)].kind
        cur_rows = {kind.key.format(**r): r for r in current_figs[fig]["rows"]}
        base_rows = {kind.key.format(**r): r for r in baseline_figs[fig]["rows"]}
        for key in sorted(base_rows.keys() - cur_rows.keys()):
            result.problems.append(f"fig {fig}: row missing from current run: {key}")
        for key in sorted(cur_rows.keys() - base_rows.keys()):
            result.problems.append(f"fig {fig}: row not in baseline: {key}")
        for key in sorted(cur_rows.keys() & base_rows.keys()):
            cur, base = cur_rows[key], base_rows[key]
            result.rows_compared += 1
            for name, direction in kind.values.items():
                c, b = cur.get(name), base.get(name)
                if not _close(c, b, rel_tol):
                    result.drifts.append(Drift(int(fig), key, name, c, b, direction))
    return result


def check(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
    figures: Optional[Sequence[int]] = None,
) -> List[str]:
    """Compare *current* against *baseline*; return mismatch descriptions.

    Every out-of-band field counts, whichever way it moved.  The
    ``selftest`` section is deliberately ignored here — it is wall-clock
    and host-specific; :mod:`repro.bench.regress` owns that comparison.
    An empty return value means the check passed.
    """
    result = compare_rows(current, baseline, rel_tol, figures)
    return result.problems + [
        f"fig {d.figure}: {d.row}: {d.field} drifted: current {d.current!r} "
        f"vs baseline {d.baseline!r} (rel_tol={rel_tol})"
        for d in result.drifts
    ]
