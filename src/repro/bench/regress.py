"""Perf-regression tracking: a run's snapshot vs the committed baseline.

``python -m repro.bench --check`` answers "did the numbers move at
all"; this module answers the sharper question "did they move in the
*bad* direction".  Every compared field carries a direction, declared
in its figure kind (:mod:`repro.bench.spec`) — higher throughput is
better, lower ack latency is better, fence counts lower is better, raw
workload-volume counters are neutral — and a delta beyond the tolerance
band is classified accordingly:

``regression``
    moved in the harmful direction (turns the check red);
``drift``
    a neutral field moved, so the runs are not comparable —
    also red, because a green light must mean "same work, same speed";
``improvement``
    moved in the helpful direction — reported, never red.

``python -m repro.bench.regress --baseline baselines/quick.json
--current BENCH.json`` judges a snapshot that ``python -m repro.bench
--json BENCH.json`` already wrote (with ``--with-selftest`` when the
baseline tracks simulator speed), over the figures both documents hold,
and exits non-zero on regressions, which is what CI wires in.  It
simulates nothing, so CI simulates each figure once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bench import baseline as baseline_mod
from repro.bench.spec import HIGHER, NEUTRAL

#: default band: same as --check, deliberately tight — the sims are
#: deterministic, so any delta at all is a code change speaking
DEFAULT_REL_TOL = baseline_mod.DEFAULT_REL_TOL

#: tolerance for the sim-speed selftest: wall-clock on a shared host is
#: noisy, so only a large drop (the kind a hot-path regression causes)
#: should turn the check red
SELFTEST_REL_TOL = 0.5


@dataclass
class FieldDelta:
    """One compared field that left the tolerance band."""

    figure: int
    row: str
    field: str
    baseline: float
    current: float
    rel_delta: float  # signed, relative to the baseline value
    kind: str  # "regression" | "improvement" | "drift"


@dataclass
class RegressReport:
    """Outcome of one baseline comparison."""

    baseline_path: str
    rel_tol: float
    figures: List[int] = field(default_factory=list)
    rows_compared: int = 0
    deltas: List[FieldDelta] = field(default_factory=list)
    #: structural problems (missing rows, schema mismatch); always red
    problems: List[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[FieldDelta]:
        return [d for d in self.deltas if d.kind == kind]

    @property
    def passed(self) -> bool:
        return not (
            self.problems or self.of_kind("regression") or self.of_kind("drift")
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline_path,
            "rel_tol": self.rel_tol,
            "figures": self.figures,
            "rows_compared": self.rows_compared,
            "passed": self.passed,
            "problems": list(self.problems),
            "deltas": [asdict(d) for d in self.deltas],
        }

    def format(self) -> str:
        lines = [
            f"regression check vs {self.baseline_path} "
            f"(figs {', '.join(map(str, self.figures))}; "
            f"{self.rows_compared} rows; rel_tol={self.rel_tol})"
        ]
        for problem in self.problems:
            lines.append(f"  STRUCTURAL: {problem}")
        for kind, tag in (
            ("regression", "REGRESSION"),
            ("drift", "DRIFT"),
            ("improvement", "improvement"),
        ):
            for d in self.of_kind(kind):
                lines.append(
                    f"  {tag}: fig {d.figure} {d.row}: {d.field} "
                    f"{d.baseline:g} -> {d.current:g} ({d.rel_delta:+.1%})"
                )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _classify(direction: str, rel_delta: float) -> str:
    if direction == NEUTRAL:
        return "drift"
    worse = rel_delta < 0 if direction == HIGHER else rel_delta > 0
    return "regression" if worse else "improvement"


def _delta(
    figure: int, row: str, name: str, baseline: object, current: object, direction: str
) -> FieldDelta:
    b, c = float(baseline), float(current)
    rel = (c - b) / abs(b) if b else float("inf")
    return FieldDelta(figure, row, name, b, c, rel, _classify(direction, rel))


def compare(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
    figures: Optional[Sequence[int]] = None,
    baseline_path: str = "<baseline>",
) -> RegressReport:
    """Direction-aware comparison of two baseline documents.

    Rows are matched exactly as ``--check`` matches them
    (:func:`repro.bench.baseline.compare_rows`); each drifted field is
    then classified by the direction its figure kind declares.
    """
    matched = baseline_mod.compare_rows(current, baseline, rel_tol, figures)
    report = RegressReport(
        baseline_path=baseline_path,
        rel_tol=rel_tol,
        figures=matched.figures,
        rows_compared=matched.rows_compared,
        problems=matched.problems,
    )
    for d in matched.drifts:
        if d.current is None or d.baseline is None:
            report.problems.append(
                f"fig {d.figure}: {d.row}: {d.field} present on one side only"
            )
            continue
        report.deltas.append(
            _delta(d.figure, d.row, d.field, d.baseline, d.current, d.direction)
        )
    if matched.figures:
        _compare_selftest(report, current, baseline)
    return report


def _compare_selftest(
    report: RegressReport,
    current: Mapping[str, object],
    baseline: Mapping[str, object],
) -> None:
    """Compare the sim-speed selftest sections, when the baseline has one.

    Wall-clock speed is host-noise territory, so this uses its own
    generous ``SELFTEST_REL_TOL`` band rather than the figure tolerance:
    only a drop big enough to signal a hot-path regression goes red
    (figure 0, row ``selftest`` in the report).
    """
    base_st = baseline.get("selftest")
    if base_st is None:
        return
    cur_st = current.get("selftest")
    if cur_st is None:
        report.problems.append(
            "baseline has a selftest section but the current run does not"
        )
        return
    name = "engine_cycles_per_sec"
    b = float(base_st.get(name, 0.0))
    c = float(cur_st.get(name, 0.0))
    report.rows_compared += 1
    if not baseline_mod._close(c, b, SELFTEST_REL_TOL):
        report.deltas.append(_delta(0, "selftest", name, b, c, HIGHER))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Compare a benchmark snapshot with a committed "
        "baseline and flag direction-aware perf regressions.",
    )
    parser.add_argument(
        "--baseline",
        default="baselines/quick.json",
        help="committed baseline document to compare against",
    )
    parser.add_argument(
        "--current",
        required=True,
        metavar="PATH",
        help="snapshot to judge, as written by python -m repro.bench --json",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_REL_TOL,
        metavar="REL",
        help=f"relative tolerance band (default {DEFAULT_REL_TOL})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the regression report as JSON to PATH",
    )
    args = parser.parse_args(argv)
    report = compare(
        baseline_mod.load(args.current),
        baseline_mod.load(args.baseline),
        rel_tol=args.tol,
        baseline_path=args.baseline,
    )
    print(report.format())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
