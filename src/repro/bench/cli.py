"""Benchmark CLI: ``python -m repro.bench --fig N`` / ``skipit-bench``.

Prints the rows/series of the requested evaluation figure in a
paper-style text table, then a verdict line per paper claim about it.
``--quick`` shrinks sweeps for a fast sanity pass; the defaults
regenerate the full-size figure.  ``--jobs N`` fans
the independent sweep points over a process pool (results are identical
to a serial run); ``--json`` / ``--check`` write and verify
machine-readable baselines (see :mod:`repro.bench.baseline`), and
``--report`` writes the same run as Markdown (:mod:`repro.bench.report`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench import FIGURES, baseline
from repro.bench.format import format_table
from repro.bench.spec import records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="skipit-bench",
        description="Regenerate the evaluation figures of 'Skip It: Take "
        "Control of Your Cache!' (ASPLOS 2024).",
    )
    parser.add_argument(
        "--fig",
        type=int,
        action="append",
        choices=sorted(FIGURES),
        help="figure number to regenerate (repeatable; default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps for a fast pass"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan sweep points over N worker processes (0 = all cores); "
        "results are identical to a serial run",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the rows/metrics of the selected figures to PATH "
        "as a machine-readable baseline",
    )
    parser.add_argument(
        "--check",
        metavar="PATH",
        help="compare the run against the committed baseline at PATH; "
        "exit non-zero on drift",
    )
    parser.add_argument(
        "--check-tol",
        type=float,
        default=None,
        metavar="REL",
        help=f"relative tolerance band for --check "
        f"(default: {baseline.DEFAULT_REL_TOL})",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="write a Markdown report of the selected figures to PATH",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="report simulator speed (cycles/sec) on a fixed fig-9 point "
        "and exit",
    )
    parser.add_argument(
        "--with-selftest",
        action="store_true",
        help="also sample simulator speed and record it in the --json "
        "baseline (regress compares it with a generous band)",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        from repro.bench.selftest import format_selftest, run_selftest

        print(format_selftest(run_selftest()))
        return 0
    figures = sorted(set(args.fig)) if args.fig else sorted(FIGURES)
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    from repro.bench.runner import run_figures

    runs = run_figures(figures, quick=args.quick, jobs=jobs, progress=print)
    for fig in figures:
        run = runs[fig]
        kind = FIGURES[fig].kind
        print(f"\n=== Figure {fig} ===")
        print(format_table(*kind.table(run.rows)))
        warning = kind.warning(run.rows)
        if warning:
            print(warning)
        rows = records(run.rows)
        for claim in FIGURES[fig].claims:
            verdict, measured = claim.verdict(rows)
            line = f"claim {verdict}: {claim.section} {claim.text}"
            print(f"{line}: {measured}" if measured else line)
        print(f"[figure {fig}: {run.points} points, {run.elapsed:.1f}s]")

    status = 0
    selftest = None
    if args.with_selftest:
        from repro.bench.selftest import format_selftest, run_selftest

        sample = run_selftest()
        print("\n" + format_selftest(sample))
        selftest = baseline.selftest_record(sample)
    document = baseline.snapshot(
        runs, quick=args.quick, jobs=jobs, selftest=selftest
    )
    if args.report:
        from repro.bench.report import build_report

        with open(args.report, "w") as handle:
            handle.write(build_report(runs, quick=args.quick))
        print(f"\nreport written to {args.report}")
    if args.json:
        baseline.write(args.json, document)
        print(f"\nbaseline written to {args.json}")
    if args.check:
        rel_tol = (
            args.check_tol if args.check_tol is not None else baseline.DEFAULT_REL_TOL
        )
        problems = baseline.check(
            document, baseline.load(args.check), rel_tol=rel_tol, figures=figures
        )
        if problems:
            print(f"\nBASELINE CHECK FAILED against {args.check}:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print(f"\nbaseline check passed against {args.check}")
    return status


if __name__ == "__main__":
    sys.exit(main())
