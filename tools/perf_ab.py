"""A/B the repo benchmark: this checkout against a parent revision.

Usage, from the root of a checkout::

    python3 tools/perf_ab.py --parent HEAD~1 --workload serve-write \\
        [--pairs 10] [--seconds 20] [--seed N] [--claim ops_per_s]

The parent is exported with ``git archive REV`` into a temporary
directory; the change is this checkout's working tree.  Both sides run
their own ``perfbench/run.py``.

1. Identity: each side runs once at ``--seconds 0``.  If the report's
   ``sim`` block or the ``correct`` flag differs, the script stops with
   exit status 1: a speed comparison means nothing between runs that
   simulate different things.
2. Pairs: ``--pairs`` runs per side at ``--seconds``, alternating which
   side goes first.  One Markdown row per end-to-end metric of
   ``BENCHMARK.json``: median (quartiles) per side, the ratio of the
   medians (change / parent), and the pairs the change won.
3. With ``--claim METRIC``, a verdict on that metric: the change must
   win at least nine pairs in ten, and the gap between the medians must
   be wider than the parent's interquartile range.  Exit status 1 when
   the claim is not met.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20240427
#: share of pairs a claimed metric must win (nine in ten)
CLAIM_WIN_SHARE = 0.9


def export(rev: str, into: Path) -> None:
    """Extract the committed files of *rev* into *into*."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            archive.extractall(into)


def run(root: Path, workload: str, seed: int, seconds: float) -> Tuple[dict, dict]:
    """One ``perfbench/run.py`` run in *root*: (report line, result line)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(value: float) -> str:
    """Thousands as whole numbers, smaller values to 3 significant digits."""
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:#.3g}".rstrip(".")


def summary(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{fmt(median)} ({fmt(q1)}–{fmt(q3)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--claim", help="end-to-end metric to judge")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    if args.claim is not None and args.claim not in better:
        parser.error(f"unknown metric {args.claim!r}; choose from {sorted(better)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        parent = Path(tmp)
        export(args.parent, parent)
        sides = {"parent": parent, "change": ROOT}

        identity = {}
        for side, root in sides.items():
            report, result = run(root, args.workload, args.seed, 0)
            identity[side] = (report["sim"], result["correct"])
        if identity["parent"] != identity["change"]:
            print(f"{args.workload} seed {args.seed}: the sim block or the "
                  f"correct flag differs from {args.parent}'s at --seconds 0; "
                  "no speed comparison", file=sys.stderr)
            return 1
        print(f"{args.workload} seed {args.seed}: sim block and correct flag "
              f"equal to {args.parent}'s", file=sys.stderr)

        values: Dict[str, Dict[str, List[float]]] = {
            side: {name: [] for name in better} for side in sides
        }
        failed = {side: [0, 0] for side in sides}
        shown = args.claim or next(iter(better))
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                _, result = run(sides[side], args.workload, args.seed, args.seconds)
                for name in better:
                    values[side][name].append(result["metrics"][name]["value"])
                failed[side][0] += result["failed"]
                failed[side][1] += result["attempted"]
            print(f"pair {pair + 1}/{args.pairs} {shown}: " + ", ".join(
                f"{side} {values[side][shown][-1]:.4g}" for side in sides
            ), file=sys.stderr)

    print("| workload | seed | metric | parent | change | ratio | wins |")
    print("|---|---|---|---|---|---|---|")
    wins = {}
    for name, direction in better.items():
        parent_values, change_values = values["parent"][name], values["change"][name]
        wins[name] = sum(
            (c > p) if direction == "higher" else (c < p)
            for p, c in zip(parent_values, change_values)
        )
        parent_median = statistics.median(parent_values)
        ratio = statistics.median(change_values) / parent_median if parent_median else math.nan
        print(f"| {args.workload} | {args.seed} | `{name}` | {summary(parent_values)} "
              f"| {summary(change_values)} | ×{ratio:.2f} | {wins[name]}/{args.pairs} |")
    print()
    for side, (fails, attempted) in failed.items():
        print(f"{side}: {fails} of {attempted} operations failed")

    if args.claim is None:
        return 0
    name = args.claim
    q1, parent_median, q3 = quartiles(values["parent"][name])
    change_median = statistics.median(values["change"][name])
    gap = change_median - parent_median
    if better[name] == "lower":
        gap = -gap
    needed = math.ceil(CLAIM_WIN_SHARE * args.pairs)
    met = wins[name] >= needed and gap > q3 - q1
    print(f"\nclaim `{name}`: {'met' if met else 'NOT met'}: the change won "
          f"{wins[name]}/{args.pairs} pairs (needs {needed}); the gap between "
          f"medians is {fmt(gap)} against the parent's interquartile range "
          f"{fmt(q3 - q1)}")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
