"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ds-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload's fixed rounds once untraced and once
traced and reports the per-layer metrics plus the tracing overhead
(spans are written to ``.perfbench/``).  Workloads: soc-flush, ds-read,
serve-write, crash-sweep.

Every line but the last is a human-readable report (a JSON object with
the simulated ``sim_*`` metrics, ``failed_frac``, raw seconds,
calibration times, ``nproc`` and the Python version).  The last line is
one JSON object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics`` (``name -> {"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20240427


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.trace:
        out = harness.trace(workload, args.seed, out_dir=str(Path.cwd() / ".perfbench"))
    else:
        out = harness.measure(workload, args.seed, args.seconds)
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
