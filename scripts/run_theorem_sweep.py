#!/usr/bin/env python3
"""Run the exhaustive chain sweep at paper-scale bounds and save the report.

Sweeps every admissible chain with r_1 = 0 inside the requested bounds.  In
theorem mode each tail-stable chain must satisfy the three-term inequality
at every height, the tail order r_n < r_1, and carry a verified matching
certificate per height; the run fails loudly on any violation.  Necessity
mode collects three-term violations among the non-stable chains instead.

Example:
    python scripts/run_theorem_sweep.py --n-max 7 --out results/sweep.json
"""

import argparse
import json
import sys
from pathlib import Path

from higgs_threeterm.sweep import MODE_NECESSITY, MODE_THEOREM, SweepParams, default_workers, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--max-rise", type=int, default=12)
    parser.add_argument("--bound", type=int, default=12)
    parser.add_argument("--mode", choices=(MODE_THEOREM, MODE_NECESSITY), default=MODE_THEOREM)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    try:
        workers = args.workers if args.workers is not None else default_workers()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    params = SweepParams(args.n_min, args.n_max, args.max_rise, args.bound, args.mode)
    report = run_sweep(params, workers=workers)

    totals = report["totals"]
    print(
        f"mode={args.mode} generated={totals['generated']} stable={totals['stable']} "
        f"certificates={totals['certificates']} violations={len(report['violations'])} "
        f"wall={report['timing_seconds']:.2f}s pass={report['pass']}"
    )
    for n, bucket in report["per_n"].items():
        print(f"  n={n}: generated={bucket['generated']} stable={bucket['stable']}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
