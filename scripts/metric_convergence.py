#!/usr/bin/env python3
"""Step-size study of the harmonic-equation residual.

Evaluates the nested finite-difference residual of the explicit equivariant
metric across a range of steps h and prints the empirical convergence order
between consecutive steps (central differences should give order 2 until
roundoff takes over below h ~ 1e-4).

Example:
    python scripts/metric_convergence.py --tau 0.3+1.2i --csv results/orders.csv
"""

import argparse
import csv
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from higgs_threeterm.harmonic import UpperHalfPoint, harmonic_residual


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tau", default="0.3+1.2i")
    parser.add_argument("--steps", default="3e-2,1e-2,3e-3,1e-3,3e-4,1e-4")
    parser.add_argument("--csv", type=Path, default=None)
    args = parser.parse_args()

    point = UpperHalfPoint.parse(args.tau)
    z = np.array([point])  # one point, as an array of one
    steps = [float(s) for s in args.steps.split(",")]

    rows = []
    previous = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in steps:
            residual = harmonic_residual(z, h).item()
            order = ""
            if previous is not None:
                order = math.log(previous[1] / residual) / math.log(previous[0] / h)
                order = f"{order:.3f}"
            rows.append((h, residual, order))
            previous = (h, residual)

    print(f"tau = {point}")
    print(f"{'h':>10}  {'residual':>12}  {'order':>7}")
    for h, residual, order in rows:
        print(f"{h:>10.1e}  {residual:>12.4e}  {order:>7}")

    if args.csv:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["h", "residual", "order"])
            writer.writerows(rows)
        print(f"table written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
