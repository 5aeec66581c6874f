"""An independent count of a sweep box's chains, stable and all, per length.

A chain of the box starts at r_1 = 0, steps by -2 or by an even rise up to
max_rise, and keeps |r_j| <= bound; it is stable when n P_j > j P_n for
every j < n, P_j being its prefix sums.  This module counts both kinds
for each length by a dynamic program over (candidate total, last root,
prefix sum), the transfer-matrix method (Stanley, "Enumerative
Combinatorics, Vol. 1", section 4.7): it carries every candidate total
P_n = t at once, keeps a prefix only while n P_j > j t, and at length n
counts the prefixes whose sum is t.  Without the stability mask the same
program counts every chain of the box.

It shares no code with the package and imports nothing from it, so its
counts check the sweep's `per_n` from outside: the counts are numpy int64
arrays, and the final sums Python ints.

    python tests/stable_counts.py REPORT.json...

reads each sweep report's box from its parameters and exits nonzero
unless every length's `stable` count equals this program's.
"""

from __future__ import annotations

import json
import sys

import numpy as np


def chain_count(n: int, max_rise: int, bound: int, stable: bool) -> int:
    """The number of chains of length n in the box, or of its stable ones."""
    b = bound // 2  # every root is even: r = 2i with |i| <= b, and sums are in the same half units
    steps = (-1, *range(1, min(max_rise, 2 * bound) // 2 + 1))  # a rise above 2*bound leaves the box
    span = n * b  # |P_j| <= j b
    sums = np.arange(-span, span + 1)
    # a stable chain's total is negative, since n P_1 = 0 > 1 t; unmasked, one dummy total serves
    totals = np.arange(-span, 0) if stable else np.zeros(1, dtype=np.int64)
    ways = np.zeros((len(totals), 2 * b + 1, len(sums)), dtype=np.int64)  # [total, root + b, sum + span]
    ways[:, b, span] = 1  # the prefix (0,)
    for j in range(2, n + 1):
        moved = np.zeros_like(ways)
        for s in steps:  # the root i becomes i + s
            if s > 0:
                moved[:, s:, :] += ways[:, :-s, :]
            else:
                moved[:, :s, :] += ways[:, -s:, :]
        ways = np.zeros_like(moved)
        for row in range(2 * b + 1):  # the sum takes the new root i = row - b
            i = row - b
            if i >= 0:
                ways[:, row, i:] = moved[:, row, : len(sums) - i]
            else:
                ways[:, row, :i] = moved[:, row, -i:]
        if stable and j < n:
            ways *= (n * sums[None, :] > j * totals[:, None])[:, None, :]
    if not stable:
        return int(ways.sum())
    ends = ways.sum(axis=1)  # [total, sum]
    return sum(int(ends[k, t + span]) for k, t in enumerate(totals.tolist()))


def per_n(n_min: int, n_max: int, max_rise: int, bound: int) -> dict[str, dict[str, int]]:
    """{str(n): {"generated", "stable"}} for n_min <= n <= n_max, keyed as a sweep's per_n."""
    return {
        str(n): {"generated": chain_count(n, max_rise, bound, False), "stable": chain_count(n, max_rise, bound, True)}
        for n in range(n_min, n_max + 1)
    }


def main(paths: list[str]) -> int:
    failed = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        p = report["parameters"]
        expected = {
            str(n): chain_count(n, p["max_rise"], p["root_bound"], True) for n in range(p["n_min"], p["n_max"] + 1)
        }
        found = {n: bucket["stable"] for n, bucket in report["per_n"].items()}
        print(f"{path}: {sum(expected.values())} stable chains counted, {sum(found.values())} in the report")
        if found != expected:
            print(f"{path}: per_n stable {found} differs from the count {expected}", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
