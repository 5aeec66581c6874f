"""An independent count of a necessity sweep's witnesses and records, per length.

A chain of the box starts at r_1 = 0, steps by -2 or by an even rise up to
max_rise, and keeps |r_j| <= bound; it is stable when n P_j > j P_n for
every j < n, P_j being its prefix sums.  It violates the three-term
inequality at a height r where m_r > m_{r-2} + m_{r+2}, m_r being the
number of its roots equal to r.  A necessity sweep records each
(chain, height) pair of an unstable chain that violates the inequality
there; a witness is an unstable chain with at least one record.

This module lists each length's chains as one numpy array, grown a root
at a time from (0,) and filtered to the box, so its rows are in
lexicographic order.  It decides stability from the prefix sums, and
counts each chain's roots into bins indexed by height: heights are even,
so a height's neighbours sit two bins away.  For each length it gives
the witnesses, the records, and a digest of the sorted set of
(roots, height) pairs, which checks the records as a set and not only by
their number.  It shares no code with the package and imports nothing
from it; stable_counts.py counts the stable chains the same way.

    python tests/witness_counts.py REPORT.json...

reads each necessity report's box from its parameters and exits nonzero
unless every length's witnesses, records and digest equal this
program's.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np


def _digest(rows) -> str:
    """The sha256 of rows of (roots..., height), sorted, as int32."""
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.int32).tobytes()).hexdigest()


def _length_counts(chains: np.ndarray, bound: int) -> dict:
    """Witnesses, records and digest of the chains, one per row, all of one length."""
    count, n = chains.shape
    sums = np.cumsum(chains, axis=1, dtype=np.int32)
    stable = np.ones(count, dtype=bool)
    for j in range(1, n):  # a column at a time, so no temporary is as large as sums
        stable &= n * sums[:, j - 1] > j * sums[:, -1]
    bins = np.zeros((count, 2 * bound + 5), dtype=np.int16)  # heights -bound-2 .. bound+2
    everyone = np.arange(count)
    for j in range(n):  # one root of each chain at a time, so no bin is named twice
        bins[everyone, chains[:, j] + bound + 2] += 1
    violated = (bins[:, 2:-2] > bins[:, :-4] + bins[:, 4:]) & ~stable[:, None]
    rows, columns = np.nonzero(violated)  # row by row, each row's heights ascending
    records = np.column_stack([chains[rows], (columns - bound).astype(np.int32)])  # column c is height c - bound
    return {"witnesses": int(violated.any(axis=1).sum()), "records": len(rows), "digest": _digest(records)}


def counted(n_min: int, n_max: int, max_rise: int, bound: int) -> dict[str, dict]:
    """{str(n): {"witnesses", "records", "digest"}} for n_min <= n <= n_max."""
    steps = np.array([-2, *range(2, min(max_rise, 2 * bound) + 1, 2)], dtype=np.int32)  # a larger rise leaves the box
    chains = np.zeros((1, 1), dtype=np.int32)
    out = {}
    for n in range(2, n_max + 1):
        last = (chains[:, -1:] + steps).ravel()  # each chain's children, steps ascending
        keep = np.abs(last) <= bound
        parents = np.repeat(np.arange(len(chains)), len(steps))[keep]
        chains = np.column_stack([chains[parents], last[keep]])
        if n >= n_min:
            out[str(n)] = _length_counts(chains, bound)
    return out


def reported(rows, n_min: int, n_max: int) -> dict[str, dict]:
    """The same counts from a report's records, given as (roots..., height) tuples."""
    by_length: dict[int, list] = {n: [] for n in range(n_min, n_max + 1)}
    for row in rows:
        by_length.setdefault(len(row) - 1, []).append(row)
    return {
        str(n): {
            "witnesses": len({row[:-1] for row in found}),
            "records": len(found),
            "digest": _digest(np.array(sorted(set(found)), dtype=np.int32).reshape(-1, n + 1)),
        }
        for n, found in by_length.items()
    }


def read(path: str) -> tuple[dict, list[tuple]]:
    """A report as json.dumps(indent=2) writes it, read a line at a time:
    its entries before `violations`, and each record's (roots..., height)
    tuple, or None for a record of another kind.  There each root is a
    line of its own, so no record is kept as a dict, nor the text whole."""
    head, rows, roots = [], [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith('  "violations": '):
                break
            head.append(line)
        for line in handle:
            text = line.strip().rstrip(",")
            if text.lstrip("-").isdigit():
                roots.append(int(text))
            elif text.startswith('"kind": ') and text != '"kind": "three-term"':
                rows.append(None)
            elif text.startswith('"height": '):
                rows.append((*roots, int(text[len('"height": '):])))
                roots = []
    return json.loads("".join(head).rstrip().rstrip(",") + "\n}"), rows


def main(paths: list[str]) -> int:
    failed = 0
    for path in paths:
        head, rows = read(path)
        p = head["parameters"]
        if p["mode"] != "necessity" or None in rows:
            print(f"{path}: not a necessity report of three-term records", file=sys.stderr)
            failed = 1
            continue
        found = reported(rows, p["n_min"], p["n_max"])
        del rows  # the records' tuples go before the count's arrays are made
        expected = counted(p["n_min"], p["n_max"], p["max_rise"], p["root_bound"])
        print(
            f"{path}: {sum(c['witnesses'] for c in expected.values())} witnesses and "
            f"{sum(c['records'] for c in expected.values())} records counted, "
            f"{sum(c['witnesses'] for c in found.values())} and {sum(c['records'] for c in found.values())} in the report"
        )
        if found != expected:
            differ = [n for n in expected if found[n] != expected[n]]
            print(f"{path}: the records of lengths {differ} differ from the count", file=sys.stderr)
            failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
