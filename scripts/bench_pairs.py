#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload, kept as a file.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

Each ref is exported with `git archive` into its own directory under a
temporary directory, and every run is that tree's own, unmodified
`perfbench/run.py --trace 0`. Pair i (from 1) runs both sides with seed
i, the parent first in odd pairs and the change first in even ones, so a
drift in the machine's speed weighs on both sides alike (Georges,
Buytaert and Eeckhout, "Statistically Rigorous Java Performance
Evaluation", OOPSLA 2007). A run that does not end with `correct: true`
and 0 failed stops the script, since its metrics would time a wrong
report.

The result goes to BENCH_<workload>-<change sha>.json at the repository
root, or BENCH_<workload>-<sha>-aa.json when both refs are one commit (an
A/A file, whose spread is the noise floor a claim must clear). It holds
both SHAs, the run context, every pair's metrics for both sides, and per
metric each side's median and quartiles and the number of pairs the change
wins; a tie wins for neither side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT  # where the BENCH file goes
SIDES = ("parent", "change")


class RunRefused(RuntimeError):
    """A benchmark run that is not correct, or whose output is not a result."""


def resolve(ref: str) -> str:
    """The full SHA of a commit-ish in this repository."""
    done = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: {ref!r} names no commit: {done.stderr.strip()}")
    return done.stdout.strip()


def export_tree(sha: str, dest: Path) -> Path:
    """The committed files of `sha`, written under `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"error: could not export {sha} into {dest}")
    return dest


def run_perfbench(tree: Path, workload: str, seed: int, seconds: int) -> str:
    """Stdout of one end-to-end run of the tree's own perfbench/run.py."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunRefused(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return done.stdout


def parse_run(stdout: str) -> tuple[dict, dict[str, float]]:
    """(context, {metric: value}) of one run, read from its first and last
    stdout lines; RunRefused unless the run is correct with 0 failed."""
    lines = stdout.strip().splitlines()
    try:
        context = json.loads(lines[0])["context"]
        result = json.loads(lines[-1])
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise RunRefused(f"not a perfbench result: {exc!r}") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunRefused(f"run is not correct with 0 failed: {lines[-1][:300]}")
    return context, metrics


def first_side(pair: int) -> str:
    return SIDES[pair % 2]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change wins.

    `better` maps each metric to "lower" or "higher"; every pair holds the
    two sides' metrics under "parent" and "change".
    """
    summary = {}
    for name, direction in better.items():
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        stats = {}
        for side, side_values in values.items():
            q1, median, q3 = statistics.quantiles(side_values, n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        summary[name] = {
            "better": direction,
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            # the median moves the right way by more than the parent's own spread
            "gain_beyond_parent_iqr": gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return summary


def bench_name(workload: str, parent: str, change: str) -> str:
    suffix = "-aa" if parent == change else ""
    return f"BENCH_{workload}-{change[:12]}{suffix}.json"


def run_pairs(trees: dict[str, Path], workload: str, pairs: int, seconds: int) -> tuple[dict, list]:
    """(context, pairs) of `pairs` alternating runs of both trees."""
    context, records = None, []
    for i in range(pairs):
        seed = i + 1
        record = {"seed": seed, "first": first_side(i)}
        for side in (first_side(i), first_side(i + 1)):
            run_context, record[side] = parse_run(run_perfbench(trees[side], workload, seed, seconds))
            context = context or run_context
        records.append(record)
        shown = "  ".join(f"{side} {record[side]['wall_vs_ref']:.4f}" for side in SIDES)
        print(f"pair {i + 1}/{pairs} seed {seed}: wall_vs_ref {shown}", file=sys.stderr)
    return context, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export_tree(sha, Path(tmp) / side) for side, sha in shas.items()}
        try:
            context, pairs = run_pairs(trees, args.workload, args.pairs, args.seconds)
        except RunRefused as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    context = {key: value for key, value in context.items() if key not in ("seed", "git_sha")}
    bench = {
        "workload": args.workload,
        "parent": shas["parent"],
        "change": shas["change"],
        "seconds": args.seconds,
        "context": context,
        "pairs": pairs,
        "summary": summarize(pairs, better),
    }
    path = OUT_DIR / bench_name(args.workload, shas["parent"], shas["change"])
    path.write_text(json.dumps(bench, indent=2) + "\n")
    for name, row in bench["summary"].items():
        print(f"{name}: parent {row['parent']['median']:.6g} change {row['change']['median']:.6g}, "
              f"change wins {row['change_wins']}/{row['pairs']}, "
              f"gain_beyond_parent_iqr {row['gain_beyond_parent_iqr']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
