"""Exhaustive sweep harness over bounded chain families.

Theorem mode walks every tail-stable admissible chain in the bounds and
asserts, per chain: the three-term inequality at every height, the tail
order r_n < r_1, and that the chain's matching certificate builds and
verifies at every realized height; the checker also refuses a
certificate that leaves a height-r vertex unpaired.  The counting route
and the certificate route are also required to agree.  Any failure is
recorded as a violation carrying the full chain; nothing is ever dropped.

Necessity mode walks the admissible chains that are *not* tail-stable and
records every three-term violation found.  Here a nonempty list is the
point: it witnesses that the stability hypothesis cannot be removed.  The
report's pass flag is true when at least one witness exists.

The search space is partitioned by first step, walking each partition
from the prefix (0, first step): a theorem partition holds one length,
since its cut depends on the length, and a necessity partition every
length, in one walk.  Partitions share nothing, and their texts are
merged in (length, first step) order, so the report is independent of
the worker count (the timing field aside).  The sweep lists them
longest chains first, and runs them in that order.  One worker runs
inline.  With N, pool.run forks at most N - 1 workers, never more than
the partitions less one, and runs partitions in this process too: each
process takes its next partition from one queue that all of them share,
not from another process.  The pool knows nothing of a task; it returns
None for a partition whose worker died, and the sweep names that
partition in WorkerDied.

The walk, chain.extend_chain, hands over each chain as a plain root tuple
with its stability, decided in O(1) from the prefix sums it carries, and
carries its multiplicities {r: m_r}, one push or pop at a time.  Theorem
mode walks only prefixes that can still be stable, so it is handed
exactly the stable chains.  Necessity mode walks the whole partition,
and the walk carries each node's heights where m_r > m_{r-2} + m_{r+2}
down the tree, one push at a time; it hands over only what the report
reads: the stable chains, which are counted, and the witnesses, the
unstable chains with a violation, each with its violating heights.  An
unstable chain that holds the inequality (10,141 of the benchmark box's
18,848 chains) never leaves the walk.  Every chain is
admissible by its step set, so `admissible` equals `generated`, which
chain.count_chains counts, not walks, in one pass for every length.  As
both hypotheses hold by construction, pairing.certify, which assumes
them, builds a stable chain's certificate, one target per vertex, and
pairing.verify_certificate checks it once per realized height, so its
calls equal `totals["certificates"]`.

Every partition returns (stable, certificates, records, text) for each
of its lengths: records is the number of that length's violations, and
text their records as serialize writes them inside the report's
violation list.  A theorem partition hands its chains with violations to
serialize.theorem_items when it ends.  A necessity partition writes each
witness's records with serialize.three_term_items: as the walk hands a
witness over, it gathers the roots and each violation in report order
into its length's numbers, and at the end each length's records fill
their templates in one format.  The writing runs in the process
that runs the partition: with more than one worker, each of the pool
module's forked workers writes its counts, sizes and texts to its one
spill file.  The parent keeps the texts, in canonical order, as
the pieces of a serialize.Written, a worker's as pool.Spilled ranges of
its spill file, which the command line writes in bounded chunks; `pass`
comes from the counts.  `written_report` is the report the command line
writes, and its `timing_seconds` includes the writing; `run_sweep` reads
the records back as dicts.  A CSV report prints only the counts, so for it
the partitions keep and write no record, their text is "", and a
worker's spill file holds only its lines of counts.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

from . import serialize
from .chain import (
    check_box,
    count_chains,
    enumeration_steps,
    extend_chain,
    tail_slopes,  # not called; perfbench/run.py's traced run fails unless sweep.tail_slopes exists
    three_term_holds,  # theorem mode's counting route; necessity mode takes the walk's verdict
)
from .pairing import certify, verify_certificate

MODE_THEOREM = "theorem"
MODE_NECESSITY = "necessity"


class SweepParams(NamedTuple("SweepParams", [("n_min", int), ("n_max", int), ("max_rise", int), ("root_bound", int), ("mode", str)])):
    """A sweep's box and mode, checked when built (by _make and _replace
    too, which go through the constructor); a named tuple."""

    __slots__ = ()

    def __new__(cls, n_min: int, n_max: int, max_rise: int, root_bound: int, mode: str = MODE_THEOREM) -> SweepParams:
        if mode not in (MODE_THEOREM, MODE_NECESSITY):
            raise ValueError(f"unknown sweep mode {mode!r}")
        check_box(n_min, n_max, max_rise, root_bound)
        return super().__new__(cls, n_min, n_max, max_rise, root_bound, mode)

    _make = classmethod(lambda cls, fields: cls(*fields))


def _check_stable_chain(roots: tuple[int, ...], counts: dict[int, int]) -> tuple[list[tuple[str, dict]], int]:
    """All theorem-mode assertions for one tail-stable chain with multiplicities counts.

    Returns ((kind, detail) of each violation, number of heights certified).
    """
    counting_ok, tt_violations = three_term_holds(counts)
    found = [("three-term", v._asdict()) for v in tt_violations]

    if roots[-1] >= roots[0]:
        found.append(("tail-order", {"first": roots[0], "last": roots[-1]}))

    before = len(found)
    targets, failures = certify(roots)
    for r in sorted(counts):
        if r in failures:
            found.append(("certificate-build", failures[r]._asdict()))
            continue
        ok, reasons = verify_certificate(roots, r, targets)
        if not ok:
            found.append(("certificate-verify", {"height": r, "reasons": reasons}))
    certificates_ok = len(found) == before

    if certificates_ok != counting_ok:
        found.append(("route-disagreement", {"counting": counting_ok, "certificates": certificates_ok}))
    return found, len(counts)


def _run_partition(args: tuple[int, int, int, int, int, str, bool]) -> list[tuple[int, int, int, str]]:
    """Walk one partition, the chains of each length n_min..n from the
    prefix (0, first step); return (stable, certificates, records, text)
    for each length, shortest first.

    records is the number of a length's violations, and text their
    records written by serialize as the items of the report's violation
    list: "" when the task's last field is false, since nobody reads them.
    The walk hands over plain root tuples with their stability and
    carries their multiplicities; a stable chain goes to pairing as its
    root tuple.  A theorem partition has one length, since its cut
    depends on it.  In necessity mode one walk hands over every length's
    stable chains and witnesses, depth first, each witness with its
    violating heights; the numbers of the witness's records go then into
    its length's list, and each length's records are written at the end.
    """
    n_min, n, first_step, max_rise, bound, mode, write = args
    theorem = mode == MODE_THEOREM
    lengths = range(n_min, n + 1)
    # per length: stable, certificates, records, and when written: (roots, found) of
    # each chain with any, or the numbers of each three-term record
    results = [[0, 0, 0, []] for _ in lengths]
    counts: dict[int, int] = {}
    get = counts.get
    steps = enumeration_steps(max_rise, bound)
    walk = extend_chain((0, first_step), n, steps, bound, n_min=n_min, stable_only=theorem, three_term=not theorem, counts=counts)
    for roots, is_stable, violated in walk:
        result = results[len(roots) - n_min]
        if is_stable:
            result[0] += 1
            if theorem:
                found, n_heights = _check_stable_chain(roots, counts)
                result[1] += n_heights
                result[2] += len(found)
                if write and found:
                    result[3].append((roots, found))
        else:  # a witness, the only unstable chain the (necessity) walk yields: its records' numbers go in now
            result[2] += len(violated)
            if write:
                numbers = result[3]
                if len(violated) == 1:  # most witnesses: nothing to sort
                    r = violated[0]
                    numbers += roots
                    numbers += r, counts[r], get(r - 2, 0), get(r + 2, 0)
                else:
                    for detail in serialize.three_term_order([(r, counts[r], get(r - 2, 0), get(r + 2, 0)) for r in violated]):
                        numbers += roots
                        numbers += detail
    for k, result in enumerate(results, start=n_min):  # each length's list goes once it is written
        result[3] = serialize.theorem_items(result[3]) if theorem else serialize.three_term_items(k, result[3])
    return [tuple(result) for result in results]


class WorkerDied(ChildProcessError):
    """A pool worker died (killed, crashed, or its partition raised) during a sweep.

    An OSError, so the command line reports it in one `error:` line and exits 2."""


def written_report(params: SweepParams, workers: int = 1, records: bool = True) -> dict:
    """The sweep's report, its violation list already written.

    `violations` is a serialize.Written: each partition writes its
    own records, in the process that runs it, and the texts are its
    pieces in (n, first step) order whatever the worker count, so reports
    differ only in the timing field, which includes the writing.  A text
    a forked worker wrote is a pool.Spilled range of its spill file.
    With records false (nobody reads them) the partitions only count
    their records and the report has no `violations`.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):  # True would run as 1, 2.5 fail in the pool
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers above 1 need os.fork, which this platform lacks; got {workers}")
    started = time.perf_counter()
    steps = enumeration_steps(params.max_rise, params.root_bound)
    lengths = range(params.n_min, params.n_max + 1)
    # a theorem partition is one length, a necessity partition every length; the longest chains go first
    spans = [(n, n) for n in reversed(lengths)] if params.mode == MODE_THEOREM else [(params.n_min, params.n_max)]
    tasks = [
        (n_min, n, first_step, params.max_rise, params.root_bound, params.mode, records)
        for n_min, n in spans
        for first_step in steps
    ]

    workers = min(workers, len(tasks))  # a pool forks all its workers, one fewer than this, up front
    if workers == 1:
        outcomes = [_run_partition(task) for task in tasks]
    else:
        from . import pool  # only a pooled sweep compiles it

        outcomes = pool.run(tasks, workers, _run_partition)
    if None in outcomes:  # (n=6, first step=2) in theorem mode, (n=2..9, first step=2) in necessity mode
        n_min, n, first_step = tasks[outcomes.index(None)][:3]
        raise WorkerDied(f"sweep worker died in partition (n={n if n_min == n else f'{n_min}..{n}'}, first step={first_step})")
    by_part = {
        (n, task[2]): result
        for task, outcome in zip(tasks, outcomes)
        for n, result in enumerate(outcome, start=task[0])
    }
    results = [by_part[n, first_step] for n in lengths for first_step in steps]  # in (n, first step) order

    generated = count_chains((0,), params.n_max, steps, params.root_bound)
    per_n = {str(n): {"generated": generated[n], "admissible": generated[n], "stable": 0} for n in lengths}
    for (n, _), (stable, *_) in by_part.items():
        per_n[str(n)]["stable"] += stable
    totals = {
        key: sum(bucket[key] for bucket in per_n.values())
        for key in ("generated", "admissible", "stable")
    }
    totals["certificates"] = sum(certificates for _, certificates, _, _ in results)
    report = {
        "parameters": params._asdict(),
        "totals": totals,
        "per_n": per_n,
    }
    if records:
        report["violations"] = serialize.Written(text for *_, text in results)
    found = any(count for _, _, count, _ in results)
    report["pass"] = not found if params.mode == MODE_THEOREM else found
    report["timing_seconds"] = time.perf_counter() - started
    return report


def run_sweep(params: SweepParams, workers: int = 1) -> dict:
    """written_report with the violation records read back as dicts."""
    report = written_report(params, workers)
    report["violations"] = json.loads("".join(serialize.strings(report["violations"].parts)))
    return report
