"""Exhaustive sweep harness over bounded chain families.

Theorem mode walks every tail-stable admissible chain in the bounds and
asserts, per chain: the three-term inequality at every height, the tail
order r_n < r_1, and that a matching certificate builds, verifies, and has
exactly m_r pairs at every realized height.  The counting route and the
certificate route are also required to agree.  Any failure is recorded as
a violation carrying the full chain; nothing is ever dropped.

Necessity mode walks the admissible chains that are *not* tail-stable and
records every three-term violation found.  Here a nonempty list is the
point: it witnesses that the stability hypothesis cannot be removed.  The
report's pass flag is true when at least one witness exists.

The search space is partitioned by (length, first step), walking each
partition from the prefix (0, first step); partitions share nothing and
are merged in canonical order, so the report is independent of the worker
count (the timing field aside).  Theorem mode walks only prefixes that can
still be stable (the branch-and-bound cut of chain.extend_chain);
necessity mode needs every unstable chain and walks the whole partition.
`generated` is counted, not walked, by chain.count_chains, once per
length.  Every chain is admissible by its step set (so `admissible` equals
`generated`) and each walked chain's stability is tested once, so one
pass over a stable chain builds every height's certificate without
re-checking either hypothesis, and each is verified on its own.  The pool
never has more workers than partitions, and one worker runs inline.

Each partition writes its own violation records as JSON text, exactly as
serialize.dumps writes them inside the report (serialize.write_items).
So the writing runs in the pool workers, only text crosses the pool, and
the parent joins the texts in canonical order (serialize.join_items)
without building a record dict.  `written_report` is the report the
command line writes, and its `timing_seconds` includes the writing;
`run_sweep` reads the records back as dicts.  The pool takes the
partitions longest chains first and returns their results in canonical
order.  A worker that dies raises WorkerDied, naming the partition it
died in.

The walk hands each chain over as a plain tuple and carries its
multiplicities {r: m_r}, one push or pop at a time, so a leaf builds no
per-chain object: tail_slopes tests the tuple, three_term_holds reads the
carried counts, and a RootSequence is built only for a stable chain that
goes to pairing.  Records are ordered per chain: chains arrive in (length,
roots) order, so sorting each chain's records by (kind, detail as JSON
with sorted keys) orders the whole report without a global sort.
"""

from __future__ import annotations

import json
import os
import time

from . import serialize
from .chain import (
    RootSequence,
    check_box,
    count_chains,
    enumeration_steps,
    extend_chain,
    tail_slopes,
    three_term_holds,
)
from .pairing import _certify, verify_certificate

MODE_THEOREM = "theorem"
MODE_NECESSITY = "necessity"

# json.dumps(obj, sort_keys=True) without building an encoder on every call
_sorted_json = json.JSONEncoder(sort_keys=True).encode

_VIOLATIONS_DEPTH = 1  # the depth the report's violation list opens at


class SweepParams:
    """A sweep's box and mode, checked when built; immutable."""

    __slots__ = ("n_min", "n_max", "max_rise", "root_bound", "mode")

    def __init__(
        self, n_min: int, n_max: int, max_rise: int, root_bound: int, mode: str = MODE_THEOREM
    ) -> None:
        if mode not in (MODE_THEOREM, MODE_NECESSITY):
            raise ValueError(f"unknown sweep mode {mode!r}")
        check_box(n_min, n_max, max_rise, root_bound)
        for name, value in zip(self.__slots__, (n_min, n_max, max_rise, root_bound, mode)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def _check_stable_chain(seq: RootSequence, counts: dict[int, int]) -> tuple[list[dict], int]:
    """All theorem-mode assertions for one tail-stable chain with multiplicities counts.

    Returns (violations, number of heights certified).
    """
    roots = list(seq.roots)
    violations: list[dict] = []

    def record(kind: str, detail: dict) -> None:
        violations.append({"roots": roots, "kind": kind, "detail": detail})

    counting_ok, tt_violations = three_term_holds(counts)
    for v in tt_violations:
        record("three-term", v._asdict())

    if seq.roots[-1] >= seq.roots[0]:
        record("tail-order", {"first": seq.roots[0], "last": seq.roots[-1]})

    before = len(violations)
    for r, (cert, failure) in _certify(seq.roots).items():
        if failure is not None:
            record("certificate-build", failure.report())
            continue
        ok, reasons = verify_certificate(seq, cert)
        if not ok:
            record("certificate-verify", {"height": r, "reasons": reasons})
        if len(cert.pairs) != counts[r]:
            detail = {"height": r, "pairs": len(cert.pairs), "multiplicity": counts[r]}
            record("certificate-count", detail)
    certificates_ok = len(violations) == before

    if certificates_ok != counting_ok:
        record("route-disagreement", {"counting": counting_ok, "certificates": certificates_ok})
    return violations, len(counts)


def _in_report_order(records: list[dict]) -> list[dict]:
    """Sort one chain's records, in place, into their report order.

    The key is (kind, detail as JSON with sorted keys), so numbers compare
    as text ("above": 10 before "above": 2).  Partitions yield chains in
    (length, roots) order, so sorting each chain's records orders the
    whole report.
    """
    if len(records) > 1:
        records.sort(key=lambda v: (v["kind"], _sorted_json(v["detail"])))
    return records


def _run_partition(args: tuple[int, int, int, int, str]) -> tuple[int, int, str]:
    """Walk one (n, first step) partition; return (stable, certificates, records).

    The records are the partition's violations, written as the items of
    the report's violation list (serialize.write_items at _VIOLATIONS_DEPTH).
    The walk hands over plain root tuples and carries their multiplicities;
    a RootSequence is built only for a stable chain that goes to pairing.
    """
    n, first_step, max_rise, bound, mode = args
    theorem = mode == MODE_THEOREM
    stable = certificates = 0
    violations: list[dict] = []
    counts: dict[int, int] = {}
    steps = enumeration_steps(max_rise)
    for roots in extend_chain((0, first_step), n, steps, bound, stable_only=theorem, counts=counts):
        if tail_slopes(roots).is_stable:
            stable += 1
            if theorem:
                found, n_heights = _check_stable_chain(RootSequence(roots), counts)
                violations += _in_report_order(found)
                certificates += n_heights
        elif not theorem:
            _, found = three_term_holds(counts)
            if found:
                listed = list(roots)  # one list for all of the chain's records
                violations += _in_report_order(
                    [{"roots": listed, "kind": "three-term", "detail": v._asdict()} for v in found]
                )
    return stable, certificates, serialize.write_items(violations, _VIOLATIONS_DEPTH)


class WorkerDied(RuntimeError):
    """A pool worker died (killed, out of memory, crashed) during a sweep."""


_running = None  # in a pool worker: the shared marks of the partitions being run
_current = -1  # in a pool worker: the index of the partition it runs, or -1


def _start_worker(running) -> None:
    import signal

    global _running
    _running = running
    signal.signal(signal.SIGTERM, _on_terminate)


def _on_terminate(signum, frame) -> None:
    # the pool stops the live workers when one dies: clear this one's mark
    if _current >= 0:
        _running[_current] = 0
    os._exit(1)


def _run_marked(index: int, task: tuple) -> tuple[int, int, str]:
    global _current
    _current = index
    _running[index] = 1
    result = _run_partition(task)
    _running[index] = 0
    _current = -1
    return result


def _run_pooled(tasks: list[tuple], workers: int) -> list[tuple[int, int, str]]:
    """Run each partition in a pool of `workers` processes; results in task order.

    Tasks go in largest first (descending n).  A worker marks the partition
    it runs in a shared array and clears the mark when it finishes or when
    the pool stops it, so after a worker dies the marks left name the
    partition it died in; WorkerDied reports them.
    """
    from concurrent.futures import ProcessPoolExecutor  # costly imports, pool runs only
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing.sharedctypes import RawArray

    running = RawArray("b", len(tasks))
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
    try:
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(running,)) as pool:
            futures = {i: pool.submit(_run_marked, i, tasks[i]) for i in order}
            return [futures[i].result() for i in range(len(tasks))]
    except BrokenProcessPool:
        dead = [f"(n={n}, first step={first})" for (n, first, *_), mark in zip(tasks, running) if mark]
        where = f" in partition {', '.join(dead)}" if dead else ""
        raise WorkerDied(f"sweep worker died{where}") from None


def written_report(params: SweepParams, workers: int = 1) -> dict:
    """The sweep's report, its violation list already written.

    `violations` is a serialize.Written: each partition writes its
    own records, in the pool worker that runs it, and they are joined in
    (n, first step) order whatever the worker count, so reports differ
    only in the timing field, which includes the writing.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    steps = enumeration_steps(params.max_rise)
    lengths = range(params.n_min, params.n_max + 1)
    tasks = [
        (n, first_step, params.max_rise, params.root_bound, params.mode)
        for n in lengths
        for first_step in steps
    ]

    workers = min(workers, len(tasks))  # a pool forks every worker up front
    if workers == 1:
        results = [_run_partition(task) for task in tasks]
    else:
        results = _run_pooled(tasks, workers)

    per_n: dict[str, dict] = {}
    for n in lengths:
        generated = count_chains((0,), n, steps, params.root_bound)
        per_n[str(n)] = {"generated": generated, "admissible": generated, "stable": 0}
    certificates = 0
    for (n, *_), (stable, n_certificates, _) in zip(tasks, results):
        per_n[str(n)]["stable"] += stable
        certificates += n_certificates
    violations = serialize.join_items([records for *_, records in results], _VIOLATIONS_DEPTH)
    totals = {
        key: sum(bucket[key] for bucket in per_n.values())
        for key in ("generated", "admissible", "stable")
    }
    totals["certificates"] = certificates

    elapsed = time.perf_counter() - started

    found = violations.text != "[]"
    passed = not found if params.mode == MODE_THEOREM else found

    return {
        "parameters": {
            "n_min": params.n_min,
            "n_max": params.n_max,
            "max_rise": params.max_rise,
            "root_bound": params.root_bound,
            "mode": params.mode,
        },
        "totals": totals,
        "per_n": per_n,
        "violations": violations,
        "pass": passed,
        "timing_seconds": elapsed,
    }


def run_sweep(params: SweepParams, workers: int = 1) -> dict:
    """written_report with the violation records read back as dicts."""
    report = written_report(params, workers)
    report["violations"] = json.loads(report["violations"].text)
    return report
