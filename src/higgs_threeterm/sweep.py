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
count (the timing field aside).  The walk, chain.extend_chain, decides
each chain's stability in O(1) from the prefix sums it carries, with the
integer inequality its branch-and-bound cut applies.  Theorem mode walks
only prefixes that can still be stable and is handed exactly the stable
chains; necessity mode needs every unstable chain and walks the whole
partition.  `generated` is counted, not walked, by chain.count_chains,
once per length.  Every chain is admissible by its step set (so
`admissible` equals `generated`) and stable by the walk's verdict, so one
pass over a stable chain builds every height's certificate without
re-checking either hypothesis, and each is verified on its own, once per
height, by pairing.verify_certificate.  One worker runs inline; more are
forked, never more than the partitions.

Each partition writes its own violation records as JSON text, exactly as
serialize.dumps writes them inside the report: theorem records by
serialize.write_items, necessity records by serialize.three_term_items,
which writes each violation into one fixed template and builds no dict.
So the writing runs in the pool workers, only text crosses the pipes, and
the parent joins the texts in canonical order (serialize.join_items).
`written_report` is the report the command line writes, and its
`timing_seconds` includes the writing; `run_sweep` reads the records
back as dicts.  A CSV report prints only the counts, so for it the
partitions count their records and write none, and `pass` comes from the
counts.

The walk hands each chain over as a plain tuple with its stability and
carries its multiplicities {r: m_r}, one push or pop at a time, so a leaf
builds no per-chain object: three_term_holds reads the carried counts,
and a RootSequence is built only for a stable chain that goes to
pairing.  Records are ordered per chain: chains arrive in (length,
roots) order, so sorting each chain's records by (kind, detail as JSON
with sorted keys) orders the whole report without a global sort.  A
necessity chain's violations sort by that key's text less the prefix
they all share, built straight from the fields.
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
    tail_slopes,  # not called; perfbench/run.py's traced run fails unless sweep.tail_slopes exists
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
    roots = seq.roots
    found: list[tuple[str, dict]] = []  # (kind, detail)

    counting_ok, tt_violations = three_term_holds(counts)
    for v in tt_violations:
        found.append(("three-term", v._asdict()))

    if roots[-1] >= roots[0]:
        found.append(("tail-order", {"first": roots[0], "last": roots[-1]}))

    before = len(found)
    for r, (cert, failure) in _certify(roots).items():
        if failure is not None:
            found.append(("certificate-build", failure.report()))
            continue
        ok, reasons = verify_certificate(seq, cert)
        if not ok:
            found.append(("certificate-verify", {"height": r, "reasons": reasons}))
        if len(cert.pairs) != counts[r]:
            detail = {"height": r, "pairs": len(cert.pairs), "multiplicity": counts[r]}
            found.append(("certificate-count", detail))
    certificates_ok = len(found) == before

    if certificates_ok != counting_ok:
        found.append(("route-disagreement", {"counting": counting_ok, "certificates": certificates_ok}))
    roots = list(roots)
    return [{"roots": roots, "kind": kind, "detail": detail} for kind, detail in found], len(counts)


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


def _three_term_order(v) -> str:
    """_in_report_order's key for a three-term record, less the kind and
    '{"above": ' that all share."""
    return f'{v.above}, "below": {v.below}, "count": {v.count}, "height": {v.height}}}'


def _run_partition(args: tuple[int, int, int, int, str, bool]) -> tuple[int, int, str | int]:
    """Walk one (n, first step) partition; return (stable, certificates, records).

    The records are the partition's violations, written as the items of
    the report's violation list at _VIOLATIONS_DEPTH: theorem records as
    dicts, necessity records from a template with no dict built.  When the
    task's last field is false nobody reads them, and records is their
    number instead.  The walk hands over plain root tuples with their
    stability and carries their multiplicities; a RootSequence is built
    only for a stable chain that goes to pairing.
    """
    n, first_step, max_rise, bound, mode, write = args
    theorem = mode == MODE_THEOREM
    stable = certificates = 0
    violations: list[dict] = []  # theorem mode
    witnesses: list[tuple] = []  # necessity mode: (roots, violations in report order)
    counts: dict[int, int] = {}
    steps = enumeration_steps(max_rise)
    for roots, is_stable in extend_chain((0, first_step), n, steps, bound, stable_only=theorem, counts=counts):
        if is_stable:
            stable += 1
            if theorem:
                found, n_heights = _check_stable_chain(RootSequence(roots), counts)
                violations += _in_report_order(found)
                certificates += n_heights
        elif not theorem:
            _, found = three_term_holds(counts)
            if found:
                if len(found) > 1:
                    found.sort(key=_three_term_order)
                witnesses.append((roots, found))
    if not write:
        return stable, certificates, len(violations) + sum(len(found) for _, found in witnesses)
    if theorem:
        return stable, certificates, serialize.write_items(violations, _VIOLATIONS_DEPTH)
    return stable, certificates, serialize.three_term_items(witnesses, _VIOLATIONS_DEPTH)


class WorkerDied(RuntimeError):
    """A pool worker died (killed, crashed, or its partition raised) during a sweep."""


def _work(tasks: list[tuple], orders: int, out: int, parent_ends: set[int]) -> None:
    """A forked pool worker (see _run_pooled); it leaves only by os._exit."""
    try:
        for fd in parent_ends:  # else an order pipe never reaches EOF
            os.close(fd)
        results = open(out, "wb")  # left to os._exit to close, so EOF means the worker is gone
        while index := os.read(orders, 4):
            results.write(("%d %d %s\0" % _run_partition(tasks[int.from_bytes(index, "little")])).encode())
            results.flush()
        os._exit(0)
    except BrokenPipeError:  # the parent is gone: nobody reads the result, nor a traceback
        pass
    except BaseException:  # KeyboardInterrupt too
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(1)


def _run_pooled(tasks: list[tuple], workers: int) -> list[tuple[int, int, str]]:
    """Run each partition in `workers` forked processes; results in task order.

    A worker reads one partition index at a time, longest chains first
    (descending n, then ascending first step), and writes back b"stable
    certificates records" and a NUL (JSON text has none).  EOF before the
    NUL means it died in that partition.  Workers leave by os._exit, never
    flushing the parent's stdio buffers, and none outlives this call.
    """
    import selectors
    import signal

    pending = iter(sorted(range(len(tasks)), key=lambda i: -tasks[i][0]))
    results: list = [None] * len(tasks)
    pids, ends = [], set()  # the workers, and the parent's pipe ends
    with selectors.DefaultSelector() as selector:
        try:
            for _ in range(workers):
                (orders, order_end), (result_end, out) = os.pipe(), os.pipe()
                ends |= {orders, order_end, result_end}  # orders too: a dead worker's order still writes
                os.write(order_end, (index := next(pending)).to_bytes(4, "little"))
                if (pid := os.fork()) == 0:
                    _work(tasks, orders, out, ends - {orders})
                pids.append(pid)
                os.close(out)
                selector.register(result_end, selectors.EVENT_READ, [order_end, index, [], pid])
            while selector.get_map():
                for key, _ in selector.select():
                    order_end, index, chunks, _ = key.data
                    chunks.append(os.read(key.fd, 1 << 16))
                    if chunks[-1].endswith(b"\0"):
                        stable, certificates, records = b"".join(chunks)[:-1].decode().split(" ", 2)
                        results[index] = (int(stable), int(certificates), records)
                        chunks.clear()
                        key.data[1] = index = next(pending, -1)
                        if index >= 0:
                            os.write(order_end, index.to_bytes(4, "little"))
                        else:  # the worker has finished: EOF on `orders` ends it
                            selector.unregister(key.fd)
                            os.close(order_end)
                            ends.remove(order_end)
                    elif not chunks[-1]:
                        n, first = tasks[index][:2]
                        raise WorkerDied(f"sweep worker died in partition (n={n}, first step={first})")
            return results
        finally:
            for key in selector.get_map().values():  # the workers not finished
                os.kill(key.data[3], signal.SIGTERM)
            for fd in ends:
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)


def written_report(params: SweepParams, workers: int = 1, records: bool = True) -> dict:
    """The sweep's report, its violation list already written.

    `violations` is a serialize.Written: each partition writes its
    own records, in the pool worker that runs it, and they are joined in
    (n, first step) order whatever the worker count, so reports differ
    only in the timing field, which includes the writing.  With records
    false (nobody reads them) the partitions only count their records and
    the report has no `violations`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers above 1 need os.fork, which this platform lacks; got {workers}")
    started = time.perf_counter()
    steps = enumeration_steps(params.max_rise)
    lengths = range(params.n_min, params.n_max + 1)
    tasks = [
        (n, first_step, params.max_rise, params.root_bound, params.mode, records)
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
    totals = {
        key: sum(bucket[key] for bucket in per_n.values())
        for key in ("generated", "admissible", "stable")
    }
    totals["certificates"] = certificates
    report = {
        "parameters": {
            "n_min": params.n_min,
            "n_max": params.n_max,
            "max_rise": params.max_rise,
            "root_bound": params.root_bound,
            "mode": params.mode,
        },
        "totals": totals,
        "per_n": per_n,
    }
    if records:
        report["violations"] = serialize.join_items([text for *_, text in results], _VIOLATIONS_DEPTH)
        found = report["violations"].text != "[]"
    else:
        found = any(int(count) for *_, count in results)
    report["pass"] = not found if params.mode == MODE_THEOREM else found
    report["timing_seconds"] = time.perf_counter() - started
    return report


def run_sweep(params: SweepParams, workers: int = 1) -> dict:
    """written_report with the violation records read back as dicts."""
    report = written_report(params, workers)
    report["violations"] = json.loads(report["violations"].text)
    return report
