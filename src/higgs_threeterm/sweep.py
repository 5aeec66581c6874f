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

The search space is partitioned by (length, first step), walking each
partition from the prefix (0, first step); partitions share nothing and
are merged in canonical order, so the report is independent of the worker
count (the timing field aside).  One worker runs inline; more are forked,
never more than the partitions.

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

Every partition returns (stable, certificates, records, text): records is
the number of its violations, and text their records as serialize writes
them inside the report's violation list.  A theorem partition hands its
chains with violations to serialize.theorem_items when it ends.  A
necessity partition writes each witness's records when the walk hands
the witness over, with serialize.three_term_writer: the roots fill their
part of the length's template once per chain, and each violation its
detail after it; its text is those records joined by
serialize.ITEM_SEPARATOR.  The writing runs in the pool worker that runs
the partition, so only text crosses the pipes: the worker writes the
three counts on one line, then the text encoded once, then a NUL, and
the parent decodes the text once.  The parent keeps the texts, in
canonical order, as the pieces of a serialize.Written, which the command
line writes one piece at a time; `pass` comes from the counts.
`written_report` is the report the command line writes, and its
`timing_seconds` includes the writing; `run_sweep` reads the records back
as dicts.  A CSV report prints only the counts, so for it the partitions
keep and write no record and their text is "".
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


def _run_partition(args: tuple[int, int, int, int, str, bool]) -> tuple[int, int, int, str]:
    """Walk one (n, first step) partition; return (stable, certificates,
    records, text).

    records is the number of the partition's violations, and text their
    records written by serialize as the items of the report's violation
    list: "" when the task's last field is false, since nobody reads them.
    The walk hands over plain root tuples with their stability and
    carries their multiplicities; a stable chain goes to pairing as its
    root tuple.  In necessity mode it hands over only the stable chains
    and the witnesses, each witness with its violating heights, and the
    witness's records are written then, into the partition's list of
    record texts.
    """
    n, first_step, max_rise, bound, mode, write = args
    theorem = mode == MODE_THEOREM
    stable = certificates = records = 0
    written: list = []  # when written: (roots, found) of each chain with any, or each three-term record
    counts: dict[int, int] = {}
    get = counts.get
    write_chain = None if theorem else serialize.three_term_writer(n)
    steps = enumeration_steps(max_rise, bound)
    walk = extend_chain((0, first_step), n, steps, bound, stable_only=theorem, three_term=not theorem, counts=counts)
    for roots, is_stable, violated in walk:
        if is_stable:
            stable += 1
            if theorem:
                found, n_heights = _check_stable_chain(roots, counts)
                certificates += n_heights
                records += len(found)
                if write and found:
                    written.append((roots, found))
        else:  # a witness, the only unstable chain the (necessity) walk yields: its records are written now
            records += len(violated)
            if write:
                written += write_chain(roots, [(r, counts[r], get(r - 2, 0), get(r + 2, 0)) for r in violated])
    return stable, certificates, records, serialize.theorem_items(written) if theorem else serialize.ITEM_SEPARATOR.join(written)


class WorkerDied(ChildProcessError):
    """A pool worker died (killed, crashed, or its partition raised) during a sweep.

    An OSError, so the command line reports it in one `error:` line and exits 2."""


def _work(tasks: list[tuple], orders: int, out: int, parent_ends: set[int]) -> None:
    """A forked pool worker (see _run_pooled); it leaves only by os._exit."""
    try:
        for fd in parent_ends:  # else an order pipe never reaches EOF
            os.close(fd)
        results = open(out, "wb")  # left to os._exit to close, so EOF means the worker is gone
        while index := os.read(orders, 4):
            *numbers, text = _run_partition(tasks[int.from_bytes(index, "little")])
            results.writelines((b"%d %d %d\n" % tuple(numbers), text.encode(), b"\0"))  # the text encoded once
            results.flush()
        os._exit(0)
    except BrokenPipeError:  # the parent is gone: nobody reads the result, nor a traceback
        pass
    except BaseException:  # KeyboardInterrupt too
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(1)


def _result(chunks: list[bytes]) -> tuple[int, int, int, str]:
    """A partition's result from a worker's bytes, which `chunks` holds and
    gives up: the header line of three counts, the text, and a NUL."""
    data = b"".join(chunks)
    chunks.clear()
    end = data.index(b"\n")  # the header's: the counts hold none
    return (*map(int, data[:end].split()), str(memoryview(data)[end + 1 : -1], "utf-8"))  # one copy of the text


def _run_pooled(tasks: list[tuple], workers: int) -> list[tuple[int, int, int, str]]:
    """Run each partition in `workers` forked processes; results in task order.

    A worker reads one partition index at a time, longest chains first
    (descending n, then ascending first step), and writes back the line
    b"stable certificates records\n", the text encoded once, and a NUL
    (JSON text has none); the parent decodes the text once (_result).
    EOF before the NUL means it died in that partition.  Workers leave by
    os._exit, never flushing the parent's stdio buffers, and none outlives
    this call.
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
                        results[index] = _result(chunks)
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
    own records, in the pool worker that runs it, and the texts are its
    pieces in (n, first step) order whatever the worker count, so reports
    differ only in the timing field, which includes the writing.  With records
    false (nobody reads them) the partitions only count their records and
    the report has no `violations`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers above 1 need os.fork, which this platform lacks; got {workers}")
    started = time.perf_counter()
    steps = enumeration_steps(params.max_rise, params.root_bound)
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

    generated = count_chains((0,), params.n_max, steps, params.root_bound)
    per_n = {str(n): {"generated": generated[n], "admissible": generated[n], "stable": 0} for n in lengths}
    for (n, *_), (stable, *_) in zip(tasks, results):
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
    report["violations"] = json.loads("".join(report["violations"].parts))
    return report
