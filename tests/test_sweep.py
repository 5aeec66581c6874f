"""Sweep harness: counts, violations, worker determinism."""

import copy
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgs_threeterm import cli, pool, serialize, sweep
from higgs_threeterm.chain import (
    RootSequence,
    ThreeTermViolation,
    enumerate_chains,
    enumeration_steps,
    extend_chain,
    multiplicities,
    tail_slopes,
    three_term_holds,
)
from higgs_threeterm.sweep import (
    MODE_NECESSITY,
    MODE_THEOREM,
    SweepParams,
    run_sweep,
)

import stable_counts


def canonical(report: dict) -> str:
    trimmed = {k: v for k, v in report.items() if k != "timing_seconds"}
    return json.dumps(trimmed, sort_keys=True)


def test_small_theorem_sweep():
    report = run_sweep(SweepParams(2, 2, 4, 4))
    assert report["pass"]
    assert report["violations"] == []
    assert report["totals"] == {"generated": 3, "admissible": 3, "stable": 1, "certificates": 2}
    assert report["per_n"] == {"2": {"generated": 3, "admissible": 3, "stable": 1}}


def test_totals_are_consistent():
    report = run_sweep(SweepParams(2, 5, 8, 10))
    totals = report["totals"]
    assert totals["stable"] <= totals["admissible"] <= totals["generated"]
    assert totals["certificates"] > 0
    per_n_sum = {
        key: sum(bucket[key] for bucket in report["per_n"].values())
        for key in ("generated", "admissible", "stable")
    }
    assert per_n_sum == {k: totals[k] for k in per_n_sum}


def test_counts_match_enumeration():
    report = run_sweep(SweepParams(2, 4, 6, 8))
    stable = list(enumerate_chains(2, 4, 6, 8, require_stable=True))
    everything = list(enumerate_chains(2, 4, 6, 8, require_stable=False))
    assert report["totals"]["stable"] == len(stable)
    assert report["totals"]["generated"] == len(everything)


@pytest.mark.parametrize("root_bound", [0, 1, 8])
def test_partitions_cover_enumeration_exactly(root_bound):
    # bounds 0 and 1 put the first step -2 outside the box
    steps = enumeration_steps(6, root_bound)
    for n in (2, 3, 4):
        partitioned = [
            roots for first in steps for roots, _, _ in extend_chain((0, first), n, steps, root_bound)
        ]
        direct = list(enumerate_chains(n, n, 6, root_bound, require_stable=False))
        assert partitioned == direct
        assert all(abs(r) <= root_bound for roots in partitioned for r in roots)


def count_calls(monkeypatch) -> dict:
    """Record every (roots, stable, violated) the sweep's walk yields and
    count every RootSequence built anywhere; the sweep must not call
    tail_slopes."""
    calls = {"yields": [], "RootSequence": 0}
    original_walk, original_new = sweep.extend_chain, RootSequence.__new__

    def refused(roots):
        raise AssertionError("the walk decides stability; the sweep calls no tail_slopes")

    def counted_walk(*args, **kwargs):
        for leaf in original_walk(*args, **kwargs):
            calls["yields"].append(leaf)
            yield leaf

    def counted_new(cls, roots):
        calls["RootSequence"] += 1
        return original_new(cls, roots)

    monkeypatch.setattr(sweep, "extend_chain", counted_walk)
    monkeypatch.setattr(sweep, "tail_slopes", refused)
    monkeypatch.setattr(RootSequence, "__new__", staticmethod(counted_new))
    return calls


def test_the_counter_counts_each_root_sequence_built(monkeypatch, capsys):
    # without this, the == 0 counts below would pass on a counter that counts nothing
    calls = count_calls(monkeypatch)
    assert cli.main(["check", "--roots", "0,-2"]) == 0
    assert calls["RootSequence"] == 1
    assert json.loads(capsys.readouterr().out)["roots"] == [0, -2]


def test_theorem_walk_yields_only_the_stable_chains(monkeypatch):
    # the theorem-wide box: 67,739 chains, 104 stable; the walk hands over exactly those
    calls = count_calls(monkeypatch)
    report = run_sweep(SweepParams(2, 8, 16, 20))
    assert report["totals"]["generated"] == 67739
    assert report["totals"]["stable"] == 104
    assert len(calls["yields"]) == 104
    assert all(stable and tail_slopes(roots).is_stable for roots, stable, _ in calls["yields"])


def test_necessity_walk_yields_each_chain_once_and_builds_no_root_sequence(monkeypatch):
    # the walk hands over each stable chain and each witness once, and no other chain
    calls = count_calls(monkeypatch)
    report = run_sweep(SweepParams(2, 7, 6, 3, MODE_NECESSITY))
    assert report["violations"]
    assert calls["RootSequence"] == 0
    yielded = [roots for roots, _, _ in calls["yields"]]
    assert len(yielded) == len(set(yielded))
    assert sum(stable for _, stable, _ in calls["yields"]) == report["totals"]["stable"]
    # brute force, per chain from a RootSequence: the stable chains and the witnesses, in partition order
    everything = list(enumerate_chains(2, 7, 6, 3, require_stable=False))
    assert len(everything) == report["totals"]["generated"]
    verdicts = {}
    for roots in everything:
        seq = RootSequence(roots)
        _, found = three_term_holds(multiplicities(seq).counts)
        verdicts[roots] = (tail_slopes(seq).is_stable, tuple(v.height for v in found))
    # one walk per first step, depth first: a chain before its extensions, so
    # the walks together hand the chains over in lexicographic order
    assert calls["yields"] == [(roots, *verdicts[roots]) for roots in sorted(everything) if any(verdicts[roots])]
    assert all(not stable and not violated for stable, violated in (verdicts[roots] for roots in set(everything) - set(yielded)))
    # one record per violated height of each unstable chain, as the walk decided it,
    # in the report's (length, roots) order
    witnessed = sorted(((roots, violated) for roots, stable, violated in calls["yields"] if not stable), key=lambda w: (len(w[0]), w[0]))
    assert all(violated for _, violated in witnessed)
    assert [(list(roots), len(violated)) for roots, violated in witnessed] == [
        (roots, len(list(records))) for roots, records in itertools.groupby(r["roots"] for r in report["violations"])
    ]


def test_necessity_walk_hands_over_only_stable_chains_and_witnesses_on_the_benchmark_box(monkeypatch):
    # of 18,848 chains, 249 are stable and 8,458 unstable witnesses; the 10,141
    # unstable chains that hold the inequality never leave the walk
    calls = count_calls(monkeypatch)
    report = sweep.written_report(SweepParams(2, 9, 10, 10, MODE_NECESSITY), records=False)
    assert report["totals"]["generated"] == 18848
    assert report["totals"]["stable"] == 249
    assert len(calls["yields"]) == 249 + 8458
    assert sum(not stable and bool(violated) for _, stable, violated in calls["yields"]) == 8458


@pytest.mark.parametrize("write", [True, False])
def test_necessity_sweep_calls_no_three_term_holds(monkeypatch, write):
    # the walk decides each chain's violations; JSON and the CSV count path alike
    def refused(counts):
        raise AssertionError("the walk decides the three-term verdict; necessity calls no three_term_holds")

    monkeypatch.setattr(sweep, "three_term_holds", refused)
    report = sweep.written_report(SweepParams(2, 9, 10, 10, MODE_NECESSITY), records=write)
    assert report["pass"]
    assert report["totals"]["generated"] == 18848


def test_theorem_sweep_builds_no_root_sequence(monkeypatch):
    # each stable chain goes to pairing, and to its checker, as its root tuple
    calls = count_calls(monkeypatch)
    report = run_sweep(SweepParams(2, 7, 6, 3))
    assert report["totals"]["stable"] > 0 and report["totals"]["certificates"] > 0
    assert calls["RootSequence"] == 0
    assert not hasattr(sweep, "RootSequence")


def old_global_key(record: dict) -> tuple:
    """The sort key the whole violation list was once sorted by."""
    detail = json.dumps(record["detail"], sort_keys=True)
    return (len(record["roots"]), record["roots"], record["kind"], detail)


def brute_force_necessity(n: int, first_step: int, max_rise: int, bound: int) -> tuple[int, list[dict]]:
    """One partition's (stable, violations), rebuilt per chain from a RootSequence
    and sorted by the old global key."""
    stable, records = 0, []
    for roots, _, _ in extend_chain((0, first_step), n, enumeration_steps(max_rise, bound), bound):
        seq = RootSequence(roots)
        if tail_slopes(seq).is_stable:
            stable += 1
            continue
        _, found = three_term_holds(multiplicities(seq).counts)
        records += [{"roots": list(roots), "kind": "three-term", "detail": v._asdict()} for v in found]
    return stable, sorted(records, key=old_global_key)


@pytest.mark.parametrize("max_rise", [2, 4, 6])
# bounds 10 and 12 give two-digit and negative two-digit heights and counts,
# where the records' text order differs from numeric order
@pytest.mark.parametrize("bound", [0, 1, 3, 5, 8, 10, 12])
def test_necessity_partition_matches_brute_force(max_rise, bound):
    # one partition per first step, n 2-7, gives each length's counts and text
    for first_step in enumeration_steps(max_rise, bound):
        task = (2, 7, first_step, max_rise, bound, MODE_NECESSITY)
        written, counted = sweep._run_partition((*task, True)), sweep._run_partition((*task, False))
        assert len(written) == len(counted) == 6
        for n, (stable, certificates, records, text), only_counted in zip(range(2, 8), written, counted):
            expected_stable, expected = brute_force_necessity(n, first_step, max_rise, bound)
            assert (stable, records, text) == (expected_stable, len(expected), serialize.write_items(expected))
            assert certificates == 0
            assert only_counted == (stable, 0, len(expected), "")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([MODE_THEOREM, MODE_NECESSITY]),
    st.integers(2, 7),
    st.sampled_from([2, 4, 6]),
    st.integers(0, 10),
    st.booleans(),
    st.data(),
)
def test_each_partition_counts_the_records_it_writes(mode, n, max_rise, bound, failing, data):
    # records is the number of records in text, and a partition that only
    # counts returns the same numbers with "", for each of its lengths: one
    # in theorem mode, n_min..n in necessity mode.  Real theorem boxes have
    # no records, so a failing checker gives each stable chain some
    first_step = data.draw(st.sampled_from(enumeration_steps(max_rise, bound)))
    n_min = n if mode == MODE_THEOREM else data.draw(st.integers(2, n))
    task = (n_min, n, first_step, max_rise, bound, mode)
    with pytest.MonkeyPatch.context() as patch:
        if failing:
            patch.setattr(sweep, "verify_certificate", lambda roots, r, targets: (False, ["injectivity"]))
        written = sweep._run_partition((*task, True))
        assert len(written) == n - n_min + 1
        assert all(records == len(json.loads(f"[{text}]")) for _, _, records, text in written)
        assert sweep._run_partition((*task, False)) == [(*counts, "") for *counts, _ in written]


def dict_report(params: SweepParams) -> dict:
    """The report without its timing, built chain by chain as dicts, with no
    partitions and no text, and sorted by the old global key."""
    per_n, certificates, violations = {}, 0, []
    for n in range(params.n_min, params.n_max + 1):
        chains = list(enumerate_chains(n, n, params.max_rise, params.root_bound, require_stable=False))
        stable = 0
        for roots in chains:
            counts = multiplicities(RootSequence(roots)).counts
            if tail_slopes(roots).is_stable:
                stable += 1
                if params.mode == MODE_THEOREM:
                    found, heights = sweep._check_stable_chain(roots, counts)
                    violations += [{"roots": list(roots), "kind": kind, "detail": detail} for kind, detail in found]
                    certificates += heights
            elif params.mode == MODE_NECESSITY:
                _, found = three_term_holds(counts)
                violations += [{"roots": list(roots), "kind": "three-term", "detail": v._asdict()} for v in found]
        per_n[str(n)] = {"generated": len(chains), "admissible": len(chains), "stable": stable}
    totals = {key: sum(bucket[key] for bucket in per_n.values()) for key in ("generated", "admissible", "stable")}
    return {
        "parameters": {
            "n_min": params.n_min,
            "n_max": params.n_max,
            "max_rise": params.max_rise,
            "root_bound": params.root_bound,
            "mode": params.mode,
        },
        "totals": {**totals, "certificates": certificates},
        "per_n": per_n,
        "violations": sorted(violations, key=old_global_key),
        "pass": (params.mode == MODE_THEOREM) == (not violations),
    }


@pytest.mark.parametrize("mode", [MODE_THEOREM, MODE_NECESSITY])
@pytest.mark.parametrize("max_rise", [2, 4, 6])
def test_written_reports_match_the_dict_report(mode, max_rise, tmp_path, time_bound):
    # the CLI's text is dumps of the dict report, and run_sweep's dicts are
    # the dict report, with 1 and 2 workers, on every box n 2-7, bound 0-9
    path = tmp_path / "report.json"
    for bound in range(10):
        params = SweepParams(2, 7, max_rise, bound, mode)
        expected = dict_report(params)
        for workers in ("1", "2"):
            report = run_sweep(params, int(workers))
            del report["timing_seconds"]
            assert report == expected
            argv = ["sweep", "--n-max", "7", "--max-rise", str(max_rise), "--bound", str(bound)]
            cli.main([*argv, "--mode", mode, "--workers", workers, "--out", str(path)])
            text = path.read_text()
            timed = {**expected, "timing_seconds": json.loads(text)["timing_seconds"]}
            assert text == serialize.dumps(timed) + "\n"


@pytest.mark.parametrize("mode", [MODE_THEOREM, MODE_NECESSITY])
@pytest.mark.parametrize("fails", [False, True])
def test_a_report_without_records_keeps_the_counts_and_pass(mode, fails, monkeypatch, tmp_path, time_bound):
    # the CSV path: the partitions count their records and write none.  A
    # necessity sweep at bound 0 finds no witness; a theorem sweep fails when
    # every stable chain reports a violation (the forked workers inherit it)
    if fails and mode == MODE_THEOREM:
        record = ("tail-order", {"first": 0, "last": 0})
        monkeypatch.setattr(sweep, "_check_stable_chain", lambda roots, counts: ([record], 1))
    bound = 0 if fails and mode == MODE_NECESSITY else 6
    params = SweepParams(2, 6, 4, bound, mode)
    for workers in (1, 2):
        written = sweep.written_report(params, workers)
        counted = sweep.written_report(params, workers, records=False)
        found = "".join(serialize.strings(written.pop("violations").parts)) != "[]"
        assert found == (fails == (mode == MODE_THEOREM))
        del written["timing_seconds"], counted["timing_seconds"]
        assert counted == written
        assert counted["pass"] is not fails
        rc = {}
        for form in ("json", "csv"):
            argv = ["sweep", "--n-max", "6", "--max-rise", "4", "--bound", str(bound), "--mode", mode]
            rc[form] = cli.main([*argv, "--workers", str(workers), "--format", form, "--out", str(tmp_path / form)])
        assert rc == {"json": int(fails), "csv": int(fails)}


def test_records_of_one_chain_sort_by_the_old_global_key():
    roots = (0, 4, 2, 0)

    def three_term(height, count, below, above):
        return ("three-term", {"height": height, "count": count, "below": below, "above": above})

    found = [
        three_term(0, 12, 0, 2),
        three_term(6, 12, 0, 10),
        three_term(4, 1, 0, 0),  # the next five tie on every field but the height
        three_term(-2, 1, 0, 0),
        three_term(10, 1, 0, 0),
        three_term(2, 1, 0, 0),
        three_term(20, 1, 0, 0),
        ("tail-order", {"first": 0, "last": 4}),
        ("certificate-verify", {"height": 2, "reasons": ["injectivity"]}),
    ]
    records = [{"roots": list(roots), "kind": kind, "detail": detail} for kind, detail in found]
    written = serialize.theorem_items([(roots, found)])
    assert written == serialize.write_items(sorted(records, key=old_global_key))
    # numbers compare as JSON text: "above" 0 < 10 < 2, and a height is
    # followed by "}", so 20 comes before 2
    assert [(r["kind"], r["detail"].get("height")) for r in json.loads(f"[{written}]")] == [
        ("certificate-verify", 2),
        ("tail-order", None),
        ("three-term", -2),
        ("three-term", 10),
        ("three-term", 20),
        ("three-term", 2),
        ("three-term", 4),
        ("three-term", 6),
        ("three-term", 0),
    ]
    assert serialize.theorem_items([(roots, found[:1])]) == serialize.write_items(records[:1])


# negative, zero and multi-digit fields, so text order and numeric order differ
NUMBERS = st.integers(-150, 150)
VIOLATIONS = st.lists(st.builds(ThreeTermViolation, NUMBERS, NUMBERS, NUMBERS, NUMBERS), min_size=1, max_size=6)
CHAINS = st.lists(st.tuples(st.lists(NUMBERS, min_size=1, max_size=9).map(tuple), VIOLATIONS), max_size=4)


@settings(max_examples=200, deadline=None)
@given(CHAINS)
def test_necessity_records_from_the_template_match_the_dict_records(chains):
    # the template sorts each chain's violations by its text key; against
    # dict records sorted by the old global key, and against theorem_items
    records, items = [], []
    for roots, found in chains:
        dicts = [{"roots": list(roots), "kind": "three-term", "detail": v._asdict()} for v in found]
        records += sorted(dicts, key=old_global_key)
        items.append(serialize.three_term_items(len(roots), [x for v in serialize.three_term_order(found) for x in (*roots, *v)]))
    written = serialize.ITEM_SEPARATOR.join(items)
    assert written == serialize.write_items(records)
    as_found = [(roots, [("three-term", v._asdict()) for v in found]) for roots, found in chains]
    assert written == serialize.theorem_items(as_found)


def test_necessity_sweep_finds_the_minimal_witness():
    report = run_sweep(SweepParams(2, 2, 4, 4, MODE_NECESSITY))
    assert report["pass"]
    witnessed = {tuple(v["roots"]) for v in report["violations"]}
    assert (0, 4) in witnessed


def test_worker_determinism(time_bound):
    params = SweepParams(2, 4, 8, 8)
    single = run_sweep(params, workers=1)
    eight = run_sweep(params, workers=8)
    assert canonical(single) == canonical(eight)


def counting_forks(monkeypatch) -> list[int]:
    """Wrap os.fork so the parent records the pid of each worker it forks."""
    forks: list[int] = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")


@needs_fork
@pytest.mark.parametrize(
    ("n_max", "max_rise", "workers", "pools"),
    [(2, 2, 64, [1]), (3, 2, 64, [3]), (2, 2, 1, []), (2, 4, 2, [1])],
)
def test_worker_pool_never_exceeds_partitions(monkeypatch, n_max, max_rise, workers, pools, time_bound):
    # `pools` lists the forks of each pool the sweep starts (one at most): the
    # parent runs partitions too, so N workers fork N - 1, and 64 workers on
    # a box of two partitions fork one
    forks = counting_forks(monkeypatch)
    params = SweepParams(2, n_max, max_rise, 2)
    report = run_sweep(params, workers=workers)
    assert len(forks) == sum(pools)
    assert canonical(report) == canonical(run_sweep(params, workers=1))


@needs_fork
def test_a_necessity_pool_forks_one_worker_less_than_its_first_steps(monkeypatch, time_bound):
    # a necessity partition is a first step with every length: rise 4 has three
    forks = counting_forks(monkeypatch)
    params = SweepParams(2, 5, 4, 4, MODE_NECESSITY)
    report = run_sweep(params, workers=64)
    assert len(forks) == 2
    assert canonical(report) == canonical(run_sweep(params, workers=1))


@needs_fork
def test_pool_takes_the_longest_chains_first(monkeypatch, tmp_path, time_bound):
    # A pool that forks nothing runs every partition in this process, in the
    # order the pool hands them out; each appends its lengths and first step
    # to a file the test reads.  A necessity partition holds every length
    log = tmp_path / "handed-out"
    run_partition, run_pooled = sweep._run_partition, pool.run

    def logged(task):
        with open(log, "a") as handle:
            handle.write("%d %d %d\n" % task[:3])
        return run_partition(task)

    monkeypatch.setattr(sweep, "_run_partition", logged)
    monkeypatch.setattr(pool, "run", lambda tasks, workers, partition: run_pooled(tasks, 1, partition))
    expected = {
        MODE_THEOREM: [(n, n, first) for n in (4, 3, 2) for first in (-2, 2, 4)],
        MODE_NECESSITY: [(2, 4, -2), (2, 4, 2), (2, 4, 4)],
    }
    for mode, order in expected.items():
        log.write_text("")
        run_sweep(SweepParams(2, 4, 4, 4, mode), workers=2)
        assert [tuple(map(int, line.split())) for line in log.read_text().splitlines()] == order


def only_in_a_worker(partition):
    """`partition`, made to fail the test instead when this process runs it:
    a partition patched to exit must never run in the test process."""
    tester = os.getpid()

    def guarded(task):
        if os.getpid() == tester:
            raise AssertionError(f"the test process ran partition {task[:3]}")
        return partition(task)

    return guarded


@needs_fork
def test_dead_worker_names_its_partition(monkeypatch, time_bound):
    # The forked workers inherit the patch, and the first partitions handed
    # out go to them: first steps -2 and 2.  -2 sleeps, so the pool stops its
    # worker in the middle of it when the worker running 2 dies; only 2 is
    # named, with the lengths its partition covers.  This process runs 4 and 6
    original = sweep._run_partition

    @only_in_a_worker
    def dies_in_two(task):
        time.sleep(0.05 if task[2] == 2 else 0.5)
        if task[2] == 2:
            os._exit(3)
        return original(task)

    def patched(task):
        return dies_in_two(task) if task[2] in (-2, 2) else original(task)

    monkeypatch.setattr(sweep, "_run_partition", patched)
    with pytest.raises(sweep.WorkerDied, match=r"^sweep worker died in partition \(n=2\.\.6, first step=2\)$"):
        run_sweep(SweepParams(2, 6, 6, 8, MODE_NECESSITY), workers=3)
    assert_no_child_left()


@needs_fork
def test_partition_that_raises_names_its_partition(monkeypatch, capfd, time_bound):
    # (4, -2) is handed out first, so a forked worker runs it
    original = sweep._run_partition

    @only_in_a_worker
    def raises(task):
        raise RuntimeError("no such partition")

    monkeypatch.setattr(sweep, "_run_partition", lambda task: raises(task) if task[1:3] == (4, -2) else original(task))
    with pytest.raises(sweep.WorkerDied, match=r"^sweep worker died in partition \(n=4, first step=-2\)$"):
        run_sweep(SweepParams(2, 4, 4, 6), workers=2)
    assert_no_child_left()
    assert "RuntimeError: no such partition" in capfd.readouterr().err


@needs_fork
@pytest.mark.parametrize("mode", [MODE_THEOREM, MODE_NECESSITY])
def test_partition_that_raises_in_the_parent_propagates(monkeypatch, mode, time_bound):
    # as with one worker: the exception itself, and the workers are ended.
    # Rise 8 has five first steps: by the time this process takes its first
    # partition, its two workers can have taken at most four
    original, tester = sweep._run_partition, os.getpid()

    def raises_here(task):
        if os.getpid() == tester:
            raise RuntimeError("in the parent")
        return original(task)

    monkeypatch.setattr(sweep, "_run_partition", raises_here)
    for workers in (1, 2, 3):
        with pytest.raises(RuntimeError, match="^in the parent$"):
            run_sweep(SweepParams(2, 4, 8, 6, mode), workers=workers)
        assert_no_child_left()


@needs_fork
def test_worker_whose_parent_is_gone_leaves_quietly(tmp_path, time_bound):
    # the parent was killed: nobody holds the result pipe's read end, so the
    # worker's write fails with EPIPE; it exits nonzero and prints nothing
    tasks = [(2, 4, -2, 4, 6, MODE_NECESSITY, True)]
    (orders, order_end), (result_end, out) = os.pipe(), os.pipe()
    os.write(order_end, (0).to_bytes(4, "little"))
    os.close(order_end)
    os.close(result_end)
    stderr = tmp_path / "stderr"
    spill = pool._spill_file()
    if (pid := os.fork()) == 0:
        try:
            os.dup2(os.open(stderr, os.O_WRONLY | os.O_CREAT), 2)
            pool._work(tasks, sweep._run_partition, orders, out, set(), spill)
        finally:
            os._exit(3)  # never return into pytest
    os.close(orders)
    os.close(out)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1
    assert stderr.read_bytes() == b""
    assert os.fstat(spill.fd).st_size > 0  # it had spilled its text before the write


@needs_fork
def test_pooled_sweep_leaves_no_child(time_bound):
    run_sweep(SweepParams(2, 5, 4, 6, MODE_NECESSITY), workers=3)
    assert_no_child_left()


@needs_fork
def test_partition_larger_than_a_pipe_buffer(time_bound):
    # first step -2 writes about 100 KB of records at n = 8, more than a
    # 64 KB pipe buffer holds; it is handed out first, so a forked worker
    # writes it to its spill file, and the report reads it back
    params = SweepParams(2, 8, 6, 8, MODE_NECESSITY)
    assert len(sweep._run_partition((2, 8, -2, 6, 8, MODE_NECESSITY, True))[-1][3]) > 1 << 16
    parts = sweep.written_report(params, workers=2)["violations"].parts
    assert max(part.size for part in parts if isinstance(part, pool.Spilled)) > 1 << 16
    assert canonical(run_sweep(params, workers=2)) == canonical(run_sweep(params, workers=1))


def test_a_spilled_text_reads_back_in_bounded_chunks(monkeypatch):
    spill = pool._spill_file()
    os.write(spill.fd, b"0123456789abcdef")
    monkeypatch.setattr(serialize, "CHUNK", 4)
    assert list(pool.Spilled(spill, 3, 10).chunks()) == ["3456", "789a", "bc"]
    assert list(pool.Spilled(spill, 0, 0).chunks()) == []
    with pytest.raises(OSError, match="^spill file ends at byte 16, before 20$"):
        list(pool.Spilled(spill, 12, 8).chunks())


def open_descriptors() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts this process's descriptors in /proc")
def test_no_spill_file_outlives_the_run(monkeypatch, tmp_path, capsys, time_bound):
    # spill files go to the temporary directory, each unlinked as soon as it
    # is made and closed with the report: after a run, a refusal and a dead
    # worker the directory is empty and no descriptor is left open
    import tempfile

    spills = tmp_path / "spills"
    spills.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    made = []
    mkstemp = tempfile.mkstemp

    def recorded(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        made.append(path)
        return fd, path

    monkeypatch.setattr(tempfile, "mkstemp", recorded)
    box = ["sweep", "--mode", "necessity", "--n-max", "6", "--max-rise", "6", "--bound", "8"]
    before = open_descriptors()
    for workers in ("2", "3"):
        assert cli.main([*box, "--workers", workers, "--out", str(tmp_path / "report.json")]) == 0
    assert len(made) == 3 and all(Path(path).parent == spills for path in made)
    assert cli.main([*box, "--workers", "2", "--out", str(tmp_path / "missing" / "report.json")]) == 2

    original = sweep._run_partition

    @only_in_a_worker
    def dies(task):
        os._exit(3)

    monkeypatch.setattr(sweep, "_run_partition", lambda task: dies(task) if task[2] == -2 else original(task))
    assert cli.main([*box, "--workers", "2", "--out", str(tmp_path / "died.json")]) == 2
    assert capsys.readouterr().err.endswith("error: sweep worker died in partition (n=2..6, first step=-2)\n")
    assert len(made) == 4
    assert list(spills.iterdir()) == []
    assert open_descriptors() == before


def test_parameter_validation():
    with pytest.raises(ValueError):
        SweepParams(1, 3, 4, 4)
    with pytest.raises(ValueError):
        SweepParams(2, 3, 5, 4)
    with pytest.raises(ValueError):
        SweepParams(2, 3, 4, -2)
    with pytest.raises(ValueError):
        SweepParams(2, 3, 4, 4, "nonsense")
    with pytest.raises(ValueError):
        run_sweep(SweepParams(2, 2, 4, 4), workers=0)


@pytest.mark.parametrize("workers", [True, 2.5, "2"])
def test_written_report_refuses_workers_that_are_not_an_int(workers):
    # True would run as one worker, 2.5 fail inside the pool and "2" at the comparison
    with pytest.raises(ValueError, match=f"^workers must be an integer, got {re.escape(repr(workers))}$"):
        sweep.written_report(SweepParams(2, 2, 4, 4), workers)


def test_params_are_immutable():
    params = SweepParams(2, 3, 4, 4)
    with pytest.raises(AttributeError):  # the text is CPython's
        params.n_max = 9
    with pytest.raises(AttributeError):
        params.extra = 1
    assert params.n_max == 3
    assert params == (2, 3, 4, 4, "theorem") and hash(params) == hash((2, 3, 4, 4, "theorem"))
    assert params._asdict() == run_sweep(params)["parameters"]
    for back in (copy.copy(params), copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert type(back) is SweepParams and back == params


@pytest.mark.parametrize(
    ("field", "bad", "message"),
    [
        ("root_bound", True, "root_bound must be an integer, got True"),
        ("n_max", 3.0, "n_max must be an integer, got 3.0"),
        ("root_bound", -2, "root_bound must be >= 0, got -2"),
        ("mode", "nonsense", "unknown sweep mode 'nonsense'"),
    ],
)
def test_replace_and_make_run_the_params_checks(field, bad, message):
    # a named tuple's own _make is tuple.__new__, which would build the params unchecked;
    # SweepParams(2, 3, 2, True) wrote "root_bound": true, which the schema refuses, and
    # SweepParams(2, 3.0, 2, 2) raised a TypeError from range() in written_report
    params = SweepParams(2, 3, 2, 2)
    assert params._replace() == params and type(SweepParams._make(params)) is SweepParams
    fields = [bad if name == field else value for name, value in params._asdict().items()]
    for build in (lambda: params._replace(**{field: bad}), lambda: SweepParams._make(fields), lambda: SweepParams(*fields)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


# sha256 of the report as the CLI writes it, timing_seconds removed; the
# last box has 571 necessity violations, so the violation sort is pinned too
PINNED_REPORTS = {
    ((2, 7, 6, 3), MODE_THEOREM): "db698d031e3f3170168234e343f0f9adad5c721a77fa5d11438130adb75f1fb0",
    ((2, 7, 6, 3), MODE_NECESSITY): "6348040de25f7571dc5a4f6d849a38f1d515abd49d3e2bd49b084e93c9ec4047",
    ((2, 9, 2, 5), MODE_THEOREM): "d0d8cb0dd7fcbff0f543d5daa97799b089803128156b6a3948fa03990b7ddc1d",
    ((2, 9, 2, 5), MODE_NECESSITY): "784dcafb8d479ca1e1c78119589280a2bb198db60b6d85162fb7a3ab1611a20d",
    ((2, 6, 8, 10), MODE_THEOREM): "9f8cfe9f18d3427700430108dbfae21a3f15652db312e6fe354aba0e3bd01a3f",
    ((2, 6, 8, 10), MODE_NECESSITY): "8e74b051e9154cb03bda1dd941dba75ff1424f5a58971ad30f4fac07fbc4736b",
}


@pytest.mark.parametrize(("box", "mode"), list(PINNED_REPORTS))
def test_report_bytes_are_pinned(box, mode):
    report = run_sweep(SweepParams(*box, mode))
    del report["timing_seconds"]
    text = json.dumps(report, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[box, mode]


# sha256 of the CLI's theorem report on n 2-6, rise <= 4, |r| <= 10, timing
# removed, when every certificate fails its check: 83 theorem records
PINNED_THEOREM_RECORDS = "bf0811d0edfbcda8be8597127f479df8ffe664d7791e626a834029e7417203a7"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_theorem_record_bytes_are_pinned(workers, monkeypatch, tmp_path, time_bound):
    # real boxes give no theorem records; a failing checker gives one per
    # height and a route disagreement per stable chain (the workers inherit it)
    monkeypatch.setattr(sweep, "verify_certificate", lambda roots, r, targets: (False, ["injectivity"]))
    path = tmp_path / "report.json"
    argv = ["sweep", "--n-max", "6", "--max-rise", "4", "--bound", "10", "--workers", workers]
    assert cli.main([*argv, "--out", str(path)]) == 1
    text = path.read_text()
    records = json.loads(text)["violations"]
    # a chain's records sort by their detail's text: heights -10, -2, ..., -8, 0
    heights = [v["detail"].get("height") for v in records if v["roots"] == [0, -2, -4, -6, -8, -10]]
    assert heights == [-10, -2, -4, -6, -8, 0, None]
    trimmed = "".join(line for line in text.splitlines(True) if '"timing_seconds":' not in line)
    assert hashlib.sha256(trimmed.encode()).hexdigest() == PINNED_THEOREM_RECORDS


def test_stable_chain_check_records_every_kind():
    # (0, 4) is not stable, so every counting and build check fires on it
    found, heights = sweep._check_stable_chain((0, 4), {0: 1, 4: 1})
    unmatched = "no trailing drop and no r+2 vertex before the leftmost source"
    expected = [
        ("three-term", {"height": 0, "count": 1, "below": 0, "above": 0}),
        ("three-term", {"height": 4, "count": 1, "below": 0, "above": 0}),
        ("tail-order", {"first": 0, "last": 4}),
        ("certificate-build", {"roots": [0, 4], "height": 0, "source": 1, "reason": unmatched}),
        ("certificate-build", {"roots": [0, 4], "height": 4, "source": 2, "reason": unmatched}),
    ]
    assert heights == 2
    # compared as JSON text, so the key order of every detail is pinned too
    assert json.dumps(found) == json.dumps(expected)


def test_stable_chain_check_records_bad_certificates(monkeypatch):
    # a pairing that leaves both vertices unpaired, and no build failure
    monkeypatch.setattr(sweep, "certify", lambda roots: ((None, None), {}))
    found, heights = sweep._check_stable_chain((0, -2), {0: 1, -2: 1})
    assert heights == 2
    # the checker reports a height-r vertex without a target as source coverage
    assert json.dumps(found) == json.dumps([
        ("certificate-verify", {"height": -2, "reasons": ["source coverage"]}),
        ("certificate-verify", {"height": 0, "reasons": ["source coverage"]}),
        ("route-disagreement", {"counting": True, "certificates": False}),
    ])


def test_the_checker_runs_once_per_certificate(monkeypatch):
    # the traced benchmark gate counts sweep.verify_certificate calls against
    # totals["certificates"]: one call per realized height of every stable chain
    heights = []
    check = sweep.verify_certificate

    def counting_check(roots, r, targets):
        heights.append((roots, r))
        return check(roots, r, targets)

    monkeypatch.setattr(sweep, "verify_certificate", counting_check)
    report = run_sweep(SweepParams(2, 9, 2, 9), workers=1)
    assert report["pass"]
    assert len(heights) == report["totals"]["certificates"] == 478
    stable = list(enumerate_chains(2, 9, 2, 9, require_stable=True))
    assert heights == [(roots, r) for roots in stable for r in sorted(set(roots))]


# --- an independent count of the stable chains ------------------------------------------
#
# stable_counts counts the chains of a box by a dynamic program that shares
# no code with the walk; its per-length counts must equal the report's


def reported_counts(box: tuple) -> dict:
    """The report's per_n for box, cut to the two counts stable_counts makes."""
    report = sweep.written_report(SweepParams(*box), records=False)
    return {n: {k: bucket[k] for k in ("generated", "stable")} for n, bucket in report["per_n"].items()}


@pytest.mark.parametrize(
    "box",
    [
        (2, 7, 12, 12, MODE_THEOREM),  # box A
        (2, 8, 16, 20, MODE_THEOREM),  # the theorem-wide benchmark box
        (2, 13, 2, 13, MODE_THEOREM),  # the theorem-dense benchmark box
        (2, 9, 10, 10, MODE_NECESSITY),  # the necessity benchmark box
        (2, 9, 16, 20, MODE_THEOREM),  # box B
    ],
    ids=["box-a", "theorem-wide", "theorem-dense", "necessity", "box-b"],
)
def test_per_n_equals_the_independent_count(box):
    assert reported_counts(box) == stable_counts.per_n(*box[:4])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([MODE_THEOREM, MODE_NECESSITY]),
    st.integers(2, 7),
    st.integers(0, 3),
    st.sampled_from([2, 4, 6, 8]),
    st.integers(0, 11),
)
def test_per_n_equals_the_independent_count_on_small_boxes(mode, n_min, extra, max_rise, bound):
    box = (n_min, n_min + extra, max_rise, bound, mode)
    assert reported_counts(box) == stable_counts.per_n(*box[:4])


def test_the_independent_count_reads_a_written_report(tmp_path):
    # the command line CI runs on box C's report: exit 0 on equal stable counts, 1 otherwise
    report = sweep.written_report(SweepParams(2, 7, 12, 12), records=False)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(report), encoding="utf-8")
    report["per_n"]["5"]["stable"] += 1
    bad.write_text(json.dumps(report), encoding="utf-8")
    assert stable_counts.main([str(good)]) == 0
    assert stable_counts.main([str(good), str(bad)]) == 1


def test_the_independent_count_imports_nothing_from_the_package():
    # a fresh interpreter that imports it has loaded no module of the package
    tests = str(Path(__file__).resolve().parent)
    probe = (
        f"import sys; sys.path.insert(0, {tests!r}); import stable_counts; "
        "print([m for m in sys.modules if m.split('.')[0] == 'higgs_threeterm'])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
