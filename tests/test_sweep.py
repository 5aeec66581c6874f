"""Sweep harness: counts, violations, worker determinism."""

import json

import pytest

from higgs_threeterm.chain import enumerate_chains, enumeration_steps, extend_chain
from higgs_threeterm.sweep import (
    MODE_NECESSITY,
    MODE_THEOREM,
    SweepParams,
    default_workers,
    run_sweep,
)


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
    steps = enumeration_steps(6)
    for n in (2, 3, 4):
        partitioned = [
            roots for first in steps for roots in extend_chain((0, first), n, steps, root_bound)
        ]
        direct = [
            seq.roots for seq in enumerate_chains(n, n, 6, root_bound, require_stable=False)
        ]
        assert partitioned == direct
        assert all(abs(r) <= root_bound for roots in partitioned for r in roots)


def test_necessity_sweep_finds_the_minimal_witness():
    report = run_sweep(SweepParams(2, 2, 4, 4, MODE_NECESSITY))
    assert report["pass"]
    witnessed = {tuple(v["roots"]) for v in report["violations"]}
    assert (0, 4) in witnessed


def test_worker_determinism():
    params = SweepParams(2, 4, 8, 8)
    single = run_sweep(params, workers=1)
    eight = run_sweep(params, workers=8)
    assert canonical(single) == canonical(eight)


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


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("HIGGS_THREETERM_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("HIGGS_THREETERM_WORKERS", "6")
    assert default_workers() == 6
    for bad in ("junk", "0", "-3", ""):
        monkeypatch.setenv("HIGGS_THREETERM_WORKERS", bad)
        with pytest.raises(ValueError, match="HIGGS_THREETERM_WORKERS"):
            default_workers()
