"""scripts/bench_pairs.py on synthetic run records: no process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"wall_vs_ref": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
CONTEXT = {"workload": "necessity", "seed": 1, "git_sha": None, "python": "3.11.7", "nproc": 2}


def stdout_of(metrics: dict, correct=True, failed=0) -> str:
    """The first and last lines perfbench/run.py prints, with a table between."""
    result = {
        "correct": correct,
        "attempted": 12,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "?"} for name, value in metrics.items()},
    }
    return "\n".join([json.dumps({"context": CONTEXT}), "  necessity  wall_vs_ref  0.7 ratio", json.dumps(result)])


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the test started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_a_correct_run_is_read():
    context, metrics = bench_pairs.parse_run(stdout_of({"wall_vs_ref": 0.7, "setup_s": 0.08}))
    assert context == CONTEXT
    assert metrics == {"wall_vs_ref": 0.7, "setup_s": 0.08}


@pytest.mark.parametrize(
    "stdout",
    [
        stdout_of({"wall_vs_ref": 0.7}, correct=False),
        stdout_of({"wall_vs_ref": 0.7}, failed=1),
        stdout_of({"wall_vs_ref": 0.7}, correct="true"),
        json.dumps({"context": CONTEXT}),
        "",
        "error: something\n",
    ],
)
def test_a_run_that_is_not_correct_with_none_failed_is_refused(stdout):
    with pytest.raises(bench_pairs.RunRefused):
        bench_pairs.parse_run(stdout)


def pair(parent: float, change: float) -> dict:
    return {
        "parent": {"wall_vs_ref": parent, "peak_rss_mb": 45.9, "setup_s": 0.08},
        "change": {"wall_vs_ref": change, "peak_rss_mb": 45.9, "setup_s": 0.07},
    }


def test_summary_medians_quartiles_and_wins():
    parents = [0.70, 0.72, 0.74, 0.76, 0.78]
    changes = [0.60, 0.62, 0.80, 0.64, 0.66]  # the change loses the third pair
    summary = bench_pairs.summarize([pair(p, c) for p, c in zip(parents, changes)], BETTER)
    wall = summary["wall_vs_ref"]
    assert wall["parent"] == pytest.approx({"median": 0.74, "q1": 0.72, "q3": 0.76})
    assert wall["change"] == pytest.approx({"median": 0.64, "q1": 0.62, "q3": 0.66})
    assert (wall["change_wins"], wall["pairs"], wall["better"]) == (4, 5, "lower")
    assert wall["gain_beyond_parent_iqr"] is True  # 0.10 against 0.04
    # equal readings are ties: they count for neither side
    assert summary["peak_rss_mb"]["change_wins"] == 0
    assert summary["peak_rss_mb"]["gain_beyond_parent_iqr"] is False
    assert summary["setup_s"]["change_wins"] == 5


def test_summary_for_a_metric_where_higher_is_better():
    pairs = [{"parent": {"rate": p}, "change": {"rate": c}} for p, c in [(1, 2), (2, 1), (3, 5), (4, 4)]]
    summary = bench_pairs.summarize(pairs, {"rate": "higher"})["rate"]
    assert summary["change_wins"] == 2
    assert summary["gain_beyond_parent_iqr"] is False  # 0.5 against 1.5


def test_a_change_within_the_noise_is_no_gain():
    pairs = [pair(p, p - 0.001) for p in (0.70, 0.74, 0.78, 0.82)]
    wall = bench_pairs.summarize(pairs, BETTER)["wall_vs_ref"]
    assert wall["change_wins"] == 4
    assert wall["gain_beyond_parent_iqr"] is False


def fake_runs(monkeypatch, readings: dict) -> list:
    """Stand in for perfbench: each side's tree reads its next wall_vs_ref."""
    calls = []

    def run_perfbench(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        return stdout_of({"wall_vs_ref": readings[tree.name].pop(0), "peak_rss_mb": 45.9, "setup_s": 0.08})

    monkeypatch.setattr(bench_pairs, "run_perfbench", run_perfbench)
    return calls


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path):
    calls = fake_runs(monkeypatch, {"parent": [0.7, 0.8, 0.9], "change": [0.6, 0.7, 1.0]})
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    context, pairs = bench_pairs.run_pairs(trees, "necessity", 3, 12)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]
    assert [(p["seed"], p["first"]) for p in pairs] == [(1, "parent"), (2, "change"), (3, "parent")]
    assert [(p["parent"]["wall_vs_ref"], p["change"]["wall_vs_ref"]) for p in pairs] == [
        (0.7, 0.6), (0.8, 0.7), (0.9, 1.0)
    ]
    assert context == CONTEXT


def fake_git(monkeypatch, shas: dict, out_dir: Path):
    monkeypatch.setattr(bench_pairs, "resolve", lambda ref: shas[ref])
    monkeypatch.setattr(bench_pairs, "export_tree", lambda sha, dest: dest)
    monkeypatch.setattr(bench_pairs, "OUT_DIR", out_dir)


def test_main_writes_the_bench_file(monkeypatch, tmp_path, capsys):
    fake_git(monkeypatch, {"HEAD~1": "a" * 40, "HEAD": "b" * 40}, tmp_path)
    fake_runs(monkeypatch, {"parent": [0.7, 0.8], "change": [0.6, 0.65]})
    argv = ["HEAD~1", "HEAD", "--workload", "necessity", "--pairs", "2", "--seconds", "3"]
    assert bench_pairs.main(argv) == 0
    # a claim's two tests, the wins and the gain beyond the parent's IQR, side by side
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "wall_vs_ref: parent 0.75 change 0.625, change wins 2/2, gain_beyond_parent_iqr True"
    assert lines[1].endswith("change wins 0/2, gain_beyond_parent_iqr False")  # peak_rss_mb, a tie
    bench = json.loads((tmp_path / f"BENCH_necessity-{'b' * 12}.json").read_text())
    assert (bench["parent"], bench["change"], bench["seconds"]) == ("a" * 40, "b" * 40, 3)
    assert "seed" not in bench["context"] and "git_sha" not in bench["context"]
    assert len(bench["pairs"]) == 2
    assert bench["summary"]["wall_vs_ref"]["change_wins"] == 2
    assert set(bench["summary"]) == set(BETTER)


def test_an_aa_file_is_named_apart(monkeypatch, tmp_path):
    fake_git(monkeypatch, {"HEAD": "c" * 40}, tmp_path)
    fake_runs(monkeypatch, {"parent": [0.7, 0.8], "change": [0.7, 0.8]})
    argv = ["HEAD", "HEAD", "--workload", "necessity", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert [p.name for p in tmp_path.iterdir()] == [f"BENCH_necessity-{'c' * 12}-aa.json"]


def test_main_refuses_an_incorrect_run_and_writes_nothing(monkeypatch, tmp_path, capsys):
    fake_git(monkeypatch, {"HEAD~1": "a" * 40, "HEAD": "b" * 40}, tmp_path)
    outputs = iter([stdout_of({"wall_vs_ref": 0.7}), stdout_of({"wall_vs_ref": 0.6}, correct=False)])
    monkeypatch.setattr(bench_pairs, "run_perfbench", lambda *args: next(outputs))
    argv = ["HEAD~1", "HEAD", "--workload", "necessity", "--pairs", "2"]
    assert bench_pairs.main(argv) == 1
    assert "not correct" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def synthetic_bench(workload: str, parent: str, change: str, readings: list[tuple[float, float]]) -> dict:
    """A BENCH file's content with the given (parent, change) wall_vs_ref pairs."""
    pairs = [pair(p, c) for p, c in readings]
    return {"workload": workload, "parent": parent, "change": change, "pairs": pairs, "summary": bench_pairs.summarize(pairs, BETTER)}


def test_trajectory_follows_commit_order_and_marks_aa_files():
    a, b, c, d = (letter * 40 for letter in "abcd")
    benches = [
        synthetic_bench("necessity", b, c, [(0.60, 0.54), (0.62, 0.56), (0.64, 0.58)]),  # 10% better, 3/3
        synthetic_bench("necessity", a, b, [(0.80, 0.60), (0.82, 0.62), (0.84, 0.64)]),
        synthetic_bench("necessity", b, b, [(0.60, 0.66), (0.62, 0.58), (0.64, 0.70)]),  # A/A: not in the product
        synthetic_bench("necessity", c, d, [(0.50, 0.50), (0.52, 0.52), (0.54, 0.54)]),  # d is not in the history
        synthetic_bench("metric-battery", a, b, [(0.70, 0.71), (0.72, 0.73), (0.74, 0.75)]),
    ]
    assert bench_pairs.trajectory(benches, [a, b, c]) == [
        "metric-battery: wall_vs_ref",
        f"  {'b' * 12}     parent 0.7200 change 0.7300 wins 0/3 beyond_iqr no  product 1.0139",
        "necessity: wall_vs_ref",
        f"  {'b' * 12}     parent 0.8200 change 0.6200 wins 3/3 beyond_iqr yes product 0.7561",
        f"  {'b' * 12} A/A parent 0.6200 change 0.6600 wins 1/3 beyond_iqr no  product 0.7561",
        f"  {'c' * 12}     parent 0.6200 change 0.5600 wins 3/3 beyond_iqr yes product 0.6829",
        f"  {'d' * 12}     parent 0.5200 change 0.5200 wins 0/3 beyond_iqr no  product 0.6829",
    ]


def test_main_prints_the_trajectory_of_the_bench_files(monkeypatch, tmp_path, capsys):
    a, b = "a" * 40, "b" * 40
    bench = synthetic_bench("necessity", a, b, [(0.7, 0.6), (0.8, 0.65)])
    (tmp_path / bench_pairs.bench_name("necessity", a, b)).write_text(json.dumps(bench))
    (tmp_path / "unrelated.json").write_text("{}")
    monkeypatch.setattr(bench_pairs, "OUT_DIR", tmp_path)
    monkeypatch.setattr(bench_pairs, "commit_order", lambda: [a, b])
    assert bench_pairs.main(["--trajectory"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "necessity: wall_vs_ref",
        f"  {'b' * 12}     parent 0.7500 change 0.6250 wins 2/2 beyond_iqr yes product 0.8333",
    ]


def test_main_needs_both_refs_and_a_workload_without_trajectory(capsys):
    for argv in ([], ["HEAD~1", "HEAD"], ["HEAD", "--workload", "necessity"]):
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv)
        assert exit_info.value.code == 2
    assert "unless --trajectory is given" in capsys.readouterr().err


ROOT = SCRIPT.parent.parent
BENCH_FILES = sorted((ROOT / "bench").glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_each_committed_bench_file_checks_itself(path):
    # its summary recomputes from its pairs, it is named as the script names
    # it, and its pairs alternate which side ran first; whether its SHAs are
    # commits is not checked, since a checkout may hold one commit only
    bench = json.loads(path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    assert bench["summary"] == bench_pairs.summarize(bench["pairs"], better)
    assert path.name == bench_pairs.bench_name(bench["workload"], bench["parent"], bench["change"])
    for i, record in enumerate(bench["pairs"]):
        assert (record["seed"], record["first"]) == (i + 1, bench_pairs.first_side(i))
