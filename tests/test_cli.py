"""CLI end to end: subcommands, exit codes, formats, schema conformance."""

import csv
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from higgs_threeterm.cli import main

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "cli-reports.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(doc, def_name):
    schema = dict(SCHEMA)
    schema = {**schema, "oneOf": [{"$ref": f"#/$defs/{def_name}"}]}
    Draft202012Validator(schema).validate(doc)


def test_schema_file_is_itself_valid():
    Draft202012Validator.check_schema(SCHEMA)


# --- check ---------------------------------------------------------------------


def test_check_stable_chain(capsys):
    code, out, _ = run_cli(capsys, "check", "--roots", "4,2,0,4,2,0,-2")
    report = json.loads(out)
    assert code == 0
    assert report["admissible"] is True
    assert report["stability"]["verdict"] == "stable"
    assert report["three_term"]["holds"] is True
    assert report["multiplicities"] == {"4": 2, "2": 2, "0": 2, "-2": 1}
    validate(report, "checkReport")


def test_check_unstable_chain_is_informational(capsys):
    code, out, _ = run_cli(capsys, "check", "--roots", "0,4")
    report = json.loads(out)
    assert code == 0  # informational, not a failed check
    assert report["stability"]["verdict"] == "strictly-destabilized-at-2"
    assert report["three_term"]["holds"] is False
    heights = [v["height"] for v in report["three_term"]["violations"]]
    assert heights == [0, 4]
    validate(report, "checkReport")


def test_check_malformed_roots(capsys):
    code, _, err = run_cli(capsys, "check", "--roots", "1,2")
    assert code == 2
    assert "even" in err


def test_check_csv(capsys):
    code, out, _ = run_cli(capsys, "check", "--roots", "2,0,-2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "roots"
    assert rows[1][0] == "2 0 -2"


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--nonsense"])
    assert info.value.code == 2


# --- enumerate -------------------------------------------------------------------


def test_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--n-min", "2", "--n-max", "2", "--max-rise", "4", "--bound", "4"
    )
    report = json.loads(out)
    assert code == 0
    assert report["sequences"] == [[0, -2]]
    validate(report, "enumerateReport")


def test_enumerate_all_includes_unstable(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--n-min", "2", "--n-max", "2", "--max-rise", "4", "--bound", "4", "--all",
    )
    report = json.loads(out)
    assert [0, 4] in report["sequences"]
    validate(report, "enumerateReport")


def test_enumerate_stable_equals_all_filtered_by_check(capsys):
    box = ["--n-min", "2", "--n-max", "3", "--max-rise", "4", "--bound", "8"]
    _, out, _ = run_cli(capsys, "enumerate", *box)
    stable = json.loads(out)["sequences"]
    _, out, _ = run_cli(capsys, "enumerate", *box, "--all")
    everything = json.loads(out)["sequences"]
    verdicts = []
    for roots in everything:
        _, out, _ = run_cli(capsys, "check", "--roots", ",".join(map(str, roots)))
        verdicts.append(json.loads(out)["stability"]["verdict"])
    assert stable == [roots for roots, v in zip(everything, verdicts) if v == "stable"]
    assert len(stable) < len(everything)


# --- pair ------------------------------------------------------------------------


def test_pair_single_height(capsys):
    code, out, _ = run_cli(capsys, "pair", "--roots", "2,0,-2", "--height", "2")
    cert = json.loads(out)
    assert code == 0
    assert cert == {"height": 2, "pairs": [{"source": 1, "target": 2, "label": "B"}]}
    validate(cert, "certificate")


def test_pair_all_heights(capsys):
    code, out, _ = run_cli(capsys, "pair", "--roots", "4,2,0,4,2,0,-2", "--all-heights")
    report = json.loads(out)
    assert code == 0
    assert [c["height"] for c in report["certificates"]] == [-2, 0, 2, 4]
    validate(report, "pairReport")


def test_pair_csv(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--roots", "4,2,0,4,2,0,-2", "--all-heights", "--format", "csv"
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["height", "source", "target", "label"]
    assert ["4", "1", "2", "B"] in rows


def test_pair_rejects_unstable_input(capsys):
    code, _, err = run_cli(capsys, "pair", "--roots", "0,4", "--height", "0")
    assert code == 2
    assert "tail-stable" in err


def test_pair_needs_height(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pair", "--roots", "0,-2"])
    assert info.value.code == 2
    assert "one of the arguments --height --all-heights is required" in capsys.readouterr().err


def test_pair_takes_height_or_all_heights_not_both(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pair", "--roots", "2,0,-2", "--height", "2", "--all-heights"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --all-heights: not allowed with argument --height" in err


# --- translate ---------------------------------------------------------------------


def test_translate_forward(capsys):
    code, out, _ = run_cli(capsys, "translate", "--beta", "0", "--u", "1/6", "--v", "0")
    report = json.loads(out)
    assert code == 0
    assert report["connection"] == {"jump": "1/6", "eigenvalue": {"re": "-1/6", "im": "0"}}
    assert report["higgs"] == {"jump": "-1/6", "eigenvalue": {"re": "0", "im": "0"}}
    validate(report, "translateReport")


def test_translate_from_connection(capsys):
    # negative rationals need the --flag=value spelling
    code, out, _ = run_cli(
        capsys, "translate", "--from", "connection", "--jump", "1/6", "--re=-1/6", "--im", "0"
    )
    report = json.loads(out)
    assert code == 0
    assert report["representation"] == {"beta": "0", "u": "1/6", "v": "0"}
    validate(report, "translateReport")


def test_translate_from_higgs(capsys):
    code, out, _ = run_cli(
        capsys, "translate", "--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2"
    )
    report = json.loads(out)
    assert code == 0
    assert report["representation"] == {"beta": "1/2", "u": "1/3", "v": "1"}
    validate(report, "translateReport")


def test_translate_branch_error(capsys):
    code, _, err = run_cli(
        capsys, "translate", "--from", "connection", "--jump", "0", "--re", "1/2", "--im", "0"
    )
    assert code == 2
    assert "branch" in err


def test_translate_missing_flags(capsys):
    code, _, err = run_cli(capsys, "translate", "--beta", "0")
    assert code == 2


STRAY_TRANSLATE_FLAGS = {
    "beta-for-higgs": (
        ["--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2", "--beta", "5"],
        "translate --from higgs takes no --beta",
    ),
    "side-flags-for-representation": (
        ["--beta", "1/2", "--u", "1/3", "--v", "1", "--jump", "0", "--im", "0"],
        "translate --from representation takes no --jump, --im",
    ),
    "u-for-connection": (
        ["--from", "connection", "--jump", "1/6", "--re=-1/6", "--im", "0", "--u", "1"],
        "translate --from connection takes no --u",
    ),
}


@pytest.mark.parametrize("case", list(STRAY_TRANSLATE_FLAGS))
def test_translate_rejects_flags_of_the_other_side(capsys, case):
    argv, message = STRAY_TRANSLATE_FLAGS[case]
    code, out, err = run_cli(capsys, "translate", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# --- rank1 and filtered-degree --------------------------------------------------------


def test_rank1(capsys):
    code, out, _ = run_cli(capsys, "rank1", "--a", "3", "--b", "5/4")
    report = json.loads(out)
    assert code == 0
    assert report == {
        "a": 3,
        "b": "5/4",
        "jump": "3/4",
        "unfiltered_degree": "1/2",
        "filtered_degree": "5/4",
        "residue_angle": "1/2",
    }
    validate(report, "rank1Report")


def test_rank1_bad_power(capsys):
    # range-checked once, by the rank-1 calculus itself
    for a in ("6", "-1"):
        code, out, err = run_cli(capsys, "rank1", f"--a={a}", "--b", "0")
        assert (code, out) == (2, "")
        assert err == f"error: character power must be in 0..5, got {a}\n"


def test_filtered_degree_representation(capsys):
    code, out, _ = run_cli(
        capsys, "filtered-degree", "--side", "representation", "--jumps", "5/6:1,1/6:2"
    )
    report = json.loads(out)
    assert code == 0
    assert report["degree"] == "7/6"
    assert report["slope"] == "7/18"
    assert report["dimension"] == 3
    validate(report, "filteredDegreeReport")


def test_filtered_degree_bundle(capsys):
    code, out, _ = run_cli(
        capsys,
        "filtered-degree", "--side", "bundle",
        "--jumps", "5/6:1", "--base-degree=-5/6", "--rank", "1",
    )
    report = json.loads(out)
    assert code == 0
    assert report["degree"] == "0"
    assert report["slope"] == "0"
    validate(report, "filteredDegreeReport")


def test_filtered_degree_bundle_needs_rank(capsys):
    code, _, err = run_cli(capsys, "filtered-degree", "--side", "bundle", "--jumps", "0:1")
    assert code == 2


def test_filtered_degree_bad_jump_window(capsys):
    code, _, err = run_cli(
        capsys,
        "filtered-degree", "--side", "bundle",
        "--jumps", "3/2:1", "--base-degree", "0", "--rank", "1",
    )
    assert code == 2


STRAY_FILTERED_DEGREE_FLAGS = {
    "both": (["--rank", "1", "--base-degree", "0"], "--rank, --base-degree"),
    "rank": (["--rank", "2"], "--rank"),
    "base-degree": (["--base-degree=-5/6"], "--base-degree"),
}


@pytest.mark.parametrize("case", list(STRAY_FILTERED_DEGREE_FLAGS))
def test_filtered_degree_representation_rejects_bundle_flags(capsys, case):
    extra, stray = STRAY_FILTERED_DEGREE_FLAGS[case]
    code, out, err = run_cli(
        capsys, "filtered-degree", "--side", "representation", "--jumps", "5/6:1", *extra
    )
    assert (code, out) == (2, "")
    assert err == f"error: filtered-degree --side representation takes no {stray}\n"


# --- verify-metric ---------------------------------------------------------------------


def test_verify_metric(capsys):
    code, out, _ = run_cli(capsys, "verify-metric", "--grid", "8", "--seed", "1")
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    validate(report, "verifyMetricReport")


def test_verify_metric_single_point_and_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify-metric", "--tau", "0.3+1.2i", "--check", "harmonic_equation"
    )
    report = json.loads(out)
    assert code == 0
    assert report["parameters"]["grid_size"] == 1
    assert [c["check_name"] for c in report["checks"]] == ["harmonic_equation"]
    validate(report, "verifyMetricReport")


def test_verify_metric_failure_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-metric", "--grid", "4", "--check", "harmonic_equation",
        "--tolerance", "1e-30",
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False


@pytest.mark.parametrize(
    "extra, stray",
    [(["--grid", "5"], "--grid"), (["--seed", "0"], "--seed"), (["--seed", "7", "--grid", "20"], "--grid, --seed")],
)
def test_verify_metric_tau_takes_no_grid_or_seed(capsys, extra, stray):
    code, out, err = run_cli(capsys, "verify-metric", "--tau", "0.3+1.2i", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: verify-metric --tau takes no {stray}\n"


def test_verify_metric_grid_and_seed_default_to_20_and_0(capsys):
    _, default, _ = run_cli(capsys, "verify-metric", "--check", "metric_shape")
    _, explicit, _ = run_cli(capsys, "verify-metric", "--check", "metric_shape", "--grid", "20", "--seed", "0")
    assert default == explicit
    _, single, _ = run_cli(capsys, "verify-metric", "--tau", "0.3+1.2i", "--check", "metric_shape")
    assert json.loads(single)["parameters"]["seed"] == 0


def test_verify_metric_bad_tau(capsys):
    code, _, err = run_cli(capsys, "verify-metric", "--tau", "1-2i")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_metric_rejects_non_finite_h(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--h", value)
    assert (code, out) == (2, "")
    assert err == f"error: step must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_metric_rejects_non_finite_h_nested(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--h-nested", value)
    assert (code, out) == (2, "")
    assert err == f"error: step must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_metric_rejects_non_finite_tolerance(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--tolerance", value)
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_metric_rejects_non_positive_tolerance(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--tolerance", value)
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be positive, got {float(value)}\n"


NON_FINITE_TAU = {
    "nan+1.2i": "need finite x and y, got x = nan, y = 1.2",
    "inf+1.2i": "need finite x and y, got x = inf, y = 1.2",
    "0.3+infi": "need finite x and y, got x = 0.3, y = inf",
    # x and y are finite, but the metric's x^2 + y^2 overflows
    "0+1e200i": "need finite x*x + y*y, got x = 0.0, y = 1e+200",
}


@pytest.mark.parametrize("tau", list(NON_FINITE_TAU))
def test_verify_metric_rejects_non_finite_tau(capsys, tau):
    code, out, err = run_cli(capsys, "verify-metric", "--tau", tau, "--check", "metric_shape")
    assert (code, out) == (2, "")
    assert err == f"error: bad --tau: {NON_FINITE_TAU[tau]}\n"


def test_verify_metric_fails_a_metric_that_is_not_positive_definite(capsys):
    # at x = 1e10 the determinant (x^2 + y^2 - x^2) / y^2 cancels to 0
    code, out, err = run_cli(capsys, "verify-metric", "--tau", "1e10+1i", "--check", "metric_shape")
    assert (code, err) == (1, "")
    [row] = json.loads(out)["checks"]
    assert row["check_name"] == "metric_shape" and row["pass"] is False
    assert 1.0 <= row["max_residual"] < math.inf


def test_non_finite_number_in_a_json_report_exits_two(capsys, monkeypatch, tmp_path):
    from higgs_threeterm import harmonic

    def infinite(**kwargs):
        row = {"check_name": "metric_shape", "max_residual": float("inf"), "tolerance": 1e-10, "pass": False}
        return {"parameters": {}, "checks": [row], "pass": False}

    monkeypatch.setattr(harmonic, "verification_report", infinite)
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")
    path = tmp_path / "report.json"
    assert run_cli(capsys, "verify-metric", "--grid", "2", "--out", str(path))[0] == 2
    assert not path.exists()
    code, out, _ = run_cli(capsys, "verify-metric", "--grid", "2", "--format", "csv")
    assert code == 1 and "inf" in out


BAD_STEPS = {
    "nan": "step must be finite, got nan",
    "inf": "step must be finite, got inf",
    "0": "step must be positive, got 0.0",
    "-1": "step must be positive, got -1.0",
}


@pytest.mark.parametrize("flag", ["--h", "--h-nested"])
@pytest.mark.parametrize("value", list(BAD_STEPS))
def test_verify_metric_rejects_bad_step_for_a_check_without_differences(capsys, flag, value):
    # metric_shape takes no step, so only the up-front check can reject it
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "2", "--check", "metric_shape", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {BAD_STEPS[value]}\n"


def test_verify_metric_low_equivariance_image(capsys):
    code, out, err = run_cli(capsys, "verify-metric", "--tau", "5+0.2i")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: gamma tau = \(\S+\) fell below the floor y = 0\.1\n", err), err


def test_verify_metric_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-metric", "--grid", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_name", "max_residual", "tolerance", "pass"]
    assert len(rows) > 2


# --- sweep -----------------------------------------------------------------------------


def test_sweep_small(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n-min", "2", "--n-max", "3", "--max-rise", "4", "--bound", "6"
    )
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert report["violations"] == []
    validate(report, "sweepReport")


def test_sweep_necessity(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n-min", "2", "--n-max", "2", "--max-rise", "4", "--bound", "4",
        "--mode", "necessity",
    )
    report = json.loads(out)
    assert code == 0
    assert report["pass"] is True
    assert [0, 4] in [v["roots"] for v in report["violations"]]
    validate(report, "sweepReport")


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--max-rise", "3", "max_rise must be even and >= 2, got 3"),
        ("--n-min", "1", "need 2 <= n_min <= n_max, got [1, 2]"),
        ("--workers", "0", "workers must be >= 1, got 0"),
    ],
    ids=["max-rise", "n-min", "workers"],
)
def test_sweep_script_rejects_invalid_bounds(capsys, flag, value, message):
    code, out, err = run_cli(capsys, "sweep", "--n-max", "2", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers inherit the patch only by fork"
)
def test_sweep_worker_that_dies_exits_two(capsys, monkeypatch):
    from higgs_threeterm import sweep

    original = sweep._run_partition

    def dies_in_one(task):
        if task[:2] == (3, 4):
            os._exit(3)
        return original(task)

    monkeypatch.setattr(sweep, "_run_partition", dies_in_one)
    code, out, err = run_cli(capsys, "sweep", "--n-max", "4", "--max-rise", "4", "--bound", "6", "--workers", "2")
    assert (code, out) == (2, "")
    assert err == "error: sweep worker died in partition (n=3, first step=4)\n"


def test_sweep_out_file(capsys, tmp_path):
    target = tmp_path / "sweep.json"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n-min", "2", "--n-max", "2", "--max-rise", "4", "--bound", "4",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    validate(report, "sweepReport")


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--n-min", "2", "--n-max", "3", "--max-rise", "4", "--bound", "4",
        "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "generated", "admissible", "stable"]
    assert rows[-1][0] == "total"


# --- console entry points ----------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "higgs_threeterm", "check", "--roots", "0,-2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stability"]["verdict"] == "stable"


def test_usage_error_no_command():
    proc = subprocess.run(
        [sys.executable, "-m", "higgs_threeterm"], capture_output=True, text=True
    )
    assert proc.returncode == 2


NUMPY_PROBE = """
import os, sys
import higgs_threeterm.cli as cli
print("numpy" in sys.modules)
cli.main(["sweep", "--n-max", "3", "--max-rise", "4", "--bound", "4", "--out", os.devnull])
print("numpy" in sys.modules)
cli.main(["verify-metric", "--grid", "2", "--out", os.devnull])
print("numpy" in sys.modules)
"""


def test_numpy_is_loaded_only_for_verify_metric():
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


ON_DEMAND_MODULES = ("concurrent.futures", "dataclasses", "higgs_threeterm.filtered", "numpy")
IMPORT_PROBE = f"""
import json, os, sys
import higgs_threeterm.cli as cli
cli.main(["sweep", "--n-max", "3", "--max-rise", "4", "--bound", "4", "--workers", "1", "--out", os.devnull])
print(json.dumps([name for name in {ON_DEMAND_MODULES!r} if name in sys.modules]))
cli.main(["rank1", "--a", "3", "--b", "5/4", "--out", os.devnull])
print(json.dumps([name for name in {ON_DEMAND_MODULES!r} if name in sys.modules]))
"""


def test_sweep_loads_no_dataclasses_filtered_numpy_or_pool():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_sweep, after_rank1 = map(json.loads, proc.stdout.splitlines())
    assert after_sweep == []
    assert "higgs_threeterm.filtered" in after_rank1
