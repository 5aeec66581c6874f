"""CLI end to end: subcommands, exit codes, formats, schema conformance."""

import csv
import io
import json
import os
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
    code, _, err = run_cli(capsys, "pair", "--roots", "0,-2")
    assert code == 2


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
    code, _, err = run_cli(capsys, "rank1", "--a", "6", "--b", "0")
    assert code == 2


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


def test_verify_metric_bad_tau(capsys):
    code, _, err = run_cli(capsys, "verify-metric", "--tau", "1-2i")
    assert code == 2


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


def test_sweep_workers_env_default(capsys, monkeypatch):
    monkeypatch.setenv("HIGGS_THREETERM_WORKERS", "2")
    code, out, _ = run_cli(
        capsys, "sweep", "--n-min", "2", "--n-max", "2", "--max-rise", "2", "--bound", "2"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("value", ["junk", "0", "-3"])
def test_sweep_workers_env_invalid(capsys, monkeypatch, value):
    monkeypatch.setenv("HIGGS_THREETERM_WORKERS", value)
    code, out, err = run_cli(
        capsys, "sweep", "--n-min", "2", "--n-max", "2", "--max-rise", "2", "--bound", "2"
    )
    assert code == 2
    assert out == ""
    assert "HIGGS_THREETERM_WORKERS" in err and repr(value) in err


def test_sweep_script_rejects_invalid_workers_env():
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_theorem_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--n-max", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "HIGGS_THREETERM_WORKERS": "junk"},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: HIGGS_THREETERM_WORKERS must be an integer >= 1, got 'junk'\n"


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
