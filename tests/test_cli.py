"""CLI end to end: subcommands, exit codes, formats, schema conformance."""

import argparse
import csv
import hashlib
import io
import json
import math
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


@pytest.mark.parametrize("command", ["check", "pair"])
@pytest.mark.parametrize("text", ["0,,2", "0,2,", ",0,2", ""])
def test_empty_entry_in_roots_is_a_usage_error(capsys, command, text):
    # an empty entry is refused, never dropped: "0,,2" is not the chain (0, 2)
    extra = ["--all-heights"] if command == "pair" else []
    code, out, err = run_cli(capsys, command, "--roots", text, *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: could not parse --roots {text!r}: ")


def test_check_csv(capsys):
    code, out, _ = run_cli(capsys, "check", "--roots", "2,0,-2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "roots"
    assert rows[1][0] == "2 0 -2"


def test_check_multiplicities_are_keyed_by_descending_height(capsys):
    code, out, _ = run_cli(capsys, "check", "--roots", "4,2,0,4,2,0,-2")
    assert code == 0
    assert list(json.loads(out)["multiplicities"]) == ["4", "2", "0", "-2"]


def test_check_report_bytes_are_stable(capsys):
    first = run_cli(capsys, "check", "--roots", "4,2,0,-2")
    assert first == run_cli(capsys, "check", "--roots", "4,2,0,-2")


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


def test_pair_refuted_by_the_singleton_exits_one_with_its_counterexample(capsys):
    # n = 1 is outside the theorem: its lone vertex has no neighbor to pair with
    for which in (["--all-heights"], ["--height", "0"]):
        code, out, err = run_cli(capsys, "pair", "--roots", "0", *which)
        assert (code, out) == (1, "")
        counterexample = {
            "roots": [0],
            "height": 0,
            "source": 1,
            "reason": "no trailing drop and no r+2 vertex before the leftmost source",
        }
        # the exact bytes, not only the parsed JSON
        assert err == json.dumps({"counterexample": counterexample}, indent=2) + "\n"


def test_pair_height_the_checker_refuses_exits_one_after_the_report(capsys, monkeypatch):
    from higgs_threeterm import pairing

    def refuses_height_0(roots, r, targets):
        return (False, ["injectivity"]) if r == 0 else (True, [])

    monkeypatch.setattr(pairing, "verify_certificate", refuses_height_0)
    code, out, err = run_cli(capsys, "pair", "--roots", "2,0,-2", "--all-heights")
    assert code == 1
    assert [c["height"] for c in json.loads(out)["certificates"]] == [-2, 0, 2]
    # the refusal is JSON, in the layout of the counterexample
    refused = {"refused": [{"height": 0, "reasons": ["injectivity"]}]}
    assert json.loads(err) == refused
    assert err == json.dumps(refused, indent=2) + "\n"


# --- pinned bytes ------------------------------------------------------------------

_PIN_BOX = ("--n-max", "6", "--max-rise", "6", "--bound", "9")

# sha256 of stdout for each (argv, format); every one exits 0 with nothing on stderr
PINNED_OUTPUTS = {
    (("enumerate", *_PIN_BOX), "json"): "dff1a82f4ab199c554f2f77ac02f4ca07b3e553e15d81b6a31706d07cfbe2300",
    (("enumerate", *_PIN_BOX), "csv"): "b08db6c6fb2ea1a551f43c95211519a42c31c8ce248555d3db6bf1e3d348e979",
    (("enumerate", *_PIN_BOX, "--all"), "json"): "658a6f550475cb2f64fcfd1529a46b9c883899e2e0919eb96b629c28a234295b",
    (("enumerate", *_PIN_BOX, "--all"), "csv"): "c9b02612e6b1a3d569950af58045648a0b70b579f7c9f6f201ade6037647ebee",
    (("check", "--roots", "4,2,0,4,2,0,-2"), "json"): "59bb339e59f6c36f2c4f9b558efc896975131b22bbfd325b47640f3ca63df191",
    (("check", "--roots", "4,2,0,4,2,0,-2"), "csv"): "71e44bd2e8bb6a01356cdc86c67518d6ad3d5745cd5b1e15ceea0e0af747b692",
    (("pair", "--roots", "4,2,0,4,2,0,-2", "--all-heights"), "json"): "b3e54830e305dfe40e80419975329252aa9ee5cb1b94bee3ab268ed59b4f4167",
    (("pair", "--roots", "4,2,0,4,2,0,-2", "--all-heights"), "csv"): "9616391971268dc6f0001498173ca4e433bbebdc79ef2dc0130e0092ee00b43a",
    (("pair", "--roots", "2,0,-2", "--height", "0"), "json"): "986fcd154de431858d8cb8e0c71446a99df54b0b982570ad107748a54b7dcc5d",
    (("pair", "--roots", "2,0,-2", "--height", "0"), "csv"): "e758ff57d45f8a3a4b976cc3113dc65efd98bc807ca9d8f3644563d834e20dcd",
    # a height with no vertex: an empty certificate
    (("pair", "--roots", "0,-2", "--height", "-6"), "json"): "daab1c531f780be022b8e23b44c6a3dbacd632ebc22a766729a72cf60d6bae26",
    (("pair", "--roots", "0,-2", "--height", "-6"), "csv"): "7ed9b77d383a6eec8a34ab3c286e72e76478f4233a65762123613fdf38a1e9a2",
    # one row each: every column of the CSV row is a field of the JSON report
    (("translate", "--beta", "0", "--u", "1/6", "--v", "0"), "json"): "c0ed09b6bb2be9ed72990163fe9a6d080a53c9e64daf72d59fde116804d45571",
    (("translate", "--beta", "0", "--u", "1/6", "--v", "0"), "csv"): "29b1af40953f55f0f652588e82b45dc787d254c5aa0bedc0f4867bc9f97b77b3",
    (("translate", "--from", "connection", "--jump", "1/6", "--re=-1/6", "--im", "0"), "json"): "c0ed09b6bb2be9ed72990163fe9a6d080a53c9e64daf72d59fde116804d45571",
    (("translate", "--from", "connection", "--jump", "1/6", "--re=-1/6", "--im", "0"), "csv"): "29b1af40953f55f0f652588e82b45dc787d254c5aa0bedc0f4867bc9f97b77b3",
    (("translate", "--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2"), "json"): "97b1aabd81b01ec262fab7aeca61388872a08533d5bb16f0a5bf9720c49650c0",
    (("translate", "--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2"), "csv"): "6fe862e83731c96fb03194939fbb8ecad96900def4eebffb72a8e6c5e3109dc1",
    (("rank1", "--a", "3", "--b", "5/4"), "json"): "14bc51e73ec67bfea364804f9c235ed3e243a76bfc0e039a38fdbc16052e1f56",
    (("rank1", "--a", "3", "--b", "5/4"), "csv"): "16aff13edf3b84da71d8de656070bce9a95d42d87d015975beeda5670c7f1742",
    (("filtered-degree", "--side", "representation", "--jumps", "5/6:1,1/6:2"), "json"): "60e3bae00e6649bdc0de5c2680251667b08929279db9664717ba95f157122025",
    (("filtered-degree", "--side", "representation", "--jumps", "5/6:1,1/6:2"), "csv"): "b68566a82c8f96375f548f857ae593aa5abff6a33061d893ce82c3b8f1621e13",
    (("filtered-degree", "--side", "bundle", "--jumps", "5/6:1", "--base-degree=-5/6", "--rank", "1"), "json"): "59b2211d199ba151ec2b6c52489b019c2c52d5198be3cb81c1354ce81e6c2de7",
    (("filtered-degree", "--side", "bundle", "--jumps", "5/6:1", "--base-degree=-5/6", "--rank", "1"), "csv"): "5fc0714a9fa0a10669a96b2ec5ebdeae76d5f0a4deeeb0cdb64268e10231a57b",
}


@pytest.mark.parametrize(("argv", "fmt"), list(PINNED_OUTPUTS))
def test_output_bytes_are_pinned(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv, fmt]


# stderr of each argv that a hypothesis check refuses: exit 2, nothing on stdout
PINNED_REFUSALS = {
    ("pair", "--roots", "0,0", "--height", "0"): "error: chain (0, 0) is inadmissible at steps [1]\n",
    ("pair", "--roots", "0,4", "--all-heights"): "error: chain (0, 4) is not tail-stable (strictly-destabilized-at-2)\n",
    # no vertex of an even-rooted chain sits at an odd height
    ("pair", "--roots", "0,-2", "--height", "1"): "error: --height must be even, got 1\n",
    ("pair", "--roots", "0,-2", "--height", "1", "--format", "csv"): "error: --height must be even, got 1\n",
    # the height is checked before the hypotheses
    ("pair", "--roots", "0,0", "--height", "1"): "error: --height must be even, got 1\n",
}


@pytest.mark.parametrize("argv", list(PINNED_REFUSALS))
def test_refusals_are_pinned(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", PINNED_REFUSALS[argv])


# --- translate ---------------------------------------------------------------------


def test_translate_forward(capsys):
    code, out, _ = run_cli(capsys, "translate", "--beta", "0", "--u", "1/6", "--v", "0")
    report = json.loads(out)
    assert code == 0
    assert report["connection"] == {"jump": "1/6", "eigenvalue": {"re": "-1/6", "im": "0"}}
    assert report["higgs"] == {"jump": "-1/6", "eigenvalue": {"re": "0", "im": "0"}}
    validate(report, "translateReport")


def test_translate_writes_an_exact_complex_value_as_a_pair_of_rationals(capsys):
    code, out, _ = run_cli(capsys, "translate", "--beta", "0", "--u", "1/6", "--v", "0")
    assert code == 0
    assert json.loads(out)["connection"]["eigenvalue"] == {"re": "-1/6", "im": "0"}


UNPARSED_RATIONALS = {
    ("rank1", "--a", "3", "--b", "x"): "error: could not parse rational 'x': Invalid literal for Fraction: 'x'\n",
    ("translate", "--beta", "1/0", "--u", "0", "--v", "0"): "error: could not parse rational '1/0': Fraction(1, 0)\n",
}


@pytest.mark.parametrize("argv", list(UNPARSED_RATIONALS))
def test_a_rational_that_does_not_parse_is_a_usage_error(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", UNPARSED_RATIONALS[argv])


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


def test_filtered_degree_cusps_of_different_dimension(capsys):
    argv = ["filtered-degree", "--side", "representation", "--jumps", "1/2:1", "--jumps", "1/3:2"]
    assert run_cli(capsys, *argv) == (2, "", "error: cusps disagree on total dimension: [1, 2]\n")


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


# bundle inputs with two errors, each with the one it names: the jump data,
# built first, comes before a bad --base-degree, and the bundle's own rule, a
# weight in [0, 1), is checked when the bundle is built from its base degree
BUNDLE_TWO_ERRORS = {
    "weight-and-zero-dimension": (
        ["--jumps", "3/2:1,1/2:0", "--base-degree", "0", "--rank", "1"],
        "graded dimensions must be positive, got 0",
    ),
    "weight-and-cusps": (
        ["--jumps", "3/2:1", "--jumps", "1/2:2", "--base-degree", "0", "--rank", "1"],
        "cusps disagree on total dimension: [1, 2]",
    ),
    "zero-dimension-and-base-degree": (
        ["--jumps", "1/2:0", "--base-degree", "x", "--rank", "1"],
        "graded dimensions must be positive, got 0",
    ),
    "cusps-and-base-degree": (
        ["--jumps", "1/2:1", "--jumps", "1/2:2", "--base-degree", "x", "--rank", "1"],
        "cusps disagree on total dimension: [1, 2]",
    ),
    "weight-and-base-degree": (
        ["--jumps", "3/2:1", "--base-degree", "x", "--rank", "1"],
        "could not parse rational 'x': Invalid literal for Fraction: 'x'",
    ),
    "weight-and-rank": (
        ["--jumps", "3/2:1", "--base-degree", "0", "--rank", "0"],
        "bundle-side jump 3/2 outside [0, 1)",
    ),
}


@pytest.mark.parametrize("case", list(BUNDLE_TWO_ERRORS))
def test_filtered_degree_bundle_names_one_of_two_errors(capsys, case):
    argv, message = BUNDLE_TWO_ERRORS[case]
    assert run_cli(capsys, "filtered-degree", "--side", "bundle", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text", ["5/6:1,,1/6:2", "5/6:1,", ",5/6:1", ""])
def test_empty_entry_in_jumps_is_a_usage_error(capsys, text):
    # an empty entry is refused, never dropped, as in --roots
    code, out, err = run_cli(capsys, "filtered-degree", "--side", "representation", "--jumps", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: could not parse jump item '': ")


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
    assert json.loads(single)["parameters"]["seed"] is None  # one point: no grid was seeded


def test_verify_metric_empty_grid(capsys):
    assert run_cli(capsys, "verify-metric", "--grid", "0") == (2, "", "error: --grid must be >= 1, got 0\n")


def test_verify_metric_bad_tau(capsys):
    code, _, err = run_cli(capsys, "verify-metric", "--tau", "1-2i")
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_metric_rejects_non_finite_h(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--h", value)
    assert (code, out) == (2, "")
    assert err == f"error: h must be finite, got {value}\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_metric_rejects_non_finite_h_nested(capsys, value):
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "5", "--h-nested", value)
    assert (code, out) == (2, "")
    assert err == f"error: h_nested must be finite, got {value}\n"


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


# each refusal names its flag's parameter: h for --h, h_nested for --h-nested
BAD_STEPS = {
    "nan": "must be finite, got nan",
    "inf": "must be finite, got inf",
    "0": "must be positive, got 0.0",
    "-1": "must be positive, got -1.0",
}


@pytest.mark.parametrize("flag", ["--h", "--h-nested"])
@pytest.mark.parametrize("value", list(BAD_STEPS))
def test_verify_metric_rejects_bad_step_for_a_check_without_differences(capsys, flag, value):
    # metric_shape takes no step, so only the up-front check can reject it
    code, out, err = run_cli(capsys, "verify-metric", "--grid", "2", "--check", "metric_shape", flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag[2:].replace('-', '_')} {BAD_STEPS[value]}\n"


def test_verify_metric_low_equivariance_image(capsys):
    code, out, err = run_cli(capsys, "verify-metric", "--tau", "5+0.2i")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: gamma tau = \(\S+\) fell below the floor y = 0\.1\n", err), err


# at tau = 0.3 + 0.15i each step puts a difference point below the real axis:
# tau - 2i h_nested for the nested residual, tau - i h for one difference
@pytest.mark.parametrize(
    ("flag", "step", "check"),
    [
        ("--h-nested", "0.1", "harmonic_equation"),
        ("--h", "0.2", "theta_vs_finite_difference"),
        ("--h", "0.2", "higgs_form_closedness"),
    ],
)
def test_verify_metric_refuses_a_step_that_leaves_the_half_plane(capsys, flag, step, check):
    # a step outside [1e-6, 1e-2] also warns; under pytest the warning is recorded, not written to stderr
    with pytest.warns(UserWarning, match="truncation will dominate"):
        code, out, err = run_cli(capsys, "verify-metric", "--tau", "0.3+0.15i", flag, step, "--check", check)
    assert (code, out) == (2, "")
    assert err == "error: point (0.3-0.05000000000000002j) is not in the upper half-plane\n"


@pytest.mark.parametrize(
    "check",
    ["harmonic_equation", "theta_vs_finite_difference", "harmonic_convergence_order_deviation", "scaling_conjugation"],
)
def test_verify_metric_refuses_a_point_where_a_matrix_is_singular(capsys, check):
    # at tau = 1e8 + 1i the entries of K cancel, and each of these checks inverts a singular matrix
    code, out, err = run_cli(capsys, "verify-metric", "--tau", "1e8+1i", "--check", check)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {check}: a matrix is singular in floating point at the sample points"


@pytest.mark.parametrize(
    "tau, check",
    [
        ("0+1e154i", "theta_nilpotent"),
        ("0+1e154i", "scaling_conjugation"),
        ("0+1e154i", "higgs_form_closedness"),
        ("1e153+1i", "higgs_form_closedness"),
        ("1e153+1i", "theta_nilpotent"),
    ],
)
def test_verify_metric_refuses_a_point_where_the_floats_overflow(capsys, tau, check):
    # unchecked, (2y)^2 overflowing left theta = 0, so the first two passed with
    # residual 0.0; the others reported residuals of 1.25e154 or 2.5e144, or an inf
    # that only the JSON writer refused; the text is the package's, not numpy's
    code, out, err = run_cli(capsys, "verify-metric", "--tau", tau, "--check", check)
    message = "the arithmetic overflows or turns invalid in floating point at the sample points"
    assert (code, out, err) == (2, "", f"error: {check}: {message}\n")


def test_metric_shape_inverts_nothing_so_a_singular_point_fails_it(capsys):
    code, out, _ = run_cli(capsys, "verify-metric", "--tau", "1e8+1i", "--check", "metric_shape")
    assert code == 1
    assert json.loads(out)["checks"][0]["pass"] is False


def test_verify_metric_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-metric", "--grid", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check_name", "max_residual", "tolerance", "pass"]
    assert len(rows) > 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--grid", "4"),
        ("--tau", "0.3+1.2i"),
        ("--grid", "4", "--check", "harmonic_equation", "--tolerance", "1e-30"),
    ],
)
def test_verify_metric_csv_rows_are_the_json_rows(capsys, argv):
    # residual bits may differ by CPU, so the CSV is read against the JSON, not pinned
    json_code, out, _ = run_cli(capsys, "verify-metric", *argv)
    checks = json.loads(out)["checks"]
    csv_code, out, _ = run_cli(capsys, "verify-metric", *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert json_code == csv_code
    assert header == ["check_name", "max_residual", "tolerance", "pass"]
    assert len(rows) == len(checks)
    for (name, residual, tolerance, passed), check in zip(rows, checks):
        assert name == check["check_name"]
        assert float(residual) == check["max_residual"]
        assert float(tolerance) == check["tolerance"]
        assert passed == str(check["pass"])


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mode", "theorem", "--workers", "1"],
        ["sweep", "--mode", "theorem", "--workers", "2"],
        ["sweep", "--mode", "necessity", "--workers", "1"],
        ["sweep", "--mode", "necessity", "--workers", "2"],
        ["enumerate"],
    ],
    ids=["theorem-1", "theorem-2", "necessity-1", "necessity-2", "enumerate"],
)
def test_a_box_longer_than_the_walk_can_go_deep_is_refused(capsys, argv, time_bound):
    from higgs_threeterm.chain import MAX_LENGTH

    # refused before any walk or fork: a box this long would never finish
    code, out, err = run_cli(capsys, *argv, "--n-max", str(MAX_LENGTH + 1), "--max-rise", "2", "--bound", "2")
    assert (code, out) == (2, "")
    assert err == f"error: n_max must be <= {MAX_LENGTH}, got {MAX_LENGTH + 1}\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers inherit the patch only by fork")
def test_sweep_worker_that_dies_exits_two(capsys, monkeypatch, time_bound):
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


def test_sweep_workers_above_one_need_fork(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    argv = ["sweep", "--n-max", "3", "--max-rise", "4", "--bound", "4"]
    code, out, err = run_cli(capsys, *argv, "--workers", "2")
    assert (code, out) == (2, "")
    assert err == "error: workers above 1 need os.fork, which this platform lacks; got 2\n"
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0 and json.loads(out)["pass"] is True


UNFLUSHED_PROBE = """
import os, sys
import higgs_threeterm.cli as cli
sys.stdout.write("written before the pool\\n")
sys.exit(cli.main(["sweep", "--n-max", "4", "--max-rise", "4", "--bound", "6", "--workers", "2", "--out", os.devnull]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
def test_sweep_workers_never_flush_the_parents_stdout():
    # stdout is a buffered pipe here, so the line sits in the parent's buffer when it forks
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", UNFLUSHED_PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "written before the pool\n"


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


ON_DEMAND_MODULES = (
    "concurrent.futures", "csv", "dataclasses", "decimal", "fractions", "higgs_threeterm.filtered",
    "inspect", "multiprocessing", "numpy",
)
SWEEP_MODULES = ("higgs_threeterm.chain", "higgs_threeterm.pairing", "higgs_threeterm.sweep")
# runs the commands of argv[1] in turn in one process; after each, prints which of argv[2] are loaded
IMPORT_PROBE = """
import json, os, sys
import higgs_threeterm.cli as cli
for argv in json.loads(sys.argv[1]):
    cli.main(argv + ["--out", os.devnull])
    print(json.dumps([name for name in json.loads(sys.argv[2]) if name in sys.modules]))
"""


def loaded_after_each(*commands) -> list[set[str]]:
    """Which of ON_DEMAND_MODULES and SWEEP_MODULES one fresh process has
    loaded after each command, run in turn through cli.main."""
    names = json.dumps(ON_DEMAND_MODULES + SWEEP_MODULES)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands), names],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_each_subcommand_loads_only_the_modules_it_runs():
    sweep = ["sweep", "--n-max", "3", "--max-rise", "4", "--bound", "4", "--workers"]
    rank1 = ["rank1", "--a", "3", "--b", "5/4"]
    after_sweep, after_pooled_sweep, after_rank1 = loaded_after_each(sweep + ["1"], sweep + ["2"], rank1)
    assert after_sweep == after_pooled_sweep == set(SWEEP_MODULES)
    assert "higgs_threeterm.filtered" in after_rank1

    # verify-metric and rank1 run no chain, so they load none of the sweep's modules
    after_rank1, after_verify_metric = loaded_after_each(rank1, ["verify-metric", "--grid", "2"])
    assert "higgs_threeterm.filtered" in after_rank1 and "numpy" in after_verify_metric
    assert not (after_rank1 | after_verify_metric) & set(SWEEP_MODULES)
    # alone it loads numpy, which loads inspect itself, and nothing else on demand
    assert loaded_after_each(["verify-metric", "--grid", "2"]) == [{"numpy", "inspect"}]

    # the exact calculus loads neither dataclasses nor the inspect that dataclasses would bring
    translate = ["translate", "--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2"]
    filtered_degree = ["filtered-degree", "--side", "bundle", "--jumps", "1/2:2", "--rank", "2", "--base-degree", "0"]
    for after in loaded_after_each(rank1, translate, filtered_degree):
        assert "higgs_threeterm.filtered" in after and not after & {"dataclasses", "inspect"}


def test_emit_writes_nothing_when_a_later_entry_cannot_be_json(capsys, tmp_path):
    # the report is written in pieces, so every piece is made before any is
    # written: the Written entry comes first and would otherwise be on disk
    from higgs_threeterm import cli, serialize

    report = {"violations": serialize.Written(["[1]"]), "timing_seconds": float("nan")}
    for out in (tmp_path / "report.json", None):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._emit(argparse.Namespace(format="json", out=out and str(out)), report, [], [])
        assert capsys.readouterr().out == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_necessity_report_is_written_without_being_held_whole(workers, tmp_path, time_bound):
    # the benchmark's necessity box, 2.7 MB of records: written in pieces,
    # the command's traced peak stays under twice the report's bytes.  Joined
    # into one string, then encoded whole, it read 3.1 times
    import tracemalloc

    path = tmp_path / "report.json"
    box = ["--mode", "necessity", "--n-min", "2", "--n-max", "9", "--max-rise", "10", "--bound", "10"]
    argv = ["sweep", *box, "--workers", workers, "--out", str(path)]
    assert main(argv) == 0  # untraced, so imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_a_bound_that_limits_no_chain_costs_no_memory(tmp_path):
    # from bound 8 up, the box n <= 3, rise <= 4 holds the same 12 chains, so
    # a far larger bound gives the same counts, and its chain count holds only
    # the heights the walk can reach, not one entry per height in the bound
    import tracemalloc

    def csv_of(bound):
        path = tmp_path / f"bound-{bound}.csv"
        argv = ["sweep", "--n-max", "3", "--max-rise", "4", "--bound", str(bound), "--format", "csv"]
        assert main([*argv, "--out", str(path)]) == 0
        return path.read_bytes()

    expected = csv_of(8)  # untraced, so imports and first-call caches are not counted
    tracemalloc.start()
    try:
        found = csv_of(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == expected
    assert peak < 2**20


# caps the child's address space at 1 GB, so a step set holding every even rise
# up to --max-rise 10^9 fails with MemoryError instead of filling the machine
LIMITED_ADDRESS_SPACE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import higgs_threeterm.cli as cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["sweep", "enumerate"])
def test_a_rise_above_twice_the_bound_is_never_walked(command):
    # a rise above 2*bound leaves the box |r| <= 4 from any root in it, so
    # --max-rise 10^9 walks the steps of --max-rise 8 and writes the same rows
    def csv_of(max_rise):
        argv = [command, "--n-max", "4", "--max-rise", max_rise, "--bound", "4", "--format", "csv"]
        proc = subprocess.run(
            [sys.executable, "-c", LIMITED_ADDRESS_SPACE, *argv], capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        return proc.stdout

    assert csv_of("1000000000") == csv_of("8")
