"""Rational strings, complex pairs, report key stability, the JSON writer."""

import json
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgs_threeterm import cli, serialize
from higgs_threeterm.chain import RootSequence, multiplicities
from higgs_threeterm.serialize import (
    Written,
    check_report,
    complex_pair_json,
    dumps,
    format_rational,
    join_items,
    parse_rational,
    profile_json,
    write_items,
)


def test_format_examples():
    assert format_rational(Fraction(1, 6)) == "1/6"
    assert format_rational(Fraction(-5, 6)) == "-5/6"
    assert format_rational(Fraction(2, 4)) == "1/2"  # lowest terms
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(0)) == "0"


@given(st.fractions(max_denominator=10**6))
def test_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_accepts_decimal_text():
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(" -3/9 ") == Fraction(-1, 3)


def test_complex_pair():
    assert complex_pair_json((Fraction(-1, 6), Fraction(0))) == {"re": "-1/6", "im": "0"}


def test_profile_order_is_descending():
    profile = multiplicities(RootSequence((4, 2, 0, 4, 2, 0, -2)))
    assert list(profile_json(profile)) == ["4", "2", "0", "-2"]


def test_check_report_bytes_are_stable():
    seq = RootSequence((4, 2, 0, -2))
    a = json.dumps(check_report(seq), indent=2)
    b = json.dumps(check_report(seq), indent=2)
    assert a == b


# --- the writer against json.dumps(indent=2) -------------------------------------


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


class Pair(NamedTuple):
    first: object
    second: object


class Record(dict):
    pass


AWKWARD_CHARACTERS = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\U0001f600"])
STRINGS = st.text(st.characters() | AWKWARD_CHARACTERS, max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**30), -1])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308])
    | STRINGS
)
KEYS = STRINGS | st.integers() | st.sampled_from([None, True, False, 0.5, -0.0, 1e16])


def containers(children):
    items = st.lists(children, max_size=4)
    entries = st.dictionaries(KEYS, children, max_size=4)
    return (
        items
        | items.map(tuple)
        | entries
        | entries.map(Record)
        | st.builds(Pair, children, children)
    )


TREES = st.recursive(SCALARS, containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_dumps_matches_json_indent_two(obj):
    assert dumps(obj) == oracle(obj)


# a detail holds numbers, flags, or a list of reasons
DETAILS = st.dictionaries(STRINGS, SCALARS | st.lists(STRINGS, max_size=3), max_size=4)
RECORDS = st.fixed_dictionaries({"roots": st.lists(st.integers(), max_size=6), "kind": STRINGS, "detail": DETAILS})


@settings(max_examples=100, deadline=None)
@given(st.lists(RECORDS, max_size=8), st.lists(st.integers(0, 8), max_size=5), st.booleans())
def test_records_written_in_pieces_join_to_dumps_of_the_whole_report(records, cuts, passed):
    # each piece is one partition's records, possibly none, written where
    # they sit in the report: a list that opens at depth 1
    bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
    pieces = [write_items(records[a:b], 1) for a, b in zip(bounds, bounds[1:])]
    report = {"totals": {"stable": 1}, "violations": records, "pass": passed}
    expected = dumps(report)
    assert expected == oracle(report)
    # the only other value is a scalar: the Written text must not go to the C encoder
    assert dumps({"violations": join_items(pieces, 1), "pass": passed}) == oracle(
        {"violations": records, "pass": passed}
    )
    assert dumps({**report, "violations": join_items(pieces, 1)}) == expected


@pytest.mark.parametrize(
    "obj",
    [{}, [], (), [[]], [{}], {"a": {"b": {}}}, {"a": []}, Pair([], {}), Record(), 0, "", None],
)
def test_dumps_matches_json_on_empty_containers_and_scalars(obj):
    assert dumps(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place",
    [
        lambda bad: bad,
        lambda bad: [1.0, bad],  # flat: the C encoder sees it
        lambda bad: {"a": 1, "b": bad},
        lambda bad: {"a": [1, {"b": bad}]},  # inside a flat container of a nested one
        lambda bad: [[1], bad],  # a scalar child of a nested container
        lambda bad: {bad: [1]},  # a key of a nested container
        lambda bad: [{bad: 1}],  # a key of a flat container
    ],
)
def test_dumps_rejects_non_finite_floats(place, bad):
    obj = place(bad)
    with pytest.raises(ValueError):
        oracle(obj)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [object(), [object()], {"a": object()}, {"a": [1, {"b": object()}]}, [[1], object()], {(1,): [1]}, {(1,): 1}],
)
def test_dumps_rejects_what_json_cannot_hold(obj):
    with pytest.raises(TypeError) as expected:
        oracle(obj)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value)


EVERY_SUBCOMMAND = [
    ["check", "--roots", "4,2,0,4,2,0,-2"],
    ["enumerate", "--n-min", "2", "--n-max", "4", "--max-rise", "6", "--bound", "8", "--all"],
    ["pair", "--roots", "2,0,-2", "--height", "0"],
    ["pair", "--roots", "4,2,0,4,2,0,-2", "--all-heights"],
    ["pair", "--roots", "0", "--height", "0"],  # the singleton: a counterexample on stderr
    ["translate", "--from", "higgs", "--jump=-1/3", "--re=-1/4", "--im=-1/2"],
    ["rank1", "--a", "3", "--b", "5/4"],
    ["filtered-degree", "--side", "bundle", "--jumps", "5/6:1", "--base-degree=-5/6", "--rank", "1"],
    ["verify-metric", "--grid", "20", "--seed", "7"],
    ["sweep", "--n-max", "5", "--max-rise", "8", "--bound", "8"],
    ["sweep", "--mode", "necessity", "--n-max", "5", "--max-rise", "8", "--bound", "8"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: " ".join(argv[:3]))
def test_every_subcommand_writes_json_indent_two(argv, capsys, monkeypatch):
    written = []

    def spy(obj):
        text = dumps(obj)
        # a sweep report holds its violation list already written
        as_json = {k: json.loads(v.text) if isinstance(v, Written) else v for k, v in obj.items()}
        written.append((text, oracle(as_json)))
        return text

    monkeypatch.setattr(serialize, "dumps", spy)
    cli.main(argv)
    out, err = capsys.readouterr()
    [(text, expected)] = written
    assert text == expected
    assert (out or err) == text + "\n"
