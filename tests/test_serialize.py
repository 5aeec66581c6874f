"""Rational strings and the JSON writer."""

import json
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgs_threeterm import cli, serialize
from higgs_threeterm.chain import ThreeTermViolation
from higgs_threeterm.serialize import (
    Written,
    dumps,
    format_rational,
    int_list_items,
    parse_rational,
    pieces,
    three_term_items,
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
    texts = [write_items(records[a:b]) for a, b in zip(bounds, bounds[1:])]
    report = {"totals": {"stable": 1}, "violations": records, "pass": passed}
    expected = dumps(report)
    assert expected == oracle(report)
    # the only other value is a scalar
    assert dumps({"violations": Written(texts), "pass": passed}) == oracle(
        {"violations": records, "pass": passed}
    )
    assert dumps({**report, "violations": Written(texts)}) == expected


# a report's entries in order: a value with cuts is a list written in
# pieces, cut there, so a Written; a value without goes to json.dumps
ENTRIES = st.lists(
    st.tuples(KEYS, TREES, st.none())
    | st.tuples(KEYS, st.lists(TREES, max_size=6), st.lists(st.integers(0, 6), max_size=4)),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(ENTRIES)
def test_pieces_join_to_json_indent_two_and_keep_each_written_piece(entries):
    report, expected, given_texts = {}, {}, {}
    for key, value, cuts in entries:
        expected[key] = value
        if cuts is None:
            report[key] = value
            given_texts.pop(key, None)  # a later entry of the same key replaces an earlier
        else:
            bounds = [0, *sorted(min(cut, len(value)) for cut in cuts), len(value)]
            given_texts[key] = [write_items(value[a:b]) for a, b in zip(bounds, bounds[1:])]
            report[key] = Written(given_texts[key])
    parts = pieces(report)
    assert "".join(parts) == dumps(report) == oracle(expected)
    # each nonempty piece is passed through as the object Written was given, never copied
    for text in (text for texts in given_texts.values() for text in texts if text):
        assert any(part is text for part in parts)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(), min_size=1, max_size=6).map(tuple),
            # the sweep passes plain 4-tuples in the named tuple's field order
            st.lists(st.tuples(*[st.integers()] * 4) | st.builds(ThreeTermViolation, *[st.integers()] * 4), max_size=4),
        ),
        max_size=4,
    ),
)
def test_three_term_items_match_write_items_of_the_records(chains):
    # each chain's records in report order: by their detail as JSON with sorted keys
    records = []
    for roots, violations in chains:
        details = [ThreeTermViolation(*v)._asdict() for v in violations]
        details.sort(key=lambda detail: json.dumps(detail, sort_keys=True))
        records += [{"roots": list(roots), "kind": "three-term", "detail": detail} for detail in details]
    assert three_term_items(chains) == write_items(records)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(), min_size=1, max_size=6), max_size=6))
def test_int_list_items_match_write_items(lists):
    assert int_list_items(lists) == write_items(lists)


@pytest.mark.parametrize(
    "report",
    [
        {"a": [1, [2]], "b": {"c": None}},
        Record(a=[]),
        {1: [3], None: [], True: [[]], 0.5: [{"x": 1}], "s": "t"},  # keys json.dumps converts
    ],
)
def test_a_written_value_of_a_top_level_dict_is_copied_as_it_stands(report):
    first, *_ = report
    with_written = {**report, first: Written([write_items(report[first])])}
    assert dumps(with_written) == oracle(report)


@pytest.mark.parametrize(
    "obj",
    [
        Written([]),  # the top level itself
        [Written([])],
        (1, Written([])),
        {"a": [Written([])]},  # inside a top-level dict's value
        {"a": {"b": Written([])}},
        {"a": Written([]), "b": [Written([])]},  # also next to one that is copied
    ],
)
def test_dumps_rejects_a_written_anywhere_else(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(expected.value) == "Object of type Written is not JSON serializable"


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
        lambda bad: [1.0, bad],  # an item of a list of scalars
        lambda bad: {"a": 1, "b": bad},
        lambda bad: {"a": [1, {"b": bad}]},  # a value two containers down
        lambda bad: [[1], bad],  # a scalar next to a container
        lambda bad: {bad: [1]},  # a key whose value is a container
        lambda bad: [{bad: 1}],  # a key of a dict inside a list
    ],
)
def test_dumps_rejects_non_finite_floats(place, bad):
    obj = place(bad)
    with pytest.raises(ValueError):
        oracle(obj)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps(obj)
    # and next to a Written, which dumps copies rather than hands to json.dumps
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps({"written": Written([]), "next": obj})


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
        parts = pieces(obj)
        # a sweep report holds its violation list already written
        as_json = {k: json.loads("".join(v.parts)) if isinstance(v, Written) else v for k, v in obj.items()}
        written.append(("".join(parts), oracle(as_json)))
        return parts

    monkeypatch.setattr(serialize, "pieces", spy)
    cli.main(argv)
    out, err = capsys.readouterr()
    [(text, expected)] = written
    assert text == expected
    assert (out or err) == text + "\n"
