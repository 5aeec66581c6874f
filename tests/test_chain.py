"""Exact chain combinatorics: admissibility, slopes, profiles, enumeration."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from higgs_threeterm.chain import (
    MalformedSequenceError,
    RootSequence,
    count_chains,
    enumerate_chains,
    enumeration_steps,
    extend_chain,
    is_admissible,
    multiplicities,
    tail_slopes,
    three_term_holds,
    weight_has_nonzero_form,
)

even_ints = st.integers(-10, 10).map(lambda k: 2 * k)
root_lists = st.lists(even_ints, min_size=1, max_size=8).map(tuple)


# --- well-formedness ----------------------------------------------------------


def test_rejects_empty_and_odd():
    with pytest.raises(MalformedSequenceError):
        RootSequence(())
    with pytest.raises(MalformedSequenceError):
        RootSequence((2, 1))
    with pytest.raises(MalformedSequenceError):
        RootSequence((3,))


def test_root_sequence_is_an_immutable_value():
    seq = RootSequence((0, 2))
    assert seq == RootSequence(roots=[0, 2])
    assert seq != RootSequence((0, -2)) and seq != (0, 2)
    assert hash(seq) == hash(RootSequence((0, 2)))
    assert repr(seq) == "RootSequence(roots=(0, 2))"
    assert (len(seq), list(seq)) == (2, [0, 2])
    assert copy.copy(seq) == seq == pickle.loads(pickle.dumps(seq))
    with pytest.raises(AttributeError, match="cannot assign to field 'roots'"):
        seq.roots = (4,)
    with pytest.raises(AttributeError):
        seq.extra = 1
    with pytest.raises(AttributeError):
        del seq.roots
    assert seq.roots == (0, 2)
    messages = {
        (): "root sequence must be nonempty",
        (0, 2, 1): "roots must all be even, got 1",
        (0, True): "roots must be integers, got True",
        (0, 2.0): "roots must be integers, got 2.0",
    }
    for roots, message in messages.items():
        with pytest.raises(MalformedSequenceError) as info:
            RootSequence(roots)
        assert str(info.value) == message


def test_step_weights():
    assert RootSequence((2, 0, -2)).step_weights == (0, 0)
    assert RootSequence((0, 4)).step_weights == (6,)
    assert RootSequence((0, 0)).step_weights == (2,)


# --- admissibility ------------------------------------------------------------


@pytest.mark.parametrize(
    "roots, ok, bad_steps",
    [
        ((2, 0, -2), True, []),
        ((0, 0), False, [1]),
        ((0, -4), False, [1]),
        ((4, 2, 0, 4, 2, 0, -2), True, []),
        ((0, 0, 4, -6), False, [1, 3]),
    ],
)
def test_is_admissible(roots, ok, bad_steps):
    got_ok, got_bad = is_admissible(RootSequence(roots))
    assert (got_ok, got_bad) == (ok, bad_steps)


@given(root_lists)
def test_admissibility_agrees_with_weight_predicate(roots):
    seq = RootSequence(roots)
    ok, bad = is_admissible(seq)
    weights_ok = all(weight_has_nonzero_form(w) for w in seq.step_weights)
    assert ok == weights_ok
    for j, w in enumerate(seq.step_weights, start=1):
        assert (j in bad) == (not weight_has_nonzero_form(w))


def test_weight_has_nonzero_form():
    assert weight_has_nonzero_form(0)
    assert not weight_has_nonzero_form(2)
    assert not weight_has_nonzero_form(-4)
    assert weight_has_nonzero_form(4)
    assert not weight_has_nonzero_form(3)
    assert weight_has_nonzero_form(12)


# --- stability ----------------------------------------------------------------


def test_tail_slopes_stable_example():
    report = tail_slopes(RootSequence((2, 0, -2)).roots)
    assert report.total_slope == 0
    assert report.tail_slopes == (Fraction(-1), Fraction(-2))
    assert report.verdict == "stable"
    assert report.is_stable


def test_tail_slopes_unstable_example():
    report = tail_slopes(RootSequence((0, 4)).roots)
    assert report.total_slope == 2
    assert report.tail_slopes == (Fraction(4),)
    assert report.verdict == "strictly-destabilized-at-2"
    assert not report.is_stable


def test_tail_slopes_singleton():
    report = tail_slopes(RootSequence((6,)).roots)
    assert report.total_slope == 6
    assert report.tail_slopes == ()
    assert report.is_stable


def test_marginal_is_not_stable():
    # (0, -2, -4, -2): every tail is strictly below the total slope -2
    # except the last summand alone, which ties it exactly
    report = tail_slopes(RootSequence((0, -2, -4, -2)).roots)
    assert report.total_slope == -2
    assert report.tail_slopes == (Fraction(-8, 3), Fraction(-3), Fraction(-2))
    assert report.verdict == "marginal-at-4"
    assert not report.is_stable


def reference_stability(roots: tuple[int, ...]) -> tuple:
    """(kind, at_k, total slope, tail slopes) straight from the Fraction definition."""
    n = len(roots)
    total = Fraction(sum(roots), n)
    tails = tuple(Fraction(sum(roots[k - 1 :]), n - k + 1) for k in range(2, n + 1))
    strict = next((k for k, mu in enumerate(tails, start=2) if mu > total), None)
    if strict is not None:
        return ("strictly-destabilized", strict, total, tails)
    marginal = next((k for k, mu in enumerate(tails, start=2) if mu == total), None)
    if marginal is not None:
        return ("marginal", marginal, total, tails)
    return ("stable", None, total, tails)


def observed_stability(roots: tuple[int, ...]) -> tuple:
    report = tail_slopes(RootSequence(roots).roots)
    return (report.kind, report.at_k, report.total_slope, report.tail_slopes)


@pytest.mark.parametrize(
    "n_max, max_rise, root_bound", [(8, 2, 5), (7, 2, 4), (5, 6, 7), (4, 8, 9)]
)
def test_tail_slopes_matches_fraction_reference_exhaustively(n_max, max_rise, root_bound):
    kinds = set()
    for seq in enumerate_chains(2, n_max, max_rise, root_bound, require_stable=False):
        expected = reference_stability(seq.roots)
        assert observed_stability(seq.roots) == expected, seq.roots
        kinds.add(expected[0])
    assert kinds == {"stable", "strictly-destabilized", "marginal"}


@given(root_lists)
def test_tail_slopes_matches_fraction_reference(roots):
    assert observed_stability(roots) == reference_stability(roots)


def test_strict_destabilizer_wins_over_marginal():
    # (0, 0, 4): k=2 tail slope 2 > 4/3 total; k=3 tail slope 4 > total too
    report = tail_slopes(RootSequence((0, 0, 4)).roots)
    assert report.kind == "strictly-destabilized"
    assert report.at_k == 2


# --- multiplicities and the three-term inequality -------------------------------


def test_multiplicities_examples():
    assert multiplicities(RootSequence((4, 2, 0, 4, 2, 0, -2))).counts == {4: 2, 2: 2, 0: 2, -2: 1}
    assert multiplicities(RootSequence((0,))).counts == {0: 1}
    assert multiplicities(RootSequence((2, 0, -2))).counts == {2: 1, 0: 1, -2: 1}


@given(root_lists)
def test_multiplicities_total(roots):
    profile = multiplicities(RootSequence(roots))
    assert profile.total == len(roots)
    assert all(profile[r] > 0 for r in profile.counts)


def test_three_term_examples():
    ok, violations = three_term_holds({4: 2, 2: 2, 0: 2, -2: 1})
    assert ok and violations == []

    ok, violations = three_term_holds({0: 1, 4: 1})
    assert not ok
    assert [(v.height, v.count, v.below, v.above) for v in violations] == [
        (0, 1, 0, 0),
        (4, 1, 0, 0),
    ]

    ok, violations = three_term_holds({})
    assert ok and violations == []


@given(root_lists, st.integers(-6, 6).map(lambda k: 2 * k))
def test_shift_invariance(roots, shift):
    seq = RootSequence(roots)
    moved = RootSequence(tuple(r + shift for r in roots))

    assert is_admissible(seq) == is_admissible(moved)

    rep_a, rep_b = tail_slopes(seq.roots), tail_slopes(moved.roots)
    assert rep_a.kind == rep_b.kind
    assert rep_a.at_k == rep_b.at_k
    assert rep_b.total_slope == rep_a.total_slope + shift

    prof_a, prof_b = multiplicities(seq), multiplicities(moved)
    assert prof_b.counts == {r + shift: m for r, m in prof_a.counts.items()}

    ok_a, viol_a = three_term_holds(prof_a.counts)
    ok_b, viol_b = three_term_holds(prof_b.counts)
    assert ok_a == ok_b
    assert [(v.height + shift, v.count, v.below, v.above) for v in viol_a] == [
        tuple(v) for v in viol_b
    ]


# --- enumeration ----------------------------------------------------------------


def test_enumerate_smallest_stable_family():
    got = [s.roots for s in enumerate_chains(2, 2, 4, 4)]
    assert got == [(0, -2)]


def test_enumerate_contains_normalized_stable_example():
    got = [s.roots for s in enumerate_chains(2, 3, 4, 8)]
    assert (0, -2, -4) in got


def test_enumerate_zero_bound_is_empty():
    assert list(enumerate_chains(2, 3, 4, 0)) == []


def test_enumerate_all_admissible_and_normalized():
    for seq in enumerate_chains(2, 4, 6, 8, require_stable=False):
        assert seq.roots[0] == 0
        ok, _ = is_admissible(seq)
        assert ok
        assert all(abs(r) <= 8 for r in seq.roots)


def test_enumerate_stable_filter_matches_tail_slopes():
    everything = list(enumerate_chains(2, 4, 6, 8, require_stable=False))
    stable = [s.roots for s in enumerate_chains(2, 4, 6, 8, require_stable=True)]
    recomputed = [s.roots for s in everything if tail_slopes(s.roots).is_stable]
    assert stable == recomputed


def test_enumerate_deterministic_lexicographic():
    order = [s.roots for s in enumerate_chains(2, 3, 6, 6, require_stable=False)]
    assert order == sorted(order, key=lambda r: (len(r), r))
    assert order == [s.roots for s in enumerate_chains(2, 3, 6, 6, require_stable=False)]


def test_enumerate_parameter_errors():
    with pytest.raises(ValueError):
        list(enumerate_chains(1, 3, 4, 4))
    with pytest.raises(ValueError):
        list(enumerate_chains(2, 3, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_chains(2, 3, 4, -1))


STABLE_FAMILY = list(enumerate_chains(2, 4, 6, 6))


@given(st.sampled_from(STABLE_FAMILY))
def test_enumerated_stable_chains_satisfy_tail_order(seq):
    assert seq.roots[-1] < seq.roots[0]


# --- the stability cut and the counting DP ---------------------------------------

# every n <= 7 in each box; odd bounds, max_rise 2, and bounds 0 and 1 where
# a first step leaves the box
CUT_BOXES = pytest.mark.parametrize("max_rise", [2, 4, 6])
CUT_BOUNDS = pytest.mark.parametrize("bound", [0, 1, 3, 5, 8])


def box_prefixes(max_rise: int) -> list[tuple[int, ...]]:
    return [(0,)] + [(0, step) for step in enumeration_steps(max_rise)]


def is_stable(roots: tuple[int, ...]) -> bool:
    return tail_slopes(RootSequence(roots).roots).is_stable


@CUT_BOXES
@CUT_BOUNDS
def test_stable_only_walk_keeps_every_stable_chain_in_order(max_rise, bound):
    steps = enumeration_steps(max_rise)
    for n, prefix in itertools.product(range(2, 8), box_prefixes(max_rise)):
        full = list(extend_chain(prefix, n, steps, bound))
        pruned = list(extend_chain(prefix, n, steps, bound, stable_only=True))
        assert [r for r in pruned if is_stable(r)] == [r for r in full if is_stable(r)]
        remaining = iter(full)
        assert all(roots in remaining for roots in pruned)  # a subsequence of the full walk


@CUT_BOXES
@CUT_BOUNDS
def test_count_chains_matches_the_walk(max_rise, bound):
    steps = enumeration_steps(max_rise)
    for n, prefix in itertools.product(range(2, 8), box_prefixes(max_rise)):
        walked = len(list(extend_chain(prefix, n, steps, bound)))
        assert count_chains(prefix, n, steps, bound) == walked
        if abs(prefix[-1]) > bound:
            assert walked == 0


def test_count_chains_edge_cases():
    steps = enumeration_steps(4)
    assert count_chains((0, -2), 5, steps, 1) == 0
    assert count_chains((0, 4), 5, steps, 3) == 0
    assert count_chains((0,), 1, steps, 0) == 1
    # a prefix longer than n has no extension of length n
    assert count_chains((0, 2, 4), 2, steps, 4) == 0
    assert list(extend_chain((0, 2, 4), 2, steps, 4)) == []
    assert list(extend_chain((0, 2, 4), 2, steps, 4, stable_only=True)) == []


def walk_with_counts(prefix, n, steps, bound, stable_only):
    """Every (roots, carried counts) pair the walk yields, with the brute-force
    multiplicities beside them."""
    counts = {99: 1}  # stale entries must be cleared
    return [
        (roots, dict(counts), multiplicities(RootSequence(roots)).counts)
        for roots in extend_chain(prefix, n, steps, bound, stable_only=stable_only, counts=counts)
    ]


@CUT_BOXES
@CUT_BOUNDS
@pytest.mark.parametrize("stable_only", [False, True])
def test_walk_carries_the_multiplicities_of_every_leaf(max_rise, bound, stable_only):
    steps = enumeration_steps(max_rise)
    for n, prefix in itertools.product(range(1, 8), box_prefixes(max_rise)):
        leaves = walk_with_counts(prefix, n, steps, bound, stable_only)
        assert [roots for roots, _, _ in leaves] == list(
            extend_chain(prefix, n, steps, bound, stable_only=stable_only)
        )
        for roots, carried, expected in leaves:
            assert carried == expected, roots


@given(
    root_lists,
    st.integers(0, 4),
    st.sampled_from([2, 4, 6, 8]),
    st.integers(0, 12),
    st.booleans(),
)
def test_walk_carries_the_multiplicities_from_any_prefix(prefix, extra, max_rise, bound, stable_only):
    # the depth-first walk is a sequence of pushes and pops from the prefix on
    n = len(prefix) + extra
    for roots, carried, expected in walk_with_counts(prefix, n, enumeration_steps(max_rise), bound, stable_only):
        assert carried == expected, roots


@given(st.data())
def test_cut_prefixes_have_no_stable_completion(data):
    n = data.draw(st.integers(2, 7))
    max_rise = data.draw(st.sampled_from([2, 4, 6]))
    bound = data.draw(st.integers(0, 9))
    steps = enumeration_steps(max_rise)
    prefix = (0,)
    for _ in range(data.draw(st.integers(0, n - 2))):
        inside = [prefix[-1] + d for d in steps if abs(prefix[-1] + d) <= bound]
        assume(inside)
        prefix += (data.draw(st.sampled_from(inside)),)
    k, last = len(prefix), prefix[-1]
    # the cut as defined: the all-drops completion clamped at -bound cannot
    # bring the total mean below the smallest prefix mean
    floor = sum(prefix) + sum(max(last - 2 * t, -bound) for t in range(1, n - k + 1))
    lowest_mean = min(Fraction(sum(prefix[:j]), j) for j in range(1, k + 1))
    completions = [
        prefix + tuple(itertools.accumulate(deltas, initial=last))[1:]
        for deltas in itertools.product(steps, repeat=n - k)
    ]
    completions = [roots for roots in completions if all(abs(r) <= bound for r in roots)]
    assert all(sum(roots) >= floor for roots in completions)
    if Fraction(floor, n) >= lowest_mean:
        assert not any(is_stable(roots) for roots in completions)
        assert list(extend_chain(prefix, n, steps, bound, stable_only=True)) == []
