"""Exact chain combinatorics: admissibility, slopes, profiles, enumeration."""

import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from higgs_threeterm.chain import (
    MAX_LENGTH,
    MalformedSequenceError,
    RootSequence,
    check_box,
    count_chains,
    enumerate_chains,
    enumeration_steps,
    extend_chain,
    is_admissible,
    multiplicities,
    step_weights,
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


class Tagged(int):
    """An int subclass."""


def test_root_sequence_is_an_immutable_value():
    seq = RootSequence((0, 2))
    assert type(seq) is RootSequence and isinstance(seq, tuple)
    assert seq == RootSequence(roots=[0, 2]) == (0, 2) and seq != (0, -2)
    assert hash(seq) == hash((0, 2)) and {seq: 1}[(0, 2)] == 1
    assert repr(seq) == "(0, 2)"
    for back in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert type(back) is RootSequence and back == seq
    with pytest.raises(TypeError):
        seq[0] = 4
    with pytest.raises(AttributeError):
        seq.extra = 1
    with pytest.raises(AttributeError):
        seq.roots = (4,)
    with pytest.raises(AttributeError):
        seq.roots  # no field to unwrap
    assert seq == (0, 2)
    # the first bad root is named, its type checked before its parity
    messages = {
        (): "root sequence must be nonempty",
        (0, 2, 1): "roots must all be even, got 1",
        (0, True): "roots must be integers, got True",
        (0, 2.0): "roots must be integers, got 2.0",
        (True,): "roots must be integers, got True",
        (0, False): "roots must be integers, got False",
        (1.0, 2): "roots must be integers, got 1.0",
        (3, True): "roots must all be even, got 3",
        (0, Tagged(5)): "roots must all be even, got 5",
    }
    for roots, message in messages.items():
        with pytest.raises(MalformedSequenceError) as info:
            RootSequence(roots)
        assert str(info.value) == message
    # an int subclass other than bool is a root, kept as given
    seq = RootSequence((Tagged(0), 2, Tagged(-2)))
    assert seq == RootSequence((0, 2, -2)) and [type(r) for r in seq] == [Tagged, int, Tagged]


def test_step_weights():
    assert step_weights(RootSequence((2, 0, -2))) == (0, 0)
    assert step_weights((0, 4)) == (6,)
    assert step_weights((0, 0)) == (2,)


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
    weights_ok = all(weight_has_nonzero_form(w) for w in step_weights(seq))
    assert ok == weights_ok
    for j, w in enumerate(step_weights(seq), start=1):
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
    report = tail_slopes(RootSequence((2, 0, -2)))
    assert report.total_slope == 0
    assert report.tail_slopes == (Fraction(-1), Fraction(-2))
    assert report.verdict == "stable"
    assert report.is_stable


def test_tail_slopes_unstable_example():
    report = tail_slopes(RootSequence((0, 4)))
    assert report.total_slope == 2
    assert report.tail_slopes == (Fraction(4),)
    assert report.verdict == "strictly-destabilized-at-2"
    assert not report.is_stable


def test_tail_slopes_singleton():
    report = tail_slopes(RootSequence((6,)))
    assert report.total_slope == 6
    assert report.tail_slopes == ()
    assert report.is_stable


def test_marginal_is_not_stable():
    # (0, -2, -4, -2): every tail is strictly below the total slope -2
    # except the last summand alone, which ties it exactly
    report = tail_slopes(RootSequence((0, -2, -4, -2)))
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
    report = tail_slopes(RootSequence(roots))
    return (report.kind, report.at_k, report.total_slope, report.tail_slopes)


@pytest.mark.parametrize(
    "n_max, max_rise, root_bound", [(8, 2, 5), (7, 2, 4), (5, 6, 7), (4, 8, 9)]
)
def test_tail_slopes_matches_fraction_reference_exhaustively(n_max, max_rise, root_bound):
    kinds = set()
    for roots in enumerate_chains(2, n_max, max_rise, root_bound, require_stable=False):
        expected = reference_stability(roots)
        assert observed_stability(roots) == expected, roots
        kinds.add(expected[0])
    assert kinds == {"stable", "strictly-destabilized", "marginal"}


@given(root_lists)
def test_tail_slopes_matches_fraction_reference(roots):
    assert observed_stability(roots) == reference_stability(roots)


def test_strict_destabilizer_wins_over_marginal():
    # (0, 0, 4): k=2 tail slope 2 > 4/3 total; k=3 tail slope 4 > total too
    report = tail_slopes(RootSequence((0, 0, 4)))
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
    assert sum(profile.counts.values()) == len(roots)
    assert all(profile.counts.get(r, 0) > 0 for r in profile.counts)


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

    rep_a, rep_b = tail_slopes(seq), tail_slopes(moved)
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
    chains = list(enumerate_chains(2, 2, 4, 4))
    # root tuples, not RootSequences: a RootSequence equals its tuple, so check the type
    assert chains == [(0, -2)] and [type(c) for c in chains] == [tuple]


def test_enumerate_contains_normalized_stable_example():
    assert (0, -2, -4) in enumerate_chains(2, 3, 4, 8)


def test_the_walk_reaches_the_longest_box_a_check_allows():
    # the walk recurses once per root; its first descent alternates 0, -2
    roots, _, _ = next(extend_chain((0,), MAX_LENGTH, enumeration_steps(2, 2), 2))
    assert roots == (0, -2) * (MAX_LENGTH // 2)
    check_box(2, MAX_LENGTH, 2, 2)
    with pytest.raises(ValueError, match=rf"^n_max must be <= {MAX_LENGTH}, got {MAX_LENGTH + 1}$"):
        check_box(2, MAX_LENGTH + 1, 2, 2)


NOT_INT_BOUNDS = [True, False, 2.0, 2.5, Fraction(2)]


@pytest.mark.parametrize("value", NOT_INT_BOUNDS)
@pytest.mark.parametrize("field", range(4))
def test_box_bounds_must_be_ints(field, value):
    # a bool reads as 0 or 1 and a float passes the range checks (enumerate_chains(2, 3, 2, 2.5)
    # yielded [(0, -2)]), so each is refused by type, naming its bound, before any range check
    box = [2, 3, 2, 2]
    box[field] = value
    name = ("n_min", "n_max", "max_rise", "root_bound")[field]
    for call in (check_box, enumerate_chains):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(*box)


def test_enumerate_zero_bound_is_empty():
    assert list(enumerate_chains(2, 3, 4, 0)) == []


def test_enumerate_all_admissible_and_normalized():
    for roots in enumerate_chains(2, 4, 6, 8, require_stable=False):
        assert roots[0] == 0
        ok, _ = is_admissible(RootSequence(roots))
        assert ok
        assert all(abs(r) <= 8 for r in roots)


def test_enumerate_stable_filter_matches_tail_slopes():
    everything = list(enumerate_chains(2, 4, 6, 8, require_stable=False))
    stable = list(enumerate_chains(2, 4, 6, 8, require_stable=True))
    recomputed = [roots for roots in everything if tail_slopes(roots).is_stable]
    assert stable == recomputed


def test_enumerate_deterministic_lexicographic():
    order = list(enumerate_chains(2, 3, 6, 6, require_stable=False))
    assert order == sorted(order, key=lambda r: (len(r), r))
    assert order == list(enumerate_chains(2, 3, 6, 6, require_stable=False))


def test_enumerate_parameter_errors():
    with pytest.raises(ValueError):
        list(enumerate_chains(1, 3, 4, 4))
    with pytest.raises(ValueError):
        list(enumerate_chains(2, 3, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_chains(2, 3, 4, -1))


STABLE_FAMILY = list(enumerate_chains(2, 4, 6, 6))


@given(st.sampled_from(STABLE_FAMILY))
def test_enumerated_stable_chains_satisfy_tail_order(roots):
    assert roots[-1] < roots[0]


# --- the stability cut and the counting DP ---------------------------------------

# every n <= 7 in each box; odd bounds, max_rise 2, and bounds 0 and 1 where
# a first step leaves the box
CUT_BOXES = pytest.mark.parametrize("max_rise", [2, 4, 6])
CUT_BOUNDS = pytest.mark.parametrize("bound", [0, 1, 3, 5, 8])


def box_prefixes(max_rise: int, bound: int) -> list[tuple[int, ...]]:
    return [(0,)] + [(0, step) for step in enumeration_steps(max_rise, bound)]


def is_stable(roots: tuple[int, ...]) -> bool:
    return tail_slopes(RootSequence(roots)).is_stable


@CUT_BOXES
@pytest.mark.parametrize("bound", range(10))
def test_stable_only_walk_keeps_every_stable_chain_in_order(max_rise, bound):
    steps = enumeration_steps(max_rise, bound)
    for n, prefix in itertools.product(range(2, 9), box_prefixes(max_rise, bound)):
        full = [roots for roots, _, _ in extend_chain(prefix, n, steps, bound)]
        pruned = [roots for roots, _, _ in extend_chain(prefix, n, steps, bound, stable_only=True)]
        assert [r for r in pruned if is_stable(r)] == [r for r in full if is_stable(r)]
        remaining = iter(full)
        assert all(roots in remaining for roots in pruned)  # a subsequence of the full walk


@CUT_BOXES
@CUT_BOUNDS
def test_count_chains_matches_the_walk(max_rise, bound):
    steps = enumeration_steps(max_rise, bound)
    for n, prefix in itertools.product(range(2, 8), box_prefixes(max_rise, bound)):
        walked = len(list(extend_chain(prefix, n, steps, bound)))
        assert count_chains(prefix, n, steps, bound)[n] == walked
        if abs(prefix[-1]) > bound:
            assert walked == 0


def test_count_chains_edge_cases():
    steps = (-2, 2, 4)
    assert count_chains((0, -2), 5, steps, 1) == [0] * 6
    assert count_chains((0, 4), 5, steps, 3) == [0] * 6
    assert count_chains((0,), 1, steps, 0) == [0, 1]
    assert count_chains((0,), 3, steps, 0) == [0, 1, 0, 0]
    # a prefix longer than n has no extension of length n
    assert count_chains((0, 2, 4), 2, steps, 4) == [0, 0, 0]
    assert list(extend_chain((0, 2, 4), 2, steps, 4)) == []
    assert list(extend_chain((0, 2, 4), 2, steps, 4, stable_only=True)) == []


@pytest.mark.parametrize("max_rise", [2, 8, 20])
@pytest.mark.parametrize("bound", range(7))
def test_the_box_bounds_the_step_set(max_rise, bound):
    # a rise above 2*bound leaves the box from any root in it, so dropping
    # those rises changes no walk and no count
    every_rise = (-2, *range(2, max_rise + 1, 2))
    steps = enumeration_steps(max_rise, bound)
    assert steps == every_rise[: 1 + min(max_rise, 2 * bound) // 2]
    for n, stable_only in itertools.product(range(1, 7), [False, True]):
        walk = extend_chain((0,), n, steps, bound, stable_only=stable_only, three_term=True)
        assert list(walk) == list(extend_chain((0,), n, every_rise, bound, stable_only=stable_only, three_term=True))
    assert count_chains((0,), 6, steps, bound) == count_chains((0,), 6, every_rise, bound)


def walk_with_counts(prefix, n, steps, bound, stable_only):
    """Every (roots, carried counts) pair the walk yields, with the brute-force
    multiplicities beside them."""
    counts = {99: 1}  # stale entries must be cleared
    return [
        (roots, dict(counts), multiplicities(RootSequence(roots)).counts)
        for roots, _, _ in extend_chain(prefix, n, steps, bound, stable_only=stable_only, counts=counts)
    ]


@CUT_BOXES
@CUT_BOUNDS
@pytest.mark.parametrize("stable_only", [False, True])
def test_walk_carries_the_multiplicities_of_every_leaf(max_rise, bound, stable_only):
    steps = enumeration_steps(max_rise, bound)
    for n, prefix in itertools.product(range(1, 8), box_prefixes(max_rise, bound)):
        leaves = walk_with_counts(prefix, n, steps, bound, stable_only)
        assert [roots for roots, _, _ in leaves] == [
            roots for roots, _, _ in extend_chain(prefix, n, steps, bound, stable_only=stable_only)
        ]
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
    for roots, carried, expected in walk_with_counts(prefix, n, enumeration_steps(max_rise, bound), bound, stable_only):
        assert carried == expected, roots


@given(st.data())
def test_cut_prefixes_have_no_stable_completion(data):
    n = data.draw(st.integers(2, 7))
    max_rise = data.draw(st.sampled_from([2, 4, 6]))
    bound = data.draw(st.integers(0, 9))
    steps = enumeration_steps(max_rise, bound)
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


class PushCounter(dict):
    """Carried multiplicities that count every store raising a count: each
    root the walk pushes, the prefix's included."""

    pushes = 0

    def __setitem__(self, key, value):
        self.pushes += value > self.get(key, 0)
        super().__setitem__(key, value)


def test_the_cut_prunes_as_hard_as_pinned():
    # n 2-12, rise <= 4, |r| <= 6, walked partition by partition as the sweep
    # walks it.  The cut is sound whatever its strength, so a weaker one (">"
    # for ">=", or no clamp at the box floor) keeps the same stable chains and
    # shows only in the pushes: 5,291 and 4,922 of them
    steps = enumeration_steps(4, 6)
    counts = PushCounter()
    stable = 0
    for n in range(2, 13):
        for first_step in steps:
            stable += sum(1 for _ in extend_chain((0, first_step), n, steps, 6, stable_only=True, counts=counts))
    assert (counts.pushes, stable) == (4_843, 1_431)


def test_the_cut_is_exact_away_from_the_box_floor():
    # a prefix of length k < n that passes the cut (floor/n below its smallest
    # prefix mean), where the all-drops completion last - 2t, t = 1..n-k, stays
    # inside the box, completes to a stable chain: that completion itself.
    # Every in-box prefix, n 2-8, rises 2, 4 and 6, bounds 0-9
    witnessed = 0
    for max_rise, bound in itertools.product([2, 4, 6], range(10)):
        steps = enumeration_steps(max_rise, bound)
        for k in range(1, 8):
            for prefix, _, _ in extend_chain((0,), k, steps, bound):
                lowest_mean = min(Fraction(sum(prefix[:j]), j) for j in range(1, k + 1))
                for n in range(k + 1, 9):
                    floor_chain = prefix + tuple(prefix[-1] - 2 * t for t in range(1, n - k + 1))
                    if floor_chain[-1] < -bound:  # and so for every longer n
                        break
                    if Fraction(sum(floor_chain), n) < lowest_mean:
                        assert is_stable(floor_chain), floor_chain
                        kept = [roots for roots, _, _ in extend_chain(prefix, n, steps, bound, stable_only=True)]
                        assert floor_chain in kept, floor_chain
                        witnessed += 1
    assert witnessed == 1_460


@given(st.data())
def test_last_step_cut_skips_only_unstable_leaves(data):
    # a walk from a prefix of length n-1 yields leaves only; the cut drops
    # exactly those whose last root is not below the mean of the others
    n = data.draw(st.integers(2, 9))
    max_rise = data.draw(st.sampled_from([2, 4, 6, 8]))
    bound = data.draw(st.integers(0, 12))
    steps = enumeration_steps(max_rise, bound)
    prefix = (0,)
    while len(prefix) < n - 1:
        inside = [prefix[-1] + d for d in steps if abs(prefix[-1] + d) <= bound]
        assume(inside)
        prefix += (data.draw(st.sampled_from(inside)),)
    leaves = [roots for roots, _, _ in extend_chain(prefix, n, steps, bound)]
    kept = [roots for roots, _, _ in extend_chain(prefix, n, steps, bound, stable_only=True)]
    for roots in leaves:
        if (n - 1) * roots[-1] >= sum(prefix):
            assert roots not in kept
            assert not tail_slopes(roots).is_stable, roots
        elif roots not in kept:  # the branch-and-bound cut, before any last step
            assert not is_stable(roots), roots


# --- the walk's own stability verdict -------------------------------------------


def entry_cut_walk(prefix, n, steps, bound):
    """The stable-only walk as it stood before it decided stability itself:
    each node is built, then cut on entry by the same floor, the leaf loop
    stops at (n-1)*r_n >= P_{n-1}, and some unstable leaves get through."""
    if abs(prefix[-1]) > bound or len(prefix) > n:
        return
    if len(prefix) == n:
        yield prefix
        return
    total, low_sum, low_len = 0, prefix[0], 1
    for j, r in enumerate(prefix, start=1):
        total += r
        if total * low_len < low_sum * j:
            low_sum, low_len = total, j

    def walk(roots, total, low_sum, low_len):
        k, last = len(roots), roots[-1]
        left = n - k
        drops = min(left, (last + bound) // 2)
        floor = total + drops * last - drops * (drops + 1) - (left - drops) * bound
        if floor * low_len >= n * low_sum:
            return
        for delta in steps:
            nxt = last + delta
            if k + 1 == n and k * nxt >= total:
                break
            if abs(nxt) <= bound:
                grown = total + nxt
                low = (grown, k + 1) if grown * low_len < low_sum * (k + 1) else (low_sum, low_len)
                if k + 1 == n:
                    yield roots + (nxt,)
                else:
                    yield from walk(roots + (nxt,), grown, *low)

    yield from walk(prefix, total, low_sum, low_len)


def assert_walk_decides_stability(prefix, n, steps, bound):
    full = list(extend_chain(prefix, n, steps, bound))
    for roots, stable, _ in full:
        assert stable == tail_slopes(roots).is_stable, roots
    kept = list(extend_chain(prefix, n, steps, bound, stable_only=True))
    assert kept == [leaf for leaf in full if leaf[1]]
    assert [roots for roots, _, _ in kept] == [r for r in entry_cut_walk(prefix, n, steps, bound) if is_stable(r)]
    return full


@CUT_BOXES
@pytest.mark.parametrize("bound", range(10))
def test_walk_decides_stability_exhaustively(max_rise, bound):
    # n 1-8 from every box prefix, so prefixes of length n (n = 1 included)
    # take their flag from the same inequality
    steps = enumeration_steps(max_rise, bound)
    verdicts = set()
    for n, prefix in itertools.product(range(1, 9), box_prefixes(max_rise, bound)):
        verdicts |= {stable for _, stable, _ in assert_walk_decides_stability(prefix, n, steps, bound)}
    assert verdicts == ({True} if bound < 2 else {True, False})


@given(root_lists, st.integers(0, 4), st.sampled_from([2, 4, 6, 8]), st.integers(0, 12))
def test_walk_decides_stability_from_any_prefix(prefix, extra, max_rise, bound):
    assert_walk_decides_stability(prefix, len(prefix) + extra, enumeration_steps(max_rise, bound), bound)


# --- the walk's own three-term verdict ------------------------------------------


def assert_walk_decides_three_term(prefix, n, steps, bound, stable_only):
    """At every yield the walk's violated heights are those of
    three_term_holds on the leaf's multiplicities.  Returns what became of
    the parent's violations at the leaves past the prefix: each one that
    "stops" or "keeps"."""
    fates = set()
    walk = list(extend_chain(prefix, n, steps, bound, stable_only=stable_only, three_term=True))
    # the verdict is asked for: the same tuples, and None without it
    unasked = list(extend_chain(prefix, n, steps, bound, stable_only=stable_only))
    assert unasked == [(roots, stable, None) for roots, stable, _ in walk]
    for roots, _, violated in walk:
        _, expected = three_term_holds(multiplicities(RootSequence(roots)).counts)
        assert type(violated) is tuple
        assert violated == tuple(v.height for v in expected), roots
        if len(roots) > len(prefix):
            _, before = three_term_holds(multiplicities(RootSequence(roots[:-1])).counts)
            fates |= {"keeps" if v.height in violated else "stops" for v in before}
    return fates


@pytest.mark.parametrize("max_rise", [2, 4, 6])
@pytest.mark.parametrize("bound", range(10))
@pytest.mark.parametrize("stable_only", [False, True])
def test_walk_decides_three_term_exhaustively(max_rise, bound, stable_only):
    # n 1-8 from every box prefix: a prefix of length n takes its verdict
    # from a full scan, a leaf from its parent's violating heights
    steps = enumeration_steps(max_rise, bound)
    fates = set()
    for n, prefix in itertools.product(range(1, 9), box_prefixes(max_rise, bound)):
        fates |= assert_walk_decides_three_term(prefix, n, steps, bound, stable_only)
    if bound >= 4 and max_rise >= 4 and not stable_only:
        assert fates == {"stops", "keeps"}


@given(root_lists, st.integers(0, 4), st.sampled_from([2, 4, 6, 8]), st.integers(0, 12), st.booleans())
def test_walk_decides_three_term_from_any_prefix(prefix, extra, max_rise, bound, stable_only):
    # random prefixes start the walk with violations of their own
    assert_walk_decides_three_term(prefix, len(prefix) + extra, enumeration_steps(max_rise, bound), bound, stable_only)
