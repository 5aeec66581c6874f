"""Exact chain combinatorics: admissibility, slopes, profiles, enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgs_threeterm.chain import (
    ChainHiggsBundle,
    MalformedSequenceError,
    MultiplicityProfile,
    RootSequence,
    enumerate_chains,
    hitchin_invariants,
    is_admissible,
    multiplicities,
    tail_slopes,
    three_term_holds,
    weight_has_nonzero_form,
)

even_ints = st.integers(-10, 10).map(lambda k: 2 * k)
root_lists = st.lists(even_ints, min_size=1, max_size=8).map(tuple)
# admissible by construction: drop of 2 or even rises
admissible_steps = st.lists(st.sampled_from([-2, 2, 4, 6, 8]), min_size=1, max_size=7)


def seq_from_steps(start: int, steps: list[int]) -> RootSequence:
    roots = [start]
    for d in steps:
        roots.append(roots[-1] + d)
    return RootSequence(tuple(roots))


# --- well-formedness ----------------------------------------------------------


def test_rejects_empty_and_odd():
    with pytest.raises(MalformedSequenceError):
        RootSequence(())
    with pytest.raises(MalformedSequenceError):
        RootSequence((2, 1))
    with pytest.raises(MalformedSequenceError):
        RootSequence((3,))


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
    assert profile.total == len(roots)
    assert all(profile[r] > 0 for r in profile.counts)


def test_three_term_examples():
    ok, violations = three_term_holds(MultiplicityProfile({4: 2, 2: 2, 0: 2, -2: 1}))
    assert ok and violations == []

    ok, violations = three_term_holds(MultiplicityProfile({0: 1, 4: 1}))
    assert not ok
    assert [(v.height, v.count, v.below, v.above) for v in violations] == [
        (0, 1, 0, 0),
        (4, 1, 0, 0),
    ]

    ok, violations = three_term_holds(MultiplicityProfile({}))
    assert ok and violations == []


@given(root_lists, st.integers(-6, 6).map(lambda k: 2 * k))
def test_shift_invariance(roots, shift):
    seq = RootSequence(roots)
    moved = seq.shifted(shift)

    assert is_admissible(seq) == is_admissible(moved)

    rep_a, rep_b = tail_slopes(seq), tail_slopes(moved)
    assert rep_a.kind == rep_b.kind
    assert rep_a.at_k == rep_b.at_k
    assert rep_b.total_slope == rep_a.total_slope + shift

    prof_a, prof_b = multiplicities(seq), multiplicities(moved)
    assert prof_b.counts == {r + shift: m for r, m in prof_a.counts.items()}

    ok_a, viol_a = three_term_holds(prof_a)
    ok_b, viol_b = three_term_holds(prof_b)
    assert ok_a == ok_b
    assert [(v.height + shift, v.count, v.below, v.above) for v in viol_a] == [
        tuple(v) for v in viol_b
    ]


# --- Hitchin invariants ---------------------------------------------------------


@pytest.mark.parametrize("roots", [(2, 0, -2), (0,), (4, 2, 0, 4, 2, 0, -2)])
def test_hitchin_invariants_vanish(roots):
    assert hitchin_invariants(RootSequence(roots)) == [Fraction(0)] * len(roots)


@given(st.integers(-4, 4).map(lambda k: 2 * k), admissible_steps)
def test_hitchin_vanishes_on_admissible_chains(start, steps):
    seq = seq_from_steps(start, steps)
    assert all(c == 0 for c in hitchin_invariants(seq))


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


@given(st.integers(-4, 4).map(lambda k: 2 * k), admissible_steps)
def test_theta_is_nilpotent_on_admissible_chains(start, steps):
    # theta^n = 0 by exact integer powers: the characteristic polynomial is
    # x^n, independently of how hitchin_invariants reaches its zeros
    theta = ChainHiggsBundle.from_roots(seq_from_steps(start, steps)).theta_structure()
    n = len(theta)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n - 1):
        power = matmul(power, theta)
    assert power[n - 1][0] == 1  # every component is a nonzero map: index exactly n
    assert matmul(power, theta) == [[0] * n for _ in range(n)]


def test_theta_structure_respects_missing_forms():
    bundle = ChainHiggsBundle.from_roots(RootSequence((0, 0)))  # weight-2 step: no form
    assert bundle.theta_structure() == [[0, 0], [0, 0]]
    bundle = ChainHiggsBundle.from_roots(RootSequence((2, 0, -2)))
    assert bundle.theta_structure() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


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
    recomputed = [s.roots for s in everything if tail_slopes(s).is_stable]
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
