"""Matching certificates: construction, independent verification, properties.

Vertex indices are 1-based, matching the r_j notation.
"""

import subprocess
import sys
from collections.abc import Hashable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from higgs_threeterm.chain import (
    RootSequence,
    ThreeTermViolation,
    enumerate_chains,
    enumeration_steps,
    extend_chain,
    multiplicities,
    tail_slopes,
    three_term_holds,
)
from higgs_threeterm import pairing
from higgs_threeterm.pairing import (
    PairingFailure,
    certify,
    pairs,
    verify_certificate,
)

ZIGZAG = (4, 2, 0, 4, 2, 0, -2)


def small_stable_chains() -> list[RootSequence]:
    return [RootSequence(roots) for roots in enumerate_chains(2, 5, 6, 8)]


def certified(roots):
    """certify's targets for a chain it pairs at every height."""
    targets, failures = certify(roots)
    assert failures == {}, roots
    return targets


# --- matching construction -------------------------------------------------------

A, B, C, LEFT = "A", "B", "C", "LEFT_BOUNDARY"

# ZIGZAG's whole pairing: vertex j is paired with ZIGZAG_TARGETS[j-1], in
# the region that pairs names ZIGZAG_LABELS[j-1] at its height
ZIGZAG_TARGETS = (2, 3, 5, 5, 6, 7, 6)
ZIGZAG_LABELS = (B, C, A, B, B, B, LEFT)


def test_build_matching_zigzag_height_four():
    targets, failures = certify(ZIGZAG)
    assert (targets, failures) == (ZIGZAG_TARGETS, {})
    assert pairs(ZIGZAG, 4, targets) == [(1, 2, B), (4, 5, B)]
    found = sorted(pair for r in set(ZIGZAG) for pair in pairs(ZIGZAG, r, targets))
    assert found == list(zip(range(1, 8), ZIGZAG_TARGETS, ZIGZAG_LABELS))


def test_build_matching_drop_chain():
    assert pairs((2, 0, -2), 2, certified((2, 0, -2))) == [(1, 2, B)]


def test_build_matching_minimal_stable_chain():
    assert pairs((0, -2), 0, certified((0, -2))) == [(1, 2, B)]


def test_build_matching_left_boundary_fallback():
    assert pairs((2, 0, -2), -2, certified((2, 0, -2))) == [(3, 2, LEFT)]


def test_build_matching_c_region_pairs_right():
    (source, target, label), _ = pairs(ZIGZAG, 2, certified(ZIGZAG))
    assert (source, target, label) == (2, 3, C)
    assert ZIGZAG[target - 1] == 0  # the r-2 vertex, not r+2


def test_build_matching_unrealized_height():
    assert pairs((0, -2), -6, certified((0, -2))) == []


def test_singleton_chain_has_no_target():
    # a lone vertex has no neighbor at all: the structured failure is correct
    # the builder leaves the vertex unpaired and returns the failure by its height
    targets, failures = certify((0,))
    assert (targets, list(failures)) == ((None,), [0])
    assert isinstance(failures[0], PairingFailure)
    report = failures[0]._asdict()
    assert report["roots"] == (0,)
    assert report["height"] == 0
    assert report["source"] == 1


def test_build_matching_deterministic():
    assert certify(ZIGZAG) == certify(ZIGZAG)


def test_the_checker_shares_no_code_with_the_builder():
    # no name the checker (or a comprehension inside it) reads is one that
    # pairing defines or imports: it calls no helper of the builder's
    codes, names = [verify_certificate.__code__], set()
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    assert not names & set(vars(pairing)), names & set(vars(pairing))


def test_the_builder_cannot_recheck_a_hypothesis():
    # pairing imports nothing from the package: a fresh interpreter that
    # imports it has no chain module, so certify assumes both hypotheses
    probe = "import sys, higgs_threeterm.pairing; print('higgs_threeterm.chain' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# --- independent verification -----------------------------------------------------


def with_targets(targets, edits):
    """targets with vertex j's entry set to edits[j], the tuple extended
    with None where an edited j lies past its end."""
    targets = list(targets) + [None] * (max(edits, default=0) - len(targets))
    for j, target in edits.items():
        targets[j - 1] = target
    return tuple(targets)


def test_verify_round_trip():
    for r in (-2, 0, 2, 4):
        ok, reasons = verify_certificate(ZIGZAG, r, certified(ZIGZAG))
        assert ok and reasons == []


def test_verify_rejects_duplicate_target():
    ok, reasons = verify_certificate(ZIGZAG, 4, with_targets(ZIGZAG_TARGETS, {4: 2}))
    assert not ok
    assert "injectivity" in reasons


def test_verify_rejects_target_at_source_height():
    ok, reasons = verify_certificate(ZIGZAG, 4, with_targets(ZIGZAG_TARGETS, {1: 4}))
    assert not ok
    assert "target height" in reasons


def test_verify_rejects_missing_source():
    ok, reasons = verify_certificate(ZIGZAG, 4, with_targets(ZIGZAG_TARGETS, {4: None}))
    assert not ok
    assert "source coverage" in reasons


def test_verify_rejects_out_of_range_target():
    ok, reasons = verify_certificate(ZIGZAG, 4, with_targets(ZIGZAG_TARGETS, {1: 9}))
    assert not ok
    assert "target range" in reasons


# --- exhaustive properties over a bounded family -----------------------------------


def test_every_stable_chain_certifies_every_height():
    for seq in small_stable_chains():
        profile = multiplicities(seq)
        targets = certified(seq)
        for r in profile.counts:
            ok, reasons = verify_certificate(seq, r, targets)
            assert ok, (seq, r, reasons)
            assert len(pairs(seq, r, targets)) == profile.counts.get(r, 0), (seq, r)


def test_certificates_and_counting_agree():
    for seq in small_stable_chains():
        holds, _ = three_term_holds(multiplicities(seq).counts)
        _, failures = certify(seq)
        assert (not failures) == holds == True  # noqa: E712  (both routes, explicitly)


def test_targets_stay_in_their_region():
    for roots in small_stable_chains():
        targets = certified(roots)
        for r in sorted(set(roots)):
            sources = [j for j in range(1, len(roots) + 1) if roots[j - 1] == r]
            for source, target, label in pairs(roots, r, targets):
                if label == LEFT:
                    assert target < sources[0]
                elif source == sources[-1]:
                    assert target > sources[-1]
                else:
                    nxt = min(s for s in sources if s > source)
                    assert source < target < nxt


LARGER_FAMILY = list(enumerate_chains(2, 6, 8, 10))


@given(st.sampled_from(LARGER_FAMILY))
def test_random_stable_chain_full_certification(roots):
    profile = multiplicities(RootSequence(roots))
    targets = certified(roots)
    for r in sorted(set(roots)):
        ok, _ = verify_certificate(roots, r, targets)
        assert ok
        found = pairs(roots, r, targets)
        assert len(found) == profile.counts.get(r, 0)
        for _, target, _ in found:
            assert roots[target - 1] in (r - 2, r + 2)


# --- the one-pass builder against the per-height construction it replaced -----------
#
# The reference below is the earlier per-height builder, kept here only as a
# test oracle: for each height it rescans the chain for the sources and each
# region for its kind, and re-checks every target height.  Instead of
# raising, it returns the (source, target, label) pairs built so far with
# the PairingFailure.


def reference_kind(roots, j_left, j_right, r):
    inner = roots[j_left : j_right - 1]  # 1-based vertices j_left+1 .. j_right-1
    if inner[0] > r:
        assert all(v > r for v in inner)
        return A
    assert inner[0] == r - 2, "drops are exactly 2"
    if all(v < r for v in inner):
        return B
    return C


def reference_match(roots, r):
    n = len(roots)
    srcs = [j for j in range(1, n + 1) if roots[j - 1] == r]
    matched = []

    def failed(source, reason):
        return matched, PairingFailure(roots, r, source, reason)

    if not srcs:
        return matched, None
    for j, nxt in zip(srcs, srcs[1:]):
        kind = reference_kind(roots, j, nxt, r)
        if kind == A:
            target = nxt - 1
            if roots[target - 1] != r + 2:
                return failed(j, "A region does not end at r+2")
        else:
            target = j + 1
            if roots[target - 1] != r - 2:
                return failed(j, "region drop is not to r-2")
        matched.append((j, target, kind))
    rightmost = srcs[-1]
    if rightmost < n and roots[rightmost] < r:
        target = rightmost + 1
        if roots[target - 1] != r - 2:
            return failed(rightmost, "trailing drop is not to r-2")
        matched.append((rightmost, target, B))
    elif srcs[0] > 1 and roots[srcs[0] - 2] == r + 2:
        matched.append((rightmost, srcs[0] - 1, LEFT))
    else:
        return failed(rightmost, "no trailing drop and no r+2 vertex before the leftmost source")
    return matched, None


def as_comparable(pairs, failure):
    return pairs, None if failure is None else failure._asdict()


def height_views(roots):
    """Each realized height's (pairs, failure report) read from the chain's
    one certificate, after checking that its tuple covers every vertex."""
    targets, failures = certify(roots)
    assert len(targets) == len(roots)
    assert set(failures) <= set(roots)
    return {r: as_comparable(pairs(roots, r, targets), failures.get(r)) for r in sorted(set(roots))}


# every admissible chain with n 1-8, rise 2/4/6/10 and bound 5/7/9: 15,386
# walks, 3,929 distinct chains, 90 of them tail-stable (singleton included)
DIFFERENTIAL_BOX = sorted(
    {
        roots
        for rise in (2, 4, 6, 10)
        for bound in (5, 7, 9)
        for n in range(1, 9)
        for roots, _, _ in extend_chain((0,), n, enumeration_steps(rise, bound), bound)
    }
)
STABLE_BOX = [roots for roots in DIFFERENTIAL_BOX if tail_slopes(roots).is_stable]


def test_differential_box_covers_both_verdicts_and_the_singleton():
    assert (len(DIFFERENTIAL_BOX), len(STABLE_BOX)) == (3929, 90)
    assert (0,) in STABLE_BOX


def test_three_term_violations_match_the_named_tuple_build():
    # each violation is a ThreeTermViolation, equal field by field to one built by hand
    witnessed = 0
    for roots in DIFFERENTIAL_BOX:
        counts = multiplicities(RootSequence(roots)).counts
        expected = [
            ThreeTermViolation(r, counts[r], counts.get(r - 2, 0), counts.get(r + 2, 0))
            for r in sorted(counts)
            if counts[r] > counts.get(r - 2, 0) + counts.get(r + 2, 0)
        ]
        holds, found = three_term_holds(counts)
        assert (holds, found) == (not expected, expected), roots
        assert [type(v) for v in found] == [ThreeTermViolation] * len(expected)
        assert [v._asdict() for v in found] == [v._asdict() for v in expected]
        witnessed += bool(found)
    assert witnessed > 0


def test_one_pass_builder_matches_the_reference_on_unstable_chains():
    for roots in DIFFERENTIAL_BOX:
        if tail_slopes(roots).is_stable:
            continue
        for r, view in height_views(roots).items():
            assert view == as_comparable(*reference_match(roots, r)), (roots, r)


@st.composite
def walked_chains(draw):
    """A chain of a random box (n 2-10, rises up to 2-8, |r| <= 0-12), one
    in-box step at a time; it ends early where no step stays in the box."""
    n, max_rise, bound = draw(st.integers(2, 10)), 2 * draw(st.integers(1, 4)), draw(st.integers(0, 12))
    roots = [0]
    while len(roots) < n:
        nexts = [roots[-1] + step for step in enumeration_steps(max_rise, bound) if abs(roots[-1] + step) <= bound]
        if not nexts:
            break
        roots.append(draw(st.sampled_from(nexts)))
    return tuple(roots)


@example((0,))  # the singleton: its lone vertex has no target
@example((0, 4))  # unstable, both heights unpaired
@example((0, -2, 0, -2, -4, 0, -2, -4))  # stable, with A, B and C regions
@given(walked_chains())
def test_one_pass_builder_matches_the_reference_on_random_chains(roots):
    for r, view in height_views(roots).items():
        assert view == as_comparable(*reference_match(roots, r)), r


def test_public_builders_match_the_reference_on_stable_chains():
    for roots in STABLE_BOX:
        targets, failures = certify(roots)
        assert set(failures) <= set(roots)
        # every realized height, an unrealized one and one of the wrong parity
        for r in sorted(set(roots)) + [min(roots) - 2, 1]:
            view = as_comparable(pairs(roots, r, targets), failures.get(r))
            assert view == as_comparable(*reference_match(roots, r)), (roots, r)


# --- the checker against the per-height checker it replaced -----------------------
#
# The reference below is the earlier checker, kept here only as a test oracle:
# it lists the height-r vertices by scanning the chain and compares them with
# the sorted sources of the (source, target) pairs, then checks each target.
# A target that cannot be hashed is no vertex index, and is left out of the
# injectivity test.  `as_pairs` reads a vertex-indexed certificate as those
# pairs: one per height-r vertex that has a target.


def reference_verify(roots, r, source_targets):
    n = len(roots)
    reasons = []

    expected = [j for j in range(1, n + 1) if roots[j - 1] == r]
    if sorted(source for source, _ in source_targets) != expected:
        reasons.append("source coverage")

    targets = [target for _, target in source_targets]
    hashable = [target for target in targets if isinstance(target, Hashable)]
    if len(set(hashable)) != len(hashable):
        reasons.append("injectivity")

    for target in targets:
        if not (isinstance(target, int) and 1 <= target <= n):
            reasons.append("target range")
        elif roots[target - 1] not in (r - 2, r + 2):
            reasons.append("target height")

    reasons = list(dict.fromkeys(reasons))
    return (not reasons, reasons)


def as_pairs(roots, r, targets):
    found = zip(roots, targets)  # a vertex past the tuple's end has no target
    return [(j, t) for j, (root, t) in enumerate(found, 1) if root == r and t is not None]


def reference_verdict(roots, r, targets):
    """reference_verify on height r's pairs; a tuple whose length is not n
    has no entry for some vertex, or an entry no vertex has, which is
    source coverage too."""
    ok, reasons = reference_verify(roots, r, as_pairs(roots, r, targets))
    if len(targets) != len(roots) and "source coverage" not in reasons:
        reasons.insert(0, "source coverage")
    return (not reasons, reasons)


class Index(int):
    """An int subclass: the reference reads it as the index it equals."""


def mutants(roots, r, targets):
    """The targets with the first height-r vertex's set to 0, a vertex at a
    wrong height of the same parity, a non-int, an unhashable list, None
    (unpaired) or True (an int to the reference, vertex 1), and the last
    one's to n+1, another wrong vertex, another non-int or its own target
    as an int subclass; the first two sources' targets swapped, and the
    last one's made a duplicate of the first's; another height's target
    set to 0; the tuple one entry short, or one entry long: alone, and with
    the first 0, wrong-height and duplicate edits, so each reason comes
    with source coverage too.  True and the int subclass are indices to
    the reference, but not of type int, so the checker's short accepting
    loop passes them to its full check."""
    n = len(roots)
    sources = [j for j in range(1, n + 1) if roots[j - 1] == r]
    others = [j for j in range(1, n + 1) if roots[j - 1] != r]
    wrong = [j for j in range(1, n + 1) if abs(roots[j - 1] - r) != 2]  # every root is even
    first, last = sources[0], sources[-1]
    edits = [
        {first: 0}, {first: wrong[0]}, {first: 2.0}, {first: [1]}, {first: None},
        {first: True}, {last: n + 1}, {last: wrong[-1]}, {last: "1"},
        {last: Index(targets[last - 1] or 0)},
    ]
    pair_edits = []
    if len(sources) > 1:
        second = sources[1]
        pair_edits.append({first: targets[second - 1], second: targets[first - 1]})
        pair_edits.append({last: targets[first - 1]})
    other_edits = [{others[0]: 0}] if others else []
    found = [with_targets(targets, edit) for edit in edits + pair_edits + other_edits]
    longer = [with_targets(targets, edit) for edit in [{}] + edits[:2] + pair_edits[1:]]
    return found + [targets[:-1]] + [t + (1,) for t in longer]


def test_checker_matches_the_reference_on_real_and_mutated_certificates():
    reasons_seen = set()
    checked_count = 0
    for roots in DIFFERENTIAL_BOX:
        targets, _ = certify(roots)
        for r in sorted(set(roots)):
            # the real certificate (partial where a vertex has no target), the
            # same pairing read at a neighbouring height, and the mutants
            checked = [(r, targets), (r + 2, targets)] + [(r, mutant) for mutant in mutants(roots, r, targets)]
            for height, mutant in checked:
                expected = reference_verdict(roots, height, mutant)
                assert verify_certificate(roots, height, mutant) == expected, (roots, height, mutant)
                reasons_seen.add(tuple(expected[1]))
                checked_count += 1
    # every verdict alone, and with source coverage first
    singles = {(), ("source coverage",), ("injectivity",), ("target range",), ("target height",)}
    assert singles <= reasons_seen
    assert {("source coverage", reason) for reason in ("injectivity", "target range", "target height")} <= reasons_seen
    assert checked_count > 100_000


def test_checker_verdict_on_each_mutation():
    # height -2 of a stable chain: sources 2, 4 and 7 in an A, a C and a B region
    roots = (0, -2, 0, -2, -4, 0, -2, -4)
    targets = certified(roots)
    assert pairs(roots, -2, targets) == [(2, 3, A), (4, 5, C), (7, 8, B)]
    a, c, b = 2, 4, 7
    verdicts = [
        ({}, []),
        # the checker checks a matching, not the regions: a swap still matches
        ({a: 5, c: 3}, []),
        ({1: 0, 3: None}, []),  # the targets of other heights are not read
        ({a: 4}, ["target height"]),  # vertex 4 sits at r itself
        ({a: None}, ["source coverage"]),
        ({b: None, 9: 8}, ["source coverage"]),  # b's pair moved to a ninth entry, no vertex's
        ({a: 0}, ["target range"]),
        ({b: 9}, ["target range"]),
        ({a: 3.0}, ["target range"]),
        ({a: [5], b: [5]}, ["target range"]),  # lists are no index, and are left out of injectivity
        ({a: 9, c: 4}, ["target range", "target height"]),
        ({a: 4, c: 9}, ["target height", "target range"]),
        ({a: None, c: 8}, ["source coverage", "injectivity"]),
        ({a: None, b: 0}, ["source coverage", "target range"]),
    ]
    for edits, reasons in verdicts:
        checked = with_targets(targets, edits)
        assert verify_certificate(roots, -2, checked) == (not reasons, reasons), edits
        assert reference_verdict(roots, -2, checked) == (not reasons, reasons), edits
    short = targets[:-1]  # vertex 8, at -4, loses its entry
    assert verify_certificate(roots, -2, short) == (False, ["source coverage"])


@pytest.mark.parametrize(
    "pair, reasons",
    [
        ((1, None), ["source coverage"]),  # no index: the vertex is unpaired
        ((1, 2.0), ["target range"]),
        ((1, 2), []),  # the builder's pair, for contrast
        ((1, [2]), ["target range"]),  # unhashable: no index, and no injectivity test
    ],
)
def test_checker_gives_a_reason_for_an_index_that_is_not_an_int(pair, reasons):
    # (source, target) in vertex form: the source's entry holds the target
    targets = with_targets(certified((0, -2)), dict([pair]))
    assert verify_certificate((0, -2), 0, targets) == (not reasons, reasons)
