"""Matching certificates: construction, independent verification, properties.

Vertex indices are 1-based, matching the r_j notation.
"""

import pytest
from hypothesis import given
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
    HypothesisViolationError,
    MatchedPair,
    MatchingCertificate,
    PairingFailure,
    RegionKind,
    build_matching,
    certified_heights,
    verify_certificate,
)
from higgs_threeterm.sweep import SweepParams, run_sweep

ZIGZAG = RootSequence((4, 2, 0, 4, 2, 0, -2))


def small_stable_chains() -> list[RootSequence]:
    return list(enumerate_chains(2, 5, 6, 8))


# --- matching construction -------------------------------------------------------


def test_build_matching_zigzag_height_four():
    cert = build_matching(ZIGZAG, 4)
    assert cert.pairs == (
        MatchedPair(1, 2, RegionKind.B),
        MatchedPair(4, 5, RegionKind.B),
    )


def test_certificates_equal_identically_built_values():
    cert = certified_heights(ZIGZAG)[4]
    pairs = (MatchedPair(1, 2, RegionKind.B), MatchedPair(source=4, target=5, label=RegionKind.B))
    assert cert == MatchingCertificate(4, pairs) == build_matching(ZIGZAG, 4)
    assert hash(cert) == hash(MatchingCertificate(height=4, pairs=pairs))
    assert cert != MatchingCertificate(2, pairs)
    assert certified_heights(ZIGZAG) == certified_heights(ZIGZAG)


def test_build_matching_drop_chain():
    cert = build_matching(RootSequence((2, 0, -2)), 2)
    assert cert.pairs == (MatchedPair(1, 2, RegionKind.B),)


def test_build_matching_minimal_stable_chain():
    cert = build_matching(RootSequence((0, -2)), 0)
    assert cert.pairs == (MatchedPair(1, 2, RegionKind.B),)


def test_build_matching_left_boundary_fallback():
    cert = build_matching(RootSequence((2, 0, -2)), -2)
    assert cert.pairs == (MatchedPair(3, 2, RegionKind.LEFT_BOUNDARY),)


def test_build_matching_c_region_pairs_right():
    cert = build_matching(ZIGZAG, 2)
    assert cert.pairs[0] == MatchedPair(2, 3, RegionKind.C)
    assert ZIGZAG.roots[cert.pairs[0].target - 1] == 0  # the r-2 vertex, not r+2


def test_build_matching_unrealized_height():
    assert build_matching(RootSequence((0, -2)), -6).pairs == ()


def test_build_matching_rejects_bad_input():
    with pytest.raises(HypothesisViolationError):
        build_matching(RootSequence((0, 4)), 0)
    with pytest.raises(HypothesisViolationError):
        build_matching(RootSequence((0, 0)), 0)


def test_singleton_chain_has_no_target():
    # a lone vertex has no neighbor at all: the structured failure is correct
    with pytest.raises(PairingFailure) as info:
        build_matching(RootSequence((0,)), 0)
    report = info.value.report()
    assert report["roots"] == [0]
    assert report["height"] == 0
    assert report["source"] == 1


def test_build_matching_deterministic():
    a = build_matching(ZIGZAG, 2)
    b = build_matching(ZIGZAG, 2)
    assert a == b


# --- independent verification -----------------------------------------------------


def test_verify_round_trip():
    for r in (-2, 0, 2, 4):
        ok, reasons = verify_certificate(ZIGZAG, build_matching(ZIGZAG, r))
        assert ok and reasons == []


def test_verify_rejects_duplicate_target():
    cert = MatchingCertificate(
        4, (MatchedPair(1, 2, RegionKind.B), MatchedPair(4, 2, RegionKind.B))
    )
    ok, reasons = verify_certificate(ZIGZAG, cert)
    assert not ok
    assert "injectivity" in reasons


def test_verify_rejects_target_at_source_height():
    cert = MatchingCertificate(
        4, (MatchedPair(1, 4, RegionKind.B), MatchedPair(4, 5, RegionKind.B))
    )
    ok, reasons = verify_certificate(ZIGZAG, cert)
    assert not ok
    assert "target height" in reasons


def test_verify_rejects_missing_source():
    cert = MatchingCertificate(4, (MatchedPair(1, 2, RegionKind.B),))
    ok, reasons = verify_certificate(ZIGZAG, cert)
    assert not ok
    assert "source coverage" in reasons


def test_verify_rejects_out_of_range_target():
    cert = MatchingCertificate(
        4, (MatchedPair(1, 9, RegionKind.B), MatchedPair(4, 5, RegionKind.B))
    )
    ok, reasons = verify_certificate(ZIGZAG, cert)
    assert not ok
    assert "target range" in reasons


# --- exhaustive properties over a bounded family -----------------------------------


def test_every_stable_chain_certifies_every_height():
    for seq in small_stable_chains():
        profile = multiplicities(seq)
        for r in profile.counts:
            cert = build_matching(seq, r)
            ok, reasons = verify_certificate(seq, cert)
            assert ok, (seq.roots, r, reasons)
            assert len(cert.pairs) == profile[r], (seq.roots, r)


def test_certificates_and_counting_agree():
    for seq in small_stable_chains():
        holds, _ = three_term_holds(multiplicities(seq).counts)
        certified = True
        try:
            certified_heights(seq)
        except PairingFailure:
            certified = False
        assert certified == holds == True  # noqa: E712  (both routes, explicitly)


def test_targets_stay_in_their_region():
    for seq in small_stable_chains():
        roots = seq.roots
        for r, cert in certified_heights(seq).items():
            sources = [j for j in range(1, len(roots) + 1) if roots[j - 1] == r]
            for pair in cert.pairs:
                if pair.label is RegionKind.LEFT_BOUNDARY:
                    assert pair.target < sources[0]
                elif pair.source == sources[-1]:
                    assert pair.target > sources[-1]
                else:
                    nxt = min(s for s in sources if s > pair.source)
                    assert pair.source < pair.target < nxt


def test_hypotheses_checked_once_per_call(monkeypatch):
    checked = []
    check = pairing._require_hypotheses

    def counting_check(seq):
        checked.append(seq.roots)
        check(seq)

    monkeypatch.setattr(pairing, "_require_hypotheses", counting_check)
    # the sweep establishes both hypotheses itself and never re-checks them
    report = run_sweep(SweepParams(2, 6, 8, 10), workers=1)
    assert report["totals"]["certificates"] > 0
    assert checked == []
    # a public entry point checks once per call, not once per height
    entry_points = (
        certified_heights,
        lambda seq: build_matching(seq, 2),
    )
    for call in entry_points:
        checked.clear()
        call(ZIGZAG)
        assert checked == [ZIGZAG.roots]


LARGER_FAMILY = list(enumerate_chains(2, 6, 8, 10))


@given(st.sampled_from(LARGER_FAMILY))
def test_random_stable_chain_full_certification(seq):
    profile = multiplicities(seq)
    for r, cert in certified_heights(seq).items():
        ok, _ = verify_certificate(seq, cert)
        assert ok
        assert len(cert.pairs) == profile[r]
        for pair in cert.pairs:
            assert seq.roots[pair.target - 1] in (r - 2, r + 2)


# --- the one-pass builder against the per-height construction it replaced -----------
#
# The reference below is the earlier per-height builder, kept here only as a
# test oracle: for each height it rescans the chain for the sources and each
# region for its kind, and re-checks every target height.  Instead of
# raising, it returns the pairs built so far with the PairingFailure.


def reference_kind(roots, j_left, j_right, r):
    inner = roots[j_left : j_right - 1]  # 1-based vertices j_left+1 .. j_right-1
    if inner[0] > r:
        assert all(v > r for v in inner)
        return RegionKind.A
    assert inner[0] == r - 2, "drops are exactly 2"
    if all(v < r for v in inner):
        return RegionKind.B
    return RegionKind.C


def reference_match(roots, r):
    n = len(roots)
    srcs = [j for j in range(1, n + 1) if roots[j - 1] == r]
    pairs = []

    def failed(source, reason):
        return MatchingCertificate(r, tuple(pairs)), PairingFailure(roots, r, source, reason)

    if not srcs:
        return MatchingCertificate(r, ()), None
    for j, nxt in zip(srcs, srcs[1:]):
        kind = reference_kind(roots, j, nxt, r)
        if kind is RegionKind.A:
            target = nxt - 1
            if roots[target - 1] != r + 2:
                return failed(j, "A region does not end at r+2")
        else:
            target = j + 1
            if roots[target - 1] != r - 2:
                return failed(j, "region drop is not to r-2")
        pairs.append(MatchedPair(j, target, kind))
    rightmost = srcs[-1]
    if rightmost < n and roots[rightmost] < r:
        target = rightmost + 1
        if roots[target - 1] != r - 2:
            return failed(rightmost, "trailing drop is not to r-2")
        pairs.append(MatchedPair(rightmost, target, RegionKind.B))
    elif srcs[0] > 1 and roots[srcs[0] - 2] == r + 2:
        pairs.append(MatchedPair(rightmost, srcs[0] - 1, RegionKind.LEFT_BOUNDARY))
    else:
        return failed(rightmost, "no trailing drop and no r+2 vertex before the leftmost source")
    return MatchingCertificate(r, tuple(pairs)), None


def as_comparable(cert, failure):
    return cert, None if failure is None else failure.report()


# every admissible chain with n 1-8, rise 2/4/6/10 and bound 5/7/9: 15,386
# walks, 3,929 distinct chains, 90 of them tail-stable (singleton included)
DIFFERENTIAL_BOX = sorted(
    {
        roots
        for rise in (2, 4, 6, 10)
        for bound in (5, 7, 9)
        for n in range(1, 9)
        for roots, _ in extend_chain((0,), n, enumeration_steps(rise), bound)
    }
)
STABLE_BOX = [roots for roots in DIFFERENTIAL_BOX if tail_slopes(roots).is_stable]


def test_differential_box_covers_both_verdicts_and_the_singleton():
    assert (len(DIFFERENTIAL_BOX), len(STABLE_BOX)) == (3929, 90)
    assert (0,) in STABLE_BOX


def test_three_term_violations_match_the_named_tuple_build():
    # three_term_holds builds each violation with tuple.__new__
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
        built = pairing._certify(roots)
        assert list(built) == sorted(set(roots)), roots
        for r, (cert, failure) in built.items():
            assert as_comparable(cert, failure) == as_comparable(*reference_match(roots, r))


def test_public_builders_match_the_reference_on_stable_chains():
    for roots in STABLE_BOX:
        seq = RootSequence(roots)
        # every realized height, an unrealized one and one of the wrong parity
        for r in sorted(set(roots)) + [min(roots) - 2, 1]:
            cert, failure = reference_match(roots, r)
            if failure is None:
                assert build_matching(seq, r) == cert, (roots, r)
            else:
                with pytest.raises(PairingFailure) as info:
                    build_matching(seq, r)
                assert info.value.report() == failure.report()
        try:
            certified = certified_heights(seq)
        except PairingFailure as failure:
            certified = failure.report()
        expected = {}
        for r in sorted(set(roots)):
            cert, failure = reference_match(roots, r)
            if failure is not None:
                expected = failure.report()
                break
            expected[r] = cert
        assert certified == expected, roots


# --- the checker against the per-height checker it replaced -----------------------
#
# The reference below is the earlier checker, kept here only as a test oracle:
# it lists the height-r vertices by scanning the chain and compares them with
# the sorted sources, then checks each target.


def reference_verify(seq, cert):
    roots = seq.roots
    n = len(roots)
    r = cert.height
    reasons = []

    expected = [j for j in range(1, n + 1) if roots[j - 1] == r]
    if sorted(p.source for p in cert.pairs) != expected:
        reasons.append("source coverage")

    targets = [p.target for p in cert.pairs]
    if len(set(targets)) != len(targets):
        reasons.append("injectivity")

    for p in cert.pairs:
        if not 1 <= p.target <= n:
            reasons.append("target range")
        elif roots[p.target - 1] not in (r - 2, r + 2):
            reasons.append("target height")

    reasons = list(dict.fromkeys(reasons))
    return (not reasons, reasons)


def mutants(roots, cert):
    """The certificate with two targets swapped, a target moved to a wrong
    height of the same parity, a source dropped or duplicated, and a source
    or target set to 0 or n+1, each at the first and at the last pair; also
    two pairs sharing a source or a target, and a pair from neither end added."""
    n, r, pairs = len(roots), cert.height, list(cert.pairs)

    def at(i, **fields):
        return pairs[:i] + [pairs[i]._replace(**fields)] + pairs[i + 1 :]

    found = [pairs + [MatchedPair(0, n + 1, RegionKind.B)]]
    if len(pairs) > 1:
        first, last = pairs[0], pairs[-1]
        found.append([first._replace(target=last.target)] + pairs[1:-1] + [last._replace(target=first.target)])
        found.append([first._replace(target=last.target)] + pairs[1:])
        found.append(pairs[:-1] + [last._replace(source=first.source)])
    wrong = [j for j in range(1, n + 1) if abs(roots[j - 1] - r) != 2]  # every root is even
    for i in sorted({0, len(pairs) - 1} if pairs else set()):
        found += [pairs[:i] + pairs[i + 1 :], pairs + [pairs[i]], pairs + [pairs[i]._replace(target=n + 1)]]
        found += [at(i, target=wrong[0]), at(i, target=wrong[-1])] if wrong else []
        found += [at(i, source=bad) for bad in (0, n + 1)] + [at(i, target=bad) for bad in (0, n + 1)]
    return [MatchingCertificate(r, tuple(p)) for p in found]


def test_checker_matches_the_reference_on_real_and_mutated_certificates():
    reasons_seen = set()
    for roots in DIFFERENTIAL_BOX:
        seq = RootSequence(roots)
        for r, (cert, _) in pairing._certify(roots).items():
            # the real certificate (partial where a vertex has no target), the
            # same pairs read at a neighbouring height, and the mutants
            for checked in [cert, cert._replace(height=r + 2)] + mutants(roots, cert):
                expected = reference_verify(seq, checked)
                assert verify_certificate(seq, checked) == expected, (roots, checked)
                reasons_seen.add(tuple(expected[1]))
    # every verdict alone, and with source coverage first
    singles = {(), ("source coverage",), ("injectivity",), ("target range",), ("target height",)}
    assert singles <= reasons_seen
    assert {("source coverage", reason) for reason in ("injectivity", "target range", "target height")} <= reasons_seen


def test_checker_verdict_on_each_mutation():
    # height -2 of a stable chain: sources 2, 4 and 7 in an A, a C and a B region
    seq = RootSequence((0, -2, 0, -2, -4, 0, -2, -4))
    cert = build_matching(seq, -2)
    assert cert.pairs == (
        MatchedPair(2, 3, RegionKind.A),
        MatchedPair(4, 5, RegionKind.C),
        MatchedPair(7, 8, RegionKind.B),
    )
    a, c, b = cert.pairs
    verdicts = {
        (a, c, b): [],
        # the checker checks a matching, not the regions: a swap still matches
        (a._replace(target=5), c._replace(target=3), b): [],
        (a._replace(target=4), c, b): ["target height"],  # vertex 4 sits at r itself
        (c, b): ["source coverage"],
        (a, c, b, a): ["source coverage", "injectivity"],
        (a, c, b, a._replace(target=1)): ["source coverage"],
        (a._replace(source=0), c, b): ["source coverage"],
        (a, c, b._replace(source=9)): ["source coverage"],
        (a._replace(target=0), c, b): ["target range"],
        (a, c, b._replace(target=9)): ["target range"],
        (a._replace(target=9), c._replace(target=4), b): ["target range", "target height"],
        (a._replace(target=4), c._replace(target=9), b): ["target height", "target range"],
        (a._replace(source=7), c, b._replace(target=0)): ["source coverage", "target range"],
    }
    for pairs, reasons in verdicts.items():
        checked = MatchingCertificate(-2, pairs)
        assert verify_certificate(seq, checked) == (not reasons, reasons), pairs
        assert reference_verify(seq, checked) == (not reasons, reasons), pairs


@pytest.mark.parametrize(
    "pair, reasons",
    [
        (MatchedPair(1.0, 2, RegionKind.B), ["source coverage"]),
        (MatchedPair(1, 2.0, RegionKind.B), ["target range"]),
        (MatchedPair(1, 2, RegionKind.B), []),  # the builder's pair, for contrast
    ],
)
def test_checker_gives_a_reason_for_an_index_that_is_not_an_int(pair, reasons):
    seq = RootSequence((0, -2))
    assert verify_certificate(seq, MatchingCertificate(0, (pair,))) == (not reasons, reasons)
