"""Matching certificates: construction, independent verification, properties.

Vertex indices are 1-based, matching the r_j notation.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgs_threeterm.chain import (
    RootSequence,
    enumerate_chains,
    multiplicities,
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
    classify_regions,
    verify_certificate,
)
from higgs_threeterm.sweep import SweepParams, run_sweep

ZIGZAG = RootSequence((4, 2, 0, 4, 2, 0, -2))


def small_stable_chains() -> list[RootSequence]:
    return list(enumerate_chains(2, 5, 6, 8))


# --- region classification -----------------------------------------------------


def test_classify_zigzag_height_two():
    regions = classify_regions(ZIGZAG, 2)
    kinds = [reg.kind for reg in regions]
    assert kinds == [RegionKind.LEFT_BOUNDARY, RegionKind.C, RegionKind.RIGHT_BOUNDARY]
    # the C region sits strictly between the two height-2 vertices
    assert (regions[1].start, regions[1].end) == (3, 4)


def test_classify_zigzag_height_zero():
    kinds = [reg.kind for reg in classify_regions(ZIGZAG, 0)]
    assert kinds == [RegionKind.LEFT_BOUNDARY, RegionKind.A, RegionKind.RIGHT_BOUNDARY]


def test_classify_interior_b_region():
    kinds = [reg.kind for reg in classify_regions(ZIGZAG, 4)]
    assert kinds == [RegionKind.LEFT_BOUNDARY, RegionKind.B, RegionKind.RIGHT_BOUNDARY]


def test_classify_trailing_drop_chain():
    # single source at index 2; the right boundary region starts with a drop
    regions = classify_regions(RootSequence((2, 0, -2)), 0)
    kinds = [reg.kind for reg in regions]
    assert kinds == [RegionKind.LEFT_BOUNDARY, RegionKind.RIGHT_BOUNDARY]
    assert (regions[1].start, regions[1].end) == (3, 3)


def test_classify_off_parity_is_empty():
    assert classify_regions(ZIGZAG, 3) == []
    assert classify_regions(ZIGZAG, -7) == []


def test_classify_unrealized_height_is_empty():
    assert classify_regions(ZIGZAG, -8) == []


def test_classify_rejects_unstable():
    with pytest.raises(HypothesisViolationError):
        classify_regions(RootSequence((0, 4)), 0)


def test_classify_rejects_inadmissible():
    with pytest.raises(HypothesisViolationError):
        classify_regions(RootSequence((0, 0)), 0)


# --- matching construction -------------------------------------------------------


def test_build_matching_zigzag_height_four():
    cert = build_matching(ZIGZAG, 4)
    assert cert.pairs == (
        MatchedPair(1, 2, RegionKind.B),
        MatchedPair(4, 5, RegionKind.B),
    )


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
        holds, _ = three_term_holds(multiplicities(seq))
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
        lambda seq: classify_regions(seq, 2),
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
