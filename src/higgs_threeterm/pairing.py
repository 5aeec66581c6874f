"""Injective matching certificates for the three-term inequality.

Join the points (j, r_j) of an admissible chain by straight segments.  The
resulting path has no horizontal segments, drops by exactly 2 per step, and
rises by even amounts, so between two consecutive vertices at a fixed
height r the path behaves in exactly one of three ways:

* A: it leaves r upward and stays strictly above until it returns, so the
  vertex just before the return sits at height r+2 (a drop of 2 ends the
  approach from above);
* B: it leaves r downward (to r-2) and stays strictly below until it
  returns from below;
* C: it leaves r downward, then a single rise of at least 4 carries it over
  height r without a vertex there, and it returns from above.  Both the
  r-2 vertex on the left and the r+2 vertex on the right are available;
  this implementation always pairs with the r-2 vertex on the right of the
  source (a fixed tie-break keeps certificates deterministic).

Pairing each height-r vertex with a distinct vertex at height r-2 or r+2
through its region, plus a boundary rule for the rightmost vertex, yields
an injective map witnessing m_r <= m_{r-2} + m_{r+2}.  For a tail-stable
chain the boundary rule always applies: either the trailing region starts
with a drop (label B), or r < r_1 and the vertex just before the leftmost
height-r vertex sits at r+2 (label LEFT_BOUNDARY).

Vertex indices are 1-based throughout: source j refers to the root r_j.
The certificate checker shares no code with the builder.

The public entry points check the hypotheses (admissible, tail-stable) once
per call, never per height; the sweep, which establishes both itself, calls
the per-height builder `_match_height` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chain import MultiplicityProfile, RootSequence, is_admissible, multiplicities, tail_slopes


class HypothesisViolationError(ValueError):
    """Input chain is not admissible or not tail-stable."""


class PairingFailure(RuntimeError):
    """No valid target exists for a source vertex.

    This never fires for tail-stable admissible chains with n >= 2; if it
    does, the matching construction is refuted and the payload is the
    counterexample to report.  It does fire, by design, for the n = 1
    singleton, whose lone vertex has no neighbor at all.
    """

    def __init__(self, roots: tuple[int, ...], height: int, source: int, reason: str):
        self.roots = tuple(roots)
        self.height = height
        self.source = source
        self.reason = reason
        super().__init__(
            f"no target for source {source} at height {height} in {self.roots}: {reason}"
        )

    def report(self) -> dict:
        return {
            "roots": list(self.roots),
            "height": self.height,
            "source": self.source,
            "reason": self.reason,
        }


class RegionKind(Enum):
    A = "A"
    B = "B"
    C = "C"
    LEFT_BOUNDARY = "LEFT_BOUNDARY"
    RIGHT_BOUNDARY = "RIGHT_BOUNDARY"


@dataclass(frozen=True)
class Region:
    """A maximal stretch of the path between consecutive height-r vertices.

    start/end are the 1-based vertex indices of the stretch (inclusive);
    start > end encodes an empty boundary region.
    """

    kind: RegionKind
    start: int
    end: int


@dataclass(frozen=True)
class MatchedPair:
    source: int
    target: int
    label: RegionKind


@dataclass(frozen=True)
class MatchingCertificate:
    """Injective pairing of height-r vertices with height-(r+-2) vertices."""

    height: int
    pairs: tuple[MatchedPair, ...]


def _require_hypotheses(seq: RootSequence) -> None:
    ok, bad = is_admissible(seq)
    if not ok:
        raise HypothesisViolationError(f"chain {seq.roots} is inadmissible at steps {bad}")
    report = tail_slopes(seq.roots)
    if not report.is_stable:
        raise HypothesisViolationError(f"chain {seq.roots} is not tail-stable ({report.verdict})")


def _sources(roots: tuple[int, ...], r: int) -> list[int]:
    return [j for j in range(1, len(roots) + 1) if roots[j - 1] == r]


def _interior_kind(roots: tuple[int, ...], j_left: int, j_right: int, r: int) -> RegionKind:
    inner = roots[j_left : j_right - 1]  # 1-based vertices j_left+1 .. j_right-1
    if inner[0] > r:
        # an upward start cannot cross back below r without a vertex at r
        assert all(v > r for v in inner)
        return RegionKind.A
    assert inner[0] == r - 2, "drops are exactly 2"
    if all(v < r for v in inner):
        return RegionKind.B
    return RegionKind.C


def classify_regions(seq: RootSequence, r: int) -> list[Region]:
    """Label the regions between consecutive height-r vertices.

    Returns the left boundary region, one A/B/C region per interior gap,
    and the right boundary region.  A height of the wrong parity (or one
    not realized by the chain) has no height-r vertices, hence no regions:
    the classification is empty.
    """
    _require_hypotheses(seq)
    roots = seq.roots
    srcs = _sources(roots, r)
    if not srcs:
        return []
    regions = [Region(RegionKind.LEFT_BOUNDARY, 1, srcs[0] - 1)]
    for j, nxt in zip(srcs, srcs[1:]):
        regions.append(Region(_interior_kind(roots, j, nxt, r), j + 1, nxt - 1))
    regions.append(Region(RegionKind.RIGHT_BOUNDARY, srcs[-1] + 1, len(roots)))
    return regions


def build_matching(seq: RootSequence, r: int) -> MatchingCertificate:
    """Pair every height-r vertex with a distinct vertex at height r-2 or r+2.

    Interior sources pair inside their own region: through the following
    r-2 vertex after a drop (B and C regions) or through the r+2 vertex
    that ends an A region from above.  The rightmost source pairs right
    with the trailing drop when there is one, and otherwise left with the
    r+2 vertex preceding the leftmost source (which exists for tail-stable
    chains because the path must then descend from r_1 > r).
    """
    _require_hypotheses(seq)
    return _match_height(seq, r)


def _match_height(seq: RootSequence, r: int) -> MatchingCertificate:
    """`build_matching` for a chain known to be admissible and tail-stable."""
    roots = seq.roots
    n = len(roots)
    srcs = _sources(roots, r)
    if not srcs:
        return MatchingCertificate(r, ())

    pairs: list[MatchedPair] = []
    for j, nxt in zip(srcs, srcs[1:]):
        kind = _interior_kind(roots, j, nxt, r)
        if kind is RegionKind.A:
            target = nxt - 1
            if roots[target - 1] != r + 2:
                raise PairingFailure(roots, r, j, "A region does not end at r+2")
        else:
            target = j + 1
            if roots[target - 1] != r - 2:
                raise PairingFailure(roots, r, j, "region drop is not to r-2")
        pairs.append(MatchedPair(j, target, kind))

    rightmost = srcs[-1]
    if rightmost < n and roots[rightmost] < r:
        # trailing region starts with a drop; its first vertex is at r-2
        target = rightmost + 1
        if roots[target - 1] != r - 2:
            raise PairingFailure(roots, r, rightmost, "trailing drop is not to r-2")
        pairs.append(MatchedPair(rightmost, target, RegionKind.B))
    elif srcs[0] > 1 and roots[srcs[0] - 2] == r + 2:
        pairs.append(MatchedPair(rightmost, srcs[0] - 1, RegionKind.LEFT_BOUNDARY))
    else:
        raise PairingFailure(
            roots, r, rightmost, "no trailing drop and no r+2 vertex before the leftmost source"
        )
    return MatchingCertificate(r, tuple(pairs))


def verify_certificate(
    seq: RootSequence, cert: MatchingCertificate
) -> tuple[bool, list[str]]:
    """Re-validate a certificate from scratch.

    Checks, independently of how the certificate was produced: the sources
    are exactly the height-r vertices, each exactly once; targets are
    pairwise distinct; every target is a real vertex at height r-2 or r+2.
    Returns (ok, failure reasons).
    """
    roots = seq.roots
    n = len(roots)
    r = cert.height
    reasons: list[str] = []

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


def certified_heights(seq: RootSequence) -> dict[int, MatchingCertificate]:
    """Build one certificate per realized height, keyed by the height."""
    _require_hypotheses(seq)
    profile: MultiplicityProfile = multiplicities(seq)
    return {r: _match_height(seq, r) for r in sorted(profile.counts)}
