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

One left-to-right pass (`_certify`) builds every height at once.  Vertex k
at height r closes the region opened by j = last[r]: it is A when vertex
j+1 lies above r (target k-1, at r+2); otherwise the target is j+1, at
r-2, and it is C when vertex k-1 lies above r and B when not.  So a label
takes O(1): moving in even steps and dropping by exactly 2, the path comes
back to r from above only by landing on it from r+2.  The public entry
points check the hypotheses (admissible, tail-stable) once per call; the
sweep, which establishes both itself, calls `_certify` directly.

Vertex indices are 1-based throughout: source j refers to the root r_j.
The certificate checker shares no code with the builder.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .chain import RootSequence, is_admissible, tail_slopes


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


class MatchedPair(NamedTuple):
    source: int
    target: int
    label: RegionKind


class MatchingCertificate(NamedTuple):
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


def _certify(roots: tuple[int, ...]) -> dict[int, tuple[MatchingCertificate, PairingFailure | None]]:
    """Every realized height's certificate from one pass, ascending by height.

    Each value is (certificate, failure): failure is None when every height-r
    vertex is paired, else the rightmost vertex's PairingFailure, and the
    certificate pairs the others.  The caller checks the hypotheses.
    """
    new = tuple.__new__  # MatchedPair(...) would run the named tuple's Python-level __new__
    A, B, C = RegionKind.A, RegionKind.B, RegionKind.C
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    pairs: dict[int, list[MatchedPair]] = {}
    for k, r in enumerate(roots, 1):
        j = last.get(r)
        if j is None:
            first[r] = k
            pairs[r] = []
        elif roots[j] > r:  # vertex j+1 is above r: an A region, closed from r+2
            pairs[r].append(new(MatchedPair, (j, k - 1, A)))
        else:  # a drop to j+1; the region is C when it returns from above
            pairs[r].append(new(MatchedPair, (j, j + 1, C if roots[k - 2] > r else B)))
        last[r] = k

    n = len(roots)
    built = {}
    for r in sorted(first):
        j, failure = last[r], None
        if j < n and roots[j] < r:
            # the trailing region starts with a drop; its first vertex is at r-2
            pairs[r].append(new(MatchedPair, (j, j + 1, B)))
        elif first[r] > 1 and roots[first[r] - 2] == r + 2:
            pairs[r].append(new(MatchedPair, (j, first[r] - 1, RegionKind.LEFT_BOUNDARY)))
        else:
            reason = "no trailing drop and no r+2 vertex before the leftmost source"
            failure = PairingFailure(roots, r, j, reason)
        built[r] = (new(MatchingCertificate, (r, tuple(pairs[r]))), failure)
    return built


def build_matching(seq: RootSequence, r: int) -> MatchingCertificate:
    """Pair every height-r vertex with a distinct vertex at height r-2 or r+2.

    Interior sources pair inside their own region, by the module's A/B/C
    rule.  The rightmost source pairs right with the trailing drop when
    there is one, and otherwise left with the r+2 vertex preceding the
    leftmost source (which exists for tail-stable chains because the path
    must then descend from r_1 > r).
    """
    _require_hypotheses(seq)
    return _unless_failed(*_certify(seq.roots).get(r, (MatchingCertificate(r, ()), None)))


def _unless_failed(cert: MatchingCertificate, failure: PairingFailure | None) -> MatchingCertificate:
    if failure is not None:
        raise failure
    return cert


def verify_certificate(roots: tuple[int, ...], cert: MatchingCertificate) -> tuple[bool, list[str]]:
    """Re-validate a certificate of the chain with these roots from scratch.

    Checks, independently of how the certificate was produced: the sources
    are exactly the height-r vertices, each exactly once; targets are
    pairwise distinct; every target is a real vertex at height r-2 or r+2.
    The roots are read as given (a RootSequence passes its .roots).
    Returns (ok, failure reasons).
    """
    n = len(roots)
    r = cert.height
    reasons: list[str] = []
    sources, targets, _ = zip(*cert.pairs) if cert.pairs else ((), (), ())

    # the sources are the height-r vertices exactly when there are m_r of
    # them, distinct, and each is a vertex at height r
    try:
        if len(sources) != roots.count(r) or len(set(sources)) != len(sources):
            reasons.append("source coverage")
        else:
            for j in sources:
                if not 1 <= j <= n or roots[j - 1] != r:
                    reasons.append("source coverage")
                    break
    except TypeError:  # a source that is no vertex index, such as 1.0
        reasons.append("source coverage")

    if len(set(targets)) != len(targets):
        reasons.append("injectivity")

    for t in targets:
        try:
            if not 1 <= t <= n:
                reason = "target range"
            elif roots[t - 1] not in (r - 2, r + 2):
                reason = "target height"
            else:
                continue
        except TypeError:  # a target that is no vertex index
            reason = "target range"
        if reason not in reasons:
            reasons.append(reason)
    return (not reasons, reasons)


def certified_heights(seq: RootSequence) -> dict[int, MatchingCertificate]:
    """Build one certificate per realized height, keyed by the height."""
    _require_hypotheses(seq)
    return {r: _unless_failed(*built) for r, built in _certify(seq.roots).items()}
