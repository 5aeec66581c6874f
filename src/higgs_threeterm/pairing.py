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

Tail-order lemma: an admissible chain with r_n < r_1 satisfies
m_r <= m_{r-2} + m_{r+2} at every height.  Every height-r vertex but the
rightmost, j, is paired inside its region, injectively.  If r > r_n, the
path after j must reach r_n; it moves down only by drops of exactly 2, so
a rise after j would bring it back to r, and j is followed by a drop: the
trailing rule pairs it.  If r <= r_n, then r < r_1; the path starts above
r and first reaches r from r+2, so the left-boundary rule pairs j.  Tail
stability implies r_n < r_1 (the last tail's slope r_n lies below the
total slope, which lies below r_1), so the lemma contains the theorem for
tail-stable chains.  The strict inequality cannot be relaxed: chains with
r_n = r_1 can violate the inequality.

A chain's certificate is its targets.  Every vertex j is a source at its
own height r_j, so the whole pairing is one vertex-indexed tuple
`targets`, targets[j-1] being the vertex j is paired with.  The
certificate of height r is that tuple read at the height-r vertices:
`pairs` lists them, naming each one's region from its target, and
`verify_certificate` checks them.

One left-to-right pass (`_certify`) builds the pairing.  Vertex k at
height r closes the region opened by j = last[r]: the target is k-1, at
r+2, when vertex j+1 lies above r (an A region), and j+1, at r-2,
otherwise.  So a target takes O(1): moving in even steps and dropping by
exactly 2, the path comes back to r from above only by landing on it
from r+2.  A region that starts with a drop is C when the vertex just
before its end lies above r, and B when not; only `pairs` tells them
apart.  The public builder, `certify`, checks the hypotheses
(admissible, tail-stable) once per call; the sweep, which establishes
both itself, calls `_certify` directly.

Vertex indices are 1-based throughout: source j refers to the root r_j.

The certificate checker, `verify_certificate`, shares no code with the
builder.  It accepts first and explains later, as certifying algorithms
do: one short loop checks height r against the definition (an int
target per height-r vertex, a real vertex at r-2 or r+2, none taken
twice) and accepts; only a height it cannot accept so, or a tuple of the
wrong length, goes on to the full check, which works out every reason.
"""

from __future__ import annotations

from typing import NamedTuple

from .chain import RootSequence, is_admissible, tail_slopes


class HypothesisViolationError(ValueError):
    """Input chain is not admissible or not tail-stable."""


class PairingFailure(NamedTuple):
    """The counterexample for a source vertex that has no valid target:
    `_certify` returns one, and its `_asdict()` is the record that the sweep
    and `pair` write.

    None is returned for a tail-stable admissible chain with n >= 2; one
    would refute the matching construction.  The n = 1 singleton, whose
    lone vertex has no neighbor at all, gets one by design.
    """

    roots: tuple[int, ...]
    height: int
    source: int
    reason: str


def _certify(roots: tuple[int, ...]) -> tuple[tuple, dict[int, PairingFailure]]:
    """The chain's pairing from one pass: (targets, failures).

    failures maps each height whose rightmost vertex has no target to the
    PairingFailure returned for that vertex, its counterexample; nothing is
    raised.  The vertex's entry stays None, and the other vertices are
    paired.  The caller checks the hypotheses.
    """
    n = len(roots)
    targets: list[int | None] = [None] * n
    last: dict[int, int] = {}
    for k, r in enumerate(roots, 1):
        j = last.get(r)
        last[r] = k
        if j is not None:  # an A region (vertex j+1 above r) closes from r+2; any other opens with a drop
            targets[j - 1] = k - 1 if roots[j] > r else j + 1

    failures = {}
    for r, j in last.items():
        if j < n and roots[j] < r:
            # the trailing region starts with a drop; its first vertex is at r-2
            targets[j - 1] = j + 1
        elif (i := roots.index(r)) and roots[i - 1] == r + 2:  # vertex i precedes the leftmost source
            targets[j - 1] = i
        else:
            reason = "no trailing drop and no r+2 vertex before the leftmost source"
            failures[r] = PairingFailure(roots, r, j, reason)
    return tuple(targets), failures


def certify(seq: RootSequence) -> tuple[tuple, dict[int, PairingFailure]]:
    """The chain's pairing, (targets, failures) as `_certify` gives it, once
    the chain is checked to be admissible and tail-stable.

    Raises HypothesisViolationError for a chain that is not.  A height in
    failures refutes the matching construction at that height.
    """
    ok, bad = is_admissible(seq)
    if not ok:
        raise HypothesisViolationError(f"chain {seq.roots} is inadmissible at steps {bad}")
    report = tail_slopes(seq.roots)
    if not report.is_stable:
        raise HypothesisViolationError(f"chain {seq.roots} is not tail-stable ({report.verdict})")
    return _certify(seq.roots)


def pairs(roots: tuple[int, ...], r: int, targets: tuple) -> list[tuple[int, int, str]]:
    """(source, target, region) of each paired height-r vertex, by source.

    The region is read from the target: one at r+2 is "A" after the source
    and "LEFT_BOUNDARY" before it; one at r-2 is "C" when the vertex just
    before the next height-r vertex lies above r, and "B" otherwise, the
    trailing region included.
    """
    sources = [j for j, root in enumerate(roots, 1) if root == r]
    found = []
    for j, nxt in zip(sources, sources[1:] + [0]):  # nxt: the next height-r vertex, 0 past the last
        t = targets[j - 1]
        if t is not None and roots[t - 1] > r:  # at r+2
            found.append((j, t, "A" if t > j else "LEFT_BOUNDARY"))
        elif t is not None:  # at r-2: a C region returns to r from above
            found.append((j, t, "C" if nxt and roots[nxt - 2] > r else "B"))
    return found


def verify_certificate(roots: tuple[int, ...], r: int, targets: tuple) -> tuple[bool, list[str]]:
    """Re-validate height r of a chain's pairing from scratch.

    Checks, independently of how the targets were produced: there is one
    target per vertex, and every height-r vertex has one; the height-r
    vertices' targets are pairwise distinct; each is a real vertex at
    height r-2 or r+2.  The other vertices' targets are not read.  A
    target that is no vertex index is "target range", and one that cannot
    be hashed is left out of the distinctness test.  The roots are read as
    given (a RootSequence passes its .roots).

    A tuple of length n whose height-r targets are distinct ints (of type
    int itself, so no bool or subclass), each a vertex at r-2 or r+2, is
    accepted in one short loop.  Every other input goes to the full check,
    which gives the reasons, each once, in a fixed order: "source
    coverage", "injectivity", then "target range" and "target height" as
    they first occur.
    Returns (ok, failure reasons).
    """
    n = len(roots)
    if len(targets) == n:  # accept a valid height in one short loop
        seen, j = (), 0
        for _ in range(roots.count(r)):
            j = roots.index(r, j) + 1
            t = targets[j - 1]
            if type(t) is not int or not 1 <= t <= n or t in seen or abs(roots[t - 1] - r) != 2:
                break
            seen += (t,)
        else:
            return (True, [])
    # refused, or the tuple's length is wrong: work out every reason, in order
    # the height-r vertices' targets, left to right; a vertex past the tuple's end reads as unpaired
    found = [targets[j] if j < len(targets) else None for j, root in enumerate(roots) if root == r]
    reasons = ["source coverage"] if len(targets) != n or None in found else []
    found = [t for t in found if t is not None]

    seen, injective, bad = set(), True, {}  # bad: the targets' reasons, once each, in order
    for t in found:
        try:
            injective &= t not in seen  # raises for an unhashable t
            seen.add(t)
            if not 1 <= t <= n:
                bad["target range"] = None
            elif roots[t - 1] not in (r - 2, r + 2):
                bad["target height"] = None
        except TypeError:  # a target that is no vertex index
            bad["target range"] = None
    if not injective:
        reasons.append("injectivity")
    reasons.extend(bad)
    return (not reasons, reasons)
