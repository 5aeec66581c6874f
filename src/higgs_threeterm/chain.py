"""Chain-type nilpotent Higgs bundles on the modular orbifold line.

A chain is an ordered list of even integers (r_1, ..., r_n): the twist
exponents of the line-bundle summands O(r_j) into which the bundle splits.
The Higgs field maps the j-th summand into the (j+1)-st twisted by the
logarithmic differentials, so its j-th component is realized by a scalar
modular form of level one and weight

    w_j = r_{j+1} + 2 - r_j,

and the component out of the last summand is the zero map.  A chain is
*admissible* when every w_j can be realized by a nonzero form, i.e. the
piecewise-linear path through the points (j, r_j) never moves horizontally,
drops by exactly 2 per step, and rises by even amounts.

This module implements the exact combinatorics attached to such chains:
admissibility, tail-slope stability, multiplicity profiles with the
three-term inequality m_r <= m_{r-2} + m_{r+2}, and bounded exhaustive
enumeration, pruned by branch and bound when only stable chains are
wanted and counted by a dynamic program.  All arithmetic is exact; nothing here touches
floating point: the stability verdict is decided from integer prefix
sums, and slopes become Fractions only when a report reads them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from fractions import Fraction
from typing import NamedTuple


class MalformedSequenceError(ValueError):
    """Root list is empty or contains a non-even entry."""


class RootSequence:
    """Ordered even twist exponents (r_1, ..., r_n).

    Order is significant: it encodes the direction of the Higgs field.
    Immutable, and compared, hashed and shown by its roots.
    """

    __slots__ = ("roots",)

    def __init__(self, roots: tuple[int, ...]) -> None:
        roots = tuple(roots)
        if not roots:
            raise MalformedSequenceError("root sequence must be nonempty")
        for r in roots:
            if type(r) is not int or r & 1:
                # the slow path: name the first bad root; an int subclass other than bool passes
                for r in roots:
                    if not isinstance(r, int) or isinstance(r, bool):
                        raise MalformedSequenceError(f"roots must be integers, got {r!r}")
                    if r % 2 != 0:
                        raise MalformedSequenceError(f"roots must all be even, got {r}")
                break
        object.__setattr__(self, "roots", roots)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return RootSequence, (self.roots,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.roots == other.roots
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.roots,))

    def __repr__(self) -> str:
        return f"RootSequence(roots={self.roots!r})"

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def step_weights(self) -> tuple[int, ...]:
        """Weights w_j = r_{j+1} + 2 - r_j of the Higgs components, j = 1..n-1."""
        r = self.roots
        return tuple(r[j + 1] + 2 - r[j] for j in range(len(r) - 1))

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


class MultiplicityProfile(NamedTuple):
    """Multiplicities m_r of each twist r among the roots; absent keys read 0.

    Indexing reads a multiplicity, profile[r] = m_r, not a tuple field.
    """

    counts: dict[int, int]

    def __getitem__(self, r: int) -> int:
        return self.counts.get(r, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def heights(self) -> list[int]:
        """Realized twists, descending."""
        return sorted(self.counts, reverse=True)


class ThreeTermViolation(NamedTuple):
    height: int
    count: int
    below: int  # m_{r-2}
    above: int  # m_{r+2}


class StabilityReport(NamedTuple):
    """Tail-slope comparison against the total slope.

    tail_slopes[i] is the slope of the span of the last n-k+1 summands for
    k = i+2 (the canonical Higgs-invariant subobjects of a chain).  The
    chain is tail-stable when every tail slope is strictly below the total
    slope; an exact tie is reported as marginal, never as stable.  The
    slopes are computed from the roots when read.  A named tuple: the sweep
    builds one per walked chain.
    """

    roots: tuple[int, ...]
    kind: str  # "stable" | "strictly-destabilized" | "marginal"
    at_k: int | None

    @property
    def total_slope(self) -> Fraction:
        return Fraction(sum(self.roots), len(self.roots))

    @property
    def tail_slopes(self) -> tuple[Fraction, ...]:
        r = self.roots
        n = len(r)
        return tuple(Fraction(sum(r[k - 1 :]), n - k + 1) for k in range(2, n + 1))

    @property
    def is_stable(self) -> bool:
        return self.kind == "stable"

    @property
    def verdict(self) -> str:
        if self.at_k is None:
            return self.kind
        return f"{self.kind}-at-{self.at_k}"


def weight_has_nonzero_form(k: int) -> bool:
    """Whether a nonzero holomorphic scalar modular form of level one and
    weight k exists: k must be even, nonnegative, and not 2."""
    return k >= 0 and k % 2 == 0 and k != 2


def is_admissible(seq: RootSequence) -> tuple[bool, list[int]]:
    """Check the three step rules; return (ok, violated 1-based step indices).

    Step j fails when no nonzero form of weight w_j exists: the path moves
    horizontally (w_j = 2), drops by more than 2 (w_j < 0), or changes
    parity (w_j odd; impossible for even roots, kept for safety).
    """
    bad = [j for j, w in enumerate(seq.step_weights, start=1) if not weight_has_nonzero_form(w)]
    return (not bad, bad)


def tail_slopes(roots: tuple[int, ...]) -> StabilityReport:
    """Tail-slope stability verdict of a root tuple, decided in integers.

    The tuple is read as given (a RootSequence passes its .roots).  With
    prefix sums P_j, the tail from k = j+1 has slope above (equal to)
    the total slope exactly when n*P_j - j*P_n is negative (zero).  A
    strict destabilizer wins over a marginal tie when both occur; the
    reported k is the first offender in k = 2..n.
    """
    n = len(roots)
    total = sum(roots)
    prefix = 0
    marginal = None
    for j in range(1, n):
        prefix += roots[j - 1]
        gap = n * prefix - j * total
        if gap < 0:
            return StabilityReport(roots, "strictly-destabilized", j + 1)
        if gap == 0 and marginal is None:
            marginal = j + 1
    if marginal is not None:
        return StabilityReport(roots, "marginal", marginal)
    return StabilityReport(roots, "stable", None)


def multiplicities(seq: RootSequence) -> MultiplicityProfile:
    """Count each twist value among the roots."""
    return MultiplicityProfile(dict(Counter(seq.roots)))


def three_term_holds(counts: Mapping[int, int]) -> tuple[bool, list[ThreeTermViolation]]:
    """Check m_r <= m_{r-2} + m_{r+2} at every height of a {r: m_r} mapping.

    Absent heights read 0 and hold trivially, so only the mapping's keys
    are scanned, ascending; violations carry the three counts.
    """
    violations = []
    new = tuple.__new__  # ThreeTermViolation(...) would run the named tuple's Python-level __new__
    get = counts.get
    for r in sorted(counts):
        m, below, above = counts[r], get(r - 2, 0), get(r + 2, 0)
        if m > below + above:
            violations.append(new(ThreeTermViolation, (r, m, below, above)))
    return (not violations, violations)


def enumeration_steps(max_rise: int) -> tuple[int, ...]:
    """Allowed root increments: the unique drop -2 and even rises up to max_rise."""
    return (-2,) + tuple(range(2, max_rise + 1, 2))


def check_box(n_min: int, n_max: int, max_rise: int, root_bound: int) -> None:
    """Raise ValueError unless 2 <= n_min <= n_max, max_rise is even and
    >= 2, and root_bound >= 0."""
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if max_rise < 2 or max_rise % 2 != 0:
        raise ValueError(f"max_rise must be even and >= 2, got {max_rise}")
    if root_bound < 0:
        raise ValueError(f"root_bound must be >= 0, got {root_bound}")


def enumerate_chains(
    n_min: int,
    n_max: int,
    max_rise: int,
    root_bound: int,
    require_stable: bool = True,
) -> Iterator[RootSequence]:
    """Yield every chain with r_1 = 0, steps in {-2, 2, 4, ..., max_rise} and
    |r_j| <= root_bound, optionally keeping only tail-stable ones.

    The step set makes every generated chain admissible by construction.
    Output order is deterministic: ascending length, then lexicographic on
    the root tuple.  Normalizing r_1 = 0 loses nothing because every chain
    statistic checked here is invariant under an even shift of all roots.
    With require_stable the walk decides each chain's stability as it
    reaches it and skips prefixes that cannot complete to a stable chain
    (see extend_chain), so every chain it yields is stable.
    """
    check_box(n_min, n_max, max_rise, root_bound)
    steps = enumeration_steps(max_rise)

    def generate() -> Iterator[RootSequence]:
        for n in range(n_min, n_max + 1):
            for roots, _ in extend_chain((0,), n, steps, root_bound, stable_only=require_stable):
                yield RootSequence(roots)

    return generate()


def extend_chain(
    prefix: tuple[int, ...],
    n: int,
    steps: tuple[int, ...],
    bound: int,
    *,
    stable_only: bool = False,
    counts: dict[int, int] | None = None,
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield (roots, stable) for every length-n root tuple that extends
    prefix by the given steps and keeps |r_j| <= bound from the prefix's
    last root on; stable is tail_slopes(roots).is_stable.

    The steps must ascend, as enumeration_steps gives them; the order is
    then lexicographic.  A prefix longer than n, or whose last root
    already leaves the box, yields nothing.

    Stability is decided in O(1) per tuple from what the walk carries: the
    sum P_k of each node and the pair (P_j, j) of smallest prefix mean over
    j <= k, an empty prefix reading as 1/0, above every mean.  A tuple is
    stable exactly when its total mean P_n/n lies strictly below every
    prefix mean P_j/j, j < n, that is when P_n*j < n*P_j for that pair:
    the same inequality that makes n the new pair.  Since P_n rises with
    r_n, the leaves of one parent are stable up to a last root and
    unstable above it.

    With stable_only the walk yields exactly the stable tuples, in the same
    order.  The leaf loop stops at the first unstable last root, and a
    node of length k < n below the prefix is cut, in its parent's loop
    before it is built, when no completion can be stable (branch and
    bound): no completion totals less than L = P_k + sum of
    max(last - 2t, -bound) over t = 1..n-k (drop at every step, clamped at
    the box), so the node is cut when L*j >= n*P_j for its pair (P_j, j).

    The walk carries the multiplicities {r: m_r} of the tuple it builds, in
    the dict counts if one is passed (it is cleared first): a push adds one
    at the new root, a pop takes it away, and a count of 0 is deleted.  At
    each yield counts equals multiplicities(RootSequence(roots)).counts.
    """
    counts = {} if counts is None else counts
    counts.clear()
    if abs(prefix[-1]) > bound or len(prefix) > n:
        return
    total, low_sum, low_len = 0, 1, 0  # 1/0: no prefix yet
    for j, r in enumerate(prefix, start=1):
        total += r
        counts[r] = counts.get(r, 0) + 1
        if stable := total * low_len < low_sum * j:
            low_sum, low_len = total, j

    def walk(roots, total, low_sum, low_len):
        k = len(roots)
        last = roots[-1]
        if k + 1 == n:  # the last push: yield each leaf directly, with no generator per leaf
            most = (n * low_sum - 1) // low_len - total  # the largest stable last root
            top = min(bound, most) if stable_only else bound
            for delta in steps:
                nxt = last + delta
                if nxt > top:  # the steps ascend, so every later root is above top too
                    break
                if nxt >= -bound:
                    counts[nxt] = counts.get(nxt, 0) + 1
                    yield roots + (nxt,), nxt <= most
                    if counts[nxt] == 1:
                        del counts[nxt]
                    else:
                        counts[nxt] -= 1
            return
        left = n - k - 1  # the steps after a child's
        for delta in steps:
            nxt = last + delta
            if abs(nxt) <= bound:
                grown = total + nxt
                low = (grown, k + 1) if grown * low_len < low_sum * (k + 1) else (low_sum, low_len)
                if stable_only:  # the branch-and-bound cut, before the child is built
                    drops = min(left, (nxt + bound) // 2)  # drops that stay inside the box
                    floor = grown + drops * nxt - drops * (drops + 1) - (left - drops) * bound
                    if floor * low[1] >= n * low[0]:
                        continue
                counts[nxt] = counts.get(nxt, 0) + 1
                yield from walk(roots + (nxt,), grown, *low)
                if counts[nxt] == 1:
                    del counts[nxt]
                else:
                    counts[nxt] -= 1

    if len(prefix) < n:
        yield from walk(prefix, total, low_sum, low_len)
    elif stable or not stable_only:
        yield prefix, stable


def count_chains(prefix: tuple[int, ...], n: int, steps: tuple[int, ...], bound: int) -> int:
    """Number of tuples extend_chain(prefix, n, steps, bound) yields, unpruned.

    A dynamic program over (remaining length, height): walks of m more
    steps from height h inside the box, summed over the steps.
    """
    if abs(prefix[-1]) > bound or len(prefix) > n:
        return 0
    heights = range(-bound, bound + 1)
    ways = dict.fromkeys(heights, 1)
    for _ in range(n - len(prefix)):
        ways = {h: sum(ways.get(h + delta, 0) for delta in steps) for h in heights}
    return ways[prefix[-1]]
