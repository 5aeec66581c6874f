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

A chain from outside the program is checked once, where it enters, by
building a RootSequence; that is a root tuple itself, and every function
here takes a plain root tuple.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # the slopes import it when read: the sweep never loads fractions
    from fractions import Fraction


class MalformedSequenceError(ValueError):
    """Root list is empty or contains a non-even entry."""


class RootSequence(tuple):
    """A checked chain: the root tuple (r_1, ..., r_n) of even twist exponents.

    Order is significant: it encodes the direction of the Higgs field.
    The checks run once, where it is built; after that it is the plain
    root tuple, so it goes wherever one goes, and compares, hashes,
    pickles and copies as one.
    """

    __slots__ = ()

    def __new__(cls, roots: tuple[int, ...]) -> RootSequence:
        roots = super().__new__(cls, roots)
        if not roots:
            raise MalformedSequenceError("root sequence must be nonempty")
        for r in roots:  # an int subclass other than bool passes
            if not isinstance(r, int) or isinstance(r, bool):
                raise MalformedSequenceError(f"roots must be integers, got {r!r}")
            if r % 2 != 0:
                raise MalformedSequenceError(f"roots must all be even, got {r}")
        return roots


class MultiplicityProfile(NamedTuple):
    """Multiplicities m_r of each twist r among the roots, as {r: m_r};
    absent keys read 0."""

    counts: dict[int, int]


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
    slopes are computed from the roots when read.  A named tuple; the sweep
    builds none, since its walk decides each chain's stability itself.
    """

    roots: tuple[int, ...]
    kind: str  # "stable" | "strictly-destabilized" | "marginal"
    at_k: int | None

    @property
    def total_slope(self) -> Fraction:
        from fractions import Fraction
        return Fraction(sum(self.roots), len(self.roots))

    @property
    def tail_slopes(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
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


def step_weights(roots: tuple[int, ...]) -> tuple[int, ...]:
    """Weights w_j = r_{j+1} + 2 - r_j of the Higgs components, j = 1..n-1."""
    return tuple(roots[j + 1] + 2 - roots[j] for j in range(len(roots) - 1))


def is_admissible(roots: tuple[int, ...]) -> tuple[bool, list[int]]:
    """Check the three step rules; return (ok, violated 1-based step indices).

    Step j fails when no nonzero form of weight w_j exists: the path moves
    horizontally (w_j = 2), drops by more than 2 (w_j < 0), or changes
    parity (w_j odd; impossible for even roots, kept for safety).
    """
    bad = [j for j, w in enumerate(step_weights(roots), start=1) if not weight_has_nonzero_form(w)]
    return (not bad, bad)


def tail_slopes(roots: tuple[int, ...]) -> StabilityReport:
    """Tail-slope stability verdict of a root tuple, decided in integers.

    With prefix sums P_j, the tail from k = j+1 has slope above (equal to)
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


def multiplicities(roots: tuple[int, ...]) -> MultiplicityProfile:
    """Count each twist value among the roots."""
    return MultiplicityProfile(dict(Counter(roots)))


def three_term_holds(counts: Mapping[int, int]) -> tuple[bool, list[ThreeTermViolation]]:
    """Check m_r <= m_{r-2} + m_{r+2} at every height of a {r: m_r} mapping.

    Absent heights read 0 and hold trivially, so only the mapping's keys
    are tested, by _violating as in the walk; violations carry the three
    counts, ascending by height.
    """
    get = counts.get
    violations = [
        ThreeTermViolation(r, counts[r], get(r - 2, 0), get(r + 2, 0)) for r in _violating(counts, counts)
    ]
    return (not violations, violations)


def enumeration_steps(max_rise: int, bound: int) -> tuple[int, ...]:
    """Allowed root increments inside the box |r| <= bound: the unique drop -2
    and even rises up to max_rise.  A rise above 2*bound leaves the box from
    any root in it, so the rises stop at min(max_rise, 2*bound)."""
    return (-2,) + tuple(range(2, min(max_rise, 2 * bound) + 1, 2))


# The longest chain a box may hold.  extend_chain recurses once per root,
# and under the default recursion limit of 1000 its first chain raises
# RecursionError from length 998 on (997 with three_term; Python 3.11), so
# a longer box fails mid-walk.  Any box this long is far too big to walk.
MAX_LENGTH = 500


def check_box(n_min: int, n_max: int, max_rise: int, root_bound: int) -> None:
    """Raise ValueError unless each bound is an int (not a bool), 2 <= n_min
    <= n_max <= MAX_LENGTH, max_rise is even and >= 2, and root_bound >= 0.
    The types are checked first, so a float or a bool is named as such."""
    for name, value in zip(("n_min", "n_max", "max_rise", "root_bound"), (n_min, n_max, max_rise, root_bound)):
        if not isinstance(value, int) or isinstance(value, bool):  # True would read as 1, and 2.5 pass a range check
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_max > MAX_LENGTH:
        raise ValueError(f"n_max must be <= {MAX_LENGTH}, got {n_max}")
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
) -> Iterator[tuple[int, ...]]:
    """Yield the root tuple of every chain with r_1 = 0, steps in
    {-2, 2, 4, ..., max_rise} and |r_j| <= root_bound, optionally keeping
    only tail-stable ones.

    The step set makes every generated chain admissible by construction.
    Output order is deterministic: ascending length, then lexicographic on
    the root tuple.  Normalizing r_1 = 0 loses nothing because every chain
    statistic checked here is invariant under an even shift of all roots.
    With require_stable the walk decides each chain's stability as it
    reaches it and skips prefixes that cannot complete to a stable chain
    (see extend_chain), so every chain it yields is stable.
    """
    check_box(n_min, n_max, max_rise, root_bound)
    steps = enumeration_steps(max_rise, root_bound)
    lengths = range(n_min, n_max + 1)
    return (roots for n in lengths for roots, _, _ in extend_chain((0,), n, steps, root_bound, stable_only=require_stable))


def extend_chain(
    prefix: tuple[int, ...],
    n: int,
    steps: tuple[int, ...],
    bound: int,
    *,
    n_min: int | None = None,
    stable_only: bool = False,
    three_term: bool = False,
    counts: dict[int, int] | None = None,
) -> Iterator[tuple[tuple[int, ...], bool, tuple[int, ...] | None]]:
    """Yield (roots, stable, violated) for root tuples of each length
    n_min..n (n_min defaults to n) that extend prefix by the given steps
    and keep |r_j| <= bound from the prefix's last root on; stable is
    tail_slopes(roots).is_stable.  With three_term, violated holds the
    heights of three_term_holds's violations, ascending; without it,
    violated is None.

    Without stable_only or three_term the walk yields every such tuple.
    With three_term it yields only the tuples that are stable or violate
    the inequality: an unstable tuple with no violation witnesses nothing,
    and nobody reads it.  A tuple shorter than n is yielded, by the same
    rule as a leaf, when the walk reaches it, before any of its
    extensions: so one walk hands over every length, and the order is
    depth first.  The steps must ascend, as enumeration_steps gives them;
    the order within each length is then lexicographic.  A prefix longer
    than n, or whose last root already leaves the box, yields nothing.

    Stability is decided in O(1) per tuple from what the walk carries: the
    sum P_k of each node and the pair (P_j, j) of smallest prefix mean over
    j <= k, an empty prefix reading as 1/0, above every mean.  A tuple is
    stable exactly when its total mean P_n/n lies strictly below every
    prefix mean P_j/j, j < n, that is when P_n*j < n*P_j for that pair:
    the same inequality that makes n the new pair.  Since P_n rises with
    r_n, the leaves of one parent are stable up to a last root and
    unstable above it.

    With stable_only the walk yields exactly the stable tuples of length
    n, in the same order; its cut depends on n, so it takes n_min = n
    only.  The leaf loop stops at the first unstable last root, and a
    node of length k < n below the prefix is cut, in its parent's loop
    before it is built, when no completion can be stable
    (branch and bound): no completion totals less than L = P_k + sum of
    max(last - 2t, -bound) over t = 1..n-k (drop at every step, clamped at
    the box), so the node is cut when L*j >= n*P_j for its pair (P_j, j).

    The walk carries the multiplicities {r: m_r} of the tuple it builds, in
    the dict counts if one is passed (it is cleared first): a push adds one
    at the new root, a pop takes it away, and a count of 0 is deleted.  At
    each yield counts equals Counter(roots).

    With three_term every node, the prefix's roots included, also carries
    its violating heights, and a push updates them by one rule (_pushed):
    appending the root x raises m_x and nothing else, so height x can start
    to violate m_r <= m_{r-2} + m_{r+2}, heights x-2 and x+2 can only stop,
    and every other height keeps its verdict.  So a push tests x, and
    rechecks the node's violating heights only when x starts to violate or
    x-2 or x+2 is among them; no node scans all its heights.
    """
    n_min = n if n_min is None else n_min
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
    bad = _violating(counts, counts) if three_term else None  # the prefix's violating heights, found once

    def walk(roots, total, low_sum, low_len, bad):
        k = len(roots)
        last = roots[-1]
        get = counts.get
        if k + 1 == n:  # the last push: yield each leaf directly, with no generator per leaf
            most = (n * low_sum - 1) // low_len - total  # the largest stable last root
            top = min(bound, most) if stable_only else bound
            for delta in steps:
                nxt = last + delta
                if nxt > top:  # the steps ascend, so every later root is above top too
                    break
                if nxt >= -bound:
                    m = get(nxt, 0)
                    counts[nxt] = m + 1
                    violated = None if bad is None else _pushed(counts, bad, nxt)
                    if violated != () or nxt <= most:  # () is an unstable leaf that witnesses nothing
                        yield roots + (nxt,), nxt <= most, violated
                    if m:
                        counts[nxt] = m
                    else:
                        del counts[nxt]
            return
        left = n - k - 1  # the steps after a child's
        handed = k + 1 >= n_min  # whether a child is handed over before its extensions
        for delta in steps:
            nxt = last + delta
            if abs(nxt) <= bound:
                grown = total + nxt
                stable = grown * low_len < low_sum * (k + 1)  # the child's verdict, which makes it the new pair
                low = (grown, k + 1) if stable else (low_sum, low_len)
                if stable_only:  # the branch-and-bound cut, before the child is built
                    drops = min(left, (nxt + bound) // 2)  # drops that stay inside the box
                    floor = grown + drops * nxt - drops * (drops + 1) - (left - drops) * bound
                    if floor * low[1] >= n * low[0]:
                        continue
                m = get(nxt, 0)
                counts[nxt] = m + 1
                child, violated = roots + (nxt,), bad if bad is None else _pushed(counts, bad, nxt)
                if handed and (stable or violated != ()):
                    yield child, stable, violated
                yield from walk(child, grown, *low, violated)
                if m:
                    counts[nxt] = m
                else:
                    del counts[nxt]

    if len(prefix) >= n_min and (stable or not stable_only and bad != ()):
        yield prefix, stable, bad
    if len(prefix) < n:
        yield from walk(prefix, total, low_sum, low_len, bad)


def _pushed(counts: Mapping[int, int], bad: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The violating heights once a push of x has raised m_x by one in
    counts, from bad, those before it (see extend_chain)."""
    if counts[x] <= counts.get(x - 2, 0) + counts.get(x + 2, 0) or x in bad:  # x keeps its verdict
        return _violating(counts, bad) if x - 2 in bad or x + 2 in bad else bad
    return _violating(counts, (x, *bad)) if bad else (x,)  # x starts to violate


def _violating(counts: Mapping[int, int], heights) -> tuple[int, ...]:
    """The heights r among `heights` where m_r > m_{r-2} + m_{r+2}, ascending."""
    get = counts.get
    return tuple(sorted([r for r in heights if counts[r] > get(r - 2, 0) + get(r + 2, 0)]))


def count_chains(prefix: tuple[int, ...], n_max: int, steps: tuple[int, ...], bound: int) -> list[int]:
    """[c_0, ..., c_{n_max}], where c_n is the number of tuples
    extend_chain(prefix, n, steps, bound) yields, unpruned.

    One dynamic program over (remaining length, height): after m passes
    ways[h] counts the walks of m more steps from height h inside the box.
    It holds only the heights within the box that the walk from prefix[-1]
    can reach, so its size does not grow with a bound that limits no chain.
    """
    out = [0] * (n_max + 1)
    start = prefix[-1]
    if abs(start) <= bound:
        reach = max(0, n_max - len(prefix)) * max(map(abs, steps))
        ways = dict.fromkeys(range(max(-bound, start - reach), min(bound, start + reach) + 1), 1)
        for n in range(len(prefix), n_max + 1):
            out[n] = ways[start]
            ways = {h: sum(ways.get(h + delta, 0) for delta in steps) for h in ways}
    return out
