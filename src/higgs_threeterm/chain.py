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
three-term inequality m_r <= m_{r-2} + m_{r+2}, characteristic-polynomial
coefficients of the Higgs field (nilpotent-cone membership), and bounded
exhaustive enumeration.  All arithmetic is exact; nothing here touches
floating point: the stability verdict is decided from integer prefix
sums, and slopes become Fractions only when a report reads them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple


class MalformedSequenceError(ValueError):
    """Root list is empty or contains a non-even entry."""


@dataclass(frozen=True)
class RootSequence:
    """Ordered even twist exponents (r_1, ..., r_n).

    Order is significant: it encodes the direction of the Higgs field.
    """

    roots: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roots", tuple(self.roots))
        if not self.roots:
            raise MalformedSequenceError("root sequence must be nonempty")
        for r in self.roots:
            if not isinstance(r, int) or isinstance(r, bool):
                raise MalformedSequenceError(f"roots must be integers, got {r!r}")
            if r % 2 != 0:
                raise MalformedSequenceError(f"roots must all be even, got {r}")

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def step_weights(self) -> tuple[int, ...]:
        """Weights w_j = r_{j+1} + 2 - r_j of the Higgs components, j = 1..n-1."""
        r = self.roots
        return tuple(r[j + 1] + 2 - r[j] for j in range(len(r) - 1))

    def shifted(self, c: int) -> RootSequence:
        """Twist every summand by c (c even, to preserve parity)."""
        if c % 2 != 0:
            raise MalformedSequenceError("shift must be even")
        return RootSequence(tuple(r + c for r in self.roots))

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


@dataclass(frozen=True)
class ChainHiggsBundle:
    """A root sequence with its derived component weights."""

    roots: RootSequence
    step_weights: tuple[int, ...]

    @classmethod
    def from_roots(cls, seq: RootSequence) -> ChainHiggsBundle:
        return cls(seq, seq.step_weights)

    @property
    def admissible(self) -> bool:
        return all(weight_has_nonzero_form(w) for w in self.step_weights)

    def theta_structure(self) -> list[list[int]]:
        """0/1 matrix of the Higgs field in the line-bundle splitting.

        Entry (j+1, j) marks the component O(r_j) -> O(r_{j+1}); it is 1
        exactly when a nonzero scalar form of weight w_j exists.  The last
        summand maps to zero, so the matrix is strictly lower triangular.
        """
        n = self.roots.n
        mat = [[0] * n for _ in range(n)]
        for j, w in enumerate(self.step_weights):
            if weight_has_nonzero_form(w):
                mat[j + 1][j] = 1
        return mat


@dataclass(frozen=True)
class MultiplicityProfile:
    """Multiplicities m_r of each twist r among the roots; absent keys read 0."""

    counts: dict[int, int] = field(default_factory=dict)

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


@dataclass(frozen=True)
class StabilityReport:
    """Tail-slope comparison against the total slope.

    tail_slopes[i] is the slope of the span of the last n-k+1 summands for
    k = i+2 (the canonical Higgs-invariant subobjects of a chain).  The
    chain is tail-stable when every tail slope is strictly below the total
    slope; an exact tie is reported as marginal, never as stable.  The
    slopes are computed from the roots when read.
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

    Step j fails when the path moves horizontally (w_j = 2), drops by more
    than 2 (w_j < 0), or changes parity (w_j odd; impossible for even roots,
    kept for safety).
    """
    bad = []
    for j, w in enumerate(seq.step_weights, start=1):
        if w < 0 or w == 2 or w % 2 != 0:
            bad.append(j)
    return (not bad, bad)


def tail_slopes(seq: RootSequence) -> StabilityReport:
    """Tail-slope stability verdict, decided in integers.

    With prefix sums P_j, the tail from k = j+1 has slope above (equal to)
    the total slope exactly when n*P_j - j*P_n is negative (zero).  A
    strict destabilizer wins over a marginal tie when both occur; the
    reported k is the first offender in k = 2..n.
    """
    r = seq.roots
    n = len(r)
    total = sum(r)
    prefix = 0
    marginal = None
    for j in range(1, n):
        prefix += r[j - 1]
        gap = n * prefix - j * total
        if gap < 0:
            return StabilityReport(r, "strictly-destabilized", j + 1)
        if gap == 0 and marginal is None:
            marginal = j + 1
    if marginal is not None:
        return StabilityReport(r, "marginal", marginal)
    return StabilityReport(r, "stable", None)


def multiplicities(seq: RootSequence) -> MultiplicityProfile:
    """Count each twist value among the roots."""
    return MultiplicityProfile(dict(Counter(seq.roots)))


def three_term_holds(profile: MultiplicityProfile) -> tuple[bool, list[ThreeTermViolation]]:
    """Check m_r <= m_{r-2} + m_{r+2} at every height.

    Heights with m_r = 0 hold trivially, so only realized heights are
    scanned; violations carry the three counts.
    """
    violations = []
    for r in sorted(profile.counts):
        m, below, above = profile[r], profile[r - 2], profile[r + 2]
        if m > below + above:
            violations.append(ThreeTermViolation(r, m, below, above))
    return (not violations, violations)


def hitchin_invariants(seq: RootSequence) -> list[Fraction]:
    """Characteristic-polynomial coefficients of the Higgs field.

    Returns (c_1, ..., c_n) with char(x) = x^n + c_1 x^{n-1} + ... + c_n.
    A chain field is strictly lower triangular, hence nilpotent, so every
    coefficient vanishes: the chain sits in the zero fiber (the nilpotent
    cone) of the map sending a Higgs bundle to these coefficients.
    """
    mat = ChainHiggsBundle.from_roots(seq).theta_structure()
    n = len(mat)
    if any(mat[i][j] for i in range(n) for j in range(i, n)):
        raise ValueError(f"Higgs field of {seq.roots} is not strictly lower triangular")
    return [Fraction(0)] * n


def enumeration_steps(max_rise: int) -> tuple[int, ...]:
    """Allowed root increments: the unique drop -2 and even rises up to max_rise."""
    return (-2,) + tuple(range(2, max_rise + 1, 2))


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
    """
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if max_rise < 2 or max_rise % 2 != 0:
        raise ValueError(f"max_rise must be even and >= 2, got {max_rise}")
    if root_bound < 0:
        raise ValueError(f"root_bound must be >= 0, got {root_bound}")
    steps = enumeration_steps(max_rise)

    def generate() -> Iterator[RootSequence]:
        for n in range(n_min, n_max + 1):
            for roots in extend_chain((0,), n, steps, root_bound):
                seq = RootSequence(roots)
                if not require_stable or tail_slopes(seq).is_stable:
                    yield seq

    return generate()


def extend_chain(
    prefix: tuple[int, ...], n: int, steps: tuple[int, ...], bound: int
) -> Iterator[tuple[int, ...]]:
    """Yield every length-n root tuple that extends prefix by the given steps
    and keeps |r_j| <= bound from the prefix's last root on.

    The order is lexicographic when the steps ascend.  A prefix whose last
    root already leaves the box yields nothing.
    """
    if abs(prefix[-1]) > bound:
        return
    if len(prefix) == n:
        yield prefix
        return
    last = prefix[-1]
    for delta in steps:
        if abs(last + delta) <= bound:  # skip a generator that would yield nothing
            yield from extend_chain(prefix + (last + delta,), n, steps, bound)
