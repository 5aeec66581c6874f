"""Exact calculus for filtered objects and residue translation.

Degrees and slopes of filtered representations and filtered bundles are
weighted sums of filtration jumps, computed here as exact rationals.  The
rank-1 worked example for the modular group is included in closed form:
the six characters chi^a pick exponents a/6, a filtered character (a, b)
has its bundle-side jump at the fractional part of b - a/6, and the
filtered degree equals b on both sides of the correspondence.

The residue of one Jordan block translates between the three sides of the
correspondence as a prescribed shift of (jump, eigenvalue) data.  With the
representation-side block written as jump beta and eigenvalue angle u + vi
(the eigenvalue itself being exp(2*pi*i*(u+vi)), with u normalized into
[0, 1) so the table is a bijection):

                 jump        eigenvalue
  representation beta        angle u + vi (carried exactly as (u, v))
  connection     beta + u    -(u + vi)
  Higgs          -u          -(beta + vi)/2

Angles and eigenvalue components are carried as exact rationals; no
transcendental function is ever evaluated, so round trips are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class BranchError(ValueError):
    """Inverse translation input is outside the canonical branch window."""


def frac_part(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    return q - math.floor(q)


@dataclass(frozen=True)
class FilteredJumpData:
    """A filtered representation's per-cusp jump profile: (jump value,
    graded dimension) pairs, the jumps arbitrary rationals.

    Its degree is the sum of jump * dimension over all cusps, and its
    slope that degree over the dimension.
    """

    cusps: tuple[tuple[tuple[Fraction, int], ...], ...]

    def __post_init__(self) -> None:
        cusps = tuple(tuple((Fraction(j), int(d)) for j, d in cusp) for cusp in self.cusps)
        object.__setattr__(self, "cusps", cusps)
        if not cusps:
            raise ValueError("need at least one cusp")
        for cusp in cusps:
            if not cusp:  # it would have dimension 0, and no slope
                raise ValueError("need at least one jump at every cusp")
            for _, dim in cusp:
                if dim <= 0:
                    raise ValueError(f"graded dimensions must be positive, got {dim}")
        dims = {sum(d for _, d in cusp) for cusp in cusps}
        if len(dims) != 1:
            raise ValueError(f"cusps disagree on total dimension: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return sum(d for _, d in self.cusps[0])

    @property
    def degree(self) -> Fraction:
        return sum((jump * dim for cusp in self.cusps for jump, dim in cusp), Fraction(0))

    @property
    def slope(self) -> Fraction:
        return self.degree / self.dimension


@dataclass(frozen=True)
class FilteredBundleData:
    """A filtered bundle: degree of the zeroth extension, rank, and the jump
    profile of its parabolic weights, each of which lies in [0, 1).

    Its degree is the base degree plus the weighted jumps, and its slope
    that degree over the rank.  The degree of the zeroth extension is
    supplied abstractly (no degree normalization of the orbifold line
    bundles is imposed here).
    """

    base_degree: Fraction
    rank: int
    jumps: FilteredJumpData

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_degree", Fraction(self.base_degree))
        for cusp in self.jumps.cusps:
            for jump, _ in cusp:
                if not 0 <= jump < 1:
                    raise ValueError(f"bundle-side jump {jump} outside [0, 1)")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.jumps.dimension != self.rank:
            raise ValueError(f"jump dimensions sum to {self.jumps.dimension}, rank is {self.rank}")

    @property
    def degree(self) -> Fraction:
        return self.base_degree + self.jumps.degree

    @property
    def slope(self) -> Fraction:
        return self.degree / self.rank


def _check_character_power(a: int) -> None:
    if not 0 <= a <= 5:
        raise ValueError(f"character power must be in 0..5, got {a}")


def rank1_jump(a: int, b: Fraction) -> Fraction:
    """Bundle-side jump in [0, 1) of the filtered character (a, b)."""
    _check_character_power(a)
    return frac_part(Fraction(b) - Fraction(a, 6))


def rank1_degrees(a: int, b: Fraction) -> tuple[Fraction, Fraction]:
    """(unfiltered degree of the zeroth extension, filtered degree).

    The unfiltered degree is a/6 + floor(b - a/6); adding the jump from
    rank1_jump recovers b, which is also the filtered degree: the
    correspondence preserves degree, exactly visible in rank 1.
    """
    _check_character_power(a)
    b = Fraction(b)
    unfiltered = Fraction(a, 6) + math.floor(b - Fraction(a, 6))
    return (unfiltered, b)


def rank1_residue_angle(a: int) -> Fraction:
    """Angle t in [0, 1) with the cusp residue of chi^a equal to exp(2*pi*i*t)."""
    _check_character_power(a)
    return Fraction(a, 6)


@dataclass(frozen=True)
class ResidueBlock:
    """One Jordan block on the representation side: jump beta, eigenvalue
    angle u + vi with u in [0, 1)."""

    beta: Fraction
    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))
        if not 0 <= self.u < 1:
            raise BranchError(f"u must lie in [0, 1), got {self.u}")


@dataclass(frozen=True)
class SideResidue:
    """Residue data on the connection or Higgs side: a jump and an exact
    complex eigenvalue (re, im)."""

    jump: Fraction
    eigenvalue: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jump", Fraction(self.jump))
        re, im = self.eigenvalue
        object.__setattr__(self, "eigenvalue", (Fraction(re), Fraction(im)))


def rep_to_connection(block: ResidueBlock) -> SideResidue:
    """Connection side: jump beta + u, eigenvalue -(u + vi)."""
    return SideResidue(block.beta + block.u, (-block.u, -block.v))


def rep_to_higgs(block: ResidueBlock) -> SideResidue:
    """Higgs side: jump -u, eigenvalue -(beta + vi)/2.

    A unitary block with a nonzero filtration jump u lands at a nonzero
    Higgs-side jump: the filtration alone can force a nonzero Higgs field.
    """
    return SideResidue(-block.u, (-block.beta / 2, -block.v / 2))


def connection_to_rep(data: SideResidue) -> ResidueBlock:
    """Invert the connection column; the eigenvalue real part must obey the
    branch normalization -re in [0, 1)."""
    re, im = data.eigenvalue
    u = -re
    if not 0 <= u < 1:
        raise BranchError(f"connection eigenvalue real part {re} outside the branch (-1, 0]")
    return ResidueBlock(data.jump - u, u, -im)


def higgs_to_rep(data: SideResidue) -> ResidueBlock:
    """Invert the Higgs column; the jump must obey -jump in [0, 1)."""
    u = -data.jump
    if not 0 <= u < 1:
        raise BranchError(f"Higgs jump {data.jump} outside the branch (-1, 0]")
    re, im = data.eigenvalue
    return ResidueBlock(-2 * re, u, -2 * im)
