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
Each rational input (a jump, a base degree, b, a residue entry) must be
an int or a Fraction: a float or a bool is refused, naming its field.

Each record here is a named tuple, checked where it is built: by its
constructor, and so by _make and _replace, which go through it.  After
that it is a plain tuple of its exact fields, and compares, hashes,
pickles and copies as one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class BranchError(ValueError):
    """Inverse translation input is outside the canonical branch window."""


def _exact(name: str, value) -> Fraction:
    """value as a Fraction; only an int (not a bool) or a Fraction is exact."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):  # 0.1 is a binary fraction, not 1/10
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def frac_part(q: Fraction) -> Fraction:
    """Fractional part in [0, 1)."""
    return q - math.floor(q)


class FilteredJumpData(NamedTuple("FilteredJumpData", [("cusps", tuple[tuple[tuple[Fraction, int], ...], ...])])):
    """A filtered representation's per-cusp jump profile: (jump value,
    graded dimension) pairs, the jumps arbitrary rationals.

    Its degree is the sum of jump * dimension over all cusps, and its
    slope that degree over the dimension.
    """

    __slots__ = ()

    def __new__(cls, cusps: tuple[tuple[tuple[Fraction, int], ...], ...]) -> FilteredJumpData:
        cusps = tuple(tuple((_exact("jump", j), d) for j, d in cusp) for cusp in cusps)
        if not cusps:
            raise ValueError("need at least one cusp")
        for cusp in cusps:
            if not cusp:  # it would have dimension 0, and no slope
                raise ValueError("need at least one jump at every cusp")
            for _, dim in cusp:
                if not isinstance(dim, int) or isinstance(dim, bool):  # exact: no float, and no bool read as 0 or 1
                    raise ValueError(f"graded dimensions must be integers, got {dim!r}")
                if dim <= 0:
                    raise ValueError(f"graded dimensions must be positive, got {dim}")
        dims = {sum(d for _, d in cusp) for cusp in cusps}
        if len(dims) != 1:
            raise ValueError(f"cusps disagree on total dimension: {sorted(dims)}")
        return super().__new__(cls, cusps)

    _make = classmethod(lambda cls, fields: cls(*fields))  # else _make and _replace skip the checks

    @property
    def dimension(self) -> int:
        return sum(d for _, d in self.cusps[0])

    @property
    def degree(self) -> Fraction:
        return sum((jump * dim for cusp in self.cusps for jump, dim in cusp), Fraction(0))

    @property
    def slope(self) -> Fraction:
        return self.degree / self.dimension


class FilteredBundleData(NamedTuple("FilteredBundleData", [("base_degree", Fraction), ("rank", int), ("jumps", FilteredJumpData)])):
    """A filtered bundle: degree of the zeroth extension, rank, and the jump
    profile of its parabolic weights, each of which lies in [0, 1).

    Its degree is the base degree plus the weighted jumps, and its slope
    that degree over the rank.  The degree of the zeroth extension is
    supplied abstractly (no degree normalization of the orbifold line
    bundles is imposed here).
    """

    __slots__ = ()

    def __new__(cls, base_degree: Fraction, rank: int, jumps: FilteredJumpData) -> FilteredBundleData:
        base_degree = _exact("base_degree", base_degree)
        for cusp in jumps.cusps:
            for jump, _ in cusp:
                if not 0 <= jump < 1:
                    raise ValueError(f"bundle-side jump {jump} outside [0, 1)")
        if not isinstance(rank, int) or isinstance(rank, bool):  # exact: a float rank would make the slope a float
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if jumps.dimension != rank:
            raise ValueError(f"jump dimensions sum to {jumps.dimension}, rank is {rank}")
        return super().__new__(cls, base_degree, rank, jumps)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def degree(self) -> Fraction:
        return self.base_degree + self.jumps.degree

    @property
    def slope(self) -> Fraction:
        return self.degree / self.rank


def _check_character_power(a: int) -> None:
    if not isinstance(a, int) or isinstance(a, bool):  # True would read as 1, and 2.0 fail in Fraction(a, 6)
        raise ValueError(f"character power must be an integer, got {a!r}")
    if not 0 <= a <= 5:
        raise ValueError(f"character power must be in 0..5, got {a}")


def rank1_jump(a: int, b: Fraction) -> Fraction:
    """Bundle-side jump in [0, 1) of the filtered character (a, b)."""
    _check_character_power(a)
    return frac_part(_exact("b", b) - Fraction(a, 6))


def rank1_degrees(a: int, b: Fraction) -> tuple[Fraction, Fraction]:
    """(unfiltered degree of the zeroth extension, filtered degree).

    The unfiltered degree is a/6 + floor(b - a/6); adding the jump from
    rank1_jump recovers b, which is also the filtered degree: the
    correspondence preserves degree, exactly visible in rank 1.
    """
    _check_character_power(a)
    b = _exact("b", b)
    return (Fraction(a, 6) + math.floor(b - Fraction(a, 6)), b)


def rank1_residue_angle(a: int) -> Fraction:
    """Angle t in [0, 1) with the cusp residue of chi^a equal to exp(2*pi*i*t)."""
    _check_character_power(a)
    return Fraction(a, 6)


class ResidueBlock(NamedTuple("ResidueBlock", [("beta", Fraction), ("u", Fraction), ("v", Fraction)])):
    """One Jordan block on the representation side: jump beta, eigenvalue
    angle u + vi with u in [0, 1)."""

    __slots__ = ()

    def __new__(cls, beta: Fraction, u: Fraction, v: Fraction) -> ResidueBlock:
        beta, u, v = _exact("beta", beta), _exact("u", u), _exact("v", v)
        if not 0 <= u < 1:
            raise BranchError(f"u must lie in [0, 1), got {u}")
        return super().__new__(cls, beta, u, v)

    _make = classmethod(lambda cls, fields: cls(*fields))


class SideResidue(NamedTuple("SideResidue", [("jump", Fraction), ("eigenvalue", tuple[Fraction, Fraction])])):
    """Residue data on the connection or Higgs side: a jump and an exact
    complex eigenvalue (re, im)."""

    __slots__ = ()

    def __new__(cls, jump: Fraction, eigenvalue: tuple[Fraction, Fraction]) -> SideResidue:
        jump, (re, im) = _exact("jump", jump), eigenvalue
        return super().__new__(cls, jump, (_exact("eigenvalue real part", re), _exact("eigenvalue imaginary part", im)))

    _make = classmethod(lambda cls, fields: cls(*fields))


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
