"""Filtered degrees, the rank-1 character example, residue translation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from higgs_threeterm.filtered import (
    BranchError,
    FilteredBundleData,
    FilteredJumpData,
    ResidueBlock,
    SideMismatchError,
    SideResidue,
    connection_to_rep,
    filtered_degree_bundle,
    filtered_degree_rep,
    frac_part,
    higgs_to_rep,
    rank1_degrees,
    rank1_jump,
    rank1_residue_angle,
    rep_to_connection,
    rep_to_higgs,
    slope_bundle,
    slope_rep,
)

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=24)
unit_window = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(
    lambda q: q < 1
)


def rep_jumps(*pairs):
    return FilteredJumpData("representation", (pairs,))


def bundle_jumps(*pairs):
    return FilteredJumpData("bundle", (pairs,))


# --- degrees -------------------------------------------------------------------


def test_degree_rep_examples():
    assert filtered_degree_rep(rep_jumps((F(7, 3), 1))) == F(7, 3)
    assert filtered_degree_rep(rep_jumps((F(1, 2), 2), (F(-1, 2), 2))) == 0
    assert filtered_degree_rep(rep_jumps((F(5, 6), 1), (F(1, 6), 2))) == F(7, 6)


def test_degree_rep_wrong_side():
    with pytest.raises(SideMismatchError):
        filtered_degree_rep(bundle_jumps((F(1, 2), 1)))


def test_jump_data_refuses_an_unknown_side_and_no_cusps():
    with pytest.raises(ValueError, match=r"^unknown side 'connection'$"):
        FilteredJumpData("connection", (((F(1, 2), 1),),))
    with pytest.raises(ValueError, match=r"^need at least one cusp$"):
        FilteredJumpData("representation", ())


def test_slope_rep_is_degree_over_dimension():
    data = rep_jumps((F(5, 6), 1), (F(1, 6), 2))
    assert slope_rep(data) == F(7, 6) / 3


def test_degree_rep_multiple_cusps():
    data = FilteredJumpData(
        "representation", (((F(1, 2), 1),), ((F(1, 3), 1),))
    )
    assert filtered_degree_rep(data) == F(5, 6)


def test_degree_bundle_examples():
    data = FilteredBundleData(F(-5, 6), 1, bundle_jumps((F(5, 6), 1)))
    assert filtered_degree_bundle(data) == 0

    plain = FilteredBundleData(F(3), 2, bundle_jumps((F(0), 2)))
    assert filtered_degree_bundle(plain) == 3

    split = FilteredBundleData(F(0), 2, bundle_jumps((F(1, 3), 1), (F(2, 3), 1)))
    assert filtered_degree_bundle(split) == 1
    assert slope_bundle(split) == F(1, 2)


def test_bundle_data_validation():
    with pytest.raises(ValueError):
        FilteredBundleData(F(0), 0, bundle_jumps((F(0), 1)))
    with pytest.raises(ValueError):
        FilteredBundleData(F(0), 2, bundle_jumps((F(0), 1)))  # dims sum to 1, rank 2
    with pytest.raises(ValueError):
        bundle_jumps((F(3, 2), 1))  # jump outside [0, 1)
    with pytest.raises(SideMismatchError):
        FilteredBundleData(F(0), 1, rep_jumps((F(0), 1)))
    with pytest.raises(ValueError):
        rep_jumps((F(0), 0))  # nonpositive dimension


# --- rank-1 character ------------------------------------------------------------


def test_rank1_jump_examples():
    assert rank1_jump(0, F(0)) == 0
    assert rank1_jump(1, F(0)) == F(5, 6)
    assert rank1_jump(2, F(1, 3)) == 0


def test_rank1_degrees_examples():
    assert rank1_degrees(0, F(0)) == (F(0), F(0))
    assert rank1_degrees(1, F(0)) == (F(-5, 6), F(0))
    assert rank1_degrees(3, F(5, 4)) == (F(1, 2), F(5, 4))


def test_rank1_residue_angles():
    assert rank1_residue_angle(0) == 0
    assert rank1_residue_angle(1) == F(1, 6)
    assert rank1_residue_angle(5) == F(5, 6)


def test_rank1_rejects_bad_power():
    for bad in (-1, 6):
        with pytest.raises(ValueError):
            rank1_jump(bad, F(0))
        with pytest.raises(ValueError):
            rank1_degrees(bad, F(0))
        with pytest.raises(ValueError):
            rank1_residue_angle(bad)


@given(st.integers(0, 5), rationals)
def test_rank1_degree_identity(a, b):
    unfiltered, filtered = rank1_degrees(a, b)
    assert filtered == b
    assert unfiltered + rank1_jump(a, b) == b
    assert 0 <= rank1_jump(a, b) < 1


@given(st.integers(0, 5), rationals)
def test_rank1_degree_preservation(a, b):
    # the one-jump representation-side degree equals the filtered degree
    rep_degree = filtered_degree_rep(rep_jumps((b, 1)))
    assert rep_degree == rank1_degrees(a, b)[1]


def test_frac_part():
    assert frac_part(F(-1, 6)) == F(5, 6)
    assert frac_part(F(7, 3)) == F(1, 3)
    assert frac_part(F(2)) == 0


# --- residue translation ----------------------------------------------------------


def test_rep_to_connection_rows():
    assert rep_to_connection(ResidueBlock(F(0), F(0), F(0))) == SideResidue(F(0), (F(0), F(0)))
    assert rep_to_connection(ResidueBlock(F(0), F(1, 6), F(0))) == SideResidue(
        F(1, 6), (F(-1, 6), F(0))
    )
    assert rep_to_connection(ResidueBlock(F(1, 2), F(1, 3), F(1))) == SideResidue(
        F(5, 6), (F(-1, 3), F(-1))
    )


def test_rep_to_higgs_rows():
    assert rep_to_higgs(ResidueBlock(F(0), F(0), F(0))) == SideResidue(F(0), (F(0), F(0)))
    # unitary block, nontrivial jump: the Higgs side still moves
    assert rep_to_higgs(ResidueBlock(F(0), F(1, 6), F(0))) == SideResidue(
        F(-1, 6), (F(0), F(0))
    )
    assert rep_to_higgs(ResidueBlock(F(1, 2), F(1, 3), F(1))) == SideResidue(
        F(-1, 3), (F(-1, 4), F(-1, 2))
    )


def test_inverse_examples():
    assert connection_to_rep(SideResidue(F(1, 6), (F(-1, 6), F(0)))) == ResidueBlock(
        F(0), F(1, 6), F(0)
    )
    assert higgs_to_rep(SideResidue(F(-1, 3), (F(-1, 4), F(-1, 2)))) == ResidueBlock(
        F(1, 2), F(1, 3), F(1)
    )


def test_round_trip_single_example():
    block = ResidueBlock(F(1, 2), F(1, 3), F(1))
    assert connection_to_rep(rep_to_connection(block)) == block
    assert higgs_to_rep(rep_to_higgs(block)) == block


@given(rationals, unit_window, rationals)
def test_round_trips_exact(beta, u, v):
    block = ResidueBlock(beta, u, v)
    assert connection_to_rep(rep_to_connection(block)) == block
    assert higgs_to_rep(rep_to_higgs(block)) == block


def test_branch_errors():
    with pytest.raises(BranchError):
        ResidueBlock(F(0), F(3, 2), F(0))
    with pytest.raises(BranchError):
        connection_to_rep(SideResidue(F(0), (F(1, 2), F(0))))  # -re < 0
    with pytest.raises(BranchError):
        connection_to_rep(SideResidue(F(0), (F(-3, 2), F(0))))  # -re >= 1
    with pytest.raises(BranchError):
        higgs_to_rep(SideResidue(F(1, 2), (F(0), F(0))))  # -jump < 0
    with pytest.raises(BranchError):
        higgs_to_rep(SideResidue(F(-1), (F(0), F(0))))  # -jump >= 1
