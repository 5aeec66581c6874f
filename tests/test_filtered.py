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
    SideResidue,
    connection_to_rep,
    frac_part,
    higgs_to_rep,
    rank1_degrees,
    rank1_jump,
    rank1_residue_angle,
    rep_to_connection,
    rep_to_higgs,
)

F = Fraction

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=24)
unit_window = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(
    lambda q: q < 1
)


def one_cusp(*pairs):
    return FilteredJumpData((pairs,))


# --- degrees -------------------------------------------------------------------


def test_degree_rep_examples():
    assert one_cusp((F(7, 3), 1)).degree == F(7, 3)
    assert one_cusp((F(1, 2), 2), (F(-1, 2), 2)).degree == 0
    assert one_cusp((F(5, 6), 1), (F(1, 6), 2)).degree == F(7, 6)


def test_jump_data_refuses_no_cusps():
    with pytest.raises(ValueError, match=r"^need at least one cusp$"):
        FilteredJumpData(())


@pytest.mark.parametrize("cusps", [((),), ((), ())])
def test_jump_data_refuses_a_cusp_with_no_jumps(cusps):
    with pytest.raises(ValueError, match=r"^need at least one jump at every cusp$"):
        FilteredJumpData(cusps)


def test_slope_rep_is_degree_over_dimension():
    data = one_cusp((F(5, 6), 1), (F(1, 6), 2))
    assert data.slope == F(7, 6) / 3


def test_degree_rep_multiple_cusps():
    data = FilteredJumpData((((F(1, 2), 1),), ((F(1, 3), 1),)))
    assert data.degree == F(5, 6)


def test_degree_bundle_examples():
    data = FilteredBundleData(F(-5, 6), 1, one_cusp((F(5, 6), 1)))
    assert data.degree == 0

    plain = FilteredBundleData(F(3), 2, one_cusp((F(0), 2)))
    assert plain.degree == 3

    split = FilteredBundleData(F(0), 2, one_cusp((F(1, 3), 1), (F(2, 3), 1)))
    assert split.degree == 1
    assert split.slope == F(1, 2)


def test_bundle_data_validation():
    with pytest.raises(ValueError):
        FilteredBundleData(F(0), 0, one_cusp((F(0), 1)))
    with pytest.raises(ValueError):
        FilteredBundleData(F(0), 2, one_cusp((F(0), 1)))  # dims sum to 1, rank 2
    with pytest.raises(ValueError):
        FilteredBundleData(F(0), 1, one_cusp((F(3, 2), 1)))  # jump outside [0, 1)
    with pytest.raises(ValueError):
        one_cusp((F(0), 0))  # nonpositive dimension


def test_bundle_data_checks_its_weights_then_its_rank():
    # representation-side jumps are any rationals; the bundle's weights lie in [0, 1)
    assert one_cusp((F(3, 2), 1)).degree == F(3, 2)
    with pytest.raises(ValueError, match=r"^bundle-side jump 3/2 outside \[0, 1\)$"):
        FilteredBundleData(F(0), 0, one_cusp((F(3, 2), 1)))
    with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
        FilteredBundleData(F(0), 0, one_cusp((F(1, 2), 1)))


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
    rep_degree = one_cusp((b, 1)).degree
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
