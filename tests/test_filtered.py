"""Filtered degrees, the rank-1 character example, residue translation."""

import copy
import pickle
import re
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


NOT_INTS = [2.5, 2.0, -2.0, True, False, F(2)]  # -2.0: the type is checked before the sign


@pytest.mark.parametrize("dim", NOT_INTS)
def test_jump_data_refuses_a_dimension_that_is_not_an_int(dim):
    # a dimension is exact: a float or a bool is refused, not converted
    with pytest.raises(ValueError, match=f"^{re.escape(f'graded dimensions must be integers, got {dim!r}')}$"):
        one_cusp((F(1, 2), dim))


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


@pytest.mark.parametrize("rank", NOT_INTS)
def test_bundle_data_refuses_a_rank_that_is_not_an_int(rank):
    # a float rank would make the slope a float, which format_rational writes like a rational
    with pytest.raises(ValueError, match=f"^{re.escape(f'rank must be an integer, got {rank!r}')}$"):
        FilteredBundleData(F(0), rank, one_cusp((F(0), 2)))


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


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, F(2)])
def test_rank1_refuses_a_power_that_is_not_an_int(bad):
    # True read as 1 (a jump of 5/6), and 2.0 failed inside Fraction with a TypeError
    for call in (lambda a: rank1_jump(a, 1), lambda a: rank1_degrees(a, 1), rank1_residue_angle):
        with pytest.raises(ValueError, match=f"^{re.escape(f'character power must be an integer, got {bad!r}')}$"):
            call(bad)


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


# --- exact input ------------------------------------------------------------------

# each entry point of the exact calculus: (the field its refusal names, a call
# with the value in that field)
EXACT_INPUTS = {
    "jump-data": ("jump", lambda x: one_cusp((x, 1))),
    "bundle-base-degree": ("base_degree", lambda x: FilteredBundleData(x, 1, one_cusp((F(0), 1)))),
    "rank1-jump": ("b", lambda x: rank1_jump(1, x)),
    "rank1-degrees": ("b", lambda x: rank1_degrees(1, x)),
    "block-beta": ("beta", lambda x: ResidueBlock(x, F(0), F(0))),
    "block-u": ("u", lambda x: ResidueBlock(F(0), x, F(0))),
    "block-v": ("v", lambda x: ResidueBlock(F(0), F(0), x)),
    "side-jump": ("jump", lambda x: SideResidue(x, (F(0), F(0)))),
    "side-re": ("eigenvalue real part", lambda x: SideResidue(F(0), (x, F(0)))),
    "side-im": ("eigenvalue imaginary part", lambda x: SideResidue(F(0), (F(0), x))),
}


@pytest.mark.parametrize("value", [0.1, 0.5, True])
@pytest.mark.parametrize("entry", list(EXACT_INPUTS))
def test_exact_calculus_takes_only_an_int_or_a_fraction(entry, value):
    # a float entered as its binary fraction (0.1 as 3602879701896397/36028797018963968)
    # and a bool as 0 or 1; each is refused by type, before any range check
    field, build = EXACT_INPUTS[entry]
    build(0), build(F(1, 2))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be an int or a Fraction, got {value!r}')}$"):
        build(value)


# --- the records are checked named tuples ------------------------------------------

# each record built well: (record, a field, a value the constructor refuses there, its error, its message)
RECORDS = {
    "jump-data": (one_cusp((F(1, 2), 2)), "cusps", ((),), ValueError, "need at least one jump at every cusp"),
    "bundle": (
        FilteredBundleData(F(1), 2, one_cusp((F(1, 2), 2))), "rank", 3, ValueError, "jump dimensions sum to 2, rank is 3"
    ),
    "block": (ResidueBlock(F(1, 2), F(1, 3), F(1)), "u", 5, BranchError, "u must lie in [0, 1), got 5"),
    "side": (SideResidue(F(1, 6), (F(-1, 6), F(0))), "jump", 0.5, ValueError, "jump must be an int or a Fraction, got 0.5"),
}


@pytest.mark.parametrize("entry", list(RECORDS))
def test_a_record_is_a_tuple_that_copies_and_pickles_as_itself(entry):
    record = RECORDS[entry][0]
    assert isinstance(record, tuple) and record == tuple(record) and hash(record) == hash(tuple(record))
    for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(back) is type(record) and back == record
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], F(0))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("entry", list(RECORDS))
def test_replace_and_make_run_the_records_checks(entry):
    # a named tuple's own _make is tuple.__new__, which would build the record unchecked
    record, field, bad, error, message = RECORDS[entry]
    assert record._replace() == record and type(record._make(record)) is type(record)
    fields = [bad if name == field else value for name, value in record._asdict().items()]
    for build in (lambda: record._replace(**{field: bad}), lambda: type(record)._make(fields), lambda: type(record)(*fields)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_a_record_stores_its_rationals_as_fractions():
    block = ResidueBlock(1, 0, 2)
    assert block._asdict() == {"beta": F(1), "u": F(0), "v": F(2)} and all(type(x) is F for x in block)
    side = SideResidue(1, (2, 3))
    assert type(side.jump) is F and all(type(x) is F for x in side.eigenvalue)
    bundle = FilteredBundleData(1, 1, FilteredJumpData((((0, 1),),)))
    assert type(bundle.base_degree) is F and type(bundle.jumps.cusps[0][0][0]) is F
