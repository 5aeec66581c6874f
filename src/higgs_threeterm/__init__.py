"""Verification tools for chain-type nilpotent filtered Higgs bundles.

Exact combinatorics (admissibility, tail-slope stability, the three-term
multiplicity inequality with injective matching certificates, bounded
enumeration), exact filtered-degree and residue-translation calculus, and
floating-point checks of the explicit harmonic metric and its operators.
"""

from .chain import (
    ChainHiggsBundle,
    MalformedSequenceError,
    MultiplicityProfile,
    RootSequence,
    StabilityReport,
    ThreeTermViolation,
    enumerate_chains,
    hitchin_invariants,
    is_admissible,
    multiplicities,
    tail_slopes,
    three_term_holds,
    weight_has_nonzero_form,
)
from .filtered import (
    BranchError,
    FilteredBundleData,
    FilteredJumpData,
    ResidueBlock,
    SideMismatchError,
    SideResidue,
    connection_to_rep,
    filtered_degree_bundle,
    filtered_degree_rep,
    higgs_to_rep,
    rank1_degrees,
    rank1_jump,
    rank1_residue_angle,
    rep_to_connection,
    rep_to_higgs,
    slope_bundle,
    slope_rep,
)
from .pairing import (
    HypothesisViolationError,
    MatchedPair,
    MatchingCertificate,
    PairingFailure,
    Region,
    RegionKind,
    build_matching,
    certified_heights,
    classify_regions,
    verify_certificate,
)
from .sweep import MODE_NECESSITY, MODE_THEOREM, SweepParams, run_sweep

__version__ = "0.1.0"
