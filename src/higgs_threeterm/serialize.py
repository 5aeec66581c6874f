"""JSON-facing builders: rationals as "p/q" strings, reports with stable key order.

Every rational serializes via str(Fraction), i.e. lowest terms with the
denominator omitted when it is 1; exact complex values serialize as
{"re": "p/q", "im": "p/q"}.  Report dictionaries are built in a fixed key
order so equal inputs produce byte-identical JSON.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import (
    MultiplicityProfile,
    RootSequence,
    StabilityReport,
    is_admissible,
    multiplicities,
    tail_slopes,
    three_term_holds,
)
from .filtered import ResidueBlock, SideResidue
from .pairing import MatchingCertificate


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def complex_pair_json(value: tuple[Fraction, Fraction]) -> dict:
    re, im = value
    return {"re": format_rational(re), "im": format_rational(im)}


def profile_json(profile: MultiplicityProfile) -> dict[str, int]:
    return {str(r): profile[r] for r in profile.heights()}


def stability_json(report: StabilityReport) -> dict:
    return {
        "total_slope": format_rational(report.total_slope),
        "tail_slopes": [format_rational(mu) for mu in report.tail_slopes],
        "verdict": report.verdict,
    }


def check_report(seq: RootSequence) -> dict:
    """The full informational report for one chain."""
    admissible, _ = is_admissible(seq)
    profile = multiplicities(seq)
    holds, violations = three_term_holds(profile.counts)
    return {
        "roots": list(seq.roots),
        "admissible": admissible,
        "stability": stability_json(tail_slopes(seq.roots)),
        "multiplicities": profile_json(profile),
        "three_term": {
            "holds": holds,
            "violations": [v._asdict() for v in violations],
        },
    }


def certificate_json(cert: MatchingCertificate) -> dict:
    return {
        "height": cert.height,
        "pairs": [
            {"source": p.source, "target": p.target, "label": p.label.value}
            for p in cert.pairs
        ],
    }


def residue_block_json(block: ResidueBlock) -> dict:
    return {
        "beta": format_rational(block.beta),
        "u": format_rational(block.u),
        "v": format_rational(block.v),
    }


def side_residue_json(data: SideResidue) -> dict:
    return {
        "jump": format_rational(data.jump),
        "eigenvalue": complex_pair_json(data.eigenvalue),
    }
