"""JSON-facing builders and the report writer.

Every rational serializes via str(Fraction), i.e. lowest terms with the
denominator omitted when it is 1; exact complex values serialize as
{"re": "p/q", "im": "p/q"}.  Report dictionaries are built in a fixed key
order so equal inputs produce byte-identical JSON.

`dumps` is the one JSON writer of the command line.  Its contract: it
returns exactly the text of json.dumps(obj, indent=2, allow_nan=False),
and a NaN or infinity anywhere in obj raises ValueError (an object JSON
cannot hold raises TypeError, as json.dumps does).  The stdlib runs its
pure-Python encoder whenever indent is set; `dumps` instead hands each
flat container (one that holds only scalars) to the C encoder in one
call, with the item separator carrying the newline and the indent of
its depth, and only walks the containers above those in Python.  The
object must be a tree: a container that holds itself recurses without
end instead of raising json's "Circular reference detected".

A list may also be written in pieces: `write_items` writes some of its
items as `dumps` would write them inside it, and `join_items` joins such
pieces into the list's text, held by a `Written` that `dumps` copies as it
stands.  The sweep writes its violation records this way, in the worker
that finds them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import TYPE_CHECKING

from .chain import (
    MultiplicityProfile,
    RootSequence,
    StabilityReport,
    is_admissible,
    multiplicities,
    tail_slopes,
    three_term_holds,
)

if TYPE_CHECKING:  # annotations only: filtered loads just for its own subcommands
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


# --- the report writer ---------------------------------------------------------

_INDENT = "  "
_SCALARS = frozenset((str, int, float, bool, type(None)))


class Written:
    """JSON text already written for the place it takes in a report;
    `dumps` copies `text` as it stands.  It holds the text rather than
    being a str, so a report of megabytes is not copied to make one."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


_NESTED = (dict, list, tuple, Written)  # what keeps a container off the flat path


def _not_serializable(obj):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


@functools.cache
def _level(depth: int) -> tuple:
    """(C encoder, item separator, newline + item indent, newline + closing
    indent) for a container that opens at `depth` and whose items sit at
    depth + 1."""
    inner = "\n" + _INDENT * (depth + 1)
    separator = "," + inner
    encode = c_make_encoder(
        None, _not_serializable, encode_basestring_ascii, None, ": ", separator, False, False, False
    )
    return encode, separator, inner, "\n" + _INDENT * depth


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return '"' + _write(key, 0) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(obj, depth: int) -> str:
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    elif type(obj) is str:
        return encode_basestring_ascii(obj)
    elif type(obj) is Written:
        return obj.text
    else:
        return "".join(_level(depth)[0](obj, 0))
    if not obj:
        return "{}" if values is not obj else "[]"
    encode, separator, inner, outer = _level(depth)
    # the type test runs in C and settles most containers; subclasses fall through
    if _SCALARS.issuperset(map(type, values)) or not any(
        isinstance(v, _NESTED) for v in values
    ):
        text = "".join(encode(obj, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if values is obj:
        body = separator.join([_write(v, depth + 1) for v in obj])
        return "".join(("[", inner, body, outer, "]"))  # one copy of a long body
    body = separator.join([_key(k) + ": " + _write(v, depth + 1) for k, v in obj.items()])
    return "".join(("{", inner, body, outer, "}"))


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte; see the module docstring."""
    return _write(obj, 0)


def write_items(items, depth: int) -> str:
    """The items of a list that opens at `depth`, each written as `dumps`
    writes it there and joined by that list's item separator ("" for none)."""
    return _level(depth)[1].join([_write(item, depth + 1) for item in items])


def join_items(pieces, depth: int) -> Written:
    """The list that opens at `depth` and holds, in order, the items of each
    piece `write_items` wrote for it: exactly the text `dumps` gives it."""
    _, separator, inner, outer = _level(depth)
    parts = ["[", inner]
    for piece in pieces:
        if piece:
            parts += (piece, separator)
    if len(parts) == 2:
        return Written("[]")
    parts[-1] = outer  # in place of the last separator
    parts.append("]")
    return Written("".join(parts))  # one join: the text is copied once, not twice
