"""The rational format and the report writer.

Every rational serializes via str(Fraction), i.e. lowest terms with the
denominator omitted when it is 1.  Each subcommand builds its own report
(see cli); this module writes it.

`pieces` is the one JSON writer: its strings join to json.dumps(obj,
indent=2, allow_nan=False), so a NaN or infinity anywhere in obj raises
ValueError and an object JSON cannot hold raises TypeError, with one rule
the stdlib lacks.  A `Written` value of a top-level dict is a list already
written for that place, and `pieces` passes its `parts` through as they
stand; a `Written` anywhere else is an object JSON cannot hold.  The
command line writes the pieces one by one, never joined, and `dumps(obj)`
is "".join(pieces(obj)).

A list may be written in pieces: `write_items` writes some of its items as
`dumps` would write them inside a list that is a value of the top-level
dict, and `Written(pieces)` keeps such pieces, with the brackets and the
separators between them, as its `parts`.  The sweep writes its violation
records this way, in the worker that finds them: each partition hands
over its chains in (length, roots) order, each with its violations, and
`theorem_items` or `three_term_items` orders and writes them.  A chain's
records sort by (kind, detail as JSON with sorted keys), so numbers
compare as text ("above": 10 before "above": 2), and sorting each chain's
records orders the whole report without a global sort.  Necessity records
all have one shape, so `three_term_items` sorts a chain's violations by
that key's text less the prefix they all share.  It and `int_list_items`
(`enumerate`'s root lists) lay out nothing themselves: for each length
they meet, `write_items` writes one item of zeros and its 0s become %d,
and each item of that length is that template filled with its numbers,
with no record dict.  So `write_items` is the one code that lays out an
item, and the stdlib's pure-Python encoder, which json.dumps uses
whenever indent is set, runs once per length, not once per item.
"""

from __future__ import annotations

import functools
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: imported where used, so a sweep never loads it
    from fractions import Fraction


def format_rational(q: Fraction) -> str:
    from fractions import Fraction
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    from fractions import Fraction
    return Fraction(text.strip())


# --- the report writer ---------------------------------------------------------

_INDENT = "  "
# newline and indent at each depth: every written list is a value of the
# top-level dict, so it opens at depth 1 and its items sit at depth 2
_LINE = tuple("\n" + _INDENT * depth for depth in range(3))
_SEPARATOR = "," + _LINE[2]  # between the items of such a list


class Written:
    """A list that opens at depth 1, written in pieces, each one as
    `write_items` writes some of its items ("" for none).  Its `parts` join
    to the list's text: "[", the nonempty pieces as they are, not copied,
    with the item separator between them, and "]"."""

    __slots__ = ("parts",)

    def __init__(self, pieces) -> None:
        parts = ["[", _LINE[2]]  # the line of the first item, if any
        for piece in pieces:
            if piece:
                parts += (piece, _SEPARATOR)
        parts[-1:] = (_LINE[1], "]") if len(parts) > 2 else ("]",)  # in place of the last separator
        self.parts = parts


def pieces(obj) -> list[str]:
    """Strings that join to json.dumps(obj, indent=2, allow_nan=False), a
    Written value of a top-level dict given as its parts; see the module
    docstring.  A value JSON cannot hold raises before any is returned."""
    if not isinstance(obj, dict) or Written not in map(type, obj.values()):
        return [json.dumps(obj, indent=2, allow_nan=False)]
    parts = ["{"]
    for key, value in obj.items():
        written = type(value) is Written
        # the entry as json.dumps writes it between "{" and "\n}"; 0 holds a Written's place
        entry = json.dumps({key: 0 if written else value}, indent=2, allow_nan=False)[1:-2]
        parts += (entry[:-1], *value.parts, ",") if written else (entry, ",")
    parts[-1] = "\n}"  # in place of the last separator
    return parts


def dumps(obj) -> str:
    """The text of pieces(obj), joined: for a caller that needs one string."""
    return "".join(pieces(obj))


def write_items(items: list) -> str:
    """The items of a list that opens at depth 1, each written as `dumps`
    writes it there and joined by that list's item separator ("" for none)."""
    if not items:  # as in every theorem-mode partition: no encoder to build
        return ""
    text = json.dumps(items, indent=2, allow_nan=False)[4:-2]  # less "[\n  " and "\n]"
    return text.replace("\n", _LINE[1])


def _templates(zero):
    """n -> write_items([zero(n)]) with every 0 made %d, built once per n.
    No key, kind or indentation holds a 0, so the %d are exactly the
    item's numbers, in the order written: an item of n numbers is its
    length's template % the numbers."""
    return functools.cache(lambda n: write_items([zero(n)]).replace("0", "%d"))


def int_list_items(lists) -> str:
    """write_items(lists) for lists of ints, each filled into its length's
    template (see `_templates`)."""
    template = _templates(lambda n: [0] * n)
    return _SEPARATOR.join([template(len(ints)) % tuple(ints) for ints in lists])


def theorem_items(chains) -> str:
    """write_items of the records {"roots": list(roots), "kind": kind,
    "detail": detail} for each (kind, detail) of each (roots, found) in
    chains, each chain's in report order (see the module docstring)."""
    key = json.JSONEncoder(sort_keys=True).encode
    return write_items([
        {"roots": list(roots), "kind": kind, "detail": detail}
        for roots, found in chains
        for kind, detail in sorted(found, key=lambda pair: (pair[0], key(pair[1])))
    ])


def _three_term_key(v) -> str:
    """A three-term record's report-order key, less the kind and the
    '{"above": ' that all share: its detail as JSON with sorted keys."""
    return f'{v[3]}, "below": {v[2]}, "count": {v[1]}, "height": {v[0]}}}'


def three_term_items(chains) -> str:
    """write_items of the records {"roots": list(roots), "kind":
    "three-term", "detail": v._asdict()} for each v of each (roots,
    violations) in chains, in report order, with no dict per record; a v
    is a 4-tuple in ThreeTermViolation's field order, also `_asdict`'s key
    order.  A record is its roots and v filled into its length's template
    (see `_templates`)."""
    from .chain import ThreeTermViolation  # loaded already: only a sweep calls this

    detail = dict.fromkeys(ThreeTermViolation._fields, 0)
    template = _templates(lambda n: {"roots": [0] * n, "kind": "three-term", "detail": detail})
    items = []
    for roots, violations in chains:
        filled = template(len(roots))
        if len(violations) > 1:
            violations = sorted(violations, key=_three_term_key)
        items += [filled % (*roots, *v) for v in violations]
    return _SEPARATOR.join(items)
