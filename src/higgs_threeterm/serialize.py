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
records this way, in the worker that finds them, chain by chain in
(length, roots) order.  A chain's records sort by (kind, detail as JSON
with sorted keys), so numbers compare as text ("above": 10 before
"above": 2), and sorting each chain's records orders the whole report
without a global sort.  A theorem partition hands its chains, each with
its violations, to `theorem_items` when it ends.  A necessity partition
writes each witness's records as the walk hands the witness over, with
`three_term_writer(n)`, and joins them by ITEM_SEPARATOR; the records
all have one shape, so it sorts a chain's violations by that key's text
less the prefix they all share, and only when there are two or more.
It and `int_list_items` (`enumerate`'s root lists) lay out nothing
themselves: for each length they meet, `write_items` writes one item of
zeros and its 0s become %d (`_template`), and each item of that length
is that template filled with its numbers, with no record dict; a
three-term record fills the part before its detail with the roots, once
per chain, and the detail after it.  So `write_items` is the one code
that lays out an item, and the stdlib's pure-Python encoder, which
json.dumps uses whenever indent is set, runs once per length, not once
per item.
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
ITEM_SEPARATOR = "," + _LINE[2]  # between the items of such a list


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
                parts += (piece, ITEM_SEPARATOR)
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


def _template(item) -> str:
    """write_items([item]) with every 0 made %d.  No key, kind or
    indentation holds a 0, so the %d are exactly the item's numbers, in
    the order written: an item of those numbers is the template % them."""
    return write_items([item]).replace("0", "%d")


def int_list_items(lists) -> str:
    """write_items(lists) for lists of ints, each filled into its length's
    template, built once per length."""
    template = functools.cache(lambda n: _template([0] * n))
    return ITEM_SEPARATOR.join([template(len(ints)) % tuple(ints) for ints in lists])


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


@functools.cache
def three_term_writer(n: int):
    """The writer of a chain of n roots' three-term records: given (roots,
    violations) it returns [write_items([record]) for each record] in
    report order, for the records {"roots": list(roots), "kind":
    "three-term", "detail": v._asdict()} of each v of violations, with no
    dict per record; a v is a 4-tuple in ThreeTermViolation's field
    order, also `_asdict`'s key order.  The template of a record of n
    roots is cut where the detail starts: the roots fill the part before
    it once per chain, and each v the part after."""
    from .chain import ThreeTermViolation  # loaded already: only a sweep calls this

    detail = dict.fromkeys(ThreeTermViolation._fields, 0)
    head, detail_key, tail = _template({"roots": [0] * n, "kind": "three-term", "detail": detail}).partition('"detail": ')

    def write(roots, violations) -> list[str]:
        filled = head % roots + detail_key
        if len(violations) > 1:
            violations = sorted(violations, key=_three_term_key)
        return [filled + tail % v for v in violations]

    return write
