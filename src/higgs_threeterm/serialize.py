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
command line writes the pieces as `strings` gives them, in chunks of at
most CHUNK characters, never joined, and `dumps(obj)` joins them.

A list may be written in pieces: `write_items` writes some of its items as
`dumps` would write them inside a list that is a value of the top-level
dict, and `Written(pieces)` keeps such pieces, with the brackets and the
separators between them, as its `parts`.  The sweep writes its violation
records this way, in the process that finds them, chain by chain in
(length, roots) order; a piece a forked worker wrote stays in its spill
file (pool.Spilled), and `strings` reads it back in chunks.  A chain's
records sort by (kind, detail as JSON with sorted keys), so numbers
compare as text ("above": 10 before "above": 2), and sorting each
chain's records orders the whole report without a global sort.  A
theorem partition hands its chains, each with its violations, to
`theorem_items` when it ends.  A necessity partition gathers the numbers
of each witness's records as the walk hands the witness over, in report
order: the records all have one shape, so `three_term_order` sorts a
chain's violations by that key's text less the prefix they all share
(the partition calls it only for a witness with two or more), and
`three_term_items` then writes each length's records at once.  It and
`int_list_items` (`enumerate`'s root lists) lay out nothing themselves:
for each length they meet, `write_items` writes one item of zeros and
its 0s become %d (`_template`), and each item of that length is that
template filled with its numbers, with no record dict;
`three_term_items` fills the templates of all of a length's records,
joined, in one format.  So `write_items` is the one code that lays out
an item, and the stdlib's pure-Python encoder, which json.dumps uses
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
ITEM_SEPARATOR = "," + _LINE[2]  # between the items of such a list


CHUNK = 1 << 20  # the most characters of text `strings` gives in one string


def strings(parts):
    """The text of `parts` in strings of at most CHUNK characters, a short
    string given as it is: a longer one is sliced, and a piece that is not
    a string (a sweep's spilled text) gives its own chunks, so that whoever
    writes them encodes a bounded piece at a time."""
    for part in parts:
        if type(part) is not str:
            yield from part.chunks()
        elif len(part) <= CHUNK:
            yield part
        else:
            yield from (part[start : start + CHUNK] for start in range(0, len(part), CHUNK))


class Written:
    """A list that opens at depth 1, written in pieces, each one as
    `write_items` writes some of its items ("" for none), as a string or
    as a sweep's spilled text.  Its `parts` are the list's text: "[", the nonempty
    pieces as they are, not copied, with the item separator between them,
    and "]"."""

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
    return "".join(strings(pieces(obj)))


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


def three_term_order(violations) -> list:
    """violations, 4-tuples in ThreeTermViolation's field order, sorted
    into report order (see the module docstring)."""
    return sorted(violations, key=_three_term_key)


@functools.cache
def _three_term_template(n: int) -> str:
    """The template (see _template) of a three-term record of n roots."""
    from .chain import ThreeTermViolation  # loaded already: only a sweep calls this

    return _template({"roots": [0] * n, "kind": "three-term", "detail": dict.fromkeys(ThreeTermViolation._fields, 0)})


def three_term_items(n: int, numbers: list[int]) -> str:
    """write_items of three-term records of n roots, given their numbers:
    each record's roots, then its detail in ThreeTermViolation's field
    order, `_asdict`'s key order too, one record after another.  They fill
    the records' templates, joined, in one format, with no dict or string
    per record."""
    count = len(numbers) // (n + 4)
    return ITEM_SEPARATOR.join([_three_term_template(n)] * count) % tuple(numbers)
