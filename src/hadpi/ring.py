"""Elements of the ring Z[rt2], and the text form of numbers.

An element is a pair (a, b) standing for a + b*rt2.  Exact scalars of
Z[1/rt2] are never boxed one at a time: the package carries them as rows
of such numerators over a shared power of rt2 (see linalg), and this module
only reads and writes the numerators of the matrix dump format.  It also
holds parse_natural, the one reader of the counts in every input format.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class RingError(ValueError):
    """Raised on malformed ring input."""


class RingInt(NamedTuple):
    """a + b*rt2 with arbitrary-precision integer coefficients."""

    a: int
    b: int


def parse_natural(digits: str, what: str, error: type[Exception]) -> int:
    """The count written in digits; raises the caller's error class, naming
    what.  A count is ASCII digits only: int() also takes a sign,
    underscores, spaces and the digits of other scripts."""
    if not (digits.isascii() and digits.isdigit()):
        raise error(f"{what} is not a natural number")
    # int() refuses texts of over 4,300 digits; no count that fits in
    # memory has more than 18
    if len(digits.lstrip("0")) > 18:
        raise error(f"{what} has more than 18 digits")
    return int(digits)


# The most digits either part of a matrix entry may have, read or written:
# int() and str() refuse a longer text by default, with advice a user of
# the command line cannot act on, and an entry is held to it whatever the
# interpreter's setting.
MAX_ENTRY_DIGITS = 4300
_TOO_LONG = f"ring element has a part of more than {MAX_ENTRY_DIGITS} digits (MAX_ENTRY_DIGITS)"
_PAST_DIGITS = 10**MAX_ENTRY_DIGITS  # the least magnitude with one digit more

_RINGINT_RE = re.compile(
    r"""^\s*
    (?:(?P<a>[+-]?[0-9]+)(?!\s*\*|[0-9]))?   # unit part, not followed by '*'
    \s*
    (?:(?P<sb>[+-])?\s*(?:(?P<b>[0-9]+)\s*\*\s*)?(?P<rt>rt2))?
    \s*$""",
    re.VERBOSE,
)


def parse_ringint(text: str) -> RingInt:
    # the UTF-8 radical is accepted on input; rt2 is the canonical ASCII form
    s = text.replace("√2", "rt2").strip()
    m = _RINGINT_RE.match(s)
    if not m or (m.group("a") is None and m.group("rt") is None):
        raise RingError(f"malformed ring element: {text!r}")
    for part in (m.group("a"), m.group("b")):
        if part is not None and len(part.lstrip("+-")) > MAX_ENTRY_DIGITS:
            raise RingError(_TOO_LONG)
    a = int(m.group("a")) if m.group("a") is not None else 0
    if m.group("rt") is None:
        b = 0
    else:
        b = int(m.group("b")) if m.group("b") is not None else 1
        if m.group("sb") == "-":
            b = -b
        if m.group("a") is not None and m.group("sb") is None:
            raise RingError(f"missing sign between parts: {text!r}")
    return RingInt(a, b)


def format_ringint(x: RingInt) -> str:
    a, b = x
    if not (-_PAST_DIGITS < a < _PAST_DIGITS and -_PAST_DIGITS < b < _PAST_DIGITS):
        raise RingError(_TOO_LONG)
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*rt2"
    sign = "+" if b >= 0 else "-"
    return f"{a}{sign}{abs(b)}*rt2"
