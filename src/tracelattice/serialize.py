"""JSON conventions shared by the command-line tools.

Rationals travel as strings "p/q" ("p" when the denominator is 1), matrices
as row-major nested arrays of those strings, and canonical dumps sort keys
with fixed separators so the same document always produces the same bytes.
An array document (a list or an iterator, such as the members of a sweep)
is encoded one element at a time into a list of parts, each element on its
own between "[", "," and "]\n": with compact separators their join is the
bytes of encoding the whole array, and at most one element's document is
being built at a time.  The command line writes those parts in batches
and never joins them whole; dumps_canonical is their join.
A number past the interpreter's limit on int-to-str conversion (4,300
digits by default) is not written: its conversion raises TooLarge.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Optional

from .errors import DivisionByZero, TooLarge
from .exact_linalg import Matrix

if TYPE_CHECKING:
    from .a3_factory import ConicPoint
    from .lattice_core import TraceLattice


def _too_large() -> TooLarge:
    """Raised in place of the ValueError of str(int) past the interpreter's
    digit limit, which stays as it is: it is a safety check."""
    return TooLarge(
        f"an output number has more than {sys.get_int_max_str_digits()} digits"
    )


def rational_str(x) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        raise _too_large() from None


def matrix_json(m: Matrix) -> list[list[str]]:
    """Entries as rational strings, read off the integer rows with no
    Fraction: entry x / den is written "p/q" with g = gcd(x, den), p = x/g
    and q = den/g, or "p" when q is 1, the bytes str(Fraction) gives."""
    den = m.den
    try:
        if den == 1:
            return [[str(x) for x in row] for row in m.ints]
        return [[_ratio_str(x, den) for x in row] for row in m.ints]
    except ValueError:
        raise _too_large() from None


def _ratio_str(x: int, den: int) -> str:
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def point_json(p: ConicPoint) -> dict:
    return {"x": rational_str(p.x), "y": rational_str(p.y)}


def lattice_json(L: TraceLattice) -> dict:
    doc = {
        "ambient": L.ambient.descriptor(),
        "basis": matrix_json(L.basis),
        "gram": matrix_json(L.gram),
    }
    if L.type_tag is not None:
        doc["type"] = L.type_tag
    return doc


def hnf_json(L: TraceLattice) -> dict:
    """Canonical identity of the lattice: clearing scale plus integer HNF rows."""
    from .lattice_core import canonical_key

    key = canonical_key(L)
    return {"scale": key.den, "rows": [list(r) for r in key.ints]}


def member_json(member) -> dict:
    """One family member: the lattice fields plus its provenance in the sweep."""
    doc = lattice_json(member.lattice)
    doc["hnf"] = hnf_json(member.lattice)
    doc["lambda"] = [rational_str(c) for c in member.lam]
    doc["point"] = point_json(member.point)
    doc["slope"] = "inf" if member.slope is None else rational_str(member.slope)
    return doc


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode(doc) -> str:
    try:
        return _ENCODER.encode(doc)
    except ValueError:  # an int in the document, such as a discriminant
        raise _too_large() from None


def canonical_parts(doc) -> list[str]:
    """The canonical text of doc plus a newline, as parts whose join is
    dumps_canonical(doc).  A list or an iterator is encoded item by item,
    each element its own part between "[", "," and "]\n" parts, so an
    iterator of member documents is never held whole; a dict or a scalar
    (a str too) is one part, encoded in one call."""
    if not isinstance(doc, (list, Iterator)):
        return [_encode(doc) + "\n"]
    parts = []
    for item in doc:
        parts += (",", _encode(item))
    parts[:1] = ["["]  # the first "," becomes the "[", or "[" is all
    parts.append("]\n")
    return parts


def dumps_canonical(doc) -> str:
    """The canonical bytes of doc plus a newline: the join of
    canonical_parts(doc)."""
    return "".join(canonical_parts(doc))


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

_RATIONAL_TOKEN = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Strict "p/q" or integer literal; errors name the offending position."""
    m = _RATIONAL_TOKEN.match(text)
    if m is None or m.end() != len(text):
        pos = m.end() if m is not None else 0
        raise ValueError(
            f"invalid rational {text!r}: unexpected character at position {pos}"
        )
    _, sep, den = text.partition("/")
    if sep and int(den) == 0:
        raise ValueError(f"invalid rational {text!r}: zero denominator")
    return Fraction(text)


def parse_gram(text: str) -> Matrix:
    """A symmetric matrix from a JSON literal; entries integers or "p/q"
    strings."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid gram matrix: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("invalid gram matrix: expected a non-empty array of rows")
    n = len(raw)
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(
                f"invalid gram matrix: row {i} is not an array of length {n}"
            )
        parsed = []
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise ValueError(
                    f"invalid gram matrix: entry ({i},{j}) must be an integer "
                    f'or "p/q" string, got {entry!r}'
                )
            try:
                parsed.append(
                    Fraction(entry) if isinstance(entry, int) else parse_rational(entry)
                )
            except ValueError as exc:
                raise ValueError(f"invalid gram matrix at entry ({i},{j}): {exc}")
        rows.append(parsed)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(
                    f"invalid gram matrix: not symmetric at entries ({j},{i}) "
                    f"and ({i},{j})"
                )
    return Matrix(rows)


# ---------------------------------------------------------------------------
# generator expressions
# ---------------------------------------------------------------------------

_GEN_TOKEN = re.compile(r"\s*(\*\*|\d+|[z+\-*/^()])")


class _GenParser:
    """Recursive descent over +, -, *, /, ^ (or **), parentheses, integers,
    and the root-of-unity symbol z; values are coordinate vectors of the
    supplied cyclotomic field, with division through exact field inversion."""

    def __init__(self, field, text: str):
        self.field = field
        self.text = text
        self.pos = 0

    def _error(self, msg: str):
        raise ValueError(
            f"invalid generator {self.text!r}: {msg} at position {self.pos}"
        )

    def _peek(self) -> Optional[str]:
        m = _GEN_TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def _next(self) -> Optional[str]:
        m = _GEN_TOKEN.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(1)

    def parse(self):
        value = self._sum()
        rest = self.text[self.pos :].strip()
        if rest:
            self._error(f"unexpected {rest[0]!r}")
        return value

    def _sum(self):
        value = self._product()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._product()
            if op == "+":
                value = tuple(a + b for a, b in zip(value, rhs))
            else:
                value = tuple(a - b for a, b in zip(value, rhs))
        return value

    def _product(self):
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            if op == "*":
                value = self.field.mul_coords(value, rhs)
            else:
                if not any(rhs):
                    self._error("division by zero")
                value = self.field.mul_coords(value, self.field.inv_coords(rhs))
        return value

    def _factor(self):
        tok = self._peek()
        if tok == "-":
            self._next()
            return tuple(-c for c in self._factor())
        if tok == "+":
            self._next()
            return self._factor()
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek() in ("^", "**"):
            self._next()
            sign = 1
            while self._peek() in ("+", "-"):
                if self._next() == "-":
                    sign = -sign
            tok = self._next()
            if tok is None or not tok.isdigit():
                self._error("expected an integer exponent")
            exponent = sign * int(tok)
            try:
                return self.field.pow_coords(base, exponent)
            except DivisionByZero:
                self._error("zero raised to a negative power")
        return base

    def _atom(self):
        tok = self._next()
        if tok is None:
            self._error("expected a value")
        if tok == "(":
            value = self._sum()
            if self._next() != ")":
                self._error("expected ')'")
            return value
        if tok == "z":
            return self.field.zeta()
        if tok.isdigit():
            coords = [Fraction(int(tok))] + [Fraction(0)] * (self.field.phi - 1)
            return tuple(coords)
        self._error(f"unexpected {tok!r}")


def parse_generator(field, text: str):
    """Evaluate a generator expression like "(1-z)^-2" in the given field."""
    return _GenParser(field, text).parse()
