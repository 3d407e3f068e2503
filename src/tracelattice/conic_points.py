"""Rational points on the ellipse x^2 + D*y^2 = m by chord parametrization.

Given one rational base point, every other rational point is the second
intersection of a rational-slope line through it; enumerating slopes in
lowest terms therefore enumerates points. A sweep checks the base point on
the conic once, in integers (_chord_base), and takes the chord point of each
slope (_slope_pairs) as integers over one denominator (_chord_ints); all
arithmetic is exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional

from .errors import PointNotOnConic
from .exact_linalg import rat

INFINITY_SLOPE: Optional[tuple[int, int]] = None  # `None` plays the role of s = infinity


class ConicPoint:
    """A rational point (x, y); the conic it lives on is supplied by context."""

    __slots__ = ("x", "y")

    def __init__(self, x: int | str | Fraction, y: int | str | Fraction):
        object.__setattr__(self, "x", rat(x))
        object.__setattr__(self, "y", rat(y))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ConicPoint is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConicPoint) and self.x == other.x and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"ConicPoint({self.x}, {self.y})"

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


class Conic:
    """x^2 + D*y^2 = m with D, m > 0 (an ellipse: bounded, finitely many
    points of any bounded height)."""

    __slots__ = ("D", "m")

    def __init__(self, D: int | str | Fraction, m: int | str | Fraction):
        D, m = rat(D), rat(m)
        if D <= 0 or m <= 0:
            raise ValueError("need D > 0 and m > 0")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Conic is immutable")

    def __repr__(self) -> str:
        return f"Conic(x^2 + {self.D}*y^2 = {self.m})"

    def contains(self, p: ConicPoint) -> bool:
        return p.x * p.x + self.D * p.y * p.y == self.m


def delta_conic(t: int | str | Fraction) -> Conic:
    """The Lemma-4.4 conic for the A3 and self-dual presets: x^2+3y^2 = delta_t."""
    t = rat(t)
    return Conic(3, t * t + 3 * t + 9)


def base_point_delta(t: int | str | Fraction) -> ConicPoint:
    """(t+3/2, 3/2) lies on x^2+3y^2 = delta_t: (t+3/2)^2 + 27/4 = t^2+3t+9."""
    t = rat(t)
    p = ConicPoint(t + Fraction(3, 2), Fraction(3, 2))
    assert delta_conic(t).contains(p)
    return p


def _chord_base(c: Conic, p0: ConicPoint) -> tuple[int, int, int, int, int]:
    """(X, Y, m, Dn, Dd) with p0 = (X, Y)/m and D = Dn/Dd, after checking in
    int that p0 is on the conic; raises PointNotOnConic when it is not."""
    x0, y0 = p0.x, p0.y
    m = lcm(x0.denominator, y0.denominator)
    big_x = x0.numerator * (m // x0.denominator)
    big_y = y0.numerator * (m // y0.denominator)
    dn, dd = c.D.numerator, c.D.denominator
    lhs = c.m.denominator * (dd * big_x * big_x + dn * big_y * big_y)
    if lhs != c.m.numerator * dd * m * m:
        raise PointNotOnConic(f"{p0} not on {c}")
    return big_x, big_y, m, dn, dd


def _chord_ints(
    base: tuple[int, int, int, int, int], slope: Optional[tuple[int, int]]
) -> tuple[int, int, int]:
    """(X', Y', M) with (X', Y')/M the other intersection of the conic with
    the line through the base point of _chord_base along the slope a/b
    (None = vertical), M > 0 and not necessarily in lowest terms; the
    tangent line gives the base point itself.

    With p0 = (X, Y)/m, D = Dn/Dd and a/b in lowest terms, the line is
    p0 + tau (b, a), and tau ((b^2 + D a^2) tau + 2(b x0 + D a y0)) = 0
    gives the other root, so the point is (X w - 2 b u, Y w - 2 a u) / (m w)
    with u = Dd b X + Dn a Y and w = Dd b^2 + Dn a^2 (w > 0 as D > 0).  Two
    lines through p0 meet the conic again in two different points, so
    distinct slopes give distinct points."""
    big_x, big_y, m, dn, dd = base
    if slope is None:
        return big_x, -big_y, m
    a, b = slope
    u = dd * b * big_x + dn * a * big_y
    w = dd * b * b + dn * a * a
    return big_x * w - 2 * b * u, big_y * w - 2 * a * u, m * w


def _slope_pairs(height: int) -> Iterator[Optional[tuple[int, int]]]:
    """INFINITY_SLOPE (None, the vertical line), then the pairs (a, b) of
    all a/b in lowest terms with |a| <= height, 1 <= b <= height, in a fixed
    deterministic order."""
    yield INFINITY_SLOPE
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if gcd(abs(a), b) == 1:
                yield (a, b)
