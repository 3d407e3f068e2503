"""Rational points on the ellipse x^2 + D*y^2 = m by chord parametrization.

Given one rational base point, every other rational point is the second
intersection of a rational-slope line through it; enumerating slopes in
lowest terms therefore enumerates points. All arithmetic is exact and every
returned point satisfies its conic equation with zero residual.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional

from .errors import PointNotOnConic, ZeroSlopePair
from .exact_linalg import rat

INFINITY_SLOPE: Optional[Fraction] = None  # `None` plays the role of s = infinity


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

    def residual(self, p: ConicPoint) -> Fraction:
        return p.x * p.x + self.D * p.y * p.y - self.m


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


def second_intersection(
    c: Conic, p0: ConicPoint, slope: Optional[int | str | Fraction]
) -> ConicPoint:
    """The other intersection of the conic with the line through p0 of the
    given slope (None = vertical); the tangent line returns p0 itself.

    The point, and the check that p0 is on the conic, are computed in int.
    With p0 = (X, Y)/m, D = Dn/Dd and the slope a/b in lowest terms, the
    line is p0 + tau (b, a), and tau ((b^2 + D a^2) tau + 2(b x0 + D a y0))
    = 0 gives the other root, so the point is (X w - 2 b u, Y w - 2 a u) /
    (m w) with u = Dd b X + Dn a Y and w = Dd b^2 + Dn a^2 (w > 0 as
    D > 0).  Two lines through p0 meet the conic again in two different
    points, so distinct slopes give distinct points."""
    x0, y0 = p0.x, p0.y
    m = lcm(x0.denominator, y0.denominator)
    big_x = x0.numerator * (m // x0.denominator)
    big_y = y0.numerator * (m // y0.denominator)
    dn, dd = c.D.numerator, c.D.denominator
    lhs = c.m.denominator * (dd * big_x * big_x + dn * big_y * big_y)
    if lhs != c.m.numerator * dd * m * m:
        raise PointNotOnConic(f"{p0} not on {c}")
    if slope is None:
        return ConicPoint(x0, -y0)
    s = rat(slope)
    a, b = s.numerator, s.denominator
    u = dd * b * big_x + dn * a * big_y
    w = dd * b * b + dn * a * a
    den = m * w
    return ConicPoint(
        Fraction(big_x * w - 2 * b * u, den), Fraction(big_y * w - 2 * a * u, den)
    )


def slopes_up_to(height: int) -> Iterator[Optional[Fraction]]:
    """infinity, then all a/b in lowest terms with |a| <= height, 1 <= b <= height,
    in a fixed deterministic order."""
    yield INFINITY_SLOPE
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if gcd(abs(a), b) == 1:
                yield Fraction(a, b)


def enumerate_points(c: Conic, p0: ConicPoint, height: int) -> list[ConicPoint]:
    """The chord point of every slope up to the given height, in the order
    of slopes_up_to; distinct slopes give distinct points."""
    if height < 1:
        raise ValueError("height >= 1 required")
    return [second_intersection(c, p0, s) for s in slopes_up_to(height)]


def unit_conic_point(s0: int, s1: int) -> ConicPoint:
    """First basis coordinate pair for the d = 3 quadratic A2 family:
    (x1, y1) = (-(s0^2-3s1^2), -2 s0 s1) / (s0^2+3s1^2), on x^2 + 3y^2 = 1.

    s0 = 0 (slope infinity) lands on the base point (1, 0).
    """
    if s0 == 0 and s1 == 0:
        raise ZeroSlopePair("(0, 0) is not a slope")
    den = s0 * s0 + 3 * s1 * s1
    p = ConicPoint(Fraction(-(s0 * s0 - 3 * s1 * s1), den), Fraction(-2 * s0 * s1, den))
    assert Conic(3, 1).contains(p)
    return p
