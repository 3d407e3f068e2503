"""A2 lattices in quadratic fields Q(sqrt(+-d)), and their absence.

For both signs the relevant pairing of x1 + y1*sqrt(+-d) against
x2 + y2*sqrt(+-d) is 2(x1 x2 + d y1 y2): conjugation is trivial in the real
field and flips sqrt(-d) in the imaginary one, and the d-term lands with a
plus sign either way.  A basis pair with Gram [[2,-1],[-1,2]] is therefore a
pair of points on x^2 + d y^2 = 1 whose pairing is -1, which exists exactly
when d = 3.  The d = 3 family is parametrized by integer slope pairs through
the unit conic; for other d a bounded exhaustive search certifies emptiness
up to a height.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple, Optional

from ._intfactor import squarefree_kernel
from .conic_points import unit_conic_point
from .errors import ZeroSlopePair
from .exact_linalg import Matrix, rat
from .lattice_core import TraceLattice, canonical_key
from .shanks_field import Coords

F = Fraction

A2_GRAM = Matrix.from_rows([[2, -1], [-1, 2]])


class QuadAmbient:
    """The field Q(sqrt(sign * d)) with d squarefree positive."""

    __slots__ = ("d", "sign", "degree")

    def __init__(self, d: int, sign: int = -1):
        if d < 1 or squarefree_kernel(d) != d:
            raise ValueError(f"d must be a squarefree positive integer, got {d}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 (real) or -1 (imaginary)")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "degree", 2)

    def __setattr__(self, name, value):
        raise AttributeError("QuadAmbient is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, QuadAmbient)
            and (self.d, self.sign) == (other.d, other.sign)
        )

    def __hash__(self):
        return hash(("quad", self.d, self.sign))

    def mul_coords(self, a, b) -> Coords:
        x1, y1 = (rat(v) for v in a)
        x2, y2 = (rat(v) for v in b)
        radicand = self.sign * self.d
        return (x1 * x2 + radicand * y1 * y2, x1 * y2 + x2 * y1)

    def conj_coords(self, a) -> Coords:
        x, y = (rat(v) for v in a)
        if self.sign < 0:
            return (x, -y)
        return (x, y)

    def trace_coords(self, a) -> Fraction:
        return 2 * rat(a[0])

    def galois_maps(self):
        return (lambda coords: (rat(coords[0]), -rat(coords[1])),)

    def descriptor(self):
        return {"kind": "quad", "d": self.d, "sign": self.sign}


def pairing(a, b, ambient: QuadAmbient) -> Fraction:
    """2(a_x b_x + d a_y b_y), the trace of a * conj(b) for either sign."""
    return ambient.trace_coords(ambient.mul_coords(a, ambient.conj_coords(b)))


def _second_point(s0: int, s1: int, branch) -> tuple[Fraction, Fraction]:
    """The completing point (x2, y2) for the slope pair, on either branch.

    y2 solves 12 n^2 y2^2 - 24 n s0 s1 y2 + (n^2 - 4(s0^2-3s1^2)^2) = 0,
    the elimination of x2 from the norm equation and the pairing value; the
    discriminant is a perfect square, 144 n^2 (s0^2-3s1^2)^2, so the two
    roots are (2 s0 s1 +- (s0^2 - 3 s1^2)) / (2n) and both branches are
    always rational."""
    n = s0 * s0 + 3 * s1 * s1
    if branch in ("-", -1):
        y2 = F((s0 + 3 * s1) * (s0 - s1), 2 * n)
    elif branch in ("+", 1):
        y2 = F(-(s0 - 3 * s1) * (s0 + s1), 2 * n)
    else:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    x2 = -(12 * s0 * s1 * y2 - n) / (2 * (s0 * s0 - 3 * s1 * s1))
    return (x2, y2)


def a2_from_slopes(s0: int, s1: int, branch="+", sign: int = -1) -> TraceLattice:
    """The A2 lattice of the slope pair: first basis vector from the unit
    conic section, second from the chosen branch of the completing quadratic.

    The two equations x_i^2 + 3 y_i^2 = 1 and the pairing value -1 are
    re-verified exactly, and the Gram must come out [[2,-1],[-1,2]]."""
    if s0 == 0 and s1 == 0:
        raise ZeroSlopePair("need a nonzero slope pair")
    p1 = unit_conic_point(s0, s1)
    x1, y1 = p1.as_pair()
    x2, y2 = _second_point(s0, s1, branch)
    assert x2 * x2 + 3 * y2 * y2 == 1
    ambient = QuadAmbient(3, sign)
    assert pairing((x1, y1), (x2, y2), ambient) == -1
    lattice = TraceLattice.from_rows(ambient, [(x1, y1), (x2, y2)])
    assert lattice.gram == A2_GRAM
    return lattice.with_type("A2")


def normal_a2(sign: int = -1) -> TraceLattice:
    """The unique A2 lattice with a conjugation-orbit basis: rows
    (1/2, 1/2) and (1/2, -1/2) in Q(sqrt(+-3)).

    Uniqueness is re-checked by constrained search: among norm-one points of
    height <= 2, only the four sign choices of (1/2, 1/2) pair to -1 with
    their own conjugate, and they all span this one lattice."""
    ambient = QuadAmbient(3, sign)
    solutions = normal_basis_search(2)
    assert solutions == [
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    ]
    keys = {
        canonical_key(
            TraceLattice.from_rows(ambient, [(x, y), (x, -y)])
        )
        for x, y in solutions
    }
    assert len(keys) == 1
    lattice = TraceLattice.from_rows(ambient, [(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))])
    assert lattice.gram == A2_GRAM
    return lattice.with_type("A2")


def norm_one_points(d: int, height: int) -> list[tuple[Fraction, Fraction]]:
    """All rational (x, y) with x^2 + d y^2 = 1 and both heights <= height.

    Complete: x = a/m in lowest terms has |a| <= m <= height, and y is then
    determined up to sign with denominator dividing m, so scanning the (a, m)
    grid covers every solution of bounded height."""
    if d < 1 or squarefree_kernel(d) != d:
        raise ValueError(f"d must be a squarefree positive integer, got {d}")
    out = set()
    for m in range(1, height + 1):
        for a in range(-m, m + 1):
            if gcd(a, m) != 1:
                continue
            num = m * m - a * a
            if num % d != 0:
                continue
            k2 = num // d
            k = isqrt(k2)
            if k * k != k2:
                continue
            out.add((F(a, m), F(k, m)))
            out.add((F(a, m), F(-k, m)))
    return sorted(out)


def normal_basis_search(height: int) -> list[tuple[Fraction, Fraction]]:
    """Norm-one points (x, y) of height <= height whose pairing with their
    own conjugate (x, -y) equals -1, i.e. candidates for a conjugation-orbit
    A2 basis in Q(sqrt(+-3))."""
    found = []
    for x, y in norm_one_points(3, height):
        if 2 * (x * x - 3 * y * y) == -1:
            found.append((x, y))
    return found


def falsify_a2(d: int, height: int, sign: int = -1) -> Optional[TraceLattice]:
    """Bounded exhaustive search for an A2 basis in Q(sqrt(+-d)): two
    norm-one points of height <= height with pairing -1.

    The search runs in integers.  Every point from norm_one_points is
    (a/m, k/m) with one denominator m, so for two points (a/m, k/m) and
    (a'/m', k'/m') the pairing 2(x x' + d y y') = -1 is the integer identity

        2(a a' + d k k') = -m m',

    and the points are proportional exactly when a k' = k a'.  The pairs are
    visited in the order of the sorted point list.

    Returns the witness lattice when one exists (so d = 3 yields the normal
    basis at height 2 already), or None when the sweep is empty; by the
    classification that is the expected outcome for every squarefree d != 3."""
    points = norm_one_points(d, height)
    ambient = QuadAmbient(d, sign)
    scaled = [
        (x.numerator, y.numerator * (x.denominator // y.denominator), x.denominator)
        for x, y in points
    ]
    for i, (a, k, m) in enumerate(scaled):
        for j, (a2, k2, m2) in enumerate(scaled[i:], i):
            if 2 * (a * a2 + d * k * k2) != -m * m2:
                continue
            if a * k2 == k * a2:
                continue  # proportional points never span
            lattice = TraceLattice.from_rows(ambient, [points[i], points[j]])
            assert lattice.gram == A2_GRAM
            return lattice.with_type("A2")
    return None


class FamilyCount(NamedTuple):
    count: int
    lattices: list[TraceLattice]


def family_distinctness(height: int, sign: int = -1) -> FamilyCount:
    """Pairwise-distinct A2 lattices over all slope pairs and both branches
    with |s0|, |s1| <= height."""
    seen = {}
    for s0 in range(-height, height + 1):
        for s1 in range(-height, height + 1):
            if (s0, s1) == (0, 0):
                continue
            for branch in ("+", "-"):
                lattice = a2_from_slopes(s0, s1, branch, sign)
                key = canonical_key(lattice)
                if key not in seen:
                    seen[key] = lattice
    members = list(seen.values())
    return FamilyCount(len(members), members)
