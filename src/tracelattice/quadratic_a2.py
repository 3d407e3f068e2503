"""A2 lattices in quadratic fields Q(sqrt(+-d)), and their absence.

For both signs the relevant pairing of x1 + y1*sqrt(+-d) against
x2 + y2*sqrt(+-d) is 2(x1 x2 + d y1 y2): conjugation is trivial in the real
field and flips sqrt(-d) in the imaginary one, and the d-term lands with a
plus sign either way.  A basis pair with Gram [[2,-1],[-1,2]] is therefore a
pair of points on x^2 + d y^2 = 1 whose pairing is -1, which exists exactly
when d = 3.  The A2 lattice is the Eisenstein integers Z[omega] (Conway-
Sloane, SPLAG, ch. 4 sec. 6.1), so the d = 3 family is (z, z omega) for the
norm-one points z, parametrized by integer slope pairs through the unit
conic; for other d a bounded exhaustive search certifies emptiness up to a
height.

The family sweep runs a per-pair integer check, certified build per distinct
key: every slope pair has its basis as integer rows over one denominator,
its two norm equations and its pairing asserted in int, and its lattice
keyed by the HNF of those rows; gram_of and the A2 Gram certificate run
once per distinct lattice, on the basis that is emitted.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

from ._intfactor import squarefree_kernel
from .exact_linalg import Matrix
from .lattice_core import TraceLattice, canonical_key, hnf_span
from .power_basis import PowerBasisField

F = Fraction

A2_GRAM = Matrix.from_rows([[2, -1], [-1, 2]])

#: the largest radicand accepted.  Only factoring tells a squarefree d, and
#: splitting a product of two primes near 10^10 takes Pollard rho up to
#: about 0.2 s (2 vCPU, Python 3.11), 0.9 s near 10^12 and 6 s near 10^13
D_CAP = 10**20


def _check_radicand(d: int) -> None:
    """Raise ValueError unless 1 <= d <= D_CAP and d is squarefree."""
    if d > D_CAP:
        raise ValueError(f"d must be at most 10^20, got {d}")
    if d < 1 or squarefree_kernel(d) != d:
        raise ValueError(f"d must be a squarefree positive integer, got {d}")


class QuadAmbient(PowerBasisField):
    """The field Q(sqrt(sign * d)) with d squarefree positive and not 1 when
    sign = +1 (x^2 - 1 is reducible, so Q x Q and not a field), as a
    PowerBasisField: minimal polynomial x^2 - sign*d, conjugation flipping
    the radical when sign = -1, and the Galois generator flipping it always."""

    __slots__ = ("d", "sign")

    def __init__(self, d: int, sign: int = -1):
        _check_radicand(d)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 (real) or -1 (imaginary)")
        if d == 1 and sign == 1:
            raise ValueError("x^2 - 1 is reducible, so d = 1 needs sign -1")
        flip = (0, -1)
        super().__init__(
            (-sign * d, 0, 1),
            flip if sign < 0 else None,
            (flip,),
            {"kind": "quad", "d": d, "sign": sign},
        )
        self._freeze(d=d, sign=sign)


def _slope_basis(s0: int, s1: int) -> tuple[tuple, int]:
    """The A2 basis (z, z omega) of the slope pair (s0, s1) != (0, 0),
    checked in integers, as its integer rows over one denominator > 0, in
    lowest terms: equal bases give equal pairs, and Matrix.scaled builds the
    basis from the pair.

    With n = s0^2 + 3 s1^2, z = (X, Y)/n = (3 s1^2 - s0^2, -2 s0 s1)/n is
    the unit conic section point, and z omega = (X2, Y2)/(2n) =
    (-X - 3Y, X - Y)/(2n):
    (x, y) -> (-x - 3y, x - y)/2 is multiplication by omega =
    (-1 + sqrt(-3))/2, and for either sign of the field an isometry of the
    pairing 2(x x' + 3 y y').  The lattice is Z[omega] z, the Eisenstein
    integers through z.  X^2 + 3 Y^2 = n^2, X2^2 + 3 Y2^2 = (2n)^2 and
    2(X X2 + 3 Y Y2) = -n (2n) are asserted in int, and together they fix
    the Gram at [[2,-1],[-1,2]]."""
    n = s0 * s0 + 3 * s1 * s1
    x1, y1 = 3 * s1 * s1 - s0 * s0, -2 * s0 * s1
    x2, y2 = -x1 - 3 * y1, x1 - y1
    den = 2 * n
    assert x1 * x1 + 3 * y1 * y1 == n * n
    assert x2 * x2 + 3 * y2 * y2 == den * den
    assert 2 * (x1 * x2 + 3 * y1 * y2) == -n * den
    g = gcd(den, 2 * x1, 2 * y1, x2, y2)
    return ((2 * x1 // g, 2 * y1 // g), (x2 // g, y2 // g)), den // g


def _certified_a2(basis: Matrix, ambient: QuadAmbient) -> TraceLattice:
    """The lattice of the basis in the ambient Q(sqrt(+-3)), its Gram built
    by gram_of and required to be [[2,-1],[-1,2]]."""
    lattice = TraceLattice(ambient, basis)
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


def _norm_one_points(d: int, height: int) -> list[tuple[int, int, int]]:
    """All rational (x, y) with x^2 + d y^2 = 1 and both heights <= height,
    sorted, for a squarefree d its caller has checked, as integer triples
    (a, k, m) for the point (a/m, k/m), m the reduced denominator of x.
    With L the lcm of the m's, x L and y L are integers, and sorting by
    them is sorting by (x, y).

    From the rational parametrization of the conic through (-1, 0): every
    other point lies on the line of slope u/v through it, so it is

        x = (v^2 - d u^2) / n,  y = 2 u v / n,  n = v^2 + d u^2

    for coprime u, v, and v = 0 gives (-1, 0) itself.  Flipping the sign of
    u flips y alone, so u, v >= 0 and both signs of y cover the conic.  The
    height of a point is the reduced denominator m of x (d y^2 = 1 - x^2
    with d squarefree makes y's denominator divide m), and m = n / g with
    g = gcd(v^2 - d u^2, n).  g divides 2 v^2 and 2 d u^2, so with u, v
    coprime and d squarefree it divides 2 gcd(v, d), a divisor of 2d: every
    point of height <= height has n <= 2 d height.  For v >= 1 the same
    divisor is at most 2v, so also n <= 2 v height, that is
    (v - height)^2 + d u^2 <= height^2: u <= height / sqrt(d), and v lies
    within sqrt(height^2 - d u^2) of height.  The pairs (u, v) inside both
    ellipses, O(min(sqrt(d), height / sqrt(d)) height) of them, are all
    there is to enumerate; v = 0 leaves u = 1 alone, the point (-1, 0)."""
    bound = 2 * d * height
    h2 = height * height
    out = [(-1, 0, 1)] if height else []
    for u in range(min(isqrt(bound // d), isqrt(h2 // d)) + 1):
        du2 = d * u * u
        s = isqrt(h2 - du2)
        for v in range(max(1, height - s), min(height + s, isqrt(bound - du2)) + 1):
            if gcd(u, v) != 1:
                continue
            n = v * v + du2
            a = v * v - du2
            g = gcd(a, n)
            m = n // g
            if m > height:
                continue
            # each coprime (u, v) is its own slope, so only y = 0 (u = 0,
            # the point (1, 0)) would repeat a point
            k = 2 * u * v // g
            out.append((a // g, k, m))
            if k:
                out.append((a // g, -k, m))
    big_l = lcm(*[m for _, _, m in out])
    out.sort(key=lambda p: (p[0] * (big_l // p[2]), p[1] * (big_l // p[2])))
    return out


def normal_basis_search(height: int) -> list[tuple[Fraction, Fraction]]:
    """Norm-one points (x, y) of height <= height whose pairing with their
    own conjugate (x, -y) equals -1, i.e. candidates for a conjugation-orbit
    A2 basis in Q(sqrt(+-3)).  For the point (a/m, k/m) of _norm_one_points
    that pairing is the integer identity 2(a^2 - 3k^2) = -m^2."""
    return [
        (F(a, m), F(k, m))
        for a, k, m in _norm_one_points(3, height)
        if 2 * (a * a - 3 * k * k) == -m * m
    ]


def falsify_a2(d: int, height: int, sign: int = -1) -> Optional[TraceLattice]:
    """Bounded exhaustive search for an A2 basis in Q(sqrt(+-d)): two
    norm-one points of height <= height with pairing -1.

    The search runs in integers.  _norm_one_points gives each point as the
    triple (a, k, m) of (a/m, k/m), one denominator m, so for two points
    (a/m, k/m) and (a'/m', k'/m') the pairing 2(x x' + d y y') = -1 is the
    integer identity

        2(a a' + d k k') = -m m',

    and the points are proportional exactly when a k' = k a'.  The pairs are
    visited in the order of the sorted point list, and Fractions are built
    for a witness only.

    Returns the witness lattice when one exists (so d = 3 yields the normal
    basis at height 2 already), or None when the sweep is empty; by the
    classification that is the expected outcome for every squarefree d != 3.
    d is factored once, by the ambient's radicand check."""
    ambient = QuadAmbient(d, sign)
    points = _norm_one_points(d, height)
    for i, (a, k, m) in enumerate(points):
        for a2, k2, m2 in points[i:]:
            if 2 * (a * a2 + d * k * k2) != -m * m2:
                continue
            if a * k2 == k * a2:
                continue  # proportional points never span
            lattice = TraceLattice.from_rows(
                ambient, [(F(a, m), F(k, m)), (F(a2, m2), F(k2, m2))]
            )
            assert lattice.gram == A2_GRAM
            return lattice.with_type("A2")
    return None


def family_distinctness(height: int, sign: int = -1) -> list[TraceLattice]:
    """Pairwise-distinct A2 lattices over all slope pairs with |s0|, |s1| <=
    height, in first-seen order.

    Per-pair integer check, one key per distinct basis, certified build per
    distinct key: every slope pair passes the integer conic and pairing
    checks of _slope_basis, whose integer rows over one denominator in
    lowest terms are canonical.  Equal bases span one lattice, so a basis
    met before is passed over on those integers, and only a new basis
    becomes a Matrix, keyed by its hnf_span; only the first basis of each
    new key builds the certified lattice (gram_of, the A2 Gram)."""
    ambient = QuadAmbient(3, sign)
    seen = {}
    bases = set()
    for s0 in range(-height, height + 1):
        for s1 in range(-height, height + 1):
            if (s0, s1) == (0, 0):
                continue
            scaled = _slope_basis(s0, s1)
            if scaled in bases:
                continue
            bases.add(scaled)
            basis = Matrix.scaled(*scaled)
            key = hnf_span(basis)
            if key not in seen:
                seen[key] = _certified_a2(basis, ambient)
    return list(seen.values())
