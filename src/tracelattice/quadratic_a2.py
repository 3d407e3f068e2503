"""A2 lattices in quadratic fields Q(sqrt(+-d)), and their absence.

For both signs the relevant pairing of x1 + y1*sqrt(+-d) against
x2 + y2*sqrt(+-d) is 2(x1 x2 + d y1 y2): conjugation is trivial in the real
field and flips sqrt(-d) in the imaginary one, and the d-term lands with a
plus sign either way.  A basis pair with Gram [[2,-1],[-1,2]] is therefore a
pair of points on x^2 + d y^2 = 1 whose pairing is -1, which exists exactly
when d = 3.  The A2 lattice is the Eisenstein integers Z[omega] (Conway-
Sloane, SPLAG, ch. 4 sec. 6.1), so the d = 3 family is (z, z omega) for the
norm-one points z, parametrized by integer slope pairs through the unit
conic; for other d the norm identity of falsify_a2 shows that no pair of
norm-one points pairs to -1 at any height, since 3d would be a square, and
for d = 3 the least point (-1, 0) gives its witness in closed form.

The family sweep checks every slope pair in integers and keys its lattice
Z[omega] z by the six units of Z[omega], a principal ideal domain, with no
Hermite form.  The integer identities of _slope_basis fix each Gram at
[[2,-1],[-1,2]] once the field's trace form is diag(2, 6), which the sweep
checks once; each distinct lattice is built on the basis that is emitted.

The lattice layer is imported by the functions that build lattices, so
falsify_a2 off d = 3, which builds none, does not load it.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Iterator, Optional

from ._intfactor import squarefree_kernel
from .exact_linalg import Matrix
from .power_basis import PowerBasisField

if TYPE_CHECKING:
    from .lattice_core import TraceLattice

F = Fraction

A2_GRAM = Matrix.from_rows([[2, -1], [-1, 2]])
#: the trace form of Q(sqrt(+-3)) on the power basis (1, sqrt(+-3)): the
#: pairing 2(x x' + 3 y y') of either sign
_FORM_D3 = Matrix.from_rows([[2, 0], [0, 6]])

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
    lowest terms, from which Matrix.scaled builds the basis.

    With n = s0^2 + 3 s1^2, z = (X, Y)/n = (3 s1^2 - s0^2, -2 s0 s1)/n is
    the unit conic section point, and z omega = (X2, Y2)/(2n) =
    (-X - 3Y, X - Y)/(2n):
    (x, y) -> (-x - 3y, x - y)/2 is multiplication by omega =
    (-1 + sqrt(-3))/2, and for either sign of the field an isometry of the
    pairing 2(x x' + 3 y y').  The lattice is Z[omega] z, the Eisenstein
    integers through z.  X^2 + 3 Y^2 = n^2, X2^2 + 3 Y2^2 = (2n)^2 and
    2(X X2 + 3 Y Y2) = -n (2n) are asserted in int, and together they fix
    the Gram at [[2,-1],[-1,2]] on the trace form diag(2, 6)."""
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
    """The lattice of the basis in the ambient Q(sqrt(+-d)), its Gram built
    by gram_of and required to be [[2,-1],[-1,2]]; the lattice carries the
    one A2_GRAM, not the computed copy."""
    from .lattice_core import TraceLattice, gram_of

    gram = gram_of(basis, ambient)
    assert gram == A2_GRAM
    return TraceLattice(ambient, basis, A2_GRAM, "A2")


def normal_a2(sign: int = -1) -> TraceLattice:
    """The unique A2 lattice with a conjugation-orbit basis: rows
    (1/2, 1/2) and (1/2, -1/2) in Q(sqrt(+-3)).

    A norm-one point (x, y) pairs to -1 with its own conjugate (x, -y) when
    2(x^2 - 3y^2) = -1; with x^2 + 3y^2 = 1 that is x^2 = y^2 = 1/4, so the
    four sign choices of (1/2, 1/2) are all there is, and each presents
    these two rows up to sign and order.  The Gram is computed by gram_of
    and checked."""
    rows = [(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))]
    return _certified_a2(Matrix.from_rows(rows), QuadAmbient(3, sign))


def falsify_a2(d: int, height: int, sign: int = -1) -> Optional[TraceLattice]:
    """An A2 basis in Q(sqrt(+-d)) of height <= height: two norm-one points
    (x, y) of height <= height, the height being the reduced denominator of
    x, with pairing -1, the first such pair in the sorted order of the
    points, or None when there is none.

    Write a point as the integer triple (a, k, m) of (a/m, k/m), one
    denominator m, so a^2 + d k^2 = m^2.  For two points the pairing
    2(x x' + d y y') = -1 is the integer identity

        2(a a' + d k k') = -m m',

    and the norm is multiplicative: (a + k sqrt(-d))(a' - k' sqrt(-d))
    gives

        (a a' + d k k')^2 + d (a k' - k a')^2 = (m m')^2.

    With the pairing, (a a' + d k k')^2 = (m m')^2 / 4, so
    4 d (a k' - k a')^2 = 3 (m m')^2.  The right side is not 0, so
    a k' != k a' and 3d is the square of 3 m m' / (2 (a k' - k a')): a
    rational square, so an integer square, and for squarefree d that is
    d = 3.  Every other d returns None, at every height.

    For d = 3 the answer is closed: x >= -1 on the conic, with y = 0 at
    x = -1, so (-1, 0) is the least point and the first pair starts there.
    Its pairing with (x, y) is -2x, so its partners at -1 have x = 1/2 and
    3y^2 = 3/4, and the lesser is (1/2, -1/2), of height 2.  So the witness
    is ((-1, 0), (1/2, -1/2)) at every height >= 2, its Gram computed by
    gram_of and checked; at height 1 the only points are (+-1, 0), which
    pair to +-2, and there is none.

    The radicand and sign are checked first, by the ambient (d is factored
    once there), so a bad d or sign raises ValueError whatever the
    identity says."""
    ambient = QuadAmbient(d, sign)
    if d != 3 or height < 2:
        return None
    return _certified_a2(Matrix.from_rows([(-1, 0), (F(1, 2), F(-1, 2))]), ambient)


def _unit_key(rows: tuple, den: int) -> tuple[int, int, int]:
    """The least lowest-terms (X, Y, m) of the six (X, Y)/m = +-z, +-z omega,
    +-z omega^2 = -+(z + z omega), for the rows (z, z omega) over den of
    _slope_basis.  The units of Z[omega] are +-omega^k, so equal keys are
    equal lattices Z[omega] z, and conversely."""
    (x1, y1), (x2, y2) = rows
    return min(
        (s * x // g, s * y // g, den // g)
        for x, y in ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))
        for g in (gcd(x, y, den),)
        for s in (1, -1)
    )


def family_distinctness(height: int, sign: int = -1) -> list[TraceLattice]:
    """Pairwise-distinct A2 lattices over all slope pairs with |s0|, |s1| <=
    height, in first-seen order.

    Per-pair integer check, one build per distinct key: every slope pair
    passes the integer checks of _slope_basis, which fix its Gram at A2_GRAM
    on the trace form diag(2, 6) checked once per sweep, and is keyed by
    _unit_key on its rows; only the first pair of each new key becomes a
    Matrix and a lattice carrying A2_GRAM.  The list collects
    _distinct_lattices, the generator the command line writes from one
    lattice at a time."""
    return list(_distinct_lattices(height, sign))


def _distinct_lattices(height: int, sign: int = -1) -> Iterator[TraceLattice]:
    """The lattices of family_distinctness, each yielded as soon as it is
    certified; only the keys of those already yielded are kept."""
    from .lattice_core import TraceLattice

    ambient = QuadAmbient(3, sign)
    # the pairing of _slope_basis's asserts is the trace form's
    assert ambient.trace_form() == _FORM_D3
    seen = set()
    for s0 in range(-height, height + 1):
        for s1 in range(-height, height + 1):
            if (s0, s1) == (0, 0):
                continue
            scaled = _slope_basis(s0, s1)
            key = _unit_key(*scaled)
            if key not in seen:
                seen.add(key)
                yield TraceLattice(ambient, Matrix.scaled(*scaled), A2_GRAM, "A2")
