"""Arithmetic in the cyclic cubic field Q[x]/(f_t).

f_t(x) = x^3 - t x^2 - (t+3) x - 1 generates the "simplest cubic" family:
for every rational t with f_t irreducible (everything except t = -3/2 and
the finitely many t with a rational root), the splitting field is a cyclic
cubic field, delta_t = t^2 + 3t + 9 satisfies disc(f_t) = delta_t^2, and a
generator sigma of the Galois group acts by eps^sigma = -1/(1+eps).

ShanksField is the PowerBasisField of f_t with sigma as its Galois generator;
elements live in the power basis (1, eps, eps^2), and the normal basis
(eps, eps^sigma, eps^{sigma^2}) is a derived view that exists iff t != 0.
Each field builds the matrix of that orbit once (`orbit_matrix`, rows the
power-basis coordinates of the three conjugates), and `bracket` is one
product with it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from ._intfactor import divisors
from .errors import (
    NonzeroTrace,
    RationalInput,
    Reducible,
    ZeroParameter,
)
from .exact_linalg import Matrix, inverse, rat
from .power_basis import Coords, FieldElement, PowerBasisField


def f_t_at(t: Fraction, x: Fraction) -> Fraction:
    """Evaluate f_t(x) = x^3 - t x^2 - (t+3) x - 1."""
    return x**3 - t * x**2 - (t + 3) * x - 1


def remap_t0() -> Fraction:
    """The parameter that t = 0 folds onto: f_0(x) = -x^3 f_{-3}(1/x)."""
    return Fraction(-3)


class ShanksField(PowerBasisField):
    """Q[x]/(f_t) as a PowerBasisField; construct via new_field(t)."""

    symbol = "eps"
    __slots__ = ("t", "delta", "orbit_matrix", "_normal_inv")

    def __init__(self, t: int | str | Fraction):
        t = rat(t)
        _check_irreducible(t)
        # totally real; eps^sigma = -(1+eps)^{-1} = eps^2 - (t+1) eps - 2,
        # from (x+1)(x^2 - (t+1)x - 2) = f_t(x) - f_t(-1) with f_t(-1) = 1
        sigma_eps = (-2, -(t + 1), 1)
        super().__init__(
            (-1, -(t + 3), -t, 1), None, (sigma_eps,), {"kind": "shanks", "t": str(t)}
        )
        eps = (Fraction(0), Fraction(1), Fraction(0))
        s = self.galois_coords(eps)
        self._freeze(
            t=t,
            delta=t * t + 3 * t + 9,
            orbit_matrix=Matrix((eps, s, self.galois_coords(s))),
            _normal_inv=None,
        )

    # --- element constructors -------------------------------------------
    def element(self, coords: Iterable[int | str | Fraction]) -> FieldElement:
        return FieldElement(self, tuple(coords))

    def one(self) -> FieldElement:
        return FieldElement(self, (1, 0, 0))

    def eps(self) -> FieldElement:
        return FieldElement(self, (0, 1, 0))

    def rational(self, c: int | str | Fraction) -> FieldElement:
        return FieldElement(self, (rat(c), 0, 0))

    # --- normal-basis view ----------------------------------------------
    def orbit_coords(self) -> tuple[Coords, Coords, Coords]:
        """coords of (eps, eps^sigma, eps^{sigma^2}): the rows of orbit_matrix."""
        return self.orbit_matrix.data

    def _normal_matrix_inverse(self) -> Matrix:
        cached = self._normal_inv
        if cached is None:
            cached = inverse(self.orbit_matrix)
            self._freeze(_normal_inv=cached)
        return cached


def _check_irreducible(t: Fraction) -> None:
    """Degree 3: reducible over Q iff f_t has a rational root a/b with
    a, b dividing den(t) (after clearing: q x^3 - p x^2 - (p+3q) x - q)."""
    q = t.denominator
    for b in divisors(q):
        for a in divisors(q):
            if gcd(a, b) != 1:
                continue
            for r in (Fraction(a, b), Fraction(-a, b)):
                if f_t_at(t, r) == 0:
                    raise Reducible(f"f_t has rational root {r} at t = {t}")


@lru_cache(maxsize=256)
def new_field(t: int | str | Fraction) -> ShanksField:
    """Field handle for f_t; raises Reducible when f_t factors (e.g. t = -3/2).

    Memoized on t: a ShanksField is immutable, so every caller asking for
    the same parameter shares one handle (and one irreducibility check)."""
    return ShanksField(t)


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    return a * b


def inv(a: FieldElement) -> FieldElement:
    """Inverse in Q[x]/(f_t); raises DivisionByZero on 0."""
    return FieldElement(a.field, a.field.inv_coords(a.coords))


def sigma(a: FieldElement) -> FieldElement:
    """Image under the fixed Galois generator eps^sigma = -1/(1+eps)."""
    return FieldElement(a.field, a.field.galois_coords(a.coords))


def trace(a: FieldElement) -> Fraction:
    """Trace of multiplication by a (= a + a^sigma + a^{sigma^2})."""
    return a.field.trace_coords(a.coords)


def trace_pair(a: FieldElement, b: FieldElement) -> Fraction:
    return trace(a * b)


def norm(a: FieldElement) -> Fraction:
    """N(a) = a * a^sigma * a^{sigma^2}, a rational."""
    return a.field.norm_coords(a.coords)


def bracket(field: ShanksField, lam: Sequence[int | str | Fraction]) -> FieldElement:
    """<lam, eps> = lam0*eps + lam1*eps^sigma + lam2*eps^{sigma^2}.

    Requires t != 0: only then is the eps-orbit a (normal) basis.
    """
    if field.t == 0:
        raise ZeroParameter()
    product = Matrix([list(lam)]) * field.orbit_matrix
    return FieldElement(field, product.row(0))


def normal_coords(field: ShanksField, a: FieldElement) -> Coords:
    """Coordinates of a in the normal basis: the inverse of bracket."""
    if field.t == 0:
        raise ZeroParameter()
    ninv = field._normal_matrix_inverse()
    row = Matrix([list(a.coords)]) * ninv
    return row.row(0)


def reparametrize(field: ShanksField, alpha: FieldElement) -> Fraction:
    """For trace-zero irrational alpha: t' = Tr(u) with u = alpha^{sigma-1},
    and f_{t'}(u) = 0 with Q(u) = F (both checked here)."""
    if trace(alpha) != 0:
        raise NonzeroTrace(f"Tr(alpha) = {trace(alpha)} != 0")
    if alpha.is_rational():
        raise RationalInput("alpha must generate the field")
    u = sigma(alpha) * inv(alpha)
    t_new = trace(u)
    # identities from the construction: N(u) = 1 and 1 + u + u^{1+sigma} = 0
    assert norm(u) == 1
    assert (field.one() + u + u * sigma(u)).is_zero()
    residual = u * u * u - t_new * u * u - (t_new + 3) * u - field.one()
    assert residual.is_zero(), "f_{t'}(u) != 0"
    assert not u.is_rational(), "u must generate a degree-3 field"
    return t_new
