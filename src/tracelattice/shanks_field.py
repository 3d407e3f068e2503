"""Arithmetic in the cyclic cubic field Q[x]/(f_t).

f_t(x) = x^3 - t x^2 - (t+3) x - 1 generates the "simplest cubic" family:
for every rational t with f_t irreducible (everything except t = -3/2 and
the finitely many t with a rational root), the splitting field is a cyclic
cubic field, delta_t = t^2 + 3t + 9 satisfies disc(f_t) = delta_t^2, and a
generator sigma of the Galois group acts by eps^sigma = -1/(1+eps).

Elements live in the power basis (1, eps, eps^2); the normal basis
(eps, eps^sigma, eps^{sigma^2}) is a derived view that exists iff t != 0.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from ._intfactor import divisors
from .errors import (
    DivisionByZero,
    NonzeroTrace,
    RationalInput,
    Reducible,
    ZeroParameter,
)
from .exact_linalg import Matrix, Rational, inverse, rat

Coords = tuple[Fraction, Fraction, Fraction]


def f_t_at(t: Fraction, x: Fraction) -> Fraction:
    """Evaluate f_t(x) = x^3 - t x^2 - (t+3) x - 1."""
    return x**3 - t * x**2 - (t + 3) * x - 1


def remap_t0() -> Fraction:
    """The parameter that t = 0 folds onto: f_0(x) = -x^3 f_{-3}(1/x)."""
    return Fraction(-3)


class FieldElement:
    """a0 + a1*eps + a2*eps^2 in a fixed ShanksField."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "ShanksField", coords: Sequence[int | str | Fraction]):
        cs = tuple(rat(c) for c in coords)
        if len(cs) != 3:
            raise ValueError("three power-basis coordinates required")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field.t == other.field.t and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.coords == (rat(other), Fraction(0), Fraction(0))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.t, self.coords))

    def __repr__(self) -> str:
        a0, a1, a2 = self.coords
        return f"({a0}) + ({a1})*eps + ({a2})*eps^2  [t={self.field.t}]"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return self.coords[1] == 0 and self.coords[2] == 0

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.t != self.field.t:
                raise ValueError("elements of different fields")
            return other
        return FieldElement(self.field, (rat(other), 0, 0))

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            s = rat(other)
            return FieldElement(self.field, tuple(a * s for a in self.coords))
        o = self._coerce(other)
        return FieldElement(self.field, self.field.mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return inv(self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


class ShanksField:
    """Immutable handle for Q[x]/(f_t); construct via new_field(t)."""

    __slots__ = (
        "t",
        "delta",
        "minpoly",
        "_red3",
        "_red4",
        "_tr_powers",
        "_sigma_eps",
        "_sigma_eps2",
        "_orbit",
        "_normal_inv",
    )

    degree = 3

    def __init__(self, t: int | str | Fraction):
        t = rat(t)
        _check_irreducible(t)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", t * t + 3 * t + 9)
        # ascending coefficients of f_t: constant first
        object.__setattr__(
            self, "minpoly", (Fraction(-1), -(t + 3), -t, Fraction(1))
        )
        # eps^3 = 1 + (t+3) eps + t eps^2 ; eps^4 = eps * eps^3
        red3 = (Fraction(1), t + 3, t)
        red4 = (t, 1 + t * (t + 3), (t + 3) + t * t)
        object.__setattr__(self, "_red3", red3)
        object.__setattr__(self, "_red4", red4)
        # Tr(1), Tr(eps), Tr(eps^2)
        object.__setattr__(
            self, "_tr_powers", (Fraction(3), t, t * t + 2 * t + 6)
        )
        # eps^sigma = -(1+eps)^{-1} = eps^2 - (t+1) eps - 2, derived from
        # (x+1)(x^2 - (t+1)x - 2) = f_t(x) - f_t(-1) with f_t(-1) = 1
        s = (Fraction(-2), -(t + 1), Fraction(1))
        object.__setattr__(self, "_sigma_eps", s)
        object.__setattr__(self, "_sigma_eps2", self.mul_coords(s, s))
        orbit = ((Fraction(0), Fraction(1), Fraction(0)), s, self.sigma_coords(s))
        object.__setattr__(self, "_orbit", orbit)
        object.__setattr__(self, "_normal_inv", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ShanksField is immutable")

    def __repr__(self) -> str:
        return f"ShanksField(t={self.t})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ShanksField) and self.t == other.t

    def __hash__(self) -> int:
        return hash(("shanks", self.t))

    # --- element constructors -------------------------------------------
    def element(self, coords: Iterable[int | str | Fraction]) -> FieldElement:
        return FieldElement(self, tuple(coords))

    def one(self) -> FieldElement:
        return FieldElement(self, (1, 0, 0))

    def eps(self) -> FieldElement:
        return FieldElement(self, (0, 1, 0))

    def rational(self, c: int | str | Fraction) -> FieldElement:
        return FieldElement(self, (rat(c), 0, 0))

    # --- coordinate-level ring operations (ambient protocol) ------------
    def mul_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Coords:
        a0, a1, a2 = a
        b0, b1, b2 = b
        p0 = a0 * b0
        p1 = a0 * b1 + a1 * b0
        p2 = a0 * b2 + a1 * b1 + a2 * b0
        p3 = a1 * b2 + a2 * b1
        p4 = a2 * b2
        r3, r4 = self._red3, self._red4
        return (
            p0 + p3 * r3[0] + p4 * r4[0],
            p1 + p3 * r3[1] + p4 * r4[1],
            p2 + p3 * r3[2] + p4 * r4[2],
        )

    def trace_coords(self, a: Sequence[Fraction]) -> Fraction:
        t0, t1, t2 = self._tr_powers
        return a[0] * t0 + a[1] * t1 + a[2] * t2

    def conj_coords(self, a: Sequence[Fraction]) -> Coords:
        return tuple(a)  # totally real: conjugation is trivial

    def sigma_coords(self, a: Sequence[Fraction]) -> Coords:
        s, s2 = self._sigma_eps, self._sigma_eps2
        out = (a[0], Fraction(0), Fraction(0))
        out = tuple(x + a[1] * y for x, y in zip(out, s))
        return tuple(x + a[2] * y for x, y in zip(out, s2))

    def galois_maps(self):
        """Coordinate maps generating Gal(F/Q); stability under them is
        stability under the whole group."""
        return (self.sigma_coords,)

    def descriptor(self) -> dict:
        return {"kind": "shanks", "t": str(self.t)}

    # --- normal-basis view ----------------------------------------------
    def orbit_coords(self) -> tuple[Coords, Coords, Coords]:
        """coords of (eps, eps^sigma, eps^{sigma^2})."""
        return self._orbit

    def _normal_matrix_inverse(self) -> Matrix:
        cached = self._normal_inv
        if cached is None:
            cached = inverse(Matrix(self._orbit))
            object.__setattr__(self, "_normal_inv", cached)
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


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    den = den[:]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise DivisionByZero("polynomial division by zero")
    out = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(x != 0 for x in num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        coef = num[-1] / den[-1]
        shift = len(num) - len(den)
        out[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
        num.pop()
    return out, num


def inv(a: FieldElement) -> FieldElement:
    """Inverse in Q[x]/(f_t) by the extended Euclidean algorithm."""
    if a.is_zero():
        raise DivisionByZero("inverse of 0")
    f = a.field
    # run xgcd(poly(a), f_t) over Q[x], tracking the Bezout factor of poly(a)
    r0 = list(f.minpoly)
    r1 = [c for c in a.coords]
    s0 = [Fraction(0)]
    s1 = [Fraction(1)]
    while any(x != 0 for x in r1):
        q, r = _poly_divmod(r0, r1)
        # s_next = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [
            (s0[k] if k < len(s0) else Fraction(0))
            - (prod[k] if k < len(prod) else Fraction(0))
            for k in range(max(len(s0), len(prod), 1))
        ]
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    while r0 and r0[-1] == 0:
        r0.pop()
    if len(r0) != 1:
        raise DivisionByZero("element not invertible (reducible modulus?)")
    c = r0[0]
    coeffs = [x / c for x in s0]
    coeffs += [Fraction(0)] * (3 - len(coeffs))
    return FieldElement(f, tuple(coeffs[:3]))


def sigma(a: FieldElement) -> FieldElement:
    """Image under the fixed Galois generator eps^sigma = -1/(1+eps)."""
    return FieldElement(a.field, a.field.sigma_coords(a.coords))


def trace(a: FieldElement) -> Fraction:
    """Trace of multiplication by a (= a + a^sigma + a^{sigma^2})."""
    return a.field.trace_coords(a.coords)


def trace_pair(a: FieldElement, b: FieldElement) -> Fraction:
    return trace(a * b)


def norm(a: FieldElement) -> Fraction:
    """N(a) = a * a^sigma * a^{sigma^2}, a rational."""
    n = a * sigma(a) * sigma(sigma(a))
    assert n.is_rational()
    return n.coords[0]


def bracket(field: ShanksField, lam: Sequence[int | str | Fraction]) -> FieldElement:
    """<lam, eps> = lam0*eps + lam1*eps^sigma + lam2*eps^{sigma^2}.

    Requires t != 0: only then is the eps-orbit a (normal) basis.
    """
    if field.t == 0:
        raise ZeroParameter()
    l0, l1, l2 = (rat(x) for x in lam)
    e0, e1, e2 = field.orbit_coords()
    coords = tuple(l0 * a + l1 * b + l2 * c for a, b, c in zip(e0, e1, e2))
    return FieldElement(field, coords)


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
