"""Arithmetic in the cyclic cubic field Q[x]/(f_t).

f_t(x) = x^3 - t x^2 - (t+3) x - 1 generates the "simplest cubic" family:
for every rational t with f_t irreducible (everything except t = -3/2 and
the finitely many t with a rational root), the splitting field is a cyclic
cubic field, delta_t = t^2 + 3t + 9 satisfies disc(f_t) = delta_t^2, and a
generator sigma of the Galois group acts by eps^sigma = -1/(1+eps).

ShanksField is the PowerBasisField of f_t with sigma as its Galois generator;
an element is its coordinate tuple in the power basis (1, eps, eps^2), and
its product, inverse, conjugates, trace and norm are the field's *_coords
methods.  The orbit (eps, eps^sigma, eps^{sigma^2}) is a normal basis iff
t != 0.  Each field builds the matrix of that orbit once (`orbit_matrix`,
rows the power-basis coordinates of the three conjugates), so the element
lam0 eps + lam1 eps^sigma + lam2 eps^{sigma^2} is the row lam times it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._intfactor import factor
from .errors import NonzeroTrace, RationalInput, Reducible, number_text
from .exact_linalg import Matrix, rat
from .power_basis import PowerBasisField


def remap_t0() -> Fraction:
    """The parameter that t = 0 folds onto: f_0(x) = -x^3 f_{-3}(1/x)."""
    return Fraction(-3)


class ShanksField(PowerBasisField):
    """Q[x]/(f_t) as a PowerBasisField; construct via new_field(t)."""

    __slots__ = ("t", "delta", "orbit_matrix")

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
        )


def _check_irreducible(t: Fraction) -> None:
    """Degree 3: reducible over Q iff f_t has a rational root.

    With t = p/q, a root a/b in lowest terms of q x^3 - p x^2 - (p+3q) x - q
    gives q (a^3 - 3ab^2 - b^3) = p ab (a + b); since gcd(a, b) = 1, ab is
    coprime to a^3 - 3ab^2 - b^3, so ab divides q.  Only those pairs are
    tried: for each prime power p^e exactly dividing q, p^i goes to a or to
    b, never both, with i <= e, which makes prod (2e + 1) pairs.  They are
    tried in order of (b, a), + before -, and each test is one integer
    polynomial value."""
    p, q = t.numerator, t.denominator
    pairs = [(1, 1)]
    for prime, e in factor(q).items():
        powers = [prime**i for i in range(1, e + 1)]
        pairs += [(a * w, b) for a, b in pairs for w in powers] + [
            (a, b * w) for a, b in pairs for w in powers
        ]
    for b, a in sorted((b, a) for a, b in pairs):
        for r in (a, -a):
            if q * r**3 - p * r * r * b - (p + 3 * q) * r * b * b - q * b**3 == 0:
                raise Reducible(
                    f"f_t has rational root {number_text(Fraction(r, b))} "
                    f"at t = {number_text(t)}"
                )


@lru_cache(maxsize=256)
def new_field(t: int | str | Fraction) -> ShanksField:
    """Field handle for f_t; raises Reducible when f_t factors (e.g. t = -3/2).

    Memoized on t: a ShanksField is immutable, so every caller asking for
    the same parameter shares one handle (and one irreducibility check)."""
    return ShanksField(t)


def reparametrize(field: ShanksField, alpha: Sequence) -> Fraction:
    """For trace-zero irrational alpha (power-basis coordinates): t' = Tr(u)
    with u = alpha^{sigma-1}, and f_{t'}(u) = 0 with Q(u) = F (both checked
    here).  t' = 0 is a valid answer (f_0 is irreducible); only the
    normal-basis family rejects t = 0, and its error names remap_t0()."""
    alpha = field.element(alpha)
    trace = field.trace_coords(alpha)
    if trace != 0:
        raise NonzeroTrace(f"Tr(alpha) = {number_text(trace)} != 0")
    if not any(alpha[1:]):
        raise RationalInput("alpha must generate the field")
    mul = field.mul_coords
    u = mul(field.galois_coords(alpha), field.inv_coords(alpha))
    t_new = field.trace_coords(u)
    # identities from the construction: N(u) = 1 and 1 + u + u^{1+sigma} = 0
    assert field.norm_coords(u) == 1
    one = field.one()
    assert not any(map(sum, zip(one, u, mul(u, field.galois_coords(u)))))
    u2 = mul(u, u)
    residual = (
        c3 - t_new * c2 - (t_new + 3) * c1 - c0
        for c3, c2, c1, c0 in zip(mul(u2, u), u2, u, one)
    )
    assert not any(residual), "f_{t'}(u) != 0"
    assert any(u[1:]), "u must generate a degree-3 field"
    return t_new
