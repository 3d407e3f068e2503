"""Cyclotomic fields Q(zeta_n) with the Hermitian trace pairing and the
lattices of principal fractional ideals.

The pairing is Tr(x * conj(y)) with conj the restriction of complex
conjugation, zeta -> zeta^{n-1}.  CycField is the PowerBasisField of Phi_n,
so traces are traces of multiplication operators in the power basis and
everything stays in exact rational arithmetic; no root of unity is ever
evaluated numerically.  The pairing is symmetric because Tr is
conjugation-invariant, and positive definite because Tr(x conj(x)) is a sum
of complex absolute squares over the embeddings.

An ideal lattice takes a nonzero generator g and the Z-basis
(g, g zeta, ..., g zeta^{phi(n)-1}); its Gram is Toeplitz since the (i, j)
entry is Tr(g conj(g) zeta^{i-j}).  For an odd prime p the generator
(1 - zeta_p)^{-(p-3)/2} makes that lattice a root lattice of rank p - 1,
which verify_cyclotomic_ap certifies through the classifier.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._intfactor import divisors, is_probable_prime
from .errors import NotPrime, ZeroGenerator
from .lattice_core import TraceLattice, check_enumeration_rank, classify_root_type
from .power_basis import Coords, PowerBasisField, poly_divmod

F = Fraction


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, ascending, monic, by exact division of x^n - 1
    by the Phi_d of the proper divisors d of n."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    poly = [F(-1)] + [F(0)] * (n - 1) + [F(1)]
    for d in divisors(n):
        if d == n:
            continue
        quot, rem = poly_divmod(poly, cyclotomic_polynomial(d))
        assert not any(rem)
        poly = quot
    return tuple(poly)


class CycField(PowerBasisField):
    """Q(zeta_n) as a PowerBasisField: conjugation zeta -> zeta^{n-1}, and
    Galois generators zeta -> zeta^j for every unit j != 1 mod n."""

    __slots__ = ("n", "phi")

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"n must be at least 3, got {n}")
        minpoly = cyclotomic_polynomial(n)
        super().__init__(
            minpoly,
            [0] * (n - 1) + [1],
            [[0] * j + [1] for j in range(2, n) if gcd(j, n) == 1],
            {"kind": "cyclotomic", "n": n},
        )
        self._freeze(n=n, phi=len(minpoly) - 1)

    def zeta(self) -> Coords:
        return self.reduce([0, 1])


@lru_cache(maxsize=None)
def cyc_field(n: int) -> CycField:
    return CycField(n)


def principal_ideal_lattice(field: CycField, generator) -> TraceLattice:
    """The lattice of the fractional ideal (generator) with Z-basis
    (generator * zeta^i) and the Hermitian trace Gram."""
    g = field.element(generator)
    if all(c == 0 for c in g):
        raise ZeroGenerator("ideal generator must be nonzero")
    return TraceLattice(field, field._powers(g, field.zeta()))


def ap_lattice(p: int) -> TraceLattice:
    """The ideal lattice of (1 - zeta_p)^{-(p-3)/2} in Q(zeta_p)."""
    if p < 3 or not is_probable_prime(p):
        raise NotPrime(f"p must be an odd prime, got {p}")
    check_enumeration_rank(p - 1)
    field = cyc_field(p)
    one_minus_zeta = field.element([1, -1])
    generator = field.pow_coords(one_minus_zeta, -((p - 3) // 2))
    return principal_ideal_lattice(field, generator)


def verify_cyclotomic_ap(p: int) -> str:
    """Classify the ideal lattice of (1 - zeta_p)^{-(p-3)/2}; the expected
    label is A_{p-1} and the classifier recomputes it from scratch."""
    return classify_root_type(ap_lattice(p))
