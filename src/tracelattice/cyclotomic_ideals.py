"""Cyclotomic fields Q(zeta_n) with the Hermitian trace pairing and the
lattices of principal fractional ideals.

The pairing is Tr(x * conj(y)) with conj the restriction of complex
conjugation, zeta -> zeta^{n-1}.  Traces are traces of multiplication
operators in the power basis, so everything stays in exact rational
arithmetic; no root of unity is ever evaluated numerically.  The pairing is
symmetric because Tr is conjugation-invariant, and positive definite because
Tr(x conj(x)) is a sum of complex absolute squares over the embeddings.

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
from typing import Sequence

from ._intfactor import divisors, is_probable_prime
from .errors import DivisionByZero, NotPrime, TooLarge, ZeroGenerator
from .exact_linalg import rat
from .lattice_core import TraceLattice, classify_root_type
from .shanks_field import _poly_divmod

F = Fraction

Coords = tuple[Fraction, ...]


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
        quot, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
        assert all(c == 0 for c in rem)
        poly = quot
    return tuple(poly)


class CycField:
    """Q(zeta_n) in the power basis (1, zeta, ..., zeta^{phi(n)-1})."""

    __slots__ = ("n", "phi", "minpoly", "_xpow", "_power_traces")

    def __init__(self, n: int):
        if n < 3:
            raise ValueError(f"n must be at least 3, got {n}")
        minpoly = cyclotomic_polynomial(n)
        phi = len(minpoly) - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "minpoly", minpoly)
        # x^m mod Phi_n for m = 0 .. 2 phi - 2 covers every product of two
        # basis monomials and every diagonal entry of a multiplication map
        xpow = []
        for m in range(2 * phi - 1):
            raw = [F(0)] * m + [F(1)]
            xpow.append(self._reduce(raw))
        object.__setattr__(self, "_xpow", tuple(xpow))
        traces = tuple(
            sum(xpow[i + k][k] for k in range(phi)) for i in range(phi)
        )
        object.__setattr__(self, "_power_traces", traces)

    def __setattr__(self, name, value):
        raise AttributeError("CycField is immutable")

    def __eq__(self, other):
        return isinstance(other, CycField) and self.n == other.n

    def __hash__(self):
        return hash(("cyc", self.n))

    def __repr__(self):
        return f"CycField({self.n})"

    @property
    def degree(self) -> int:
        return self.phi

    def _reduce(self, poly: Sequence[Fraction]) -> Coords:
        _, rem = _poly_divmod(list(poly), list(self.minpoly))
        rem = list(rem[: self.phi])
        rem += [F(0)] * (self.phi - len(rem))
        return tuple(rem)

    def element(self, coeffs: Sequence[int | str | Fraction]) -> Coords:
        """Reduce an arbitrary-degree polynomial in zeta to power-basis
        coordinates."""
        return self._reduce([rat(c) for c in coeffs])

    def one(self) -> Coords:
        return self.element([1])

    def zeta(self) -> Coords:
        return self.element([0, 1])

    def mul_coords(self, a, b) -> Coords:
        a = [rat(v) for v in a]
        b = [rat(v) for v in b]
        prod = [F(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        return self._reduce(prod)

    def _substitute_power(self, a, j: int) -> Coords:
        """Coordinates of a(zeta^j), folding exponents mod n first."""
        folded = [F(0)] * self.n
        for i, ai in enumerate(rat(v) for v in a):
            folded[(i * j) % self.n] += ai
        return self._reduce(folded)

    def conj_coords(self, a) -> Coords:
        return self._substitute_power(a, self.n - 1)

    def trace_coords(self, a) -> Fraction:
        return sum(
            rat(ai) * ti for ai, ti in zip(a, self._power_traces)
        )

    def galois_maps(self):
        return tuple(
            (lambda coords, j=j: self._substitute_power(coords, j))
            for j in range(2, self.n)
            if gcd(j, self.n) == 1
        )

    def descriptor(self) -> dict:
        return {"kind": "cyclotomic", "n": self.n}


@lru_cache(maxsize=None)
def cyc_field(n: int) -> CycField:
    return CycField(n)


def conj(field: CycField, a) -> Coords:
    return field.conj_coords(a)


def hermitian_pair(field: CycField, a, b) -> Fraction:
    """Tr(a * conj(b)), the pairing every lattice Gram entry comes from."""
    return field.trace_coords(field.mul_coords(a, field.conj_coords(b)))


def inv(field: CycField, a) -> Coords:
    """Inverse mod Phi_n by the extended Euclidean algorithm in Q[x]."""
    a = field.element(a)
    if all(c == 0 for c in a):
        raise DivisionByZero("inverse of 0")
    r0 = list(field.minpoly)
    r1 = list(a)
    s0 = [F(0)]
    s1 = [F(1)]
    while any(x != 0 for x in r1):
        q, r = _poly_divmod(r0, r1)
        prod = [F(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        s_next = [
            (s0[k] if k < len(s0) else F(0)) - (prod[k] if k < len(prod) else F(0))
            for k in range(max(len(s0), len(prod)))
        ]
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    while r0 and r0[-1] == 0:
        r0.pop()
    assert len(r0) == 1  # Phi_n is irreducible, so the gcd is a constant
    unit = r0[0]
    result = field.element([c / unit for c in s0])
    assert field.mul_coords(a, result) == field.one()
    return result


def power(field: CycField, a, k: int) -> Coords:
    """a^k with exact field inversion for negative k."""
    if k < 0:
        return power(field, inv(field, a), -k)
    out = field.one()
    base = field.element(a)
    while k:
        if k & 1:
            out = field.mul_coords(out, base)
        base = field.mul_coords(base, base)
        k >>= 1
    return out


def principal_ideal_lattice(field: CycField, generator) -> TraceLattice:
    """The lattice of the fractional ideal (generator) with Z-basis
    (generator * zeta^i) and the Hermitian trace Gram."""
    g = field.element(generator)
    if all(c == 0 for c in g):
        raise ZeroGenerator("ideal generator must be nonzero")
    rows = [g]
    for _ in range(field.phi - 1):
        rows.append(field.mul_coords(rows[-1], field.zeta()))
    return TraceLattice.from_rows(field, rows)


def ap_lattice(p: int) -> TraceLattice:
    """The ideal lattice of (1 - zeta_p)^{-(p-3)/2} in Q(zeta_p)."""
    if p < 3 or not is_probable_prime(p):
        raise NotPrime(f"p must be an odd prime, got {p}")
    if p > 23:
        raise TooLarge(f"rank {p - 1} is past the classifier's rank cap, cap is p = 23")
    field = cyc_field(p)
    one_minus_zeta = field.element([1, -1])
    generator = power(field, one_minus_zeta, -((p - 3) // 2))
    return principal_ideal_lattice(field, generator)


def verify_cyclotomic_ap(p: int) -> str:
    """Classify the ideal lattice of (1 - zeta_p)^{-(p-3)/2}; the expected
    label is A_{p-1} and the classifier recomputes it from scratch."""
    return classify_root_type(ap_lattice(p))
