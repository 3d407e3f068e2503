"""Cyclotomic fields, the Hermitian trace pairing, and ideal lattices.

Two independent oracles: sympy's cyclotomic_poly for the minimal
polynomials, and the Ramanujan-sum closed form mu(n/g) phi(n) / phi(n/g)
for the traces of root-of-unity powers (computed here from scratch via
integer factorization, a different code path from the library's
multiplication-operator traces).
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol, cyclotomic_poly

from tracelattice._intfactor import factor
from tracelattice.cyclotomic_ideals import (
    CycField,
    ap_lattice,
    conj,
    cyc_field,
    cyclotomic_polynomial,
    hermitian_pair,
    inv,
    power,
    principal_ideal_lattice,
    verify_cyclotomic_ap,
)
from tracelattice.errors import (
    DivisionByZero,
    NotPrime,
    TooLarge,
    ZeroGenerator,
)
from tracelattice.exact_linalg import Matrix, det
from tracelattice.lattice_core import (
    classify_root_type,
    disc_group,
    galois_stable,
    lattice_equal,
)

F = Fraction


def _totient(n: int) -> int:
    t = 1
    for p, e in factor(n).items():
        t *= (p - 1) * p ** (e - 1)
    return t


def _mobius(n: int) -> int:
    fs = factor(n)
    if any(e > 1 for e in fs.values()):
        return 0
    return -1 if len(fs) % 2 else 1


def _ramanujan_sum(n: int, k: int) -> int:
    """Sum of k-th powers of the primitive n-th roots of unity."""
    m = n // gcd(k, n)
    return _mobius(m) * _totient(n) // _totient(m)


def _coeffs(field: CycField, *entries) -> tuple[Fraction, ...]:
    return field.element(list(entries))


# ---------------------------------------------------------------------------
# minimal polynomials


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_polynomial_matches_sympy(n):
    x = Symbol("x")
    expected = Poly(cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == expected


def test_cyclotomic_polynomial_frozen():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 20])
def test_degree_is_totient(n):
    assert cyc_field(n).phi == _totient(n)


def test_field_rejects_tiny_n():
    with pytest.raises(ValueError):
        CycField(2)


def test_field_identity_and_descriptor():
    f = cyc_field(5)
    assert f is cyc_field(5)
    assert f == CycField(5)
    assert f != cyc_field(7)
    assert f.descriptor() == {"kind": "cyclotomic", "n": 5}
    with pytest.raises(AttributeError):
        f.n = 11


# ---------------------------------------------------------------------------
# conjugation and traces


def test_conj_frozen_values():
    f5 = cyc_field(5)
    assert conj(f5, f5.one()) == f5.one()
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3 under Phi_5
    assert conj(f5, f5.zeta()) == (F(-1), F(-1), F(-1), F(-1))


@given(st.integers(3, 16), st.lists(st.integers(-5, 5), min_size=1, max_size=6))
@settings(max_examples=80)
def test_conj_is_an_involution(n, coords):
    f = cyc_field(n)
    a = f.element(coords)
    assert conj(f, conj(f, a)) == a


@given(
    st.integers(3, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=80)
def test_conj_is_a_ring_morphism(n, ca, cb):
    f = cyc_field(n)
    a, b = f.element(ca), f.element(cb)
    assert conj(f, f.mul_coords(a, b)) == f.mul_coords(conj(f, a), conj(f, b))


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15])
def test_power_traces_match_ramanujan_sums(n):
    f = cyc_field(n)
    for k in range(f.phi):
        unit = tuple(F(int(i == k)) for i in range(f.phi))
        assert f.trace_coords(unit) == _ramanujan_sum(n, k)


def test_hermitian_pair_frozen_n5():
    f5 = cyc_field(5)
    assert hermitian_pair(f5, f5.one(), f5.one()) == 4
    assert hermitian_pair(f5, f5.zeta(), f5.zeta()) == 4
    assert hermitian_pair(f5, f5.zeta(), f5.one()) == -1


@given(
    st.integers(3, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_hermitian_pair_symmetric(n, ca, cb):
    f = cyc_field(n)
    assert hermitian_pair(f, ca, cb) == hermitian_pair(f, cb, ca)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
def test_hermitian_pair_positive_definite(n):
    f = cyc_field(n)
    basis = [
        tuple(F(int(i == k)) for i in range(f.phi)) for k in range(f.phi)
    ]
    gram = Matrix(
        [[hermitian_pair(f, a, b) for b in basis] for a in basis]
    )
    for k in range(1, f.phi + 1):
        minor = Matrix([[gram[i, j] for j in range(k)] for i in range(k)])
        assert det(minor) > 0


# ---------------------------------------------------------------------------
# field inversion


@given(st.integers(3, 12), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
@settings(max_examples=80)
def test_inverse_round_trip(n, coords):
    f = cyc_field(n)
    a = f.element(coords)
    if all(c == 0 for c in a):
        with pytest.raises(DivisionByZero):
            inv(f, a)
        return
    assert f.mul_coords(a, inv(f, a)) == f.one()


def test_power_handles_negative_exponents():
    f = cyc_field(7)
    a = f.element([1, -1])  # 1 - zeta
    assert power(f, a, 0) == f.one()
    assert f.mul_coords(power(f, a, -2), power(f, a, 2)) == f.one()
    assert power(f, a, 3) == f.mul_coords(a, f.mul_coords(a, a))


# ---------------------------------------------------------------------------
# ideal lattices


def test_unit_ideal_n3_is_a2():
    f3 = cyc_field(3)
    L = principal_ideal_lattice(f3, f3.one())
    assert L.gram == Matrix.from_rows([[2, -1], [-1, 2]])
    assert classify_root_type(L) == "A2"


def test_doubled_generator_scales_the_gram():
    f3 = cyc_field(3)
    L = principal_ideal_lattice(f3, f3.element([2]))
    assert L.gram == Matrix.from_rows([[8, -4], [-4, 8]])
    assert classify_root_type(L) == "other"


def test_zero_generator_rejected():
    f3 = cyc_field(3)
    with pytest.raises(ZeroGenerator):
        principal_ideal_lattice(f3, f3.element([0]))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_unit_multiple_of_generator_same_lattice(n):
    f = cyc_field(n)
    g = inv(f, f.element([1, -1]))
    base = principal_ideal_lattice(f, g)
    for unit in (f.zeta(), f.element([-1]), f.mul_coords(f.element([-1]), f.zeta())):
        other = principal_ideal_lattice(f, f.mul_coords(unit, g))
        assert lattice_equal(base, other)


@given(st.integers(3, 9), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_ideal_gram_is_toeplitz(n, coords):
    # entry (i, j) is Tr(g conj(g) zeta^{i-j}), a function of i - j alone
    f = cyc_field(n)
    g = f.element(coords)
    if all(c == 0 for c in g):
        return
    gram = principal_ideal_lattice(f, g).gram
    for i in range(f.phi):
        for j in range(f.phi):
            if i + 1 < f.phi and j + 1 < f.phi:
                assert gram[i, j] == gram[i + 1, j + 1]


# ---------------------------------------------------------------------------
# the prime tower


@pytest.mark.parametrize(
    "p,label", [(3, "A2"), (5, "A4"), (7, "A6"), (11, "A10")]
)
def test_prime_ideal_lattice_classification(p, label):
    assert verify_cyclotomic_ap(p) == label


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_prime_ideal_lattice_det_is_p(p):
    assert det(ap_lattice(p).gram) == p


def test_prime_ideal_lattice_disc_group():
    assert disc_group(ap_lattice(5)) == (1, 1, 1, 5)


@pytest.mark.parametrize("p", [19, 23, 29, 31])
def test_prime_ideal_lattice_disc_group_on_dense_grams(p):
    # Hermite passes without reduction mod det took 41 s at p = 19: their
    # entries grow without bound on these dense Grams
    L = ap_lattice(p)
    start = time.perf_counter()
    assert disc_group(L) == (1,) * (p - 2) + (p,)
    assert time.perf_counter() - start < 2


def test_prime_ideal_lattice_galois_stable():
    assert galois_stable(ap_lattice(7))


def test_non_primes_rejected():
    for p in (1, 2, 4, 9, 15):
        with pytest.raises(NotPrime):
            verify_cyclotomic_ap(p)


@pytest.mark.parametrize("p,label", [(17, "A16"), (19, "A18")])
def test_large_prime_ideal_lattice_classification(p, label):
    assert verify_cyclotomic_ap(p) == label


def test_large_primes_rejected():
    with pytest.raises(TooLarge):
        verify_cyclotomic_ap(37)
