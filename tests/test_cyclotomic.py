"""Cyclotomic fields, the Hermitian trace pairing, and ideal lattices.

Two independent oracles: sympy's cyclotomic_poly for the minimal
polynomials, and the Ramanujan-sum closed form mu(n/g) phi(n) / phi(n/g)
for the traces of root-of-unity powers (computed here from scratch via
integer factorization, a different code path from the library's
multiplication-operator traces).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol, cyclotomic_poly

from tracelattice import exact_linalg
from tracelattice._intfactor import factor
from tracelattice.cyclotomic_ideals import (
    CycField,
    ap_lattice,
    cyc_field,
    cyclotomic_polynomial,
    principal_ideal_lattice,
    verify_cyclotomic_ap,
)
from tracelattice.errors import (
    DivisionByZero,
    NotPrime,
    RankTooLarge,
    ZeroGenerator,
)
from tracelattice.exact_linalg import Matrix, det, inverse
from tracelattice.lattice_core import (
    canonical_key,
    classify_root_type,
    disc_group,
    galois_stable,
)

F = Fraction

def _pair(field, a, b):
    """Tr(a conj(b)) read off the trace form T as a T b^T, the way gram_of
    makes every Gram entry."""
    return (Matrix([list(a)]) * field.trace_form() * Matrix([list(b)]).transpose()).data[0][0]


def _conj(field, b):
    """The conjugate of b that the trace form carries: the c with
    Tr(x^i c) = (T b^T)_i for every i, that is c = b T^T H^-1 with
    H[i][j] = Tr(x^(i+j)), invertible as the trace form of a field."""
    n = field.degree
    basis = [field.element([0] * i + [1]) for i in range(n)]
    h = Matrix([[field.trace_coords(field.mul_coords(x, y)) for y in basis] for x in basis])
    return (Matrix([list(b)]) * field.trace_form().transpose() * inverse(h)).row(0)


def _substitute(field, b, k):
    """b(zeta^k), reduced: the automorphism zeta -> zeta^k by definition."""
    poly = [F(0)] * (k * (len(b) - 1) + 1)
    for j, c in enumerate(b):
        poly[k * j] += c
    return field.reduce(poly)


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
    assert _conj(f5, f5.one()) == f5.one()
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3 under Phi_5
    assert _conj(f5, f5.zeta()) == (F(-1), F(-1), F(-1), F(-1))


@given(st.integers(3, 16), st.lists(st.integers(-5, 5), min_size=1, max_size=6))
@settings(max_examples=80)
def test_conj_is_an_involution(n, coords):
    f = cyc_field(n)
    a = f.element(coords)
    assert _conj(f, _conj(f, a)) == a
    assert _conj(f, a) == _substitute(f, a, n - 1)


@given(
    st.integers(3, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=80)
def test_conj_is_a_ring_morphism(n, ca, cb):
    f = cyc_field(n)
    a, b = f.element(ca), f.element(cb)
    assert _conj(f, f.mul_coords(a, b)) == f.mul_coords(_conj(f, a), _conj(f, b))


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15])
def test_power_traces_match_ramanujan_sums(n):
    f = cyc_field(n)
    for k in range(f.phi):
        unit = tuple(F(int(i == k)) for i in range(f.phi))
        assert f.trace_coords(unit) == _ramanujan_sum(n, k)


def test_hermitian_pair_frozen_n5():
    f5 = cyc_field(5)
    assert _pair(f5, f5.one(), f5.one()) == 4
    assert _pair(f5, f5.zeta(), f5.zeta()) == 4
    assert _pair(f5, f5.zeta(), f5.one()) == -1


@given(
    st.integers(3, 12),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@settings(max_examples=60)
def test_hermitian_pair_symmetric(n, ca, cb):
    f = cyc_field(n)
    a, b = f.element(ca), f.element(cb)
    assert _pair(f, a, b) == _pair(f, b, a)
    assert _pair(f, a, b) == f.trace_coords(f.mul_coords(a, _substitute(f, b, n - 1)))


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
def test_hermitian_pair_positive_definite(n):
    f = cyc_field(n)
    basis = [
        tuple(F(int(i == k)) for i in range(f.phi)) for k in range(f.phi)
    ]
    gram = [[_pair(f, a, b) for b in basis] for a in basis]
    for k in range(1, f.phi + 1):
        minor = Matrix([row[:k] for row in gram[:k]])
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
            f.inv_coords(a)
        return
    assert f.mul_coords(a, f.inv_coords(a)) == f.one()


def test_power_handles_negative_exponents():
    f = cyc_field(7)
    a = f.element([1, -1])  # 1 - zeta
    assert f.pow_coords(a, 0) == f.one()
    assert f.mul_coords(f.pow_coords(a, -2), f.pow_coords(a, 2)) == f.one()
    assert f.pow_coords(a, 3) == f.mul_coords(a, f.mul_coords(a, a))


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
    g = f.inv_coords(f.element([1, -1]))
    base = principal_ideal_lattice(f, g)
    for unit in (f.zeta(), f.element([-1]), f.mul_coords(f.element([-1]), f.zeta())):
        other = principal_ideal_lattice(f, f.mul_coords(unit, g))
        assert canonical_key(base) == canonical_key(other)


@given(st.integers(3, 9), st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_ideal_gram_is_toeplitz(n, coords):
    # entry (i, j) is Tr(g conj(g) zeta^{i-j}), a function of i - j alone
    f = cyc_field(n)
    g = f.element(coords)
    if all(c == 0 for c in g):
        return
    gram = principal_ideal_lattice(f, g).gram.data
    for i in range(f.phi):
        for j in range(f.phi):
            if i + 1 < f.phi and j + 1 < f.phi:
                assert gram[i][j] == gram[i + 1][j + 1]


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
def test_prime_ideal_lattice_disc_group_on_dense_grams(p, monkeypatch):
    # Hermite passes without reduction mod det took 41 s at p = 19: their
    # entries grow without bound on these dense Grams, whose own entries
    # reach 5.4 * 10^19 at p = 31.  The work is bounded, not the time: snf
    # makes two passes, each modulo det = p, and each returns entries <= p
    L = ap_lattice(p)
    passes = []
    hnf_rows = exact_linalg.hnf_rows

    def counted(a, modulus=0):
        out = hnf_rows(a, modulus)
        passes.append((modulus, max(abs(v) for row in out for v in row)))
        return out

    monkeypatch.setattr(exact_linalg, "hnf_rows", counted)
    assert disc_group(L) == (1,) * (p - 2) + (p,)
    assert len(passes) == 2
    assert all(modulus == p and top <= p for modulus, top in passes), passes


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
    # the one rank-cap check, before Q(zeta_37) is built
    with pytest.raises(RankTooLarge, match="^rank 36 exceeds the enumeration cap of 32$"):
        verify_cyclotomic_ap(37)
