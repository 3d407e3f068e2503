"""Cyclic cubic fields from the one-parameter family of unit polynomials.

The independent oracle for multiplication and traces is plain polynomial
arithmetic modulo the minimal polynomial, done from scratch here; the
implementation's closed-form reduction vectors must agree with it.  Elements
are power-basis coordinate tuples, and the ring axioms, the Galois action,
traces and norms are checked on the field's *_coords methods.
"""
from __future__ import annotations

import inspect
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    bracket,
    rational_root_by_divisor_scan,
    shanks_automorphisms,
    shanks_minpoly,
)
from tracelattice.errors import NonzeroTrace, RationalInput, Reducible
from tracelattice.exact_linalg import Matrix, det, inverse
from tracelattice.shanks_field import (
    ShanksField,
    _check_irreducible,
    new_field,
    remap_t0,
    reparametrize,
)

def _in_family(t: Fraction) -> bool:
    if t == 0:
        return False
    try:
        new_field(t)
    except Reducible:
        return False
    return True


rational_t = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    _in_family
)

coords3 = st.tuples(
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)


def _poly_mulmod(a, b, t):
    """Oracle: multiply two coordinate vectors as polynomials in x and reduce
    modulo x^3 - t*x^2 - (t+3)*x - 1 by long division."""
    prod = [Fraction(0)] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += Fraction(ai) * Fraction(bj)
    # divide by monic cubic
    c2, c1, c0 = Fraction(t), Fraction(t) + 3, Fraction(1)
    for k in (4, 3):
        q = prod[k]
        prod[k] = Fraction(0)
        prod[k - 1] += q * c2
        prod[k - 2] += q * c1
        prod[k - 3] += q * c0
    return tuple(prod[:3])


def _oracle_trace(coords, t):
    """Oracle: Tr(1)=3, Tr(eps)=t, Tr(eps^2)=t^2+2t+6 by Newton's identities
    from the elementary symmetric functions e1=t, e2=-(t+3), e3=1."""
    e1, e2 = Fraction(t), -(Fraction(t) + 3)
    p1 = e1
    p2 = e1 * p1 - 2 * e2
    return 3 * Fraction(coords[0]) + Fraction(coords[1]) * p1 + Fraction(coords[2]) * p2


# --- construction -------------------------------------------------------------

def test_minpoly_t1():
    k = new_field(1)
    assert k.minpoly == (-1, -4, -1, 1)
    assert k.delta == 13


def test_delta_values():
    assert new_field(0).delta == 9
    assert new_field(Fraction(1, 2)).delta == Fraction(43, 4)
    assert new_field(-1).delta == 7


def test_reducible_parameter_rejected():
    with pytest.raises(Reducible):
        new_field(Fraction(-3, 2))


def _reducible_message(t):
    try:
        _check_irreducible(t)
    except Reducible as exc:
        return str(exc)
    return None


# t = p/q with q a product of small prime powers, so that q has many divisors
smooth_t = st.builds(
    lambda p, e2, e3, e5, e7: Fraction(p, 2**e2 * 3**e3 * 5**e5 * 7**e7),
    st.integers(-10**6, 10**6),
    *(st.integers(0, 3) for _ in range(4)),
)
# t with the rational root r: f_t(r) = 0 gives t = (r^3 - 3r - 1) / (r^2 + r)
root_t = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(
    lambda r: r not in (0, -1)
).map(lambda r: (r**3 - 3 * r - 1) / (r * r + r))


@settings(max_examples=150, deadline=None)
@given(st.one_of(smooth_t, root_t))
def test_irreducibility_check_matches_the_divisor_scan(t):
    root = rational_root_by_divisor_scan(t)
    expected = None if root is None else f"f_t has rational root {root} at t = {t}"
    assert _reducible_message(t) == expected


def test_irreducibility_check_on_known_parameters():
    assert _reducible_message(Fraction(-3, 2)) == "f_t has rational root 1 at t = -3/2"
    # r = 2 gives t = (8 - 6 - 1) / 6
    assert _reducible_message(Fraction(1, 6)) == "f_t has rational root 2 at t = 1/6"
    for t in (1, Fraction(1, 2), Fraction(-5, 2), Fraction(1, 10**6)):
        assert _reducible_message(t) is None


def test_irreducibility_check_is_fast_on_many_divisors():
    # q = 10^40 has 41^2 = 1,681 divisors, so d(q)^2 is 2.8 million candidate
    # roots; the pairs with ab | q number 81^2 = 6,561, each tried with both
    # signs.  The work is counted, as line events on the one test of a
    # candidate root, so the bound does not depend on the host's load
    lines, first = inspect.getsourcelines(_check_irreducible)
    (test_line,) = [first + i for i, line in enumerate(lines) if "q * r**3" in line]
    code = _check_irreducible.__code__
    tried = 0

    def count(frame, event, arg):
        nonlocal tried
        if event == "line" and frame.f_lineno == test_line:
            tried += 1
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        ShanksField(Fraction(1, 10**40))
    finally:
        sys.settrace(previous)
    assert tried == 2 * 81**2 == 13_122


def test_remap_t0():
    assert remap_t0() == -3
    k = new_field(-3)
    # x^3 + 3x^2 - 1 = -x^3 f_0(1/x): the reciprocal of a root of f_0
    assert k.minpoly == (-1, 0, 3, 1)


def test_field_equality_and_descriptor():
    assert new_field(2) == new_field(Fraction(2))
    assert new_field(2).descriptor() == {"kind": "shanks", "t": "2"}
    assert new_field(Fraction(1, 2)).descriptor() == {"kind": "shanks", "t": "1/2"}


# --- arithmetic against the polynomial oracle ---------------------------------

EPS = (0, 1, 0)


def _add(*elements):
    return tuple(sum(cs) for cs in zip(*elements))


def _scale(c, a):
    return tuple(c * x for x in a)


def _rational(c):
    return (Fraction(c), Fraction(0), Fraction(0))


def _f_t(k, t, x):
    """f_t(x) = x^3 - t x^2 - (t+3) x - 1 on coordinates."""
    x2 = k.mul_coords(x, x)
    return _add(k.mul_coords(x2, x), _scale(-t, x2), _scale(-(t + 3), x), _rational(-1))


@settings(max_examples=80)
@given(rational_t, coords3, coords3)
def test_mul_matches_polynomial_oracle(t, a, b):
    k = new_field(t)
    assert k.mul_coords(a, b) == _poly_mulmod(a, b, t)


@settings(max_examples=80)
@given(rational_t, coords3)
def test_trace_matches_newton_oracle(t, a):
    k = new_field(t)
    assert k.trace_coords(a) == _oracle_trace(a, t)


@settings(max_examples=40)
@given(rational_t, coords3, coords3, coords3)
def test_mul_associative(t, a, b, c):
    k = new_field(t)
    mul = k.mul_coords
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=60)
@given(rational_t, coords3)
def test_inverse_round_trip(t, a):
    k = new_field(t)
    if not any(a):
        return
    assert k.mul_coords(a, k.inv_coords(a)) == k.one()


def test_eps_unit_with_norm_one():
    for t in (remap_t0(), 1, 2, Fraction(1, 2), -5):
        k = new_field(t)
        assert k.norm_coords(EPS) == 1
        assert k.mul_coords(EPS, k.inv_coords(EPS)) == k.one()


def test_power_reduction_eps3_eps4():
    # eps^3 = 1 + (t+3) eps + t eps^2 and the derived eps^4 line
    for t in (1, -2, Fraction(5, 3)):
        k = new_field(t)
        t = Fraction(t)
        assert k.pow_coords(EPS, 3) == (1, t + 3, t)
        assert k.pow_coords(EPS, 4) == (t, 1 + t * (t + 3), (t + 3) + t * t)


# --- Galois action -------------------------------------------------------------

def test_sigma_eps_closed_form():
    for t in (1, 2, Fraction(1, 2), -4):
        k = new_field(t)
        s = k.galois_coords(EPS)
        assert s == (-2, -(Fraction(t) + 1), 1)
        # sigma(eps) is again a root of the minimal polynomial
        assert not any(_f_t(k, Fraction(t), s))


def test_sigma_eps_is_minus_inverse_of_one_plus_eps():
    for t in (1, -5, Fraction(2, 7)):
        k = new_field(t)
        lhs = k.mul_coords(k.galois_coords(EPS), _add(k.one(), EPS))
        assert lhs == (-1, 0, 0)


@settings(max_examples=60)
@given(rational_t, coords3)
def test_sigma_order_three(t, a):
    k = new_field(t)
    sigma = k.galois_coords
    assert sigma(sigma(sigma(a))) == a


@settings(max_examples=40)
@given(rational_t, coords3, coords3)
def test_sigma_is_ring_map(t, a, b):
    k = new_field(t)
    sigma, mul = k.galois_coords, k.mul_coords
    assert sigma(mul(a, b)) == mul(sigma(a), sigma(b))
    assert sigma(_add(a, b)) == _add(sigma(a), sigma(b))


@settings(max_examples=40)
@given(rational_t, coords3)
def test_trace_is_sum_over_orbit(t, a):
    k = new_field(t)
    s = k.galois_coords(a)
    assert _add(a, s, k.galois_coords(s)) == _rational(k.trace_coords(a))


@settings(max_examples=40)
@given(rational_t, coords3)
def test_norm_is_product_over_orbit(t, a):
    k = new_field(t)
    s = k.galois_coords(a)
    prod = k.mul_coords(k.mul_coords(a, s), k.galois_coords(s))
    assert prod == _rational(k.norm_coords(a))


def test_trace_pair_is_symmetric_bilinear():
    k = new_field(3)
    tr, mul = k.trace_coords, k.mul_coords
    x, y = (1, 2, 0), (0, 1, 1)
    assert tr(mul(x, y)) == tr(mul(y, x))
    assert tr(mul(_add(x, y), y)) == tr(mul(x, y)) + tr(mul(y, y))


# --- discriminant --------------------------------------------------------------

def _derivative_at_eps(k, t):
    """f_t'(eps) = 3 eps^2 - 2t eps - (t+3)."""
    return _add(_scale(3, k.pow_coords(EPS, 2)), _scale(-2 * t, EPS), _rational(-(t + 3)))


@settings(max_examples=40)
@given(rational_t)
def test_discriminant_is_delta_squared(t):
    # disc of a monic cubic is -N(f'(eps)); for this family it must be the
    # perfect square delta^2 (the Galois-cubic signature)
    k = new_field(t)
    assert -k.norm_coords(_derivative_at_eps(k, Fraction(t))) == k.delta ** 2


def test_disc_t1_is_169():
    k = new_field(1)
    assert -k.norm_coords(_derivative_at_eps(k, Fraction(1))) == 169  # delta = 13


# --- the eps-orbit matrix --------------------------------------------------------

def test_orbit_matrix_is_singular_at_zero_parameter():
    # at t = 0 the eps-orbit is no basis, so no weights lam name an element
    assert det(ShanksField(0).orbit_matrix) == 0


@settings(max_examples=40)
@given(rational_t, coords3)
def test_bracket_round_trip(t, lam):
    k = new_field(t)
    x = bracket(t, lam)
    # the orbit is a basis: solving against it gives the weights back
    row = Matrix([list(x)]) * inverse(k.orbit_matrix)
    assert row.row(0) == tuple(Fraction(v) for v in lam)


@settings(max_examples=30, deadline=None)
@given(rational_t, coords3)
def test_bracket_is_the_weighted_orbit_of_eps(t, lam):
    # lam0 eps + lam1 eps^sigma + lam2 eps^(sigma^2), with sigma written out
    # from its definition; a round trip cannot see an orbit matrix with its
    # rows permuted, this can
    assert (Matrix([list(lam)]) * new_field(t).orbit_matrix).row(0) == bracket(t, lam)


def test_bracket_of_ones_is_trace_of_eps():
    # lambda = (1,1,1) gives eps + eps^sigma + eps^sigma^2 = Tr(eps) = t
    k = new_field(5)
    assert (Matrix([[1, 1, 1]]) * k.orbit_matrix).row(0) == (5, 0, 0)


# --- reparametrization ----------------------------------------------------------

def test_reparametrize_rejects_nonzero_trace():
    k = new_field(1)
    with pytest.raises(NonzeroTrace):
        reparametrize(k, EPS)  # Tr(eps) = t = 1


def test_reparametrize_rejects_rational():
    k = new_field(1)
    with pytest.raises(RationalInput):
        reparametrize(k, _rational(0))
    with pytest.raises(RationalInput):
        # zero trace but rational: the zero element, as a short polynomial
        reparametrize(k, (0,))


def _f_residual(v, s, t):
    """Oracle: v^3 - s v^2 - (s + 3) v in Q(eps_t), which is 1 exactly when
    v is a root of f_s."""
    v2 = _poly_mulmod(v, v, t)
    v3 = _poly_mulmod(v2, v, t)
    return [c3 - s * c2 - (s + 3) * c1 for c3, c2, c1 in zip(v3, v2, v)]


@settings(max_examples=30, deadline=None)
@given(rational_t, coords3)
# t2 = 0 is reached here (x = (-2, 1, 1)): f_0 = x^3 - 3x - 1 is irreducible,
# and the family takes it at remap_t0() since f_0(x) = -x^3 f_{-3}(1/x)
@example(Fraction(-3), (Fraction(0), Fraction(1), Fraction(1)))
def test_reparametrize_lands_in_family(t, a):
    k = new_field(t)
    # project to trace zero: a - Tr(a)/3
    x = _add(a, _rational(-k.trace_coords(a) / 3))
    if not any(x[1:]):
        return
    t2 = reparametrize(k, x)
    # the unit u = x^(sigma-1) is a root of f_{t2}: reparametrize asserts
    # it, and the oracle's arithmetic and sigma check it again here.  That
    # pins t2: f_s(u) = 0 is linear in s with the coefficient u^2 + u != 0
    u = k.mul_coords(k.galois_coords(x), k.inv_coords(x))
    assert _poly_mulmod(u, x, t) == tuple(shanks_automorphisms(t)[0](x))
    assert _f_residual(u, t2, t) == [1, 0, 0]
    # a family parameter (t != 0) of the same field: t2 with the root u, or
    # at t2 = 0 remap_t0() with the root 1/u
    if t2 == 0:
        t2, u = remap_t0(), k.inv_coords(u)
        assert _f_residual(u, t2, t) == [1, 0, 0]
    assert _in_family(t2)


def test_f_t_at_values():
    # the field's defining polynomial is f_t(x) = x^3 - t x^2 - (t+3) x - 1
    def f_t(t, x):
        return sum(c * x**i for i, c in enumerate(new_field(t).minpoly))

    assert f_t(1, 2) == 2 ** 3 - 1 * 4 - 4 * 2 - 1
    assert f_t(0, 0) == -1
    assert list(new_field(Fraction(-7, 3)).minpoly) == shanks_minpoly(Fraction(-7, 3))
