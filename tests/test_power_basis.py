"""Every PowerBasisField constructor against independent polynomial oracles.

ShanksField, CycField and QuadAmbient share one arithmetic; each is checked
here against the oracles' own definitions of its field: products are
polynomial products reduced by long division modulo the minimal polynomial,
traces are coordinate sums against Newton's power sums, and conjugation and
the matrices of the Galois generators are the oracles' substitutions (zeta -> zeta^k, the
sigma of the Shanks family solved from (1 + eps) sigma(eps) = -1, and the
sign flip of the radical).  The inverse is checked by the oracle product.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    CYCLOTOMIC_MINPOLY,
    _newton_sums,
    _poly_mod,
    cyclotomic_power_map,
    fraction_det,
    quadratic_automorphisms,
    shanks_automorphisms,
    shanks_minpoly,
)
from tracelattice.cyclotomic_ideals import cyc_field
from tracelattice.errors import DivisionByZero
from tracelattice.quadratic_a2 import QuadAmbient
from tracelattice.shanks_field import new_field

F = Fraction


def _identity(a):
    return [F(x) for x in a]


def _shanks(t):
    return new_field(t), shanks_minpoly(t), _identity, shanks_automorphisms(t)[:1]


def _cyclotomic(n):
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    return (
        cyc_field(n),
        CYCLOTOMIC_MINPOLY[n],
        cyclotomic_power_map(n, n - 1),
        [cyclotomic_power_map(n, k) for k in units],
    )


def _quadratic(d, sign):
    flip = quadratic_automorphisms()[0]
    return QuadAmbient(d, sign), [-sign * d, 0, 1], flip if sign < 0 else _identity, [flip]


FIELDS = {
    "shanks": st.sampled_from(
        [1, 2, -1, 0, F(1, 2), F(-1, 2), F(3, 2), F(-5, 2), F(1, 3), F(7, 4), F(-13, 2)]
    ).map(_shanks),
    "cyclotomic": st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 20, 23]).map(_cyclotomic),
    "quadratic": st.sampled_from(
        [(d, sign) for d in (1, 2, 3, 7) for sign in (-1, 1) if (d, sign) != (1, 1)]
    ).map(lambda case: _quadratic(*case)),
}

coordinate = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _product(a, b, minpoly):
    p = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p[i + j] += F(x) * F(y)
    return _poly_mod(p, minpoly)


@pytest.mark.parametrize("kind", sorted(FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_matches_polynomial_oracle(kind, data):
    field, minpoly, conj, automorphisms = data.draw(FIELDS[kind])
    n = field.degree
    assert n == len(minpoly) - 1
    a, b = (
        tuple(data.draw(st.lists(coordinate, min_size=n, max_size=n))) for _ in range(2)
    )
    assert list(field.mul_coords(a, b)) == _product(a, b, minpoly)
    sums = _newton_sums(minpoly)
    assert field.trace_coords(a) == sum(x * s for x, s in zip(a, sums))
    assert list(field.conj_coords(a)) == conj(a)
    matrices = field.galois_matrices()
    assert len(matrices) == len(automorphisms)
    for s, oracle in zip(matrices, automorphisms):
        # row i of S is the image of x^i, so a maps to a S
        assert [sum(x * s[i, j] for i, x in enumerate(a)) for j in range(n)] == oracle(a)
    one = [F(1)] + [F(0)] * (n - 1)
    times_a = [_product(a, [F(int(i == j)) for j in range(n)], minpoly) for i in range(n)]
    if fraction_det(times_a) == 0:
        with pytest.raises(DivisionByZero):
            field.inv_coords(a)
    else:
        assert _product(a, field.inv_coords(a), minpoly) == one
