"""The chord kernels of the A3 family on x^2 + 3y^2 = delta_t, and the
unit-circle sections.

The frozen height-1 sweep below was computed by hand from the chord
construction at the base point (t + 3/2, 3/2).
"""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracelattice.a3_factory import (
    TARGET_A3,
    ConicPoint,
    _base_point,
    _chord_ints,
    _lambda_ints,
    _slope_pairs,
)
from tracelattice.errors import PointNotOnConic
from tracelattice.quadratic_a2 import _slope_basis

F = Fraction


def sweep_base(t):
    """The sweep's base point at t as the integer triple (X, Y, m)."""
    t = F(t)
    return _base_point(t.numerator, t.denominator)


def base_point(t) -> ConicPoint:
    x, y, m = sweep_base(t)
    return ConicPoint(F(x, m), F(y, m))


def on_delta_conic(t, point) -> bool:
    t = F(t)
    return point.x**2 + 3 * point.y**2 == t * t + 3 * t + 9


def chord_point(base, s) -> ConicPoint:
    """The point _chord_ints gives from the point (X, Y)/m of base along the
    rational slope s (None = vertical), taken as the pair (a, b) of s = a/b
    in lowest terms."""
    s = None if s is None else F(s)
    x, y, m = _chord_ints(base, None if s is None else (s.numerator, s.denominator))
    return ConicPoint(F(x, m), F(y, m))


def test_delta_conic_t0():
    # at t = 0 the conic is x^2 + 3y^2 = 9, through (3/2, 3/2)
    x, y, m = sweep_base(0)
    assert (x, y, m) == (3, 3, 2)
    assert x * x + 3 * y * y == 9 * m * m


def test_base_point_on_conic():
    for t in (0, 1, -4, F(1, 2), F(-7, 3)):
        p = base_point(t)
        assert p == ConicPoint(F(t) + F(3, 2), F(3, 2))
        assert on_delta_conic(t, p)
    # (2p + 3q, 3q, 2q) / gcd(2, q) at t = p/q
    assert sweep_base(F(1, 2)) == (4, 3, 2)
    assert sweep_base(F(-7, 3)) == (-5, 9, 6)


def test_second_intersection_infinity_is_vertical_flip():
    q = chord_point(sweep_base(0), None)
    assert q == ConicPoint(F(3, 2), F(-3, 2))


def test_second_intersection_requires_point_on_conic():
    # the vertical chord from (1, 1), off x^2 + 3y^2 = 13 (t = 1), lands on
    # (1, -1), off it too: the weights of every chord point check it first
    x, y, m = _chord_ints((1, 1, 1), None)
    with pytest.raises(PointNotOnConic):
        _lambda_ints(1, 1, TARGET_A3, x, y, m)


def test_height_one_sweep_at_t0():
    """Slopes {inf, 0, 1, -1} from (3/2, 3/2) on x^2 + 3y^2 = 9."""
    base = sweep_base(0)
    got = {s if s is None else F(s): chord_point(base, s) for s in (None, 0, 1, -1)}
    assert got == {
        None: (F(3, 2), F(-3, 2)),
        F(0): (F(-3, 2), F(3, 2)),
        F(1): (F(-3, 2), F(-3, 2)),
        F(-1): (F(3), F(0)),
    }


def test_tangent_slope_returns_base_point():
    # slope of the tangent at (3/2, 3/2) on x^2+3y^2=9: dy/dx = -x/(3y) = -1/3
    assert chord_point(sweep_base(0), F(-1, 3)) == base_point(0)


small_slopes = st.one_of(
    st.none(), st.fractions(min_value=-8, max_value=8, max_denominator=8)
)
family_t = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@settings(max_examples=80)
@given(family_t, small_slopes)
def test_second_intersection_stays_on_conic(t, s):
    assert on_delta_conic(t, chord_point(sweep_base(t), s))


@settings(max_examples=60)
@given(family_t, small_slopes)
def test_chord_involution(t, s):
    # drawing the same slope from the second point recovers the base point
    p0 = base_point(t)
    q = chord_point(sweep_base(t), s)
    if q == p0:
        return
    m = math.lcm(q.x.denominator, q.y.denominator)
    assert chord_point((int(q.x * m), int(q.y * m), m), s) == p0


def test_closed_formula_crosscheck():
    # independent closed form for the chord of slope s from (t+3/2, 3/2):
    # x = -((1 - 3 s^2)(t + 3/2) + 9 s) / (1 + 3 s^2), y = 3/2 + s (x - t - 3/2)
    for t in (F(0), F(1), F(-5), F(2, 3)):
        base = sweep_base(t)
        for s in (F(0), F(1), F(-2), F(3, 4), F(-7, 5)):
            x = -((1 - 3 * s * s) * (t + F(3, 2)) + 9 * s) / (1 + 3 * s * s)
            y = F(3, 2) + s * (x - t - F(3, 2))
            assert chord_point(base, s) == ConicPoint(x, y)


def test_slopes_up_to_order_and_reduction():
    got = list(_slope_pairs(2))
    assert got[0] is None
    rest = got[1:]
    # each a/b once, in lowest terms with b > 0, by b and then by a
    assert all(b > 0 and math.gcd(a, b) == 1 for a, b in rest)
    assert rest == sorted(rest, key=lambda ab: (ab[1], ab[0]))
    assert len({F(a, b) for a, b in rest}) == len(rest)
    assert (0, 1) in rest and (1, 2) in rest and (-2, 1) in rest
    # height cap: numerator and denominator bounded by 2
    assert all(abs(a) <= 2 and b <= 2 for a, b in rest)


@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(0), F(7, 3)], ids=str)
def test_slopes_give_pairwise_distinct_chord_points(t):
    # two lines through p0 meet the conic again in two different points
    for height in (1, 4, 12):
        points = _chord_points(t, height)
        assert len(set(points)) == len(points)


def _chord_points(t, height):
    # the sweep's form: p0 checked once, then each slope pair in turn
    base = sweep_base(t)
    return [
        ConicPoint(F(x, m), F(y, m))
        for x, y, m in (_chord_ints(base, slope) for slope in _slope_pairs(height))
    ]


def test_enumerate_points_is_one_chord_point_per_slope():
    # the frozen height-1 sweep at t = 0: slopes inf, -1, 0, 1 in turn
    assert _chord_points(0, 1) == [
        ConicPoint(F(3, 2), F(-3, 2)),
        ConicPoint(F(3), F(0)),
        ConicPoint(F(-3, 2), F(3, 2)),
        ConicPoint(F(-3, 2), F(-3, 2)),
    ]


def test_enumerate_points_grows_with_height():
    few = _chord_points(1, 5)
    many = _chord_points(1, 20)
    assert len(many) > len(few)
    assert set(few) <= set(many)
    assert all(on_delta_conic(1, p) for p in many)


# --- unit-circle sections -------------------------------------------------------

def unit_conic_point(s0: int, s1: int) -> ConicPoint:
    """The first basis row of the slope pair's A2 basis (_slope_basis): the
    second intersection of x^2 + 3y^2 = 1 with a line through (1, 0)."""
    (row, _), den = _slope_basis(s0, s1)
    return ConicPoint(F(row[0], den), F(row[1], den))


def test_unit_conic_frozen_values():
    assert unit_conic_point(1, 0) == (F(-1), F(0))
    assert unit_conic_point(0, 1) == (F(1), F(0))
    assert unit_conic_point(1, 1) == (F(1, 2), F(-1, 2))


@settings(max_examples=60)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_unit_conic_lands_on_unit_conic(s0, s1):
    if s0 == 0 and s1 == 0:
        return
    x, y = unit_conic_point(s0, s1)
    assert x * x + 3 * y * y == 1


@settings(max_examples=40)
@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=20))
def test_unit_conic_scale_invariant(s0, s1):
    if s0 == 0:
        return
    assert unit_conic_point(s0, s1) == unit_conic_point(3 * s0, 3 * s1)
