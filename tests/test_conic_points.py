"""Chord parametrization of x^2 + 3y^2 = m and the unit-circle sections.

The frozen height-1 sweep below was computed by hand from the chord
construction at the base point (t + 3/2, 3/2).
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracelattice.conic_points import (
    INFINITY_SLOPE,
    Conic,
    ConicPoint,
    base_point_delta,
    delta_conic,
    enumerate_points,
    second_intersection,
    unit_conic_point,
    slopes_up_to,
)
from tracelattice.errors import PointNotOnConic, ZeroSlopePair

F = Fraction


def test_delta_conic_t0():
    c = delta_conic(0)
    assert (c.D, c.m) == (3, 9)


def test_base_point_on_conic():
    for t in (0, 1, -4, F(1, 2), F(-7, 3)):
        c = delta_conic(t)
        p = base_point_delta(t)
        assert p == ConicPoint(F(t) + F(3, 2), F(3, 2))
        assert c.contains(p)


def test_contains_and_residual():
    c = Conic(3, 9)
    assert c.contains(ConicPoint(3, 0))
    assert not c.contains(ConicPoint(1, 1))
    assert c.residual(ConicPoint(1, 1)) == 4 - 9


def test_second_intersection_infinity_is_vertical_flip():
    c = delta_conic(0)
    p0 = base_point_delta(0)
    q = second_intersection(c, p0, INFINITY_SLOPE)
    assert q == ConicPoint(F(3, 2), F(-3, 2))


def test_second_intersection_requires_point_on_conic():
    c = delta_conic(0)
    with pytest.raises(PointNotOnConic):
        second_intersection(c, ConicPoint(1, 1), INFINITY_SLOPE)


def test_height_one_sweep_at_t0():
    """Slopes {inf, 0, 1, -1} from (3/2, 3/2) on x^2 + 3y^2 = 9."""
    c = delta_conic(0)
    p0 = base_point_delta(0)
    got = {
        s if s is None else F(s): second_intersection(c, p0, s).as_pair()
        for s in (None, 0, 1, -1)
    }
    assert got == {
        None: (F(3, 2), F(-3, 2)),
        F(0): (F(-3, 2), F(3, 2)),
        F(1): (F(-3, 2), F(-3, 2)),
        F(-1): (F(3), F(0)),
    }


def test_tangent_slope_returns_base_point():
    # slope of the tangent at (3/2, 3/2) on x^2+3y^2=9: dy/dx = -x/(3y) = -1/3
    c = delta_conic(0)
    p0 = base_point_delta(0)
    assert second_intersection(c, p0, F(-1, 3)) == p0


small_slopes = st.one_of(
    st.none(), st.fractions(min_value=-8, max_value=8, max_denominator=8)
)
family_t = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@settings(max_examples=80)
@given(family_t, small_slopes)
def test_second_intersection_stays_on_conic(t, s):
    c = delta_conic(t)
    p0 = base_point_delta(t)
    q = second_intersection(c, p0, s)
    assert c.residual(q) == 0


@settings(max_examples=60)
@given(family_t, small_slopes)
def test_chord_involution(t, s):
    # drawing the same slope from the second point recovers the base point
    c = delta_conic(t)
    p0 = base_point_delta(t)
    q = second_intersection(c, p0, s)
    if q == p0:
        return
    assert second_intersection(c, q, s) == p0


def test_closed_formula_crosscheck():
    # independent closed form for the chord of slope s from (t+3/2, 3/2):
    # x = -((1 - 3 s^2)(t + 3/2) + 9 s) / (1 + 3 s^2), y = 3/2 + s (x - t - 3/2)
    for t in (F(0), F(1), F(-5), F(2, 3)):
        c = delta_conic(t)
        p0 = base_point_delta(t)
        for s in (F(0), F(1), F(-2), F(3, 4), F(-7, 5)):
            x = -((1 - 3 * s * s) * (t + F(3, 2)) + 9 * s) / (1 + 3 * s * s)
            y = F(3, 2) + s * (x - t - F(3, 2))
            assert second_intersection(c, p0, s) == ConicPoint(x, y)


def test_slopes_up_to_order_and_reduction():
    got = list(slopes_up_to(2))
    assert got[0] is INFINITY_SLOPE
    rest = got[1:]
    assert all(isinstance(s, Fraction) for s in rest)
    assert len(set(rest)) == len(rest)
    assert F(0) in rest and F(1, 2) in rest and F(-2) in rest
    # height cap: numerator and denominator bounded by 2
    assert all(abs(s.numerator) <= 2 and s.denominator <= 2 for s in rest)


@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(0), F(7, 3)], ids=str)
def test_slopes_give_pairwise_distinct_chord_points(t):
    # two lines through p0 meet the conic again in two different points
    c = delta_conic(t)
    p0 = base_point_delta(t)
    for height in (1, 4, 12):
        points = [second_intersection(c, p0, s) for s in slopes_up_to(height)]
        assert len(set(points)) == len(points)


@settings(max_examples=100)
@given(
    st.fractions(min_value=F(1, 7), max_value=9, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    small_slopes,
)
def test_second_intersection_on_any_ellipse(big_d, x0, y0, s):
    # a rational D and a base point of mixed denominators, against the
    # Fraction chord formula
    if x0 == 0 and y0 == 0:
        return
    c = Conic(big_d, x0 * x0 + big_d * y0 * y0)
    p0 = ConicPoint(x0, y0)
    q = second_intersection(c, p0, s)
    if s is None:
        assert q == ConicPoint(x0, -y0)
    else:
        tau = -2 * (x0 + big_d * s * y0) / (1 + big_d * s * s)
        assert q == ConicPoint(x0 + tau, y0 + s * tau)
    assert c.residual(q) == 0


def test_enumerate_points_is_one_chord_point_per_slope():
    # the frozen height-1 sweep at t = 0: slopes inf, -1, 0, 1 in turn
    assert enumerate_points(delta_conic(0), base_point_delta(0), 1) == [
        ConicPoint(F(3, 2), F(-3, 2)),
        ConicPoint(F(3), F(0)),
        ConicPoint(F(-3, 2), F(3, 2)),
        ConicPoint(F(-3, 2), F(-3, 2)),
    ]
    for t, height in ((1, 4), (-2, 4), (F(1, 3), 16)):
        c, p0 = delta_conic(t), base_point_delta(t)
        pts = enumerate_points(c, p0, height)
        assert pts == [second_intersection(c, p0, s) for s in slopes_up_to(height)]
        assert len(set(pts)) == len(pts)


def test_enumerate_points_grows_with_height():
    c = delta_conic(1)
    p0 = base_point_delta(1)
    few = enumerate_points(c, p0, 5)
    many = enumerate_points(c, p0, 20)
    assert len(many) > len(few)
    assert set(few) <= set(many)
    assert all(c.residual(p) == 0 for p in many)


# --- unit-circle sections -------------------------------------------------------

def test_unit_conic_zero_pair_rejected():
    with pytest.raises(ZeroSlopePair):
        unit_conic_point(0, 0)


def test_unit_conic_frozen_values():
    assert unit_conic_point(1, 0).as_pair() == (F(-1), F(0))
    assert unit_conic_point(0, 1).as_pair() == (F(1), F(0))
    assert unit_conic_point(1, 1).as_pair() == (F(1, 2), F(-1, 2))


@settings(max_examples=60)
@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
)
def test_unit_conic_lands_on_unit_conic(s0, s1):
    if s0 == 0 and s1 == 0:
        return
    x, y = unit_conic_point(s0, s1).as_pair()
    assert x * x + 3 * y * y == 1


@settings(max_examples=40)
@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=20))
def test_unit_conic_scale_invariant(s0, s1):
    if s0 == 0:
        return
    assert unit_conic_point(s0, s1) == unit_conic_point(3 * s0, 3 * s1)
