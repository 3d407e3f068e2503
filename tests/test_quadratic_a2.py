"""A2 lattices in Q(sqrt(+-d)): the d = 3 slope family, the normal-basis
lattice, and the bounded falsifier for other d.

The slope family's basis is (z, z omega) for the norm-one point z of the
slope pair, omega = (-1 + sqrt(-3))/2 acting on coordinates as
(x, y) -> (-x - 3y, x - y)/2.  At (1, 0) the spanned lattice also admits
the basis ((-1, 0), (1/2, 1/2)), and the two are compared as lattices, not
as row tuples; the other root z omega^2 = -z - z omega of the pairing
equations spans the same lattice.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import a2_family_by_full_build, a2_witness_by_search, norm_one_points_by_scan
from tracelattice import lattice_core, quadratic_a2
from tracelattice.exact_linalg import Matrix
from tracelattice.lattice_core import (
    TraceLattice,
    canonical_key,
    classify_root_type,
    galois_stable,
)
from tracelattice.quadratic_a2 import (
    A2_GRAM,
    D_CAP,
    QuadAmbient,
    _certified_a2,
    _norm_one_points,
    _slope_basis,
    falsify_a2,
    family_distinctness,
    normal_a2,
    normal_basis_search,
)
from tracelattice.serialize import lattice_json

F = Fraction


def slope_lattice(s0, s1, sign=-1):
    """The A2 lattice of the slope pair: _slope_basis's integer rows over
    their denominator, certified by _certified_a2."""
    return _certified_a2(Matrix.scaled(*_slope_basis(s0, s1)), QuadAmbient(3, sign))


def times_omega(point):
    """(x, y) -> (-x - 3y, x - y)/2: x + y sqrt(-3) times (-1 + sqrt(-3))/2."""
    x, y = point
    return ((-x - 3 * y) / 2, (x - y) / 2)


def fraction_points(d, height):
    """_norm_one_points' triples (a, k, m) as the points (a/m, k/m)."""
    return [(F(a, m), F(k, m)) for a, k, m in _norm_one_points(d, height)]


def _pair(field, a, b):
    """Tr(a conj(b)) read off the trace form T as a T b^T, the way gram_of
    makes every Gram entry."""
    return (Matrix([list(a)]) * field.trace_form() * Matrix([list(b)]).transpose()).data[0][0]


def _norm_one_oracle(d: int, height: int) -> list[tuple[Fraction, Fraction]]:
    """Quartic-loop enumeration of x^2 + d y^2 = 1 with both heights bounded.

    Redundant on purpose: no lowest-terms shortcut, no divisibility filter."""
    out = set()
    for m in range(1, height + 1):
        for a in range(-m, m + 1):
            for k in range(1, height + 1):
                for b in range(-k, k + 1):
                    x = F(a, m)
                    y = F(b, k)
                    if x * x + d * y * y != 1:
                        continue
                    if max(abs(x.numerator), x.denominator) > height:
                        continue
                    if max(abs(y.numerator), y.denominator) > height:
                        continue
                    out.add((x, y))
    return sorted(out)


# ---------------------------------------------------------------------------
# ambient arithmetic


def test_ambient_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QuadAmbient(4)
    with pytest.raises(ValueError):
        QuadAmbient(12)
    with pytest.raises(ValueError):
        QuadAmbient(0)
    with pytest.raises(ValueError):
        QuadAmbient(3, sign=2)


def test_real_d_one_is_not_a_field():
    # x^2 - 1 = (x - 1)(x + 1): Q x Q has zero divisors
    with pytest.raises(ValueError, match="reducible"):
        QuadAmbient(1, 1)
    with pytest.raises(ValueError, match="reducible"):
        falsify_a2(1, 3, sign=1)
    assert QuadAmbient(1, -1).degree == 2


def test_ambient_equality_and_descriptor():
    a = QuadAmbient(3, -1)
    assert a == QuadAmbient(3, -1)
    assert a != QuadAmbient(3, 1)
    assert a != QuadAmbient(7, -1)
    assert hash(a) == hash(QuadAmbient(3, -1))
    assert a.descriptor() == {"kind": "quad", "d": 3, "sign": -1}
    with pytest.raises(AttributeError):
        a.d = 5


def test_conjugation_by_sign():
    imag = QuadAmbient(3, -1)
    real = QuadAmbient(3, 1)
    # Tr(sqrt(-3) conj(sqrt(-3))) = Tr(3) = 6 only if conjugation flips the
    # radical; Tr(sqrt(3) sqrt(3)) = 6 with no conjugation at all
    pairing = Matrix.from_rows([[2, 0], [0, 6]])
    assert imag.trace_form() == real.trace_form() == pairing
    # the one nontrivial automorphism flips the radical either way
    flip = Matrix.from_rows([[1, 0], [0, -1]])
    assert imag.galois_matrices() == (flip,)
    assert real.galois_matrices() == (flip,)


def test_multiplication_tracks_radicand_sign():
    imag = QuadAmbient(3, -1)
    real = QuadAmbient(3, 1)
    # (1 + r)(1 - r) = 1 - r^2
    assert imag.mul_coords((1, 1), (1, -1)) == (F(4), F(0))
    assert real.mul_coords((1, 1), (1, -1)) == (F(-2), F(0))
    assert imag.trace_coords((F(7, 2), F(99))) == 7


def test_pairing_frozen_values():
    ambient = QuadAmbient(3, -1)
    b1 = (F(-1), F(0))
    b2 = (F(1, 2), F(-1, 2))
    assert _pair(ambient, b1, b1) == 2
    assert _pair(ambient, b2, b2) == 2
    assert _pair(ambient, b1, b2) == -1
    # identical values in the real field: the d-term lands with + either way
    real = QuadAmbient(3, 1)
    assert _pair(real, b1, b2) == -1


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.sampled_from([-1, 1]),
)
@settings(max_examples=60)
def test_pairing_is_symmetric_bilinear(a, b, sign):
    ambient = QuadAmbient(3, sign)
    assert _pair(ambient, a, b) == _pair(ambient, b, a)
    twice = (2 * a[0], 2 * a[1])
    assert _pair(ambient, twice, b) == 2 * _pair(ambient, a, b)


# ---------------------------------------------------------------------------
# the d = 3 slope family


def test_example_slopes_1_0_branch_plus_same_lattice():
    lattice = slope_lattice(1, 0)
    assert lattice.basis.data[0] == (F(-1), F(0))
    # second row is the mirror of ((1/2, 1/2)); the span is unchanged
    assert lattice.basis.data[1] == (F(1, 2), F(-1, 2))
    other = TraceLattice.from_rows(
        QuadAmbient(3, -1), [(F(-1), F(0)), (F(1, 2), F(1, 2))]
    )
    assert canonical_key(lattice) == canonical_key(other)
    assert other.gram == A2_GRAM


def test_branches_span_the_same_lattice():
    # the two second points of norm one pairing -1 with z are z omega and
    # z omega^2 = -z - z omega (1 + omega + omega^2 = 0), and either one
    # presents the same lattice, Z[omega] z
    for s0, s1 in ((2, 1), (1, 1), (3, -2), (5, 4)):
        for sign in (-1, 1):
            plus = slope_lattice(s0, s1, sign)
            z, z_omega = plus.basis.data
            assert times_omega(z) == z_omega
            z_omega2 = times_omega(z_omega)
            assert z_omega2 == (-z[0] - z_omega[0], -z[1] - z_omega[1])
            minus = TraceLattice.from_rows(plus.ambient, [z, z_omega2])
            assert minus.gram == A2_GRAM
            assert classify_root_type(plus) == "A2"
            assert canonical_key(plus) == canonical_key(minus)


def test_zero_slope_pair_rejected(monkeypatch):
    # (0, 0) is no slope; the sweep passes over it and checks every other
    # pair once
    pairs = []
    slope_basis = quadratic_a2._slope_basis

    def recorded(s0, s1):
        pairs.append((s0, s1))
        return slope_basis(s0, s1)

    monkeypatch.setattr(quadratic_a2, "_slope_basis", recorded)
    family_distinctness(2)
    grid = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    assert sorted(pairs) == [pair for pair in grid if pair != (0, 0)]


@given(
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.sampled_from([-1, 1]),
)
@settings(max_examples=120, deadline=None)
def test_every_slope_pair_gives_a2(s0, s1, sign):
    # the constructor re-verifies both norm equations and the pairing
    if (s0, s1) == (0, 0):
        return
    lattice = slope_lattice(s0, s1, sign)
    assert lattice.gram == A2_GRAM
    assert lattice.type_tag == "A2"


def test_family_counts_frozen_and_increasing():
    c3 = len(family_distinctness(3))
    c6 = len(family_distinctness(6))
    assert (c3, c6) == (7, 25)
    assert all(classify_root_type(m) == "A2" for m in family_distinctness(3))


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("height", range(7))
def test_family_matches_full_build_oracle(height, sign):
    fam = family_distinctness(height, sign)
    expected = a2_family_by_full_build(height, sign)
    assert [(L.basis.data, L.gram.data) for L in fam] == expected
    assert all(L.type_tag == "A2" for L in fam)


def test_family_checks_every_pair_and_builds_each_lattice_once(monkeypatch):
    calls = {"pairs": 0, "grams": 0}
    slope_basis, gram_of = quadratic_a2._slope_basis, lattice_core.gram_of

    def counted_slope_basis(*args):
        calls["pairs"] += 1
        return slope_basis(*args)

    def counted_gram_of(*args):
        calls["grams"] += 1
        return gram_of(*args)

    monkeypatch.setattr(quadratic_a2, "_slope_basis", counted_slope_basis)
    monkeypatch.setattr(lattice_core, "gram_of", counted_gram_of)
    fam = family_distinctness(12)
    assert calls["pairs"] == 25 * 25 - 1 == 624
    assert calls["grams"] == len(fam) == 93


def test_family_takes_one_hnf_per_distinct_basis(monkeypatch):
    # the 624 slope pairs give 184 distinct bases; each is keyed by one
    # HNF, and building the certified lattice of a new key takes none
    calls = []
    hnf_rows = lattice_core.hnf_rows

    def counted_hnf_rows(*args, **kwargs):
        calls.append(1)
        return hnf_rows(*args, **kwargs)

    monkeypatch.setattr(lattice_core, "hnf_rows", counted_hnf_rows)
    fam = family_distinctness(12)
    assert len(fam) == 93
    assert len(calls) == 184


def test_family_builds_a_matrix_per_distinct_basis(monkeypatch):
    # a repeated basis is met as _slope_basis's integer rows over their
    # denominator: only the 184 distinct ones of the 624 pairs become a
    # Matrix.  The sweep's field is built before counting, with its trace
    # form, the one Matrix a field builds for itself
    calls = []
    scaled = Matrix.scaled.__func__
    ambient = QuadAmbient(3, -1)
    ambient.trace_form()
    monkeypatch.setattr(quadratic_a2, "QuadAmbient", lambda d, sign: ambient)

    def counted_scaled(cls, *args, **kwargs):
        calls.append(1)
        return scaled(cls, *args, **kwargs)

    monkeypatch.setattr(Matrix, "scaled", classmethod(counted_scaled))
    fam = family_distinctness(12)
    assert len(fam) == 93
    assert len(calls) == 184


def test_slope_basis_is_in_lowest_terms():
    for s0, s1 in [(1, 0), (2, -3), (-5, 4), (6, 6)]:
        rows, den = _slope_basis(s0, s1)
        assert den > 0 and gcd(den, *rows[0], *rows[1]) == 1
        basis = Matrix.scaled(rows, den)
        assert (basis.ints, basis.den) == (rows, den)
        assert slope_lattice(s0, s1).basis == basis


def test_family_height_10_meets_threshold():
    fc = family_distinctness(10)
    assert len(fc) >= 10
    keys = {canonical_key(m) for m in fc}
    assert len(keys) == len(fc)


# ---------------------------------------------------------------------------
# the normal basis


def test_normal_a2_basis_and_gram():
    lattice = normal_a2()
    assert lattice.basis.data == ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)))
    assert lattice.gram == A2_GRAM
    assert lattice.type_tag == "A2"
    # conjugation swaps the two rows, so the lattice is stable
    assert galois_stable(lattice)


def test_normal_a2_both_signs_agree_on_gram():
    assert normal_a2(sign=1).gram == normal_a2(sign=-1).gram


def test_normal_basis_search_exactly_four_sign_choices():
    found = normal_basis_search(2)
    assert found == [
        (F(-1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    ]
    ambient = QuadAmbient(3, -1)
    keys = {
        canonical_key(TraceLattice.from_rows(ambient, [(x, y), (x, -y)]))
        for x, y in found
    }
    assert len(keys) == 1


def test_normal_basis_search_empty_below_half_integers():
    assert normal_basis_search(1) == []


# ---------------------------------------------------------------------------
# norm-one point enumeration


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_norm_one_points_match_quartic_oracle(d):
    assert fraction_points(d, 8) == _norm_one_oracle(d, 8)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 11, 101, 1009, 10007])
def test_norm_one_points_match_grid_scan(d):
    # every height up to 40, then the falsify workload's 300 and a few
    # heights between, so each bound n <= 2 d height is crossed many times;
    # at d = 1009 and 10007 height^2 < d up to 31 and 100, where only
    # (+-1, 0) is left, and the second bound v <= 2 height decides
    for height in [*range(0, 41), 97, 150, 299, 300]:
        assert fraction_points(d, height) == norm_one_points_by_scan(d, height), height


@pytest.mark.parametrize("d", [2, 3, 5, 11])
def test_integer_point_order_is_the_fraction_order(d):
    # _norm_one_points sorts its integer triples by x L and y L, L the lcm
    # of the denominators: the order sorted() gives the Fraction points
    triples = _norm_one_points(d, 300)
    points = [(F(a, m), F(k, m)) for a, k, m in triples]
    assert points == sorted(points)
    assert len(set(points)) == len(points)
    assert all(F(a, m).denominator == m for a, _, m in triples)


def test_norm_one_points_always_contain_units():
    for d in (1, 2, 3, 5, 6, 7):
        pts = fraction_points(d, 1)
        assert (F(1), F(0)) in pts
        assert (F(-1), F(0)) in pts


def test_norm_one_points_rejects_non_squarefree():
    # the radicand is checked where a search starts, by the ambient
    with pytest.raises(ValueError):
        QuadAmbient(4)
    with pytest.raises(ValueError):
        falsify_a2(4, 5)


def test_radicands_are_capped_at_10_to_the_20():
    # 9999999967 * 9999999943: the squarefree test factors it within the cap
    near_cap = 99999999100000001881
    assert near_cap <= D_CAP == 10**20
    assert QuadAmbient(near_cap).d == near_cap
    assert fraction_points(near_cap, 5) == [(F(-1), F(0)), (F(1), F(0))]
    assert fraction_points(near_cap, 5) == norm_one_points_by_scan(near_cap, 5)
    for too_large in (D_CAP + 1, (10**18 + 3) * (10**18 + 9)):
        with pytest.raises(ValueError, match="at most 10"):
            QuadAmbient(too_large)
        with pytest.raises(ValueError, match="at most 10"):
            falsify_a2(too_large, 1)


def test_norm_one_points_monotone_in_height():
    small = set(fraction_points(3, 4))
    large = set(fraction_points(3, 9))
    assert small <= large


# ---------------------------------------------------------------------------
# falsification


def test_falsifier_finds_d3_witness_at_height_two():
    witness = falsify_a2(3, 2)
    assert witness is not None
    assert witness.gram == A2_GRAM
    assert classify_root_type(witness) == "A2"


@pytest.mark.parametrize("d", [1, 2, 5, 6, 7])
def test_falsifier_empty_for_other_d(d):
    assert falsify_a2(d, 50) is None


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("height", [1, 2, 13, 60])
@pytest.mark.parametrize("sign", [-1, 1])
def test_falsifier_matches_fraction_pair_search(d, height, sign):
    expected = a2_witness_by_search(d, height)
    witness = falsify_a2(d, height, sign)
    if expected is None:
        assert witness is None
        return
    assert witness is not None
    assert lattice_json(witness)["basis"] == [[str(c) for c in p] for p in expected]
    assert witness.gram == A2_GRAM


def test_falsifier_rejects_non_squarefree():
    with pytest.raises(ValueError):
        falsify_a2(8, 5)


def test_falsifier_factors_the_radicand_once(monkeypatch):
    # the near-cap semiprime: factoring it is most of a height-1 search
    calls = []
    kernel = quadratic_a2.squarefree_kernel

    def counted_kernel(n):
        calls.append(n)
        return kernel(n)

    monkeypatch.setattr(quadratic_a2, "squarefree_kernel", counted_kernel)
    d = 9999999967 * 9999999943
    assert falsify_a2(d, 1) is None
    assert calls == [d]


@pytest.mark.parametrize(
    "d, sign, message",
    [
        (0, -1, "d must be a squarefree positive integer, got 0"),
        (12, 1, "d must be a squarefree positive integer, got 12"),
        (12, 0, "d must be a squarefree positive integer, got 12"),
        (D_CAP + 1, -1, "d must be at most 10^20, got 100000000000000000001"),
        (1, 1, "x^2 - 1 is reducible, so d = 1 needs sign -1"),
        (5, 0, "sign must be +1 (real) or -1 (imaginary)"),
    ],
    ids=["zero", "square-factor", "square-factor-bad-sign", "above-cap", "real-one", "bad-sign"],
)
def test_falsifier_rejects_bad_radicand_or_sign(d, sign, message):
    # the radicand is checked before the sign, as QuadAmbient orders its
    # checks
    with pytest.raises(ValueError) as exc:
        falsify_a2(d, 3, sign)
    assert str(exc.value) == message
