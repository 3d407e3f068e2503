"""Normal-basis lattice families: closed forms vs. field arithmetic.

The oracle for the (d, e) closed forms is direct trace computation on field
elements; the polynomial layer underneath was itself oracle-tested.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import family_by_full_build, shanks_automorphisms
from tracelattice.a3_factory import (
    NORMAL_A3_GRAM,
    STANDARD_A3_GRAM,
    TARGET_A3,
    TARGET_SELF_DUAL,
    TraceTarget,
    generate_family,
    identity_to_a3_transform,
    lambda_from_point,
    lq,
    normal_basis_lattice,
    scan_family,
    self_dual_family,
    to_a3_basis,
    trace_targets_of,
)
from tracelattice.conic_points import ConicPoint, base_point_delta, delta_conic, enumerate_points
from tracelattice.errors import (
    DegenerateLambda,
    PointNotOnConic,
    Reducible,
    WrongGram,
    ZeroParameter,
)
from tracelattice.exact_linalg import Matrix
from tracelattice.lattice_core import (
    canonical_key,
    disc_group,
    dual,
    galois_stable,
    is_even,
    lattice_equal,
    short_vectors,
)
from tracelattice.shanks_field import Reducible as _Reducible  # same class
from tracelattice.shanks_field import bracket, mul, new_field, sigma, trace

F = Fraction

good_t = st.fractions(min_value=-15, max_value=15, max_denominator=8).filter(
    lambda t: t != 0 and _constructs(t)
)

lam3 = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


def _constructs(t) -> bool:
    try:
        new_field(t)
    except Reducible:
        return False
    return True


def _field_trace_targets(t, lam):
    """Independent oracle: d and e by direct trace evaluation."""
    k = new_field(t)
    beta = bracket(k, lam)
    return (trace(mul(beta, beta)), trace(mul(beta, sigma(beta))))


# --- symmetric functions and closed forms ---------------------------------------

def test_lq_frozen():
    assert lq((1, 1, 1)) == (3, 3)
    assert lq((1, 0, 0)) == (1, 0)
    assert lq((1, 2, 3)) == (6, 11)


def test_trace_targets_frozen_at_t1():
    # L = 3, Q = 3: d = 9*(t^2+2t+6) - 6 delta, e = -9(t+3) + 3 delta
    assert trace_targets_of(1, (1, 1, 1)) == (3, 3)
    assert trace_targets_of(1, (0, 0, 0)) == (0, 0)


def test_trace_targets_zero_parameter():
    with pytest.raises(ZeroParameter):
        trace_targets_of(0, (1, 2, 3))


@settings(max_examples=100, deadline=None)
@given(good_t, lam3)
def test_trace_targets_match_field_arithmetic(t, lam):
    assert trace_targets_of(t, lam) == _field_trace_targets(t, lam)


# --- weight recovery from conic points -------------------------------------------

def test_lambda_at_base_point_t1():
    lam = lambda_from_point(1, TARGET_A3, base_point_delta(1))
    assert lam == (F(31, 39), F(28, 39), F(19, 39))
    assert trace_targets_of(1, lam) == (2, 1)


def test_lambda0_closed_forms_for_both_presets():
    # f = 2: lam0 = (2/3)(x/delta + 1/t);  f = 1: lam0 = (2/3)(x/delta + 1/2t)
    for t in (F(1), F(2), F(-4), F(1, 2)):
        delta = t * t + 3 * t + 9
        c = delta_conic(t)
        for p in enumerate_points(c, base_point_delta(t), 3):
            x = p.as_pair()[0]
            lam = lambda_from_point(t, TARGET_A3, p)
            assert lam[0] == F(2, 3) * (x / delta + 1 / t)
            lam_sd = lambda_from_point(t, TARGET_SELF_DUAL, p)
            assert lam_sd[0] == F(2, 3) * (x / delta + 1 / (2 * t))


def test_lambda_split_consistency():
    # the quadratic-root recovery: t^2 (lam1 - lam2)^2 equals the chord
    # discriminant (2ty/delta)^2, i.e. lam1 - lam2 = 2y/delta exactly
    for t in (F(1), F(3), F(-2)):
        delta = t * t + 3 * t + 9
        for p in enumerate_points(delta_conic(t), base_point_delta(t), 4):
            lam = lambda_from_point(t, TARGET_A3, p)
            y = p.as_pair()[1]
            assert lam[1] - lam[2] == 2 * y / delta
            assert t * t * (lam[1] - lam[2]) ** 2 == (2 * t * y / delta) ** 2


def test_lambda_rejects_off_conic_point():
    with pytest.raises(PointNotOnConic):
        lambda_from_point(1, TARGET_A3, ConicPoint(1, 1))


def test_lambda_rejects_zero_parameter():
    with pytest.raises(ZeroParameter):
        lambda_from_point(0, TARGET_A3, ConicPoint(3, 0))


def test_inconsistent_target_asserts():
    with pytest.raises(AssertionError):
        lambda_from_point(1, TraceTarget(F(2), F(1), F(5)), base_point_delta(1))


# --- lattice construction ----------------------------------------------------------

def test_normal_basis_lattice_gram_is_circulant():
    lam = lambda_from_point(1, TARGET_A3, base_point_delta(1))
    L = normal_basis_lattice(1, lam)
    assert L.gram == NORMAL_A3_GRAM


def test_normal_basis_lattice_degenerate_weights():
    # equal weights make the element rational (it equals t), so the three
    # conjugates coincide
    with pytest.raises(DegenerateLambda):
        normal_basis_lattice(1, (1, 1, 1))


def test_normal_basis_lattice_zero_parameter():
    # f_0 is irreducible, but at t = 0 the eps-orbit is no basis
    with pytest.raises(ZeroParameter):
        normal_basis_lattice(0, (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(good_t, lam3)
def test_normal_basis_lattice_rows_are_the_sigma_orbit_of_beta(t, lam):
    # beta and its conjugates from the oracle's sigma, written out from
    # eps^sigma = -1/(1+eps), independently of the field's orbit matrix
    sig, sig2 = shanks_automorphisms(t)
    eps = [F(0), F(1), F(0)]
    orbit = (eps, sig(eps), sig2(eps))
    beta = [sum(F(w) * v[i] for w, v in zip(lam, orbit)) for i in range(3)]
    try:
        L = normal_basis_lattice(t, lam)
    except DegenerateLambda:
        return
    assert [list(row) for row in L.basis.data] == [beta, sig(beta), sig2(beta)]


@settings(max_examples=60, deadline=None)
@given(good_t, lam3)
def test_cyclic_shifts_of_lam_rotate_the_basis_rows(t, lam):
    # sigma shifts the weights, so each shift of lam spans the same lattice
    # with the rows rotated: scan_family builds one lattice per shift class
    try:
        L = normal_basis_lattice(t, lam)
    except DegenerateLambda:
        for shifted in (lam[2:] + lam[:2], lam[1:] + lam[:1]):
            with pytest.raises(DegenerateLambda):
                normal_basis_lattice(t, shifted)
        return
    rows = list(L.basis.data)
    key = canonical_key(L)
    for k, shifted in ((1, lam[2:] + lam[:2]), (2, lam[1:] + lam[:1])):
        M = normal_basis_lattice(t, shifted)
        assert list(M.basis.data) == rows[k:] + rows[:k]
        assert M.gram == L.gram
        assert canonical_key(M) == key


def test_to_a3_basis_round_trip():
    lam = lambda_from_point(2, TARGET_A3, base_point_delta(2))
    L = normal_basis_lattice(2, lam)
    out = to_a3_basis(L)
    assert out.gram == STANDARD_A3_GRAM
    assert lattice_equal(out, L)
    assert out.type_tag == "A3"


def test_to_a3_basis_rejects_wrong_gram():
    lam = lambda_from_point(1, TARGET_SELF_DUAL, base_point_delta(1))
    L = normal_basis_lattice(1, lam)
    with pytest.raises(WrongGram):
        to_a3_basis(L)


def test_identity_to_a3_transform():
    m = identity_to_a3_transform()
    assert m == Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert m * m.transpose() == NORMAL_A3_GRAM


# --- family sweeps -----------------------------------------------------------------

def test_generate_family_counts_at_t1():
    fam5 = generate_family(1, 5)
    assert len(fam5) >= 8
    fam10 = generate_family(1, 10)
    assert len(fam10) > len(fam5)


def test_family_members_certified():
    for L, lam0_den in generate_family(1, 4):
        assert L.type_tag == "A3"
        assert is_even(L)
        assert disc_group(L) == (1, 1, 4)
        assert galois_stable(L)
        roots = [v for v, n in short_vectors(L, 2) if n == 2]
        assert 2 * len(roots) == 12
        assert lam0_den >= 1


def test_family_pairwise_distinct():
    fam = generate_family(2, 5)
    lattices = [L for L, _ in fam]
    for i in range(len(lattices)):
        for j in range(i + 1, len(lattices)):
            assert not lattice_equal(lattices[i], lattices[j])


def test_family_counts_strictly_increase():
    for t in (1, 2, 3):
        counts = [len(generate_family(t, h)) for h in (2, 5, 10)]
        assert counts[0] < counts[1] < counts[2], (t, counts)


def test_lam0_denominators_unbounded():
    den5 = max(d for _, d in generate_family(1, 5))
    den20 = max(d for _, d in generate_family(1, 20))
    assert den20 > den5


def test_scan_family_skip_count_zero_for_presets():
    for t in (1, 2, F(1, 2)):
        assert scan_family(t, 5, TARGET_A3).skipped == 0
        assert scan_family(t, 5, TARGET_SELF_DUAL).skipped == 0


def test_scan_family_records_carry_slope_and_point():
    scan = scan_family(1, 3, TARGET_A3)
    c = delta_conic(1)
    for m in scan.members:
        assert c.residual(m.point) == 0
        assert m.lam0_denominator == m.lam[0].denominator
        assert lambda_from_point(1, TARGET_A3, m.point) == m.lam


@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_scan_family_matches_full_build_oracle(t, target):
    for height in range(9):
        scan = scan_family(t, height, target)
        members, degenerate = family_by_full_build(t, height, target)
        got = [
            (m.lam, m.point.as_pair(), m.slope, canonical_key(m.lattice))
            for m in scan.members
        ]
        assert got == members, height
        assert scan.skipped == degenerate, height


def test_self_dual_family_members():
    sd = self_dual_family(1, 5)
    assert len(sd) >= 8
    for L in sd[:6]:
        assert L.gram == Matrix.identity(3)
        assert lattice_equal(dual(L), L)
        assert galois_stable(L)
        assert L.type_tag == "unimodular_odd"


def test_family_error_paths():
    with pytest.raises(ZeroParameter):
        generate_family(0, 3)
    with pytest.raises(Reducible):
        generate_family(F(-3, 2), 3)
