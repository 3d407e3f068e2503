"""Normal-basis lattice families: closed forms vs. field arithmetic.

The oracle for the (d, e) closed forms is direct trace computation on field
elements; the polynomial layer underneath was itself oracle-tested.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bracket,
    family_by_full_build,
    shanks_automorphisms,
    shanks_minpoly,
    trace_gram,
)
from tracelattice.a3_factory import (
    NORMAL_A3_GRAM,
    STANDARD_A3_GRAM,
    TARGET_A3,
    TARGET_SELF_DUAL,
    TraceTarget,
    identity_to_a3_transform,
    lambda_from_point,
    lq,
    normal_basis_lattice,
    scan_family,
    self_dual_family,
    to_a3_basis,
    trace_targets_of,
)
from tracelattice.conic_points import (
    ConicPoint,
    base_point_delta,
    delta_conic,
    second_intersection,
    slopes_up_to,
)
from tracelattice.errors import (
    DegenerateLambda,
    PointNotOnConic,
    Reducible,
    WrongGram,
    ZeroParameter,
)
from tracelattice import a3_factory, lattice_core
from tracelattice.exact_linalg import Matrix
from tracelattice.lattice_core import (
    canonical_key,
    disc_group,
    dual,
    galois_stable,
    odd_trace_witness,
    short_vectors_gram,
)
from tracelattice.shanks_field import Reducible as _Reducible  # same class
from tracelattice.shanks_field import new_field

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
    """Independent oracle: d = Tr(beta^2) and e = Tr(beta beta^sigma) from
    the oracles' beta, sigma and trace Gram."""
    beta = bracket(t, lam)
    rows = [beta, shanks_automorphisms(t)[0](beta)]
    gram = trace_gram(shanks_minpoly(t), lambda a: a, rows)
    return (gram[0][0], gram[0][1])


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
        for s in slopes_up_to(3):
            p = second_intersection(c, base_point_delta(t), s)
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
        c = delta_conic(t)
        for s in slopes_up_to(4):
            p = second_intersection(c, base_point_delta(t), s)
            lam = lambda_from_point(t, TARGET_A3, p)
            y = p.as_pair()[1]
            assert lam[1] - lam[2] == 2 * y / delta
            assert t * t * (lam[1] - lam[2]) ** 2 == (2 * t * y / delta) ** 2


def test_lambda_rejects_off_conic_point():
    with pytest.raises(PointNotOnConic):
        lambda_from_point(1, TARGET_A3, ConicPoint(1, 1))
    # the conic's right side has 4,401 digits, past the int-to-str limit
    with pytest.raises(PointNotOnConic, match="= <4401 digits>$"):
        lambda_from_point(10**2200, TARGET_A3, ConicPoint(1, 1))


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
    with pytest.raises(DegenerateLambda, match=r"lam = \(1, 1, 1\)$"):
        normal_basis_lattice(1, (1, 1, 1))
    # numerators past the int-to-str limit are written as digit counts
    big = 10**5000 + F(1, 2)
    with pytest.raises(DegenerateLambda, match=r"lam = \((<5001 digits>/2, ){2}<5001 digits>/2\)$"):
        normal_basis_lattice(1, (big, big, big))


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
    assert canonical_key(out) == canonical_key(L)
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

def a3_members(t, height: int):
    return scan_family(t, height, TARGET_A3).members


def test_generate_family_counts_at_t1():
    fam5 = a3_members(1, 5)
    assert len(fam5) >= 8
    fam10 = a3_members(1, 10)
    assert len(fam10) > len(fam5)


def test_family_members_certified():
    for m in a3_members(1, 4):
        L = m.lattice
        assert L.type_tag == "A3"
        assert odd_trace_witness(L) is None
        assert disc_group(L) == (1, 1, 4)
        assert galois_stable(L)
        roots = [v for v, n in short_vectors_gram(L.gram, 2) if n == 2]
        assert 2 * len(roots) == 12


def test_family_pairwise_distinct():
    keys = [canonical_key(m.lattice) for m in a3_members(2, 5)]
    assert len(set(keys)) == len(keys)


def test_family_counts_strictly_increase():
    for t in (1, 2, 3):
        counts = [len(a3_members(t, h)) for h in (2, 5, 10)]
        assert counts[0] < counts[1] < counts[2], (t, counts)


def test_lam0_denominators_unbounded():
    den5 = max(m.lam[0].denominator for m in a3_members(1, 5))
    den20 = max(m.lam[0].denominator for m in a3_members(1, 20))
    assert den20 > den5


def test_scan_family_skip_count_zero_for_presets():
    for t in (1, 2, F(1, 2)):
        assert scan_family(t, 5, TARGET_A3).skipped == 0
        assert scan_family(t, 5, TARGET_SELF_DUAL).skipped == 0


def test_scan_family_records_carry_slope_and_point():
    scan = scan_family(1, 3, TARGET_A3)
    c = delta_conic(1)
    for m in scan.members:
        assert c.contains(m.point)
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


def test_to_a3_basis_keeps_the_key_of_every_member():
    # the sweep leaves the base change out: P is integral with det 1, so
    # P B spans the lattice of B, and P G P^T is the standard Gram
    for m in a3_members(1, 5):
        out = to_a3_basis(m.lattice)
        assert out.gram == STANDARD_A3_GRAM
        assert canonical_key(out) == canonical_key(m.lattice)


@pytest.mark.parametrize(
    "t, target", [(F(1), TARGET_A3), (F(-5, 2), TARGET_SELF_DUAL)], ids=["A3", "self-dual"]
)
def test_scan_family_takes_one_hnf_per_built_lattice(t, target, monkeypatch):
    # every lattice built is keyed by one HNF; the classifier's certificate
    # adds one for the one Gram a sweep classifies, and no member needs an
    # inverse (the self-dual certificate is the identity Gram itself)
    calls = {"hnf_rows": 0, "inverse": 0, "built": 0}

    def counted(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(lattice_core, "hnf_rows", "hnf_rows")
    counted(lattice_core, "inverse", "inverse")
    counted(a3_factory, "normal_basis_lattice", "built")
    lattice_core.classify_gram.cache_clear()
    scan = scan_family(t, 16, target)
    assert len(scan.members) == calls["built"] == 222
    assert calls["hnf_rows"] == calls["built"] + 1
    assert calls["inverse"] == 0


def test_self_dual_family_members():
    sd = self_dual_family(1, 5)
    assert len(sd) >= 8
    for L in sd[:6]:
        assert L.gram == Matrix.identity(3)
        assert canonical_key(dual(L)) == canonical_key(L)
        assert galois_stable(L)
        assert L.type_tag == "unimodular_odd"


def test_family_error_paths():
    with pytest.raises(ZeroParameter):
        a3_members(0, 3)
    with pytest.raises(Reducible):
        a3_members(F(-3, 2), 3)
