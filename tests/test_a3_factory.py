"""Normal-basis lattice families: closed forms vs. field arithmetic.

The oracle for the (d, e) closed forms is direct trace computation on field
elements; the polynomial layer underneath was itself oracle-tested.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bracket,
    chord_point_by_fractions,
    family_by_full_build,
    shanks_automorphisms,
    shanks_minpoly,
    trace_gram,
    weights_by_fractions,
)
from tracelattice.a3_factory import (
    NORMAL_A3_GRAM,
    STANDARD_A3_GRAM,
    TARGET_A3,
    TARGET_SELF_DUAL,
    ConicPoint,
    TraceTarget,
    _base_point,
    _check_sigma_isometry,
    _chord_ints,
    _circulant_gram,
    _lambda_ints,
    _orbit_lattice,
    _slope_pairs,
    scan_family,
    sigma_permutes_basis,
    to_a3_basis,
)
from tracelattice.errors import (
    DegenerateLambda,
    PointNotOnConic,
    Reducible,
    WrongGram,
    ZeroParameter,
)
from tracelattice import a3_factory, exact_linalg, lattice_core
from tracelattice.cli import main
from tracelattice.exact_linalg import Matrix
from tracelattice.lattice_core import (
    TraceLattice,
    canonical_key,
    classify_root_type,
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


def sweep_base(t):
    """The base point of the sweep at t, as the integer triple of _base_point."""
    t = F(t)
    return _base_point(t.numerator, t.denominator)


def base_point(t):
    """(t + 3/2, 3/2), the base point of every chord at t."""
    return ConicPoint(F(t) + F(3, 2), F(3, 2))


def weights(t, target, point):
    """_lambda_ints on a point given as Fractions, its weights as Fractions."""
    t = F(t)
    x, y = point
    m = math.lcm(x.denominator, y.denominator)
    *nums, r = _lambda_ints(
        t.numerator, t.denominator, target, int(x * m), int(y * m), m
    )
    return tuple(F(n, r) for n in nums)


def orbit_lattice(t, lam, gram=None):
    """_orbit_lattice on Fraction weights, as integers over their least
    common denominator; gram is by default the circulant of the oracle's
    (d, e), whose first row _orbit_lattice checks against the Gram's.

    _orbit_lattice takes a positive definite target, as the sweep's
    classified one.  Degenerate weights have a singular Gram, (d, e) with
    d = e or d + 2e = 0, which no definite target matches: they are offered
    the normal A3 Gram, and must raise DegenerateLambda."""
    lam = tuple(F(v) for v in lam)
    den = math.lcm(*(v.denominator for v in lam))
    nums = tuple(int(v * den) for v in lam)
    if gram is None:
        d, e = _field_trace_targets(t, lam)
        gram = _circulant_gram(d, e) if d != e and d + 2 * e != 0 else NORMAL_A3_GRAM
    return _orbit_lattice(new_field(t), nums, den, gram)


# --- closed forms of the trace targets -------------------------------------------

def test_trace_targets_frozen_at_t1():
    # d = (t^2+2t+6) L^2 - 2 delta Q and e = -(t+3) L^2 + delta Q at t = 1
    # (delta = 13): L = 1, Q = 0 gives (9, -4), L = 6, Q = 11 gives (38, -1)
    assert orbit_lattice(1, (1, 0, 0), _circulant_gram(9, -4)).gram == _circulant_gram(9, -4)
    assert orbit_lattice(1, (1, 2, 3), _circulant_gram(38, -1)).gram == _circulant_gram(38, -1)


def test_trace_targets_zero_parameter():
    # the one ZeroParameter message, for both presets, sends the caller to
    # the same field at t = -3
    for target in (TARGET_A3, TARGET_SELF_DUAL):
        with pytest.raises(ZeroParameter, match=r"see remap_t0\(\)$"):
            scan_family(0, 3, target)


@settings(max_examples=100, deadline=None)
@given(good_t, lam3)
def test_trace_targets_match_field_arithmetic(t, lam):
    # the Gram of the sigma-orbit lattice is the circulant of (d, e, e),
    # with d and e from the oracle's field arithmetic
    try:
        L = orbit_lattice(t, lam)
    except DegenerateLambda:
        return
    assert L.gram == _circulant_gram(*_field_trace_targets(t, lam))


# --- weight recovery from conic points -------------------------------------------

def test_lambda_at_base_point_t1():
    lam = weights(1, TARGET_A3, base_point(1))
    assert lam == (F(31, 39), F(28, 39), F(19, 39))
    assert _field_trace_targets(1, lam) == (2, 1)


def _sweep_points(t, height):
    """Every chord point of the sweep at t as (X, Y, M), and as Fractions."""
    base = sweep_base(t)
    for slope in _slope_pairs(height):
        x, y, m = _chord_ints(base, slope)
        yield (x, y, m), (F(x, m), F(y, m))


def test_lambda0_closed_forms_for_both_presets():
    # f = 2: lam0 = (2/3)(x/delta + 1/t);  f = 1: lam0 = (2/3)(x/delta + 1/2t)
    for t in (F(1), F(2), F(-4), F(1, 2)):
        delta = t * t + 3 * t + 9
        for ints, (x, _) in _sweep_points(t, 3):
            n0, _, _, r = _lambda_ints(t.numerator, t.denominator, TARGET_A3, *ints)
            assert F(n0, r) == F(2, 3) * (x / delta + 1 / t)
            n0, _, _, r = _lambda_ints(t.numerator, t.denominator, TARGET_SELF_DUAL, *ints)
            assert F(n0, r) == F(2, 3) * (x / delta + 1 / (2 * t))


def test_lambda_split_consistency():
    # the quadratic-root recovery: t^2 (lam1 - lam2)^2 equals the chord
    # discriminant (2ty/delta)^2, i.e. lam1 - lam2 = 2y/delta exactly
    for t in (F(1), F(3), F(-2)):
        delta = t * t + 3 * t + 9
        for ints, (_, y) in _sweep_points(t, 4):
            _, n1, n2, r = _lambda_ints(t.numerator, t.denominator, TARGET_A3, *ints)
            split = F(n1 - n2, r)
            assert split == 2 * y / delta
            assert t * t * split**2 == (2 * t * y / delta) ** 2


def test_lambda_rejects_off_conic_point():
    with pytest.raises(PointNotOnConic):
        _lambda_ints(1, 1, TARGET_A3, 1, 1, 1)
    # the conic's right side has 4,401 digits, past the int-to-str limit
    with pytest.raises(PointNotOnConic, match="= <4401 digits>$"):
        _lambda_ints(10**2200, 1, TARGET_A3, 1, 1, 1)


def test_lambda_rejects_zero_parameter(monkeypatch):
    # the weights divide by t: a sweep at t = 0 stops before it takes any
    calls = []
    kernel = a3_factory._lambda_ints

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(a3_factory, "_lambda_ints", counted)
    with pytest.raises(ZeroParameter):
        scan_family(0, 3, TARGET_A3)
    assert calls == []


def test_inconsistent_target_asserts():
    bad = TraceTarget(2, 1, 5)
    with pytest.raises(AssertionError):
        scan_family(1, 1, bad)
    # on the delta conic (d - e = 1) the kernel's own checks catch it
    with pytest.raises(AssertionError):
        _lambda_ints(1, 1, bad, *_chord_ints(sweep_base(1), None))


def test_preset_targets_given_as_fractions_sweep_alike():
    # the gate takes a preset by value, whatever its number type, and the
    # kernel gets its integers; (1, 0, -1) is the other self-dual target
    for target in (TARGET_A3, TARGET_SELF_DUAL, TraceTarget(1, 0, -1)):
        as_fractions = TraceTarget(*map(F, target))
        expected = scan_family(F(-1, 2), 4, target)
        got = scan_family(F(-1, 2), 4, as_fractions)
        assert [(m.lam, m.point, m.slope) for m in got.members] == [
            (m.lam, m.point, m.slope) for m in expected.members
        ]
        assert [canonical_key(m.lattice) for m in got.members] == [
            canonical_key(m.lattice) for m in expected.members
        ]


# --- lattice construction ----------------------------------------------------------

def test_normal_basis_lattice_gram_is_circulant():
    lam = weights(1, TARGET_A3, base_point(1))
    L = orbit_lattice(1, lam, NORMAL_A3_GRAM)
    assert L.gram == NORMAL_A3_GRAM


def test_normal_basis_lattice_degenerate_weights():
    # equal weights make the element rational (it equals t), so the three
    # conjugates coincide
    field = new_field(1)
    with pytest.raises(DegenerateLambda, match=r"lam = \(1, 1, 1\)$"):
        _orbit_lattice(field, (1, 1, 1), 1, NORMAL_A3_GRAM)
    # numerators past the int-to-str limit are written as digit counts
    big = 2 * 10**5000 + 1
    with pytest.raises(DegenerateLambda, match=r"lam = \((<5001 digits>/2, ){2}<5001 digits>/2\)$"):
        _orbit_lattice(field, (big, big, big), 2, NORMAL_A3_GRAM)


def test_normal_basis_lattice_zero_parameter():
    # f_0 is irreducible, but Tr(eps) = t = 0 makes the eps-orbit dependent,
    # so no weights give a basis at t = 0
    with pytest.raises(DegenerateLambda):
        _orbit_lattice(new_field(0), (1, 2, 3), 1, NORMAL_A3_GRAM)


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
        L = orbit_lattice(t, lam)
    except DegenerateLambda:
        return
    assert [list(row) for row in L.basis.data] == [beta, sig(beta), sig2(beta)]


@settings(max_examples=60, deadline=None)
@given(good_t, lam3)
def test_cyclic_shifts_of_lam_rotate_the_basis_rows(t, lam):
    # sigma shifts the weights, so each shift of lam spans the same lattice
    # with the rows rotated: scan_family builds one lattice per shift class
    try:
        L = orbit_lattice(t, lam)
    except DegenerateLambda:
        for shifted in (lam[2:] + lam[:2], lam[1:] + lam[:1]):
            with pytest.raises(DegenerateLambda):
                orbit_lattice(t, shifted)
        return
    rows = list(L.basis.data)
    key = canonical_key(L)
    for k, shifted in ((1, lam[2:] + lam[:2]), (2, lam[1:] + lam[:1])):
        M = orbit_lattice(t, shifted, L.gram)
        assert list(M.basis.data) == rows[k:] + rows[:k]
        assert M.gram == L.gram
        assert canonical_key(M) == key


def test_to_a3_basis_round_trip():
    lam = weights(2, TARGET_A3, base_point(2))
    L = orbit_lattice(2, lam, NORMAL_A3_GRAM)
    out = to_a3_basis(L)
    assert out.gram == STANDARD_A3_GRAM
    assert canonical_key(out) == canonical_key(L)
    assert out.type_tag == "A3"


def test_to_a3_basis_rejects_wrong_gram():
    lam = weights(1, TARGET_SELF_DUAL, base_point(1))
    L = orbit_lattice(1, lam, Matrix.identity(3))
    with pytest.raises(WrongGram):
        to_a3_basis(L)


def test_identity_to_a3_transform():
    # the 0/1 circulant with zero diagonal carries the identity Gram to the
    # normal A3 Gram, so every self-dual member doubles into an A3 lattice
    # over the same field, still with a sigma-orbit basis
    m = Matrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert m * m.transpose() == NORMAL_A3_GRAM
    for member in scan_family(1, 3, TARGET_SELF_DUAL).members:
        doubled = TraceLattice(member.lattice.ambient, m * member.lattice.basis)
        assert doubled.gram == NORMAL_A3_GRAM
        assert classify_root_type(doubled) == "A3"
        assert sigma_permutes_basis(doubled)


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
    base = sweep_base(1)
    for m in scan.members:
        # on x^2 + 3y^2 = delta_1 = 13
        assert m.point.x**2 + 3 * m.point.y**2 == 13
        slope = None if m.slope is None else (m.slope.numerator, m.slope.denominator)
        x, y, big_m = _chord_ints(base, slope)
        assert m.point == ConicPoint(F(x, big_m), F(y, big_m))
        assert weights(1, TARGET_A3, m.point) == m.lam


@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
def test_scan_family_members_share_the_target_gram(target):
    # each member's computed Gram is checked equal to the target's and
    # dropped: a sweep holds one Gram Matrix, not one per member
    members = scan_family(1, 6, target).members
    gram = members[0].lattice.gram
    assert gram == _circulant_gram(target.d, target.e)
    assert all(m.lattice.gram is gram for m in members)


@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_scan_family_matches_full_build_oracle(t, target):
    # the oracle dedupes by Hermite form and the sweep by sigma-rotation
    # alone, so equal lists check that the rotation key is complete; the
    # benchmark's sweeps are checked at its height 16 as well
    benchmark = (t, target) in {(F(1), TARGET_A3), (F(-5, 2), TARGET_SELF_DUAL)}
    for height in [*range(9), 16] if benchmark else range(9):
        scan = scan_family(t, height, target)
        members, degenerate = family_by_full_build(t, height, target)
        keys = [canonical_key(m.lattice) for m in scan.members]
        got = [
            (m.lam, m.point, m.slope, (key.den, key.ints))
            for m, key in zip(scan.members, keys)
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
def test_scan_family_takes_no_hnf_per_member(t, target, monkeypatch):
    # the sigma-rotation key is the whole dedupe (Z[C3]^x = +-G), so no
    # lattice built is keyed by an HNF: the one HNF is the classifier's
    # certificate for the one Gram a sweep classifies, once whatever the
    # height, and no member needs an inverse (the self-dual certificate is
    # the identity Gram itself)
    calls = {
        "hnf_rows": 0, "hnf_coords": 0, "inverse": 0, "built": 0, "points": 0,
        "classify": 0,
    }

    def counted(module, name, key):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(exact_linalg, "hnf_rows", "hnf_rows")
    counted(exact_linalg, "hnf_coords", "hnf_coords")
    counted(lattice_core, "inverse", "inverse")
    counted(a3_factory, "_orbit_lattice", "built")
    counted(a3_factory, "_lambda_ints", "points")
    counted(a3_factory, "classify_gram", "classify")
    scan = scan_family(t, 16, target)
    assert len(scan.members) == calls["built"] == 222
    assert calls["hnf_rows"] == 1
    assert calls["classify"] == 1
    assert calls["inverse"] == 0
    # the per-member Galois certificate is sigma permuting the basis, with
    # no membership test against the HNF
    assert calls["hnf_coords"] == 0
    # 98 of the 320 chord points repeat a built sigma-orbit class
    assert calls["points"] == 320
    assert calls["points"] - calls["built"] == 98


# --- the integer sweep kernels ---------------------------------------------------

slopes = st.one_of(
    st.none(),
    st.fractions(min_value=-40, max_value=40, max_denominator=40),
)


@settings(max_examples=150, deadline=None)
@given(good_t, slopes, st.sampled_from([TARGET_A3, TARGET_SELF_DUAL]))
def test_integer_kernels_match_fraction_formulas(t, s, target):
    # the chord point and the weights in int against the oracle's Fraction
    # formulas, over negative t too (R = 3pDm is negative there before the
    # reduction); (N, R) is in lowest terms with R > 0
    x, y, m = _chord_ints(sweep_base(t), None if s is None else (s.numerator, s.denominator))
    assert m > 0
    point = chord_point_by_fractions(t, s)
    assert (F(x, m), F(y, m)) == point
    n0, n1, n2, r = _lambda_ints(t.numerator, t.denominator, target, x, y, m)
    assert r > 0 and math.gcd(n0, n1, n2, r) == 1
    lam = (F(n0, r), F(n1, r), F(n2, r))
    assert lam == weights_by_fractions(t, target, *point)


def test_lambda_kernel_takes_any_common_denominator():
    # the point need not be in lowest terms: (N, R) is the same over the
    # chord's denominator 6 * 37 and over five times it
    t = F(-7, 3)
    x, y, m = _chord_ints(sweep_base(t), (2, 5))
    assert m == 6 * 37
    for target in (TARGET_A3, TARGET_SELF_DUAL):
        *nums, r = _lambda_ints(-7, 3, target, x, y, m)
        assert tuple(F(n, r) for n in nums) == weights_by_fractions(t, target, F(x, m), F(y, m))
        assert _lambda_ints(-7, 3, target, 5 * x, 5 * y, 5 * m) == (*nums, r)


@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_integer_orbit_key_dedups_as_the_fraction_key(t, target):
    # the least rotation of (N0, N1, N2) over R against the least rotation
    # of the Fraction triple: the two keys split the points alike
    base = sweep_base(t)
    old, new = [], []
    for slope in _slope_pairs(16):
        x, y, m = _chord_ints(base, slope)
        n0, n1, n2, r = _lambda_ints(t.numerator, t.denominator, target, x, y, m)
        lam = (F(n0, r), F(n1, r), F(n2, r))
        old.append(min(lam, lam[1:] + lam[:1], lam[2:] + lam[:2]))
        new.append((min((n0, n1, n2), (n1, n2, n0), (n2, n0, n1)), r))
    assert len(set(old)) == len(set(new)) == len(set(zip(old, new)))
    assert len(old) - len(set(old)) == 98


# --- sigma permuting the basis ---------------------------------------------------

@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_sigma_permutation_agrees_with_galois_stable_on_members(t, target):
    members = scan_family(t, 8, target).members
    assert members
    for m in members:
        assert sigma_permutes_basis(m.lattice)
        assert galois_stable(m.lattice)


def _member_with_rows(t, rows):
    member = scan_family(t, 3, TARGET_A3).members[1]
    basis = member.lattice.basis
    return member.lattice, TraceLattice(
        member.lattice.ambient, Matrix.scaled(rows(basis.ints), basis.den)
    )


@pytest.mark.parametrize("t", [F(1), F(-5, 2), F(7)], ids=str)
def test_sigma_permutation_rejects_swapped_rows(t):
    # the same lattice, so Galois stable, but the basis is no sigma-orbit
    lattice, swapped = _member_with_rows(t, lambda b: [b[0], b[2], b[1]])
    assert canonical_key(swapped) == canonical_key(lattice)
    assert galois_stable(swapped)
    assert not sigma_permutes_basis(swapped)


@pytest.mark.parametrize("t", [F(1), F(-5, 2), F(7)], ids=str)
def test_sigma_permutation_rejects_a_doubled_row(t):
    lattice, doubled = _member_with_rows(
        t, lambda b: [[2 * x for x in b[0]], b[1], b[2]]
    )
    assert canonical_key(doubled) != canonical_key(lattice)
    assert not sigma_permutes_basis(doubled)


@pytest.mark.parametrize("t", [F(1), F(-5, 2), F(7)], ids=str)
def test_sigma_permutation_rejects_a_row_shifted_by_a_rational(t):
    # sigma fixes 1, so adding 1/den to beta breaks the two equations that
    # involve it in their first coordinate alone
    lattice, shifted = _member_with_rows(
        t, lambda b: [[b[0][0] + 1, *b[0][1:]], b[1], b[2]]
    )
    assert sigma_permutes_basis(lattice)
    assert not sigma_permutes_basis(shifted)


class _GaloisStub:
    """A degree-3 ambient whose first Galois matrix is s, for the
    sigma_permutes_basis predicate alone."""

    degree = 3

    def __init__(self, s):
        self.s = s

    def galois_matrices(self):
        return (self.s,)


@pytest.mark.parametrize("coord", range(3))
@pytest.mark.parametrize("row", range(3))
def test_sigma_permutation_checks_every_row_and_coordinate(row, coord):
    # in a cyclic cubic field sigma^3 = 1, so any two row equations imply
    # the third: only an S of another order has a basis that fails exactly
    # one of the nine equations, here coordinate coord of row row
    s = Matrix.from_rows(
        [[2 if i == j == coord else int(i == j) for j in range(3)] for i in range(3)]
    )
    v0 = Matrix.from_rows([[1, 1, 1]])
    orbit = [v0, v0 * s, v0 * s * s]  # v2 S differs from v0 at coord alone
    rows = [orbit[(i + 2 - row) % 3].data[0] for i in range(3)]
    lattice = TraceLattice(_GaloisStub(s), Matrix.from_rows(rows), Matrix.identity(3))
    assert not sigma_permutes_basis(lattice)
    fixed = Matrix.from_rows([[1, 1, 1]] * 3)  # each row its own image under I
    lattice = TraceLattice(_GaloisStub(Matrix.identity(3)), fixed, Matrix.identity(3))
    assert sigma_permutes_basis(lattice)


def test_orbit_lattice_takes_integer_weights_over_den():
    # the sweep's form, (N, R) with the field, in lowest terms or not,
    # against the oracle's rows beta, beta^sigma, beta^sigma2
    t = F(-5, 2)
    x, y, m = _chord_ints(sweep_base(t), None)
    *ints, r = _lambda_ints(-5, 2, TARGET_SELF_DUAL, x, y, m)
    field = new_field(t)
    L = _orbit_lattice(field, tuple(ints), r, Matrix.identity(3))
    assert L.gram == Matrix.identity(3)
    scaled = _orbit_lattice(field, tuple(7 * n for n in ints), 7 * r, Matrix.identity(3))
    assert scaled.basis == L.basis
    beta = list(bracket(t, [F(n, r) for n in ints]))
    sig, sig2 = shanks_automorphisms(t)
    assert [list(row) for row in L.basis.data] == [beta, sig(beta), sig2(beta)]


# --- the Gram certified by its first row ------------------------------------------

@pytest.mark.parametrize("target", [TARGET_A3, TARGET_SELF_DUAL], ids=["A3", "self-dual"])
@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_first_row_certificate_is_the_full_gram(t, target):
    # every member up to height 8 carries the target Gram, certified by its
    # first row and sigma permuting the basis: gram_of's B T B^T and the
    # oracle's traces from the definition give that same Gram
    members = scan_family(t, 8, target).members
    assert members
    field = new_field(t)
    gram = _circulant_gram(target.d, target.e)
    for m in members:
        assert m.lattice.gram == gram
        assert lattice_core.gram_of(m.lattice.basis, field) == gram
        rows = [list(row) for row in m.lattice.basis.data]
        assert trace_gram(shanks_minpoly(t), lambda a: a, rows) == [list(r) for r in gram.data]


def test_a_sweep_builds_no_gram(monkeypatch):
    # the member Grams are certified by one row each, not rebuilt
    calls = []
    inner = lattice_core.gram_of

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(lattice_core, "gram_of", counted)
    assert len(scan_family(1, 16).members) == 222
    assert calls == []


@pytest.mark.parametrize(
    "tampered",
    [
        _circulant_gram(3, 1),  # another definite circulant
        Matrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]]),  # the first row alone differs
        Matrix.from_rows([[2, 0, 1], [0, 2, 1], [1, 1, 2]]),  # in its middle entry alone
        Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) * 2,  # scaled
    ],
    ids=["circulant", "row", "middle", "scaled"],
)
def test_a_tampered_target_row_is_a_certificate_failure(tampered):
    t = F(1)
    x, y, m = _chord_ints(sweep_base(t), (1, 2))
    *nums, r = _lambda_ints(1, 1, TARGET_A3, x, y, m)
    field = new_field(t)
    assert _orbit_lattice(field, tuple(nums), r, NORMAL_A3_GRAM).gram is NORMAL_A3_GRAM
    with pytest.raises(AssertionError, match="first row"):
        _orbit_lattice(field, tuple(nums), r, tampered)


def test_a_tampered_target_row_fails_the_command(monkeypatch, capsys):
    orbit = a3_factory._orbit_lattice

    def tampered(field, nums, den, gram):
        return orbit(field, nums, den, _circulant_gram(3, 1))

    monkeypatch.setattr(a3_factory, "_orbit_lattice", tampered)
    assert main(["gen-a3", "--t=1", "--height", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "CertificateFailure"
    assert "first row" in doc["error"]["detail"]


def test_every_member_is_checked_for_sigma_permuting_its_basis(monkeypatch):
    # the first row stands for the whole Gram only on a sigma-orbit basis,
    # so each built lattice is checked, and a failed check is a failure
    checked = []
    inner = a3_factory.sigma_permutes_basis

    def counted(lattice):
        checked.append(lattice.basis)
        return inner(lattice)

    monkeypatch.setattr(a3_factory, "sigma_permutes_basis", counted)
    members = scan_family(1, 16).members
    assert [m.lattice.basis for m in members] == checked and len(checked) == 222
    monkeypatch.setattr(a3_factory, "sigma_permutes_basis", lambda lattice: False)
    with pytest.raises(AssertionError):
        scan_family(1, 2)


@pytest.mark.parametrize("nums", [(1, -1, 0), (3, -5, 2), (2, 2, 2), (-7, -7, -7)], ids=str)
@pytest.mark.parametrize("t", [F(1), F(-5, 2), F(7)], ids=str)
def test_degenerate_weights_still_raise(t, nums):
    # sum lam = 0 or lam0 = lam1 = lam2 makes the conjugates dependent: the
    # first row cannot match a definite target, and the basis is singular
    field = new_field(t)
    for gram in (NORMAL_A3_GRAM, Matrix.identity(3)):
        with pytest.raises(DegenerateLambda):
            _orbit_lattice(field, nums, 3, gram)


@pytest.mark.parametrize("t", [F(1), F(-1, 2), F(2), F(-5, 2), F(1, 3), F(7)], ids=str)
def test_sigma_is_an_isometry_of_the_trace_form(t):
    field = new_field(t)
    _check_sigma_isometry(field.trace_form(), field.galois_matrices()[0])


def test_a_non_isometric_sigma_fails_the_sweep_check():
    field = new_field(1)
    form, s = field.trace_form(), field.galois_matrices()[0]
    other = new_field(2).galois_matrices()[0]  # sigma of another field
    for bad in (other, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), s * s * 2):
        with pytest.raises(AssertionError, match="isometry"):
            _check_sigma_isometry(form, bad)
    skewed = Matrix(
        [[x + ((i, j) == (0, 1)) for j, x in enumerate(row)] for i, row in enumerate(form.data)]
    )
    with pytest.raises(AssertionError, match="symmetric"):
        _check_sigma_isometry(skewed, s)


def test_the_sweep_checks_the_isometry_once(monkeypatch):
    calls = []
    inner = a3_factory._check_sigma_isometry

    def counted(form, s):
        calls.append(1)
        inner(form, s)

    monkeypatch.setattr(a3_factory, "_check_sigma_isometry", counted)
    assert len(scan_family(F(-5, 2), 16, TARGET_SELF_DUAL).members) == 222
    assert calls == [1]


def test_self_dual_family_members():
    sd = [m.lattice for m in scan_family(1, 5, TARGET_SELF_DUAL).members]
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
