"""Lattice invariants, enumeration, and recognition against naive oracles.

FormAmbient hands a fixed symmetric form over as its trace form, the minimal
ambient protocol, so pure-Gram lattices can exercise dual/classify/equality
without field data.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    CYCLOTOMIC_MINPOLY,
    ROOT_COUNTS,
    box_short_vectors,
    connected_by_pairwise_graph,
    conjugate_gram,
    cyclotomic_automorphisms,
    cyclotomic_conj,
    fraction_det,
    galois_stable_by_inverse,
    gram_A,
    gram_D,
    gram_E,
    gram_by_fraction_products,
    gram_equivalent,
    gram_schmidt,
    hermite_form,
    hnf_by_euclid,
    image_ball_short_vectors,
    odd_witness_by_scan,
    quadratic_automorphisms,
    random_equivalent_gram,
    random_unimodular,
    reduced_box_short_vectors,
    roots_by_reflection,
    shanks_automorphisms,
    shanks_minpoly,
    trace_gram,
    vectors_of_norm,
)
from tracelattice import lattice_core
from tracelattice.a3_factory import TARGET_A3, TARGET_SELF_DUAL, scan_family
from tracelattice.cyclotomic_ideals import ap_lattice, cyc_field, principal_ideal_lattice
from tracelattice.errors import (
    DependentBasis,
    NotIntegral,
    NotPositiveDefinite,
    NotSymmetric,
    RankTooLarge,
)
from tracelattice.exact_linalg import Matrix, det, inverse
from tracelattice.lattice_core import (
    TraceLattice,
    _connected,
    _gram_schmidt,
    _lll_gram,
    canonical_key,
    classify_gram,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    gram_of,
    is_integral,
    odd_trace_witness,
    short_vectors_gram,
)
from tracelattice.orders_ideals import (
    different_inverse,
    equation_order,
    fake_a3_variants,
    maximal_order,
    primes_above_2,
    sqrt_different_inverse,
)
from tracelattice.quadratic_a2 import QuadAmbient, _certified_a2, _slope_basis
from tracelattice.shanks_field import new_field

F = Fraction


class FormAmbient:
    """Ambient carrying an explicit symmetric form as its trace form, with no
    ring structure and no automorphisms behind it."""

    def __init__(self, form_rows):
        self.form = Matrix.from_rows(form_rows)
        self.degree = self.form.rows

    def trace_form(self):
        return self.form

    def galois_matrices(self):
        return ()

    def descriptor(self):
        return {
            "kind": "form",
            "gram": [[str(x) for x in row] for row in self.form.data],
        }


def lattice_from_gram(rows) -> TraceLattice:
    amb = FormAmbient(rows)
    return TraceLattice(amb, Matrix.identity(len(rows)))


A3 = gram_A(3)
E8 = gram_E(8)


# --- construction and basic predicates -----------------------------------------

def test_gram_of_identity_basis_reproduces_form():
    L = lattice_from_gram(A3)
    assert L.gram == Matrix.from_rows(A3)
    assert is_integral(L)
    assert odd_trace_witness(L) is None


def test_even_and_integral_predicates():
    assert odd_trace_witness(lattice_from_gram([[1, 0], [0, 1]])) is not None
    assert odd_trace_witness(lattice_from_gram(gram_D(4))) is None
    half = lattice_from_gram([[F(1, 2), 0], [0, 1]])
    assert not is_integral(half)
    with pytest.raises(NotIntegral):
        odd_trace_witness(half)


def test_shanks_trace_gram_example():
    # the normal-basis element beta_j = (2 - eps^{sigma^j})/3 at t = 0
    k = new_field(0)
    rows = []
    for orbit in k.orbit_matrix.data:
        rows.append(tuple(
            F(2, 3) * (1 if idx == 0 else 0) - F(c) / 3
            for idx, c in enumerate(orbit)
        ))
    g = gram_of(rows, k)
    assert g == Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])


def _identity_conj(a):
    return list(a)


def _quad_conj(sign):
    return _identity_conj if sign > 0 else (lambda a: [a[0], -F(a[1])])


# (ambient, minpoly, conjugation) with the oracle's own field data
TRACE_CASES = (
    [(new_field(t), shanks_minpoly(t), _identity_conj)
     for t in (1, F(-1, 2), F(5, 2), F(-13, 2))]
    + [(cyc_field(n), CYCLOTOMIC_MINPOLY[n], cyclotomic_conj(n)) for n in (5, 7, 12)]
    + [(QuadAmbient(d, sign), [-sign * d, 0, 1], _quad_conj(sign))
       for d in (2, 3, 7) for sign in (-1, 1)]
)


def _random_rational_basis(rng, n):
    while True:
        rows = [[F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 6])) for _ in range(n)]
                for _ in range(n)]
        if fraction_det(rows) != 0:
            return rows


def _ambient_id(ambient) -> str:
    return "-".join(str(v) for v in ambient.descriptor().values())


@pytest.mark.parametrize(
    "ambient, minpoly, conj", TRACE_CASES, ids=[_ambient_id(c[0]) for c in TRACE_CASES]
)
def test_gram_of_matches_trace_definition(ambient, minpoly, conj):
    n = ambient.degree
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert ambient.trace_form() == Matrix.from_rows(trace_gram(minpoly, conj, identity))
    rng = random.Random(_ambient_id(ambient))
    for _ in range(3):
        rows = _random_rational_basis(rng, ambient.degree)
        assert gram_of(rows, ambient) == Matrix.from_rows(trace_gram(minpoly, conj, rows))


@st.composite
def _ambient_and_basis(draw):
    ambient = draw(st.sampled_from([case[0] for case in TRACE_CASES]))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    rows = [[draw(entry) for _ in range(ambient.degree)] for _ in range(ambient.degree)]
    assume(fraction_det(rows) != 0)
    return ambient, rows


@settings(max_examples=60, deadline=None)
@given(_ambient_and_basis())
def test_gram_of_is_the_fraction_triple_product(case):
    # one integer triple product, against two Fraction products and a
    # transpose; the Matrix path B * T * B^T gives the same pair
    ambient, rows = case
    form = ambient.trace_form()
    ints, den = gram_by_fraction_products(rows, form.data)
    gram = gram_of(rows, ambient)
    assert (gram.ints, gram.den) == (tuple(map(tuple, ints)), den)
    basis = Matrix.from_rows(rows)
    product = basis * form * basis.transpose()
    assert (product.ints, product.den) == (gram.ints, gram.den)


@pytest.mark.parametrize(
    "ambient",
    [case[0] for case in TRACE_CASES] + [FormAmbient(gram_A(3))],
    ids=[_ambient_id(c[0]) for c in TRACE_CASES] + ["form-A3"],
)
def test_gram_of_dependent_rows_raise(ambient):
    n = ambient.degree
    rows = _random_rational_basis(random.Random(n), n)
    with pytest.raises(DependentBasis):
        gram_of([rows[0], [F(-3, 2) * x for x in rows[0]]] + rows[2:], ambient)
    with pytest.raises(DependentBasis):
        gram_of([[0] * n] + rows[1:], ambient)


def test_gram_of_indefinite_form_raises():
    # each form fails Sylvester's criterion at a different leading minor;
    # [[0, 1], [1, 0]] is nonsingular with a zero first minor
    for form in (
        [[-1]], [[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 3], [0, 3, 1]], [[0, 1], [1, 0]]
    ):
        with pytest.raises(NotPositiveDefinite):
            lattice_from_gram(form)
    # a singular form is a dependent basis, as the Gram is singular
    with pytest.raises(DependentBasis):
        lattice_from_gram([[1, 1], [1, 1]])


# --- dual and discriminant group ------------------------------------------------

def test_dual_gram_is_inverse():
    L = lattice_from_gram(A3)
    D = dual(L)
    assert D.gram == inverse(L.gram)


def test_dual_is_involution():
    for rows in (A3, gram_D(4), [[1, 0], [0, 1]], [[2, 1], [1, 4]]):
        L = lattice_from_gram(rows)
        assert canonical_key(dual(dual(L))) == canonical_key(L)


def test_disc_groups_of_root_lattices():
    assert disc_group(lattice_from_gram(gram_A(2))) == (1, 3)
    assert disc_group(lattice_from_gram(gram_A(3))) == (1, 1, 4)
    assert disc_group(lattice_from_gram(gram_A(4))) == (1, 1, 1, 5)
    assert disc_group(lattice_from_gram(gram_D(4))) == (1, 1, 2, 2)
    assert disc_group(lattice_from_gram(gram_D(5))) == (1, 1, 1, 1, 4)
    assert disc_group(lattice_from_gram(gram_E(6))) == (1,) * 5 + (3,)
    assert disc_group(lattice_from_gram(gram_E(7))) == (1,) * 6 + (2,)
    assert disc_group(lattice_from_gram(gram_E(8))) == (1,) * 8


def test_disc_group_rejects_nonintegral():
    with pytest.raises(NotIntegral):
        disc_group(lattice_from_gram([[F(1, 2), 0], [0, 1]]))


def test_disc_group_product_is_det():
    for rows in (A3, gram_D(5), gram_E(6), [[4, 1], [1, 4]]):
        L = lattice_from_gram(rows)
        prod = 1
        for f in disc_group(L):
            prod *= f
        assert prod == det(L.gram)


# --- short vectors ---------------------------------------------------------------

def _impl_pairs(gram_rows, bound):
    out = short_vectors_gram(Matrix.from_rows(gram_rows), bound)
    return sorted((int(norm), tuple(v)) for v, norm in out)


def test_root_counts_recomputed():
    for (family, n), count in ROOT_COUNTS.items():
        rows = {"A": gram_A, "D": gram_D, "E": gram_E}[family](n)
        pairs = _impl_pairs(rows, 2)
        roots = [v for norm, v in pairs if norm == 2]
        assert 2 * len(roots) == count, (family, n)


def test_short_vectors_match_box_oracle_on_named_lattices():
    for rows in (gram_A(2), gram_A(3), gram_D(4), gram_E(6), gram_E(8)):
        assert _impl_pairs(rows, 2) == box_short_vectors(rows, 2)
    assert _impl_pairs(gram_D(4), 6) == box_short_vectors(gram_D(4), 6)


def test_short_vectors_handles_integer_free_layers():
    # regression: the per-coordinate interval can contain no integer at all
    # (the D8 fork layers produce width < 1 windows off-center); enumeration
    # must skip such layers rather than walk the parabola forever
    assert len(_impl_pairs(gram_D(8), 2)) == 56
    assert _impl_pairs(gram_D(8), 2) == box_short_vectors(gram_D(8), 2)


def test_short_vectors_lattice_wrapper():
    L = lattice_from_gram(A3)
    pairs = short_vectors_gram(L.gram, 2)
    assert len([1 for v, n in pairs if n == 2]) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_short_vectors_match_box_on_random_pd_grams(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    while True:
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_rows(w)
        if det(m) != 0:
            break
    gram = [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    bound = rng.choice([1, 2, 4, 6])
    assert _impl_pairs(gram, bound) == box_short_vectors(gram, bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_short_vectors_rational_grams_match_box_in_order(seed):
    # a rational Gram is ints / den and enumerated to floor(bound * den); the
    # result must be the oracle's list, in the same order.  Bounds need not
    # be multiples of 1/den.  ints = W W^T, so the oracle walks the ball of
    # images y = x W, whose size does not grow with the skew of W (a box
    # about the pair-reduced basis held 3.0 * 10^13 points at seed 5040)
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    while True:
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det(Matrix.from_rows(w)) != 0:
            break
    scale = rng.choice([1, 2, 3, 6])
    ints = [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    gram = Matrix.from_rows([[F(x, scale) for x in row] for row in ints])
    q = rng.choice([1, 2, 3, 5])
    bound = F(rng.randrange(13 * q), scale * q)
    got = [(norm * scale, v) for v, norm in short_vectors_gram(gram, bound)]
    assert got == image_ball_short_vectors(w, math.floor(bound * scale))


def test_short_vectors_bound_between_multiples_of_one_over_den():
    # over den 2, bound 7/3 is the integer budget floor(14/3) = 4: the
    # norm-5/2 vector stays out, the norm-3/2 ones are in
    ints = [[2, 1, 0], [1, 3, 1], [0, 1, 5]]
    gram = Matrix.from_rows([[F(x, 2) for x in row] for row in ints])
    assert gram.den == 2
    assert box_short_vectors(ints, 4) != box_short_vectors(ints, 5)
    got = [(norm * 2, v) for v, norm in short_vectors_gram(gram, F(7, 3))]
    assert got == box_short_vectors(ints, 4)


def _in_base_coords(u, pairs):
    """(norm, x U) for each (x, norm) found on U G U^T: the same vectors in
    G's coordinates, sign-canonical and sorted."""
    n = len(u)
    out = []
    for v, norm in pairs:
        w = tuple(sum(v[i] * u[i][k] for i in range(n)) for k in range(n))
        if next(c for c in w if c) < 0:
            w = tuple(-c for c in w)
        out.append((int(norm), w))
    return sorted(out)


@pytest.mark.parametrize("n", [9, 8], ids=["A9", "Z8"])
def test_short_vectors_on_disguised_grams_match_the_reduced_box(n):
    # a light disguise, which pair reduction undoes far enough for the box
    base = gram_A(n) if n == 9 else [[int(i == j) for j in range(n)] for i in range(n)]
    gram = conjugate_gram(random_unimodular(random.Random(n), n, 2 * n), base)
    pairs = short_vectors_gram(Matrix.from_rows(gram), 2)
    assert [(int(norm), v) for v, norm in pairs] == reduced_box_short_vectors(gram, 2)


@pytest.mark.parametrize("family, n", [("A", 9), ("A", 12), ("D", 12), ("E", 8)])
def test_short_vectors_on_disguised_root_lattices_are_their_roots(family, n):
    # a heavy disguise, checked in the Dynkin basis against the orbit of
    # the simple roots under the simple reflections
    base = {"A": gram_A, "D": gram_D, "E": gram_E}[family](n)
    roots = roots_by_reflection(base)
    assert 2 * len(roots) == {"A": n * (n + 1), "D": 2 * n * (n - 1), "E": 240}[family]
    u = random_unimodular(random.Random(n), n, 8 * n)
    pairs = short_vectors_gram(Matrix.from_rows(conjugate_gram(u, base)), 2)
    assert pairs == sorted(pairs, key=lambda kv: (kv[1], kv[0]))
    assert _in_base_coords(u, pairs) == [(2, v) for v in roots]


def test_short_vectors_rejects_asymmetric_and_indefinite_grams():
    # the Gram is checked before a negative bound is answered with []
    for bound in (2, -1):
        with pytest.raises(NotSymmetric):
            short_vectors_gram(Matrix.from_rows([[2, 1], [0, 2]]), bound)
        for indefinite in ([[1, 2], [2, 1]], [[1, 0], [0, -1]]):
            with pytest.raises(NotPositiveDefinite):
                short_vectors_gram(Matrix.from_rows(indefinite), bound)
    assert short_vectors_gram(Matrix.from_rows([[2, 1], [1, 2]]), -1) == []


# --- LLL reduction ----------------------------------------------------------------

def _assert_lll_certificate(gram, reduced, u):
    n = len(gram)
    assert abs(fraction_det(u)) == 1
    assert conjugate_gram(u, gram) == reduced
    mu, big_b = gram_schmidt(reduced)
    for i in range(n):
        for j in range(i):
            assert abs(mu[i][j]) <= F(1, 2), (i, j, mu[i][j])
    for i in range(1, n):
        assert big_b[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * big_b[i - 1], i


def _random_gram(rng) -> list[list[int]]:
    """W W^T for a random nonsingular integer W of rank 1-8."""
    n = rng.randint(1, 8)
    while True:
        w = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if fraction_det(w) != 0:
            break
    return [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lll_gram_output_is_a_certificate(seed):
    gram = _random_gram(random.Random(seed))
    reduced, u, _, _ = _lll_gram(gram)
    _assert_lll_certificate(gram, reduced, u)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lll_gram_hands_over_the_gram_schmidt_data_of_its_output(seed):
    # d[k] is the k-th leading minor of the reduced Gram and lam[k][j] =
    # d[j+1] * mu[k][j], both read against Fraction Gram-Schmidt
    reduced, _, d, lam = _lll_gram(_random_gram(random.Random(seed)))
    mu, big_b = gram_schmidt(reduced)
    assert d[0] == 1
    for k in range(len(reduced)):
        assert d[k + 1] == d[k] * big_b[k], k
        for j in range(k):
            assert lam[k][j] == d[j + 1] * mu[k][j], (k, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gram_schmidt_reads_the_leading_minors_and_mu(seed):
    # d[k] is the determinant of the leading k x k block and lam = d * mu,
    # against Fraction determinants and Fraction Gram-Schmidt
    gram = _random_gram(random.Random(seed))
    d, lam = _gram_schmidt(gram)
    mu, _ = gram_schmidt(gram)
    assert d[0] == 1
    for k in range(len(gram)):
        assert d[k + 1] == fraction_det([row[: k + 1] for row in gram[: k + 1]]), k
        for j in range(k):
            assert lam[k][j] == d[j + 1] * mu[k][j], (k, j)


def test_lll_gram_takes_disguised_root_lattices_to_small_diagonals():
    rng = random.Random(314)
    for base in (gram_A(12), gram_D(10), gram_E(8)):
        u = random_unimodular(rng, len(base), 60)
        gram = conjugate_gram(u, base)
        reduced, v, _, _ = _lll_gram(gram)
        _assert_lll_certificate(gram, reduced, v)
        assert max(reduced[i][i] for i in range(len(base))) == 2


def test_lll_gram_rejects_indefinite_forms():
    # a zero leading minor stops the pass before anything is divided by it
    for rows in (
        [[1, 2], [2, 1]], [[0]], [[1, 0], [0, 0]], [[-3]], [[0, 1], [1, 0]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
    ):
        with pytest.raises(NotPositiveDefinite):
            _lll_gram(rows)


# --- classification ---------------------------------------------------------------

def test_classify_named_root_lattices():
    assert classify_gram(Matrix.from_rows(gram_A(1))) == "A1"
    assert classify_gram(Matrix.from_rows(gram_A(2))) == "A2"
    assert classify_gram(Matrix.from_rows(gram_A(3))) == "A3"
    assert classify_gram(Matrix.from_rows(gram_D(4))) == "D4"
    assert classify_gram(Matrix.from_rows(gram_D(6))) == "D6"
    assert classify_gram(Matrix.from_rows(gram_E(6))) == "E6"
    assert classify_gram(Matrix.from_rows(gram_E(7))) == "E7"
    assert classify_gram(Matrix.from_rows(gram_E(8))) == "E8"


def test_classify_named_gram_shapes():
    assert classify_gram(Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])) == "A3"
    assert classify_gram(Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 4]])) == "diag114"
    assert classify_gram(Matrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])) == "other"
    assert classify_gram(Matrix.identity(3)) == "unimodular_odd"
    assert classify_gram(Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])) == "other"


def test_classify_reducible_det4_rank12_is_not_d12():
    # D4 + E8 shares rank, determinant, and root count with D12; the
    # connectivity certificate tells them apart
    rows = [[0] * 12 for _ in range(12)]
    for i in range(4):
        for j in range(4):
            rows[i][j] = gram_D(4)[i][j]
    for i in range(8):
        for j in range(8):
            rows[4 + i][4 + j] = E8[i][j]
    assert classify_gram(Matrix.from_rows(rows)) == "other"
    assert classify_gram(Matrix.from_rows(gram_D(12))) == "D12"


def _block_sum(*grams) -> list[list[int]]:
    n = sum(len(g) for g in grams)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            rows[at + i][at : at + len(g)] = row
        at += len(g)
    return rows


@pytest.mark.parametrize(
    "gram, irreducible",
    [(gram_A(n), True) for n in range(1, 9)]
    + [(gram_D(n), True) for n in range(4, 9)]
    + [(gram_E(n), True) for n in (6, 7, 8)]
    + [
        (_block_sum(gram_A(3), gram_A(3)), False),
        (_block_sum(gram_D(4), gram_A(1)), False),
        (_block_sum(gram_E(8), gram_A(2)), False),
    ],
)
def test_connected_matches_pairwise_graph_oracle(gram, irreducible):
    roots = roots_by_reflection(gram)
    assert _connected(gram, roots) == connected_by_pairwise_graph(gram, roots) == irreducible
    if not irreducible:
        assert classify_gram(Matrix.from_rows(gram)) == "other"


def test_classify_rejects_nonintegral_and_big_rank():
    with pytest.raises(NotIntegral):
        classify_gram(Matrix.from_rows([[F(1, 2)]]))
    with pytest.raises(RankTooLarge):
        classify_gram(Matrix.identity(33))


def test_classify_at_the_rank_cap():
    assert classify_gram(Matrix.identity(32)) == "unimodular_odd"
    assert classify_gram(Matrix.from_rows(gram_A(32))) == "A32"
    assert classify_gram(Matrix.from_rows(gram_D(32))) == "D32"
    u = random_unimodular(random.Random(32), 32, 8 * 32)
    assert classify_gram(Matrix.from_rows(conjugate_gram(u, gram_D(32)))) == "D32"


def test_classify_odd_unimodular_with_too_few_unit_vectors_is_other(
    call_counts, enumeration_codes
):
    # E8 + I_14 is odd with det 1 but only 14 norm-1 sign-reps at rank 22;
    # the frame is read off the norm-1 vectors, not searched over orderings.
    # The work is bounded, not the time: one short-vector enumeration per
    # classification, of 482 and 326 nodes
    n = 22
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(8):
        for j in range(8):
            rows[i][j] = E8[i][j]
    u = random_unimodular(random.Random(22), n, 8 * n)
    for gram in (rows, conjugate_gram(u, rows)):
        label, enumerations, nodes = call_counts(
            enumeration_codes, classify_gram, Matrix.from_rows(gram)
        )
        assert label == "other"
        assert enumerations == 1 and nodes <= 2000, nodes


def test_classify_rejects_asymmetric_and_indefinite_grams():
    with pytest.raises(NotSymmetric):
        classify_gram(Matrix.from_rows([[2, 1], [0, 2]]))
    # the last case has positive leading minors up to size 2
    for rows in ([[1, 2], [2, 1]], [[0]], [[-3]], [[2, 1, 0], [1, 2, 1], [0, 1, -5]]):
        with pytest.raises(NotPositiveDefinite):
            classify_gram(Matrix.from_rows(rows))


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "base,label",
    [(gram_A(n), f"A{n}") for n in (1, 4, 9, 15, 22)]
    + [(gram_D(n), f"D{n}") for n in (4, 7, 13, 22)]
    + [(gram_E(n), f"E{n}") for n in (6, 7, 8)]
    + [(_identity_rows(n), "unimodular_odd") for n in (2, 8, 22)],
)
def test_classify_random_unimodular_conjugates(base, label):
    rng = random.Random(len(base) * 1000 + len(label))
    u = random_unimodular(rng, len(base), 8 * len(base))
    gram = conjugate_gram(u, base)
    assert classify_gram(Matrix.from_rows(gram)) == label


def test_classify_equivalent_grams_same_label():
    rng = random.Random(7)
    for base, label in ((A3, "A3"), (gram_A(2), "A2"), (gram_D(4), "D4")):
        for _ in range(5):
            twisted = random_equivalent_gram(rng, base)
            assert classify_gram(Matrix.from_rows(twisted)) == label


def test_classify_agrees_with_gl3_box_oracle():
    rng = random.Random(20260817)
    diag114 = [[1, 0, 0], [0, 1, 0], [0, 0, 4]]
    seen = {"A3": 0, "diag114": 0, "unimodular_odd": 0, "other": 0}
    for _ in range(50):
        choice = rng.randrange(4)
        if choice == 0:
            g = random_equivalent_gram(rng, A3)
        elif choice == 1:
            g = random_equivalent_gram(rng, diag114)
        elif choice == 2:
            g = random_equivalent_gram(rng, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        else:
            while True:
                w = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
                d = det(Matrix.from_rows(w))
                if d != 0:
                    g = [[sum(w[i][k] * w[j][k] for k in range(3))
                          for j in range(3)] for i in range(3)]
                    if 0 < det(Matrix.from_rows(g)) <= 9:
                        break
        got = classify_gram(Matrix.from_rows(g))
        expect = "other"
        if gram_equivalent(g, A3):
            expect = "A3"
        elif gram_equivalent(g, diag114):
            expect = "diag114"
        elif gram_equivalent(g, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
            expect = "unimodular_odd"
        assert got == expect, (g, got, expect)
        seen[got] += 1
    # the sweep must actually exercise every label
    assert all(v > 0 for v in seen.values()), seen


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["diag114", "diag122"]))
def test_classify_odd_det4_rank3_by_its_norm_one_vectors(seed, base):
    # an odd integral rank-3 lattice of det 4 has a norm-1 vector (a reduced
    # Gram has g11 g22 g33 <= 2 det = 8, and all-2 diagonals are even), which
    # splits off; the complement is Z + <4> or <2> + <2>, so there are two
    # classes: diag(1,1,4) with 2 norm-1 sign-reps and diag(1,2,2) with 1
    diagonal = {"diag114": (1, 1, 4), "diag122": (1, 2, 2)}[base]
    g = conjugate_gram(
        random_unimodular(random.Random(seed), 3, 12),
        [[diagonal[i] * (i == j) for j in range(3)] for i in range(3)],
    )
    ones = len(vectors_of_norm(g, 1)) // 2
    assert ones == (2 if base == "diag114" else 1)
    expect = "diag114" if gram_equivalent(g, [[1, 0, 0], [0, 1, 0], [0, 0, 4]]) else "other"
    assert (expect == "diag114") == (base == "diag114")
    assert classify_gram(Matrix.from_rows(g)) == expect


def test_classify_root_type_on_lattice():
    L = lattice_from_gram(A3)
    assert classify_root_type(L) == "A3"


# --- parity witness -----------------------------------------------------------------

def test_odd_witness_examples():
    assert odd_trace_witness(lattice_from_gram(A3)) is None
    assert odd_trace_witness(
        lattice_from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 4]])
    ) == (1, 0, 0)


def test_odd_witness_has_no_rank_cap():
    # the 2^n scan stopped at rank 20; the closed form has no cap
    assert odd_trace_witness(lattice_from_gram(
        [[2 if i == j else 0 for j in range(21)] for i in range(21)]
    )) is None
    gram = [[(1 if i == 30 else 2) if i == j else 0 for j in range(40)] for i in range(40)]
    assert odd_trace_witness(lattice_from_gram(gram)) == tuple(int(i == 30) for i in range(40))


def _diagonally_dominant_gram(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    for i in range(n):
        g[i][i] = sum(abs(x) for x in g[i]) + rng.randint(1, 3)
    return g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10_000))
def test_odd_witness_matches_scan(n, seed):
    gram = _diagonally_dominant_gram(random.Random(seed), n)
    assert odd_trace_witness(lattice_from_gram(gram)) == odd_witness_by_scan(gram)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_odd_witness_none_iff_even(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    while True:
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det(Matrix.from_rows(w)) != 0:
            break
    gram = [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    L = lattice_from_gram(gram)
    witness = odd_trace_witness(L)
    if all(gram[i][i] % 2 == 0 for i in range(n)):
        assert witness is None
    else:
        assert witness is not None
        norm = sum(
            witness[i] * gram[i][j] * witness[j] for i in range(n) for j in range(n)
        )
        assert norm % 2 == 1


# --- identity and stability ----------------------------------------------------------

square_rationals = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, 6)),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda xs: [[F(*xs[i * n + j]) for j in range(n)] for i in range(n)])
)


@settings(max_examples=80, deadline=None)
@given(square_rationals)
def test_canonical_key_is_the_hnf_of_the_cleared_basis(rows):
    assume(fraction_det(rows) != 0)
    n = len(rows)
    L = TraceLattice.from_rows(FormAmbient(gram_A(n)), rows)
    key = canonical_key(L)
    scale = key.den
    assert scale == math.lcm(*(x.denominator for row in rows for x in row))
    cleared = [[int(x * scale) for x in row] for row in rows]
    assert [list(r) for r in key.ints] == hermite_form(cleared) == hnf_by_euclid(cleared)


def test_canonical_key_is_computed_once_and_kept_by_with_type(monkeypatch):
    spans = []
    hnf_basis = lattice_core.hnf_basis

    def counted_hnf_basis(rows):
        spans.append(rows)
        return hnf_basis(rows)

    monkeypatch.setattr(lattice_core, "hnf_basis", counted_hnf_basis)
    L = TraceLattice.from_rows(new_field(1), [[1, 0, 0], [1, 2, 0], [0, 1, 3]])
    key = canonical_key(L)
    assert len(spans) == 1
    tagged = L.with_type("other")
    assert canonical_key(L) == key
    assert canonical_key(tagged) == key
    assert galois_stable(tagged) is False
    assert len(spans) == 1
    # a fresh lattice on the same basis computes its own
    assert canonical_key(TraceLattice(L.ambient, L.basis)) == key
    assert len(spans) == 2


def test_lattice_equal_under_basis_permutation():
    amb = FormAmbient(A3)
    L1 = TraceLattice(amb, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    L2 = TraceLattice(amb, Matrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert canonical_key(L1) == canonical_key(L2)


def test_lattice_not_equal_to_double():
    amb = FormAmbient(A3)
    L = TraceLattice(amb, Matrix.identity(3))
    L2 = TraceLattice(amb, Matrix.identity(3) * 2)
    assert canonical_key(L) != canonical_key(L2)


def test_equal_lattices_with_rational_bases():
    amb = FormAmbient([[2, 0], [0, 2]])
    L1 = TraceLattice(amb, Matrix.from_rows([["1/2", 0], [0, "1/3"]]))
    L2 = TraceLattice(amb, Matrix.from_rows([["1/2", "1/3"], ["1/2", "-1/3"]]))
    # a sign change of a basis row keeps the module; L2, of index 2 in L1,
    # does not
    flipped = TraceLattice(amb, Matrix.from_rows([["-1/2", 0], [0, "1/3"]]))
    assert canonical_key(L1) == canonical_key(flipped)
    assert canonical_key(L1) != canonical_key(L2)


def test_galois_stability_of_power_basis_order():
    k = new_field(1)
    full = TraceLattice.from_rows(
        k, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    )
    assert galois_stable(full)
    skew = TraceLattice.from_rows(k, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert not galois_stable(skew)


def test_gram_under_galois_conjugate_basis_is_stable():
    # the orbit basis (eps, eps^sigma, eps^sigma^2) spans a sigma-stable module
    k = new_field(2)
    L = TraceLattice(k, k.orbit_matrix)
    assert galois_stable(L)
    # and its Gram is circulant by the orbit symmetry
    g = L.gram.data
    assert g[0][0] == g[1][1] == g[2][2]
    assert g[0][1] == g[1][2] == g[0][2]


def _oracle_maps(ambient):
    kind = ambient.descriptor()["kind"]
    if kind == "shanks":
        return shanks_automorphisms(ambient.t)
    if kind == "cyclotomic":
        return cyclotomic_automorphisms(ambient.n)
    return quadratic_automorphisms()


def _assert_stability(L, expected):
    """galois_stable against the B S B^-1 oracle and the value theory
    gives."""
    rows = [L.basis.row(i) for i in range(L.basis.rows)]
    assert galois_stable_by_inverse(_oracle_maps(L.ambient), rows) is expected
    assert galois_stable(L) is expected


@pytest.mark.parametrize("t", [1, 2, F(-1, 2), F(-5, 2), F(1, 3)])
def test_galois_stable_on_family_members(t):
    # normal bases: every member is sigma-stable by construction
    for target in (TARGET_A3, TARGET_SELF_DUAL):
        members = scan_family(t, 2, target).members
        assert members
        for m in members:
            _assert_stability(m.lattice, True)


@pytest.mark.parametrize("t", [F(-1, 2), F(1, 2), F(3, 2)])
def test_galois_stable_on_orders_and_ideals(t):
    # O, D^-1 and its square root are Galois-invariant; the primes above a
    # split 2 are permuted, and so are the fake A3 lattices built on them
    # Z[eps] and Z[2 eps]: sigma(eps) has half-integral coordinates, so
    # both fail already at the integrality of the images
    power_basis = TraceLattice.from_rows(new_field(t), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _assert_stability(power_basis, False)
    eo = equation_order(t)
    _assert_stability(eo.lattice(), False)
    o = maximal_order(eo)
    for L in (o.lattice(), different_inverse(o).lattice(), sqrt_different_inverse(o).lattice()):
        _assert_stability(L, True)
    for ideal in primes_above_2(o):
        _assert_stability(ideal.lattice(), False)
    for L in fake_a3_variants(o):
        _assert_stability(L, False)


def test_galois_stable_on_cyclotomic_lattices():
    for p in (5, 7):
        _assert_stability(ap_lattice(p), True)
    k5 = cyc_field(5)
    # 2 + z has norm Phi_5(-2) = 11, a split prime: its ideal is not stable
    _assert_stability(principal_ideal_lattice(k5, k5.element([2, 1])), False)
    _assert_stability(principal_ideal_lattice(k5, k5.element([3])), True)
    k8 = cyc_field(8)
    # 1 + z generates the prime above the ramified 2, which every map fixes
    _assert_stability(principal_ideal_lattice(k8, k8.element([1, 1])), True)
    _assert_stability(principal_ideal_lattice(k8, k8.element([1, 2])), False)
    k12 = cyc_field(12)
    _assert_stability(
        TraceLattice.from_rows(k12, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]),
        False,
    )


@pytest.mark.parametrize("sign", [-1, 1])
def test_galois_stable_on_quadratic_lattices(sign):
    amb = QuadAmbient(3, sign)
    _assert_stability(TraceLattice.from_rows(amb, [[1, 0], [0, 1]]), True)
    _assert_stability(TraceLattice.from_rows(amb, [[1, 0], [F(1, 2), F(1, 2)]]), True)
    _assert_stability(TraceLattice.from_rows(amb, [[1, 1], [0, 2]]), True)
    _assert_stability(TraceLattice.from_rows(amb, [[2, 1], [0, 3]]), False)
    _assert_stability(TraceLattice.from_rows(amb, [[1, 0], [F(1, 3), F(1, 3)]]), False)
    for s0, s1 in ((1, 0), (1, 1), (2, 1), (1, 3)):
        L = _certified_a2(Matrix.scaled(*_slope_basis(s0, s1)), amb)
        rows = [L.basis.row(i) for i in range(2)]
        expected = galois_stable_by_inverse(quadratic_automorphisms(), rows)
        _assert_stability(L, expected)


#: (ambient, basis of a stable lattice, index in _oracle_maps of a map that
#: generates the cyclic Galois group)
_STABLE_BASES = [
    (new_field(1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0),
    (new_field(F(-1, 2)), [[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]], 0),
    (cyc_field(5), [[1 if i == j else 0 for j in range(4)] for i in range(4)], 1),
    (QuadAmbient(3, -1), [[1, 0], [F(1, 2), F(1, 2)]], 0),
]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(range(len(_STABLE_BASES))),
    st.booleans(),
    st.lists(st.integers(-4, 4), min_size=16, max_size=16),
)
def test_galois_stable_on_random_sublattices(which, orbit, entries):
    # either M B for a random integer M (stable or not), or the orbit of one
    # lattice vector under a generator (stable when it spans); both sides
    # must agree
    ambient, rows, gen = _STABLE_BASES[which]
    n = ambient.degree
    base = Matrix.from_rows(rows)
    if orbit:
        v = (Matrix([entries[:n]]) * base).row(0)
        spin = _oracle_maps(ambient)[gen]
        m_rows = [list(v)]
        for _ in range(n - 1):
            m_rows.append(spin(m_rows[-1]))
        assume(fraction_det(m_rows) != 0)
        basis = Matrix.from_rows(m_rows)
    else:
        m = [entries[i * n : (i + 1) * n] for i in range(n)]
        assume(fraction_det(m) != 0)
        basis = Matrix.from_rows(m) * base
    L = TraceLattice(ambient, basis)
    oracle = galois_stable_by_inverse(
        _oracle_maps(ambient), [basis.row(i) for i in range(n)]
    )
    assert oracle or not orbit
    assert galois_stable(L) is oracle


def test_trace_pair_matches_gram_entries():
    k = new_field(3)
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    L = TraceLattice.from_rows(k, rows)
    for i in range(3):
        for j in range(3):
            assert L.gram.data[i][j] == k.trace_coords(k.mul_coords(rows[i], rows[j]))
