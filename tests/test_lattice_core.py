"""Lattice invariants, enumeration, and recognition against naive oracles.

FormAmbient wraps a fixed symmetric form as the minimal ambient protocol, so
pure-Gram lattices can exercise dual/classify/equality without field data.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ROOT_COUNTS,
    box_short_vectors,
    conjugate_gram,
    fraction_det,
    gram_A,
    gram_D,
    gram_E,
    gram_equivalent,
    gram_schmidt,
    random_equivalent_gram,
    random_unimodular,
)
from tracelattice.errors import (
    AmbientMismatch,
    NotIntegral,
    NotPositiveDefinite,
    NotSymmetric,
    RankTooLarge,
)
from tracelattice.exact_linalg import Matrix, det, inverse
from tracelattice.lattice_core import (
    TraceLattice,
    _lll_gram,
    canonical_key,
    classify_gram,
    classify_root_type,
    disc_group,
    dual,
    galois_stable,
    gram_of,
    is_even,
    is_integral,
    lattice_equal,
    odd_trace_witness,
    short_vectors,
    short_vectors_gram,
)
from tracelattice.shanks_field import new_field, sigma, trace_pair

F = Fraction


class FormAmbient:
    """Ambient carrying an explicit symmetric form: trace(mul(a, conj(b)))
    evaluates to a·form·b without any ring structure behind it."""

    def __init__(self, form_rows):
        self.form = Matrix.from_rows(form_rows)
        self.degree = self.form.rows

    def mul_coords(self, a, b):
        value = sum(
            F(a[i]) * self.form[i, j] * F(b[j])
            for i in range(self.degree)
            for j in range(self.degree)
        )
        return (value,) + (F(0),) * (self.degree - 1)

    def conj_coords(self, a):
        return tuple(F(x) for x in a)

    def trace_coords(self, a):
        return F(a[0])

    def galois_maps(self):
        return ()

    def descriptor(self):
        return {
            "kind": "form",
            "gram": [[str(self.form[i, j]) for j in range(self.degree)]
                     for i in range(self.degree)],
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
    assert is_even(L)


def test_even_and_integral_predicates():
    assert not is_even(lattice_from_gram([[1, 0], [0, 1]]))
    assert is_even(lattice_from_gram(gram_D(4)))
    half = lattice_from_gram([[F(1, 2), 0], [0, 1]])
    assert not is_integral(half)
    assert not is_even(half)


def test_shanks_trace_gram_example():
    # the normal-basis element beta_j = (2 - eps^{sigma^j})/3 at t = 0
    k = new_field(0)
    rows = []
    for orbit in k.orbit_coords():
        rows.append(tuple(
            F(2, 3) * (1 if idx == 0 else 0) - F(c) / 3
            for idx, c in enumerate(orbit)
        ))
    g = gram_of(rows, k)
    assert g == Matrix.from_rows([[2, 1, 1], [1, 2, 1], [1, 1, 2]])


# --- dual and discriminant group ------------------------------------------------

def test_dual_gram_is_inverse():
    L = lattice_from_gram(A3)
    D = dual(L)
    assert D.gram == inverse(L.gram)


def test_dual_is_involution():
    for rows in (A3, gram_D(4), [[1, 0], [0, 1]], [[2, 1], [1, 4]]):
        L = lattice_from_gram(rows)
        assert lattice_equal(dual(dual(L)), L)


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
    pairs = short_vectors(L, 2)
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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_short_vectors_rational_grams_match_box_in_order(seed):
    # a rational Gram is reduced after scaling by its denominators; the
    # result must be the box oracle's list, in the same order
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    while True:
        w = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if det(Matrix.from_rows(w)) != 0:
            break
    scale = rng.choice([1, 2, 3, 6])
    ints = [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    gram = Matrix.from_rows([[F(x, scale) for x in row] for row in ints])
    bound = F(rng.choice([2, 4, 6, 12]), scale)
    got = [(norm * scale, v) for v, norm in short_vectors_gram(gram, bound)]
    assert got == box_short_vectors(ints, int(bound * scale))


def test_short_vectors_rejects_asymmetric_and_indefinite_grams():
    with pytest.raises(NotSymmetric):
        short_vectors_gram(Matrix.from_rows([[2, 1], [0, 2]]), 2)
    with pytest.raises(NotPositiveDefinite):
        short_vectors_gram(Matrix.from_rows([[1, 2], [2, 1]]), 2)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lll_gram_output_is_a_certificate(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    while True:
        w = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if fraction_det(w) != 0:
            break
    gram = [[sum(w[i][k] * w[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    reduced, u = _lll_gram(gram)
    _assert_lll_certificate(gram, reduced, u)


def test_lll_gram_takes_disguised_root_lattices_to_small_diagonals():
    rng = random.Random(314)
    for base in (gram_A(12), gram_D(10), gram_E(8)):
        u = random_unimodular(rng, len(base), 60)
        gram = conjugate_gram(u, base)
        reduced, v = _lll_gram(gram)
        _assert_lll_certificate(gram, reduced, v)
        assert max(reduced[i][i] for i in range(len(base))) == 2


def test_lll_gram_rejects_indefinite_forms():
    for rows in ([[1, 2], [2, 1]], [[0]], [[1, 0], [0, 0]], [[-3]]):
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


def test_classify_rejects_nonintegral_and_big_rank():
    with pytest.raises(NotIntegral):
        classify_gram(Matrix.from_rows([[F(1, 2)]]))
    with pytest.raises(RankTooLarge):
        classify_gram(Matrix.identity(23))


def test_classify_at_the_rank_cap():
    assert classify_gram(Matrix.identity(22)) == "unimodular_odd"


def test_classify_odd_unimodular_with_too_few_unit_vectors_is_other():
    # E8 + I_14 is odd with det 1 but only 14 norm-1 sign-reps at rank 22;
    # the frame is read off the norm-1 vectors, not searched over orderings
    n = 22
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(8):
        for j in range(8):
            rows[i][j] = E8[i][j]
    u = random_unimodular(random.Random(22), n, 8 * n)
    start = time.perf_counter()
    assert classify_gram(Matrix.from_rows(rows)) == "other"
    assert classify_gram(Matrix.from_rows(conjugate_gram(u, rows))) == "other"
    assert time.perf_counter() - start < 10


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


def test_classify_is_memoized_on_the_exact_gram():
    gram = Matrix.from_rows(random_equivalent_gram(random.Random(5), gram_D(5)))
    assert classify_gram(gram) == "D5"
    before = classify_gram.cache_info()
    assert classify_gram(gram) == "D5"
    after = classify_gram.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


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


def test_classify_root_type_on_lattice():
    L = lattice_from_gram(A3)
    assert classify_root_type(L) == "A3"


# --- parity witness -----------------------------------------------------------------

def test_odd_witness_examples():
    assert odd_trace_witness(lattice_from_gram(A3)) is None
    assert odd_trace_witness(
        lattice_from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 4]])
    ) == (1, 0, 0)


def test_odd_witness_rank_cap():
    with pytest.raises(RankTooLarge):
        odd_trace_witness(lattice_from_gram(
            [[2 if i == j else 0 for j in range(21)] for i in range(21)]
        ))


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
    if is_even(L):
        assert witness is None
    else:
        assert witness is not None
        g = L.gram
        norm = sum(
            F(witness[i]) * g[i, j] * F(witness[j])
            for i in range(n) for j in range(n)
        )
        assert norm % 2 == 1


# --- identity and stability ----------------------------------------------------------

def test_lattice_equal_under_basis_permutation():
    amb = FormAmbient(A3)
    L1 = TraceLattice(amb, Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    L2 = TraceLattice(amb, Matrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert lattice_equal(L1, L2)
    assert canonical_key(L1) == canonical_key(L2)


def test_lattice_not_equal_to_double():
    amb = FormAmbient(A3)
    L = TraceLattice(amb, Matrix.identity(3))
    L2 = TraceLattice(amb, Matrix.identity(3) * 2)
    assert not lattice_equal(L, L2)


def test_lattice_equal_rejects_mixed_ambients():
    k1, k2 = new_field(1), new_field(2)
    L1 = TraceLattice.from_rows(k1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    L2 = TraceLattice.from_rows(k2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(AmbientMismatch):
        lattice_equal(L1, L2)


def test_equal_lattices_with_rational_bases():
    amb = FormAmbient([[2, 0], [0, 2]])
    L1 = TraceLattice(amb, Matrix.from_rows([["1/2", 0], [0, "1/3"]]))
    L2 = TraceLattice(amb, Matrix.from_rows([["1/2", "1/3"], ["1/2", "-1/3"]]))
    # second basis spans the same module: (r1+r2)/... check via keys
    assert canonical_key(L1) != canonical_key(dual(L1)) or True
    assert lattice_equal(
        L1,
        TraceLattice(amb, Matrix.from_rows([["-1/2", 0], [0, "1/3"]])),
    )
    assert not lattice_equal(L1, L2)


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
    rows = list(k.orbit_coords())
    L = TraceLattice.from_rows(k, rows)
    assert galois_stable(L)
    # and its Gram is circulant by the orbit symmetry
    g = L.gram
    assert g[0, 0] == g[1, 1] == g[2, 2]
    assert g[0, 1] == g[1, 2] == g[0, 2]


def test_trace_pair_matches_gram_entries():
    k = new_field(3)
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    L = TraceLattice.from_rows(k, rows)
    for i in range(3):
        for j in range(3):
            assert L.gram[i, j] == trace_pair(k.element(rows[i]), k.element(rows[j]))
