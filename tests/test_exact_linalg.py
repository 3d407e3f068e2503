"""Exact linear algebra: frozen small cases plus randomized properties.

Oracles here are written independently of the implementation: cofactor
expansion for determinants, direct shape/uniqueness axioms for HNF/SNF, and
the determinantal divisors (gcds of minors) for SNF.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tracelattice.errors import NonSquareMatrix, NotInteger, SingularMatrix
from oracles import (
    _inverse,
    fraction_det,
    fraction_grid,
    grid_cleared,
    grid_product,
    grid_sum,
    grid_transpose,
    hnf_by_euclid,
    snf_by_minors,
)
from tracelattice.exact_linalg import Matrix, det, hnf, hnf_coords, hnf_rows, inverse, rat, snf

A3_GRAM = Matrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
A2_GRAM = Matrix.from_rows([[2, -1], [-1, 2]])
# D4 via explicit root vectors e1-e2, e2-e3, e3-e4, e3+e4
_D4_ROOTS = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
D4_GRAM = Matrix.from_rows(
    [
        [sum(a * b for a, b in zip(u, v)) for v in _D4_ROOTS]
        for u in _D4_ROOTS
    ]
)


def _cofactor_det(m: Matrix) -> Fraction:
    """Independent determinant oracle by first-row cofactor expansion."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        minor = Matrix(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * _cofactor_det(minor)
    return total


def _small_matrix(n: int, entries) -> Matrix:
    return Matrix([[Fraction(entries[i * n + j]) for j in range(n)] for i in range(n)])


square_ints = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-9, max_value=9), min_size=n * n, max_size=n * n
    ).map(lambda xs: _small_matrix(n, xs))
)

square_rationals = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda xs: _small_matrix(n, xs))
)


# --- rat / Matrix basics ----------------------------------------------------

def test_rat_parses_wire_form():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert str(rat("6/4")) == "3/2"
    assert str(rat(5)) == "5"


def test_matrix_immutable_and_hashable():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 3
    assert hash(m) == hash(Matrix.from_rows([[1, 2], [3, 4]]))


entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _grid(h: int, w: int):
    return st.lists(st.lists(entries, min_size=w, max_size=w), min_size=h, max_size=h)


rational_grids = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda s: _grid(*s))


@settings(max_examples=100, deadline=None)
@given(rational_grids, st.integers(-6, 6).filter(bool))
def test_scaled_form_is_canonical(rows, k):
    m = Matrix(rows)
    ints, den = grid_cleared(fraction_grid(rows))
    # the stored pair is the cleared one, in lowest terms
    assert (m.ints, m.den) == (tuple(map(tuple, ints)), den)
    other = Matrix.scaled([[k * x for x in row] for row in ints], k * den)
    assert other == m
    assert hash(other) == hash(m)
    assert Matrix([[str(x) for x in row] for row in rows]) == m


@st.composite
def _operands(draw):
    r, c, k = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_grid(r, c)), draw(_grid(r, c)), draw(_grid(c, k)), draw(entries)


@settings(max_examples=100, deadline=None)
@given(_operands())
def test_matrix_operations_match_fraction_loops(case):
    a, b, c, s = case
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
    fa, fb, fc = fraction_grid(a), fraction_grid(b), fraction_grid(c)

    def grid(m):
        return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]

    assert grid(ma) == fa
    assert [list(ma.row(i)) for i in range(ma.rows)] == fa
    assert [list(r) for r in ma.data] == fa
    assert ma.cleared() == grid_cleared(fa)
    assert ma.is_integer() == all(x.denominator == 1 for row in fa for x in row)
    assert grid(ma * mc) == grid_product(fa, fc)
    assert grid(ma + mb) == grid_sum(fa, fb)
    assert grid(ma - mb) == grid_sum(fa, fb, -1)
    assert grid(ma.transpose()) == grid_transpose(fa)
    scaled = [[x * s for x in row] for row in fa]
    assert grid(ma * s) == grid(s * ma) == scaled
    assert grid(ma * 3) == [[3 * x for x in row] for row in fa]
    assert grid(-ma) == [[-x for x in row] for row in fa]


def test_matrix_mul_identity():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m * Matrix.identity(2) == m
    assert Matrix.identity(2) * m == m


# --- det --------------------------------------------------------------------

def test_det_identity():
    assert det(Matrix.identity(3)) == 1


def test_det_a3_gram_is_4():
    assert det(A3_GRAM) == 4


def test_det_a2_gram_is_3():
    assert det(A2_GRAM) == 3


def test_det_rejects_nonsquare():
    with pytest.raises(NonSquareMatrix):
        det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_rational_entries():
    m = Matrix.from_rows([["1/2", "1/3"], ["1/4", "1/5"]])
    assert det(m) == Fraction(1, 10) - Fraction(1, 12)


@settings(max_examples=60)
@given(square_ints)
def test_det_matches_cofactor_oracle(m):
    assert det(m) == _cofactor_det(m)


@settings(max_examples=40)
@given(square_ints, square_ints)
def test_det_multiplicative(a, b):
    if a.rows != b.rows:
        return
    assert det(a * b) == det(a) * det(b)


@settings(max_examples=40)
@given(square_rationals)
def test_det_transpose_invariant(m):
    assert det(m) == det(m.transpose())


# --- inverse ------------------------------------------------------------------

def test_inverse_identity():
    assert inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_inverse_diagonal():
    m = Matrix.from_rows([[2, 0], [0, 2]])
    assert inverse(m) == Matrix.from_rows([["1/2", 0], [0, "1/2"]])


def test_inverse_a3_gram_denominators_divide_4():
    inv = inverse(A3_GRAM)
    for i in range(3):
        for j in range(3):
            assert 4 % inv[i, j].denominator == 0


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))


@settings(max_examples=60)
@given(square_rationals)
def test_inverse_round_trip(m):
    if det(m) == 0:
        return
    inv = inverse(m)
    assert m * inv == Matrix.identity(m.rows)
    assert inverse(inv) == m


rational_squares = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        min_size=n * n,
        max_size=n * n,
    ).map(lambda xs: [xs[i * n : (i + 1) * n] for i in range(n)])
)


@settings(max_examples=150, deadline=None)
@given(rational_squares, st.integers(min_value=-1, max_value=7), st.integers(-3, 3))
def test_inverse_matches_fraction_gauss_jordan(rows, dependent, k):
    # dependent >= 0 overwrites the last row with k times another row plus
    # the first, so singular inputs come up often
    n = len(rows)
    if 0 <= dependent < n - 1:
        rows[-1] = [k * x + y for x, y in zip(rows[dependent], rows[0])]
    m = Matrix(rows)
    if fraction_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            inverse(m)
        return
    assert [list(r) for r in inverse(m).data] == _inverse(rows)


# --- hnf ----------------------------------------------------------------------

def _assert_hnf_shape(h: Matrix) -> None:
    """Shape axioms of row-style HNF: pivots positive and strictly right-down,
    zeros below pivots, entries above a pivot in [0, pivot), zero rows last."""
    pivots: list[tuple[int, int]] = []
    seen_zero_row = False
    last_col = -1
    for i in range(h.rows):
        row = h.row(i)
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            seen_zero_row = True
            continue
        assert not seen_zero_row, "nonzero row after a zero row"
        j = nz[0]
        assert j > last_col, "pivot columns must strictly increase"
        last_col = j
        assert row[j] > 0, "pivot must be positive"
        pivots.append((i, j))
    for i, j in pivots:
        for k in range(i):
            assert 0 <= h[k, j] < h[i, j], "entry above pivot not reduced"
        for k in range(i + 1, h.rows):
            assert h[k, j] == 0, "entry below pivot not cleared"


def test_hnf_identity():
    h, u = hnf(Matrix.identity(3))
    assert h == Matrix.identity(3)
    assert u == Matrix.identity(3)


def test_hnf_frozen_example():
    h, u = hnf(Matrix.from_rows([[1, 2], [3, 4]]))
    assert h == Matrix.from_rows([[1, 0], [0, 2]])
    assert u * Matrix.from_rows([[1, 2], [3, 4]]) == h


def test_hnf_permutation_invariance():
    m = Matrix.from_rows([[2, 0], [0, 2]])
    p = Matrix.from_rows([[0, 2], [2, 0]])
    assert hnf(m)[0] == hnf(p)[0]


def test_hnf_rejects_rational_entries():
    with pytest.raises(NotInteger):
        hnf(Matrix.from_rows([["1/2", 0], [0, 1]]))


rect_ints = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda rc: st.lists(
        st.integers(min_value=-9, max_value=9),
        min_size=rc[0] * rc[1],
        max_size=rc[0] * rc[1],
    ).map(
        lambda xs: Matrix(
            [
                [Fraction(xs[i * rc[1] + j]) for j in range(rc[1])]
                for i in range(rc[0])
            ]
        )
    )
)


@settings(max_examples=80)
@given(rect_ints)
def test_hnf_properties(m):
    h, u = hnf(m)
    assert u * m == h
    assert abs(det(u)) == 1
    _assert_hnf_shape(h)
    # canonical: HNF is a fixed point
    assert hnf(h)[0] == h


@settings(max_examples=40)
@given(rect_ints, st.randoms(use_true_random=False))
def test_hnf_row_permutation_invariant(m, rng):
    order = list(range(m.rows))
    rng.shuffle(order)
    p = Matrix([[m.row(i)[j] for j in range(m.cols)] for i in order])
    assert hnf(m)[0] == hnf(p)[0]


@st.composite
def _basis_and_rows(draw):
    """A nonsingular integer B (rank 1-6), a row c B of its lattice, that row
    moved by a small integer offset delta (often leaving the lattice), and
    the row with its last-row component removed."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-9, max_value=9)
    b = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda rows: fraction_det(rows) != 0
        )
    )
    c = draw(st.lists(entry, min_size=n, max_size=n))
    delta = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n))
    v = [sum(ci * row[j] for ci, row in zip(c, b)) for j in range(n)]
    return b, [v, [x + d for x, d in zip(v, delta)], [x - c[-1] * y for x, y in zip(v, b[-1])]]


@settings(max_examples=150, deadline=None)
@given(_basis_and_rows())
def test_hnf_coords_matches_inverse_oracle(case):
    # against B, v is in the span iff v B^-1 is integral; against B without
    # its last row (a non-pivot column in its HNF) iff also the last
    # coordinate is 0
    b, rows = case
    binv = _inverse(b)
    for basis in (b, b[:-1]):
        if not basis:
            continue
        h = hnf_rows([row[:] for row in basis])
        for w in rows:
            y = [sum(wi * binv[i][j] for i, wi in enumerate(w)) for j in range(len(w))]
            inside = all(c.denominator == 1 for c in y) and (basis is b or y[-1] == 0)
            x = hnf_coords(h, w)
            if inside:
                assert x is not None
                assert [sum(xi * row[j] for xi, row in zip(x, h)) for j in range(len(w))] == w
            else:
                assert x is None


@st.composite
def _hnf_inputs(draw):
    """Integer rows (1-6 of them, 1-6 columns, entries up to 1, 9 or 1000 in
    absolute value), square or not; rows may be replaced by zero or by a
    small integer combination of the rows above, so the rank often falls
    short of the row count."""
    r = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=1, max_value=6))
    size = draw(st.sampled_from([1, 9, 1000]))
    entry = st.integers(min_value=-size, max_value=size)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    for i in range(r):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "combination"]))
        if kind == "zero":
            rows[i] = [0] * c
        elif kind == "combination" and i:
            k = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=i, max_size=i))
            rows[i] = [sum(kj * rows[j][col] for j, kj in enumerate(k)) for col in range(c)]
    return rows


@settings(max_examples=300, deadline=None)
@given(_hnf_inputs())
def test_hnf_rows_matches_euclidean_oracle(rows):
    assert hnf_rows([row[:] for row in rows]) == hnf_by_euclid(rows)
    # [m | I] with pivots in m's columns only, the way hnf carries u
    n, c = len(rows), len(rows[0])
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    got = hnf_rows([row[:] for row in aug], c)
    want = hnf_by_euclid(aug, c)
    h = [row[:c] for row in got]
    assert h == [row[:c] for row in want]
    if all(any(row) for row in h):
        # no left kernel: u = h m^-1 is unique too
        assert got == want
    else:
        # the rows of u beside the zero rows of h span the left kernel of m,
        # which has many bases; any unimodular u with u m = h is right
        u = [row[c:] for row in got]
        assert [[sum(a * row[j] for a, row in zip(ur, rows)) for j in range(c)] for ur in u] == h
        assert abs(fraction_det(u)) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([1, 9, 1000]).flatmap(
                lambda b: st.integers(min_value=-b, max_value=b)
            ), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ).filter(lambda rows: fraction_det(rows) != 0),
    st.sampled_from([1, 2, 6]),
)
def test_hnf_rows_modulo_a_multiple_of_det_matches_euclidean_oracle(rows, k):
    # the row lattice of a nonsingular square contains |det| Z^n, so the pass
    # modulo any multiple of |det| must give the one Hermite form
    modulus = k * abs(int(fraction_det(rows)))
    assert hnf_rows([row[:] for row in rows], modulus=modulus) == hnf_by_euclid(rows)


# --- snf ----------------------------------------------------------------------

def test_snf_a3_gram():
    assert snf(A3_GRAM) == (1, 1, 4)


def test_snf_a2_gram():
    assert snf(A2_GRAM) == (1, 3)


def test_snf_d4_gram():
    assert snf(D4_GRAM) == (1, 1, 2, 2)


def test_snf_rejects_singular():
    with pytest.raises(SingularMatrix):
        snf(Matrix.from_rows([[1, 1], [1, 1]]))


def test_snf_rejects_nonsquare():
    with pytest.raises(NonSquareMatrix):
        snf(Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))


wide_square_ints = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).filter(lambda rows: fraction_det(rows) != 0)


@settings(max_examples=150, deadline=None)
@given(wide_square_ints)
def test_snf_matches_the_determinantal_divisors(rows):
    assert snf(Matrix.scaled(rows)) == snf_by_minors(rows)


def test_snf_matches_the_determinantal_divisors_on_structured_cases():
    # a nontrivial chain hidden by unimodular mixing, and a prime-power mix
    cases = (
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
        [[12, 0, 0], [0, 18, 0], [0, 0, 8]],
        [[0, 1], [1, 0]],
    )
    for rows in cases:
        assert snf(Matrix.scaled(rows)) == snf_by_minors(rows)
    assert snf(Matrix.scaled(cases[1])) == (2, 12, 72)


@settings(max_examples=60)
@given(square_ints)
def test_snf_chain_and_product(m):
    if det(m) == 0:
        return
    factors = snf(m)
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    prod = 1
    for f in factors:
        prod *= f
    assert prod == abs(det(m))


@settings(max_examples=30)
@given(square_ints)
def test_snf_invariant_under_unimodular(m):
    if det(m) == 0:
        return
    # a fixed small unimodular pair of the right size
    n = m.rows
    u_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    u_rows[0][n - 1] = 3
    v_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    v_rows[n - 1][0] = -2
    u, v = Matrix(u_rows), Matrix(v_rows)
    assert snf(u * m * v) == snf(m)
