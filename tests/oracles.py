"""Independent oracles used by the test suite.

Everything here is deliberately naive: short vectors by exhaustive box
enumeration with numpy, lattice equivalence by brute-force row search over
GL(n, Z), Gram matrices built straight from Dynkin diagram adjacency, the
square root of a cubic trace dual by search over all sublattices of the
right index, trace Grams from polynomial products and Newton sums, Hermite
forms by extended-gcd row pairs, and the A2 falsification as a Fraction
pair search over a box of points.  None of it shares code with the package
under test.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

CHUNK = 200_000


def _inverse(rows) -> list[list[Fraction]]:
    """Exact G^{-1} by Fraction Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def _inverse_diag(rows: list[list[int]]) -> list[Fraction]:
    """Exact diagonal of G^{-1}."""
    inv = _inverse(rows)
    return [inv[i][i] for i in range(len(rows))]


def _dual_box_bounds(gram: list[list[int]], bound: int) -> list[int]:
    """|x_i| <= sqrt(bound * (G^-1)_ii), floored exactly in integers."""
    out = []
    for d in _inverse_diag(gram):
        r = bound * d
        out.append(math.isqrt(r.numerator * r.denominator) // r.denominator)
    return out


def box_short_vectors(gram, bound: int):
    """All x != 0 with x G x^T <= bound, sign-canonicalized (first nonzero
    entry positive), sorted by (norm, coords).  Exhaustive and exact."""
    rows = [[int(x) for x in row] for row in gram]
    n = len(rows)
    g = np.array(rows, dtype=np.int64)
    bounds = _dual_box_bounds(rows, bound)
    ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    sizes = [len(r) for r in ranges]
    # peel leading coordinates into python loops until the tail grid is small
    k = 0
    tail = math.prod(sizes)
    while tail > CHUNK and k < n - 1:
        tail //= sizes[k]
        k += 1
    tail_grid = np.stack(
        [m.ravel() for m in np.meshgrid(*ranges[k:], indexing="ij")], axis=1
    )
    out = {}
    for prefix in itertools.product(*(range(-b, b + 1) for b in bounds[:k])):
        x = np.empty((tail_grid.shape[0], n), dtype=np.int64)
        if k:
            x[:, :k] = np.array(prefix, dtype=np.int64)
        x[:, k:] = tail_grid
        q = np.einsum("ij,jk,ik->i", x, g, x)
        keep = (q > 0) & (q <= bound)
        for row, norm in zip(x[keep], q[keep]):
            v = tuple(int(c) for c in row)
            for c in v:
                if c != 0:
                    if c < 0:
                        v = tuple(-int(c2) for c2 in v)
                    break
            out[v] = int(norm)
    return sorted((norm, v) for v, norm in out.items())


def _pair_reduce(gram):
    """Classical pair reduction: subtract nearest-integer multiples of one
    basis vector from another until no diagonal entry shrinks.  Returns the
    reduced Gram and the unimodular transform U with G_red = U G U^T."""
    n = len(gram)
    g = [[int(x) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or g[j][j] == 0:
                    continue
                q = (2 * g[i][j] + g[j][j]) // (2 * g[j][j])
                if q == 0:
                    continue
                if g[i][i] - 2 * q * g[i][j] + q * q * g[j][j] < g[i][i]:
                    for k in range(n):
                        u[i][k] -= q * u[j][k]
                    for k in range(n):
                        g[i][k] -= q * g[j][k]
                    for k in range(n):
                        g[k][i] -= q * g[k][j]
                    changed = True
    return g, u


def reduced_box_short_vectors(gram, bound: int):
    """box_short_vectors after a unimodular change of basis; the answer is
    mapped back to coefficients in the original basis, so it is directly
    comparable.  Needed when a skew basis makes the raw box astronomical."""
    reduced, u = _pair_reduce(gram)
    n = len(u)
    out = []
    for norm, v in box_short_vectors(reduced, bound):
        w = tuple(sum(v[i] * u[i][k] for i in range(n)) for k in range(n))
        for c in w:
            if c != 0:
                if c < 0:
                    w = tuple(-c2 for c2 in w)
                break
        out.append((norm, w))
    return sorted(out)


def vectors_of_norm(gram, value: int):
    """Both signs of every vector with x G x^T == value."""
    result = []
    for norm, v in box_short_vectors(gram, value):
        if norm == value:
            result.append(v)
            result.append(tuple(-c for c in v))
    return result


def gram_equivalent(gram, target) -> bool:
    """Is there U in GL(n, Z) with U gram U^T == target?  Brute force over
    rows drawn from exhaustive norm shells of gram."""
    n = len(target)
    shells = [vectors_of_norm(gram, target[i][i]) for i in range(n)]
    if any(not s for s in shells):
        return False
    g = [[int(x) for x in row] for row in gram]

    def pair(u, v):
        return sum(u[i] * g[i][j] * v[j] for i in range(n) for j in range(n))

    def extend(rows, depth):
        if depth == n:
            return abs(round(np.linalg.det(np.array(rows, dtype=float)))) == 1
        for cand in shells[depth]:
            if all(
                pair(rows[i], cand) == target[i][depth] for i in range(depth)
            ):
                if extend(rows + [cand], depth + 1):
                    return True
        return False

    return extend([], 0)


# --- Dynkin diagram Grams ---------------------------------------------------

def _gram_from_edges(n: int, edges) -> list[list[int]]:
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a - 1][b - 1] = -1
        g[b - 1][a - 1] = -1
    return g


def gram_A(n: int) -> list[list[int]]:
    return _gram_from_edges(n, [(i, i + 1) for i in range(1, n)])


def gram_D(n: int) -> list[list[int]]:
    edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return _gram_from_edges(n, edges)


_E8_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


def gram_E(n: int) -> list[list[int]]:
    assert n in (6, 7, 8)
    edges = [(a, b) for a, b in _E8_EDGES if a <= n and b <= n]
    return _gram_from_edges(n, edges)


ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("D", 4): 24,
    ("D", 5): 40,
    ("E", 6): 72,
    ("E", 7): 126,
    ("E", 8): 240,
}


def random_equivalent_gram(rng, base) -> list[list[int]]:
    """Conjugate a Gram by a random small unimodular W (product of shears)."""
    n = len(base)
    w = np.eye(n, dtype=np.int64)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear = np.eye(n, dtype=np.int64)
        shear[i, j] = rng.choice([-1, 1])
        w = w @ shear
    b = np.array(base, dtype=np.int64)
    out = w @ b @ w.T
    return [[int(x) for x in row] for row in out]


def random_unimodular(rng, n: int, steps: int) -> list[list[int]]:
    """A random U in GL(n, Z): row shears by small multiples, row swaps and
    sign flips applied to the identity, in exact Python integers."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(4)
        if i != j and kind < 2:
            q = rng.choice([-3, -2, -1, 1, 2, 3])
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        elif kind == 2:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


def conjugate_gram(u, gram) -> list[list[int]]:
    """U G U^T in exact integers."""
    n = len(u)
    ug = [[sum(u[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def fraction_det(rows) -> Fraction:
    """Exact determinant by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def gram_schmidt(gram):
    """(mu, B) of the basis with this Gram: B[i] = |b_i*|^2 and
    mu[i][j] = <b_i, b_j*> / B[j], in Fractions, straight from the Gram."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (
                Fraction(gram[i][j]) - sum(mu[j][k] * mu[i][k] * big_b[k] for k in range(j))
            ) / big_b[j]
        big_b[i] = Fraction(gram[i][i]) - sum(mu[i][k] ** 2 * big_b[k] for k in range(i))
    return mu, big_b


# --- square root of the trace dual by exhaustive search ---------------------

def _vecmat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adjugate3(m):
    """adj(m), integer for integer m, with m adj(m) = det(m) I."""

    def minor(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]

    return [[(-1) ** (i + j) * minor(j, i) for j in range(3)] for i in range(3)]


def _shanks_mul(t: Fraction, a, b):
    """Product in Q[x]/(x^3 - t x^2 - (t+3) x - 1), power-basis coordinates."""
    p = [Fraction(0)] * 5
    for i in range(3):
        for j in range(3):
            p[i + j] += a[i] * b[j]
    for k in (4, 3):
        # x^k = x^(k-3) (t x^2 + (t+3) x + 1)
        c, p[k] = p[k], Fraction(0)
        p[k - 1] += c * t
        p[k - 2] += c * (t + 3)
        p[k - 3] += c
    return p[:3]


def _hermite_det(m: int):
    """Every upper-triangular Hermite matrix of determinant m: one per
    index-m sublattice of Z^3."""
    for d0 in range(1, m + 1):
        if m % d0:
            continue
        for d1 in range(1, m // d0 + 1):
            if (m // d0) % d1:
                continue
            d2 = m // (d0 * d1)
            for b in range(d1):
                for c in range(d2):
                    for e in range(d2):
                        yield [[d0, b, c], [0, d1, e], [0, 0, d2]]


def sqrt_dual_by_search(t, order_rows, dual_rows) -> list[list[list[Fraction]]]:
    """Every lattice C with O <= C <= D, [D : C] = m, O C <= C and C C = D,
    where O is a maximal order of Q(eps), D its trace dual and m^2 = [D : O].

    Exhaustive over the Hermite matrices of determinant m in D-coordinates;
    containment and stability are tested as v adj(H) = 0 mod m.  Returns
    the bases of all hits (power-basis coordinates); unique by theory."""
    t = Fraction(t)
    o = [[Fraction(x) for x in r] for r in order_rows]
    d = [[Fraction(x) for x in r] for r in dual_rows]
    dinv = _inverse(d)

    def d_coords(v):
        w = _vecmat(v, dinv)
        return [int(x) for x in w] if all(x.denominator == 1 for x in w) else None

    index = abs(_det3(o) / _det3(d))
    assert index.denominator == 1
    m = math.isqrt(int(index))
    assert m * m == index
    order_in_d = [d_coords(r) for r in o]
    assert all(r is not None for r in order_in_d), "O must lie in its dual"

    def inside(v, adj):
        return v is not None and all(x % m == 0 for x in _vecmat(v, adj))

    hits = []
    for h in _hermite_det(m):
        adj = _adjugate3(h)
        if not all(inside(v, adj) for v in order_in_d):
            continue
        c = [_vecmat(row, d) for row in h]
        if not all(
            inside(d_coords(_shanks_mul(t, ci, oj)), adj) for ci in c for oj in o
        ):
            continue
        square = [d_coords(_shanks_mul(t, ci, cj)) for ci in c for cj in c]
        if any(v is None for v in square):
            continue
        minors = (_det3(list(rows)) for rows in itertools.combinations(square, 3))
        if math.gcd(*minors) == 1:
            hits.append(c)
    return hits


def same_lattice(a, b) -> bool:
    """Do the rational bases a and b span the same Z-module?"""
    u = [_vecmat(row, _inverse(b)) for row in a]
    return all(x.denominator == 1 for r in u for x in r) and abs(_det3(u)) == 1


# --- trace Grams from the definition ----------------------------------------

def _poly_mod(p, minpoly):
    """p mod the monic minpoly (ascending coefficients), padded to its degree."""
    n = len(minpoly) - 1
    p = [Fraction(c) for c in p]
    for k in range(len(p) - 1, n - 1, -1):
        c = p[k]
        if c:
            for i in range(n + 1):
                p[k - n + i] -= c * minpoly[i]
    return (p + [Fraction(0)] * n)[:n]


def _newton_sums(minpoly) -> list[Fraction]:
    """Power sums p_0 .. p_{n-1} of the roots of the monic minpoly."""
    n = len(minpoly) - 1
    c = [Fraction(x) for x in minpoly]  # x^n + c[n-1] x^{n-1} + ... + c[0]
    sums = [Fraction(n)]
    for k in range(1, n):
        acc = k * c[n - k]
        for i in range(1, k):
            acc += c[n - i] * sums[k - i]
        sums.append(-acc)
    return sums


def trace_gram(minpoly, conj, rows) -> list[list[Fraction]]:
    """Tr(b_i * conj(b_j)) straight from the definition: the product of two
    coordinate polynomials reduced mod the minpoly, and the trace of a
    reduced polynomial as the sum of its coefficients times Newton sums."""
    sums = _newton_sums(minpoly)

    def product(a, b):
        p = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                p[i + j] += Fraction(x) * Fraction(y)
        return _poly_mod(p, minpoly)

    def tr(a):
        return sum((x * s for x, s in zip(a, sums)), Fraction(0))

    return [[tr(product(a, conj(b))) for b in rows] for a in rows]


def shanks_minpoly(t) -> list[Fraction]:
    t = Fraction(t)
    return [Fraction(-1), -(t + 3), -t, Fraction(1)]


#: Phi_n, ascending, for the orders the tests use
CYCLOTOMIC_MINPOLY = {
    5: [1, 1, 1, 1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    12: [1, 0, -1, 0, 1],
}


def cyclotomic_conj(n: int):
    """zeta -> zeta^-1 = zeta^(n-1) on power-basis coordinates."""
    minpoly = CYCLOTOMIC_MINPOLY[n]

    def conj(a):
        p = [Fraction(0)] * n
        for j, x in enumerate(a):
            p[(n - j) % n] += Fraction(x)
        return _poly_mod(p, minpoly)

    return conj


# --- Hermite normal form by extended-gcd row pairs --------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hermite_form(rows) -> list[list[int]]:
    """Row-style HNF: pivots positive, zeros below, entries above a pivot in
    [0, pivot), zero rows last.  Each column is cleared by 2x2 unimodular
    steps [[x, y], [-b/g, a/g]] with x a + y b = g = gcd(a, b)."""
    a = [[int(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if a[i][c] == 0:
                continue
            if a[r][c] == 0:
                a[r], a[i] = a[i], a[r]
                continue
            g, x, y = _xgcd(a[r][c], a[i][c])
            p, q = a[r][c] // g, a[i][c] // g
            a[r], a[i] = (
                [x * u + y * v for u, v in zip(a[r], a[i])],
                [-q * u + p * v for u, v in zip(a[r], a[i])],
            )
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-u for u in a[r]]
        for i in range(r):
            f = a[i][c] // a[r][c]
            a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        r += 1
    return a


# --- A2 falsification by Fraction pair search --------------------------------

def a2_witness_by_search(d: int, height: int):
    """First pair (p, q), p <= q in the sorted list of the rational points
    (a/m, k/m) with m <= height and |a|, |k| <= m on x^2 + d y^2 = 1, whose
    pairing 2(x x' + d y y') is -1 and which are not proportional; None when
    there is no such pair."""
    points = set()
    for m in range(1, height + 1):
        for a in range(-m, m + 1):
            for k in range(-m, m + 1):
                if a * a + d * k * k == m * m:  # (a/m)^2 + d (k/m)^2 = 1
                    points.add((Fraction(a, m), Fraction(k, m)))
    points = sorted(points)
    for i, p in enumerate(points):
        for q in points[i:]:
            if 2 * (p[0] * q[0] + d * p[1] * q[1]) == -1 and p[0] * q[1] != p[1] * q[0]:
                return p, q
    return None
