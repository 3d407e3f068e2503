"""Independent oracles used by the test suite.

Everything here is deliberately naive: short vectors by exhaustive box
enumeration with numpy, or for a Gram W W^T over the ball of images x W,
lattice equivalence by brute-force row search over GL(n, Z), Gram matrices
built straight from Dynkin diagram adjacency, the square root of a cubic
trace dual by search over all sublattices of the right index, the primes
of index 2 above 2 as the kernels of the ring maps O -> F_2 found by a scan
of all 2^n - 1 candidates, trace Grams
from polynomial products and Newton sums, Hermite forms by extended-gcd row
pairs and by Euclidean steps on the least pivot, the norm-one points of
x^2 + d y^2 = 1 by a scan of every x = a/m of bounded height and by the
conic's rational parametrization through (-1, 0), the A2
falsification as a Fraction pair search over a box of points, the d = 3 A2
family by a Fraction build and Hermite key of every slope pair, the Shanks
chord family by a Fraction build and Hermite key of every chord point,
root-graph connectivity by label propagation over every pair of roots, and
Galois stability as integrality of B S B^-1 by Gauss-Jordan, with each
field's automorphisms written out from their definitions, the Shanks
normal-basis element lam0 eps + lam1 eps^sigma + lam2 eps^(sigma^2) from
that sigma, the parity witness by a scan of all 2^n - 1 classes of L/2L,
matrix arithmetic and the Gram B T B^T by loops over Fraction grids, the
Smith form from the gcds of all k x k minors, the rational roots of f_t by
a Fraction scan of every coprime pair of divisors of den(t), and
factorization by trial division.  None of it shares code with the package
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


def image_ball_short_vectors(w, budget: int):
    """All x != 0 with x G x^T <= budget for G = W W^T, W a nonsingular
    integer matrix, sign-canonicalized and sorted by (norm, coords) as
    box_short_vectors gives them.  x G x^T = |x W|^2, so y = x W runs over
    the integer points of the ball |y|^2 <= budget, and y comes from an
    integer x exactly when x = y W^-1 = y adj(W) / det W is integral, that
    is y adj(W) = 0 mod det W.  The ball's size depends on n and the budget
    alone, however skew W is, where a box about a reduced basis need not."""
    n = len(w)
    det = fraction_det(w)
    adj = [[int(det * c) for c in row] for row in _inverse(w)]
    det = int(det)
    out = {}

    def ball(prefix, left):
        if len(prefix) == n:
            xs = [sum(y * adj[i][k] for i, y in enumerate(prefix)) for k in range(n)]
            if any(xs) and all(x % det == 0 for x in xs):
                x = tuple(c // det for c in xs)
                if next(c for c in x if c) < 0:
                    x = tuple(-c for c in x)
                out[x] = budget - left
            return
        r = math.isqrt(left)
        for y in range(-r, r + 1):
            ball(prefix + [y], left - y * y)

    ball([], budget)
    return sorted((norm, x) for x, norm in out.items())


def roots_by_reflection(gram) -> list[tuple[int, ...]]:
    """The roots of a simply-laced root system from its Dynkin-diagram Gram
    (the basis is the simple roots): the orbit of the simple roots under the
    simple reflections s_i(v) = v - <v, a_i> a_i, one sign-representative
    (first nonzero entry positive) per +-pair, sorted."""
    n = len(gram)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        v = todo.pop()
        for i in range(n):
            c = sum(v[k] * gram[k][i] for k in range(n))
            if c:
                w = tuple(v[k] - c * (k == i) for k in range(n))
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return sorted(v for v in seen if next(x for x in v if x) > 0)


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


def snf_by_minors(rows) -> tuple[int, ...]:
    """Invariant factors of a nonsingular integer matrix from its
    determinantal divisors: D_k is the gcd of every k x k minor, and the
    k-th invariant factor is D_k / D_(k-1)."""
    n = len(rows)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for r in itertools.combinations(range(n), k):
            for c in itertools.combinations(range(n), k):
                minor = fraction_det([[rows[i][j] for j in c] for i in r])
                g = math.gcd(g, int(minor))
        divisors.append(g)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


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


def index_two_primes_by_scan(table, basis) -> list[list[list[Fraction]]]:
    """The primes of index 2 of the order with structure constants table,
    o_i o_j = sum_k table[i][j][k] o_k, and basis rows basis: the kernels of
    the ring maps O -> F_2, each the nonzero w in F_2^n with
    w(o_i o_j) = w(o_i) w(o_j), among all 2^n - 1 candidates.  The kernel
    {x : w.x even} has the rows 2 o_k and o_j + w_j o_k (j != k) for the
    first k with w_k = 1, returned over the basis."""
    n = len(table)
    out = []
    for w in itertools.product((0, 1), repeat=n):
        if not any(w) or any(
            (sum(a * c for a, c in zip(w, table[i][j])) - w[i] * w[j]) % 2
            for i in range(n)
            for j in range(n)
        ):
            continue
        k = w.index(1)
        coords = [
            [2 * int(i == k) if j == k else int(i == j) + w[j] * int(i == k) for i in range(n)]
            for j in range(n)
        ]
        out.append([_vecmat(row, basis) for row in coords])
    return out


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
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    7: [1, 1, 1, 1, 1, 1, 1],
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    12: [1, 0, -1, 0, 1],
    15: [1, -1, 0, 1, -1, 1, 0, -1, 1],
    20: [1, 0, -1, 0, 1, 0, -1, 0, 1],
    23: [1] * 23,
}


def cyclotomic_power_map(n: int, k: int):
    """zeta -> zeta^k on power-basis coordinates: a(zeta) -> a(zeta^k)."""
    minpoly = CYCLOTOMIC_MINPOLY[n]

    def apply(a):
        p = [Fraction(0)] * n
        for j, x in enumerate(a):
            p[(k * j) % n] += Fraction(x)
        return _poly_mod(p, minpoly)

    return apply


def cyclotomic_conj(n: int):
    """zeta -> zeta^-1 = zeta^(n-1) on power-basis coordinates."""
    return cyclotomic_power_map(n, n - 1)


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


# --- Hermite normal form by Euclidean steps on the least pivot --------------

def hnf_by_euclid(rows) -> list[list[int]]:
    """Row-style HNF of integer rows.  Each column is cleared by repeated
    division steps: the row with the least nonzero entry becomes the pivot,
    every row below is reduced by it, and that repeats until the column
    below the pivot is zero."""
    a = [[int(x) for x in row] for row in rows]
    m = len(a)
    r = 0
    for c in range(len(a[0])):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            clean = True
            for i in range(r + 1, m):
                f = a[i][c] // a[r][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[r])]
                if a[i][c] != 0:
                    clean = False
            if clean:
                break
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-u for u in a[r]]
        for i in range(r):
            f = a[i][c] // a[r][c]
            a[i] = [u - f * v for u, v in zip(a[i], a[r])]
        r += 1
    return a


# --- rational points on x^2 + d y^2 = 1 by a grid scan -----------------------

def norm_one_points_by_scan(d: int, height: int) -> list[tuple[Fraction, Fraction]]:
    """Sorted rational (a/m, y) on x^2 + d y^2 = 1 with gcd(a, m) = 1 and
    |a| <= m <= height: for each such x, y = +-k/m with d k^2 = m^2 - a^2."""
    out = set()
    for m in range(1, height + 1):
        for a in range(-m, m + 1):
            if math.gcd(a, m) != 1 or (m * m - a * a) % d:
                continue
            k2 = (m * m - a * a) // d
            k = math.isqrt(k2)
            if k * k == k2:
                out.add((Fraction(a, m), Fraction(k, m)))
                out.add((Fraction(a, m), Fraction(-k, m)))
    return sorted(out)


def norm_one_points_by_slope(d: int, height: int) -> list[tuple[Fraction, Fraction]]:
    """The points of norm_one_points_by_scan for squarefree d, from the
    rational parametrization of the conic through (-1, 0): every other point
    lies on the line of slope u/v through it, so it is

        x = (v^2 - d u^2) / n,  y = 2 u v / n,  n = v^2 + d u^2

    for coprime u >= 0, v >= 1, with both signs of y.  The height of a point
    is the reduced denominator m of x, and m = n / g with g = gcd of n and
    v^2 - d u^2, a divisor of 2 gcd(v, d); so m <= height needs n <= 2 d
    height and n <= 2 v height, two ellipses that bound u and v."""
    out = {(Fraction(-1), Fraction(0))} if height else set()
    h2 = height * height
    for u in range(min(math.isqrt(2 * height), math.isqrt(h2 // d)) + 1):
        du2 = d * u * u
        s = math.isqrt(h2 - du2)
        for v in range(max(1, height - s), height + s + 1):
            n = v * v + du2
            if math.gcd(u, v) != 1 or n > 2 * d * height:
                continue
            x = Fraction(v * v - du2, n)
            if x.denominator <= height:
                out.add((x, Fraction(2 * u * v, n)))
                out.add((x, Fraction(-2 * u * v, n)))
    return sorted(out)


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


# --- the d = 3 slope family by a certified build of every pair ---------------

def a2_family_by_full_build(height: int, sign: int):
    """The distinct A2 lattices of the slope family in Q(sqrt(3 sign)), as
    (basis rows, Gram) Fraction tuples in first-seen order over s0, then s1,
    in [-height, height] and the branches "+", "-".

    Every pair is built in full: the section point (-c, -2 s0 s1)/n with
    n = s0^2 + 3 s1^2, c = s0^2 - 3 s1^2, the second y = (2 s0 s1 -+ c)/(2n),
    the second x solved from the pairing -1, both points checked on
    x^2 + 3 y^2 = 1, the Gram as twice the rational part of a * conj(b)
    (conj flips the radical only when sign = -1), and the lattice keyed by
    its clearing denominator and hermite_form."""
    r = 3 * sign
    seen = {}
    for s0 in range(-height, height + 1):
        for s1 in range(-height, height + 1):
            if (s0, s1) == (0, 0):
                continue
            n = s0 * s0 + 3 * s1 * s1
            c = s0 * s0 - 3 * s1 * s1
            x1, y1 = Fraction(-c, n), Fraction(-2 * s0 * s1, n)
            for branch in ("+", "-"):
                y2 = Fraction(2 * s0 * s1 - c if branch == "+" else 2 * s0 * s1 + c, 2 * n)
                x2 = (Fraction(-1, 2) - 3 * y1 * y2) / x1
                rows = ((x1, y1), (x2, y2))
                assert all(x * x + 3 * y * y == 1 for x, y in rows)
                conj = [(x, y if sign > 0 else -y) for x, y in rows]
                gram = tuple(
                    tuple(2 * (a[0] * b[0] + r * a[1] * b[1]) for b in conj) for a in rows
                )
                assert gram == ((2, -1), (-1, 2))
                cleared, scale = grid_cleared(rows)
                key = (scale, tuple(map(tuple, hermite_form(cleared))))
                seen.setdefault(key, (rows, gram))
    return list(seen.values())


# --- the Shanks chord family by a Fraction build of every point --------------

def family_by_full_build(t, height: int, target):
    """The distinct lattices of the chord family at t for the target
    (d, e, f), as (lam, (x, y), slope, key) in first-seen order over the
    slopes, None (vertical) first, then a/b in lowest terms for b = 1 ..
    height and a = -height .. height; and the number of degenerate points.

    Every point is built in full from Fractions: the chord point by
    chord_point_by_fractions, on x^2 + 3 y^2 = delta = t^2 + 3t + 9, and
    the weights by weights_by_fractions.  beta is sum lam_i eps^(sigma^i)
    with sigma from shanks_automorphisms, and the rows beta, beta^sigma,
    beta^sigma^2 are the basis.  A singular basis
    counts as degenerate; otherwise its trace_gram must be the circulant of
    (d, e, e), and the lattice is keyed by its clearing denominator and
    hnf_by_euclid."""
    t = Fraction(t)
    d, e = Fraction(target[0]), Fraction(target[1])
    delta = t * t + 3 * t + 9
    sig, sig2 = shanks_automorphisms(t)
    eps = [Fraction(0), Fraction(1), Fraction(0)]
    orbit = (eps, sig(eps), sig2(eps))
    minpoly = shanks_minpoly(t)
    slopes = [None] + [
        Fraction(a, b)
        for b in range(1, height + 1)
        for a in range(-height, height + 1)
        if math.gcd(a, b) == 1
    ]
    seen = {}
    degenerate = 0
    for s in slopes:
        x, y = chord_point_by_fractions(t, s)
        assert x * x + 3 * y * y == delta
        lam = weights_by_fractions(t, target, x, y)
        beta = [sum(w * v[i] for w, v in zip(lam, orbit)) for i in range(3)]
        rows = [beta, sig(beta), sig2(beta)]
        if fraction_det(rows) == 0:
            degenerate += 1
            continue
        gram = trace_gram(minpoly, lambda v: v, rows)
        assert gram == [[d, e, e], [e, d, e], [e, e, d]]
        cleared, scale = grid_cleared(rows)
        key = (scale, tuple(map(tuple, hnf_by_euclid(cleared))))
        seen.setdefault(key, (lam, (x, y), s, key))
    return list(seen.values()), degenerate


def chord_point_by_fractions(t, s) -> tuple[Fraction, Fraction]:
    """The second intersection of x^2 + 3 y^2 = t^2 + 3t + 9 with the line
    of slope s (None = vertical) through (x0, y0) = (t + 3/2, 3/2):
    (x0 + tau, y0 + s tau) with tau = -2 (x0 + 3 s y0) / (1 + 3 s^2), and
    (x0, -y0) on the vertical line."""
    t = Fraction(t)
    x0, y0 = t + Fraction(3, 2), Fraction(3, 2)
    if s is None:
        return x0, -y0
    s = Fraction(s)
    tau = -2 * (x0 + 3 * s * y0) / (1 + 3 * s * s)
    return x0 + tau, y0 + s * tau


def weights_by_fractions(t, target, x, y) -> tuple[Fraction, Fraction, Fraction]:
    """lam0 = f/3t + 2x / 3 delta and lam1, lam2 = f/3t - x / 3 delta +- y /
    delta, delta = t^2 + 3t + 9, for the target (d, e, f)."""
    t = Fraction(t)
    f = Fraction(target[2])
    delta = t * t + 3 * t + 9
    return (
        f / (3 * t) + 2 * x / (3 * delta),
        f / (3 * t) - x / (3 * delta) + y / delta,
        f / (3 * t) - x / (3 * delta) - y / delta,
    )


# --- connectivity of the root graph by labels over every pair ----------------

def connected_by_pairwise_graph(gram, vectors) -> bool:
    """Is the graph on the vectors, with an edge where <u, v> != 0, connected?
    Every pair's inner product is summed out in full, and each vertex's
    label falls to the least label among its neighbours until nothing
    changes; the graph is connected iff one label is left."""
    m = len(vectors)
    n = len(gram)
    edges = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if sum(vectors[i][a] * gram[a][b] * vectors[j][b] for a in range(n) for b in range(n))
    ]
    label = list(range(m))
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    return len(set(label)) <= 1


# --- Galois stability as integrality of B S B^-1 -----------------------------

def shanks_automorphisms(t) -> list:
    """sigma and sigma^2 of Q[x]/(x^3 - t x^2 - (t+3) x - 1), from the
    definition eps^sigma = -1/(1+eps): u = eps^sigma solves (1+eps) u = -1,
    found by inverting the multiplication-by-(1+eps) matrix, and then
    a0 + a1 eps + a2 eps^2 maps to a0 + a1 u + a2 u^2."""
    t = Fraction(t)
    unit = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    times = [_shanks_mul(t, [1, 1, 0], e) for e in unit]
    u = _vecmat([-1, 0, 0], _inverse(times))
    assert _shanks_mul(t, [1, 1, 0], u) == [-1, 0, 0]

    def power_map(images):
        return lambda a: _vecmat([Fraction(x) for x in a], images)

    sigma = [[1, 0, 0], u, _shanks_mul(t, u, u)]
    sigma2 = [_vecmat(row, sigma) for row in sigma]
    return [power_map(sigma), power_map(sigma2)]


def bracket(t, lam) -> tuple[Fraction, ...]:
    """lam0 eps + lam1 eps^sigma + lam2 eps^(sigma^2) in power-basis
    coordinates, with sigma from shanks_automorphisms."""
    sig, sig2 = shanks_automorphisms(t)
    eps = [0, 1, 0]
    orbit = [[Fraction(x) for x in eps], sig(eps), sig2(eps)]
    return tuple(sum(Fraction(c) * row[j] for c, row in zip(lam, orbit)) for j in range(3))


def cyclotomic_automorphisms(n: int) -> list:
    """zeta -> zeta^k for every unit k mod n, identity included."""
    return [cyclotomic_power_map(n, k) for k in range(1, n) if math.gcd(k, n) == 1]


def quadratic_automorphisms() -> list:
    """x + y sqrt(+-d) -> x - y sqrt(+-d)."""
    return [lambda a: [Fraction(a[0]), -Fraction(a[1])]]


def galois_stable_by_inverse(automorphisms, rows) -> bool:
    """Is B S B^-1 integral for the matrix S of every automorphism?  Row i
    of S is the image of the i-th power-basis vector, B^-1 comes from
    Fraction Gauss-Jordan, and B S B^-1 holds the coordinates of the images
    of the basis vectors in the basis itself."""
    b = [[Fraction(x) for x in row] for row in rows]
    n = len(b)
    b_inv = _inverse(b)
    for gmap in automorphisms:
        s = [gmap([Fraction(int(i == j)) for j in range(n)]) for i in range(n)]
        coords = [_vecmat(_vecmat(row, s), b_inv) for row in b]
        if any(x.denominator != 1 for row in coords for x in row):
            return False
    return True


def odd_witness_by_scan(gram) -> tuple[int, ...] | None:
    """The exhaustive parity scan over L/2L (well defined: <x+2y, x+2y> is
    congruent to <x,x> mod 4): the first 0/1 vector with odd norm in the
    binary counting order, first coordinate least significant, or None."""
    n = len(gram)
    for mask in range(1, 1 << n):
        x = [(mask >> i) & 1 for i in range(n)]
        if sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) % 2:
            return tuple(x)
    return None


def fraction_grid(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def grid_product(a, b) -> list[list[Fraction]]:
    """a b by the triple loop over Fraction entries."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def grid_transpose(a) -> list[list[Fraction]]:
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def grid_cleared(a) -> tuple[list[list[int]], int]:
    """(a', s) with a'/s = a, s the least common denominator of the entries."""
    s = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * s) for x in row] for row in a], s


def gram_by_fraction_products(basis_rows, form_rows) -> tuple[list[list[int]], int]:
    """B T B^T as the pair (ints, den) in lowest terms: the Fraction product
    B T, its product with the transpose of B, and the least common
    denominator cleared."""
    b = fraction_grid(basis_rows)
    return grid_cleared(grid_product(grid_product(b, fraction_grid(form_rows)), grid_transpose(b)))


def _divisors_by_trial(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_root_by_divisor_scan(t) -> Fraction | None:
    """The first rational root of f_t(x) = x^3 - t x^2 - (t+3) x - 1, or None.

    By the rational root theorem on q x^3 - p x^2 - (p+3q) x - q (t = p/q),
    a root is +-a/b with a and b coprime divisors of q.  Every such pair is
    evaluated in Fractions, d(q)^2 candidates, in the order of b, then a,
    + before -."""
    t = Fraction(t)
    divisors = _divisors_by_trial(t.denominator)
    for b in divisors:
        for a in divisors:
            if math.gcd(a, b) != 1:
                continue
            for r in (Fraction(a, b), Fraction(-a, b)):
                if r**3 - t * r**2 - (t + 3) * r - 1 == 0:
                    return r
    return None


def factor_by_trial_division(n: int) -> dict[int, int]:
    """{prime: exponent} of n > 1 by division by every d up to sqrt(n)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
