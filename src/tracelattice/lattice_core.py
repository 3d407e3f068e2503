"""Trace-form lattices inside an ambient field.

A TraceLattice is a full-rank Z-module given by a square basis matrix whose
rows are element coordinates in the ambient power basis, together with its
cached Gram matrix gram[i][j] = Tr(b_i * conj(b_j)). The ambient is any
object implementing the small protocol used here:

    degree           -- rank of the field over Q
    mul_coords(a, b) -- product in power-basis coordinates; Q-bilinear
    conj_coords(a)   -- complex conjugation (identity when totally real);
                        Q-linear
    trace_coords(a)  -- trace of the multiplication operator
    galois_maps()    -- coordinate maps generating the automorphism group
    descriptor()     -- JSON-friendly identity, used for ambient equality

Because the pairing Tr(x * conj(y)) is then Q-bilinear, the Gram of a basis
B is B T B^T with T[i][j] = Tr(e_i * conj(e_j)) on the power basis.  T is
derived from the protocol once per ambient (ambients are hashable and equal
ambients share it), and each Gram costs two integer matrix products.

Short vectors are enumerated by Fincke-Pohst on the LLL-reduced Gram (an
exact integral LLL on the Gram alone, Cohen GTM 138 Alg. 2.6.7), so the
enumeration tree stays small however skewed the caller's basis is; results
come back as coefficient vectors in the caller's basis.

Root-type recognition is certificate-based and exact: an even lattice is
reported as type X iff its norm-2 vectors generate it (HNF index 1), their
orthogonality graph is connected, and (rank, det) match X. Those conditions
are equivalent to being the irreducible root lattice of that rank and
determinant, so the redundant root-count table is asserted, not assumed.
The root type does not change under a unimodular change of basis, so every
certificate runs on the reduced Gram.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, ceil, isqrt, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import (
    AmbientMismatch,
    DependentBasis,
    NotIntegral,
    NotPositiveDefinite,
    NotSymmetric,
    RankTooLarge,
)
from .exact_linalg import Matrix, det, hnf_rows, inverse, rat, snf

#: doubled root counts of the simply-laced types, used as a cross-check only
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
}


class TraceLattice:
    """Immutable full-rank lattice with cached trace-form Gram matrix."""

    __slots__ = ("ambient", "basis", "gram", "type_tag")

    def __init__(
        self,
        ambient,
        basis: Matrix,
        gram: Matrix | None = None,
        type_tag: str | None = None,
    ):
        if basis.rows != basis.cols or basis.rows != ambient.degree:
            raise DependentBasis(
                f"basis must be square of size {ambient.degree}, got "
                f"{basis.rows}x{basis.cols}"
            )
        if gram is None:
            gram = gram_of(basis, ambient)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "type_tag", type_tag)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TraceLattice is immutable")

    @classmethod
    def from_rows(cls, ambient, rows: Sequence[Sequence]) -> "TraceLattice":
        return cls(ambient, Matrix.from_rows(rows))

    def with_type(self, tag: str) -> "TraceLattice":
        return TraceLattice(self.ambient, self.basis, self.gram, tag)

    def rank(self) -> int:
        return self.basis.rows

    def __repr__(self) -> str:
        tag = f", type={self.type_tag}" if self.type_tag else ""
        return f"TraceLattice(ambient={self.ambient.descriptor()}{tag})"


@lru_cache(maxsize=256)
def _trace_form(ambient) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(T', s) with T'/s = T, T[i][j] = Tr(e_i * conj(e_j)) on the power basis.

    Derived once per ambient through the protocol; the Gram of any basis B
    is then B T B^T, because mul_coords is bilinear and conj_coords linear."""
    n = ambient.degree
    unit = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    conj = [ambient.conj_coords(e) for e in unit]
    form = [
        [ambient.trace_coords(ambient.mul_coords(e, ce)) for ce in conj]
        for e in unit
    ]
    scale = lcm(*(Fraction(x).denominator for row in form for x in row))
    return tuple(tuple(int(x * scale) for x in row) for row in form), scale


def gram_of(basis: Matrix | Sequence[Sequence], ambient) -> Matrix:
    """Exact Gram matrix Tr(b_i * conj(b_j)) = (B T B^T)[i][j]; raises
    DependentBasis if the rows are linearly dependent and NotPositiveDefinite
    if the form is not definite on them.

    B and T are cleared to integers, so the two products run in int and each
    entry pays one Fraction division."""
    if not isinstance(basis, Matrix):
        basis = Matrix.from_rows(basis)
    form, form_scale = _trace_form(ambient)
    scale = basis.denominator_lcm()
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in basis.data]
    bt = [[sum(map(mul, row, col)) for col in zip(*form)] for row in b]
    g = [[sum(map(mul, row, other)) for other in b] for row in bt]
    n = len(g)
    assert all(
        g[i][j] == g[j][i] for i in range(n) for j in range(i)
    ), "trace pairing must be symmetric"
    _check_positive_definite(g)
    den = scale * scale * form_scale
    return Matrix([[Fraction(x, den) for x in row] for row in g])


def _check_positive_definite(g: list[list[int]]) -> None:
    """Sylvester's criterion in one fraction-free Bareiss pass without
    pivoting: the k-th pivot is the k-th leading minor of g.

    A failed pass means dependent rows (singular Gram, DependentBasis) or an
    indefinite form (NotPositiveDefinite); only then is det computed, to
    tell the two apart."""
    a = [list(row) for row in g]
    n = len(a)
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            if det(Matrix(g)) == 0:
                raise DependentBasis("Gram matrix is singular")
            raise NotPositiveDefinite("form is not positive definite")
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot


def _check_symmetric(gram: Matrix) -> None:
    if gram != gram.transpose():
        raise NotSymmetric("Gram matrix is not symmetric")


def is_integral(L: TraceLattice) -> bool:
    return L.gram.is_integer()


def is_even(L: TraceLattice) -> bool:
    if not is_integral(L):
        return False
    return all(L.gram[i, i] % 2 == 0 for i in range(L.gram.rows))


def dual(L: TraceLattice) -> TraceLattice:
    """The dual lattice: rows of inverse(gram)*basis are the dual basis.

    dual is an involution, and the dual Gram is the inverse Gram (checked)."""
    dual_basis = inverse(L.gram) * L.basis
    out = TraceLattice(L.ambient, dual_basis)
    assert out.gram == inverse(L.gram), "dual Gram must be the inverse Gram"
    return out


def disc_group(L: TraceLattice) -> tuple[int, ...]:
    """Invariant factors of the discriminant group L*/L (SNF of the Gram)."""
    if not is_integral(L):
        raise NotIntegral("discriminant group needs an integral lattice")
    return snf(L.gram)


# ---------------------------------------------------------------------------
# exact integral LLL on the Gram, then Fincke-Pohst over a rational LDL split
# ---------------------------------------------------------------------------

def _lll_gram(g: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL reduction (delta = 3/4) of a positive definite integer Gram.

    Integral LLL after Cohen, GTM 138, Alg. 2.6.7, driven by the Gram alone:
    d[k] is the leading k x k minor of the current Gram and lam[k][j] =
    d[j+1] * mu[k][j], so every quantity is an integer and every division is
    exact.  Returns (U G U^T, U) with U unimodular.  Every leading minor of
    the input is computed once, when its last row is first reached (the
    transform never mixes in later rows), so this is also the definiteness
    check: a minor <= 0 raises NotPositiveDefinite."""
    n = len(g)
    g = [list(row) for row in g]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    d[1] = g[0][0]
    if d[1] <= 0:
        raise NotPositiveDefinite("form is not positive definite")

    def size_reduce(k: int, l: int) -> None:
        # b_k -= q b_l with q the integer nearest mu[k][l]
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        u[k] = [a - q * b for a, b in zip(u[k], u[l])]
        g[k] = [a - q * b for a, b in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        # exchange b_{k-1} and b_k, updating d and lam in place
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt data of the new vector b_k
            kmax = k
            for j in range(k + 1):
                acc = g[k][j]
                for i in range(j):
                    acc = (d[i + 1] * acc - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = acc
                else:
                    d[k + 1] = acc
            if d[k + 1] <= 0:
                raise NotPositiveDefinite("form is not positive definite")
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return g, u


def _fp_decompose(gram: Matrix) -> list[list[Fraction]]:
    """Return q with Q(x) = sum_i q[i][i]*(x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = gram.rows
    q = [[gram[i, j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise NotPositiveDefinite("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _int_interval(rad: Fraction, shift: Fraction) -> tuple[int, int]:
    """Integers x with (x + shift)^2 <= rad, via exact isqrt sandwiching.

    The interval [-shift - sqrt(rad), -shift + sqrt(rad)] can contain no
    integer at all (width < 1); the crossing guards detect that instead of
    walking past the vertex of the parabola."""
    if rad < 0:
        return (0, -1)
    s = isqrt(rad.numerator * rad.denominator)
    outer = Fraction(s + 1, rad.denominator)  # sqrt(rad) <= outer
    hi = floor(outer - shift)
    while (hi + shift) * (hi + shift) > rad:
        if hi + shift < 0:
            return (0, -1)
        hi -= 1
    lo = ceil(-outer - shift)
    while (lo + shift) * (lo + shift) > rad:
        if lo + shift > 0:
            return (0, -1)
        lo += 1
    return (lo, hi)


def _sign_rep(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of +-vec whose first nonzero coefficient is > 0."""
    for c in vec:
        if c != 0:
            return tuple(-y for y in vec) if c < 0 else vec
    return vec


def _fincke_pohst(gram: Matrix, bound: Fraction) -> dict[tuple[int, ...], Fraction]:
    """Every nonzero x with x*gram*x^T <= bound, one sign-rep per +-pair,
    mapped to its norm; coefficients are in gram's own basis."""
    n = gram.rows
    q = _fp_decompose(gram)
    x = [0] * n
    found: dict[tuple[int, ...], Fraction] = {}

    def descend(i: int, acc: Fraction) -> None:
        shift = sum((q[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        lo, hi = _int_interval((bound - acc) / q[i][i], shift)
        for xi in range(lo, hi + 1):
            x[i] = xi
            term = q[i][i] * (xi + shift) * (xi + shift)
            total = acc + term
            if total > bound:
                continue
            if i == 0:
                if any(x):
                    found[_sign_rep(tuple(x))] = total
            else:
                descend(i - 1, total)
        x[i] = 0

    descend(n - 1, Fraction(0))
    return found


def short_vectors_gram(
    gram: Matrix, bound: int | str | Fraction
) -> list[tuple[tuple[int, ...], Fraction]]:
    """All nonzero x with x*gram*x^T <= bound, one representative per +-pair
    (first nonzero coefficient positive), sorted by (norm, coefficients).

    The enumeration runs on the LLL-reduced Gram (a rational Gram is scaled
    by the lcm of its denominators first) and every vector is mapped back
    through the unimodular transform, so coefficients are in the caller's
    basis."""
    bound = rat(bound)
    if bound < 0:
        return []
    _check_symmetric(gram)
    scale = gram.denominator_lcm()
    reduced, u = _lll_gram([[int(x * scale) for x in row] for row in gram.data])
    red = Matrix([[Fraction(x, scale) for x in row] for row in reduced])
    cols = list(zip(*u))
    found = {
        _sign_rep(tuple(sum(map(mul, x, col)) for col in cols)): norm
        for x, norm in _fincke_pohst(red, bound).items()
    }
    return sorted(found.items(), key=lambda kv: (kv[1], kv[0]))


def short_vectors(
    L: TraceLattice, bound: int | str | Fraction
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Short vectors of the lattice, as basis-coefficient vectors with norms."""
    return short_vectors_gram(L.gram, bound)


# ---------------------------------------------------------------------------
# root-type recognition
# ---------------------------------------------------------------------------

def _iprod(g: list[list[int]], u: Sequence[int], v: Sequence[int]) -> int:
    return sum(
        u[i] * sum(g[i][j] * v[j] for j in range(len(v))) for i in range(len(u))
    )


def _roots_generate(vectors: list[tuple[int, ...]], n: int) -> bool:
    h = hnf_rows([list(v) for v in vectors])
    pivots = []
    for row in h:
        nz = [x for x in row if x != 0]
        if not nz:
            break
        pivots.append(nz[0])
    return len(pivots) >= n and prod(pivots) == 1


def _gram_images(g: list[list[int]], vectors) -> list[list[int]]:
    """G*v for each v, so that <u, v> is one n-term dot product."""
    return [[sum(map(mul, row, v)) for row in g] for v in vectors]


def _connected(g: list[list[int]], vectors: list[tuple[int, ...]]) -> bool:
    m = len(vectors)
    images = _gram_images(g, vectors)
    parent = list(range(m))
    components = m

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            ri, rj = find(i), find(j)
            if ri != rj and sum(map(mul, vectors[i], images[j])) != 0:
                parent[ri] = rj
                components -= 1
                if components == 1:
                    return True
    return components == 1


def _orthogonal_set(
    g: list[list[int]], pool: list[tuple[tuple[int, ...], int]], norms: list[int]
) -> Optional[list[tuple[int, ...]]]:
    """Backtracking search for pairwise-orthogonal vectors with the given
    non-decreasing norms; the pool holds (vector, norm) canonical sign-reps
    sorted by norm, so each level only looks past the previous pick."""
    images = _gram_images(g, [v for v, _ in pool])
    entries = [(v, nv, gv) for (v, nv), gv in zip(pool, images)]

    def extend(
        start: int, chosen: tuple, want: list[int]
    ) -> Optional[list[tuple[int, ...]]]:
        if not want:
            return [v for v, _ in chosen]
        for idx in range(start, len(entries)):
            v, nv, gv = entries[idx]
            if nv != want[0]:
                continue
            if any(sum(map(mul, u, gv)) != 0 for u, _ in chosen):
                continue
            res = extend(idx + 1, chosen + ((v, gv),), want[1:])
            if res is not None:
                return res
        return None

    return extend(0, (), norms)


@lru_cache(maxsize=1024)
def classify_gram(gram: Matrix) -> str:
    """Certificate-based recognition over {A_n, D_n, E6, E7, E8, diag114,
    unimodular_odd, other}; see the module docstring for the exact criteria.

    The Gram is LLL-reduced once; enumeration and every certificate run on
    the reduced Gram.  Results are memoized on the exact Gram."""
    if not gram.is_integer():
        raise NotIntegral("classification needs an integral Gram matrix")
    n = gram.rows
    if n > 22:
        raise RankTooLarge(f"rank {n} exceeds the enumeration cap of 22")
    _check_symmetric(gram)
    # _lll_gram raises NotPositiveDefinite on the first leading minor <= 0
    g, _ = _lll_gram(gram.to_int_rows())
    reduced = Matrix(g)
    dt = int(det(reduced))
    even = all(g[i][i] % 2 == 0 for i in range(n))
    if even:
        pairs = short_vectors_gram(reduced, 2)
        roots = [v for v, nrm in pairs if nrm == 2]
        if not roots:
            return "other"
        if not _roots_generate(roots, n):
            return "other"
        if not _connected(g, roots):
            return "other"
        count = 2 * len(roots)
        kind = None
        if dt == n + 1:
            kind = f"A{n}"
            expected = _ROOT_COUNTS["A"](n)
        elif dt == 4 and n >= 4:
            kind = f"D{n}"
            expected = _ROOT_COUNTS["D"](n)
        elif n in (6, 7, 8) and dt == (3, 2, 1)[n - 6]:
            kind = f"E{n}"
            expected = _ROOT_COUNTS["E"][n]
        if kind is None:
            return "other"
        assert count == expected, (
            f"irreducible rank-{n} det-{dt} root lattice must have "
            f"{expected} roots, found {count}"
        )
        return kind
    # odd lattice templates: enumerate only the norms the frame needs
    if dt == 1:
        # norm-1 vectors of an integral lattice that are not +-each other
        # are orthogonal (Cauchy-Schwarz), so n sign-reps are the frame
        frame = [v for v, _ in short_vectors_gram(reduced, 1)]
        if len(frame) != n:
            return "other"
        kind = "unimodular_odd"
    elif n == 3 and dt == 4:
        pool = [(v, int(nrm)) for v, nrm in short_vectors_gram(reduced, 4)]
        frame = _orthogonal_set(g, pool, [1, 1, 4])
        if frame is None:
            return "other"
        kind = "diag114"
    else:
        return "other"
    assert abs(det(Matrix.from_rows(frame))) == 1
    return kind


def classify_root_type(L: TraceLattice) -> str:
    if not is_integral(L):
        raise NotIntegral("classification needs an integral lattice")
    return classify_gram(L.gram)


def odd_trace_witness(L: TraceLattice) -> Optional[tuple[int, ...]]:
    """Exhaustive parity scan over L/2L (well-defined: <x+2y, x+2y> is
    congruent to <x,x> mod 4); returns the first class with odd norm in a
    fixed binary counting order (first coordinate least significant), or
    None exactly when the lattice is even."""
    if not is_integral(L):
        raise NotIntegral("parity needs an integral lattice")
    n = L.rank()
    if n > 20:
        raise RankTooLarge("parity scan capped at rank 20")
    g = L.gram.to_int_rows()
    for mask in range(1, 1 << n):
        x = tuple((mask >> i) & 1 for i in range(n))
        if _iprod(g, x, x) % 2 == 1:
            return x
    return None


# ---------------------------------------------------------------------------
# lattice identity
# ---------------------------------------------------------------------------

def canonical_key(L: TraceLattice) -> tuple:
    """(clearing denominator, HNF rows) -- equal iff the lattices are equal.

    The minimal k with k*L inside Z^n is basis-independent, and the row HNF
    of the cleared basis is the unique canonical basis of k*L."""
    scale = L.basis.denominator_lcm()
    h = hnf_rows(
        [[x.numerator * (scale // x.denominator) for x in row] for row in L.basis.data]
    )
    return (scale, tuple(map(tuple, h)))


def lattice_equal(L1: TraceLattice, L2: TraceLattice) -> bool:
    if L1.ambient.descriptor() != L2.ambient.descriptor():
        raise AmbientMismatch(
            f"{L1.ambient.descriptor()} vs {L2.ambient.descriptor()}"
        )
    return canonical_key(L1) == canonical_key(L2)


def galois_stable(L: TraceLattice) -> bool:
    """True iff every generator of the ambient automorphism group maps each
    basis vector back into the lattice."""
    binv = inverse(L.basis)
    for gmap in L.ambient.galois_maps():
        for i in range(L.basis.rows):
            image = gmap(L.basis.row(i))
            coeffs = Matrix([list(image)]) * binv
            if not coeffs.is_integer():
                return False
    return True
