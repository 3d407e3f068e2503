"""Trace-form lattices inside an ambient field.

A TraceLattice is a full-rank Z-module given by a square basis matrix whose
rows are element coordinates in the ambient power basis, together with its
cached Gram matrix gram[i][j] = Tr(b_i * conj(b_j)). The ambient is any
object implementing the small protocol used here:

    degree            -- rank of the field over Q
    trace_form()      -- the Matrix T, T[i][j] = Tr(e_i * conj(e_j)) on the
                         power basis
    galois_matrices() -- one Matrix S per generator of the automorphism
                         group; a row x maps to x S
    descriptor()      -- JSON-friendly identity, used for ambient equality

The pairing Tr(x * conj(y)) is Q-bilinear, so the Gram of a basis B is
B T B^T: two integer matrix products on the scaled-integer form.  Galois
stability is a membership test of the images H S against the lattice's own
integer HNF H, with no inverse.  The ambient holds T and S already; nothing
here derives them again.

Short vectors are enumerated by Fincke-Pohst on the LLL-reduced Gram (an
exact integral LLL on the Gram alone, Cohen GTM 138 Alg. 2.6.7), so the
enumeration tree stays small however skewed the caller's basis is.  It
runs in int on the Gram-Schmidt data that LLL pass already holds (leading
minors d and lam = d * mu), scaled to one integer budget, and builds no
Fraction.  Results come back as coefficient vectors in the caller's basis.
The integral Gram-Schmidt pass the LLL starts from is also the one
definiteness check (Sylvester's criterion on its leading minors), and
gram_of runs the same pass.

Root-type recognition is certificate-based and exact: an even lattice is
reported as type X iff its norm-2 vectors generate it (HNF index 1), their
orthogonality graph is connected, and (rank, det) match X. Those conditions
are equivalent to being the irreducible root lattice of that rank and
determinant, so the redundant root-count table is asserted, not assumed.
The root type does not change under a unimodular change of basis, so every
certificate runs on the reduced Gram.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
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
from .exact_linalg import Matrix, det, hnf_coords, hnf_rows, inverse, rat, snf

#: the largest rank classify_gram enumerates
ENUMERATION_RANK_CAP = 32

#: doubled root counts of the simply-laced types, used as a cross-check only
_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "D": lambda n: 2 * n * (n - 1),
    "E": {6: 72, 7: 126, 8: 240},
}


class TraceLattice:
    """Immutable full-rank lattice with cached trace-form Gram matrix; its
    canonical_key is computed on first use and kept."""

    __slots__ = ("ambient", "basis", "gram", "type_tag", "_key")

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
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TraceLattice is immutable")

    @classmethod
    def from_rows(cls, ambient, rows: Sequence[Sequence]) -> "TraceLattice":
        return cls(ambient, Matrix.from_rows(rows))

    def with_type(self, tag: str) -> "TraceLattice":
        out = TraceLattice(self.ambient, self.basis, self.gram, tag)
        object.__setattr__(out, "_key", self._key)
        return out

    def rank(self) -> int:
        return self.basis.rows

    def __repr__(self) -> str:
        tag = f", type={self.type_tag}" if self.type_tag else ""
        return f"TraceLattice(ambient={self.ambient.descriptor()}{tag})"


def gram_of(basis: Matrix | Sequence[Sequence], ambient) -> Matrix:
    """Exact Gram matrix Tr(b_i * conj(b_j)) = (B T B^T)[i][j]; raises
    DependentBasis if the rows are linearly dependent and NotPositiveDefinite
    if the form is not definite on them.

    Definiteness is Sylvester's criterion, read off the leading minors of
    _gram_schmidt; only when a minor fails is det computed, to tell a
    singular Gram (dependent rows) from an indefinite one."""
    if not isinstance(basis, Matrix):
        basis = Matrix.from_rows(basis)
    gram = basis * ambient.trace_form() * basis.transpose()
    g = gram.ints
    n = len(g)
    assert all(
        g[i][j] == g[j][i] for i in range(n) for j in range(i)
    ), "trace pairing must be symmetric"
    try:
        _gram_schmidt(g)
    except NotPositiveDefinite:
        if det(gram) == 0:
            raise DependentBasis("Gram matrix is singular") from None
        raise
    return gram


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
    gram_inv = inverse(L.gram)
    out = TraceLattice(L.ambient, gram_inv * L.basis)
    assert out.gram == gram_inv, "dual Gram must be the inverse Gram"
    return out


def disc_group(L: TraceLattice) -> tuple[int, ...]:
    """Invariant factors of the discriminant group L*/L (SNF of the Gram)."""
    if not is_integral(L):
        raise NotIntegral("discriminant group needs an integral lattice")
    return snf(L.gram)


# ---------------------------------------------------------------------------
# exact integral LLL on the Gram, then integer Fincke-Pohst on the LLL data
# ---------------------------------------------------------------------------

def _gram_schmidt(g: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of an integer Gram, after Cohen,
    GTM 138, Alg. 2.6.7: d[k] is the leading k x k minor and lam[k][j] =
    d[j+1] * mu[k][j], so every quantity is an integer and every division
    is exact.  This is also the definiteness check (Sylvester's criterion):
    the first leading minor <= 0 raises NotPositiveDefinite, before any
    division by it."""
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
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
    return d, lam


def _lll_gram(
    g: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[int], list[list[int]]]:
    """LLL reduction (delta = 3/4) of a positive definite integer Gram.

    Integral LLL after Cohen, GTM 138, Alg. 2.6.7, driven by the Gram alone
    and started from its _gram_schmidt data (which raises
    NotPositiveDefinite on an indefinite input).  Returns (U G U^T, U, d,
    lam) with U unimodular; d and lam are the Gram-Schmidt data of the
    reduced Gram, ready for enumeration.  The data of every row exist from
    the start and stay exact, as size reduction never changes any b*_j; a
    swap at k updates lam[i][k-1] and lam[i][k] for every i > k."""
    d, lam = _gram_schmidt(g)
    n = len(g)
    g = [list(row) for row in g]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

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

    def swap(k: int) -> None:
        # exchange b_{k-1} and b_k, updating d and lam in place
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return g, u, d, lam


def _sign_rep(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The representative of +-vec whose first nonzero coefficient is > 0."""
    for c in vec:
        if c != 0:
            return tuple(-y for y in vec) if c < 0 else vec
    return vec


def _by_norm(pairs) -> list[tuple[tuple[int, ...], int]]:
    """(vector, norm) pairs sorted by (norm, coefficients)."""
    return sorted(pairs, key=lambda kv: (kv[1], kv[0]))


def _fincke_pohst(
    d: list[int], lam: list[list[int]], budget: int
) -> dict[tuple[int, ...], int]:
    """Every nonzero x with x*G*x^T <= budget, one sign-rep per +-pair,
    mapped to its norm, for the integer Gram G with Gram-Schmidt data
    (d, lam) from _lll_gram; coefficients are in G's own basis.

    Level i adds (d[i+1]*x_i + S_i)^2 / (d[i]*d[i+1]) to the norm, with the
    integer center S_i = sum_{j>i} lam[j][i]*x_j.  Scaled by M, the lcm of
    the d[i]*d[i+1], every level weight w_i and the whole budget are
    integers, so each interval is exact (one isqrt) and the norm of a leaf
    is read off the remaining budget."""
    n = len(d) - 1
    dd = [d[i] * d[i + 1] for i in range(n)]
    m = lcm(*dd)
    w = [m // v for v in dd]
    cols = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    top = budget * m
    x = [0] * n
    found: dict[tuple[int, ...], int] = {}

    def descend(i: int, r: int) -> None:
        di, wi = d[i + 1], w[i]
        c = sum(map(mul, cols[i], x[i + 1:]))
        s = isqrt(r // wi)
        # |di*xi + c| <= s
        for xi in range(-((s + c) // di), (s - c) // di + 1):
            x[i] = xi
            t = di * xi + c
            rest = r - wi * t * t
            if i:
                descend(i - 1, rest)
            elif any(x):
                found[_sign_rep(tuple(x))] = (top - rest) // m
        x[i] = 0

    descend(n - 1, top)
    return found


def short_vectors_gram(
    gram: Matrix, bound: int | str | Fraction
) -> list[tuple[tuple[int, ...], Fraction]]:
    """All nonzero x with x*gram*x^T <= bound, one representative per +-pair
    (first nonzero coefficient positive), sorted by (norm, coefficients).

    The enumeration runs on the LLL-reduced integer rows of the Gram (a
    rational Gram is ints / den, so the budget is floor(bound * den)) and
    every vector is mapped back through the unimodular transform, so
    coefficients are in the caller's basis."""
    bound = rat(bound)
    if bound < 0:
        return []
    _check_symmetric(gram)
    _, u, d, lam = _lll_gram(gram.ints)
    den = gram.den
    cols = list(zip(*u))
    found = _fincke_pohst(d, lam, bound.numerator * den // bound.denominator)
    mapped = (
        (_sign_rep(tuple(sum(map(mul, x, col)) for col in cols)), norm)
        for x, norm in found.items()
    )
    return [(v, Fraction(norm, den)) for v, norm in _by_norm(mapped)]


def short_vectors(
    L: TraceLattice, bound: int | str | Fraction
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Short vectors of the lattice, as basis-coefficient vectors with norms."""
    return short_vectors_gram(L.gram, bound)


# ---------------------------------------------------------------------------
# root-type recognition
# ---------------------------------------------------------------------------

def _generates(vectors: list[tuple[int, ...]], n: int) -> bool:
    """True iff the vectors span Z^n: their hnf_span is the identity."""
    return hnf_span(Matrix.scaled(vectors)) == (1, Matrix.identity(n).ints)


def _gram_images(g: list[list[int]], vectors) -> list[list[int]]:
    """G*v for each v, so that <u, v> is one n-term dot product."""
    return [[sum(map(mul, row, v)) for row in g] for v in vectors]


def _connected(g: list[list[int]], vectors: list[tuple[int, ...]]) -> bool:
    """True iff the non-orthogonality graph on the vectors is connected.

    Breadth-first search from the first vector over a shrinking list of the
    unvisited ones: each visited vector is paired, by one dot product with
    the precomputed images G*v, only with the vectors still unvisited, and
    the graph is connected iff that list empties."""
    images = _gram_images(g, vectors)
    unvisited = list(range(1, len(vectors)))
    queue = deque([0])
    while queue and unvisited:
        gv = images[queue.popleft()]
        rest = []
        for j in unvisited:
            if sum(map(mul, vectors[j], gv)):
                queue.append(j)
            else:
                rest.append(j)
        unvisited = rest
    return not unvisited


def check_enumeration_rank(n: int) -> None:
    """Raise RankTooLarge when classify_gram would refuse rank n."""
    if n > ENUMERATION_RANK_CAP:
        raise RankTooLarge(f"rank {n} exceeds the enumeration cap of {ENUMERATION_RANK_CAP}")


@lru_cache(maxsize=1024)
def classify_gram(gram: Matrix) -> str:
    """Certificate-based recognition over {A_n, D_n, E6, E7, E8, diag114,
    unimodular_odd, other}; see the module docstring for the exact criteria.

    The Gram is LLL-reduced once; enumeration and every certificate run on
    the reduced Gram and the Gram-Schmidt data of that one pass.  Results
    are memoized on the exact Gram."""
    if not gram.is_integer():
        raise NotIntegral("classification needs an integral Gram matrix")
    n = gram.rows
    check_enumeration_rank(n)
    _check_symmetric(gram)
    # _lll_gram raises NotPositiveDefinite on the first leading minor <= 0
    g, _, d, lam = _lll_gram(gram.ints)
    dt = d[n]

    def short(budget: int) -> list[tuple[tuple[int, ...], int]]:
        return _by_norm(_fincke_pohst(d, lam, budget).items())

    even = all(g[i][i] % 2 == 0 for i in range(n))
    if even:
        roots = [v for v, nrm in short(2) if nrm == 2]
        if not roots:
            return "other"
        if not _generates(roots, n):
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
        frame = [v for v, _ in short(1)]
        if len(frame) != n:
            return "other"
        kind = "unimodular_odd"
    elif n == 3 and dt == 4:
        # by the same argument two norm-1 sign-reps split off Z^2, and its
        # complement has rank 1 and det 4: one norm-4 vector up to sign
        pool = short(4)
        ones = [v for v, nrm in pool if nrm == 1]
        if len(ones) != 2:
            return "other"
        images = _gram_images(g, ones)
        frame = ones + [
            v for v, nrm in pool
            if nrm == 4 and not any(sum(map(mul, v, gv)) for gv in images)
        ]
        kind = "diag114"
    else:
        return "other"
    assert _generates(frame, n), "the frame must be a basis"
    return kind


def classify_root_type(L: TraceLattice) -> str:
    if not is_integral(L):
        raise NotIntegral("classification needs an integral lattice")
    return classify_gram(L.gram)


def odd_trace_witness(L: TraceLattice) -> Optional[tuple[int, ...]]:
    """The first class of L/2L with odd norm in the binary counting order
    (first coordinate least significant), or None exactly when the lattice
    is even.  For an integral Gram g, <x,x> = sum x_i g_ii mod 2, so that
    class is e_i for the least i with g_ii odd."""
    if not is_integral(L):
        raise NotIntegral("parity needs an integral lattice")
    g = L.gram.ints
    n = len(g)
    for i in range(n):
        if g[i][i] % 2:
            return tuple(int(j == i) for j in range(n))
    return None


# ---------------------------------------------------------------------------
# lattice identity
# ---------------------------------------------------------------------------

def hnf_span(rows: Matrix | Sequence[Sequence]) -> tuple:
    """(k, H) for the Z-span of rows, which may be redundant: k their common
    denominator and H the row HNF of the integer rows k * rows, zero rows
    dropped, so that H / k is the canonical basis of the span.  Two row sets
    span the same lattice iff their hnf_spans are equal (Cohen, GTM 138,
    Sec. 2.4.3)."""
    if not isinstance(rows, Matrix):
        rows = Matrix.from_rows(rows)
    ints, scale = rows.cleared()
    return scale, tuple(map(tuple, filter(any, hnf_rows(ints))))


def span_coords(span: Matrix, rows: Matrix) -> list[list[int]] | None:
    """Integer coordinates of every row of rows against a canonical basis
    H / k from hnf_span, or None when some row is not in its Z-span.  Each
    row is read as k times itself; a Matrix is in lowest terms, so those
    are integers exactly when rows.den divides k."""
    scale, rem = divmod(span.den, rows.den)
    if rem:
        return None
    ints = rows.ints if scale == 1 else [[x * scale for x in row] for row in rows.ints]
    out = [hnf_coords(span.ints, row) for row in ints]
    return None if None in out else out


def canonical_key(L: TraceLattice) -> tuple:
    """hnf_span of the lattice's basis: equal iff the lattices are equal.
    Computed on first use and kept on L."""
    key = L._key
    if key is None:
        key = hnf_span(L.basis)
        object.__setattr__(L, "_key", key)
    return key


def lattice_equal(L1: TraceLattice, L2: TraceLattice) -> bool:
    if L1.ambient.descriptor() != L2.ambient.descriptor():
        raise AmbientMismatch(
            f"{L1.ambient.descriptor()} vs {L2.ambient.descriptor()}"
        )
    return canonical_key(L1) == canonical_key(L2)


def galois_stable(L: TraceLattice) -> bool:
    """True iff every generator of the ambient automorphism group maps the
    lattice into itself.

    With (k, H) = canonical_key(L), H is an integer basis of kL and each
    generator acts by its matrix S (galois_matrices).  The lattice is
    stable iff every row of H S lies in the span of H (span_coords).  All
    of it is int arithmetic; no inverse of the basis is formed."""
    h = Matrix.scaled(canonical_key(L)[1])
    return all(span_coords(h, h * s) is not None for s in L.ambient.galois_matrices())
