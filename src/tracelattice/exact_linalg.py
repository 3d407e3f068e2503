"""Exact rational and integer linear algebra underlying every other module.

A Matrix is immutable and stores integer rows over one positive denominator
in lowest terms, the scaled-integer form every kernel here runs on;
Matrix.scaled(ints, den) builds one from integers without a Fraction, and
entries become Fractions only when read.
Products and transposes, whose results are already equal-width int tuples
over den > 0, go through the trusted internal constructor Matrix._trusted,
which checks nothing: a product is brought to lowest terms by one gcd, and
a transpose is in lowest terms already.  The public constructors validate.
`_bareiss` and `inverse` are fraction-free eliminations (Bareiss, Math.
Comp. 1968) on those integer rows: `inverse` runs Gauss-Jordan on [A | I]
with exact division by the previous pivot and scales the result once.
`hnf_rows` clears each column below its pivot with one unimodular 2x2
extended-gcd step per row, or a single subtraction when the pivot divides
the entry (Cohen, GTM 138, Sec. 2.4.2), modulo a multiple of the lattice's
determinant.
Every operation here is exact; no floating point anywhere.

Conventions fixed for the whole library:
  - vectors are rows; a basis matrix has one basis vector per row,
  - `_bareiss` is the one determinant pass: over any rows it gives the
    rank and the last pivot, and `det`, `snf` and `hnf_basis` all read it,
  - `hnf_rows` is the one Hermite kernel, row-style and always modular:
    for rows of full column rank whose lattice determinant divides the
    modulus it gives pivots positive, zeros below pivots, entries above a
    pivot reduced into [0, pivot), zero rows at the bottom; this form is
    unique, and `hnf_coords` is the membership test against it,
  - `hnf_basis` is the one canonical basis of a full-rank span of rational
    rows: the HNF of the rows cleared by their denominator, run modulo the
    |det| of n independent rows that `_bareiss` finds, over that
    denominator, as a Matrix; a span of lower rank raises DependentBasis.
    Equal spans have equal hnf_bases, so it is the lattice-equality key,
    and `span_coords` is the one membership test against it,
  - `snf` returns the invariant-factor chain d1 | d2 | ... | dn; it runs
    `hnf_rows` modulo |det| on the rows and on the transpose until the
    matrix is diagonal, so the Hermite and Smith forms share one kernel.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DependentBasis, NonSquareMatrix, NotInteger, SingularMatrix


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions, or "p/q" strings to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


class Matrix:
    """Immutable rational matrix, row-major, stored as integer rows `ints`
    over one denominator `den` > 0 in lowest terms: the gcd of den and all
    entries is 1.  That pair is unique, so equality and hashing compare it
    directly; Fraction entries are built only on access."""

    __slots__ = ("rows", "cols", "ints", "den")

    def __init__(self, data: Sequence[Sequence[int | str | Fraction]]):
        body = [[rat(x) for x in row] for row in data]
        den = lcm(*[x.denominator for row in body for x in row])
        self._freeze([[x.numerator * (den // x.denominator) for x in row] for row in body], den)

    @classmethod
    def scaled(cls, ints: Iterable[Sequence[int]], den: int = 1) -> "Matrix":
        """The matrix ints / den, for integer rows and a nonzero integer den."""
        ints = [list(row) for row in ints]
        g = gcd(den, *[x for row in ints for x in row])
        if den < 0:
            g = -g
        m = cls.__new__(cls)
        m._freeze([[x // g for x in row] for row in ints] if g != 1 else ints, den // g)
        return m

    @classmethod
    def _trusted(cls, ints: tuple[tuple[int, ...], ...], den: int) -> "Matrix":
        """ints / den with no check, for callers that guarantee the invariant:
        ints is a nonempty tuple of equal-width, nonempty int tuples over
        den > 0, in lowest terms."""
        m = cls.__new__(cls)
        m._store(ints, den)
        return m

    def _freeze(self, ints: list[list[int]], den: int) -> None:
        body = tuple(map(tuple, ints))
        if not body or not body[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(body[0])
        if any(len(row) != width for row in body):
            raise ValueError("ragged rows")
        self._store(body, den)

    def _store(self, ints: tuple[tuple[int, ...], ...], den: int) -> None:
        setter = object.__setattr__
        setter(self, "ints", ints)
        setter(self, "den", den)
        setter(self, "rows", len(ints))
        setter(self, "cols", len(ints[0]))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Matrix":
        return cls([list(r) for r in rows])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.scaled([[int(i == j) for j in range(n)] for i in range(n)])

    def row(self, i: int) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.ints[i])

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(self.row(i) for i in range(self.rows))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def __mul__(self, other: "Matrix | int | Fraction") -> "Matrix":
        if isinstance(other, (int, Fraction)):
            return Matrix.scaled(
                [[x * other.numerator for x in row] for row in self.ints],
                self.den * other.denominator,
            )
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.ints))
        return _reduced(
            tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.ints),
            self.den * other.den,
        )

    def transpose(self) -> "Matrix":
        return Matrix._trusted(tuple(zip(*self.ints)), self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return self.den == 1

    def to_int_rows(self) -> list[list[int]]:
        if self.den != 1:
            raise NotInteger("integer entries required")
        return [list(row) for row in self.ints]


def _reduced(ints: tuple[tuple[int, ...], ...], den: int) -> Matrix:
    """The trusted Matrix ints / den for equal-width int tuples over den > 0,
    brought to lowest terms by one gcd."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(ints))
        if g != 1:
            ints = tuple(tuple([x // g for x in row]) for row in ints)
            den //= g
    return Matrix._trusted(ints, den)


def _bareiss(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) of m integer
    rows of width n, which are left as they are: (rank, d).  The rows are
    taken in order, and each is brought through the pivot rows kept so far;
    the first nonzero entry of what is left is a new pivot, and a row left
    zero depends on the pivot rows.  Each pivot is a minor of A with its
    rows and columns in pivot order, so d, the last pivot signed by the
    order of the pivot columns, is the determinant of the rank x rank minor
    on the pivot rows and columns: det A for a square A of full rank, and
    for rank n the det of n independent rows, a multiple of the det of
    their span.  The pass stops at rank n, so rows past the first n
    independent ones cost nothing.

    Bareiss step j replaces a row R by (R p_j - R[c_j] t_j) / p_(j-1), t_j
    the pivot row, p_j its pivot at column c_j; where R[c_j] = 0 that only
    scales R by p_j / p_(j-1).  So the row is kept unscaled as r with
    R = r p_j / q, q the pivot of its last true step (1 before any), and
    a step with r[c_j] != 0 is r <- (r p_j - r[c_j] t_j) / q, exactly,
    since it gives the integer minor R."""
    n = len(a[0])
    pivots = []
    last = 1
    odd = False
    right = -1
    for row in a:
        q = 1
        for c, top in pivots:
            f = row[c]
            if f:
                p = top[c]
                row = [(x * p - f * y) // q for x, y in zip(row, top)]
                q = p
        for c, x in enumerate(row):
            if x:
                break
        else:
            continue
        if q != last:
            row = [x * last // q for x in row]
        if c < right:
            odd ^= sum(k > c for k, _ in pivots) % 2
        else:
            right = c
        pivots.append((c, row))
        last = row[c]
        if len(pivots) == n:
            break
    return len(pivots), -last if odd else last


def det(m: Matrix) -> Fraction:
    """Exact determinant via Bareiss elimination on the cleared matrix."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    rank, d = _bareiss(m.ints)
    return Fraction(d, m.den**m.rows) if rank == m.rows else Fraction(0)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 1968) on [A | I], A the integer rows of m = A / den.

    Step k brings the pivot row into every other row and divides each
    updated row exactly by the previous pivot, so every entry stays an
    integer minor of [A | I].  The left block ends as d*I with d = +-det A,
    and the right block R then has A^-1 = R / d, so m^-1 = den * R / d."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    n = m.rows
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.ints)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise SingularMatrix("no pivot")
        a[k], a[piv] = a[piv], a[k]
        row_k = a[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                row_i = a[i]
                f = row_i[k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row_i, row_k)]
        prev = p
    den = m.den
    return Matrix.scaled([[den * x for x in row[n:]] for row in a], prev)


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with s*x + t*y = g = +-gcd(x, y)."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return x, s0, t0


def hnf_rows(a: list[list[int]], modulus: int) -> list[list[int]]:
    """Row-style Hermite normal form of integer rows, computed in place and
    modulo D = modulus (Domich-Kannan-Trotter, Math. OR 12, 1987; Cohen, GTM
    138, Alg. 2.4.8).  The rows may be redundant, but must have full column
    rank n, and the determinant of their lattice L must divide D > 0.  That
    L contains D*Z^n is not enough: the cleared rows of ap_lattice(5) have
    det 125 and contain 5*Z^4, yet modulo 5 give a wrong form.

    Column c is cleared below its pivot row c one row at a time (Cohen, GTM
    138, Sec. 2.4.2): a zero pivot x swaps with the row of the entry y
    below it; when x divides y, one subtraction clears y; otherwise the 2x2
    step [[s, t], [-y/g, x/g]] with s*x + t*y = g = +-gcd(x, y), which has
    determinant 1, turns the pair into (g, 0).
    The rows still in play lie in the part of L that is zero before column
    c, of determinant |det L| / (the pivots so far), which therefore
    contains R*Z^(n-c) with R = D / (the pivots so far); so the
    rows changed there are reduced mod R, and the pivot row takes in R*e_c
    by one more 2x2 step (none when x divides R), its pivot becoming
    gcd(x, R) > 0.  The row that step leaves is R/gcd times a vector of the
    next block, which contains R/gcd * Z^(n-c-1), so it is dropped, and R
    becomes R/gcd.  The pivot then reduces the entries above it into
    [0, pivot), and those rows mod R right of the pivot.  Entries stay
    within a few D^2 (or the input's size), the rows below row n end as
    zero rows, and since the Hermite form is unique it is the form of L."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    big_r = modulus
    for c in range(len(a[0])):
        top = a[c]
        for i in range(c + 1, len(a)):
            row = a[i]
            y = row[c]
            if not y:
                continue
            x = top[c]
            if not x:
                a[c], a[i] = row, top
                top = row
            elif y % x == 0:
                q = y // x
                a[i] = [(v - q * u) % big_r for u, v in zip(top, row)]
            else:
                g, s, t = _xgcd(x, y)
                p, q = x // g, y // g
                a[i] = [(p * v - q * u) % big_r for u, v in zip(top, row)]
                a[c] = top = [(s * u + t * v) % big_r for u, v in zip(top, row)]
        x = top[c] % big_r
        if not x or big_r % x:
            x, s, _ = _xgcd(x, big_r)
            a[c] = top = [s * u % big_r for u in top]
            top[c] = x
        elif x != top[c]:
            a[c] = top = top[:c] + [x] + top[c + 1 :]
        big_r //= x
        for i in range(c):
            q = a[i][c] // x
            if q:
                a[i] = row = [v - q * u for u, v in zip(top, a[i])]
                row[c + 1 :] = [v % big_r for v in row[c + 1 :]]
    return a


def hnf_coords(h: Sequence[Sequence[int]], v: Sequence[int]) -> list[int] | None:
    """The integer x with x h = v, for a row HNF h and an integer row v, or
    None when v is not in the Z-span of h: each pivot row is subtracted as
    often as its pivot goes into v's entry there (Cohen, GTM 138, Sec.
    2.4.3), and v is in the span iff nothing is left.  Zero rows get no
    coordinate."""
    x = []
    for row in h:
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None:
            break
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        x.append(q)
    return None if any(v) else x


def hnf_basis(rows: Matrix | Sequence[Sequence]) -> Matrix:
    """The canonical basis of the Z-span of rows, which may be redundant but
    must span a lattice of full rank n: the row HNF of the integer rows over
    their denominator.  Two row sets span the same lattice iff their
    hnf_bases are equal (Cohen, GTM 138, Sec. 2.4.3).  The Hermite pass
    runs modulo the |det| of n independent rows, which one Bareiss pass
    finds; a span of lower rank raises DependentBasis.  A unimodular step
    keeps the gcd of the entries, which is prime to the denominator, so the
    HNF over it is in lowest terms already."""
    if not isinstance(rows, Matrix):
        rows = Matrix.from_rows(rows)
    n = rows.cols
    rank, d = _bareiss(rows.ints)
    if rank < n:
        raise DependentBasis(f"span has rank {rank}, expected {n}")
    h = hnf_rows([list(row) for row in rows.ints], abs(d))
    return Matrix._trusted(tuple(map(tuple, h[:n])), rows.den)


def span_coords(span: Matrix, rows: Matrix) -> list[list[int]] | None:
    """Integer coordinates of every row of rows against a canonical basis
    H / k from hnf_basis, or None when some row is not in its Z-span.  Each
    row is read as k times itself; a Matrix is in lowest terms, so those
    are integers exactly when rows.den divides k."""
    scale, rem = divmod(span.den, rows.den)
    if rem:
        return None
    ints = rows.ints if scale == 1 else [[x * scale for x in row] for row in rows.ints]
    out = [hnf_coords(span.ints, row) for row in ints]
    return None if None in out else out


def snf(m: Matrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dn of a nonsingular integer matrix.

    Kannan-Bachem (SIAM J. Comput. 8, 1979): hnf_rows on the rows and then
    on the transpose, alternately, until the matrix is diagonal.  Each pass
    replaces the first pivot by a divisor of it, a proper one until it
    divides the rest of its row; from then on the first row and column stay
    cleared, and the argument repeats on the remaining block.
    Every pass runs modulo D = |det|: the row and the column lattice both
    contain D*Z^n, and D stays |det| from pass to pass.  The matrices are
    the ones unreduced passes give, but the entries stay within a few D^2,
    where unreduced ones grow on dense Grams (tens of seconds on the rank-18 Gram
    of ap_lattice(19)).
    Pairwise (gcd, lcm) steps, which keep the diagonal's class, then turn
    the diagonal into the invariant-factor chain."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    a = m.to_int_rows()
    n = m.rows
    rank, big_d = _bareiss(a)
    if rank < n:
        raise SingularMatrix("singular matrix has no invariant-factor chain")
    big_d = abs(big_d)
    while True:
        a = hnf_rows(a, big_d)
        if not any(a[i][j] for i in range(n) for j in range(i + 1, n)):
            break
        a = [list(col) for col in zip(*a)]
    factors = [a[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)
