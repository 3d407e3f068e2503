"""Exact rational and integer linear algebra underlying every other module.

Scalars are arbitrary-precision rationals (`Rational`, an alias of
`fractions.Fraction`: canonical lowest terms, positive denominator, and
`str()` prints the "p/q" wire form). A Matrix is immutable and stores
integer rows over one positive denominator in lowest terms, the scaled-integer
form every kernel here runs on; Matrix.scaled(ints, den) builds one from
integers without a Fraction, and entries become Fractions only when read.
`det` and `inverse` are fraction-free eliminations (Bareiss, Math. Comp.
1968) on those integer rows: `inverse` runs Gauss-Jordan on [A | I] with
exact division by the previous pivot and scales the result once.
`hnf_rows` clears each column below its pivot with one unimodular 2x2
extended-gcd step per row, or a single subtraction when the pivot divides
the entry (Cohen, GTM 138, Sec. 2.4.2).
Every operation here is exact; no floating point anywhere.

Conventions fixed for the whole library:
  - vectors are rows; a basis matrix has one basis vector per row,
  - `hnf` is row-style: h = u*m with u unimodular, pivots positive, zeros
    below pivots, entries above a pivot reduced into [0, pivot), zero rows
    at the bottom; this form is unique, so it doubles as a lattice-equality
    key; `hnf` runs `hnf_rows` on [m | I], and the transform u it reads
    off is unique only when m has full row rank (otherwise the rows of u
    beside the zero rows of h are some basis of the left kernel); `hnf_rows`
    on bare integer rows gives h without it, and `hnf_coords` is the
    membership test against h,
  - `snf` returns the invariant-factor chain d1 | d2 | ... | dn; it runs
    `hnf_rows` modulo |det| on the rows and on the transpose until the
    matrix is diagonal, so the Hermite and Smith forms share one kernel.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import NonSquareMatrix, NotInteger, SingularMatrix

Rational = Fraction


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions, or "p/q" strings to a canonical Rational."""
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

    def _freeze(self, ints: list[list[int]], den: int) -> None:
        body = tuple(map(tuple, ints))
        if not body or not body[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(body[0])
        if any(len(row) != width for row in body):
            raise ValueError("ragged rows")
        for name, value in (("ints", body), ("den", den), ("rows", len(body)), ("cols", width)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Matrix":
        return cls([list(r) for r in rows])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.scaled([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return Fraction(self.ints[i][j], self.den)

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

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return Matrix.scaled(
            [[fa * a + fb * b for a, b in zip(ra, rb)] for ra, rb in zip(self.ints, other.ints)],
            den,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __mul__(self, other: "Matrix | int | Fraction") -> "Matrix":
        if isinstance(other, (int, Fraction)):
            return Matrix.scaled(
                [[x * other.numerator for x in row] for row in self.ints],
                self.den * other.denominator,
            )
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.ints))
        return Matrix.scaled(
            [[sum(map(mul, row, col)) for col in cols] for row in self.ints],
            self.den * other.den,
        )

    def __rmul__(self, other: "int | Fraction") -> "Matrix":
        return self.__mul__(other)

    def __neg__(self) -> "Matrix":
        return self * -1

    def transpose(self) -> "Matrix":
        return Matrix.scaled(zip(*self.ints), self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return self.den == 1

    def cleared(self) -> tuple[list[list[int]], int]:
        """(m', s) with m'/s = self, s the least common denominator; m' is a
        fresh list of lists, free for the caller to change."""
        return [list(row) for row in self.ints], self.den

    def to_int_rows(self) -> list[list[int]]:
        if self.den != 1:
            raise NotInteger("integer entries required")
        return [list(row) for row in self.ints]


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (mutates its copy)."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def det(m: Matrix) -> Fraction:
    """Exact determinant via Bareiss elimination on the cleared matrix."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    d = _bareiss_det([list(row) for row in m.ints])
    return Fraction(d, m.den**m.rows)


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


def hnf_rows(
    a: list[list[int]], ncols: int | None = None, modulus: int = 0
) -> list[list[int]]:
    """Row-style Hermite normal form of integer rows, computed in place.

    Column c is cleared below the pivot row r one row at a time (Cohen, GTM
    138, Sec. 2.4.2): a zero pivot x swaps with the row of the entry y
    below it; when x divides y, one subtraction clears y; otherwise the 2x2
    step [[s, t], [-y/g, x/g]] with s*x + t*y = g = +-gcd(x, y), which has
    determinant 1, turns the pair into (g, 0).  The pivot is then made
    positive and reduces the entries above it into [0, pivot).

    Pivots are taken in the first ncols columns only (default: all); every
    row operation acts on whole rows, so columns past ncols ride along.
    That is how hnf carries its transform: it reduces [m | I] with ncols =
    m.cols.  Callers that need only h pass the bare rows.

    A modulus D > 0 runs the pass modulo D (Domich-Kannan-Trotter, Math.
    OR 12, 1987; Cohen, GTM 138, Alg. 2.4.8).  It is for rows whose lattice
    L contains D*Z^n, n = ncols = the row length: for a nonsingular square,
    any multiple of |det|.
    The rows still in play lie in the part of L that is zero before column
    c, which contains R*Z^(n-c) with R = D / (the pivots so far); so the
    rows changed there are reduced mod R, and the pivot row takes in R*e_c
    by one more 2x2 step (none when x divides R), its pivot becoming
    gcd(x, R).  The row that step leaves is R/gcd times a vector of the
    next block, which contains R/gcd * Z^(n-c-1), so it is dropped, and R
    becomes R/gcd.  A row above the pivot that the pivot reduces is reduced
    mod R right of the pivot as well.  Entries then stay within a few D^2
    (or the input's size), and since the Hermite form is unique the result
    is the one the plain pass gives."""
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0])
    big_r = modulus
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        top = a[r]
        for i in range(r + 1, nrows):
            row = a[i]
            y = row[c]
            if not y:
                continue
            x = top[c]
            if not x:
                a[r], a[i] = row, top
                top = row
            elif y % x == 0:
                q = y // x
                a[i] = [v - q * u for u, v in zip(top, row)]
                if big_r:
                    a[i] = [v % big_r for v in a[i]]
            else:
                g, s, t = _xgcd(x, y)
                p, q = x // g, y // g
                a[r] = [s * u + t * v for u, v in zip(top, row)]
                a[i] = [p * v - q * u for u, v in zip(top, row)]
                if big_r:
                    a[r] = [v % big_r for v in a[r]]
                    a[i] = [v % big_r for v in a[i]]
                top = a[r]
        if big_r:
            x = top[c] % big_r
            if not x or big_r % x:
                x, s, _ = _xgcd(x, big_r)
                a[r] = top = [s * u % big_r for u in top]
                top[c] = x
            elif x != top[c]:
                a[r] = top = top[:c] + [x] + top[c + 1 :]
            big_r //= x
        x = top[c]
        if not x:
            continue
        if x < 0:
            a[r] = top = [-u for u in top]
            x = -x
        for i in range(r):
            q = a[i][c] // x
            if q:
                a[i] = row = [v - q * u for u, v in zip(top, a[i])]
                if big_r:
                    row[c + 1 :] = [v % big_r for v in row[c + 1 :]]
        r += 1
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


def hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form: returns (h, u) with h = u*m, u unimodular.

    Canonical shape: pivots positive and strictly right-down, zeros below each
    pivot, entries above a pivot reduced into [0, pivot), zero rows last.
    """
    n = m.rows
    aug = [
        row + [int(i == j) for j in range(n)]
        for i, row in enumerate(m.to_int_rows())
    ]
    h = hnf_rows(aug, m.cols)
    return (
        Matrix.scaled(row[: m.cols] for row in h),
        Matrix.scaled(row[m.cols :] for row in h),
    )


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
    big_d = abs(_bareiss_det([row[:] for row in a]))
    if big_d == 0:
        raise SingularMatrix("singular matrix has no invariant-factor chain")
    while True:
        a = hnf_rows(a, modulus=big_d)
        if not any(a[i][j] for i in range(n) for j in range(i + 1, n)):
            break
        a = [list(col) for col in zip(*a)]
    factors = [a[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)
