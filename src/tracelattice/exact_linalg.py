"""Exact rational and integer linear algebra underlying every other module.

Scalars are arbitrary-precision rationals (`Rational`, an alias of
`fractions.Fraction`: canonical lowest terms, positive denominator, and
`str()` prints the "p/q" wire form). Matrices are immutable row-major grids
of rationals. Every operation here is exact; no floating point anywhere.

Conventions fixed for the whole library:
  - vectors are rows; a basis matrix has one basis vector per row,
  - `hnf` is row-style: h = u*m with u unimodular, pivots positive, zeros
    below pivots, entries above a pivot reduced into [0, pivot), zero rows
    at the bottom; this form is unique, so it doubles as a lattice-equality
    key; `hnf_rows` is the same elimination on bare integer rows, without
    the transform,
  - `snf` returns the invariant-factor chain d1 | d2 | ... | dn.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    """Immutable matrix of Rationals, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Fraction]]):
        body = tuple(tuple(rat(x) for x in row) for row in data)
        if not body or not body[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(body[0])
        if any(len(row) != width for row in body):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", body)
        object.__setattr__(self, "rows", len(body))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Matrix":
        return cls([list(r) for r in rows])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __mul__(self, other: "Matrix | int | Fraction") -> "Matrix":
        if isinstance(other, (int, Fraction)):
            s = rat(other)
            return Matrix([[x * s for x in row] for row in self.data])
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.data))
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.data
            ]
        )

    def __rmul__(self, other: "int | Fraction") -> "Matrix":
        return self.__mul__(other)

    def __neg__(self) -> "Matrix":
        return self * Fraction(-1)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.data for x in row)

    def denominator_lcm(self) -> int:
        return lcm(*[x.denominator for row in self.data for x in row])

    def to_int_rows(self) -> list[list[int]]:
        if not self.is_integer():
            raise NotInteger("integer entries required")
        return [[int(x) for x in row] for row in self.data]


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
    scale = m.denominator_lcm()
    ints = [[int(x * scale) for x in row] for row in m.data]
    d = _bareiss_det(ints)
    return Fraction(d, scale**m.rows)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    n = m.rows
    a = [list(row) for row in m.data]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise SingularMatrix("no pivot")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv_p = 1 / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        b[col] = [x * inv_p for x in b[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                b[i] = [x - f * y for x, y in zip(b[i], b[col])]
    return Matrix(b)


def _row_op_sub(rows: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]


def hnf_rows(a: list[list[int]], ncols: int | None = None) -> list[list[int]]:
    """Row-style Hermite normal form of integer rows, computed in place.

    Pivots are taken in the first ncols columns only (default: all); every
    row operation acts on whole rows, so columns past ncols ride along.
    That is how hnf carries its transform: it reduces [m | I] with ncols =
    m.cols.  Callers that need only h pass the bare rows."""
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0])
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # clear column c below row r by Euclidean steps on the least pivot
        while True:
            nz = [i for i in range(r, nrows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            clean = True
            for i in range(r + 1, nrows):
                if a[i][c] != 0:
                    _row_op_sub(a, i, r, a[i][c] // a[r][c])
                    if a[i][c] != 0:
                        clean = False
            if clean:
                break
        if a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                _row_op_sub(a, i, r, a[i][c] // a[r][c])
            r += 1
    return a


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
        Matrix([row[: m.cols] for row in h]),
        Matrix([row[m.cols :] for row in h]),
    )


def snf(m: Matrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dn of a nonsingular integer matrix."""
    if not m.is_square():
        raise NonSquareMatrix(f"{m.rows}x{m.cols}")
    a = m.to_int_rows()
    n = m.rows
    if _bareiss_det([row[:] for row in a]) == 0:
        raise SingularMatrix("singular matrix has no invariant-factor chain")

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    factors: list[int] = []
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            dirty = False
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                _row_op_sub(a, i, t, q)
                if a[i][t] != 0:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; force divisibility
            offender = None
            for i in range(t + 1, n):
                if any(x % a[t][t] != 0 for x in a[i][t + 1 :]):
                    offender = i
                    break
            if offender is not None:
                a[t] = [x + y for x, y in zip(a[t], a[offender])]
                continue
            break
        factors.append(a[t][t])
    return tuple(factors)
