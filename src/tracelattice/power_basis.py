"""Number fields Q[x]/(f) in the power basis (1, x, ..., x^{n-1}).

A PowerBasisField is built from three pieces of data: the monic minimal
polynomial f (ascending rational coefficients), the image of x under complex
conjugation (None when the field is totally real), and the images of x under
generators of the Galois group, each as a polynomial in x.  Everything else is
derived from them once, in cleared integers (Cohen, GTM 138, Sec. 4.2):

  - x^m mod f for n <= m <= 2n-2, an (n-1) x n Matrix, so a product is the
    integer convolution of the two cleared factors folded through its
    integer rows, and costs one Fraction per coordinate;
  - the trace vector Tr(x^k), k < n, from Newton's power sums of f;
  - the conjugation matrix C and the Galois matrices S, whose row i is the
    image of x^i;
  - the trace form T[i][j] = Tr(x^i conj(x^j)) = (H C^T)[i][j], with
    H[i][k] = Tr(x^(i+k)) read from the trace vector and the x^m table
    (T and the Galois matrices on first use).

The inverse of a is e_0 M_a^-1 and its norm det M_a, with M_a the matrix of
multiplication by a.  The class implements the lattice_core ambient protocol
(degree, trace_form, galois_matrices, descriptor), so a lattice's Gram and
its Galois stability read T and S as they are; ShanksField, CycField and
QuadAmbient supply the data, and FieldElement is the element type of any
such field.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .errors import DivisionByZero, SingularMatrix
from .exact_linalg import Matrix, det, inverse, rat

Coords = tuple[Fraction, ...]


def poly_divmod(num: Sequence, den: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of rational polynomials, ascending coefficients."""
    num = [rat(c) for c in num]
    den = [rat(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise DivisionByZero("polynomial division by zero")
    width = len(den) - 1
    quot = [Fraction(0)] * max(1, len(num) - width)
    for k in range(len(num) - width - 1, -1, -1):
        c = num[k + width] / den[-1]
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return quot, num[:width]


def _cleared(a: Sequence[Fraction]) -> tuple[list[int], int]:
    """(a', s) with a'/s = a, s the least common denominator."""
    s = lcm(*[x.denominator for x in a])
    if s == 1:
        return [x.numerator for x in a], 1
    return [x.numerator * (s // x.denominator) for x in a], s


class PowerBasisField:
    """Immutable Q[x]/(f) with exact power-basis arithmetic; equal fields have
    equal descriptors."""

    #: the name of the generator x in printed elements
    symbol = "x"

    __slots__ = (
        "degree", "minpoly", "_descriptor", "_xpow", "_trace", "_conj", "_galois_x",
        "_galois", "_form",
    )

    def __init__(
        self, minpoly: Sequence, conj_x: Optional[Sequence], galois_x: Sequence, descriptor: dict
    ):
        f = tuple(rat(c) for c in minpoly)
        n = len(f) - 1
        assert n >= 1 and f[-1] == 1, "minimal polynomial must be monic"
        # x^n = -(f_0 + ... + f_{n-1} x^{n-1}); x^{m+1} = x * x^m shifts and
        # folds the top coefficient back in the same way
        rows = [[-c for c in f[:n]]]
        for _ in range(n - 2):
            top = rows[-1][-1]
            rows.append(
                [top * rows[0][0]] + [a + top * b for a, b in zip(rows[-1], rows[0][1:])]
            )
        # Newton: p_k = -(k f_{n-k} + sum_{i<k} f_{n-i} p_{k-i})
        sums = [Fraction(n)]
        for k in range(1, n):
            sums.append(-(k * f[n - k] + sum(f[n - i] * sums[k - i] for i in range(1, k))))
        self._freeze(
            degree=n,
            minpoly=f,
            _descriptor=dict(descriptor),
            _xpow=Matrix(rows),
            _trace=Matrix([sums]),
            _galois_x=tuple(galois_x),
            _galois=None,
            _form=None,
        )
        self._freeze(_conj=None if conj_x is None else self._image_matrix(conj_x))

    def _freeze(self, **attrs) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerBasisField) and self._descriptor == other._descriptor

    def __hash__(self) -> int:
        return hash(tuple(self._descriptor.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._params()})"

    def _params(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self._descriptor.items() if k != "kind")

    def descriptor(self) -> dict:
        return dict(self._descriptor)

    # --- coordinates ----------------------------------------------------
    def reduce(self, poly: Sequence) -> Coords:
        """Power-basis coordinates of a polynomial in x of any degree."""
        _, rem = poly_divmod(poly, self.minpoly)
        return tuple(rem) + (Fraction(0),) * (self.degree - len(rem))

    def _powers(self, a: Sequence, y: Sequence) -> Matrix:
        """The rows a, a y, ..., a y^{n-1}."""
        rows = [tuple(a)]
        for _ in range(self.degree - 1):
            rows.append(self.mul_coords(rows[-1], y))
        return Matrix(rows)

    def _image_matrix(self, image_x: Sequence) -> Matrix:
        """The matrix of the Q-linear map x^i -> y^i, y the image of x: row i
        is y^i."""
        return self._powers(self.reduce([1]), self.reduce(image_x))

    def _apply(self, m: Matrix, a: Sequence[Fraction]) -> Coords:
        """The row a times m."""
        ints, s = _cleared(a)
        den = m.den * s
        return tuple(Fraction(sum(map(mul, ints, col)), den) for col in zip(*m.ints))

    # --- arithmetic and the lattice_core protocol -----------------------
    def _mul_ints(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """The product of integer rows a and b times the denominator of the
        x^m table: their convolution folded through its integer rows."""
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        xpow = self._xpow
        out = conv[:n] if xpow.den == 1 else [c * xpow.den for c in conv[:n]]
        for c, row in zip(conv[n:], xpow.ints):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def mul_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Coords:
        ai, da = _cleared(a)
        bi, db = _cleared(b)
        den = self._xpow.den * da * db
        return tuple(Fraction(c, den) for c in self._mul_ints(ai, bi))

    def products(self, a: Matrix, b: Matrix) -> Matrix:
        """The products a_i b_j of the rows of a and b, in row i * b.rows + j,
        all in int."""
        return Matrix.scaled(
            (self._mul_ints(x, y) for x in a.ints for y in b.ints), self._xpow.den * a.den * b.den
        )

    def conj_coords(self, a: Sequence[Fraction]) -> Coords:
        """Complex conjugation; the identity on a totally real field."""
        return tuple(a) if self._conj is None else self._apply(self._conj, a)

    def trace_coords(self, a: Sequence[Fraction]) -> Fraction:
        ints, s = _cleared(a)
        trace = self._trace
        return Fraction(sum(map(mul, ints, trace.ints[0])), s * trace.den)

    def trace_form(self) -> Matrix:
        """T = H C^T, T[i][j] = Tr(x^i conj(x^j)) on the power basis; the
        Gram of a basis B is B T B^T."""
        form = self._form
        if form is None:
            n = self.degree
            trace, xpow = self._trace, self._xpow
            t = trace.ints[0]
            # Tr(x^m) for m <= 2n-2, over the product of the two denominators
            tr = [c * xpow.den for c in t] + [sum(map(mul, row, t)) for row in xpow.ints]
            form = Matrix.scaled((tr[i : i + n] for i in range(n)), trace.den * xpow.den)
            if self._conj is not None:
                form = form * self._conj.transpose()
            self._freeze(_form=form)
        return form

    def galois_matrices(self) -> tuple[Matrix, ...]:
        """The matrix S of each Galois generator, in the order given: row i
        is the image of x^i, so a row a maps to a S.  Stability under them is
        stability under the whole group."""
        cached = self._galois
        if cached is None:
            cached = tuple(self._image_matrix(y) for y in self._galois_x)
            self._freeze(_galois=cached)
        return cached

    # --- derived operations ---------------------------------------------
    def galois_coords(self, a: Sequence[Fraction]) -> Coords:
        """Image of a under the first Galois generator."""
        return self._apply(self.galois_matrices()[0], a)

    def pair_coords(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
        """The Hermitian trace pairing Tr(a * conj(b))."""
        return self.trace_coords(self.mul_coords(a, self.conj_coords(b)))

    def inv_coords(self, a: Sequence[Fraction]) -> Coords:
        """a^-1 = e_0 M_a^-1, M_a the matrix of multiplication by a (row i
        is a x^i): the row y with y M_a = 1.  Raises DivisionByZero
        when M_a is singular: a = 0, or a zero divisor of a reducible f."""
        try:
            return inverse(self._powers(a, self.reduce([0, 1]))).row(0)
        except SingularMatrix:
            raise DivisionByZero("element is not invertible") from None

    def norm_coords(self, a: Sequence[Fraction]) -> Fraction:
        """N(a) = det M_a, the product of the Galois conjugates of a."""
        return det(self._powers(a, self.reduce([0, 1])))

    def pow_coords(self, a: Sequence[Fraction], k: int) -> Coords:
        """a^k by repeated squaring, through the inverse for k < 0."""
        if k < 0:
            return self.pow_coords(self.inv_coords(a), -k)
        out = self.reduce([1])
        base = tuple(a)
        while k:
            if k & 1:
                out = self.mul_coords(out, base)
            k >>= 1
            if k:
                base = self.mul_coords(base, base)
        return out


class FieldElement:
    """a_0 + a_1 x + ... + a_{n-1} x^{n-1} in a fixed PowerBasisField."""

    __slots__ = ("field", "coords")

    def __init__(self, field: PowerBasisField, coords: Sequence[int | str | Fraction]):
        cs = tuple(rat(c) for c in coords)
        if len(cs) != field.degree:
            raise ValueError(f"{field.degree} power-basis coordinates required")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FieldElement is immutable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        x = self.field.symbol
        powers = ["", f"*{x}"] + [f"*{x}^{i}" for i in range(2, len(self.coords))]
        terms = " + ".join(f"({c}){p}" for c, p in zip(self.coords, powers))
        return f"{terms}  [{self.field._params()}]"

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return FieldElement(self.field, self.field.reduce([rat(other)]))

    def __add__(self, other) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other) -> "FieldElement":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            s = rat(other)
            return FieldElement(self.field, tuple(a * s for a in self.coords))
        o = self._coerce(other)
        return FieldElement(self.field, self.field.mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow_coords(self.coords, k))
