"""Error vocabulary shared by every module.

Each class names the contract it guards; all derive from TraceLatticeError so
callers can catch the library's failures in one clause.
"""
from __future__ import annotations


class TraceLatticeError(Exception):
    """Base class for every error raised by this library."""


def number_text(x) -> str:
    """str(x) of an int or Fraction for an error message.  An integer part
    past the interpreter's limit on int-to-str conversion (4,300 digits by
    default) is written as its digit count, so building a message about a
    huge number cannot itself fail."""
    try:
        return str(x)
    except ValueError:
        pass
    if isinstance(x, int):
        return f"-<{_digits(-x)} digits>" if x < 0 else f"<{_digits(x)} digits>"
    if x.denominator == 1:
        return number_text(x.numerator)
    return f"{number_text(x.numerator)}/{number_text(x.denominator)}"


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, with no int-to-str conversion:
    the bit length gives a lower bound to within one, raised to the exact
    count by comparing against powers of ten."""
    k = max(0, (n.bit_length() - 1) * 30103 // 100000 - 1)
    while 10**k <= n:
        k += 1
    return k


class NonSquareMatrix(TraceLatticeError):
    """A square matrix was required."""


class SingularMatrix(TraceLatticeError):
    """A nonsingular matrix was required."""


class NotInteger(TraceLatticeError):
    """Integer entries were required."""


class Reducible(TraceLatticeError):
    """The defining cubic factors over the rationals, so there is no field."""


class DivisionByZero(TraceLatticeError):
    """Inversion of the zero element."""


class ZeroParameter(TraceLatticeError):
    """t = 0 rejected by a normal-basis operation."""

    def __init__(self) -> None:
        super().__init__(
            "t = 0 has no normal basis of this shape; remap to t = -3 "
            "(f_0(x) = -x^3 f_{-3}(1/x)), see remap_t0()"
        )


class NonzeroTrace(TraceLatticeError):
    """A trace-zero element was required."""


class RationalInput(TraceLatticeError):
    """A non-rational field element was required."""


class DependentBasis(TraceLatticeError):
    """Linearly independent rows were required."""


class NotIntegral(TraceLatticeError):
    """An integral lattice (integer Gram matrix) was required."""


class NotSymmetric(TraceLatticeError):
    """A symmetric Gram matrix was required."""


class NotPositiveDefinite(TraceLatticeError):
    """A positive definite form was required."""


class RankTooLarge(TraceLatticeError):
    """The operation is capped at a small rank."""


class PointNotOnConic(TraceLatticeError):
    """The supplied point must satisfy the conic equation exactly."""


class DegenerateLambda(TraceLatticeError):
    """The weighted element's three conjugates are linearly dependent."""


class WrongGram(TraceLatticeError):
    """The lattice does not carry the Gram matrix this transform expects."""


class ZeroGenerator(TraceLatticeError):
    """A principal ideal needs a nonzero generator."""


class NotPrime(TraceLatticeError):
    """An odd prime was required."""


class TooLarge(TraceLatticeError):
    """Input exceeds the desk-scale bound this operation guarantees."""


class NotMaximal(TraceLatticeError):
    """A maximal order was required (the trace dual is not ring-stable)."""


class NotFound(TraceLatticeError):
    """An object the theory guarantees was not found; indicates a bug upstream."""


class TwoInert(TraceLatticeError):
    """2 is inert in this field, so no fake A3 lattice exists here."""
