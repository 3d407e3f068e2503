"""Error vocabulary shared by every module.

Each class names the contract it guards; all derive from TraceLatticeError so
callers can catch the library's failures in one clause.
"""
from __future__ import annotations


class TraceLatticeError(Exception):
    """Base class for every error raised by this library."""


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

    def __init__(self, message: str | None = None) -> None:
        super().__init__(
            message
            or "t = 0 has no normal basis of this shape; remap to t = -3 "
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


class AmbientMismatch(TraceLatticeError):
    """Both lattices must live in the same ambient field."""


class ZeroSlopePair(TraceLatticeError):
    """(s0, s1) = (0, 0) does not define a slope."""


class PointNotOnConic(TraceLatticeError):
    """The supplied point must satisfy the conic equation exactly."""


class DegenerateLambda(TraceLatticeError):
    """The three bracket vectors are linearly dependent."""


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
