"""Exception types shared by all halfjac modules.

Every error raised on a documented failure path derives from HalfjacError,
so callers can catch one base class at API boundaries (the CLI does, in
cli.main). Malformed text, JSON, config entries and arguments raise
InvalidInput, also a ValueError; an operand of the wrong type raises
InvalidType, also a TypeError.
Internal-consistency failures use SelfCheckFailed: they signal an arithmetic
bug in this package, never a legitimate outcome of a valid input.
"""


class HalfjacError(Exception):
    """Base class for all documented halfjac failures."""


class InvalidInput(HalfjacError, ValueError):
    """Malformed text, JSON, config entry or argument value."""


class InvalidType(HalfjacError, TypeError):
    """Operand of a type the operation does not accept."""


# field construction and arithmetic

class NotPrime(HalfjacError):
    """Field characteristic is not a prime number."""


class EvenCharacteristic(HalfjacError):
    """Field characteristic 2 is not supported."""


class ReducibleModulus(HalfjacError):
    """Extension modulus factors over the base field."""


class DivisionByZero(HalfjacError, ZeroDivisionError):
    """Division by the zero element or the zero polynomial."""


class FieldMismatch(HalfjacError):
    """Operands belong to different fields."""


# polynomials

class ZeroPolynomial(HalfjacError):
    """Operation undefined for the zero polynomial."""


# curves and divisors

class DuplicateRoots(HalfjacError):
    """Curve roots must be pairwise distinct."""


class EvenCount(HalfjacError):
    """Curve needs an odd number of roots."""


class TooFewRoots(HalfjacError):
    """Curve needs at least 3 roots."""


class PointNotOnCurve(HalfjacError):
    """Affine coordinates do not satisfy y^2 = f(x); the message gives the
    point, y^2 and f(x)."""


class CurveMismatch(HalfjacError):
    """Operands belong to different curves."""


class InvalidDivisor(HalfjacError):
    """Pair (U, V) violates the Mumford invariants."""


class CapExceeded(HalfjacError):
    """Order search passed the cap; under the default Weil-bound cap, an
    internal arithmetic bug."""


class DegreeOutOfRange(HalfjacError):
    """Theta stratum depth outside 0..g."""


# halving

class PointAtInfinity(HalfjacError):
    """Operation requires an affine point."""


class SquareRootMissing(HalfjacError):
    """Some a - alpha_i is a non-square in the working field.

    The index attribute names the offending coordinate (0-based).
    """

    def __init__(self, index):
        self.index = index
        super().__init__("a - alpha_%d is not a square in the working field; "
                         "lift to the quadratic extension first" % (index + 1))


class SelfCheckFailed(HalfjacError):
    """An internal cross-check failed: arithmetic bug, not a user error."""


class NotAHalf(HalfjacError):
    """Pair (U, V) is not the Mumford representation of any curve-point half."""


class SharedRootWithF(NotAHalf):
    """U shares a root with f, so (U, V) cannot be a curve-point half."""


# theorem batteries

class CharacteristicDividesDegree(HalfjacError):
    """char(F) divides 2g+1, so the order-(2g+1) construction degenerates."""


class DoesNotSplit(HalfjacError):
    """The curve polynomial f does not split into linear factors over the
    given field (curve_from_coeffs; order_2g_plus_1 names the extension)."""
