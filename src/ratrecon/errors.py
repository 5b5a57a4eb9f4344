"""Exception types shared across the library.

Division by zero raises the builtin ZeroDivisionError everywhere; everything
else gets a named class so callers can react per failure mode.
"""


class RatreconError(Exception):
    """Base class for all library errors."""


class FieldMismatch(RatreconError, TypeError):
    """Arithmetic attempted between elements of different fields."""


class ZeroDenominator(RatreconError, ZeroDivisionError):
    """A rational function was built with denominator zero."""


class ZeroFunction(RatreconError):
    """Degree data requested for the zero function."""


class ZeroPolynomial(RatreconError):
    """A resultant or Sylvester matrix was requested for the zero polynomial."""


class InexactDivision(RatreconError, ArithmeticError):
    """A division that must be exact left a remainder."""


class NonSquareMatrix(RatreconError):
    """Determinant of a non-square matrix."""


class UndefinedAt(RatreconError):
    """A rational function was evaluated where its denominator vanishes."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"function undefined at {point!r}")


class PrefixTooShort(RatreconError):
    """A series prefix is too short for the requested operation."""


class PoleAtOrigin(RatreconError):
    """Series expansion at 0 requested for a function with den(0) = 0."""


class NoSolution(RatreconError):
    """The Pade linear system admits no denominator with Q(0) != 0."""


class SizeMismatch(RatreconError):
    """Sample count does not match the degree profile."""


class DegenerateInput(RatreconError):
    """Interpolation nodes contain a duplicate."""


class BetaZero(RatreconError):
    """The denominator determinant vanished: wrong profile or a point off
    the underlying function's domain.  Callers treat this as "resample"."""


class NoFit(RatreconError):
    """No rational function with the given degree bounds fits the samples."""


class BudgetExhausted(RatreconError):
    """Degree detection walked past the configured maximum total degree, or
    a reconstruction's recursion tree outgrew `reconstruct.MAX_LEAVES`."""


class DomainTooSparse(RatreconError):
    """Too many consecutive undefined oracle responses while sampling."""


class TooManyFailures(RatreconError):
    """More than 20% of sampled slices failed profile detection."""


class AnchorSearchFailed(RatreconError):
    """Could not find enough widely-defined anchor values."""


class EmptyHistogram(RatreconError):
    """Dominant class requested from an empty histogram."""


class VerificationFailed(RatreconError):
    """Reconstruction disagreed with the oracle at a defined point."""

    def __init__(self, point, expected, got, path=()):
        self.point = point
        self.expected = expected
        self.got = got
        self.path = path
        coords = ", ".join(str(c) for c in point)
        super().__init__(
            f"reconstruction mismatch at recursion path {path}, point "
            f"({coords}): oracle {expected}, result {got}")


class ExprSyntaxError(RatreconError):
    """Expression parse failure, carrying byte offset and expectation set."""

    def __init__(self, offset, expected):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        super().__init__(f"syntax error at offset {offset}: expected {', '.join(self.expected)}")


class ExponentTooLarge(ExprSyntaxError):
    """An exponent literal, a folded exponent chain, or the product of the
    exponents along a chain of nested powers exceeds the cap."""

    def __init__(self, offset, cap):
        super().__init__(offset, {f"an exponent of at most {cap}"})


class NestingTooDeep(ExprSyntaxError):
    """Parentheses, unary minuses and exponent chains nest deeper than the
    cap."""

    def __init__(self, offset, cap):
        super().__init__(offset, {f"a nesting depth of at most {cap}"})


class UnknownVariable(RatreconError):
    """Variable name outside x1..x<arity>."""

    def __init__(self, offset, name):
        self.offset = offset
        self.name = name
        super().__init__(f"unknown variable {name!r} at offset {offset}")


class NegativeExponent(RatreconError):
    """Exponent literal was negative."""

    def __init__(self, offset):
        self.offset = offset
        super().__init__(f"negative exponent at offset {offset}")
