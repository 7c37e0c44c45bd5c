"""Exception types shared across the engine."""


class IntDiffOpError(Exception):
    """Base class for all engine errors."""


class ZeroPolynomial(IntDiffOpError):
    """Raised when an operation needs a nonzero polynomial."""


class DivisionByZero(IntDiffOpError, ZeroDivisionError):
    """Raised on inversion of zero or division by a zero element."""


class DimensionMismatch(IntDiffOpError):
    """Operands live over a different number of tensor factors."""


class ModeMismatch(IntDiffOpError):
    """Operands disagree on which factors are in quotient mode."""


class EmptyFactorList(IntDiffOpError):
    """A tensor product needs at least one factor."""


class LimitExceeded(IntDiffOpError):
    """A request beyond one of the engine's fixed size limits: the ideal
    enumeration, the terms, degrees and coefficient bits of a product or a
    power, or the digits of a printed coefficient."""


class _AtPosition(IntDiffOpError):
    """An error in input text; carries the offset of the offending token."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class OperatorSyntaxError(_AtPosition):
    """Parse failure."""


class IndexOutOfRange(_AtPosition):
    """Generator index outside 1..n."""


class NegativeExponent(IntDiffOpError):
    """Operator powers must have nonnegative integer exponents."""
