"""Exceptions shared across the package."""


class QKoornError(Exception):
    """Base class for all package errors."""


class DenominatorVanishes(QKoornError, ZeroDivisionError):
    """A substitution hit a pole of a rational function."""


class NotDivisible(QKoornError, ArithmeticError):
    """An exact division left a nonzero remainder."""


class NotInvariant(QKoornError, ValueError):
    """A polynomial is not invariant under the declared group."""


class ZeroDenominator(QKoornError, ZeroDivisionError):
    """Eigenvalue collision at specialized parameters."""


class DegenerateNorm(QKoornError, ArithmeticError):
    """A truncation-induced zero norm in Gram-Schmidt; raise the order."""


class DivergentSeries(QKoornError, ValueError):
    """The truncated weight needs a geometric series that diverges at the
    parameter point."""


class NotEigenfunction(QKoornError, AssertionError):
    """A claimed eigenfunction is not proportional to its image."""
