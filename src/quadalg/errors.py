"""Exception types shared across the package."""


class QuadAlgError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(QuadAlgError, ValueError):
    """Operands belong to different fields or have the wrong scalar shape."""


class DivisionByZero(QuadAlgError, ZeroDivisionError):
    """Division or inversion of a zero field element."""


class UnsupportedField(QuadAlgError, TypeError):
    """The requested operation is not available over this field."""


class NotIntegerCoefficients(QuadAlgError, ValueError):
    """A polynomial expected to have integer coefficients does not."""


class ZeroSeries(QuadAlgError, ValueError):
    """Valuation of the zero series is undefined."""


class NotInValuationRing(QuadAlgError, ValueError):
    """Series has a pole (negative valuation) where a regular one is required."""


class ReducibleModulus(QuadAlgError, ValueError):
    """A modulus polynomial required to be irreducible is not (or cannot be certified)."""


class CharTwo(QuadAlgError, ValueError):
    """Operation requires characteristic different from two."""


class DimensionMismatch(QuadAlgError, ValueError):
    """Vector length does not match the algebra dimension."""


class ZeroVector(QuadAlgError, ValueError):
    """The zero vector is not admissible here."""


class NotAnEigenvector(QuadAlgError, ValueError):
    """Claimed eigenpair fails its defining equation."""


class EvenOrTrivialDegree(QuadAlgError, ValueError):
    """The quotient construction needs an odd modulus degree greater than one."""


class NotAnExtensionField(QuadAlgError, TypeError):
    """Restriction of scalars needs an algebra over an extension field."""


class NotNilpotentAtGivenOrder(QuadAlgError, ValueError):
    """x**r != 0 or x**(r-1) == 0, so the stated nilpotency order is wrong."""


class WrongDimension(QuadAlgError, ValueError):
    """Engine supports a fixed dimension only."""


class BudgetExceeded(QuadAlgError, RuntimeError):
    """A search would exceed fields.ENUMERATION_BUDGET steps."""


class SearchExhausted(QuadAlgError, RuntimeError):
    """Numeric search failed within the configured restarts (a bug signal)."""


class ValuationViolation(QuadAlgError, ValueError):
    """Perturbation coefficient violates its valuation constraint."""


class ParseError(QuadAlgError, ValueError):
    """Malformed descriptor, scalar, or file content."""
