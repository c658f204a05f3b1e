"""Exception hierarchy shared across the package."""


class GalmodError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GalmodError):
    """Input document is not valid JSON or does not match the schema."""


class ValidationError(GalmodError):
    """Tower or divisor data is structurally inconsistent."""


class NonIntegralGenus(ValidationError):
    """Riemann-Hurwitz recursion produced a non-integer genus at some level."""


class NegativeGenus(ValidationError):
    """Riemann-Hurwitz recursion produced a negative genus at some level."""


class DegreeTooSmall(GalmodError):
    """Divisor degree does not exceed 2g_X - 2, so H^1 need not vanish."""
