"""Exception hierarchy shared by all modules.

``ValidationError`` subclasses signal bad inputs (wrong shape, failed
preconditions); the CLI maps them to exit code 2. ``SolverDidNotConverge``
maps to exit code 4.
"""

from __future__ import annotations


class KDError(Exception):
    """Base class for all library errors."""


class ValidationError(KDError):
    """Input fails a precondition or is malformed."""


class MixedDimensions(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class NotNormalized(ValidationError):
    pass


class BadFactorization(ValidationError):
    pass


class WrongFamilyKind(ValidationError):
    pass


class BadDimension(ValidationError):
    pass


class NotUnitTrace(ValidationError):
    pass


class NotClassical(ValidationError):
    pass


class ConditionsFailed(ValidationError):
    pass


class NotInSpan(ValidationError):
    pass


class ZeroDirection(ValidationError):
    pass


class TooLarge(ValidationError):
    """The run would need more memory than the machine has."""


class SolverDidNotConverge(KDError):
    """The constrained least-squares solver hit its iteration cap."""
