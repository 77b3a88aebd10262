"""Exception types shared across the package."""


class TokenAuditError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TokenAuditError, ValueError):
    """An argument violates an operation's contract."""


class InputError(TokenAuditError):
    """A file or configuration could not be read or parsed."""


class ResourceLimitError(TokenAuditError):
    """An enumeration grew past its cap."""


class InvariantViolation(TokenAuditError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class ConditionsViolated(TokenAuditError):
    """The hypotheses behind a finite detection-time bound do not hold."""
