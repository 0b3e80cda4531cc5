"""Shared exception types."""


class FieldMismatchError(ValueError):
    """Raised when two exact values from different scalar fields are combined."""


class PrecisionExhaustedError(ArithmeticError):
    """Sign refinement hit the 4096-bit interval bound (implementation bug)."""


class FactorizationError(RuntimeError):
    """Length generating function did not factor into q-integers."""


class BudgetError(RuntimeError):
    """A configured size budget (group order, root count, moment factors) was hit."""


class ConfigError(ValueError):
    """Bad suite configuration text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
