"""Exception types shared across the package."""


class EnvelopeExceededError(ValueError):
    """Input magnitude is outside the supported working range."""


class FactorizationError(ArithmeticError):
    """Pollard rho found no factor of a composite (never seen in practice)."""


class PreconditionError(ValueError):
    """An operation was called with arguments violating its contract."""


class NotAttainableError(ValueError):
    """No coefficient vector realizes the requested determinant value."""

    def __init__(self, reason):
        super().__init__(f"value is not attainable: {reason}")
        self.reason = reason


class InternalMismatchError(AssertionError):
    """A self-verification step failed; indicates a defect, never bad input."""
