"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes, so keep the taxonomy coarse:
bad input data, broken model assumptions, numerical failure, synthesis
failure, and trajectory blow-up.
"""

__all__ = [
    "ValidationError",
    "AssumptionError",
    "NumericError",
    "SynthesisError",
    "DivergenceError",
    "ConditioningWarning",
]


class ValidationError(ValueError):
    """Malformed or inconsistent input data.

    ``field`` names the offending entry (dotted path for file input,
    e.g. ``"plant.A_p[1][2]"``) so callers can point at the exact value;
    ``reason`` is the message without it.
    """

    def __init__(self, message, field=None):
        self.reason = message
        self.field = field
        if field is not None:
            message = "%s: %s" % (field, message)
        super().__init__(message)

    def under(self, parent):
        """The same error with its field re-rooted under the path ``parent``."""
        field = parent if self.field in (None, "$") else "%s.%s" % (parent, self.field)
        return ValidationError(self.reason, field=field)


class AssumptionError(ValueError):
    """A required structural assumption does not hold for the given models."""


class NumericError(RuntimeError):
    """A numerical routine failed or produced an untrustworthy result."""


class SynthesisError(RuntimeError):
    """A design step finished but its result fails verification."""


class DivergenceError(RuntimeError):
    """State norm blew up during integration; ``time`` is the blow-up instant."""

    def __init__(self, message, time=None):
        self.time = time
        super().__init__(message)


class ConditioningWarning(UserWarning):
    """A computed quantity is valid but came from an ill-conditioned problem."""
