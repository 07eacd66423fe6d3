"""Exception hierarchy shared across the package.

Every domain failure raises a :class:`PoolLabError` subclass so callers
(and the CLI) can distinguish bad inputs from programming errors.
"""


class PoolLabError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(PoolLabError):
    """Input data violates a documented invariant or schema."""


class StreamExhaustedError(PoolLabError):
    """A document stream ran out before a token target was reached."""

    def __init__(self, message: str, achieved_tokens: int):
        super().__init__(message)
        self.achieved_tokens = achieved_tokens


class FitError(PoolLabError):
    """A curve fit or root solve could not be carried out."""


class NoRootError(FitError):
    """A fitted curve never meets the line it is solved against."""


class JudgeError(PoolLabError):
    """The judge backend returned an unusable response."""
