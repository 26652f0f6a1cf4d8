"""Exception hierarchy shared across the package.

Numeric failures carry the discrete-time step index at which they occurred
whenever the caller knows it, so orbit drivers can report where an orbit
died instead of propagating Inf/NaN.
"""

from __future__ import annotations


class SolvmapsError(Exception):
    """Base class for all errors raised by this package."""


class NumericError(SolvmapsError):
    """Base class for arithmetic failures (carries an optional step index).

    ``reason`` is the message without the step suffix.
    """

    def __init__(self, message: str, step: int | None = None):
        self.reason = message
        self.step = step
        if step is not None:
            message = f"{message} (at step {step})"
        super().__init__(message)


class ZeroToNegativePowerError(NumericError):
    """Zero base raised to a negative integer power."""


class NumericOverflowError(NumericError):
    """A computation produced a non-finite value."""


class NonIntegerExponentError(SolvmapsError):
    """Defensive: a closed-form exponent failed its exact divisibility check."""


class QRMismatchError(SolvmapsError):
    """Special closed form requested outside the q=2k, r=2(1+k) regime."""


class SingularChangeError(SolvmapsError):
    """Linear change of variables with zero determinant."""


class DegenerateQuadraticError(SolvmapsError):
    """Coefficient-to-state inversion degenerates (leading coefficient zero)."""


class ConfigError(SolvmapsError, ValueError):
    """Invalid run configuration or parameters (CLI exit code 2)."""
