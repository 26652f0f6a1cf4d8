"""Exception hierarchy shared across the package.

A numeric failure is raised by the primitive that met it, which does not
know which step of an orbit it serves.  The orbit loops
(``solver._evolve``, ``ysystem.y_iterate`` and the CLI's ``iterate``) catch
it and set its ``step`` to the ``ell`` of the first state the orbit did not
deliver, which is also the number of states it did deliver.
"""

from __future__ import annotations


class SolvmapsError(Exception):
    """Base class for all errors raised by this package."""


class NumericError(SolvmapsError):
    """Base class for arithmetic failures (carries an optional step index).

    ``reason`` is the message without the step suffix; the step is read when
    the message is, so an orbit loop may set it after catching the error.
    """

    def __init__(self, reason: str, step: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.step = step

    def __str__(self) -> str:
        return self.reason if self.step is None else f"{self.reason} (at step {self.step})"


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
