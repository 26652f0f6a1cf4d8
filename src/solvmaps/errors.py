"""Exception hierarchy shared across the package.

A numeric failure is raised by the primitive that met it, which does not
know which step of an orbit it serves.  The orbit loops
(``solver._evolve``, ``ysystem.y_iterate`` and the CLI's ``iterate``) catch
it and set its ``step`` to the ``ell`` of the first state the orbit did not
deliver, which is also the number of states it did deliver.

An invalid parameter is a :class:`ConfigError` (a ``ValueError``), raised by
the type or closed form that rejects it: a non-integer ``k``, ``q`` or ``r``,
a zero ``k`` or ``B2``, a singular change of variables, or a special closed
form asked for outside q = 2k, r = 2(1+k).
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


class ConfigError(SolvmapsError, ValueError):
    """Invalid run configuration or parameters (CLI exit code 2)."""
