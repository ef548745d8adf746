"""Exception hierarchy shared by all xms modules, and the config integer and real rules.

Each exception carries a short machine-readable ``code`` so callers (and the
CLI) can map failures to exit codes and distinguish error classes without
parsing messages.
"""

import math
import numbers


def is_int(value) -> bool:
    """Whether a config value is an integer: ``numbers.Integral`` and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a config value is a finite real number: ``numbers.Real``, not a bool, and finite."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


class XmsError(Exception):
    """Base class; ``code`` is a short stable identifier."""

    exit_code = 1

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # ``args`` holds only the message, so the default reduction cannot rebuild the error;
        # a pickle round trip (say, from a worker process) keeps the class, code and message
        return type(self), (self.code, str(self))


class ConfigError(XmsError):
    """Invalid configuration, hyperparameters, or CLI arguments."""

    exit_code = 2


class DataError(XmsError):
    """Malformed or inconsistent input data (files or in-memory)."""

    exit_code = 3


class NumericalError(XmsError):
    """Numerical failure: singular systems, divergence, no structure."""

    exit_code = 4
