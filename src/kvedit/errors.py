"""Exception hierarchy for kvedit.

Every error raised on a contract violation derives from KveditError, so
callers (and the CLI) can distinguish validation failures from genuine
runtime faults.
"""

from numbers import Integral


class KveditError(Exception):
    """Base class for all kvedit errors."""


class ShapeError(KveditError, ValueError):
    """Operands have incompatible dimensions; message names both shapes."""


class ArgumentError(KveditError, ValueError):
    """An argument violates an operation's precondition."""


class NumericError(KveditError, ArithmeticError):
    """A numeric kernel produced a non-finite value."""


class ConfigError(KveditError, ValueError):
    """A model or bench configuration violates its invariants."""


class CacheError(KveditError, ValueError):
    """A KV cache does not match the model or operation using it."""


class ScriptError(KveditError, ValueError):
    """An edit script is malformed or out of range for its sequence."""


class ScenarioError(KveditError, ValueError):
    """A scenario cannot be generated from the given document/config."""


class DiagnosticsError(KveditError, ValueError):
    """Diagnostic inputs are incomparable (shape or length mismatch)."""


def check_int(error: type, name: str, value, minimum: int) -> None:
    """Raise `error` naming `name` unless value is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
