"""Exception hierarchy shared across the package.

The split mirrors what a caller can do about the failure: fix the
configuration (``ConfigError``), fix the input file (``ParseError`` for
structure, ``ValidationError`` for values and references), or report a
bug (anything else). Every module checks its numeric settings with
the two private checks at the end.
"""

import numbers

__all__ = ["OcevalError", "ConfigError", "ParseError", "ValidationError"]


class OcevalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OcevalError):
    """Invalid parameters or option combinations (a usage problem)."""


class ParseError(OcevalError):
    """An input file is structurally malformed."""


class ValidationError(OcevalError):
    """Input data carries invalid values or dangling references."""


def _is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """Whether ``value`` is a Python or numpy int or float; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_integer(name: str, value: object, floor: int, bits: int | None = None) -> None:
    """Reject a setting that is no integer, is below ``floor`` or, when
    ``bits`` is given, is not below 2**bits."""
    if not _is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ConfigError(f"{name} must be >= {floor}, got {value}")
    if bits is not None and value >= 2**bits:
        raise ConfigError(f"{name} must be in [{floor}, 2**{bits}), got {value}")


def _check_real(name: str, value: object, lo: float, hi: float, open_low: bool = False) -> None:
    """Reject a setting that is no int or float, or lies outside [lo, hi]
    ((lo, hi] when ``open_low``); a bool is neither, NaN lies outside."""
    if not (_is_real(value) and (lo < value if open_low else lo <= value) and value <= hi):
        low = "(" if open_low else "["
        raise ConfigError(f"{name} must be in {low}{lo}, {hi}], got {value!r}")
