"""Exception types shared across the package, and the checks that turn a
malformed library argument into InvalidArgument.

All errors raised deliberately by this package derive from SpinsenseError,
so callers can catch the package's failures without masking genuine bugs.
"""

import math
import numbers

import numpy as np


class SpinsenseError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SpinsenseError, ValueError):
    """An argument is out of range, malformed, or inconsistent."""


class NumericalError(SpinsenseError):
    """An integrator or decomposition failed to reach its tolerance."""


class AssumptionViolated(SpinsenseError):
    """A model assumption (e.g. field parallel to the noise axis) does not hold."""


class SingularQfim(SpinsenseError):
    """The quantum Fisher information matrix is singular or too ill-conditioned to invert."""


class ExperimentFailed(SpinsenseError):
    """A sweep or scan produced no usable points."""


def _count(value, what, least):
    """value as an int; refused unless it is an integer (a bool is not one) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidArgument(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _instance(value, kind, what):
    """value, refused as InvalidArgument unless it is an instance of kind."""
    if not isinstance(value, kind):
        raise InvalidArgument(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _member(enum_type, value):
    """enum_type(value), with an unknown value refused as InvalidArgument."""
    try:
        return enum_type(value)
    except ValueError:
        raise InvalidArgument(
            f"expected one of {[e.value for e in enum_type]}, got {value!r}") from None


def _real(value, what):
    """float(value), refused as InvalidArgument unless it is a real number (a bool is not one)."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise InvalidArgument(f"{what} must be a real number, got {value!r}")


def _array(value, what, dtype=complex):
    """np.asarray(value, dtype), with a value that does not convert refused as InvalidArgument."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidArgument(f"{what} must be an array of numbers, got {value!r}") from None


def _nonnegative(value, what):
    """_real(value), refused unless it is finite and >= 0."""
    x = _real(value, what)
    if not (math.isfinite(x) and x >= 0.0):
        raise InvalidArgument(f"{what} must be finite and >= 0, got {x}")
    return x


def _vector(value, what):
    """value as an array of 3 finite floats, anything else refused as InvalidArgument."""
    vec = _array(value, what, float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InvalidArgument(f"{what} must be 3 finite components, got {value}")
    return vec


def _strengths(thetas, what="theta"):
    """thetas as a float array, refused unless every one is finite and >= 0."""
    thetas = _array(thetas, what, float)
    if not np.all(np.isfinite(thetas) & (thetas >= 0.0)):
        raise InvalidArgument(f"{what} must be finite and >= 0, got {thetas}")
    return thetas
