"""Exception types shared across the library, and the three checks, one
per kind of argument, with which every entry point raises DomainError."""

import math
import numbers

import numpy as np


class FasmonError(Exception):
    """Base class for all library errors."""


class DomainError(FasmonError, ValueError):
    """An argument lies outside the domain a function is defined on."""


class ComputationError(FasmonError, ArithmeticError):
    """A computed intermediate is numerically inconsistent (e.g. a radicand
    that should be nonnegative comes out below tolerance)."""


class ConstraintInfeasibleError(ComputationError):
    """A requested rate lies outside the feasible band [r_min, r_max]."""


class DegenerateRateError(ComputationError):
    """R = 0 makes the destination outage constraint unsatisfiable: the
    outage probability is 0 for every jamming power."""


class AccuracyError(FasmonError):
    """An iterative numerical procedure failed to reach its tolerance.

    Carries the last two successive estimates so callers can judge how far
    the refinement got.
    """

    def __init__(self, message: str, last_estimate: float, previous_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate


class ConfigError(FasmonError):
    """A configuration file or override is invalid.

    ``key`` names the offending entry; ``line`` is the 1-based line number in
    the source file when known (0 for CLI overrides and JSON input).
    """

    def __init__(self, message: str, key: str = "", line: int = 0):
        super().__init__(message)
        self.key = key
        self.line = line


def check_real(name: str, value, rule: str, ok) -> float:
    """value as a float, if it is a finite real number, not a bool, for which
    ok(value) holds; rule says in words what ok requires."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int past the float range
            real = math.inf
        if math.isfinite(real) and ok(real):
            return real
    raise DomainError(f"{name} must be finite and {rule}, got {value!r}")


def check_count(name: str, value, low: int, high: float = math.inf) -> int:
    """value as an int, if it is an integral real number, not a bool, in
    [low, high]; numpy integers and integral floats such as 8.0 pass."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            count = int(value)
        except (OverflowError, ValueError):  # inf or nan
            count = None
        if count == value and low <= count <= high:
            return count
    raise DomainError(f"{name} must lie in [{low}, {high}] and be an integer, got {value!r}")


def check_nonneg_array(name: str, value) -> np.ndarray:
    """value as a float array, if every element is finite and nonnegative."""
    arr = np.asarray(value, dtype=float)
    bad = arr[~(np.isfinite(arr) & (arr >= 0.0))]
    if bad.size:
        raise DomainError(f"{name} must be finite and nonnegative, got {float(bad[0])!r}")
    return arr
