"""Exception and warning types shared across the package, and the input checks
every layer shares: integers, rationals, stability parameters, lengths, counts."""

import math
import numbers
from fractions import Fraction

from .linalg import cleared


class SchemaError(ValueError):
    """Input document is structurally malformed (CLI exit code 2)."""


class InvariantError(ValueError):
    """Input data violates a curve-configuration invariant (CLI exit code 3).

    ``invariant`` names the violated condition, e.g. ``"equal-slope"``.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(message)
        self.invariant = invariant


class MathAssertionError(AssertionError):
    """An internal mathematical identity failed (CLI exit code 4).

    Raised only when an identity that holds by construction is violated,
    which always indicates an implementation bug, never bad input.
    """


class NonPrimitivityWarning(UserWarning):
    """gcd proxy suggests a Mukai vector may be non-primitive."""


def _check_count(name: str, value) -> None:
    # numpy's generators refuse negative seeds with a bare ValueError, and a
    # negative budget would end a search before it starts
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


def _as_int_vector(entries) -> tuple[int, ...]:
    """The entries as Python ints, else ``InvariantError("integrality")``."""
    out = tuple(entries)
    if all(type(e) is int for e in out):
        return out
    for e in out:
        if isinstance(e, bool) or not isinstance(e, numbers.Integral):
            raise InvariantError("integrality", f"expected integer entry, got {e!r}")
    return tuple(map(int, out))


def _as_rational(e, what: str):
    """e as an int or a Fraction (a numpy integer as a Python int, a sympy Rational as
    a Fraction); a bool, float, string or None raises ``InvariantError("rationality")``."""
    if type(e) is int or type(e) is Fraction:
        return e
    if isinstance(e, numbers.Rational) and not isinstance(e, bool):
        if isinstance(e, numbers.Integral):
            return int(e)
        return Fraction(int(e.numerator), int(e.denominator))
    raise InvariantError("rationality", f"{what} must have rational entries, got {e!r}")


def _stability_parameter(theta, n) -> tuple[int, list[int]]:
    """theta (``_as_rational``, of n's length, theta . n = 0) as (den, den * theta)."""
    theta = [_as_rational(t, "theta") for t in theta]
    _check_same_length("theta", theta, "n", len(n))
    den, itheta = cleared(theta)
    if sum(t * x for t, x in zip(itheta, n)):
        raise ValueError("theta . n != 0: not a valid stability parameter")
    return den, itheta


def _check_same_length(name: str, seq, other: str, size: int) -> None:
    # zip would truncate the longer side and answer for a shorter input
    if len(seq) != size:
        raise ValueError(f"{name} has length {len(seq)}, but {other} has length {size}")


def _check_tol(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
