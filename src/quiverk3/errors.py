"""Exception and warning types shared across the package, and the input
checks that every layer shares: integer vectors, lengths, counts, tolerances."""

import math
import numbers


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


def _check_same_length(name: str, seq, other: str, size: int) -> None:
    # zip would truncate the longer side and answer for a shorter input
    if len(seq) != size:
        raise ValueError(f"{name} has length {len(seq)}, but {other} has length {size}")


def _check_tol(name: str, value) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
