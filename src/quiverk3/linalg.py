"""Small dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction (any nested rows of Fraction,
numpy object arrays included, are accepted as input); vectors are tuples of
Fraction. Sizes are desk scale (dims <= ~20). ``Span`` is the one exact
elimination: it keeps a row span in reduced row echelon form (RREF), and
``rank``, ``nullspace`` and ``mat_inv`` read their answers off that RREF.

Representation matrices are numpy arrays and multiply with ``@`` (see
``reps``); this module keeps what exact mode needs beyond that, and the
tuple ``mat_mul`` that the tests use as an independent reference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if len(m) else 0)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if len(m) else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_inv(a: Matrix) -> Matrix:
    """The right half of the RREF of [a | I]; raises ZeroDivisionError on a
    singular matrix, which is exactly when a pivot falls in the right half."""
    n = len(a)
    span = Span(tuple(row) + e for row, e in zip(a, identity(n)))
    if any(p >= n for p in span.pivots):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in span.basis())


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return Span(rows).dim


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, read off the RREF of a: one vector per
    non-pivot column, in column order."""
    span = Span(a)
    pivots = dict(zip(span.pivots, span.rows))
    cols = range(shape(a)[1])
    return [
        tuple(-pivots[c][fc] if c in pivots else Fraction(int(c == fc)) for c in cols)
        for fc in cols
        if fc not in pivots
    ]


class Span:
    """Row span in RREF, the package's one exact elimination; ``rows``
    are absorbed one by one with ``add``.

    ``add`` reduces a vector against the basis and, if it is independent,
    clears its pivot column from the other rows; it returns True exactly
    when the dimension grew. Used for Burnside closures, graded subspaces,
    ``rank``, ``nullspace`` and ``mat_inv``.
    """

    def __init__(self, rows: Iterable[Sequence[Fraction]] = ()):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        for r in rows:
            self.add(r)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Fraction]) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        inv_p = Fraction(1) / v[p]
        v = [x * inv_p for x in v]
        for row in self.rows:
            if row[p] != 0:
                f = row[p]
                row[:] = [x - f * y for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def basis(self) -> list[Vector]:
        """The rows of the RREF, by pivot column."""
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return [tuple(self.rows[i]) for i in order]
