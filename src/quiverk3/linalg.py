"""Small dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction (any nested rows of Fraction,
numpy object arrays included, are accepted as input); vectors are tuples of
Fraction. Everything here is immutable and pure. Sizes are desk scale
(dims <= ~20), so plain Gaussian elimination is more than enough.

Representation matrices are numpy arrays and multiply with ``@`` (see
``reps``). This module keeps what exact mode needs beyond that: incremental
row spans (``Span``, ``rank``), ``nullspace``, ``mat_vec`` and ``mat_inv``,
and the tuple ``mat_mul`` that the tests use as an independent reference.
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
    """Inverse by Gauss-Jordan; raises ZeroDivisionError on a singular matrix."""
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    span = Span()
    for r in rows:
        span.add(tuple(r))
    return span.dim


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel, via reduced row echelon form."""
    nrows, ncols = shape(a)
    m = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv_p = Fraction(1) / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


class Span:
    """Incremental row span in reduced echelon form.

    ``add`` reduces a vector against the current basis and absorbs it if it
    is independent, returning True exactly when the dimension grew. Used for
    Burnside closures and graded subspace accumulation.
    """

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

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
        order = sorted(range(len(self.rows)), key=lambda i: self.pivots[i])
        return [tuple(self.rows[i]) for i in order]
