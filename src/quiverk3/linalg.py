"""Small dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction (any nested rows of Fraction,
numpy object arrays included, are accepted as input); vectors are tuples of
Fraction. Sizes are desk scale (dims <= ~20). ``Span`` is the one exact
elimination: it keeps a row span in reduced row echelon form (RREF), each
row stored as a primitive integer vector with a positive pivot entry, so
that elimination builds no Fraction. ``basis()`` reads the RREF out as
Fractions, and ``rank``, ``nullspace`` and ``mat_inv`` take their answers
from it. ``cleared`` puts a rational vector on its line's integer points, and
``primitive`` divides an integer vector by its gcd.

Representation matrices are numpy arrays and multiply with ``@`` (see
``reps``); this module keeps what exact mode needs beyond that. The tuple
products ``mat_mul`` and ``mat_vec`` are not used by the package: the tests
use them as independent references, and the benchmark's tracer keeps them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    """Rows and columns; of nested rows, an empty one has no column count."""
    if getattr(m, "ndim", None) == 2:  # a 2-D array, empty or not
        return m.shape
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
    pivots = dict(zip(sorted(span.pivots), span.basis()))
    cols = range(shape(a)[1])
    return [
        tuple(-pivots[c][fc] if c in pivots else Fraction(int(c == fc)) for c in cols)
        for fc in cols
        if fc not in pivots
    ]


def cleared(vec: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, d * vec) for d the lcm of vec's entries' reduced denominators,
    as Python ints (so a numpy integer entry never meets a fixed-width
    product): vec is the integer point d * vec over d."""
    pairs = [(int(x.numerator), int(x.denominator)) for x in vec]
    d = lcm(*(b for _, b in pairs))
    return d, [a * (d // b) for a, b in pairs]


def primitive(v: Sequence[int]) -> Sequence[int]:
    """The integer vector v divided by the gcd of its entries, as a list;
    v itself when that gcd is 1 or v is zero."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


class Span:
    """Row span in RREF, the package's one exact elimination; ``rows``
    are absorbed one by one with ``add``.

    Each of ``rows`` is an RREF row scaled to a primitive integer vector
    with a positive pivot entry; ``basis()`` gives the RREF in Fractions.
    ``reduce`` clears an input's denominators once, eliminates fraction-free
    with ``c*v - f*row`` (c and f divided by their gcd), and divides out
    the gcd of the residue once, at the end (Bareiss 1968): each step
    scales the running residue by a positive integer, so the primitive
    residue and its signs are those of a per-step normalization. ``contains``
    skips that last gcd. ``add`` returns True exactly
    when the dimension grew, and clears the new pivot column from the
    other rows. Used for Burnside closures, graded subspaces, ``rank``,
    ``nullspace`` and ``mat_inv``.

    A span does not change when one of its vectors is scaled by a nonzero
    number, and neither do these rows: each is the one primitive integer
    vector with a positive pivot on its line. So callers may hand in any
    nonzero multiple of a vector, an integer one in particular (``reps``
    runs its exact closures and checks on arrows and seeds cleared of
    their denominators), and get the same rows, pivots and verdicts as for
    the vector itself. ``echelon`` takes rows that are already such an
    RREF without reducing them again.
    """

    def __init__(self, rows: Iterable[Sequence[Fraction]] = ()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for r in rows:
            self.add(r)

    @classmethod
    def echelon(cls, rows: Iterable[Sequence[int]]) -> "Span":
        """The span of rows that are the ``rows`` of some Span, in any
        order, taken over as they are."""
        span = cls()
        span.rows = [list(r) for r in rows]
        span.pivots = [next(i for i, x in enumerate(r) if x) for r in span.rows]
        return span

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _residue(self, vec: Sequence[Fraction]) -> list[int]:
        """A positive integer multiple of vec's residue modulo the span."""
        v = list(vec)
        if not all(type(x) is int for x in v):
            v = cleared(v)[1]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                g = gcd(row[p], f)
                v = [row[p] // g * x - f // g * y for x, y in zip(v, row)]
        return v

    def reduce(self, vec: Sequence[Fraction]) -> list[int]:
        """The primitive integer multiple of vec's residue modulo the span
        with the residue's signs: zero exactly when vec lies in the span."""
        return primitive(self._residue(vec))

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return not any(self._residue(vec))

    def add(self, vec: Sequence[Fraction]) -> bool:
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        v = [-x for x in v] if v[p] < 0 else v
        c = v[p]
        for row in self.rows:
            f = row[p]
            if f:
                g = gcd(c, f)
                row[:] = primitive([c // g * x - f // g * y for x, y in zip(row, v)])
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def basis(self) -> list[Vector]:
        """The rows of the RREF as Fractions, by pivot column."""
        return [
            tuple(Fraction(x, row[p]) for x in row)
            for p, row in sorted(zip(self.pivots, self.rows))
        ]
