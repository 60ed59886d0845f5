"""K3-side input data and exact Mukai-lattice arithmetic.

A curve configuration is the finite shadow of a polystable pure-dimension-one
sheaf F = F_1^{n_1} + ... + F_s^{n_s}: the intersection matrix of the stable
summands' supports, their Euler characteristics and multiplicities, and the
degrees of the base polarization on each support. Every computation in the
package factors through these integers; no sheaf is ever touched.

All arithmetic here is exact (int / Fraction). No floating point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (InvariantError, NonPrimitivityWarning, _as_int_vector, _as_rational,
                     _check_same_length)

IntVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class CurveConfig:
    """Intersection data of the stable summand supports.

    gram[i][j] = D_i . D_j, chi[i] = chi(F_i), mult[i] = dim V_i,
    h0deg[i] = H_0 . D_i. Validated on construction; immutable afterwards.
    """

    gram: tuple[IntVector, ...]
    chi: IntVector
    mult: IntVector
    h0deg: IntVector

    def __post_init__(self):
        gram = tuple(_as_int_vector(row) for row in self.gram)
        chi = _as_int_vector(self.chi)
        mult = _as_int_vector(self.mult)
        h0deg = _as_int_vector(self.h0deg)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "h0deg", h0deg)
        s = len(gram)
        if s == 0:
            raise InvariantError("size", "configuration needs at least one curve")
        if any(len(row) != s for row in gram):
            raise InvariantError("gram-shape", "gram matrix is not square")
        if not (len(chi) == len(mult) == len(h0deg) == s):
            raise InvariantError("size", "chi/mult/h0deg lengths must match gram")
        for i in range(s):
            for j in range(i + 1, s):
                if gram[i][j] != gram[j][i]:
                    raise InvariantError(
                        "gram-symmetric", f"gram not symmetric at ({i},{j})"
                    )
                if gram[i][j] < 0:
                    raise InvariantError(
                        "gram-offdiag",
                        f"distinct curves must meet non-negatively; gram[{i}][{j}] = {gram[i][j]}",
                    )
        for i in range(s):
            if gram[i][i] % 2 != 0 or gram[i][i] < -2:
                raise InvariantError(
                    "gram-diagonal",
                    f"diagonal entry gram[{i}][{i}] = {gram[i][i]} must be even and >= -2",
                )
        if any(n <= 0 for n in mult):
            raise InvariantError("mult-positive", "multiplicities must be positive")
        if any(d <= 0 for d in h0deg):
            raise InvariantError(
                "h0deg-positive", "H_0 degrees must be positive (H_0 is ample)"
            )
        for i in range(s):
            for j in range(i + 1, s):
                if chi[i] * h0deg[j] != chi[j] * h0deg[i]:
                    raise InvariantError(
                        "equal-slope",
                        f"equal-slope violated at ({i},{j}): "
                        f"chi_{i}*d_{j} = {chi[i] * h0deg[j]} != {chi[j] * h0deg[i]} = chi_{j}*d_{i}",
                    )
        if self.total_euler == 0:
            raise InvariantError(
                "total-euler", "total Euler characteristic sum(n_i chi_i) must be nonzero"
            )

    @property
    def s(self) -> int:
        return len(self.gram)

    @property
    def total_euler(self) -> int:
        """chi = sum n_i chi_i."""
        return sum(n * c for n, c in zip(self.mult, self.chi))

    @property
    def total_h0deg(self) -> int:
        """d_0 = H_0 . D = sum n_i d_i."""
        return sum(n * d for n, d in zip(self.mult, self.h0deg))

    def primitivity_gcd(self) -> int:
        """gcd(n_1, ..., n_s, chi); > 1 flags a possibly non-primitive v."""
        return math.gcd(*self.mult, self.total_euler)


@dataclass(frozen=True)
class MukaiVector:
    """(rank, c_1 coefficients over the D_i basis, Euler characteristic)."""

    rank: int
    div: IntVector
    euler: int

    def __post_init__(self):
        object.__setattr__(self, "div", _as_int_vector(self.div))


@dataclass(frozen=True)
class DegreeVector:
    """Projection of an ample class: a_i = H . D_i, all positive rationals, each
    taken by ``_as_rational`` and stored as a ``Fraction``."""

    a: RationalVector

    def __post_init__(self):
        a = tuple(Fraction(_as_rational(x, "a")) for x in self.a)
        object.__setattr__(self, "a", a)
        if any(x <= 0 for x in a):
            raise InvariantError(
                "degree-positive", "ample classes have positive degree on every curve"
            )


def degrees(cfg: CurveConfig) -> DegreeVector:
    """The base polarization H_0 as a degree vector."""
    return DegreeVector(cfg.h0deg)


def mukai_pairing(v: MukaiVector, w: MukaiVector, cfg: CurveConfig) -> int:
    """v.w = c_1(v).c_1(w) - r(v) chi(w) - chi(v) r(w), c_1 products via gram.

    Symmetric, bilinear, integral; chi(F,G) = -v.w holds by construction.
    """
    _check_same_length("v.div", v.div, "mult", cfg.s)
    _check_same_length("w.div", w.div, "mult", cfg.s)
    c1 = sum(
        v.div[i] * cfg.gram[i][j] * w.div[j]
        for i in range(cfg.s)
        for j in range(cfg.s)
    )
    return c1 - v.rank * w.euler - v.euler * w.rank


def mukai_square(v: MukaiVector, cfg: CurveConfig) -> int:
    return mukai_pairing(v, v, cfg)


def is_positive(v: MukaiVector, cfg: CurveConfig) -> bool:
    """Positivity in the Yoshioka sense; primitivity is not checked here."""
    if mukai_square(v, cfg) < -2:
        return False
    if v.rank > 0:
        return True
    if v.rank < 0:
        return False
    if any(x < 0 for x in v.div):
        return False
    if any(x > 0 for x in v.div):
        return v.euler != 0
    return v.euler > 0


def vector_of_beta(cfg: CurveConfig, beta: Sequence[int]) -> MukaiVector:
    """v(beta) = sum beta_i v_i = (0, beta, sum beta_i chi_i).

    Warns (NonPrimitivityWarning) when gcd(beta, euler) > 1, the reduced-data
    proxy for non-primitivity; divisor-class primitivity itself is invisible
    here.
    """
    beta = _as_int_vector(beta)
    _check_same_length("beta", beta, "mult", cfg.s)
    if any(b < 0 for b in beta):
        raise ValueError("beta must be non-negative")
    if all(b == 0 for b in beta):
        raise ValueError("beta must be nonzero")
    euler = sum(b * c for b, c in zip(beta, cfg.chi))
    g = math.gcd(*beta, euler)
    if g > 1:
        warnings.warn(
            f"v(beta) for beta={beta} has gcd {g}; vector may be non-primitive",
            NonPrimitivityWarning,
            stacklevel=2,
        )
    return MukaiVector(0, beta, euler)


def slope(v: MukaiVector, a: DegreeVector) -> Fraction:
    """mu_H = chi / (c_1 . H) for a rank-zero vector; degrees a of another
    length than c_1 are refused (``ValueError``)."""
    if v.rank != 0:
        raise ValueError("slope is defined for rank-zero vectors only")
    _check_same_length("a", a.a, "div", len(v.div))
    den = sum(Fraction(x) * y for x, y in zip(v.div, a.a))
    if den == 0:
        raise ZeroDivisionError("c_1(v) . H = 0")
    return Fraction(v.euler) / den
