"""Wall-and-chamber structures on both sides of the correspondence.

Quiver side: walls W_alpha = {theta . alpha = 0} inside n-perp, one per root
alpha in R_+(n), with alpha and n - alpha (and any root cutting the same
hyperplane) merged. Ample side: the relevant walls through the base
polarization, written on the slice {sum n_i a_i = d_0} of the degree cone.
The affine map a -> a - d carries one arrangement onto the other; this module
enumerates both, enumerates chambers exactly, and checks the correspondence
on exact rational sample points. ``LocalModel`` holds all of these, with the
decompositions and simple-existence verdicts, for one configuration.

Everything is exact, and nothing is floating point. The chamber path runs in
integers over common denominators: the cone cuts, the interior points, the
sign certificates, the characters and the per-chamber probes. Each cell's
cone carries integer generators that hold their values on every wall, with
bitmasks of the signs of those values, so a cell is split only at the walls
that cut it, and a wall that does not cut it is read off the masks. A new
interior point is Fourier-Motzkin's, from integer constraints, as (m, ipt)
for ipt / m, m the lcm of its reduced denominators; past FM's row bound it
is the sum of the side's extreme rays. The FM solves of one chamber
enumeration share one bounded row table, which changes no point and no
blowup. A ``ChamberSet`` keeps its
points, and a wall slice its vertices, in integers over one denominator, and
the correspondence's samples, probes and genericity test run on them. A
``Fraction`` is made only where a report spells a value (representatives,
characters, a probe's a and theta), or where a public function reads
rational input (``errors._as_rational``: ``theta_dot``, ``restrict_weights_to_type``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import mul
from typing import Sequence

from .errors import (InvariantError, MathAssertionError, _as_rational, _check_count,
                     _check_same_length, _stability_parameter)
from .lattice import CurveConfig, DegreeVector, RationalVector
from .linalg import cleared, primitive
from .quiver import (
    MAX_ROOT_BOX,
    DimVector,
    Quiver,
    SimpleExistence,
    bounded_roots,
    check_bound,
    checked_box,
    Decomposition,
    quiver_from_config,
    _decompositions,
    _roots_below,
    _roots_upto,
    _simple_table,
)

IntVector = tuple[int, ...]


def theta_dot(theta: Sequence, beta: Sequence) -> Fraction:
    """theta . beta as a ``Fraction``, theta's entries taken by ``_as_rational``."""
    _check_same_length("theta", theta, "beta", len(beta))
    return sum((_as_rational(t, "theta") * b for t, b in zip(theta, beta)), Fraction(0))


def _sign_insensitive_key(coeffs: Sequence[int]) -> IntVector | None:
    """gcd-reduced representative with first nonzero entry positive;
    None for the zero functional."""
    g = math.gcd(*(abs(c) for c in coeffs))
    if g == 0:
        return None
    reduced = tuple(c // g for c in coeffs)
    first = next(x for x in reduced if x != 0)
    return reduced if first > 0 else tuple(-x for x in reduced)


# ---------------------------------------------------------------------------
# quiver-side walls


@dataclass(frozen=True)
class QuiverWall:
    """A hyperplane {theta . normal = 0} of n-perp.

    ``normal`` is the canonical defining root, ``sources`` all roots in
    R_+(n) cutting the same hyperplane.
    """

    normal: DimVector
    sources: tuple[DimVector, ...]


def _merge_by_hyperplane(
    roots: list[DimVector], n: DimVector, form
) -> list[tuple[DimVector, tuple[DimVector, ...]]]:
    """(canonical normal, sorted sources) per hyperplane {form(alpha) . x = 0}
    cut by the roots, in normal order; a zero form cuts no proper hyperplane."""
    rootset = set(roots)
    groups: dict[IntVector, list[DimVector]] = {}
    for alpha in roots:
        key = _sign_insensitive_key(form(alpha))
        if key is not None:
            groups.setdefault(key, []).append(alpha)
    merged = []
    for group in groups.values():
        cands = []
        for alpha in group:
            comp = tuple(x - y for x, y in zip(n, alpha))
            cands.append(min(alpha, comp) if comp in rootset else alpha)
        merged.append((min(cands), tuple(sorted(group))))
    merged.sort()
    return merged


def quiver_walls(q: Quiver, n: DimVector) -> list[QuiverWall]:
    """One wall per distinct proper hyperplane of n-perp cut by R_+(n)."""
    n = check_bound(q, n)
    return list(_nperp_walls(n, _roots_below(q, n)))


def _nperp_walls(n: DimVector, roots: Sequence[DimVector]) -> tuple[QuiverWall, ...]:
    """``quiver_walls`` of n, given R_+(n)."""
    basis = nperp_basis(n)

    def form(alpha):
        return tuple(sum(x * y for x, y in zip(b, alpha)) for b in basis)

    return tuple(QuiverWall(*wall) for wall in _merge_by_hyperplane(roots, n, form))


@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    violators: tuple[DimVector, ...]


def is_generic(theta: Sequence, q: Quiver, n: DimVector) -> GenericityVerdict:
    """The stability parameter theta (``_stability_parameter``) is n-generic iff
    theta . alpha != 0 for every alpha in R_+(n)."""
    n = check_bound(q, n)
    return _genericity(theta, n, _roots_below(q, n))


def _genericity(theta: Sequence, n: DimVector, roots: Sequence[DimVector]) -> GenericityVerdict:
    """``is_generic`` at n, given R_+(n): theta cleared to integers once,
    then one integer dot per root."""
    _, itheta = _stability_parameter(theta, n)
    violators = tuple(alpha for alpha in roots if not sum(map(mul, itheta, alpha)))
    return GenericityVerdict(not violators, violators)


def chamber_signature(theta: Sequence, walls: Sequence[QuiverWall]) -> tuple[int, ...]:
    """Sign of theta against each canonical wall normal; 0 marks wall points.
    theta's entries are taken by ``_as_rational`` once, also where there is
    no wall; a normal of another length than theta is refused (``theta_dot``)."""
    theta = [_as_rational(t, "theta") for t in theta]
    return tuple((v > 0) - (v < 0) for v in (theta_dot(theta, w.normal) for w in walls))


# ---------------------------------------------------------------------------
# exact feasibility (Fourier-Motzkin) and chamber enumeration


def nperp_basis(n: DimVector) -> list[IntVector]:
    """Integer basis of {x : n . x = 0}; n must have a nonzero entry."""
    if not any(n):
        raise ValueError(f"n must have a nonzero entry, got {tuple(n)}")
    j0 = next(i for i, x in enumerate(n) if x != 0)
    basis = []
    for i in range(len(n)):
        if i == j0:
            continue
        b = [0] * len(n)
        b[i] = n[j0]
        b[j0] = -n[i]
        basis.append(tuple(b))
    return basis


Constraint = tuple[tuple[int, ...], int]  # coeffs . x >= rhs, integral


def _dot(f: Sequence, v: Sequence):
    """f . v over the shorter of the two."""
    return sum(map(mul, f, v))


class _FMBlowup(Exception):
    """Fourier-Motzkin intermediate system exceeded its size budget."""


# Fourier-Motzkin's size budget in chamber enumeration: no level of a solve
# may hold more distinct rows, and no row table more entries between solves
_FM_LIMIT = 4000

# ids of the zero rows 0 >= rhs: true for rhs <= 0, infeasible for rhs > 0
_TRIVIAL, _EMPTY = -1, -2


class _RowTable:
    """Fourier-Motzkin rows interned once, for the solves of one enumeration.

    Each gcd-normalized row (coeffs, rhs) gets a small integer id, and the
    lists indexed by id hold: ``rows`` the row, ``side`` the sign of its
    last coefficient (+1 a lower bound on the last variable, -1 an upper
    bound, 0 neither), ``down`` for a side-0 row the id of the row without
    that coefficient, and ``after`` for a lower bound a map from upper-bound
    ids to the id of the row that eliminating the last variable from the
    pair gives. A row's length is its level, so one table serves every
    level. No entry changes once made.
    """

    __slots__ = ("ids", "rows", "side", "down", "after", "npairs")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.ids: dict[Constraint, int] = {}
        self.rows: list[Constraint] = []
        self.side: list[int] = []
        self.down: list[int | None] = []
        self.after: list[dict[int, int]] = []
        self.npairs = 0

    def __len__(self) -> int:
        """Rows plus eliminated pairs: the entries that the bound counts."""
        return len(self.rows) + self.npairs

    def intern(self, coeffs: tuple[int, ...], rhs: int) -> int:
        """The id of coeffs . x >= rhs, gcd-normalized; ``_TRIVIAL`` or
        ``_EMPTY`` for a zero row."""
        key = (coeffs, rhs)
        i = self.ids.get(key)
        if i is not None:
            return i
        if not any(coeffs):
            return _EMPTY if rhs > 0 else _TRIVIAL
        g = math.gcd(*coeffs, rhs)
        if g != 1:
            key = (coeffs, rhs) = (tuple([x // g for x in coeffs]), rhs // g)
            i = self.ids.get(key)
            if i is not None:
                return i
        a = coeffs[-1]
        # a nonzero row keeps a nonzero entry when a zero last entry is cut
        down = None if a else self.intern(coeffs[:-1], rhs)
        i = self.ids[key] = len(self.rows)
        self.rows.append(key)
        self.side.append((a > 0) - (a < 0))
        self.down.append(down)
        self.after.append({})
        return i

    def eliminate(self, lower: int, uppers: list[int]) -> dict[int, int]:
        """``after[lower]``, filled in for every id of ``uppers``."""
        done = self.after[lower]
        cl, bl = self.rows[lower]
        al = cl[-1]
        for upper in uppers:
            if upper not in done:
                cu, bu = self.rows[upper]
                au = -cu[-1]
                coeffs = tuple([au * x + al * y for x, y in zip(cl[:-1], cu)])
                done[upper] = self.intern(coeffs, au * bl + al * bu)
                self.npairs += 1
        return done


def _fm_core(
    cons: list[Constraint], nvars: int, limit: int, table: _RowTable
) -> tuple[int, IntVector] | None:
    """Fourier-Motzkin over integer constraints, with back-substitution in
    integers: a point ipt / m as (m, ipt), m the lcm of its reduced
    denominators, or None when there is none.

    Each coordinate is the midpoint of its fiber interval over the point of
    the eliminated system, lo + 1 or hi - 1 on a half-line, and 0 on the
    whole line. ``limit`` caps the deduplicated system at every level, as
    elimination grows doubly exponentially with the variable count;
    exceeding it raises ``_FMBlowup``.

    The rows live in ``table``, which the solves of one chamber enumeration
    share so that each row is normalized, and each pair of rows eliminated,
    once. A level is the set of its rows' ids, and the point depends only on
    the set of distinct normalized rows at each level, as the blowup depends
    only on its size; so a shared table gives every solve the point and the
    blowup of a fresh one. A table that holds more than ``_FM_LIMIT``
    entries after a solve is cleared, which bounds its memory.
    """
    try:
        # rows seen before cost one dict lookup each; a new row takes ``intern``
        keys = [(tuple(c), b) for c, b in cons]
        ids = set(map(table.ids.get, keys))
        if None in ids:
            ids = {table.intern(*key) for key in keys}
        return _fm_level(table, ids, nvars, limit)
    finally:
        if len(table) > _FM_LIMIT:
            table.clear()


def _fm_level(
    table: _RowTable, ids: set[int], nvars: int, limit: int
) -> tuple[int, IntVector] | None:
    """``_fm_core`` on the rows of ``ids``, a set that it changes."""
    if _EMPTY in ids:
        return None
    ids.discard(_TRIVIAL)
    if len(ids) > limit:
        raise _FMBlowup
    if nvars == 0:
        return 1, ()
    side, down, after = table.side, table.down, table.after
    lowers, uppers, sub = [], [], set()
    for i in ids:
        s = side[i]
        if s > 0:
            lowers.append(i)
        elif s < 0:
            uppers.append(i)
        else:
            sub.add(down[i])
    for lower in lowers:
        # one C-level pass when every pair was eliminated before
        done = after[lower]
        try:
            sub.update(map(done.__getitem__, uppers))
        except KeyError:
            sub.update(map(table.eliminate(lower, uppers).__getitem__, uppers))
    found = _fm_level(table, sub, nvars - 1, limit)
    if found is None:
        return None
    m, isub = found
    rows = table.rows
    # each bound is num / den with den > 0, compared by cross-multiplication
    lo = hi = None
    for i in lowers:
        cl, bl = rows[i]
        num, den = bl * m - sum(map(mul, cl, isub)), cl[-1] * m
        if lo is None or num * lo[1] > lo[0] * den:
            lo = num, den
    for i in uppers:
        cu, bu = rows[i]
        num, den = sum(map(mul, cu, isub)) - bu * m, -cu[-1] * m
        if hi is None or num * hi[1] < hi[0] * den:
            hi = num, den
    if lo is not None and hi is not None:
        num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    elif lo is not None:
        num, den = lo[0] + lo[1], lo[1]
    elif hi is not None:
        num, den = hi[0] - hi[1], hi[1]
    else:
        return m, isub + (0,)
    g = math.gcd(num, den)
    num, den = num // g, den // g
    lcm = m * den // math.gcd(m, den)
    if lcm != m:
        scale = lcm // m
        isub = tuple([x * scale for x in isub])
    return lcm, isub + (num * (lcm // den),)


def lp_feasible_point(cons: list[Constraint], nvars: int) -> tuple[int, IntVector] | None:
    """Exact phase-1 simplex for {x free : coeffs . x >= rhs} over integer
    constraints, with ``_fm_core``'s contract, (m, ipt) for ipt / m or None;
    not called by the package; kept for the tests and the tracer.

    Writes x = x+ - x- and subtracts slacks, then minimizes the sum of
    artificials with Bland's rule, which terminates. The artificials start
    basic and never enter, so their columns are not kept. The tableau is
    fraction-free (Edmonds 1967, Bareiss 1968): each entry, right-hand sides
    included, is d times its rational value, d > 0 the last pivot (1 at the
    start). A pivot p > 0 becomes the new d; its row stays, and each other
    row becomes (p * row - f * pivot_row) // d, f its entry in the pivot
    column. That division is exact: by Cramer's rule each new entry is, up
    to sign, a minor of the starting integer tableau, artificial columns
    included.

    Scaling all rows by d > 0 changes none of Bland's choices: a column
    enters when its sum over the artificial rows is positive, a sign that d
    keeps, and d cancels in the ratio test's rhs / t. So the bases and
    points are those of the rational tableau.
    """
    m = len(cons)
    nstruct = 2 * nvars + m  # x+, x-, slacks; then each row's right-hand side
    rows: list[list[int]] = []
    for i, (coeffs, b) in enumerate(cons):
        row = [c if b >= 0 else -c for c in coeffs]
        row += [-c for c in row] + [0] * m + [abs(b)]
        row[2 * nvars + i] = -1 if b >= 0 else 1
        rows.append(row)
    basis = list(range(nstruct, nstruct + m))  # artificial i is basic in row i
    d = 1
    while True:
        art_rows = [row for row, b in zip(rows, basis) if b >= nstruct]
        costs = zip(range(nstruct), map(sum, zip(*art_rows)))  # minus the reduced costs, times d
        entering = next((j for j, c in costs if c > 0), None)
        if entering is None:
            if any(row[-1] for row in art_rows):
                return None
            break
        # Bland's ratio test: the least rhs / t, then the least basic index
        pr = None
        for i, row in enumerate(rows):
            t = row[entering]
            if t > 0 and (pr is None or (row[-1] * p, basis[i]) < (rows[pr][-1] * t, basis[pr])):
                pr, p = i, t
        if pr is None:
            # the phase-1 objective is bounded below by zero, so a positive
            # reduced cost always admits a blocking row
            raise MathAssertionError("phase-1 simplex lost its lower bound")
        pivot = rows[pr]
        for i, row in enumerate(rows):
            if i != pr:
                f = row[entering]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot)]
        basis[pr], d = entering, p
    # x_j = rhs / d if x+_j is basic, -rhs / d if x-_j is: their columns are
    # opposite, so a basis never holds both
    coords = [0] * nvars
    for row, b in zip(rows, basis):
        if b < 2 * nvars:
            coords[b % nvars] = row[-1] if b < nvars else -row[-1]
    den, *ipt = primitive([d, *coords])
    return den, tuple(ipt)


@dataclass(frozen=True)
class ChamberSet:
    """Chambers of the quiver wall arrangement restricted to n-perp; each
    representative itheta / m as its point (m, itheta), m > 0 and minimal."""

    count: int
    points: tuple[tuple[int, IntVector], ...]
    signatures: tuple[tuple[int, ...], ...]
    walls: tuple[QuiverWall, ...]

    @cached_property
    def representatives(self) -> tuple[RationalVector, ...]:
        return tuple(tuple(Fraction(x, m) for x in itheta) for m, itheta in self.points)


# A closed polyhedral cone, exactly: integer lineality lines and primitive
# extreme rays. A generator is (vec, pos, neg). vec is one integer vector: the
# generator's values on the W wall functionals, then its d coordinates, so
# that wall k's value is vec[k]; one integer combination of two vectors makes
# both parts of the new generator, and the gcd of vec is that of its
# coordinates, the values being integer forms in them. pos and neg are the
# bitmasks of the walls where the value is positive and negative.
Generator = tuple[Sequence[int], int, int]
Generators = tuple[list[Generator], list[Generator]]


def _generator(vec: Sequence[int], bits: list[int]) -> Generator:
    """vec with its sign masks; ``bits[k]`` is wall k's bit, 1 << k, and
    the masks read the first ``len(bits)`` entries of vec, the wall values."""
    return (vec, sum(compress(bits, map((0).__lt__, vec))),
            sum(compress(bits, map((0).__gt__, vec))))


def _cut(
    k: int, bits: list[int], lines: list[Generator], rays: list[Generator]
) -> tuple[Generators, Generators]:
    """Generators of the cone's halves {f >= 0} and {f <= 0}, f wall k's
    functional, which must cut the cone: a line has a nonzero value on f,
    or one ray a positive and another a negative one.

    This is one double-description step (Fukuda & Prodon 1996). The cone
    lies on one side of every wall below k, and every line vanishes on
    those walls; f's values are read at index k, and its bit is
    ``bits[k]``.
    """
    for i, (line, lpos, lneg) in enumerate(lines):
        a = line[k]
        if a:
            # a line crossing f: it becomes each half's new ray, and the
            # other generators are projected along it onto ker f
            l0 = (line, lpos, lneg) if a > 0 else (tuple([-x for x in line]), lneg, lpos)
            a = abs(a)

            def along(g):  # a * g - (f . g) * l0, with f . l0 = a > 0
                b = g[0][k]
                return _generator(primitive([a * x - b * y for x, y in zip(g[0], l0[0])]),
                                  bits) if b else g

            kept = [along(g) for j, g in enumerate(lines) if j != i]
            proj = [along(r) for r in rays]
            return ((kept, proj + [l0]),
                    (kept, proj + [(tuple([-x for x in l0[0]]), l0[2], l0[1])]))
    bit = bits[k]
    pos, neg, zero = [], [], []
    for ray in rays:
        if ray[1] & bit:
            pos.append(ray)
        elif ray[2] & bit:
            neg.append(ray)
        else:
            zero.append(ray)
    # adjacent (+, -) pairs: no third ray vanishes on every wall below k that
    # vanishes on both
    low = bit - 1
    zeros = [low & ~(p | q) for _, p, q in rays]
    crossing = []
    for rp, pp, qp in pos:
        zp, vp = low & ~(pp | qp), rp[k]
        for rn, pn, qn in neg:
            common = zp & ~(pn | qn)
            if sum(common & z == common for z in zeros) == 2:
                vn = rn[k]
                ray = primitive([vp * x - vn * y for x, y in zip(rn, rp)])
                # a positive combination of the pair: its sign is theirs where
                # they agree, and is read from its value only where they have
                # opposite signs, at walls other than f
                cp, cq = (pp | pn) & ~(qp | qn), (qp | qn) & ~(pp | pn)
                split = (pp & qn | qp & pn) ^ bit
                while split:
                    b = split & -split
                    split ^= b
                    v = ray[b.bit_length() - 1]
                    if v > 0:
                        cp |= b
                    elif v < 0:
                        cq |= b
                crossing.append((ray, cp, cq))
    shared = zero + crossing
    return (lines, pos + shared), (lines, neg + shared)


# the most chambers that an enumeration may meet, by the Buck-Zaslavsky bound:
# m central hyperplanes in dimension d cut at most 2 sum_(i<d) C(m-1, i)
# chambers (Buck 1943, Amer. Math. Monthly 50; Zaslavsky 1975, Mem. AMS 154).
# Past it enumeration raises before the first split instead of running for
# hours: the 7-curve clique, 63 walls in dimension 6, has a bound of 14137242.
# The largest bound of any test, ladder or benchmark input is 9984, and 2^17
# also keeps the 65-wall s = 5 draw (87490)
MAX_CHAMBERS = 1 << 17


def enumerate_chambers(q: Quiver, n: DimVector) -> ChamberSet:
    """Exact enumeration of the full-dimensional sign cells of the wall
    arrangement in n-perp, with one interior rational point per cell.

    Each cell carries the exact integer generators of its closed cone, each
    with its values on every wall functional and the bitmasks of their
    signs. A side of a wall is nonempty iff some generator is strictly on
    that side: the cell is open and homogeneous, so it meets {sgn f > 0}
    iff its closure does. So the masks decide every wall. A cell is split,
    by one double-description step (``_cut``), only at the next wall that
    cuts it, and takes its sign on each wall before that one from the
    masks: one ``_cut`` per split. The arrangement is central: when the
    first point lies on the first wall, the minus side's cells are the plus
    side's negated, in reverse order, and count // 2 cuts are made in all;
    else count - 1 (always at dim n-perp = 1). Fourier-Motzkin only
    produces an interior point, for a side proven nonempty whose parent's
    point fails, and past its row budget the side's ray sum does, strictly
    inside its full-dimensional cone. A solve that finds no point on such a
    side is a broken identity and raises ``MathAssertionError``.

    The chambers are listed in lexicographic order of their signatures,
    +1 before -1: the cells are walked depth first, the + side first.

    A cell's point is kept as it is found: (m, ipt), an integer vector ipt
    over one denominator m, in the coordinates of ``nperp_basis``; the
    sign certificate is taken on ipt. The chamber's point is theta =
    (sum_k ipt[k] * basis[k]) / m, over n's coordinates, in lowest terms.

    Past ``MAX_CHAMBERS`` on the Buck-Zaslavsky bound of the walls it raises
    ``InvariantError("chamber-count")`` before the first split.

    Chamber facts are decided here: each representative is certified to
    realize its own sign cell, so ``signatures`` are zero-free and pairwise
    distinct. n-genericity is left to ``is_generic``; it fails identically
    when some root is proportional to n, and no other root vanishes at a
    representative.

    A one-vertex n has no wall structure: it raises ``ValueError``, where
    ``LocalModel.chambers`` is None.
    """
    n = check_bound(q, n)
    if len(n) == 1:
        raise ValueError("no wall structure; non-primitive one-vertex case")
    return _chambers(n, _nperp_walls(n, _roots_below(q, n)))


def _chambers(n: DimVector, walls: Sequence[QuiverWall]) -> ChamberSet:
    """``enumerate_chambers`` of n, of two or more vertices, given its quiver
    walls."""
    basis = nperp_basis(n)
    d = len(basis)
    bound = 2 * sum(math.comb(len(walls) - 1, i) for i in range(d)) if walls else 1
    if bound > MAX_CHAMBERS:
        raise InvariantError(
            "chamber-count",
            f"{len(walls)} walls in dimension {d} may cut up to {bound} chambers, "
            f"more than {MAX_CHAMBERS}",
        )
    functionals = [
        tuple(sum(b[i] * w.normal[i] for i in range(len(n))) for b in basis)
        for w in walls
    ]
    # each functional as the constraint row of either side: f . x >= 1 for
    # sign +1, -f . x >= 1 for sign -1
    rows = [(g, tuple([-x for x in g])) for g in functionals]
    table = _RowTable()

    def solve(signs, rays):
        # the cell's system, rebuilt in processing order. Past FM's budget the
        # point is the sum of the side's rays: each is on the side's sign up to
        # the cut, the lines vanish there, and the open side is nonempty
        ext = [(pair[s < 0], 1) for s, pair in zip(signs, rows)]
        try:
            found = _fm_core(ext, d, _FM_LIMIT, table)
        except _FMBlowup:
            return 1, tuple(primitive([sum(x) for x in zip(*(v[nwalls:] for v, _, _ in rays))]))
        if found is None:
            raise MathAssertionError(
                f"no interior point found for sign cell {signs}, "
                "which its extreme rays prove nonempty"
            )
        return found

    # a cell on the stack: (signs so far, a strictly interior point ipt / m
    # as m and ipt, lines, rays); a finished one in cells: (signs, m, ipt).
    # By homogeneity a point with all processed functionals strictly of the
    # right sign certifies the open cell, so it is reused until it fails.
    # The walk is depth first, the + side first, so the chambers come out in
    # lexicographic order of their signatures, +1 before -1.
    # Every step (point, ray sum, cut, reuse test) is odd under x -> -x, so
    # when the root point lies on the first wall the minus side's cells are
    # the plus side's negated, in reverse order: they are mirrored, not walked.
    nwalls, bits = len(functionals), [1 << k for k in range(len(functionals))]
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    axes = [_generator(tuple(f[i] for f in functionals) + unit[i], bits) for i in range(d)]
    cells, stack, mirror = [], [((), 1, unit[0], axes, [])], False
    while stack:
        signs, m, ipt, lines, rays = stack.pop()
        pos = neg = moving = 0
        for _, p, q in rays:
            pos |= p
            neg |= q
        for _, p, q in lines:
            moving |= p | q
        # the lowest wall that cuts the closed cone; every wall below it
        # leaves the cone, and so the open cell, on the side of its rays
        cut = pos & neg | moving
        k = (cut & -cut).bit_length() - 1 if cut else nwalls
        signs += tuple([1 if pos >> i & 1 else -1 for i in range(len(signs), k)])
        if k == nwalls:
            cells.append((signs, m, ipt))
            continue
        val = sum(map(mul, functionals[k], ipt))
        (plines, prays), (nlines, nrays) = _cut(k, bits, lines, rays)
        plus, minus = signs + (1,), signs + (-1,)
        pm, pipt = (m, ipt) if val > 0 else solve(plus, prays)
        if signs or val:
            nm, nipt = (m, ipt) if val < 0 else solve(minus, nrays)
            stack.append((minus, nm, nipt, nlines, nrays))
        else:
            mirror = True
        stack.append((plus, pm, pipt, plines, prays))
    if mirror:
        cells += [(tuple([-s for s in signs]), m, tuple([-x for x in ipt]))
                  for signs, m, ipt in reversed(cells)]
    columns = list(zip(*basis))
    points = []
    for signs, m, ipt in cells:
        den, *itheta = primitive([m, *(_dot(col, ipt) for col in columns)])
        # f . ipt == m * (theta . normal) exactly: the signature test on theta
        if any(sgn * sum(map(mul, f, ipt)) <= 0 for sgn, f in zip(signs, functionals)):
            raise MathAssertionError(
                f"chamber point {itheta} / {den} does not realize its sign cell {signs}")
        points.append((den, tuple(itheta)))
    return ChamberSet(len(cells), tuple(points), tuple(cell[0] for cell in cells), tuple(walls))


# ---------------------------------------------------------------------------
# ample-side walls


@dataclass(frozen=True)
class AmpleWall:
    """A relevant wall through H_0 on the slice, defined by
    chi * (sum beta_i a_i) - d_0 * chi_beta = 0, written with the slice
    constraint folded in as the homogeneous form coeffs . a = 0."""

    beta: DimVector
    chi_beta: int
    coeffs: IntVector  # chi * beta - chi_beta * n
    sources: tuple[DimVector, ...]


def ample_walls_through_h0(cfg: CurveConfig) -> list[AmpleWall]:
    """One wall per distinct slice hyperplane, indexed by R_+(n) with beta
    and n - beta (and proportional forms) merged. Every wall passes through
    h0deg; that is asserted, not assumed."""
    return list(_ample_walls(cfg, bounded_roots(quiver_from_config(cfg), cfg.mult)))


def _ample_walls(cfg: CurveConfig, roots: Sequence[DimVector]) -> tuple[AmpleWall, ...]:
    """``ample_walls_through_h0`` of cfg, given R_+(n)."""
    n = cfg.mult
    chi = cfg.total_euler

    def form(beta):
        chi_beta = sum(b * c for b, c in zip(beta, cfg.chi))
        return tuple(chi * b - chi_beta * m for b, m in zip(beta, n))

    walls = []
    for beta, sources in _merge_by_hyperplane(roots, n, form):
        chi_beta = sum(b * c for b, c in zip(beta, cfg.chi))
        coeffs = form(beta)
        if sum(c * d for c, d in zip(coeffs, cfg.h0deg)) != 0:
            raise MathAssertionError(
                f"relevant wall for beta={beta} misses h0deg; equal-slope data broken"
            )
        walls.append(AmpleWall(beta, chi_beta, coeffs, sources))
    return tuple(walls)


# the most pairs (beta, chi_Gamma) that ``v_walls`` lists, sixteen times the
# largest root box; their count grows with |chi| (chi = (20000, 20000) on the
# elliptic pair gives 79998)
MAX_V_WALL_SCAN = 16 * MAX_ROOT_BOX


def v_walls(cfg: CurveConfig) -> list[tuple[DimVector, int, IntVector, bool]]:
    """The v-walls chi (beta . a) = chi_Gamma (n . a), over subcurves Gamma =
    sum beta_i D_i with 0 <= beta <= n, that meet the open degree cone a > 0.

    Over that cone (beta . a) / (n . a) fills the open interval between
    min_i beta_i / n_i and max_i beta_i / n_i, so chi_Gamma runs over the
    integers strictly between chi times its ends; a beta proportional to n
    has none. Returns (beta, chi_Gamma, coeffs, through_h0) per hyperplane
    coeffs . a = 0, coeffs = chi * beta - chi_Gamma * n, with the first pair
    in box order and ascending chi_Gamma. Past ``MAX_V_WALL_SCAN`` pairs it
    raises ``InvariantError("v-wall-scan")`` before building a wall.
    """
    n, chi = cfg.mult, cfg.total_euler
    ranges = []
    for beta in checked_box(n):
        ratios = [Fraction(b, m) for b, m in zip(beta, n)]
        lo, hi = sorted((chi * min(ratios), chi * max(ratios)))
        ranges.append((beta, range(math.floor(lo) + 1, math.ceil(hi))))
    pairs = sum(len(chis) for _, chis in ranges)
    if pairs > MAX_V_WALL_SCAN:
        raise InvariantError(
            "v-wall-scan",
            f"the v-walls of n = {n}, chi = {chi} take {pairs} pairs, more than {MAX_V_WALL_SCAN}",
        )
    seen, out = set(), []
    for beta, chis in ranges:
        for chi_g in chis:
            coeffs = tuple(chi * b - chi_g * m for b, m in zip(beta, n))
            key = _sign_insensitive_key(coeffs)
            if key not in seen:
                seen.add(key)
                out.append((beta, chi_g, coeffs, _dot(coeffs, cfg.h0deg) == 0))
    return out


# ---------------------------------------------------------------------------
# the local model of one configuration


@dataclass(frozen=True)
class LocalModel:
    """The local model of one configuration (Q, n): the roots R_+(n), both
    wall systems, the chambers, the decompositions of n and the
    simple-existence verdicts. Each is computed once, on first read, from
    one root scan; build one model per configuration and hand it to every
    report on it. The module-level functions each compute afresh."""

    cfg: CurveConfig

    @cached_property
    def quiver(self) -> Quiver:
        return quiver_from_config(self.cfg)

    @property
    def n(self) -> DimVector:
        return self.cfg.mult

    @cached_property
    def roots_upto(self) -> tuple[DimVector, ...]:
        """The roots 0 < alpha <= n in lexicographic order, n last when it is
        a root: the model's one root scan."""
        return _roots_upto(self.quiver, self.n)

    @cached_property
    def roots(self) -> tuple[DimVector, ...]:
        """R_+(n): ``roots_upto`` without n."""
        return tuple(alpha for alpha in self.roots_upto if alpha != self.n)

    @cached_property
    def quiver_walls(self) -> tuple[QuiverWall, ...]:
        return _nperp_walls(self.n, self.roots)

    @cached_property
    def ample_walls(self) -> tuple[AmpleWall, ...]:
        """The ample walls through h0deg, checked to be cut by the same roots
        as the quiver walls: their betas must equal the quiver walls' normals."""
        awalls = _ample_walls(self.cfg, self.roots)
        if [w.normal for w in self.quiver_walls] != [w.beta for w in awalls]:
            raise MathAssertionError("quiver-side and ample-side wall systems disagree")
        return awalls

    @cached_property
    def chambers(self) -> ChamberSet | None:
        """The chambers of n-perp, or None for a one-vertex configuration,
        which has no wall structure."""
        return None if len(self.n) == 1 else _chambers(self.n, self.quiver_walls)

    @cached_property
    def decompositions(self) -> tuple[Decomposition, ...]:
        return _decompositions(self.n, self.roots_upto)

    @cached_property
    def _simple(self) -> dict[DimVector, SimpleExistence]:
        return _simple_table(self.quiver, self.n, self.roots_upto)

    def simple_exists(self, beta: DimVector) -> SimpleExistence:
        """``cb_simple_exists`` at beta <= n, read from one dynamic program
        over the box 0 <= r <= n."""
        return self._simple.get(tuple(beta), SimpleExistence(False, False, None))


# ---------------------------------------------------------------------------
# the correspondence


def xi_map(cfg: CurveConfig, a: DegreeVector) -> RationalVector:
    """theta_i = a_i - d_i, for a on the slice sum n_i a_i = d_0."""
    _check_same_length("a", a.a, "mult", cfg.s)
    if sum(n * x for n, x in zip(cfg.mult, a.a)) != cfg.total_h0deg:
        raise ValueError("degree vector is off the slice sum n_i a_i = d_0")
    return tuple(x - d for x, d in zip(a.a, cfg.h0deg))


def character_general(cfg: CurveConfig, a: DegreeVector) -> RationalVector:
    """theta_i = d_0 a_i - d d_i with d = sum n_i a_i: the ample-side
    character of a polarization, exact, with theta . n = 0 for every a."""
    _check_same_length("a", a.a, "mult", cfg.s)
    den, ia = cleared(a.a)
    return tuple(Fraction(x, den) for x in _character(cfg.total_h0deg, cfg.mult, cfg.h0deg, ia))


def _character(d0: int, n: DimVector, h0deg: IntVector, ia: Sequence[int]) -> IntVector:
    """``character_general`` at a = ia / den, times den: the character is
    linear in a, so it maps the numerators over one denominator to those of
    theta over the same denominator."""
    d = _dot(n, ia)
    return tuple(d0 * x - d * di for x, di in zip(ia, h0deg))


def _xi(h0deg: IntVector, den: int, ia: Sequence[int]) -> IntVector:
    """``xi_map`` at a = ia / den, times den."""
    return tuple(x - den * d for x, d in zip(ia, h0deg))


def det_weight_vector(cfg: CurveConfig, a: DegreeVector, ell: int) -> RationalVector:
    """Per-vertex determinant weights (a_i * ell + chi_i)."""
    _check_same_length("a", a.a, "mult", cfg.s)
    return tuple(x * ell + c for x, c in zip(a.a, cfg.chi))


def restrict_weights_to_type(
    weights: Sequence,
    tau: Decomposition,
    cfg: CurveConfig,
    a: DegreeVector,
    ell: int,
) -> list[Fraction]:
    """Block weights of a decomposition: part (k, beta) acts with weight
    sum_l beta_l * weights_l, which must equal ell * (beta . a) + beta . chi.

    Each weight is taken by ``_as_rational``, and weights or degrees a of
    another length than mult are refused (``ValueError``); the identity is
    asserted exactly, and a failure is an internal bug.
    """
    weights = tuple(_as_rational(w, "weights") for w in weights)
    _check_same_length("weights", weights, "mult", len(cfg.mult))
    _check_same_length("a", a.a, "mult", len(cfg.mult))
    if tau.total != cfg.mult:
        raise ValueError(f"decomposition total {tau.total} != mult {cfg.mult}")
    out = []
    for _, beta in tau.parts:
        got = sum((b * w for b, w in zip(beta, weights)), Fraction(0))
        expected = ell * _dot(beta, a.a) + _dot(beta, cfg.chi)
        if got != expected:
            raise MathAssertionError(
                f"block weight {got} != {expected} for part {beta}"
            )
        out.append(got)
    return out


@dataclass(frozen=True)
class WallCheck:
    beta: DimVector
    chi_beta: int
    vertex_count: int
    sample_count: int
    all_on_image_wall: bool
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class ChamberCheck:
    a: RationalVector
    theta: RationalVector
    signature: tuple[int, ...]
    signature_nonzero: bool
    generic: bool
    violators: tuple[DimVector, ...]


@dataclass(frozen=True)
class CorrespondenceReport:
    walls: tuple[WallCheck, ...]
    chambers: tuple[ChamberCheck, ...]
    wall_counts_match: bool
    note: str = ""


def _wall_slice_vertices(cfg: CurveConfig, wall: AmpleWall) -> list[tuple[int, IntVector]]:
    """Vertices of {coeffs . a = 0, sum n_i a_i = d_0, a >= 0}, by scanning
    basic solutions (all but two coordinates zeroed). A vertex v = iv / vm
    is (vm, iv) with vm > 0 and the gcd divided out, so equal vertices have
    equal pairs."""
    s = cfg.s
    d0 = cfg.total_h0deg
    verts: dict[tuple[int, IntVector], None] = {}
    for i in range(s):
        for j in range(i + 1, s):
            # solve on coordinates (i, j), rest zero
            a11, a12 = wall.coeffs[i], wall.coeffs[j]
            a21, a22 = cfg.mult[i], cfg.mult[j]
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            # Cramer for (coeffs . a, n . a) = (0, d0) on the two free coords
            sign = 1 if det > 0 else -1
            ai, aj = -sign * a12 * d0, sign * a11 * d0
            if ai < 0 or aj < 0:
                continue
            v = [0] * s
            vm, v[i], v[j] = primitive([sign * det, ai, aj])
            verts.setdefault((vm, tuple(v)))
    return list(verts)


def _wall_samples(h0deg: IntVector, verts: Sequence, count: int) -> list[tuple[int, IntVector]]:
    """Samples a = ia / den of a wall as (den, ia), den > 0: h0deg, then, if
    there are vertices (vm, iv), ``count`` points lam * v + (1 - lam) *
    h0deg over them in turn, lam = (j + 1) / (j + 2) on pass j; for v = iv /
    vm that is ((j + 1) * iv + vm * h0deg) / ((j + 2) * vm)."""
    samples = [(1, h0deg)]
    for k in range(count if verts else 0):
        vm, iv = verts[k % len(verts)]
        j = k // len(verts)
        samples.append(((j + 2) * vm, tuple((j + 1) * x + vm * d for x, d in zip(iv, h0deg))))
    return samples


# the most wall samples, walls times ``samples_per_wall``, that
# ``verify_correspondence`` builds; past it it raises instead of filling
# memory (10^6 samples on the elliptic pair took 5.9 s and 240 MB)
MAX_WALL_SAMPLES = 1 << 16


def verify_correspondence(cfg: CurveConfig, samples_per_wall: int = 3) -> CorrespondenceReport:
    """Check, exactly, that the degree-to-character map carries every relevant
    ample wall onto its quiver wall, and probe one polarization per adjacent
    chamber through the general character formula.

    A probe's character is checked to be d0 * eps * u (d0, eps > 0) for a
    certified representative u, so it has u's signature from the chamber set.
    Only roots proportional to n vanish at a chamber point, and they vanish on
    all of n-perp, so one genericity verdict decides every chamber. Past
    ``MAX_WALL_SAMPLES`` samples it raises ``InvariantError("wall-samples")``
    before building one."""
    _check_count("samples_per_wall", samples_per_wall)
    model = LocalModel(cfg)
    chambers = model.chambers
    if chambers is None:
        return CorrespondenceReport((), (), True, "one-vertex configuration: no walls")
    d0, n, h0 = cfg.total_h0deg, cfg.mult, cfg.h0deg
    awalls = model.ample_walls
    if len(awalls) * samples_per_wall > MAX_WALL_SAMPLES:
        raise InvariantError(
            "wall-samples",
            f"{samples_per_wall} samples on each of {len(awalls)} walls make "
            f"{len(awalls) * samples_per_wall}, more than {MAX_WALL_SAMPLES}",
        )
    wall_checks = []
    for wall in awalls:
        verts = _wall_slice_vertices(cfg, wall)
        samples = _wall_samples(h0, verts, samples_per_wall)
        note = "" if verts else "wall meets the slice only at h0deg"
        for den, ia in samples:
            # h0 > 0, v >= 0 and lam < 1: every coordinate of a sample is positive
            if any(x <= 0 for x in ia):
                raise MathAssertionError("wall sample left the positive cone")
            if sum(map(mul, n, ia)) != d0 * den:
                raise MathAssertionError(f"wall sample for beta={wall.beta} is off the slice")
            theta = _xi(h0, den, ia)
            if any(sum(map(mul, alpha, theta)) for alpha in wall.sources):
                raise MathAssertionError(
                    f"xi image of a sampled point left the quiver wall for beta={wall.beta}"
                )
        wall_checks.append(
            WallCheck(wall.beta, wall.chi_beta, len(verts), len(samples), True, False, note)
        )
    verdict = _genericity(chambers.points[0][1], cfg.mult, model.roots)
    chamber_checks = []
    for (m, iu), sig in zip(chambers.points, chambers.signatures):
        # u = iu / m. a = h0 + eps * u with eps = en / ed, the least of 1 and
        # d_i / (2 * -u_i) over u_i < 0, so a >= h0 / 2 > 0; den * a = ia
        en = ed = 1
        for x, di in zip(iu, h0):
            if x < 0 and di * m * ed < -2 * x * en:
                en, ed = di * m, -2 * x
        den = ed * m
        ia = tuple(di * den + en * x for di, x in zip(h0, iu))
        itheta = _character(d0, n, h0, ia)
        # theta == d0 * eps * u, both over den
        if itheta != tuple(d0 * en * x for x in iu):
            raise MathAssertionError("character of an on-slice point is not d0 * xi")
        a = tuple(Fraction(x, den) for x in ia)
        theta = tuple(Fraction(x, den) for x in itheta)
        chamber_checks.append(
            ChamberCheck(a, theta, sig, True, verdict.generic, verdict.violators)
        )
    return CorrespondenceReport(tuple(wall_checks), tuple(chamber_checks), True)
