"""Wall-and-chamber structures on both sides of the correspondence.

Quiver side: walls W_alpha = {theta . alpha = 0} inside n-perp, one per root
alpha in R_+(n), with alpha and n - alpha (and any root cutting the same
hyperplane) merged. Ample side: the relevant walls through the base
polarization, written on the slice {sum n_i a_i = d_0} of the degree cone.
The affine map a -> a - d carries one arrangement onto the other; this module
enumerates both, enumerates chambers exactly, and checks the correspondence
on exact rational sample points.

Everything is exact rational arithmetic; no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import MathAssertionError
from .lattice import CurveConfig, DegreeVector, RationalVector
from .quiver import (
    DimVector,
    Quiver,
    bounded_roots,
    boxed_vectors,
    Decomposition,
    quiver_from_config,
)

IntVector = tuple[int, ...]


def theta_dot(theta: Sequence, beta: Sequence) -> Fraction:
    return sum((Fraction(t) * b for t, b in zip(theta, beta)), Fraction(0))


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
    basis = nperp_basis(n)

    def form(alpha):
        return tuple(sum(x * y for x, y in zip(b, alpha)) for b in basis)

    return [QuiverWall(*wall) for wall in _merge_by_hyperplane(bounded_roots(q, n), n, form)]


@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    violators: tuple[DimVector, ...]


def is_generic(theta: Sequence, q: Quiver, n: DimVector) -> GenericityVerdict:
    """theta is n-generic iff theta . alpha != 0 for every alpha in R_+(n)."""
    theta = tuple(Fraction(t) for t in theta)
    if theta_dot(theta, n) != 0:
        raise ValueError("theta . n != 0: not a valid stability parameter")
    violators = tuple(
        alpha for alpha in bounded_roots(q, n) if theta_dot(theta, alpha) == 0
    )
    return GenericityVerdict(not violators, violators)


def chamber_signature(theta: Sequence, walls: Sequence[QuiverWall]) -> tuple[int, ...]:
    """Sign of theta against each canonical wall normal; 0 marks wall points."""
    out = []
    for w in walls:
        v = theta_dot(theta, w.normal)
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact feasibility (Fourier-Motzkin) and chamber enumeration


def nperp_basis(n: DimVector) -> list[IntVector]:
    """Integer basis of {x : n . x = 0}, assuming n has a nonzero entry."""
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


class _FMBlowup(Exception):
    """Fourier-Motzkin intermediate system exceeded its size budget."""


def _fm_core(
    cons: list[Constraint], nvars: int, limit: int | None = None
) -> tuple[Fraction, ...] | None:
    """Fourier-Motzkin over integer constraints with rational back-substitution."""
    clean: list[Constraint] = []
    seen = set()
    for coeffs, rhs in cons:
        if all(x == 0 for x in coeffs):
            if rhs > 0:
                return None
            continue
        g = math.gcd(*(abs(x) for x in coeffs), abs(rhs))
        key = (tuple(x // g for x in coeffs), rhs // g)
        if key not in seen:
            seen.add(key)
            clean.append(key)
    if limit is not None and len(clean) > limit:
        raise _FMBlowup
    if nvars == 0:
        return ()
    lowers, uppers, rest = [], [], []
    for coeffs, rhs in clean:
        a = coeffs[-1]
        if a > 0:
            lowers.append((coeffs, rhs))
        elif a < 0:
            uppers.append((coeffs, rhs))
        else:
            rest.append((coeffs[:-1], rhs))
    for cl, bl in lowers:
        al = cl[-1]
        for cu, bu in uppers:
            au = -cu[-1]
            coeffs = tuple(au * x + al * y for x, y in zip(cl[:-1], cu[:-1]))
            rest.append((coeffs, au * bl + al * bu))
    sub = _fm_core(rest, nvars - 1, limit)
    if sub is None:
        return None
    lo = hi = None
    for cl, bl in lowers:
        v = (Fraction(bl) - sum(x * y for x, y in zip(cl[:-1], sub))) / cl[-1]
        lo = v if lo is None else max(lo, v)
    for cu, bu in uppers:
        v = (sum(x * y for x, y in zip(cu[:-1], sub)) - Fraction(bu)) / (-cu[-1])
        hi = v if hi is None else min(hi, v)
    if lo is not None and hi is not None:
        val = (lo + hi) / 2
    elif lo is not None:
        val = lo + 1
    elif hi is not None:
        val = hi - 1
    else:
        val = Fraction(0)
    return sub + (val,)


def fm_feasible_point(constraints, nvars: int) -> tuple[Fraction, ...] | None:
    """A rational point of {x : coeffs . x >= rhs for all constraints}, or None.

    Accepts integer or rational data; everything is cleared to integers so
    the elimination runs in pure integer arithmetic. Fourier-Motzkin grows
    doubly exponentially with the variable count, so this route is kept for
    few variables and as an independent cross-check of the simplex below.
    """
    return _fm_core(_clear_denominators(constraints), nvars)


def _clear_denominators(constraints) -> list[Constraint]:
    out: list[Constraint] = []
    for coeffs, rhs in constraints:
        entries = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
        scale = math.lcm(*(e.denominator for e in entries))
        out.append(
            (tuple(int(e * scale) for e in entries[:-1]), int(entries[-1] * scale))
        )
    return out


def lp_feasible_point(constraints, nvars: int) -> tuple[Fraction, ...] | None:
    """Exact phase-1 simplex for {x free : coeffs . x >= rhs}.

    Writes x = x+ - x- and subtracts slacks, then minimizes the sum of
    artificial variables with Bland's rule (guaranteed termination). The
    tableau stays integral: rows are rescaled rather than normalized, with a
    gcd reduction after each pivot to keep the entries small.
    """
    cons = _clear_denominators(constraints)
    m = len(cons)
    if m == 0:
        return (Fraction(0),) * nvars
    nstruct = 2 * nvars + m  # x+, x-, slacks; artificials sit after these
    tableau: list[list[int]] = []
    rhs: list[int] = []
    for i, (coeffs, b) in enumerate(cons):
        sign = 1 if b >= 0 else -1
        row = [0] * (nstruct + m)
        for j in range(nvars):
            row[j] = sign * coeffs[j]
            row[nvars + j] = -sign * coeffs[j]
        row[2 * nvars + i] = -sign
        row[nstruct + i] = 1
        tableau.append(row)
        rhs.append(abs(b))
    basis = [nstruct + i for i in range(m)]
    scale = [1] * m  # positive coefficient of each row's basic variable
    while True:
        art_rows = [i for i in range(m) if basis[i] >= nstruct]
        entering = None
        for j in range(nstruct):
            if sum(Fraction(tableau[i][j], scale[i]) for i in art_rows) > 0:
                entering = j
                break
        if entering is None:
            if any(rhs[i] != 0 for i in art_rows):
                return None
            break
        pr = None
        best = None
        for i in range(m):
            t = tableau[i][entering]
            if t > 0:
                key = (Fraction(rhs[i], t), basis[i])
                if best is None or key < best:
                    best = key
                    pr = i
        if pr is None:
            # the phase-1 objective is bounded below by zero, so a positive
            # reduced cost always admits a blocking row
            raise MathAssertionError("phase-1 simplex lost its lower bound")
        p = tableau[pr][entering]
        for i in range(m):
            f = tableau[i][entering]
            if i == pr or f == 0:
                continue
            tableau[i] = [p * x - f * y for x, y in zip(tableau[i], tableau[pr])]
            rhs[i] = p * rhs[i] - f * rhs[pr]
            g = math.gcd(*(abs(x) for x in tableau[i]), abs(rhs[i]))
            if g > 1:
                tableau[i] = [x // g for x in tableau[i]]
                rhs[i] //= g
            scale[i] = tableau[i][basis[i]]
        basis[pr] = entering
        g = math.gcd(*(abs(x) for x in tableau[pr]), abs(rhs[pr]))
        if g > 1:
            tableau[pr] = [x // g for x in tableau[pr]]
            rhs[pr] //= g
        scale[pr] = tableau[pr][entering]
    values = [Fraction(0)] * nstruct
    for i, b in enumerate(basis):
        if b < nstruct:
            values[b] = Fraction(rhs[i], scale[i])
    return tuple(values[j] - values[nvars + j] for j in range(nvars))


@dataclass(frozen=True)
class ChamberSet:
    """Chambers of the quiver wall arrangement restricted to n-perp."""

    count: int
    representatives: tuple[RationalVector, ...]
    signatures: tuple[tuple[int, ...], ...]
    walls: tuple[QuiverWall, ...]


def enumerate_chambers(q: Quiver, n: DimVector) -> ChamberSet:
    """Exact enumeration of the full-dimensional sign cells of the wall
    arrangement in n-perp, with one interior rational point per cell.

    Representatives are certified to have a zero-free signature against the
    proper walls; full n-genericity (which can fail identically when some
    root is proportional to n) is left to ``is_generic``.
    """
    if len(n) == 1:
        raise ValueError("no wall structure; non-primitive one-vertex case")
    walls = quiver_walls(q, n)
    basis = nperp_basis(n)
    d = len(basis)
    functionals = [
        tuple(sum(b[i] * w.normal[i] for i in range(len(n))) for b in basis)
        for w in walls
    ]
    start = tuple([Fraction(1)] + [Fraction(0)] * (d - 1))

    def solve(ext, dim):
        # Fourier-Motzkin with dedup is fast on these systems; the exact
        # simplex takes over when an elimination level blows up
        try:
            return _fm_core(ext, dim, limit=4000)
        except _FMBlowup:
            return lp_feasible_point(ext, dim)

    # cells: (signs so far, integer constraints, a strictly interior point).
    # By homogeneity a point with all processed functionals strictly of the
    # right sign certifies the open cell, so it is reused until it fails.
    cells: list[tuple[tuple[int, ...], list[Constraint], tuple[Fraction, ...]]] = [
        ((), [], start)
    ]
    for f in functionals:
        new_cells = []
        for signs, cons, pt in cells:
            val = sum(x * y for x, y in zip(f, pt))
            for sgn in (1, -1):
                ext = cons + [(tuple(sgn * x for x in f), 1)]
                if sgn * val > 0:
                    new_cells.append((signs + (sgn,), ext, pt))
                    continue
                found = solve(ext, d)
                if found is not None:
                    new_cells.append((signs + (sgn,), ext, found))
        cells = new_cells
    reps = []
    sigs = []
    for signs, _, u in cells:
        theta = tuple(
            sum((u[k] * basis[k][i] for k in range(d)), Fraction(0))
            for i in range(len(n))
        )
        sig = chamber_signature(theta, walls)
        if 0 in sig or (walls and sig != signs):
            raise MathAssertionError(
                f"chamber representative {theta} does not realize its sign cell {signs}"
            )
        reps.append(theta)
        sigs.append(sig)
    return ChamberSet(len(cells), tuple(reps), tuple(sigs), tuple(walls))


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
    q = quiver_from_config(cfg)
    n = cfg.mult
    chi = cfg.total_euler

    def form(beta):
        chi_beta = sum(b * c for b, c in zip(beta, cfg.chi))
        return tuple(chi * b - chi_beta * m for b, m in zip(beta, n))

    walls = []
    for beta, sources in _merge_by_hyperplane(bounded_roots(q, n), n, form):
        chi_beta = sum(b * c for b, c in zip(beta, cfg.chi))
        coeffs = form(beta)
        if sum(c * d for c, d in zip(coeffs, cfg.h0deg)) != 0:
            raise MathAssertionError(
                f"relevant wall for beta={beta} misses h0deg; equal-slope data broken"
            )
        walls.append(AmpleWall(beta, chi_beta, coeffs, sources))
    return walls


def wall_systems(cfg: CurveConfig) -> tuple[list[QuiverWall], list[AmpleWall]]:
    """Both wall systems of the configuration, checked to be cut by the same
    roots: the quiver walls' normals must equal the ample walls' betas."""
    qwalls = quiver_walls(quiver_from_config(cfg), cfg.mult)
    awalls = ample_walls_through_h0(cfg)
    if [w.normal for w in qwalls] != [w.beta for w in awalls]:
        raise MathAssertionError("quiver-side and ample-side wall systems disagree")
    return qwalls, awalls


def v_walls_bounded_scan(
    cfg: CurveConfig, chi_bound: int
) -> list[tuple[DimVector, int, IntVector, bool]]:
    """Optional global scan of candidate v-walls chi (Gamma . x) = chi_Gamma (D . x)
    over subcurves Gamma = sum beta_i D_i and |chi_Gamma| <= chi_bound.

    The finite admissible range of chi_Gamma is not pinned down here, hence
    the explicit user bound. Returns (beta, chi_Gamma, coeffs, through_h0)
    with duplicate hyperplanes merged.
    """
    n = cfg.mult
    chi = cfg.total_euler
    seen: set[IntVector] = set()
    out = []
    for beta in boxed_vectors(n):
        if all(b == 0 for b in beta) or beta == tuple(n):
            continue
        for chi_g in range(-chi_bound, chi_bound + 1):
            coeffs = tuple(chi * b - chi_g * m for b, m in zip(beta, n))
            key = _sign_insensitive_key(coeffs)
            if key is None or key in seen:
                continue
            seen.add(key)
            through = sum(c * d for c, d in zip(coeffs, cfg.h0deg)) == 0
            out.append((beta, chi_g, coeffs, through))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


# ---------------------------------------------------------------------------
# the correspondence


def xi_map(cfg: CurveConfig, a: DegreeVector) -> RationalVector:
    """theta_i = a_i - d_i, for a on the slice sum n_i a_i = d_0."""
    if len(a.a) != cfg.s:
        raise ValueError("degree vector has wrong length")
    if sum(n * x for n, x in zip(cfg.mult, a.a)) != cfg.total_h0deg:
        raise ValueError("degree vector is off the slice sum n_i a_i = d_0")
    return tuple(x - d for x, d in zip(a.a, cfg.h0deg))


def character_general(cfg: CurveConfig, a: DegreeVector) -> RationalVector:
    """theta_i = d_0 a_i - d d_i with d = sum n_i a_i: the ample-side
    character of a polarization, exact, with theta . n = 0 for every a."""
    if len(a.a) != cfg.s:
        raise ValueError("degree vector has wrong length")
    d0 = cfg.total_h0deg
    d = sum((Fraction(n) * x for n, x in zip(cfg.mult, a.a)), Fraction(0))
    return tuple(d0 * x - d * di for x, di in zip(a.a, cfg.h0deg))


def det_weight_vector(cfg: CurveConfig, a: DegreeVector, ell: int) -> RationalVector:
    """Per-vertex determinant weights (a_i * ell + chi_i)."""
    if len(a.a) != cfg.s:
        raise ValueError("degree vector has wrong length")
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

    The identity is asserted exactly; a failure is an internal bug.
    """
    weights = tuple(Fraction(w) for w in weights)
    if tau.total != cfg.mult:
        raise ValueError(f"decomposition total {tau.total} != mult {cfg.mult}")
    out = []
    for _, beta in tau.parts:
        got = sum((Fraction(b) * w for b, w in zip(beta, weights)), Fraction(0))
        expected = ell * sum(
            (Fraction(b) * x for b, x in zip(beta, a.a)), Fraction(0)
        ) + sum(b * c for b, c in zip(beta, cfg.chi))
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


def _wall_slice_vertices(
    cfg: CurveConfig, wall: AmpleWall
) -> list[RationalVector]:
    """Vertices of {coeffs . a = 0, sum n_i a_i = d_0, a >= 0}, by scanning
    basic solutions (all but two coordinates zeroed)."""
    s = cfg.s
    d0 = cfg.total_h0deg
    verts: list[RationalVector] = []
    seen = set()
    if s < 2:
        return verts
    for i in range(s):
        for j in range(i + 1, s):
            # solve on coordinates (i, j), rest zero
            a11, a12 = wall.coeffs[i], wall.coeffs[j]
            a21, a22 = cfg.mult[i], cfg.mult[j]
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            # Cramer for (coeffs . a, n . a) = (0, d0) on the two free coords
            ai = Fraction(-a12 * d0, det)
            aj = Fraction(a11 * d0, det)
            if ai < 0 or aj < 0:
                continue
            v = [Fraction(0)] * s
            v[i], v[j] = ai, aj
            key = tuple(v)
            if key not in seen:
                seen.add(key)
                verts.append(key)
    return verts


def verify_correspondence(cfg: CurveConfig, samples_per_wall: int = 3) -> CorrespondenceReport:
    """Check, exactly, that the degree-to-character map carries every relevant
    ample wall onto its quiver wall, and probe one polarization per adjacent
    chamber through the general character formula."""
    if cfg.s == 1:
        return CorrespondenceReport((), (), True, "one-vertex configuration: no walls")
    q = quiver_from_config(cfg)
    n = cfg.mult
    qwalls, awalls = wall_systems(cfg)
    h0 = tuple(Fraction(d) for d in cfg.h0deg)
    wall_checks = []
    for wall in awalls:
        verts = _wall_slice_vertices(cfg, wall)
        samples: list[RationalVector] = [h0]
        k = 0
        while verts and len(samples) - 1 < samples_per_wall:
            v = verts[k % len(verts)]
            lam = Fraction(k // len(verts) + 1, k // len(verts) + 2)
            samples.append(
                tuple(lam * x + (1 - lam) * y for x, y in zip(v, h0))
            )
            k += 1
        note = "" if verts else "wall meets the slice only at h0deg"
        ok = True
        for a in samples:
            if any(x < 0 for x in a):
                raise MathAssertionError("wall sample left the positive cone")
            if any(x == 0 for x in a):
                # strict positivity fails only for vertex-degenerate samples
                continue
            theta = xi_map(cfg, DegreeVector(a))
            for alpha in wall.sources:
                if theta_dot(theta, alpha) != 0:
                    ok = False
        wall_checks.append(
            WallCheck(wall.beta, wall.chi_beta, len(verts), len(samples), ok, False, note)
        )
        if not ok:
            raise MathAssertionError(
                f"xi image of a sampled point left the quiver wall for beta={wall.beta}"
            )
    chambers = enumerate_chambers(q, n)
    chamber_checks = []
    seen_sigs = set()
    d0 = cfg.total_h0deg
    for u in chambers.representatives:
        eps = Fraction(1)
        for ui, di in zip(u, cfg.h0deg):
            if ui < 0:
                eps = min(eps, Fraction(di, 2) / -ui)
        a = tuple(di + eps * ui for di, ui in zip(cfg.h0deg, u))
        theta = character_general(cfg, DegreeVector(a))
        if theta != tuple(d0 * eps * ui for ui in u):
            raise MathAssertionError("character of an on-slice point is not d0 * xi")
        sig = chamber_signature(theta, qwalls)
        if 0 in sig:
            raise MathAssertionError(
                f"adjacent-chamber character {theta} lies on an image wall"
            )
        if sig in seen_sigs:
            raise MathAssertionError("two adjacent chambers mapped to one signature")
        seen_sigs.add(sig)
        verdict = is_generic(theta, q, n)
        chamber_checks.append(
            ChamberCheck(a, theta, sig, True, verdict.generic, verdict.violators)
        )
    return CorrespondenceReport(tuple(wall_checks), tuple(chamber_checks), True)
