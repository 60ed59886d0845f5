"""Explicit representations of the doubled quiver.

Carries the moment map mu = sum [x_e, y_e] (blockwise: forward edges add
x_e y_e at their target and subtract y_e x_e at their source), its exact
linearization, a damped Gauss-Newton search for points of mu^-1(0), a
block-graded Burnside-closure simplicity test, and a sound-but-incomplete
King stability checker whose certified verdicts carry explicit witnesses.
One graded span closure (``_closure``) serves both of the last two: it
closes e_i for ``is_simple`` and a probe vector for ``_cyclic_spans``.
It takes one adder per vertex, of three kinds: ``linalg.Span().add``, the
exact span; ``_block_adder``, float mode's orthonormal basis; and
``_mod_adder``, a span over Z/P in int64 arrays for the modular pass of
exact ``is_simple`` (``_exact_simple``).

Scalars are either exact rationals ("exact" mode) or complex doubles
("float" mode); the mode is chosen at construction and is uniform across a
representation. Matrices are numpy arrays in both modes: dtype ``object``
holding ``Fraction`` entries in exact mode, dtype ``complex`` in float mode.
So ``@``, ``+``, ``-``, ``.T`` and slicing serve both, and exact arithmetic
never passes through a float. Both modes hold read-only copies of the
matrices (``_matrix``), and float entries are finite.

A representation owns the arrow lists derived from it
(``Representation._arrows``), its simplicity verdict
(``Representation._simple``) and, in exact mode, the cyclic spans of its
coordinate vectors (``Representation._probe_spans``), all built on first
use and kept.

The exact closures and invariance checks multiply no ``Fraction``: each
arrow is cleared once per representation, that is multiplied by the lcm of
its denominators into an ``object`` array of Python ints, and so is each
closure seed. A cleared product is a nonzero multiple of the true one,
which spans the same line, so every ``linalg.Span`` row, pivot, verdict and
basis is the same as with the ``Fraction`` matrices. The matrices are
read-only, so a cleared arrow cannot go stale. Exact ``is_simple`` first
closes each vertex on the cleared arrows reduced mod a prime P < 2**25:
a closure that is full mod P certifies the vertex, since a rank over Z/P
is never above the rank over Q. At every other vertex the cyclic spans of
the coordinate vectors come first: a proper one makes the verdict False.
Only where none is proper, and n_i > 1, does the exact closure of e_i
decide. The pass runs only where no int64 sum of its products can wrap
around (max(n)**2 <= 2**13). In both modes the verdict is decided once
per representation and kept; ``check_stability`` reads it and skips its
search exactly when the representation is simple, which has no proper
nonzero subrepresentation to find.

The linearization d(mu) is assembled by scatter, not entry by entry:
``_differential_pattern(q, n)`` records where each entry of the flat
(x_e, y_e) vector is added or subtracted, and ``moment_differential`` copies
the vector along it into a matrix of zeros. Each cell takes at most one
added and one subtracted term, in that order, so the result is bit for bit
that of the entrywise loop. The Gauss-Newton search (``_gauss_newton``)
runs on flat vectors and on one pattern, built per call of
``solve_moment_zero`` or ``verify_ci_dim`` and dropped with it. It runs a
batch of seeds on arrays: their start draws come as the rows of one array
(``_float_draws``), the live seeds are the rows of the iterates, residuals
and residual norms (``_norms``, one stacked norm) under one row index, and
masks retire rows and pick those still backtracking. Each pass scatters
the stack of iterates at once and solves their steps in one LAPACK call
(``_stacked_lstsq``).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, sqrt
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from . import linalg
from .errors import (InvariantError, MathAssertionError, _as_rational, _check_count,
                     _check_same_length, _check_tol, _stability_parameter)
from .quiver import (
    DimVector, Quiver, cb_simple_exists, check_bound, checked_box, mu_zero_expected_dim,
    rep_space_dim,
)
from .walls import theta_dot

EXACT = "exact"
FLOAT = "float"

# the zero scalar of each mode; np.full infers the matching dtype from it
_ZERO = {EXACT: Fraction(0), FLOAT: 0j}
_DTYPE = {EXACT: object, FLOAT: complex}


def _matrix(m, rows: int, cols: int, mode: str, what: str = "matrix") -> np.ndarray:
    """m as a fresh read-only rows x cols array of the mode's dtype. The shape
    is checked on the nested rows first, so a transposed or ragged input
    cannot be hidden by a reshape; a matrix with no rows carries no column
    count. Exact mode takes each entry by ``errors._as_rational``; float mode
    refuses one that is not finite (``ValueError``), as the CLI does."""
    if isinstance(m, np.ndarray) and m.ndim == 2:
        ok = m.shape == (rows, cols)
    else:
        try:
            ok = len(m) == rows and all(len(r) == cols for r in m)
        except TypeError:
            ok = False
    if not ok:
        raise ValueError(f"{what} must be {rows} x {cols}")
    out = np.array(m, dtype=_DTYPE[mode]).reshape(rows, cols)
    if mode == EXACT:
        out.flat[:] = [e if type(e) in (Fraction, int) else _as_rational(e, what) for e in out.flat]
    elif not np.isfinite(out).all():
        raise ValueError(f"{what} must have finite entries")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrices (x_e, y_e) for each oriented edge of the quiver.

    x_e maps V_s(e) -> V_t(e) (shape n_t x n_s), y_e goes back.
    ``mats`` is aligned with ``quiver.orientation``. Matrices may be given as
    nested rows or arrays; ``_matrix`` stores read-only copies, of ints and
    ``Fraction``s in exact mode and of finite complex doubles in float mode,
    so what a representation keeps decided stays true. Equality compares the
    entries. ``n`` must pass ``check_bound`` (one integer >= 0 per vertex)."""

    quiver: Quiver
    n: DimVector
    mode: str
    mats: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        n = check_bound(self.quiver, self.n)
        object.__setattr__(self, "n", n)
        if self.mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        edges = self.quiver.orientation
        if len(self.mats) != len(edges):
            raise ValueError("one (x, y) pair per oriented edge required")
        mats = tuple(
            (
                _matrix(x, n[t], n[s], self.mode, f"x matrix for edge {s}->{t}"),
                _matrix(y, n[s], n[t], self.mode, f"y matrix for edge {s}->{t}"),
            )
            for (s, t, _), (x, y) in zip(edges, self.mats)
        )
        object.__setattr__(self, "mats", mats)

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.quiver, self.n, self.mode) == (other.quiver, other.n, other.mode) and all(
            np.array_equal(a, b)
            for pa, pb in zip(self.mats, other.mats)
            for a, b in zip(pa, pb)
        )

    @property
    def zero(self):
        """The zero scalar of the mode: Fraction(0) or 0j."""
        return _ZERO[self.mode]

    @property
    def total_dim(self) -> int:
        return sum(self.n)

    @cached_property
    def _arrows(self) -> list[list]:
        """j -> [(k, A: V_j -> V_k)] over the arrows of the doubled quiver
        between nonzero spaces; in exact mode each A is ``_cleared``, in
        float mode it is the stored matrix itself."""
        n = self.n
        clear = _cleared if self.mode == EXACT else (lambda m: m)
        arrows: list[list] = [[] for _ in n]
        for (s, t, _), (x, y) in zip(self.quiver.orientation, self.mats):
            if n[s] > 0 and n[t] > 0:
                arrows[s].append((t, clear(x)))
                arrows[t].append((s, clear(y)))
        return arrows

    @cached_property
    def _simple(self) -> bool:
        """The ``is_simple`` verdict of the mode (``_exact_simple`` or
        ``_float_simple``), decided on first use; read-only matrices keep it
        current."""
        return _exact_simple(self) if self.mode == EXACT else _float_simple(self)

    @cached_property
    def _probe_spans(self) -> dict[tuple[int, int], list]:
        """(vertex, k) -> ``_cyclic_spans`` of the k-th coordinate vector
        of V_vertex, filled lazily by ``_coordinate_spans`` (exact mode);
        read-only matrices keep it current, and nothing adds to a kept
        span."""
        return {}

    def to_float(self) -> "Representation":
        return Representation(self.quiver, self.n, FLOAT, self.mats)


@dataclass(frozen=True)
class GroupElement:
    """A tuple of invertible blocks (g_1, ..., g_s) acting by conjugation."""

    blocks: tuple[object, ...]


def zero_representation(q: Quiver, n: DimVector, mode: str = EXACT) -> Representation:
    n = check_bound(q, n)
    zero = _ZERO[mode]
    mats = tuple(
        (np.full((n[t], n[s]), zero), np.full((n[s], n[t]), zero))
        for s, t, _ in q.orientation
    )
    return Representation(q, n, mode, mats)


def random_representation(
    q: Quiver, n: DimVector, seed: int = 0, mode: str = EXACT
) -> Representation:
    """Seeded random representation; exact mode draws small rationals."""
    n = check_bound(q, n)
    if mode == EXACT:
        rng = random.Random(seed)

        def entry():
            return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

        mats = tuple(
            (
                tuple(tuple(entry() for _ in range(n[s])) for _ in range(n[t])),
                tuple(tuple(entry() for _ in range(n[t])) for _ in range(n[s])),
            )
            for s, t, _ in q.orientation
        )
        return Representation(q, n, EXACT, mats)
    return Representation(q, n, FLOAT, _unflatten_mats(q, n, _float_draws(q, n, (seed,))[0]))


def moment_map(rep: Representation) -> tuple:
    """Blockwise m_i = sum_{t(e)=i} x_e y_e - sum_{s(e)=i} y_e x_e.

    The blocks always sum to trace zero.
    """
    return _moment_blocks(rep.quiver, rep.n, rep.mats, rep.zero)


def _moment_blocks(q: Quiver, n: DimVector, mats, zero, lead: tuple = ()) -> tuple:
    """The blocks of ``moment_map`` at the (x_e, y_e) pairs ``mats``; with
    ``lead`` a stack's leading shape, one stacked block per vertex."""
    blocks = [np.full((*lead, ni, ni), zero) for ni in n]
    for (s, t, _), (x, y) in zip(q.orientation, mats):
        if n[s] == 0 or n[t] == 0:
            continue  # contributions through a zero space vanish
        blocks[t] = blocks[t] + x @ y
        blocks[s] = blocks[s] - y @ x
    return tuple(blocks)


def act(g: GroupElement, rep: Representation) -> Representation:
    """x_e -> g_t x_e g_s^-1, y_e -> g_s y_e g_t^-1; one block per vertex, by
    ``_matrix``. A singular block raises ``ValueError`` naming its vertex."""
    _check_same_length("blocks", g.blocks, "n", len(rep.n))
    blocks, inv = [], []
    for i, (b, ni) in enumerate(zip(g.blocks, rep.n)):
        blocks.append(_matrix(b, ni, ni, rep.mode, f"block for vertex {i}"))
        try:
            inv.append(_matrix(linalg.mat_inv(blocks[i]), ni, ni, EXACT) if rep.mode == EXACT
                       else np.linalg.inv(blocks[i]))
        except (ZeroDivisionError, np.linalg.LinAlgError):
            raise ValueError(f"block for vertex {i} is singular") from None
    mats = tuple(
        (blocks[t] @ x @ inv[s], blocks[s] @ y @ inv[t])
        for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats)
    )
    return Representation(rep.quiver, rep.n, rep.mode, mats)


# ---------------------------------------------------------------------------
# linearization and the mu = 0 solver

# Flattening conventions (shared by moment_differential, _flatten, _unflatten):
# rows are moment-map entries, block by block, row-major; columns run over
# edges in orientation order, x_e entries row-major then y_e entries.


def _offsets(sizes) -> list[int]:
    """Start of each block when blocks of these sizes are laid end to end,
    then the total."""
    out = [0]
    for k in sizes:
        out.append(out[-1] + k)
    return out


# the most entries of a d(mu) that is built; past it ``_differential_pattern``
# raises before building one (n = (100,) on one loop asks for 2 * 10^8
# complex entries, 3.2 GB). The largest of any test, ladder or benchmark
# input has 9024
MAX_DIFFERENTIAL = 1 << 20


def _differential_pattern(q: Quiver, n: DimVector) -> tuple:
    """Where each entry of a representation of q with dimension vector n
    lands in d(mu): (plus_pos, plus_src, minus_pos, minus_src, shape), intp
    arrays of flat positions in the matrix and in the flat (x_e, y_e) vector,
    for the terms added and for the terms subtracted, then the shape of the
    matrix. No matrix position appears twice in plus_pos, nor twice in
    minus_pos. Past ``MAX_DIFFERENTIAL`` entries of d(mu) it raises
    ``InvariantError("differential-size")``, so every caller refuses before
    building the pattern or the matrix."""
    row_off = _offsets(ni * ni for ni in n)
    cols = rep_space_dim(q, n)
    if row_off[-1] * cols > MAX_DIFFERENTIAL:
        raise InvariantError(
            "differential-size",
            f"d(mu) at n = {tuple(n)} has {row_off[-1]} x {cols} entries, "
            f"more than {MAX_DIFFERENTIAL}",
        )
    plus_pos, plus_src, minus_pos, minus_src = [], [], [], []
    col = 0
    for s, t, _ in q.orientation:
        ns, nt = n[s], n[t]
        ycol = col + nt * ns  # x_e starts at col in the flat vector, y_e here
        # d(x_e y_e) at block t and -d(y_e x_e) at block s, w.r.t. x entries
        for a in range(nt):
            for b in range(ns):
                c = col + a * ns + b
                for qq in range(nt):  # (E_ab y)[a, qq] = y[b, qq]
                    plus_pos.append((row_off[t] + a * nt + qq) * cols + c)
                    plus_src.append(ycol + b * nt + qq)
                for p in range(ns):  # (-y E_ab)[p, b] = -y[p, a]
                    minus_pos.append((row_off[s] + p * ns + b) * cols + c)
                    minus_src.append(ycol + p * nt + a)
        # w.r.t. y entries
        for cc in range(ns):
            for dd in range(nt):
                c = ycol + cc * nt + dd
                for p in range(nt):  # (x E_cd)[p, dd] = x[p, cc]
                    plus_pos.append((row_off[t] + p * nt + dd) * cols + c)
                    plus_src.append(col + p * ns + cc)
                for qq in range(ns):  # (-E_cd x)[cc, qq] = -x[dd, qq]
                    minus_pos.append((row_off[s] + cc * ns + qq) * cols + c)
                    minus_src.append(col + dd * ns + qq)
        col += 2 * nt * ns
    arrays = (np.array(a, dtype=np.intp) for a in (plus_pos, plus_src, minus_pos, minus_src))
    return (*arrays, (row_off[-1], cols))


def moment_differential(rep: Representation) -> np.ndarray:
    """Matrix of (dx, dy) -> sum [dx, y] + [x, dy], assembled from the entries
    of the representation (exactly in exact mode). Rank is at most
    n^t n - 1.

    The matrix is two scatters of the flat (x_e, y_e) vector z into a
    matrix of zeros, along ``_differential_pattern``: J[plus_pos] +=
    z[plus_src], then J[minus_pos] -= z[minus_src]. A cell gets at most one
    term of each sign, and only the diagonal cells of a loop's column get
    both, so every cell is (0 + y) - y' in the order of the entrywise
    assembly: in float mode the matrix is bit-identical to it, -0.0 entries
    included, and in exact mode it holds the same ``Fraction``s."""
    return _scatter(_differential_pattern(rep.quiver, rep.n), _flatten_mats(rep), rep.zero)


def _scatter(pattern: tuple, z: np.ndarray, zero) -> np.ndarray:
    """d(mu) at the flat vector z: a matrix of ``zero``s, the shape the
    pattern gives, with z scattered in along it. A stack of flat vectors
    (z's last axis) gives the stack of their d(mu)s, each slice the
    matrix of its vector alone."""
    plus_pos, plus_src, minus_pos, minus_src, shape = pattern
    lead = z.shape[:-1]
    J = np.full((*lead, *shape), zero)
    flat = J.reshape(*lead, -1)  # a view: J is contiguous
    flat[..., plus_pos] += z[..., plus_src]
    flat[..., minus_pos] -= z[..., minus_src]
    return J


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _stacked_lstsq(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution x[i] of J[i] x = b[i] for each slice of
    the complex stacks J (k, m, N) and b (k, m), m >= 1, in one call: bit
    for bit ``np.linalg.lstsq(J[i], b[i], rcond=None)[0]``. That wrapper
    refuses a 3-D J, so this calls the gufunc behind it, which runs LAPACK's
    gelsd on each slice with the same rcond and workspace, under the same
    error contract: a slice that gelsd cannot solve, a NaN one say, raises
    ``LinAlgError``. The one use of numpy's private ``_umath_linalg``."""
    rcond = np.finfo(float).eps * max(J.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        x = _umath_linalg.lstsq(J, b[..., None], rcond, signature="DDd->Ddid")[0]
    return x[..., 0]


def _flatten_mats(rep: Representation) -> np.ndarray:
    parts = [m.ravel() for pair in rep.mats for m in pair]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def _unflatten_mats(q: Quiver, n: DimVector, vec: np.ndarray) -> tuple:
    """The (x_e, y_e) pairs of a flat vector, as views into it; of a stack
    of flat vectors (its last axis), the stacked pairs."""
    mats = []
    pos, lead = 0, vec.shape[:-1]
    for s, t, _ in q.orientation:
        x = vec[..., pos : pos + n[t] * n[s]].reshape(*lead, n[t], n[s])
        pos += n[t] * n[s]
        y = vec[..., pos : pos + n[s] * n[t]].reshape(*lead, n[s], n[t])
        pos += n[s] * n[t]
        mats.append((x, y))
    return tuple(mats)


def _float_draws(q: Quiver, n: DimVector, seeds: Sequence[int]) -> np.ndarray:
    """The flat vector of ``random_representation(q, n, seed, "float")``
    for each seed, as the rows of one array: block by block, standard
    normal real parts, then imaginary parts. A seed's 2N normals come from
    one ``standard_normal(2N)`` call of its own generator, the stream of one
    call per block, and each block's real and imaginary parts are gathered
    from it by one index, built once for all seeds."""
    sizes = np.array([k for s, t, _ in q.orientation for k in (n[s] * n[t],) * 2], dtype=np.intp)
    # the block at offset o of size k drew its real parts at 2o..2o+k-1
    # and its imaginary parts at 2o+k..2o+2k-1: entry p of it at p + o
    re = np.repeat(np.cumsum(sizes) - sizes, sizes)
    re += np.arange(len(re))
    G = np.stack([np.random.default_rng(s).standard_normal(2 * len(re)) for s in seeds])
    return G[:, re] + 1j * G[:, re + np.repeat(sizes, sizes)]


def _residual(blocks) -> np.ndarray:
    """The blocks laid end to end, each row-major; stacked blocks give one
    residual per stack entry."""
    return np.concatenate([b.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)


def _residuals(q: Quiver, n: DimVector, Z: np.ndarray) -> np.ndarray:
    """The residual of each row of Z, a stack of flat vectors, in one
    stacked pass. Each edge does one stacked x @ y and y @ x, which
    multiply each slice as the 2-D product does, added into zero blocks in
    orientation order: row i is ``_residual(_moment_blocks(...))`` at
    Z[i], bit for bit."""
    return _residual(_moment_blocks(q, n, _unflatten_mats(q, n, Z), 0j, Z.shape[:-1]))


def _norms(R: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of the complex R, bit for bit: its
    1-D formula sqrt(re . re + im . im), with ``np.vecdot``'s row sums;
    ``norm(axis=1)`` sums in another order."""
    return np.sqrt(np.vecdot(R.real, R.real) + np.vecdot(R.imag, R.imag))


def moment_residual_norm(rep: Representation) -> float:
    """Frobenius norm of the moment map over all blocks (float mode)."""
    return float(np.linalg.norm(_residual(moment_map(rep))))


def _gauss_newton(q: Quiver, n: DimVector, pattern: tuple, seeds: Sequence[int],
                  tol: float) -> list:
    """The searches of ``solve_moment_zero`` from each of ``seeds`` (at
    least one) on the d(mu) ``pattern`` of (q, n), run as one batch: per
    seed, its final flat iterate and residual norm (a float), or the text
    of the ``RuntimeError`` its search ends with. Each seed's trajectory is
    bit for bit that of a search run alone.

    The live seeds are the rows of the iterates Z, their residuals R and
    residual norms N (``_norms``), and ``live`` holds each row's position
    in seeds. Each of 101 passes retires by one mask the rows at tol and
    the rows whose step ran out, and the first 100 step the others: one
    scatter builds their d(mu)s and one ``_stacked_lstsq`` call solves all
    their steps, each slice as a 2-D ``lstsq`` solves it. Then the rows at
    ``at`` backtrack at once, each with its own step: one stacked pass per
    halving judges the candidates z + step * delta, a row whose candidate
    lowers its norm takes it in place and leaves ``at``, and a row whose
    step falls below 2^-40 leaves with its failure. The 101st pass fails
    the rows still searching."""
    out = [None] * len(seeds)

    def unsolved(rows) -> None:
        for i in rows:
            out[live[i]] = (f"moment-map solver did not reach tol={tol:g}; "
                            f"final residual {N[i]:.3e}")

    # mild scaling keeps the start in the basin without landing on 0
    Z = _float_draws(q, n, seeds) * 0.5
    R = _residuals(q, n, Z)
    N, live, step = _norms(R), np.arange(len(seeds)), np.ones(len(seeds))
    least = 2.0**-40  # the smallest step tried
    for k in range(101):
        done = N <= tol
        for i in np.flatnonzero(done):
            out[live[i]] = (Z[i], float(N[i]))
        keep = ~done & (step >= least)  # a row whose step ran out has failed
        live, Z, R, N = live[keep], Z[keep], R[keep], N[keep]
        if k == 100 or not len(live):
            unsolved(range(len(live)))  # the 101st check fails every row left
            break
        D = _stacked_lstsq(_scatter(pattern, Z, 0j), -R)
        step, at = np.ones(len(live)), np.arange(len(live))
        while len(at):
            cand = Z[at] + step[at, None] * D[at]
            cand_r = _residuals(q, n, cand)
            cand_n = _norms(cand_r)
            won = cand_n < N[at]
            Z[at[won]], R[at[won]], N[at[won]] = cand[won], cand_r[won], cand_n[won]
            at = at[~won]
            step[at] *= 0.5
            ran_out = step[at] < least
            unsolved(at[ran_out])  # no step lowered the residual
            at = at[~ran_out]
    return out


def solve_moment_zero(
    q: Quiver,
    n: DimVector,
    seed: int = 0,
    tol: float = 1e-12,
) -> Representation:
    """Damped Gauss-Newton search for a point of mu^-1(0), float mode, from
    a seeded random start, for at most 100 steps.

    Each step solves the complex least-squares linearization and backtracks
    until the residual drops; a backtracking candidate is judged on its flat
    vector. The search runs on flat vectors alone, as a batch of one seed
    of ``_gauss_newton``: the d(mu) scatter pattern of (q, n) is built once
    per call and serves every step, and one Representation, a read-only
    copy of the final iterate, is built at the end. Deterministic given the
    seed. Refuses a negative ``seed`` and a ``tol`` that is not positive and
    finite; raises RuntimeError (carrying the final residual) on
    non-convergence. n must pass ``check_bound``.
    """
    n = check_bound(q, n)
    _check_count("seed", seed)
    _check_tol("tol", tol)
    (got,) = _gauss_newton(q, n, _differential_pattern(q, n), (seed,), tol)
    if isinstance(got, str):
        raise RuntimeError(got)
    return Representation(q, n, FLOAT, _unflatten_mats(q, n, got[0]))


def _ranks(matrices: np.ndarray, tol: float) -> np.ndarray:
    """The numerical rank of each matrix of a stack (of one 2-D matrix, an
    array of shape ()), from one stacked SVD: the singular values above tol
    times the largest. A matrix without entries, or of zeros, has rank 0."""
    sv = np.linalg.svd(matrices, compute_uv=False)
    return (sv > tol * sv[..., :1]).sum(axis=-1)


def numeric_rank(matrix: np.ndarray, tol: float = 1e-8) -> int:
    """Singular values below tol * (largest singular value) count as zero
    (``_ranks``, the rule ``verify_ci_dim`` applies to a stack). Refuses a
    ``matrix`` that is not 2-D and a ``tol`` that is not positive and
    finite (``ValueError``)."""
    _check_tol("tol", tol)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got an array of shape {matrix.shape}")
    return int(_ranks(matrix, tol))


@dataclass(frozen=True)
class CiTrial:
    seed: int
    residual: float
    rank: int
    local_dim: int


@dataclass(frozen=True)
class CiDimReport:
    n: DimVector
    seed: int
    expected_rank: int
    expected_dim: int
    trials: tuple[CiTrial, ...]
    matching_trials: int
    advisory: bool  # True when the simple-existence criterion fails for n
    failures: tuple[str, ...] = ()


# the most trials of ``verify_ci_dim``, checked before the first one: each
# trial runs one Gauss-Newton search and adds one entry to the report (400
# trials on the elliptic pair took 0.2-0.45 s and 49 KB of JSON). Every
# test, ladder and benchmark caller asks for at most 20
MAX_TRIALS = 1024


def verify_ci_dim(
    q: Quiver,
    n: DimVector,
    trials: int = 10,
    rank_tol: float = 1e-8,
    residual_tol: float = 1e-10,
    seed: int = 0,
) -> CiDimReport:
    """At seeded solutions of mu = 0, the numerical rank of d(mu) should be
    n^t n - 1, making the local dimension dim Rep - rank the complete
    intersection dimension 2p(n) + n^t n - 1. One d(mu) scatter pattern,
    built per call, serves every trial's steps and final rank; a trial's
    residual is its search's last norm. The trials' searches run in
    batches of ``_gauss_newton``, each of at most ``MAX_DIFFERENTIAL //
    (m N)`` seeds (at least one), m and N the rows and columns of d(mu),
    each counted as at least 1, so no stack of d(mu)s, iterates or
    residuals holds more entries than one d(mu) may. A batch's converged
    iterates are scattered as one stack, and one stacked SVD gives their
    ranks, each by ``numeric_rank``'s rule on its own slice. The report is
    the one of searches run one by one. ``trials=0`` runs no search.
    Refuses a negative ``trials`` or
    ``seed`` and a tolerance that is not positive and finite
    (``ValueError``), and more than ``MAX_TRIALS`` trials
    (``InvariantError("ci-trials")``). n must pass ``check_bound``."""
    n = check_bound(q, n)
    _check_count("trials", trials)
    if trials > MAX_TRIALS:
        raise InvariantError("ci-trials", f"{trials} trials, more than {MAX_TRIALS}")
    _check_tol("rank_tol", rank_tol)
    _check_tol("residual_tol", residual_tol)
    _check_count("seed", seed)
    expected_rank = sum(x * x for x in n) - 1
    expected_dim = mu_zero_expected_dim(q, n)
    if rep_space_dim(q, n) - expected_rank != expected_dim:
        raise MathAssertionError("dim Rep - (n.n - 1) != 2p(n) + n.n - 1")
    pattern, results, failures = _differential_pattern(q, n), [], []
    seeds = range(seed, seed + trials)
    m, N = pattern[-1]
    size = max(1, MAX_DIFFERENTIAL // (max(m, 1) * max(N, 1)))
    for b in range(0, trials, size):
        batch = seeds[b : b + size]
        got = list(zip(batch, _gauss_newton(q, n, pattern, batch, residual_tol)))
        failures += [f"seed {s}: {g}" for s, g in got if isinstance(g, str)]
        solved = [(s, g) for s, g in got if not isinstance(g, str)]
        if solved:
            Z = np.stack([z for _, (z, _) in solved])
            for (s, (_, res)), rank in zip(solved, _ranks(_scatter(pattern, Z, 0j), rank_tol)):
                results.append(CiTrial(s, res, int(rank), N - int(rank)))
    matching = sum(
        1 for r in results if r.rank == expected_rank and r.residual <= residual_tol
    )
    return CiDimReport(
        tuple(n),
        seed,
        expected_rank,
        expected_dim,
        tuple(results),
        matching,
        advisory=not cb_simple_exists(q, n).exists,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# simplicity, subrepresentations, stability


def _block_adder(tol: float):
    """The float adder of a fresh span of flattened matrices, True exactly
    when the span grew: an orthonormal basis and a relative tolerance."""
    basis: list[np.ndarray] = []

    def try_add(v) -> bool:
        w = v
        for b in basis:
            w = w - (b.conj() @ w) * b
        norm = np.linalg.norm(w)
        if norm > tol * max(1.0, float(np.linalg.norm(v))):
            basis.append(w / norm)
            return True
        return False

    return try_add


def _cleared(m: np.ndarray) -> np.ndarray:
    """The exact matrix m times the lcm of its denominators, as an object
    array of Python ints."""
    return np.array(linalg.cleared(m.flat)[1], dtype=object).reshape(m.shape)


# The modular pass of ``is_simple`` runs mod _P, a prime below 2**25: a
# product of two residues is below 2**50, so a sum of at most _MOD_TERMS =
# 2**13 such products fits in int64. The pass sums at most max(n)**2 of them
# (a ``_mod_adder`` reduction against the rows of a span of n_k x n_i
# blocks; an arrow times a block sums max(n)), so it runs only when
# max(n)**2 <= _MOD_TERMS.
_P = 33554393
_MOD_TERMS = 2**13


def _mod_adder(width: int, mod: int):
    """The adder of a fresh span of int64 vectors of this width over Z/mod,
    True exactly when the span grew: RREF rows with unit pivots, each zero
    at the other rows' pivots, in rows preallocated for a full span. So a
    vector's residue is v - v[pivots] @ rows, one sum of at most ``width``
    products of residues."""
    rows = np.zeros((width, width), dtype=np.int64)
    pivots = np.zeros(width, dtype=np.intp)
    r = 0

    def try_add(v) -> bool:
        nonlocal r
        if r:
            v = (v - v[pivots[:r]] @ rows[:r]) % mod
        nonzero = v.nonzero()[0]
        if not len(nonzero):
            return False
        p = nonzero[0]
        v = v * pow(int(v[p]), -1, mod) % mod
        if r:
            rows[:r] -= rows[:r, p, None] * v
            rows[:r] %= mod
        rows[r], pivots[r] = v, p
        r += 1
        return True

    return try_add


def _closure(n: DimVector, arrows, vertex: int, seed: np.ndarray, adders, mod=None) -> int:
    """Close the n_vertex x c block ``seed`` under left multiplication by
    ``arrows`` (a ``Representation._arrows``, or those arrows mod ``mod``),
    level by level. Each image at a vertex k, flattened, goes to
    ``adders[k]``, which is True exactly when its span grew; only those
    images are multiplied further. Stops once every span is full and
    returns the sum of their dimensions. In exact mode the arrows and the
    seed are integer arrays, so every image is an integer multiple of the
    rational one and the closure does no ``Fraction`` arithmetic; the spans
    are the same (see ``linalg.Span``). With ``mod`` each image is reduced
    mod it, so that int64 arrays hold it."""
    frontier = [(vertex, seed)] if adders[vertex](seed.ravel()) else []
    dim, full = len(frontier), sum(n) * seed.shape[1]
    while frontier and dim < full:
        nxt = []
        for j, m in frontier:
            for k, a in arrows[j]:
                p = a @ m if mod is None else a @ m % mod
                if adders[k](p.ravel()):
                    nxt.append((k, p))
        dim += len(nxt)
        frontier = nxt
    return dim


def is_simple(rep: Representation) -> bool:
    """Block-graded Burnside/density test: the image of the path algebra is
    graded by pairs of vertices, so the representation is simple exactly
    when, for each vertex i of the support, the paths out of i (the closure
    of e_i under left multiplication by the arrows) span Hom(V_i, V_j) for
    every j in the support (``_exact_simple``; ``_float_simple`` takes the
    rank per block with the relative tolerance 1e-8). The verdict is kept in
    ``Representation._simple``, which ``check_stability`` reads too."""
    return rep._simple


def _float_simple(rep: Representation) -> bool:
    """The float ``is_simple`` verdict: e_i closed on ``_block_adder`` spans."""
    n, N = rep.n, sum(rep.n)
    return N > 0 and all(_closure(n, rep._arrows, i, np.eye(ni, dtype=complex),
                                  [_block_adder(1e-8) for _ in n]) == ni * N
                         for i, ni in enumerate(n) if ni)


def _exact_simple(rep: Representation) -> bool:
    """The exact ``is_simple`` verdict, vertex by vertex over the support:
    within the int64 bound above ``_mod_adder``, e_i closed mod the prime
    ``_P``, which certifies the vertex when full (each vector reduces an
    integer path product, and a rank over Z/P is never above the rank over
    Q); at a vertex left uncertified, the coordinate probes
    (``_coordinate_spans``), a proper one deciding False; then at n_i > 1
    the exact closure of e_i (at n_i = 1 the probe is that closure)."""
    n, N = rep.n, sum(rep.n)
    mod_arrows = ([[(k, (a % _P).astype(np.int64)) for k, a in outs] for outs in rep._arrows]
                  if max(n) ** 2 <= _MOD_TERMS else None)
    for i, ni in enumerate(n):
        if ni == 0:
            continue
        if mod_arrows is not None:
            adders = [_mod_adder(nk * ni, _P) for nk in n]
            if _closure(n, mod_arrows, i, np.eye(ni, dtype=np.int64), adders, _P) == ni * N:
                continue
        if any(tuple(sp.dim for sp in _coordinate_spans(rep, i, k)) != n for k in range(ni)):
            return False
        # np.eye of dtype object holds the Python ints 0 and 1
        if ni > 1 and _closure(n, rep._arrows, i, np.eye(ni, dtype=object),
                               [linalg.Span().add for _ in n]) < ni * N:
            return False
    return N > 0


def _graded(spans: Sequence[linalg.Span]) -> tuple[DimVector, tuple]:
    """Dimension vector and bases of a graded subspace held as one span per
    vertex."""
    return tuple(sp.dim for sp in spans), tuple(tuple(sp.basis()) for sp in spans)


def _cyclic_spans(rep: Representation, vertex: int, vector: Sequence) -> list[linalg.Span]:
    """The spans, one per vertex, of the closure of the cleared vector, as
    an n_vertex x 1 block, under the representation's cleared arrows."""
    spans = [linalg.Span() for _ in rep.n]
    seed = np.array(linalg.cleared(vector)[1], dtype=object).reshape(-1, 1)
    _closure(rep.n, rep._arrows, vertex, seed, [sp.add for sp in spans])
    return spans


def cyclic_subrep(
    rep: Representation, vertex: int, vector: Sequence
) -> tuple[DimVector, tuple[tuple[linalg.Vector, ...], ...]]:
    """Smallest subrepresentation containing the given vector (exact mode):
    ``_graded`` of ``_cyclic_spans``."""
    if rep.mode != EXACT:
        raise ValueError("cyclic_subrep requires exact mode")
    if not 0 <= vertex < len(rep.n):
        raise ValueError(f"vertex {vertex} is not in 0..{len(rep.n) - 1}")
    _check_same_length("vector", vector, f"V_{vertex}", rep.n[vertex])
    return _graded(_cyclic_spans(rep, vertex, [_as_rational(x, "vector") for x in vector]))


def _invariance_holds(rep: Representation, spans: Sequence[linalg.Span]) -> bool:
    """Exact check that the graded spans are stable under every arrow: the
    integer RREF rows of each span, times each cleared arrow out of its
    vertex (``Representation._arrows``), must lie in the span at the arrow's
    target. No ``Fraction`` is multiplied."""
    for src, outs in enumerate(rep._arrows):
        rows = spans[src].rows
        if rows and outs:
            rows = np.array(rows, dtype=object)
            for dst, a in outs:
                if not all(map(spans[dst].contains, rows @ a.T)):
                    return False
    return True


def graded_invariance_holds(rep: Representation, bases: Sequence[Sequence[Sequence]]) -> bool:
    """``_invariance_holds`` on the spans of the given bases, one per vertex."""
    _check_same_length("bases", bases, "n", len(rep.n))
    return _invariance_holds(rep, [linalg.Span(vecs) for vecs in bases])


def slope_theta(theta: Sequence, beta: Sequence[int]) -> Fraction:
    """``theta_dot(theta, beta) / sum(beta)``, for a nonzero beta of theta's length."""
    num = theta_dot(theta, beta)
    tot = sum(beta)
    if tot == 0:
        raise ValueError("slope of the zero dimension vector is undefined")
    return num / tot


# the most restarts of the float stability search: it tiles restarts x n_i x
# beta_i complex frames before its first step. The default is 6, and no test
# or tool asks for more than 5
MAX_RESTARTS = 64
# the most probes per vertex of the exact stability search: it closes the
# span of each probe, so its time grows with them (10000 probes took 1.32 s
# on one affine (2, 2) representation). The default is 4, no test or tool
# asks for more, and 200 settled every search found to miss a destabilizer
MAX_PROBES = 1024
# the largest total dimension sum(n) of the exact stability search, checked
# before its first probe: the coordinate probes alone grow with it (the
# zero representation of the disjoint pair at n = (800, 1) ran 0.95 s, at
# (20000, 1) 29.5 s, before finding too many subspaces). The largest of any
# test, ladder or benchmark search is 8
MAX_SEARCH_SIZE = 64


@dataclass(frozen=True)
class SearchBudget:
    """The stability search's budget. Refuses a count that is not a
    non-negative integer and a ``tol`` that is not positive and finite
    (``ValueError``), more than ``MAX_PROBES`` probes
    (``InvariantError("search-probes")``) and more than ``MAX_RESTARTS``
    restarts (``InvariantError("search-restarts")``)."""

    probes: int = 4
    restarts: int = 6
    iters: int = 200
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("probes", "restarts", "iters", "seed"):
            _check_count(name, getattr(self, name))
        _check_tol("tol", self.tol)
        if self.probes > MAX_PROBES:
            raise InvariantError(
                "search-probes", f"{self.probes} probes, more than {MAX_PROBES}"
            )
        if self.restarts > MAX_RESTARTS:
            raise InvariantError(
                "search-restarts", f"{self.restarts} restarts, more than {MAX_RESTARTS}"
            )


@dataclass(frozen=True)
class CertifiedUnstable:
    beta: DimVector
    slope: Fraction
    basis: tuple
    defect: float = 0.0


@dataclass(frozen=True)
class StrictlySemistableWitness:
    beta: DimVector
    basis: tuple
    defect: float = 0.0


@dataclass(frozen=True)
class NoDestabilizerFound:
    """Records the search budget only. Not a proof of semistability, except
    where ``is_simple`` holds (in float mode, its rank test), which
    ``check_stability`` tests first: a simple representation has no proper
    nonzero subrepresentation, so no destabilizer for any theta."""

    probes: int
    restarts: int
    tolerance: float


StabilityVerdict = CertifiedUnstable | StrictlySemistableWitness | NoDestabilizerFound


# the most invariant graded subspaces the exact stability search records;
# past it the search raises instead of running for minutes (the zero
# representation of the elliptic pair at n = (4, 4) reaches 6628 in 55 s).
# The most any test, ladder or benchmark input reaches is 59
MAX_INVARIANT_SPANS = 1024


class _Subspaces:
    """The subspaces of Q^width that one exact search meets, interned: each
    distinct ``_rows`` tuple gets a small int id, kept with its rows, and
    the sum of two ids is worked out once per search (``join``). The zero
    subspace and the whole space are interned first (at width 0 they are
    one). A sum with a full side is full, and a sum with a hyperplane side
    H needs no elimination: H + B is H when B lies in H, which the integer
    dot product of each row of B with H's normal decides, and the whole
    space otherwise. Only the other sums run ``_join``."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.sums: dict[tuple[int, int], int] = {}
        self.normals: dict[int, tuple] = {}
        self.zero = self.intern(())
        self.full = self.intern(tuple(tuple(int(i == j) for j in range(width))
                                      for i in range(width)))

    def intern(self, rows: tuple) -> int:
        k = self.ids.get(rows)
        if k is None:
            k = self.ids[rows] = len(self.rows)
            self.rows.append(rows)
        return k

    def join(self, a: int, b: int) -> int:
        """The id of the sum of the subspaces a and b."""
        if a == b or b == self.zero:
            return a
        if a == self.zero:
            return b
        if a == self.full or b == self.full:
            return self.full
        key = (a, b) if a < b else (b, a)
        s = self.sums.get(key)
        if s is None:
            s = self.sums[key] = self._sum(*key)
        return s

    def _sum(self, a: int, b: int) -> int:
        ra, rb = self.rows[a], self.rows[b]
        if len(rb) == self.width - 1:
            a, ra, rb = b, rb, ra
        if len(ra) == self.width - 1:
            normal = self._normal(a)
            inside = not any(sum(map(operator.mul, normal, r)) for r in rb)
            return a if inside else self.full
        return self.intern(_rows(_join(ra, rb)))

    def _normal(self, h: int) -> tuple:
        """An integer normal of the hyperplane h, kept per id. Each RREF
        row k of a hyperplane is c_k at its pivot p_k and a_k at the one
        free column f, so the normal is L at f and -a_k * L / c_k at p_k,
        with L the lcm of the c_k."""
        normal = self.normals.get(h)
        if normal is None:
            rows = self.rows[h]
            pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
            f = next(j for j in range(self.width) if j not in pivots)
            L = lcm(*(r[p] for r, p in zip(rows, pivots)))
            entries = [0] * self.width
            entries[f] = L
            for r, p in zip(rows, pivots):
                entries[p] = -r[f] * (L // r[p])
            normal = self.normals[h] = tuple(entries)
        return normal


def _coordinate_spans(rep: Representation, vertex: int, k: int) -> list[linalg.Span]:
    """``_cyclic_spans`` of the k-th coordinate vector of V_vertex, kept in
    ``Representation._probe_spans``, so that ``is_simple``'s probes and the
    exact search close each one once per representation."""
    spans = rep._probe_spans.get((vertex, k))
    if spans is None:
        unit = [int(j == k) for j in range(rep.n[vertex])]
        spans = rep._probe_spans[vertex, k] = _cyclic_spans(rep, vertex, unit)
    return spans


def _exact_invariant_spans(rep: Representation, budget: SearchBudget) -> list[tuple]:
    """The invariant graded subspaces the exact search finds, in order, each
    as its ``_rows`` per vertex: cyclic subrepresentations of the coordinate
    and seeded random probes, then pairwise sums until a pass adds nothing.
    The coordinate probes are read from ``_coordinate_spans``, so those that
    ``is_simple`` closed on the same representation are not closed again.
    The search runs on interned subspaces (``_Subspaces``, one table per
    width, shared by the vertices of that n_i): a graded subspace is a
    tuple of ids, and each sum of two subspaces at a vertex is worked out
    once per search, most of them off a full side or a hyperplane's normal
    with no elimination. Rows are read back once, at the return. Past
    ``MAX_INVARIANT_SPANS`` subspaces it raises
    ``InvariantError("invariant-spans")``."""
    n = rep.n
    rng = random.Random(budget.seed)
    tables = {ni: _Subspaces(ni) for ni in set(n)}
    vtables = [tables[ni] for ni in n]
    zero = tuple(t.zero for t in vtables)
    full = tuple(t.full for t in vtables)
    # an ordered set of the found graded subspaces, as tuples of ids;
    # primitive integer rows determine a subspace, so equal ids are equal
    # subspaces and the joins below build no Fraction
    found: dict[tuple, None] = {}

    def record(ids: tuple):
        if ids not in found and ids != zero and ids != full:
            found[ids] = None
            if len(found) > MAX_INVARIANT_SPANS:
                raise InvariantError(
                    "invariant-spans",
                    f"the exact stability search at n = {n} found more than "
                    f"{MAX_INVARIANT_SPANS} invariant subspaces",
                )

    for i, ni in enumerate(n):
        for k in range(ni):
            rows = map(_rows, _coordinate_spans(rep, i, k))
            record(tuple(map(_Subspaces.intern, vtables, rows)))
        for _ in range(budget.probes if ni else 0):
            vec = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ni)]
            if any(vec):
                rows = map(_rows, _cyclic_spans(rep, i, vec))
                record(tuple(map(_Subspaces.intern, vtables, rows)))
    # sums of invariant spans are invariant: close the found set under
    # pairwise sums until stable (the join-closure of the probe spans). A
    # pass joins only the pairs with an entry new in the previous pass; the
    # older pairs were joined before, so the order of ``found`` is the same.
    done = 0
    while True:
        singles = list(found)
        for a in range(len(singles)):
            sa = singles[a]
            for b in range(max(a + 1, done), len(singles)):
                record(tuple(map(_Subspaces.join, vtables, sa, singles[b])))
        if len(found) == len(singles):
            break
        done = len(singles)
    return [tuple(map(lambda t, k: t.rows[k], vtables, ids)) for ids in found]


def _rows(span: linalg.Span) -> tuple:
    """The RREF rows of a span by pivot column, as tuples: a hashable form
    that determines the subspace."""
    return tuple(tuple(r) for _, r in sorted(zip(span.pivots, span.rows)))


def _join(ra, rb) -> linalg.Span:
    """The sum of two spans given by their RREF rows: the larger side's
    rows as they are, then the other side's added until the span is full.
    A full span of such rows is the identity, in which every row left
    would reduce to zero."""
    if len(rb) > len(ra):
        ra, rb = rb, ra
    span = linalg.Span.echelon(ra)
    for r in rb:
        if span.dim == len(r):
            break
        span.add(r)
    return span


def _arrow_groups(rep: Representation) -> list:
    """The arrows grouped by (source, target), each group stacked as
    A[k, n_t, n_s] together with its conjugate transpose."""
    groups: dict[tuple[int, int], list] = {}
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        groups.setdefault((s, t), []).append(x)
        groups.setdefault((t, s), []).append(y)
    return [(s, t, np.stack(a), np.stack(a).conj().swapaxes(1, 2)) for (s, t), a in groups.items()]


def _singular_tails(groups) -> list:
    """(s, t, tail) per arrow group with s != t (a loop bounds nothing): tail[i]
    sums sigma_k(A)^2 over its arrows A and k > i, 1-indexed, down to
    tail[min(n_s, n_t)] = 0."""
    tails = []
    for s, t, A, _ in groups:
        if s != t:
            sq = (np.linalg.svd(A, compute_uv=False) ** 2).sum(axis=0)
            tails.append((s, t, np.append(np.cumsum(sq[::-1])[::-1], 0.0)))
    return tails


def _defect_floor(tails, n, beta) -> float:
    """A floor on the defect of every frame tuple of dimensions beta: per
    arrow, sigma_k(A)^2 summed over n_s - beta_s + beta_t < k <= n_s. By
    Cauchy interlacing sigma_j(A U_s) >= sigma_(j + n_s - beta_s)(A), and by
    Eckart-Young P_t A U_s has rank at most beta_t."""
    return sum(tail[min(n[s] - beta[s] + beta[t], len(tail) - 1)] for s, t, tail in tails)


def _defect_and_grad(groups, frames):
    """The defect sum |(1 - P_t) A P_s|^2 over the arrows, P_i = U_i U_i^H,
    and its gradient in every moving frame (None in the others), for R
    restarts at once: frames[i] is a stack (R, n_i, beta_i) of orthonormal
    frames. An identity frame (beta_i = n_i) or an empty one (beta_i = 0)
    needs no special case in the defect."""
    defect = np.zeros(len(frames[0]))
    grads = [np.zeros_like(u) if 0 < u.shape[2] < u.shape[1] else None for u in frames]
    heads = [u.conj().swapaxes(1, 2)[:, None] for u in frames]
    for s, t, A, AH in groups:
        B = A @ frames[s][:, None]
        C = heads[t] @ B
        res = B - frames[t][:, None] @ C
        defect += (res.conj() * res).real.sum(axis=(1, 2, 3))
        if grads[s] is not None:
            grads[s] += (AH @ res).sum(axis=1)
        if grads[t] is not None:
            grads[t] -= (B @ C.conj().swapaxes(2, 3)).sum(axis=1)
    return defect, grads


def _minimize_defect(rep, beta, budget, rng, groups, ruled_out=False):
    """Projected gradient descent on the frames from ``budget.restarts``
    random starts, run as one batch: each restart keeps its own step size
    and stops at ``tol``, after ``iters`` steps or when its step size
    underflows. ``groups`` are the representation's ``_arrow_groups``, built
    once per search. Returns (defect, frames) of the first restart below
    ``tol``, else of the first with the least defect, the frames as
    read-only copies (``_matrix``) that keep no stack alive; None without
    restarts or, once its start frames are drawn (so that every later
    candidate meets the same rng stream), when ``ruled_out`` by its floor."""
    R = budget.restarts
    if R == 0:
        return None
    frames = [np.tile(np.eye(ni, bi, dtype=complex), (R, 1, 1)) for ni, bi in zip(rep.n, beta)]
    moving = [i for i, (ni, bi) in enumerate(zip(rep.n, beta)) if 0 < bi < ni]
    shapes = [frames[i].shape[1:] for i in moving]
    # the draws of one restart after another, as the sequential search made them
    draws = [[rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in shapes]
             for _ in range(R)]
    if ruled_out:
        return None
    for k, i in enumerate(moving):
        frames[i] = np.linalg.qr(np.array([d[k] for d in draws]))[0]
    defect, grads = _defect_and_grad(groups, frames)
    # with no moving frame every step is rejected: nothing to descend
    eta, live = np.full(R, 0.1), np.full(R, bool(moving))
    for _ in range(budget.iters):
        # a restart below tol is done, and the restarts after it can no longer be chosen
        live &= np.cumsum(defect < budget.tol) == 0
        if not live.any():
            break
        cand = list(frames)
        for i in moving:
            cand[i] = np.linalg.qr(frames[i] - eta[:, None, None] * grads[i])[0]
        cdef, cgrads = _defect_and_grad(groups, cand)
        take = live & (cdef < defect)
        for i in moving:
            frames[i][take], grads[i][take] = cand[i][take], cgrads[i][take]
        defect[take] = cdef[take]
        eta = np.where(take, np.minimum(eta * 1.25, 1.0), np.where(live, eta * 0.5, eta))
        live &= eta >= 1e-12
    r = int(np.argmin(np.where(defect < budget.tol, -1.0, defect)))
    return defect[r], [_matrix(f[r], *f.shape[1:], FLOAT) for f in frames]


def _projector_defect(rep: Representation, frames) -> float:
    """Sum over arrows of |(1 - P_t) A P_s|^2 with P_i = U_i U_i^H, computed
    directly from the frames, independently of the search's kernel."""
    projs = [u @ u.conj().T for u in frames]
    return float(sum(
        np.linalg.norm(a @ projs[s] - projs[t] @ a @ projs[s]) ** 2
        for (s0, t0, _), (x, y) in zip(rep.quiver.orientation, rep.mats)
        for a, s, t in ((x, s0, t0), (y, t0, s0))
    ))


def check_stability(
    rep: Representation, theta: Sequence, budget: SearchBudget | None = None
) -> StabilityVerdict:
    """Destabilizer search, by scalar mode, with one verdict rule.

    Both modes rank the candidate subrepresentations of slope >= 0 by
    (-slope, dimension vector). The best one certified gives the verdict:
    ``CertifiedUnstable`` when its slope is positive, else
    ``StrictlySemistableWitness``. Absence of a witness is reported as
    NoDestabilizerFound and is in general not a semistability proof.

    Both modes take theta by ``_stability_parameter``, cleared to integers
    once, so each candidate's slope is one ``Fraction``, ``slope_theta``'s.

    Exact mode refuses sum(n) past ``MAX_SEARCH_SIZE``
    (``InvariantError("search-size")``), float mode a box past
    ``MAX_ROOT_BOX`` (``checked_box``). Then both skip the search exactly
    when ``is_simple`` holds, the verdict kept on the representation (in
    float mode a rank test at relative tol 1e-8): a simple
    representation has no proper nonzero subrepresentation. A float one
    near a reducible one that passes the rank test gets
    ``NoDestabilizerFound`` where its search would certify a witness.
    Otherwise exact mode searches (``_exact_invariant_spans``): cyclic
    subrepresentations from coordinate and seeded random probe vectors,
    the coordinate ones read from the spans ``is_simple``'s probes left
    on the representation, then their closure under pairwise sums on
    interned subspaces, each sum of two subspaces at a vertex worked out
    once per call, and eliminated only when neither side is full or a
    hyperplane, whose sums one integer normal decides. Every
    span found is checked for arrow-invariance on its integer RREF rows,
    and the best-ranked one wins, the first found among equal ranks. Only
    the winner is read out as ``Fraction`` bases. Float mode runs a
    gradient-descent search over graded projection frames for each
    dimension vector of the box 0 <= beta <= n (``checked_box``) in rank
    order, and the first it certifies wins; below a sum |A|_F^2 of 1 over
    all arrows, on the representation scaled to 1, as the absolute tol would
    pass a small one's non-invariant subspace (a scalar moves no
    subrepresentation). It skips a beta whose singular-value floor
    (``_defect_floor``) no frame could get under tol, which changes no
    verdict. Its witness frames are read-only copies.
    """
    budget = budget or SearchBudget()
    n = rep.n
    den, itheta = _stability_parameter(theta, n)

    def ranked(candidates):
        """The (slope, beta, x) of the candidates (beta, x) of slope >= 0, by
        (-slope, beta); candidates of equal rank keep their order."""
        slopes = ((Fraction(sum(map(operator.mul, itheta, beta)), den * sum(beta)), beta, x)
                  for beta, x in candidates)
        return sorted((c for c in slopes if c[0] >= 0), key=lambda c: (-c[0], c[1]))

    def verdict(sl, beta, basis, defect=0.0):
        if sl > 0:
            return CertifiedUnstable(beta, sl, basis, defect)
        return StrictlySemistableWitness(beta, basis, defect)

    if rep.mode != EXACT:
        box = checked_box(n)
    elif sum(n) > MAX_SEARCH_SIZE:
        raise InvariantError("search-size", f"the exact stability search at n = {n} has "
                             f"total dimension {sum(n)}, more than {MAX_SEARCH_SIZE}")
    if is_simple(rep):  # no proper subrepresentation: nothing to find
        return NoDestabilizerFound(budget.probes, budget.restarts, budget.tol)
    if rep.mode == EXACT:
        found = []
        for rows in _exact_invariant_spans(rep, budget):
            spans = [linalg.Span.echelon(r) for r in rows]
            if not _invariance_holds(rep, spans):
                raise MathAssertionError("cyclic span is not arrow-invariant")
            found.append((tuple(map(len, rows)), spans))
        best = ranked(found)
        if best:
            sl, _, spans = best[0]
            return verdict(sl, *_graded(spans))
    else:  # a numeric subspace search per candidate dimension vector
        rng = np.random.default_rng(budget.seed)
        norm = sqrt(sum(np.vdot(a, a).real for pair in rep.mats for a in pair))
        if 0 < norm < 1:  # searched at unit scale, which moves no subrepresentation
            rep = Representation(rep.quiver, n, FLOAT, [(x / norm, y / norm) for x, y in rep.mats])
        groups = _arrow_groups(rep)
        tails = _singular_tails(groups)
        # no frame whose floor passes this gets both defects below tol, rounding included
        slack = 2 * budget.tol + 1e-12 * sum(np.vdot(a, a).real for _, _, a, _ in groups)
        for sl, beta, _ in ranked((b, None) for b in box if any(b) and b != n):
            best = _minimize_defect(rep, beta, budget, rng, groups,
                                    _defect_floor(tails, n, beta) > slack)
            if best is not None and best[0] < budget.tol:
                defect = _projector_defect(rep, best[1])  # rechecked without the kernel
                if defect < budget.tol:
                    return verdict(sl, beta, tuple(best[1]), defect)
    return NoDestabilizerFound(budget.probes, budget.restarts, budget.tol)


def direct_sum(*reps: Representation) -> Representation:
    """Blockwise direct sum; all summands must share quiver and mode."""
    if not reps:
        raise ValueError("need at least one representation")
    q = reps[0].quiver
    mode = reps[0].mode
    if any(r.quiver != q or r.mode != mode for r in reps):
        raise ValueError("direct sum requires a common quiver and scalar mode")
    n = tuple(sum(r.n[i] for r in reps) for i in range(q.s))
    mats = tuple(
        tuple(_blockdiag([r.mats[e][k] for r in reps], reps[0].zero) for k in (0, 1))
        for e in range(len(q.orientation))
    )
    return Representation(q, n, mode, mats)


def _blockdiag(blocks: Sequence[np.ndarray], zero) -> np.ndarray:
    out = np.full((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), zero)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def dual(rep: Representation) -> Representation:
    """Transpose all matrices and swap the roles of x_e and y_e.

    An involution; the moment-map blocks of the dual are the transposes of
    the original blocks.
    """
    mats = tuple((y.T, x.T) for x, y in rep.mats)
    return Representation(rep.quiver, rep.n, rep.mode, mats)


def annihilator_witness(
    rep: Representation, beta: DimVector, bases
) -> tuple[DimVector, tuple]:
    """Convert an invariant graded subspace of rep into the annihilator
    witness for dual(rep): dimension vector n - beta, verified invariant.
    Raises ValueError unless beta and the bases have one entry per vertex,
    and the bases have dimension vector beta and span an invariant subspace."""
    if rep.mode != EXACT:
        raise ValueError("annihilator conversion implemented for exact mode")
    n = rep.n
    _check_same_length("beta", beta, "n", len(n))
    _check_same_length("bases", bases, "n", len(n))
    comp = tuple(ni - bi for ni, bi in zip(n, beta))
    out_bases = tuple(
        tuple(linalg.nullspace(vecs or np.empty((0, ni), dtype=object)))
        for ni, vecs in zip(n, bases)
    )
    dims = tuple(len(b) for b in out_bases)
    if dims != comp:
        raise ValueError("annihilator dimensions disagree with n - beta")
    if not graded_invariance_holds(dual(rep), out_bases):
        raise ValueError("annihilator of an invariant subspace is not invariant")
    return comp, out_bases
