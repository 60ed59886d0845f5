"""Independent oracles used by the test suite.

These deliberately take different routes from the library code they check:
the simplicity oracle decides existence of a proper invariant graded subspace
over the complex numbers by direct case analysis (coordinate subspaces plus
exact common-invariant-line decisions), the sweep oracle counts cells of a
2-dimensional central arrangement by an exact angular sweep, and the
Zaslavsky oracle counts chambers in any dimension from the intersection
lattice of the walls. ``reference_nullspace`` and ``reference_mat_inv`` are
column-by-column Gauss-Jordan eliminations, independent of ``linalg.Span``,
and ``mod_p_is_simple`` and ``mod_p_witness_holds`` decide simplicity and
the invariance of a witness mod a prime, in plain ints, independent of it.
``reference_reduce`` is ``Span.reduce`` with the gcd divided out at every
step, as it was before it ran fraction-free, and ``reference_span`` the
span built on it.
``reference_is_simple`` is the Burnside closure on the whole of End(V),
with no grading, ``reference_cyclic_subrep`` the closure of one vector
taken depth first with ``linalg.mat_vec``, ``reference_invariant_spans``
the exact stability search, built on it, that re-joins every pair of spans
until nothing new appears, ``graded_invariant_spans`` the library's search
in the same form, and ``reference_invariance_holds`` the
invariance check on ``Fraction`` images, one basis vector at a time.
``unipotent_conjugate`` hides the invariant subspaces of an exact
representation by a seeded change of basis.
``reference_float_search`` is the float stability search run one restart
and one arrow at a time on projector matrices, and
``reference_defect_and_grad`` its objective and gradient.
``reference_decompositions`` is the root-decomposition recursion without a
memo: each root in turn is skipped or used k times.
``fraction_fm_core`` is Fourier-Motzkin with the back-substitution in
``Fraction``s that ``walls._fm_core`` had before it ran in integers, on
row lists rather than a row table, and ``chamber_set_digest`` the sha256
of a ``ChamberSet``.
``reference_wall_slice_vertices`` is the ``Fraction`` vertex scan that
``walls._wall_slice_vertices`` ran before it returned integer points,
``reference_wall_samples`` the ``Fraction`` wall-sample loop of
``verify_correspondence`` before its samples ran in integers, on those
vertices, with its checks through ``DegreeVector``, ``xi_map`` and
``theta_dot``, and
``reference_genericity`` the ``Fraction`` genericity test of that time.
``v_walls_bounded_scan`` is the candidate v-wall scan over |chi_Gamma| <= B
that ``walls.v_walls`` replaced, with no bound on its work.
``config_document`` is the one builder of CLI config documents for the
tests and for ``tools/report_digests.py``.
``reference_moment_differential`` assembles d(mu) one entry at a time, as
``reps.moment_differential`` did before it became a scatter,
``reference_random_float`` draws a float representation one matrix at a
time, and ``reference_solve_moment_zero`` is the Gauss-Newton solver on
both, which builds a new ``Representation`` at every accepted step, and
``moment_trace`` the trace of the moment map.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
from sympy.polys.domains import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

from quiverk3 import linalg
from quiverk3.quiver import (
    Decomposition,
    SimpleExistence,
    boxed_vectors,
    is_positive_root,
    p_of,
    rep_space_dim,
)
from quiverk3.reps import (
    EXACT,
    FLOAT,
    GroupElement,
    Representation,
    _exact_invariant_spans,
    _flatten_mats,
    _graded,
    _moment_blocks,
    _offsets,
    _unflatten_mats,
    act,
    dual,
    moment_map,
)
from quiverk3.reps import _residual as _moment_residual
from quiverk3.lattice import DegreeVector
from quiverk3.walls import (
    Constraint,
    GenericityVerdict,
    _FMBlowup,
    _dot,
    _sign_insensitive_key,
    chamber_signature,
    nperp_basis,
    theta_dot,
    xi_map,
)

# ---------------------------------------------------------------------------
# simplicity oracle


def _is_zero_matrix(m) -> bool:
    return all(all(e == 0 for e in row) for row in m)


def _columns(m):
    if len(m) == 0:
        return []
    return [tuple(row[j] for row in m) for j in range(len(m[0]))]


def _coordinate_case(rep: Representation, beta) -> bool:
    """The unique candidate with W_i in {0, V_i}: check all arrows."""
    n = rep.n
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        if beta[s] == n[s] > 0 and beta[t] == 0 < n[t] and not _is_zero_matrix(x):
            return False
        if beta[t] == n[t] > 0 and beta[s] == 0 < n[s] and not _is_zero_matrix(y):
            return False
    return True


def _line_exists(forced, kernel_rows, loop_mats, dim) -> bool:
    """Is there a line containing span(forced), killed by kernel_rows, and
    invariant under each loop matrix? Exact over the complex numbers."""
    fs = linalg.Span()
    for v in forced:
        fs.add(v)
    if fs.dim > 1:
        return False
    if fs.dim == 1:
        v = fs.basis()[0]
        for row_mat in kernel_rows:
            if any(e != 0 for e in linalg.mat_vec(row_mat, v)):
                return False
        for A in loop_mats:
            av = linalg.mat_vec(A, v)
            # av must be proportional to v
            if linalg.rank([v, av]) > 1:
                return False
        return True
    # forced span is zero: look for any line in the common kernel
    if kernel_rows:
        stacked = tuple(row for m in kernel_rows for row in m)
        kbasis = linalg.nullspace(stacked) if stacked else []
    else:
        kbasis = list(linalg.identity(dim))
    k = len(kbasis)
    if k == 0:
        return False
    if not loop_mats:
        return True
    if k == 1:
        v = kbasis[0]
        return all(linalg.rank([v, linalg.mat_vec(A, v)]) <= 1 for A in loop_mats)
    # parametrize v = sum w_m K_m and demand wedge(v, A v) = 0 for all
    # loops, in a polynomial ring over QQ with the grevlex order
    R, *ws = ring(",".join(f"w{m}" for m in range(k)), QQ, grevlex)

    def qq(x):
        x = Fraction(x)
        return QQ(x.numerator, x.denominator)

    vsym = [sum((qq(kbasis[m][i]) * ws[m] for m in range(k)), R.zero) for i in range(dim)]
    polys = []
    for A in loop_mats:
        av = [sum((qq(A[i][j]) * vsym[j] for j in range(dim)), R.zero) for i in range(dim)]
        for p in range(dim):
            for q in range(p + 1, dim):
                cond = vsym[p] * av[q] - vsym[q] * av[p]
                if cond:
                    polys.append(cond)
    if not polys:
        return True
    if k == 2:
        g = polys[0]
        for p in polys[1:]:
            g = g.gcd(p)
        return not g.is_ground
    if k == 3:
        # V(I) = {0} iff the leading-term ideal contains a pure power of
        # every variable (finiteness criterion for the homogeneous quotient)
        pure = [False] * k
        for poly in groebner(polys, R):
            nz = [i for i, e in enumerate(poly.LM) if e > 0]
            if len(nz) == 1:
                pure[nz[0]] = True
        only_origin = all(pure)
        return not only_origin
    raise NotImplementedError(f"kernel dimension {k} out of oracle scope")


def _invariant_subspace_exists(rep: Representation, beta) -> bool:
    n = rep.n
    inter = [i for i in range(len(n)) if 0 < beta[i] < n[i]]
    if not inter:
        return _coordinate_case(rep, beta)
    if len(inter) > 1:
        raise NotImplementedError("two intermediate vertices need total dim > 3")
    j = inter[0]
    if beta[j] > 1:
        comp = tuple(ni - bi for ni, bi in zip(n, beta))
        return _invariant_subspace_exists(dual(rep), comp)
    # a line at vertex j, coordinate elsewhere: first the coordinate checks
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        if s == j or t == j:
            continue
        if beta[s] == n[s] > 0 and beta[t] == 0 < n[t] and not _is_zero_matrix(x):
            return False
        if beta[t] == n[t] > 0 and beta[s] == 0 < n[s] and not _is_zero_matrix(y):
            return False
    forced: list[tuple[Fraction, ...]] = []
    kernel_rows = []
    loops = []
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        if s == j and t == j:
            loops.append(x)
            loops.append(y)
            continue
        if t == j and s != j:
            if beta[s] == n[s] > 0:
                forced.extend(_columns(x))  # x: V_s -> V_j
            if beta[s] == 0 < n[s]:
                kernel_rows.append(y)  # y: V_j -> V_s must kill the line
        if s == j and t != j:
            if beta[t] == n[t] > 0:
                forced.extend(_columns(y))  # y: V_t -> V_j
            if beta[t] == 0 < n[t]:
                kernel_rows.append(x)  # x: V_j -> V_t must kill the line
    forced = [v for v in forced if any(e != 0 for e in v)]
    return _line_exists(forced, kernel_rows, loops, n[j])


def proper_invariant_subspace_exists(rep: Representation) -> bool:
    """Exact decision over the complex numbers, for total dimension <= 3."""
    n = rep.n
    if sum(n) > 3:
        raise NotImplementedError("oracle restricted to total dimension <= 3")
    zero = tuple(0 for _ in n)
    for beta in boxed_vectors(n):
        if beta == zero or beta == tuple(n):
            continue
        if _invariant_subspace_exists(rep, beta):
            return True
    return False


def reference_is_simple(rep: Representation, tol: float = 1e-8) -> bool:
    """Burnside/density test on End of the total space: close the span of
    the identity, the vertex idempotents and all arrow matrices, embedded
    as N x N matrices, under left multiplication by the generators; simple
    exactly when the span has dimension N^2. Float mode keeps an
    orthonormal basis and a relative tolerance."""
    n = rep.n
    N = sum(n)
    if N == 0:
        return False
    offs = [sum(n[:i]) for i in range(len(n) + 1)]
    zero = rep.zero

    def embed(mat, t, s):
        out = np.full((N, N), zero)
        out[offs[t] : offs[t + 1], offs[s] : offs[s + 1]] = mat
        return out

    def eye(k):
        out = np.full((k, k), zero)
        np.fill_diagonal(out, zero + 1)
        return out

    gens = [embed(eye(ni), i, i) for i, ni in enumerate(n) if ni > 0]
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        if n[s] > 0 and n[t] > 0:
            gens.append(embed(x, t, s))
            gens.append(embed(y, s, t))

    if rep.mode == EXACT:
        span = linalg.Span()

        def try_add(m) -> bool:
            return span.add(m.ravel().tolist())

    else:
        basis: list[np.ndarray] = []

        def try_add(m) -> bool:
            v = m.ravel()
            for b in basis:
                v = v - (b.conj() @ v) * b
            norm = np.linalg.norm(v)
            if norm > tol * max(1.0, float(np.linalg.norm(m))):
                basis.append(v / norm)
                return True
            return False

    frontier = [g for g in [eye(N)] + gens if try_add(g)]
    dim = len(frontier)
    while frontier and dim < N * N:
        nxt = []
        for m in frontier:
            for g in gens:
                p = g @ m
                if try_add(p):
                    nxt.append(p)
        dim += len(nxt)
        frontier = nxt
    return dim == N * N


def unipotent_conjugate(rep: Representation, seed: int) -> Representation:
    """rep conjugated by seeded unipotent blocks (lower times upper
    triangular), so that its invariant subspaces are not coordinate ones.
    A vertex with n_i = 0 gets the 0 x 0 block."""
    rng = random.Random(seed)

    def block(k):
        lower = np.array([[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-2, 2))
                           for j in range(k)] for i in range(k)], dtype=object)
        upper = np.array([[Fraction(int(i == j)) if i >= j else Fraction(rng.randint(-2, 2))
                           for j in range(k)] for i in range(k)], dtype=object)
        # at k = 0 both are 1-D and empty, and their product is the scalar 0
        return lower.reshape(k, k) @ upper.reshape(k, k)

    return act(GroupElement(tuple(block(k) for k in rep.n)), rep)


def reference_cyclic_subrep(rep: Representation, vertex: int, vector) -> tuple:
    """The smallest subrepresentation containing the vector, closed depth
    first one arrow and one vector at a time with ``linalg.mat_vec``."""
    n = rep.n
    vec = tuple(Fraction(v) for v in vector)
    spans = [linalg.Span() for _ in n]
    frontier = []
    if spans[vertex].add(vec):
        frontier.append((vertex, vec))
    while frontier:
        i, v = frontier.pop()
        for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
            if s == i and n[t] > 0:
                w = linalg.mat_vec(x, v)
                if spans[t].add(w):
                    frontier.append((t, w))
            if t == i and n[s] > 0:
                w = linalg.mat_vec(y, v)
                if spans[s].add(w):
                    frontier.append((s, w))
    return _graded(spans)


def reference_invariance_holds(rep: Representation, bases) -> bool:
    """Each arrow maps each basis vector at its source, as ``linalg.mat_vec``
    computes it in ``Fraction``s, into the rank of the basis at its target."""
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        for a, src, dst in ((x, s, t), (y, t, s)):
            target = [tuple(v) for v in bases[dst]]
            for v in bases[src]:
                w = linalg.mat_vec(a, v)
                if any(w) and linalg.rank(target + [w]) != linalg.rank(target):
                    return False
    return True


def reference_invariant_spans(rep: Representation, budget) -> list:
    """The invariant graded subspaces the exact stability search finds, in
    order: cyclic subrepresentations of the coordinate and seeded random
    probes, then pairwise sums re-joined over all pairs until a pass adds
    nothing."""
    n = rep.n
    rng = random.Random(budget.seed)
    found: dict = {}

    def record(dims, bases):
        if sum(dims) != 0 and dims != n:
            found.setdefault((dims, bases))

    probes = []
    for i, ni in enumerate(n):
        for k in range(ni):
            probes.append((i, tuple(Fraction(1 if j == k else 0) for j in range(ni))))
        for _ in range(budget.probes):
            if ni > 0:
                probes.append(
                    (i, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ni)))
                )
    for vertex, vec in probes:
        if any(x != 0 for x in vec):
            record(*reference_cyclic_subrep(rep, vertex, vec))
    while True:
        before = len(found)
        singles = list(found)
        for a in range(len(singles)):
            for b in range(a + 1, len(singles)):
                pairs = zip(singles[a][1], singles[b][1])
                record(*_graded([linalg.Span(va + vb) for va, vb in pairs]))
        if len(found) == before:
            break
    return list(found)


def graded_invariant_spans(rep: Representation, budget) -> list:
    """``reps._exact_invariant_spans`` with each subspace's integer rows read
    out by ``reps._graded``: the (dims, bases) of ``reference_invariant_spans``."""
    return [_graded([linalg.Span.echelon(r) for r in rows])
            for rows in _exact_invariant_spans(rep, budget)]


# ---------------------------------------------------------------------------
# root decompositions


def reference_decompositions(q, n) -> list[Decomposition]:
    """All n = sum k_j beta^(j) over distinct positive roots beta^(j) <= n,
    by a depth-first skip/use recursion over the roots in lexicographic
    order, trivial decomposition first, then by parts."""
    n = tuple(n)
    roots = [r for r in boxed_vectors(n) if is_positive_root(q, r)]
    results: list[Decomposition] = []

    def rec(idx: int, remaining, acc: list):
        if all(r == 0 for r in remaining):
            results.append(Decomposition(tuple(acc)))
            return
        if idx == len(roots):
            return
        beta = roots[idx]
        kmax = min(remaining[i] // beta[i] for i in range(len(n)) if beta[i] > 0)
        rec(idx + 1, remaining, acc)
        for k in range(1, kmax + 1):
            rest = tuple(remaining[i] - k * beta[i] for i in range(len(n)))
            acc.append((k, beta))
            rec(idx + 1, rest, acc)
            acc.pop()

    rec(0, n, [])
    results.sort(key=lambda dec: (not dec.is_trivial(n), dec.parts))
    return results


def reference_simple_exists(q, n) -> SimpleExistence:
    """Crawley-Boevey's simple-existence test at n alone: a top-down dynamic
    program of its own over the roots <= n other than n, memoized on the
    remainder, that keeps the largest (sum p, sorted parts)."""
    n = tuple(n)
    if not is_positive_root(q, n):
        return SimpleExistence(False, False, None)
    p = {r: p_of(q, r) for r in boxed_vectors(n) if r != n and is_positive_root(q, r)}
    memo: dict = {}

    def best(rem):
        if rem not in memo:
            top = (0, ()) if not any(rem) else None
            for beta, pb in p.items():
                if all(b <= r for b, r in zip(beta, rem)):
                    sub = best(tuple(r - b for r, b in zip(rem, beta)))
                    cand = (pb + sub[0], tuple(sorted((beta,) + sub[1])))
                    top = cand if top is None or cand > top else top
            memo[rem] = top
        return memo[rem]

    top = best(n)
    if top is not None and top[0] >= p_of(q, n):
        return SimpleExistence(False, True, top[1])
    return SimpleExistence(True, True, None)


# ---------------------------------------------------------------------------
# the moment map's differential, entry by entry


def moment_trace(rep: Representation):
    return sum((np.trace(b) for b in moment_map(rep)), rep.zero)


def reference_moment_differential(rep: Representation) -> np.ndarray:
    """d(mu) at rep, one entry at a time: column by column, the term added
    to each cell, then the term subtracted."""
    q, n = rep.quiver, rep.n
    row_off = _offsets(ni * ni for ni in n)
    J = np.full((row_off[-1], rep_space_dim(q, n)), rep.zero)
    col = 0
    for (s, t, _), (x, y) in zip(q.orientation, rep.mats):
        ns, nt = n[s], n[t]
        # d(x_e y_e) at block t and -d(y_e x_e) at block s, w.r.t. x entries
        for a in range(nt):
            for b in range(ns):
                c = col + a * ns + b
                for qq in range(nt):  # (E_ab y)[a, qq] = y[b, qq]
                    J[row_off[t] + a * nt + qq, c] += y[b, qq]
                for p in range(ns):  # (-y E_ab)[p, b] = -y[p, a]
                    J[row_off[s] + p * ns + b, c] -= y[p, a]
        col += nt * ns
        # w.r.t. y entries
        for cc in range(ns):
            for dd in range(nt):
                c = col + cc * nt + dd
                for p in range(nt):  # (x E_cd)[p, dd] = x[p, cc]
                    J[row_off[t] + p * nt + dd, c] += x[p, cc]
                for qq in range(ns):  # (-E_cd x)[cc, qq] = -x[dd, qq]
                    J[row_off[s] + cc * ns + qq, c] -= x[dd, qq]
        col += ns * nt
    return J


def reference_random_float(q, n, seed=0) -> Representation:
    """``random_representation(q, n, seed, "float")`` drawn one matrix at a
    time: for each edge x_e, then y_e, a matrix of standard normal real
    parts plus i times one of imaginary parts."""
    rng = np.random.default_rng(seed)

    def block(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    mats = tuple((block(n[t], n[s]), block(n[s], n[t])) for s, t, _ in q.orientation)
    return Representation(q, tuple(n), FLOAT, mats)


def reference_solve_moment_zero(q, n, seed=0, tol=1e-12):
    """The damped Gauss-Newton search of ``reps.solve_moment_zero`` from
    ``reference_random_float``, with d(mu) from
    ``reference_moment_differential`` and a new iterate array and
    ``Representation`` at every accepted step."""
    z = _flatten_mats(reference_random_float(q, n, seed=seed)) * 0.5
    mats = _unflatten_mats(q, n, z)
    rep = Representation(q, n, FLOAT, mats)
    r = _moment_residual(_moment_blocks(q, n, mats, 0j))
    for _ in range(100):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol:
            return rep
        delta, *_ = np.linalg.lstsq(reference_moment_differential(rep), -r, rcond=None)
        step = 1.0
        while step >= 2.0**-40:
            cand_z = z + step * delta
            cand_mats = _unflatten_mats(q, n, cand_z)
            cand_r = _moment_residual(_moment_blocks(q, n, cand_mats, 0j))
            if np.linalg.norm(cand_r) < rnorm:
                break
            step *= 0.5
        else:
            break
        z, r = cand_z, cand_r
        rep = Representation(q, n, FLOAT, cand_mats)
    final = float(np.linalg.norm(r))
    if final <= tol:
        return rep
    raise RuntimeError(
        f"moment-map solver did not reach tol={tol:g}; final residual {final:.3e}"
    )


# ---------------------------------------------------------------------------
# sequential float stability search


def reference_defect_and_grad(rep: Representation, beta, frames):
    """Sum over arrows of |(1 - P_t) A P_s|^2 for the projectors P = U U^H
    of the frames, and its gradient in each moving frame (0 < beta_i < n_i),
    one arrow and one frame at a time. A vertex with beta_i = 0 or n_i takes
    the zero or identity projector whatever its frame; its gradient is 0."""
    n = rep.n
    projs = []
    for i, ni in enumerate(n):
        if beta[i] == 0 or ni == 0:
            projs.append(np.zeros((ni, ni), dtype=complex))
        elif beta[i] == ni:
            projs.append(np.eye(ni, dtype=complex))
        else:
            projs.append(frames[i] @ frames[i].conj().T)
    defect = 0.0
    grads = [np.zeros_like(f) for f in frames]
    for (s0, t0, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        for A, s, t in ((x, s0, t0), (y, t0, s0)):
            Ps, Pt = projs[s], projs[t]
            defect += float(np.linalg.norm((np.eye(len(Pt)) - Pt) @ A @ Ps) ** 2)
            if 0 < beta[s] < n[s]:
                grads[s] += (A.conj().T @ (np.eye(len(Pt)) - Pt) @ A) @ frames[s]
            if 0 < beta[t] < n[t]:
                grads[t] += -(A @ Ps @ A.conj().T) @ frames[t]
    return defect, grads


def _reference_frames(rep: Representation, beta, rng):
    frames = []
    for ni, bi in zip(rep.n, beta):
        if bi == 0 or bi == ni:
            frames.append(np.zeros((ni, bi), dtype=complex))
        else:
            m = rng.standard_normal((ni, bi)) + 1j * rng.standard_normal((ni, bi))
            frames.append(np.linalg.qr(m)[0][:, :bi])
    return frames


def _reference_minimize(rep: Representation, beta, budget, rng):
    best = None
    for _ in range(budget.restarts):
        frames = _reference_frames(rep, beta, rng)
        eta = 0.1
        defect, grads = reference_defect_and_grad(rep, beta, frames)
        for _ in range(budget.iters):
            if defect < budget.tol:
                break
            cand = []
            for f, g in zip(frames, grads):
                if f.shape[1] == 0 or f.shape[0] == f.shape[1]:
                    cand.append(f)
                else:
                    cand.append(np.linalg.qr(f - eta * g)[0][:, : f.shape[1]])
            cdef, cgrads = reference_defect_and_grad(rep, beta, cand)
            if cdef < defect:
                frames, defect, grads = cand, cdef, cgrads
                eta = min(eta * 1.25, 1.0)
            else:
                eta *= 0.5
                if eta < 1e-12:
                    break
        if best is None or defect < best[0]:
            best = (defect, frames)
        if best[0] < budget.tol:
            break
    return best


def reference_float_search(rep: Representation, theta, budget):
    """The float half of ``check_stability``, one restart after another: for
    each candidate beta of positive slope (steepest first), then of slope
    zero, run gradient descent on the frames from ``budget.restarts`` seeded
    starts and return (verdict type name, beta) for the first beta whose
    best defect is below ``budget.tol``, or ("NoDestabilizerFound", None)."""
    theta = tuple(Fraction(t) for t in theta)
    rng = np.random.default_rng(budget.seed)

    def slope(b):
        return sum((t * x for t, x in zip(theta, b)), Fraction(0)) / sum(b)

    cands = [b for b in boxed_vectors(rep.n) if any(b) and b != rep.n]
    positive = sorted((b for b in cands if slope(b) > 0), key=lambda b: (-slope(b), b))
    zero = sorted(b for b in cands if slope(b) == 0)
    for group, kind in ((positive, "CertifiedUnstable"), (zero, "StrictlySemistableWitness")):
        for beta in group:
            best = _reference_minimize(rep, beta, budget, rng)
            if best is not None and best[0] < budget.tol:
                return kind, beta
    return "NoDestabilizerFound", None


# ---------------------------------------------------------------------------
# 2-dimensional chamber oracle (angular sweep)


def _ray_cmp_sorted(rays):
    # sort by (half-plane, then by cross-product comparisons) using exact slope
    def key(r):
        x, y = r
        if y == 0:
            return (0, Fraction(0)) if x > 0 else (2, Fraction(0))
        if y > 0:
            return (1, Fraction(x, y) * -1)
        return (3, Fraction(x, y) * -1)

    return sorted(rays, key=key)


def sweep_chambers(q, n, walls):
    """Chambers of the induced central line arrangement in the plane n-perp:
    exact angular sweep. Returns (count, signature set) computed against the
    canonical wall order, independently of the library's sign recursion."""
    basis = nperp_basis(tuple(n))
    assert len(basis) == 2, "sweep oracle needs dim n-perp = 2"
    lines = {}
    for w in walls:
        c = tuple(
            sum(b[i] * w.normal[i] for i in range(len(n))) for b in basis
        )
        g = math.gcd(*(abs(x) for x in c))
        if g == 0:
            continue
        cr = tuple(x // g for x in c)
        first = next(x for x in cr if x != 0)
        if first < 0:
            cr = tuple(-x for x in cr)
        lines[cr] = c
    L = len(lines)
    if L == 0:
        theta = tuple(Fraction(b) for b in basis[0])
        return 1, {chamber_signature(theta, walls)}
    rays = []
    for cr in lines:
        a, b = cr
        rays.append((-b, a))
        rays.append((b, -a))
    rays = _ray_cmp_sorted(rays)
    sigs = set()
    count = 0
    for i in range(len(rays)):
        r1 = rays[i]
        r2 = rays[(i + 1) % len(rays)]
        if L == 1:
            # opposite rays: rotate one by 90 degrees to land inside a cell
            mid = (r1[1], -r1[0])
        else:
            mid = (r1[0] + r2[0], r1[1] + r2[1])
        if mid == (0, 0):
            continue
        theta = tuple(
            Fraction(mid[0] * basis[0][i] + mid[1] * basis[1][i])
            for i in range(len(n))
        )
        sig = chamber_signature(theta, walls)
        if 0 in sig:
            continue
        if sig not in sigs:
            sigs.add(sig)
            count += 1
    return count, sigs


# ---------------------------------------------------------------------------
# Fourier-Motzkin with rational back-substitution


def fraction_fm_core(
    cons: list[Constraint], nvars: int, limit: int | None = None
) -> tuple[Fraction, ...] | None:
    """Fourier-Motzkin over integer constraints with rational back-substitution."""
    clean: list[Constraint] = []
    seen = set()
    for coeffs, rhs in cons:
        if not any(coeffs):
            if rhs > 0:
                return None
            continue
        g = math.gcd(*coeffs, rhs)
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
    sub = fraction_fm_core(rest, nvars - 1, limit)
    if sub is None:
        return None
    # sub = isub / m, so each bound is one quotient of integers
    m, isub = linalg.cleared(sub)
    lo = hi = None
    for cl, bl in lowers:
        v = Fraction(bl * m - _dot(cl, isub), cl[-1] * m)
        lo = v if lo is None else max(lo, v)
    for cu, bu in uppers:
        v = Fraction(_dot(cu, isub) - bu * m, -cu[-1] * m)
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


def chamber_set_digest(chambers) -> str:
    """sha256 of a ``ChamberSet``'s count, representatives (each coordinate
    as its ``Fraction`` string) and signatures, as JSON."""
    doc = [chambers.count, [[str(x) for x in theta] for theta in chambers.representatives],
           [list(sig) for sig in chambers.signatures]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the correspondence's checks in Fractions


def reference_wall_slice_vertices(cfg, wall) -> list[tuple[Fraction, ...]]:
    """The vertices of {coeffs . a = 0, sum n_i a_i = d_0, a >= 0} in
    ``Fraction``s: Cramer's rule on each pair of coordinates (i, j) with the
    rest zero, kept when both are non-negative, the first of equal vertices
    only."""
    d0, verts = cfg.total_h0deg, []
    for i in range(cfg.s):
        for j in range(i + 1, cfg.s):
            a11, a12 = wall.coeffs[i], wall.coeffs[j]
            a21, a22 = cfg.mult[i], cfg.mult[j]
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            ai, aj = Fraction(-a12 * d0, det), Fraction(a11 * d0, det)
            if ai < 0 or aj < 0:
                continue
            v = [Fraction(0)] * cfg.s
            v[i], v[j] = ai, aj
            if tuple(v) not in verts:
                verts.append(tuple(v))
    return verts


def reference_wall_samples(cfg, wall, samples_per_wall: int) -> list[tuple[Fraction, ...]]:
    """The samples of one ample wall in ``Fraction``s: h0deg, then lam * v +
    (1 - lam) * h0deg over the wall's slice vertices v in turn, lam = (j + 1)
    / (j + 2) on pass j. Each must be positive, and its xi image (``xi_map``
    raises ``ValueError`` off the slice) on the quiver wall of every source;
    a failed check is an ``AssertionError``."""
    verts = reference_wall_slice_vertices(cfg, wall)
    h0 = tuple(Fraction(d) for d in cfg.h0deg)
    samples = [h0]
    k = 0
    while verts and len(samples) - 1 < samples_per_wall:
        v = verts[k % len(verts)]
        lam = Fraction(k // len(verts) + 1, k // len(verts) + 2)
        samples.append(tuple(lam * x + (1 - lam) * y for x, y in zip(v, h0)))
        k += 1
    for a in samples:
        assert all(x > 0 for x in a), a
        theta = xi_map(cfg, DegreeVector(a))
        assert all(theta_dot(theta, alpha) == 0 for alpha in wall.sources), a
    return samples


def reference_genericity(theta, n, roots) -> GenericityVerdict:
    """``walls._genericity`` with every dot product in ``Fraction``s."""
    theta = tuple(Fraction(t) for t in theta)
    if theta_dot(theta, n) != 0:
        raise ValueError("theta . n != 0: not a valid stability parameter")
    violators = tuple(alpha for alpha in roots if theta_dot(theta, alpha) == 0)
    return GenericityVerdict(not violators, violators)


# ---------------------------------------------------------------------------
# v-walls by a bounded scan


def v_walls_bounded_scan(cfg, chi_bound: int) -> list:
    """Candidate v-walls chi (beta . a) = chi_Gamma (n . a) over the proper
    box vectors beta and every |chi_Gamma| <= chi_bound, merged by hyperplane
    as ``walls.v_walls`` merges them: (beta, chi_Gamma, coeffs, through_h0),
    sorted by (beta, chi_Gamma). Its hyperplanes may miss the degree cone
    a > 0; at chi_bound = |chi| those that meet it are ``v_walls``'s."""
    n, chi = cfg.mult, cfg.total_euler
    seen, out = set(), []
    for beta in boxed_vectors(n):
        if not any(beta) or beta == tuple(n):
            continue
        for chi_g in range(-chi_bound, chi_bound + 1):
            coeffs = tuple(chi * b - chi_g * m for b, m in zip(beta, n))
            key = _sign_insensitive_key(coeffs)
            if key is None or key in seen:
                continue
            seen.add(key)
            out.append((beta, chi_g, coeffs, _dot(coeffs, cfg.h0deg) == 0))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


# ---------------------------------------------------------------------------
# chamber-count oracle (Zaslavsky's theorem)


def _residual(echelon: list[tuple[int, list[int]]], v) -> list[int]:
    """v reduced, fraction-free, against echelon rows (pivot, row)."""
    v = list(v)
    for p, row in echelon:
        if v[p]:
            v = [row[p] * x - v[p] * y for x, y in zip(v, row)]
    return v


def _echelon_add(echelon, v) -> None:
    """Add v, reduced, to the echelon rows; v must not lie in their span."""
    v = _residual(echelon, v)
    echelon.append((next(i for i, x in enumerate(v) if x), v))


def zaslavsky_chamber_count(n, walls) -> int:
    """Chambers of the central arrangement {theta . normal = 0} in n-perp,
    counted by Zaslavsky's theorem as the sum of |mu(0, X)| over the
    intersection lattice (Zaslavsky 1975, Mem. AMS 154).

    A wall's normal restricts to n-perp with kernel R n, so a set of walls
    spans the subspace span(n, normals) / R n of the dual of n-perp. A flat
    is the set of all walls whose normals lie in that span; flats are found
    rank by rank, each rank-(r+1) flat as the closure of a rank-r flat plus
    one more wall. Exact integer elimination throughout; no feasibility
    solve and no cone generators.
    """
    normals = [tuple(w.normal) for w in walls]
    base: list = []
    _echelon_add(base, n)
    layer = [(frozenset(), base)]  # (flat, echelon rows of n and its normals)
    seen = {frozenset()}
    mu = {frozenset(): 1}
    while layer:
        nxt = []
        for flat, echelon in layer:
            covered = set(flat)
            for i, v in enumerate(normals):
                if i in covered:
                    continue
                grown = list(echelon)
                _echelon_add(grown, v)
                closure = frozenset(
                    j for j, w in enumerate(normals) if not any(_residual(grown, w))
                )
                covered |= closure
                if closure not in seen:
                    seen.add(closure)
                    nxt.append((closure, grown))
        for flat, _ in nxt:
            mu[flat] = -sum(m for below, m in mu.items() if below < flat)
        layer = nxt
    return sum(abs(m) for m in mu.values())


# ---------------------------------------------------------------------------
# reference eliminations (column by column, independent of linalg.Span)


def reference_mat_inv(a):
    """Inverse by Gauss-Jordan; raises ZeroDivisionError on a singular matrix."""
    n = len(a)
    aug = [list(row) + list(ident_row) for row, ident_row in zip(a, linalg.identity(n))]
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


def reference_nullspace(a):
    """Basis of the right kernel, via reduced row echelon form."""
    nrows, ncols = linalg.shape(a)
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


def reference_reduce(rows, pivots, vec) -> list[int]:
    """``linalg.Span.reduce`` as it was before it ran fraction-free: the
    input cleared and made primitive, then the residue made primitive again
    after every elimination step, against the span's ``rows`` and
    ``pivots``."""
    v = list(vec)
    v = list(linalg.primitive(v if all(type(x) is int for x in v) else linalg.cleared(v)[1]))
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            g = math.gcd(row[p], f)
            v = list(linalg.primitive([row[p] // g * x - f // g * y for x, y in zip(v, row)]))
    return v


def reference_span(vectors) -> tuple[list[list[int]], list[int]]:
    """The rows and pivots of ``linalg.Span(vectors)``, each vector reduced
    by ``reference_reduce`` and added as ``Span.add`` adds it."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = reference_reduce(rows, pivots, vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        v = [-x for x in v] if v[p] < 0 else v
        for row in rows:
            f = row[p]
            if f:
                g = math.gcd(v[p], f)
                row[:] = linalg.primitive([v[p] // g * x - f // g * y for x, y in zip(row, v)])
        rows.append(v)
        pivots.append(p)
    return rows, pivots


# ---------------------------------------------------------------------------
# simplicity and invariance mod a prime (plain ints, no linalg.Span)

# a false verdict or witness must pass mod both to go unseen
MOD_PRIMES = (2**31 - 1, 2**61 - 1)


def mod_p(x, p: int) -> int:
    """The rational x as an element of Z/p: a * b^-1 for x = a/b."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _mat_mod(m, p: int) -> list[list[int]]:
    return [[mod_p(e, p) for e in row] for row in m]


def _mul_mod(a, b, p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


class ModSpan:
    """A span of vectors over Z/p. Each row is monic at its pivot, its first
    nonzero entry, and zero at the pivots of the rows kept before it, so
    reducing by the rows in order clears every pivot."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, list[int]] = {}

    def reduce(self, v) -> list[int]:
        p = self.p
        v = [x % p for x in v]
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Add v; True exactly when the span grew."""
        v = self.reduce(v)
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        self.rows[piv] = [x * inv % self.p for x in v]
        return True


def mod_p_is_simple(rep: Representation, p: int) -> bool:
    """The graded Burnside closure mod p: for each vertex i of the support,
    the paths out of i, as n_j x n_i blocks, must span Hom(V_i, V_j) over
    Z/p for every j. Products of the reduced arrows reduce the products over
    Q, so a full span mod p means a full span over Q: True implies simple,
    and a simple representation gives False for finitely many p only."""
    n, total = rep.n, sum(rep.n)
    if total == 0:
        return False
    arrows: list[list] = [[] for _ in n]
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        if n[s] and n[t]:
            arrows[s].append((t, _mat_mod(x, p)))
            arrows[t].append((s, _mat_mod(y, p)))
    for i, ni in enumerate(n):
        if ni == 0:
            continue
        spans = [ModSpan(p) for _ in n]
        eye = [[int(a == b) for b in range(ni)] for a in range(ni)]
        spans[i].add([e for row in eye for e in row])
        frontier, dim = [(i, eye)], 1
        while frontier and dim < ni * total:
            nxt = []
            for j, m in frontier:
                for k, a in arrows[j]:
                    image = _mul_mod(a, m, p)
                    if spans[k].add([e for row in image for e in row]):
                        nxt.append((k, image))
            dim += len(nxt)
            frontier = nxt
        if dim < ni * total:
            return False
    return True


def mod_p_witness_holds(rep: Representation, beta, basis, p: int) -> bool:
    """The graded subspace spanned by ``basis`` (vectors per vertex) has
    dimension vector beta mod p, and every arrow maps it into itself mod p.
    Independence mod p implies independence over Q, and a subspace that is
    invariant over Q is invariant mod p whenever its basis stays independent."""
    spans = []
    for bi, vecs in zip(beta, basis):
        span = ModSpan(p)
        if len(vecs) != bi or not all(span.add([mod_p(e, p) for e in v]) for v in vecs):
            return False
        spans.append(span)
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        for a, src, dst in ((x, s, t), (y, t, s)):
            a = _mat_mod(a, p)
            for v in basis[src]:
                image = [sum(r * mod_p(e, p) for r, e in zip(row, v)) for row in a]
                if any(spans[dst].reduce(image)):
                    return False
    return True


# ---------------------------------------------------------------------------
# CLI config documents


def config_document(cfg, polarizations=None, options=None) -> dict:
    """The CLI config document of a CurveConfig: its curves, gram and mult,
    the base polarization as ``H0`` followed by ``polarizations``, and
    ``options`` when given."""
    doc = {
        "curves": [{"chi": c, "h0deg": d} for c, d in zip(cfg.chi, cfg.h0deg)],
        "gram": [list(r) for r in cfg.gram],
        "mult": list(cfg.mult),
        "polarizations": {"H0": list(cfg.h0deg), **(polarizations or {})},
    }
    if options is not None:
        doc["options"] = options
    return doc

