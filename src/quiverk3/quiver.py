"""The quiver attached to a curve configuration and its root combinatorics.

The quiver has one vertex per stable summand, g_ij edges between distinct
vertices i and j, and g_ii/2 + 1 loops at vertex i. Its Cartan matrix C has
c_ii = 2 - 2 L_i and c_ij = -E_ij, and with D = -C the quadratic form
d(beta) = beta^t D beta satisfies d(beta) = v(beta)^2 on the nose, which is
what ties the two sides of the package together.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InvariantError, _as_int_vector, _check_same_length
from .lattice import CurveConfig, IntVector

DimVector = tuple[int, ...]
# an oriented edge (source, target, copy index); loops have source == target
OrientedEdge = tuple[int, int, int]

# the most decompositions of n that are enumerated; past it ``decompositions``
# raises instead of filling memory (one genus-2 curve of multiplicity 500 has
# as many as there are partitions of 500, about 2.3 * 10^21)
MAX_DECOMPOSITIONS = 100_000
# the most vectors 0 <= alpha <= n that a root scan or the v-wall list visits,
# eight times the largest box of any test or benchmark input (the 9-curve
# clique's 2^9); past it ``checked_box`` raises instead of running for hours
# (each vector costs a root test, and the simple-existence table of n costs
# one step per box vector and root)
MAX_ROOT_BOX = 4096


@dataclass(frozen=True)
class Quiver:
    """Loop counts and a symmetric edge matrix with zero diagonal, as Python
    ints; a non-integer entry raises ``InvariantError("integrality")``."""

    loops: IntVector
    edges: tuple[IntVector, ...]

    def __post_init__(self):
        loops = _as_int_vector(self.loops)
        edges = tuple(_as_int_vector(row) for row in self.edges)
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "edges", edges)
        s = len(loops)
        if any(len(row) != s for row in edges) or len(edges) != s:
            raise ValueError("edge matrix must be s x s")
        if any(x < 0 for x in loops):
            raise ValueError("loop counts must be non-negative")
        for i in range(s):
            if edges[i][i] != 0:
                raise ValueError("edge matrix must have zero diagonal")
            for j in range(i + 1, s):
                if edges[i][j] != edges[j][i] or edges[i][j] < 0:
                    raise ValueError("edge matrix must be symmetric non-negative")

    @property
    def s(self) -> int:
        return len(self.loops)

    @cached_property
    def orientation(self) -> tuple[OrientedEdge, ...]:
        """One fixed orientation per underlying edge: loops first per vertex,
        then i -> j for i < j. The choice is arbitrary but must be stable.
        Built once per quiver, like ``form``."""
        out: list[OrientedEdge] = []
        for i in range(self.s):
            for k in range(self.loops[i]):
                out.append((i, i, k))
        for i in range(self.s):
            for j in range(i + 1, self.s):
                for k in range(self.edges[i][j]):
                    out.append((i, j, k))
        return tuple(out)

    def cartan(self) -> tuple[IntVector, ...]:
        return tuple(
            tuple(
                2 - 2 * self.loops[i] if i == j else -self.edges[i][j]
                for j in range(self.s)
            )
            for i in range(self.s)
        )

    @cached_property
    def form(self) -> tuple[IntVector, ...]:
        """D = -C, the matrix of d, built once per quiver; not a field, so
        equality and hashing are unchanged."""
        return tuple(tuple(-c for c in row) for row in self.cartan())

    def adjacent(self, i: int, j: int) -> bool:
        return self.edges[i][j] > 0


def quiver_from_config(cfg: CurveConfig) -> Quiver:
    """L_i = g_ii/2 + 1, E_ij = g_ij, so that -C reproduces the gram matrix.
    ``CurveConfig`` has checked that each g_ii is even and >= -2."""
    loops = tuple(g // 2 + 1 for g in (cfg.gram[i][i] for i in range(cfg.s)))
    edges = tuple(
        tuple(0 if i == j else cfg.gram[i][j] for j in range(cfg.s))
        for i in range(cfg.s)
    )
    return Quiver(loops, edges)


def d_form(q: Quiver, beta: DimVector) -> int:
    """d(beta) = beta^t (-C) beta; always even."""
    _check_same_length("beta", beta, "loops", q.s)
    return sum(b * sum(map(operator.mul, row, beta)) for b, row in zip(beta, q.form))


def p_of(q: Quiver, beta: DimVector) -> int:
    """p(beta) = d(beta)/2 + 1; the quiver variety for beta has dimension 2p."""
    return d_form(q, beta) // 2 + 1


def _support_connected(q: Quiver, alpha: DimVector) -> bool:
    support = [i for i, a in enumerate(alpha) if a != 0]
    seen = {support[0]}
    frontier = [support[0]]
    in_support = set(support)
    while frontier:
        i = frontier.pop()
        for j in in_support - seen:
            if q.adjacent(i, j):
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(support)


def is_positive_root(q: Quiver, alpha: DimVector) -> bool:
    """alpha != 0, alpha >= 0, connected support, and d(alpha) >= -2."""
    _check_same_length("alpha", alpha, "loops", q.s)
    if any(a < 0 for a in alpha) or all(a == 0 for a in alpha):
        return False
    if not _support_connected(q, alpha):
        return False
    return d_form(q, alpha) >= -2


def boxed_vectors(n: DimVector):
    """All 0 <= alpha <= n componentwise, in lexicographic order."""
    return itertools.product(*(range(k + 1) for k in n))


def _packing(n: DimVector) -> tuple[int, int]:
    """The field width w and guard mask G of the packed vectors 0 <= v <= n.

    ``_pack`` puts each coordinate in a field of w = max(n).bit_length() + 1
    bits, the first coordinate most significant, so int order is
    lexicographic order. G holds the top bit of every field, which no
    coordinate reaches: for packed g, r in the box, (r | G) - g borrows
    across no field, has every bit of G set exactly when g <= r
    componentwise, and is then G + (r - g) packed."""
    w = max(n, default=0).bit_length() + 1
    return w, sum(1 << (w * i + w - 1) for i in range(len(n)))


def _pack(v: DimVector, w: int) -> int:
    out = 0
    for x in v:
        out = (out << w) | x
    return out


def _packed_box(n: DimVector, w: int) -> list[int]:
    """``boxed_vectors(n)`` packed with field width w, in the same order."""
    box = [0]
    for k in n:
        box = [(x << w) | y for x in box for y in range(k + 1)]
    return box


def checked_box(n: DimVector):
    """``boxed_vectors(n)``, once the box 0 <= alpha <= n is known to hold at
    most ``MAX_ROOT_BOX`` vectors; past that, ``InvariantError("root-box")``."""
    box = math.prod(k + 1 for k in n)
    if box > MAX_ROOT_BOX:
        raise InvariantError(
            "root-box",
            f"the box 0 <= alpha <= n = {n} holds {box} vectors, more than {MAX_ROOT_BOX}",
        )
    return boxed_vectors(n)


def _roots_upto(q: Quiver, n: DimVector) -> tuple[DimVector, ...]:
    """Positive roots 0 < alpha <= n in lexicographic order, n included when
    it is a root: the one box scan that the root-indexed computations of a
    configuration read."""
    return tuple(a for a in checked_box(n) if is_positive_root(q, a))


def check_bound(q: Quiver, n: DimVector) -> DimVector:
    """n as Python ints (``_as_int_vector``), one per vertex and none negative:
    the check of each entry point that takes a dimension vector
    (``bounded_roots``, ``cb_simple_exists``, ``mu_zero_expected_dim``,
    ``rep_space_dim``, ...; ``d_form``, ``is_positive_root``: length only)."""
    n = _as_int_vector(n)
    _check_same_length("n", n, "loops", q.s)
    if any(x < 0 for x in n):
        raise ValueError("n must be non-negative")
    return n


def bounded_roots(q: Quiver, n: DimVector) -> list[DimVector]:
    """R_+(n): positive roots alpha <= n componentwise, excluding 0 and n.
    Raises ``InvariantError("root-box")`` when the box 0 <= alpha <= n holds
    more than ``MAX_ROOT_BOX`` vectors."""
    return _roots_below(q, check_bound(q, n))


def _roots_below(q: Quiver, n: DimVector) -> list[DimVector]:
    """``bounded_roots`` of an n that passed ``check_bound``."""
    return [alpha for alpha in _roots_upto(q, n) if alpha != n]


@dataclass(frozen=True)
class Decomposition:
    """A multiset of (k, beta) parts with pairwise distinct root beta,
    sum k*beta = n. The trivial decomposition is the single part (1, n).
    Each beta is taken through ``_as_int_vector`` and each k must be a
    positive integer (not a bool); there must be at least one part, and the
    betas must share one length and be nonzero, non-negative and pairwise
    distinct; else ``ValueError``."""

    parts: tuple[tuple[int, DimVector], ...]

    def __post_init__(self):
        parts = []
        for k, b in self.parts:
            (k,) = _as_int_vector((k,))
            if k < 1:
                raise ValueError(f"a part's multiplicity must be positive, got {k}")
            b = _as_int_vector(b)
            if parts:
                _check_same_length("a part's beta", b, "the first part's", len(parts[0][1]))
            if not any(b) or min(b) < 0:
                raise ValueError(f"a part's beta must be nonzero and non-negative, got {b}")
            parts.append((k, b))
        if not parts:
            raise ValueError("a decomposition needs at least one part")
        if len({b for _, b in parts}) < len(parts):
            raise ValueError("the parts' betas must be pairwise distinct")
        object.__setattr__(self, "parts", tuple(sorted(parts, key=lambda p: (p[1], p[0]))))

    @property
    def total(self) -> DimVector:
        s = len(self.parts[0][1])
        return tuple(
            sum(k * b[i] for k, b in self.parts) for i in range(s)
        )

    def is_trivial(self, n: DimVector) -> bool:
        return self.parts == ((1, tuple(n)),)


def decompositions(q: Quiver, n: DimVector) -> list[Decomposition]:
    """All decompositions n = sum k_j beta^(j) into distinct positive roots.

    Parts aggregate multiplicity per root, mirroring the type of a semisimple
    representation. Returned in a canonical deterministic order, trivial
    decomposition (when n is a root) first. n must be non-negative and
    nonzero.
    """
    n = check_bound(q, n)
    if not any(n):
        raise ValueError(f"n must have a nonzero entry, got {n}")
    import warnings as _w

    if not is_positive_root(q, n):
        _w.warn(f"n = {n} is not a positive root", stacklevel=2)
    return list(_decompositions(n, _roots_upto(q, n)))


def _decompositions(n: DimVector, roots: tuple[DimVector, ...]) -> tuple[Decomposition, ...]:
    """``decompositions`` of the nonzero n, given the roots <= n in
    lexicographic order.

    Remainders are packed vectors (``_packing``), so each fit test and each
    subtraction is one int operation. ``rec`` memoizes on (first root index,
    remainder) and each of its levels takes one part, so its depth is
    bounded by the number of parts, not of roots. Each part (k, root) is
    made once, so equal parts are one object, which the report encoder
    spells once."""
    w, guard = _packing(n)
    keys = [_pack(g, w) for g in roots]
    # the part (k, roots[i]): ones[i] for k = 1, made[k, i] for k > 1
    ones, made = [(1, r) for r in roots], {}

    @lru_cache(maxsize=None)
    def rec(j: int, rem: int) -> list[tuple[tuple[int, DimVector], ...]]:
        """The part tuples of the decompositions of the nonzero packed
        ``rem`` into roots[j:], each root used at most once with its
        multiplicity; empty when no such decomposition exists."""
        out = []
        for i in range(j, len(keys)):
            g = keys[i]
            if g > rem:  # neither g nor any later root is <= rem
                break
            k, d = 1, (rem | guard) - g
            while d & guard == guard:  # k * roots[i] <= rem
                rest = d ^ guard
                part = ones[i] if k == 1 else made.setdefault((k, i), (k, roots[i]))
                out += [(part,) + tail for tail in rec(i + 1, rest)] if rest else [(part,)]
                k, d = k + 1, (rest | guard) - g
        # each entry completes this call's path to a distinct decomposition
        # of n, so n has at least len(out) of them
        if len(out) > MAX_DECOMPOSITIONS:
            raise InvariantError(
                "decomposition-count",
                f"n = {n} has more than {MAX_DECOMPOSITIONS} decompositions into positive roots",
            )
        return out

    found = rec(0, _pack(n, w))
    rec.cache_clear()
    found.sort()
    if roots and roots[-1] == n:  # the trivial decomposition goes first
        trivial = ((1, n),)
        found.remove(trivial)
        found.insert(0, trivial)
    # the parts are canonical already (distinct roots in lexicographic
    # order), so the normalizing constructor is skipped
    new = object.__new__
    out = []
    for parts in found:
        dec = new(Decomposition)
        object.__setattr__(dec, "parts", parts)
        out.append(dec)
    return tuple(out)


@dataclass(frozen=True)
class SimpleExistence:
    """Outcome of the simple-representation criterion for mu^-1(0)."""

    exists: bool
    is_root: bool
    violation: tuple[DimVector, ...] | None  # a plain-sum decomposition with p(n) <= sum p

    @property
    def reason(self) -> str:
        if self.exists:
            return "n is a positive root and p(n) > sum p(beta) for every decomposition"
        if not self.is_root:
            return "n is not a positive root"
        return f"violating decomposition {self.violation}"


def cb_simple_exists(q: Quiver, n: DimVector) -> SimpleExistence:
    """Simple representations exist in mu^-1(0) iff n is a positive root and
    p(n) > sum p(beta^(i)) for every plain sum n = beta^(1)+...+beta^(r),
    r >= 2, into positive roots (repetitions allowed).

    On failure, reports a decomposition maximizing sum p (found by exact
    dynamic programming over the box 0 <= r <= n). n must pass
    ``check_bound``.
    """
    n = check_bound(q, n)
    if not is_positive_root(q, n):
        return SimpleExistence(False, False, None)
    return _simple_table(q, n, _roots_upto(q, n))[n]


def _simple_table(
    q: Quiver, n: DimVector, roots: tuple[DimVector, ...]
) -> dict[DimVector, SimpleExistence]:
    """``cb_simple_exists`` of every root beta <= n, from one bottom-up
    dynamic program over the box 0 <= r <= n; ``roots`` are the roots <= n
    in lexicographic order.

    best[r] is the largest (sum p, sorted parts) over the plain sums
    r = gamma_1 + ... + gamma_k into roots. The maximum over the gamma <= r,
    gamma != r, of (p(gamma) + best[r - gamma]) ranges over the sums with
    k >= 2, which decide a root r's verdict; best[r] also weighs (p(r), (r,)).
    Lexicographic order visits r - gamma before r, and every r != 0 is a sum
    of the simple roots e_i. The box vectors are packed (``_packing``) and
    the parts are root indices, whose order is lexicographic order, until a
    violation is read out.
    """
    w, guard = _packing(n)
    keys = [_pack(g, w) for g in roots]
    p = [p_of(q, g) for g in roots]
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    table = {}
    nxt = 0  # roots[:nxt] are the roots before r in lexicographic order
    for r in _packed_box(n, w):
        top = (0, ()) if not r else None
        rg = r | guard
        for j in range(nxt):
            d = rg - keys[j]
            if d & guard != guard:  # roots[j] is not <= r
                continue
            sub = best[d ^ guard]
            total = p[j] + sub[0]
            if top is None or total >= top[0]:
                cand = (total, tuple(sorted((j,) + sub[1])))
                top = cand if top is None or cand > top else top
        if nxt < len(keys) and keys[nxt] == r:
            pr = p[nxt]
            violated = top is not None and top[0] >= pr
            violation = tuple(roots[i] for i in top[1]) if violated else None
            table[roots[nxt]] = SimpleExistence(not violated, True, violation)
            top = max(top, (pr, (nxt,))) if top is not None else (pr, (nxt,))
            nxt += 1
        best[r] = top
    return table


def mu_zero_expected_dim(q: Quiver, n: DimVector) -> int:
    """dim mu^-1(0) = 2p(n) + n^t n - 1 when the simple criterion holds;
    n must pass ``check_bound``."""
    n = check_bound(q, n)
    return 2 * p_of(q, n) + sum(x * x for x in n) - 1


def rep_space_dim(q: Quiver, n: DimVector) -> int:
    """dim Rep(doubled quiver, n) = 2 sum_e n_s(e) n_t(e); n must pass
    ``check_bound``."""
    n = check_bound(q, n)
    return 2 * sum(n[s] * n[t] for s, t, _ in q.orientation)


def quiver_to_dot(q: Quiver) -> str:
    """DOT rendering: vertices labeled with loop counts, one undirected edge
    line per pair with its multiplicity."""
    lines = ["graph quiver {", "  graph [schema_version=1];"]
    for i in range(q.s):
        lines.append(f'  v{i} [label="{i}:{q.loops[i]} loops"];')
    for i in range(q.s):
        for j in range(i + 1, q.s):
            if q.edges[i][j] > 0:
                lines.append(f'  v{i} -- v{j} [label="{q.edges[i][j]}"];')
    lines.append("}")
    return "\n".join(lines)
