"""The quiver attached to a curve configuration and its root combinatorics.

The quiver has one vertex per stable summand, g_ij edges between distinct
vertices i and j, and g_ii/2 + 1 loops at vertex i. Its Cartan matrix C has
c_ii = 2 - 2 L_i and c_ij = -E_ij, and with D = -C the quadratic form
d(beta) = beta^t D beta satisfies d(beta) = v(beta)^2 on the nose, which is
what ties the two sides of the package together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantError
from .lattice import CurveConfig, IntVector

DimVector = tuple[int, ...]
# an oriented edge (source, target, copy index); loops have source == target
OrientedEdge = tuple[int, int, int]


@dataclass(frozen=True)
class Quiver:
    loops: IntVector
    edges: tuple[IntVector, ...]

    def __post_init__(self):
        loops = tuple(int(x) for x in self.loops)
        edges = tuple(tuple(int(x) for x in row) for row in self.edges)
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

    @property
    def orientation(self) -> tuple[OrientedEdge, ...]:
        """One fixed orientation per underlying edge: loops first per vertex,
        then i -> j for i < j. The choice is arbitrary but must be stable."""
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

    def adjacent(self, i: int, j: int) -> bool:
        return self.edges[i][j] > 0


def quiver_from_config(cfg: CurveConfig) -> Quiver:
    """L_i = g_ii/2 + 1, E_ij = g_ij, so that -C reproduces the gram matrix."""
    for i in range(cfg.s):
        if cfg.gram[i][i] % 2 != 0 or cfg.gram[i][i] < -2:
            raise InvariantError(
                "gram-diagonal", f"gram[{i}][{i}] = {cfg.gram[i][i]} is odd or < -2"
            )
    loops = tuple(g // 2 + 1 for g in (cfg.gram[i][i] for i in range(cfg.s)))
    edges = tuple(
        tuple(0 if i == j else cfg.gram[i][j] for j in range(cfg.s))
        for i in range(cfg.s)
    )
    return Quiver(loops, edges)


def _check_length(q: Quiver, beta: DimVector):
    if len(beta) != q.s:
        raise ValueError(f"dimension vector length {len(beta)} != s = {q.s}")


def d_form(q: Quiver, beta: DimVector) -> int:
    """d(beta) = beta^t (-C) beta; always even."""
    _check_length(q, beta)
    c = q.cartan()
    return -sum(
        beta[i] * c[i][j] * beta[j] for i in range(q.s) for j in range(q.s)
    )


def p_of(q: Quiver, beta: DimVector) -> int:
    """p(beta) = d(beta)/2 + 1; the quiver variety for beta has dimension 2p."""
    return d_form(q, beta) // 2 + 1


def _support_connected(q: Quiver, alpha: DimVector) -> bool:
    support = [i for i, a in enumerate(alpha) if a != 0]
    if not support:
        return False
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
    _check_length(q, alpha)
    if any(a < 0 for a in alpha) or all(a == 0 for a in alpha):
        return False
    if not _support_connected(q, alpha):
        return False
    return d_form(q, alpha) >= -2


def boxed_vectors(n: DimVector):
    """All 0 <= alpha <= n componentwise, in lexicographic order."""
    def rec(i: int, prefix: tuple[int, ...]):
        if i == len(n):
            yield prefix
            return
        for a in range(n[i] + 1):
            yield from rec(i + 1, prefix + (a,))

    yield from rec(0, ())


# (quiver, n) pairs whose roots _roots_within keeps; bounded so that a process
# running many configurations holds a fixed amount of memory
_ROOT_CACHE_SIZE = 256


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _roots_within(q: Quiver, n: DimVector) -> tuple[DimVector, ...]:
    """Positive roots 0 < alpha <= n in lexicographic order, n included when
    it is a root. Every root-indexed computation reads this one enumeration."""
    return tuple(a for a in boxed_vectors(n) if is_positive_root(q, a))


def bounded_roots(q: Quiver, n: DimVector) -> list[DimVector]:
    """R_+(n): positive roots alpha <= n componentwise, excluding 0 and n."""
    _check_length(q, n)
    if any(x < 0 for x in n):
        raise ValueError("n must be non-negative")
    n = tuple(n)
    return [alpha for alpha in _roots_within(q, n) if alpha != n]


@dataclass(frozen=True)
class Decomposition:
    """A multiset of (k, beta) parts with pairwise distinct root beta,
    sum k*beta = n. The trivial decomposition is the single part (1, n)."""

    parts: tuple[tuple[int, DimVector], ...]

    def __post_init__(self):
        parts = tuple(
            sorted(((int(k), tuple(b)) for k, b in self.parts), key=lambda p: (p[1], p[0]))
        )
        object.__setattr__(self, "parts", parts)

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
    decomposition (when n is a root) first.
    """
    _check_length(q, n)
    import warnings as _w

    if not is_positive_root(q, n):
        _w.warn(f"n = {n} is not a positive root", stacklevel=2)
    roots = _roots_within(q, tuple(n))
    results: list[Decomposition] = []

    def rec(idx: int, remaining: DimVector, acc: list[tuple[int, DimVector]]):
        if all(r == 0 for r in remaining):
            results.append(Decomposition(tuple(acc)))
            return
        if idx == len(roots):
            return
        beta = roots[idx]
        kmax = min(
            (remaining[i] // beta[i] for i in range(len(n)) if beta[i] > 0),
        )
        rec(idx + 1, remaining, acc)
        for k in range(1, kmax + 1):
            rest = tuple(remaining[i] - k * beta[i] for i in range(len(n)))
            acc.append((k, beta))
            rec(idx + 1, rest, acc)
            acc.pop()

    rec(0, tuple(n), [])
    results.sort(key=lambda dec: (not dec.is_trivial(n), dec.parts))
    return results


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
    dynamic programming over the box 0 <= r <= n).
    """
    _check_length(q, n)
    if not is_positive_root(q, n):
        return SimpleExistence(False, False, None)
    n = tuple(n)
    # without n itself, best(n) ranges over plain sums with r >= 2 parts
    roots = tuple(r for r in _roots_within(q, n) if r != n)
    proots = {r: p_of(q, r) for r in roots}

    @lru_cache(maxsize=None)
    def best(rem: DimVector) -> tuple[int, tuple[DimVector, ...]] | None:
        """Max sum of p over decompositions of rem into >= 1 roots."""
        if all(x == 0 for x in rem):
            return (0, ())
        top: tuple[int, tuple[DimVector, ...]] | None = None
        for beta in roots:
            if any(b > r for b, r in zip(beta, rem)):
                continue
            rest = tuple(r - b for r, b in zip(rem, beta))
            sub = best(rest)
            if sub is None:
                continue
            cand = (proots[beta] + sub[0], tuple(sorted((beta,) + sub[1])))
            if top is None or cand > top:
                top = cand
        return top

    top = best(n)
    best.cache_clear()
    if top is not None and top[0] >= p_of(q, n):
        return SimpleExistence(False, True, top[1])
    return SimpleExistence(True, True, None)


def mu_zero_expected_dim(q: Quiver, n: DimVector) -> int:
    """dim mu^-1(0) = 2p(n) + n^t n - 1 when the simple criterion holds."""
    return 2 * p_of(q, n) + sum(x * x for x in n) - 1


def rep_space_dim(q: Quiver, n: DimVector) -> int:
    """dim Rep(doubled quiver, n) = 2 sum_e n_s(e) n_t(e)."""
    _check_length(q, n)
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
