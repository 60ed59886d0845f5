"""The exact representation kernel: simplicity and the stability search.

``is_simple`` is checked against ``helpers.reference_is_simple``, the
Burnside closure on the whole of End(V), past the total dimension 3 that
the invariant-subspace oracle of criterion 6 reaches. The exact stability
search is pinned twice: ``_exact_invariant_spans``, read out as bases by
``helpers.graded_invariant_spans``, must return the list of
``helpers.reference_invariant_spans`` (the same spans, in the same order),
and the sha256 of the exact ``check_stability`` verdicts and of the
``annihilator_witness`` outputs built from them must equal ``GOLDEN``. Its
work is pinned too: each sum of two spans at a vertex is eliminated at most
once per search, only the returned witness is read out as ``Fraction``
bases, and every span found is checked for arrow-invariance. To
re-record after an intended change, run ``python tests/test_exact_search.py``
from the repository root with ``src`` and ``tests`` on ``PYTHONPATH`` and
paste its output into ``GOLDEN``.

Both are checked again mod two primes, by ``helpers.mod_p_is_simple`` and
``helpers.mod_p_witness_holds``, in plain ints with no ``linalg.Span``: the
simplicity verdicts on the cases past dimension 3, and the dimension
vector and invariance of every exact stability witness.

Exact ``check_stability`` skips the search exactly where ``is_simple`` is
True, where the search finds nothing: with the modular pass, without it
and at a prime where it falls short, with the same verdicts.

``is_simple`` first closes each vertex mod a prime. Where that pass falls
short it closes the cyclic span of each coordinate vector (a probe), and a
proper one decides False. At n_i = 1 that probe is the closure of e_i and
decides; at n_i > 1 the exact closure of e_i decides after the probes. On
seeded draws up to total dimension 8 its verdicts equal those with the
pass switched off and those of the reference; with the prime set to 2,
which misses simple representations, and with the int64 bound lowered
below a draw's max(n)**2, the exact closure decides. Every False verdict a
probe decides carries a proper invariant span, and on the ``reps-exact``
benchmark's inputs at seed 0 the verdicts equal those with every probe's
span made full.

The exact verdict is decided once per representation and kept on it, by
whichever of ``is_simple`` and ``check_stability`` asks first; a later
prime or int64 bound does not reach it, and a float representation keeps
none. The spans of each probe are kept too: on the benchmark's
``check_stability`` inputs the search after ``is_simple`` closes no
coordinate vector again and finds the same spans.

The search interns its subspaces and decides a sum with a full or a
hyperplane side without elimination: on seeded RREF pairs at widths 1-5
that sum equals the eliminated one, and on the benchmark's inputs the
shortcut decides most sums, leaving ``_join`` only pairs with neither.

The kernel runs on arrows and seeds cleared to integers. The equivalence
tests below compare it with the ``Fraction`` references of ``helpers`` where
clearing has work to do: arrows whose denominators differ (3, 5, 7), zero
vertices, and numpy ``int64`` entries near 2**62, whose products overflow
64 bits. One test makes ``Fraction`` arithmetic raise around the kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from quiverk3 import CurveConfig, linalg, quiver_from_config, random_representation, reps
from quiverk3.errors import MathAssertionError
from quiverk3.reps import (
    EXACT,
    GroupElement,
    NoDestabilizerFound,
    Representation,
    SearchBudget,
    act,
    annihilator_witness,
    check_stability,
    cyclic_subrep,
    direct_sum,
    graded_invariance_holds,
    is_simple,
)
from quiverk3.walls import nperp_basis
from helpers import (
    MOD_PRIMES,
    ModSpan,
    benchmark_workloads,
    graded_invariant_spans,
    mod_p,
    mod_p_is_simple,
    mod_p_witness_holds,
    reference_cyclic_subrep,
    reference_invariance_holds,
    reference_invariant_spans,
    reference_is_simple,
    unipotent_conjugate,
)

F = Fraction

AFFINE = CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))
ELLIPTIC = CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
OGRADY = CurveConfig(((2,),), (1,), (2,), (1,))
CHAIN = CurveConfig(((-2, 1, 0), (1, -2, 1), (0, 1, -2)), (1, 1, 1), (1, 1, 1), (1, 1, 1))
DISJOINT = CurveConfig(((-2, 0), (0, 0)), (1, 1), (1, 1), (1, 1))


def _zero_y(rep: Representation) -> Representation:
    return Representation(rep.quiver, rep.n, rep.mode, tuple((x, 0 * y) for x, y in rep.mats))


def _rand(cfg, n, seed, mode="exact"):
    return random_representation(quiver_from_config(cfg), n, seed=seed, mode=mode)


# ---------------------------------------------------------------------------
# pinned exact stability search


def _canon(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _stability_cases():
    """(name, representation, theta) on the shapes of the benchmark's exact
    workload: affine (3, 3) with y = 0, the direct sums (1, 1) + (2, 2) and
    (2,) + (3,) at their wall, and O'Grady (5,). The affine direct sum is
    also conjugated, so that the witnesses found are not coordinate
    subspaces."""
    for seed in range(3):
        yield f"affine33-y0-{seed}", _zero_y(_rand(AFFINE, (3, 3), seed)), (F(-3), F(3))
        wall = direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (2, 2), 100 + seed))
        yield f"affine-11+22-{seed}", wall, (F(-1), F(1))
        wall = direct_sum(_rand(OGRADY, (2,), seed), _rand(OGRADY, (3,), 100 + seed))
        yield f"ogrady-2+3-{seed}", wall, (F(0),)
        yield f"ogrady5-{seed}", _rand(OGRADY, (5,), seed), (F(0),)
    for seed in range(8):
        wall = direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (2, 2), 100 + seed))
        yield f"affine-11+22-hidden-{seed}", unipotent_conjugate(wall, seed), (F(-1), F(1))


def stability_digests() -> dict[str, str]:
    out = {}
    for name, rep, theta in _stability_cases():
        verdict = check_stability(rep, theta)
        dual_witness = None
        if not isinstance(verdict, NoDestabilizerFound):
            dual_witness = annihilator_witness(rep, verdict.beta, verdict.basis)
        text = json.dumps(_canon([verdict, dual_witness]), sort_keys=True)
        out[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


# recorded before the integer-row Span and the semi-naive join went in
GOLDEN = {
    "affine33-y0-0": "5cf636f4b893fd5d",
    "affine-11+22-0": "43a7eb9bed6c2916",
    "ogrady-2+3-0": "bd685bbb75a21681",
    "ogrady5-0": "e40fd10b8a090989",
    "affine33-y0-1": "5cf636f4b893fd5d",
    "affine-11+22-1": "43a7eb9bed6c2916",
    "ogrady-2+3-1": "bd685bbb75a21681",
    "ogrady5-1": "e40fd10b8a090989",
    "affine33-y0-2": "5cf636f4b893fd5d",
    "affine-11+22-2": "43a7eb9bed6c2916",
    "ogrady-2+3-2": "bd685bbb75a21681",
    "ogrady5-2": "e40fd10b8a090989",
    "affine-11+22-hidden-0": "e40fd10b8a090989",
    "affine-11+22-hidden-1": "ef9a41c57d091f67",
    "affine-11+22-hidden-2": "722814847d88262b",
    "affine-11+22-hidden-3": "e40fd10b8a090989",
    "affine-11+22-hidden-4": "e40fd10b8a090989",
    "affine-11+22-hidden-5": "57665c6796e26b38",
    "affine-11+22-hidden-6": "19754c40fb792aac",
    "affine-11+22-hidden-7": "2073b7b4a4a4f841",
}


def test_exact_stability_verdicts_and_dual_witnesses_are_pinned():
    assert stability_digests() == GOLDEN


def _search_cases():
    """Seeded exact representations with many invariant spans: direct sums
    of four summands, whose sums of three need a second join pass, and
    y = 0 representations, on four quivers."""
    rng = random.Random(31)
    for k in range(36):
        kind = k % 4
        seed = rng.randrange(10**6)
        if kind == 0:
            rep = direct_sum(*(_rand(AFFINE, m, seed + j)
                               for j, m in enumerate([(1, 1), (1, 0), (0, 1), (1, 1)])))
        elif kind == 1:
            rep = _zero_y(_rand(rng.choice([AFFINE, ELLIPTIC]), (2, rng.randint(1, 2)), seed))
        elif kind == 2:
            rep = direct_sum(*(_rand(OGRADY, (1,), seed + j) for j in range(4)))
        else:
            rep = _zero_y(_rand(CHAIN, (1, rng.randint(1, 2), 1), seed))
        yield rep, SearchBudget(probes=rng.randint(1, 3), seed=seed)


def test_invariant_spans_match_the_reference_join():
    sizes = []
    for rep, budget in _search_cases():
        found = graded_invariant_spans(rep, budget)
        assert found == reference_invariant_spans(rep, budget)
        sizes.append(len(found))
    assert len(sizes) >= 30
    assert sum(s >= 4 for s in sizes) >= 15  # the join has pairs to work on


def _theta(n, rng) -> tuple:
    """A seeded integer theta with theta . n = 0."""
    theta = [0] * len(n)
    for b in nperp_basis(n):
        c = rng.randint(-2, 2)
        theta = [t + c * x for t, x in zip(theta, b)]
    return tuple(theta)


def test_each_join_is_eliminated_once_per_search(monkeypatch):
    # the closure joins every pair of the subspaces found; per vertex, a
    # pair with equal or empty sides needs no elimination, and a pair met
    # again reuses the first one's rows
    joined = []
    real = reps._join
    monkeypatch.setattr(reps, "_join", lambda ra, rb: joined.append((ra, rb)) or real(ra, rb))
    occurrences = distinct_total = trivial = 0
    for rep, budget in _search_cases():
        joined.clear()
        found = reps._exact_invariant_spans(rep, budget)
        pairs = [(ra, rb) for a, fa in enumerate(found) for fb in found[a + 1:]
                 for ra, rb in zip(fa, fb)]
        nontrivial = [(ra, rb) for ra, rb in pairs if ra and rb and ra != rb]
        distinct = {frozenset(pair) for pair in nontrivial}
        assert len(joined) <= len(distinct)
        assert all(frozenset(pair) in distinct for pair in joined)
        assert len({frozenset(pair) for pair in joined}) == len(joined)
        occurrences += len(nontrivial)
        distinct_total += len(distinct)
        trivial += len(pairs) - len(nontrivial)
    assert trivial >= 500 and occurrences >= 2 * distinct_total  # both shortcuts have work


def test_only_the_witness_is_read_out_as_fractions(monkeypatch):
    basis_calls = []
    real = linalg.Span.basis
    monkeypatch.setattr(linalg.Span, "basis", lambda sp: basis_calls.append(sp) or real(sp))
    rng = random.Random(67)
    kinds = []
    for rep, budget in _search_cases():
        basis_calls.clear()
        verdict = check_stability(rep, _theta(rep.n, rng), budget)
        witness = not isinstance(verdict, NoDestabilizerFound)
        assert len(basis_calls) == (len(rep.n) if witness else 0)
        kinds.append(type(verdict).__name__)
    assert {"CertifiedUnstable", "StrictlySemistableWitness", "NoDestabilizerFound"} <= set(kinds)


def test_every_found_span_is_checked_for_invariance(monkeypatch):
    real = reps._invariance_holds
    rng = random.Random(71)
    for rep, budget in _search_cases():
        theta = _theta(rep.n, rng)
        found = reps._exact_invariant_spans(rep, budget)
        checked = []

        def counting(r, spans):
            checked.append(tuple(map(reps._rows, spans)))
            return real(r, spans)

        monkeypatch.setattr(reps, "_invariance_holds", counting)
        check_stability(rep, theta, budget)
        assert checked == found  # each span found, in search order

        def failing_last(r, spans):
            checked.append(None)
            return len(checked) < len(found) and real(r, spans)

        checked.clear()
        monkeypatch.setattr(reps, "_invariance_holds", failing_last)
        with pytest.raises(MathAssertionError, match="not arrow-invariant"):
            check_stability(rep, theta, budget)
        assert len(checked) == len(found)


# ---------------------------------------------------------------------------
# the search skipped on simple representations


RANDOM_SHORTCUT_CASES = 28


def _shortcut_cases():
    """(representation, budget): ``RANDOM_SHORTCUT_CASES`` seeded random
    representations on five quivers, most of them simple, then the y = 0
    representations and direct sums of ``_search_cases``, none simple."""
    rng = random.Random(73)
    for k in range(4):
        seed = rng.randrange(10**6)
        budget = SearchBudget(probes=rng.randint(1, 3), seed=seed)
        for cfg, n in ((AFFINE, (2, 2)), (AFFINE, (2, 3)), (ELLIPTIC, (2, 3)), (OGRADY, (4,)),
                       (CHAIN, (1, 1, 1)), (CHAIN, (1, 2, 1)), (DISJOINT, (0, 2))):
            yield _rand(cfg, n, seed), budget
    yield from _search_cases()


def _spied_searches(monkeypatch) -> list:
    """Patch ``reps._exact_invariant_spans`` to record the representation
    of each search."""
    searched = []
    real = reps._exact_invariant_spans
    monkeypatch.setattr(reps, "_exact_invariant_spans",
                        lambda rep, budget: searched.append(rep) or real(rep, budget))
    return searched


def test_the_search_finds_nothing_on_simple_representations():
    # the premise of the shortcut: on a simple representation every probe's
    # cyclic span is all of it, so the search records nothing to join
    simple = []
    for rep, budget in _shortcut_cases():
        simple.append(is_simple(rep))
        assert simple[-1] == reference_is_simple(rep)
        if simple[-1]:
            assert reps._exact_invariant_spans(rep, budget) == []
    assert 18 <= sum(simple) == sum(simple[:RANDOM_SHORTCUT_CASES]) < RANDOM_SHORTCUT_CASES


def test_check_stability_skips_the_search_on_simple_representations(monkeypatch):
    # the search runs exactly where is_simple is False, whatever the
    # modular pass does: with it, with it switched off, and at the prime 2,
    # where it falls short on simple representations too
    rng = random.Random(79)
    cases = [(rep, _theta(rep.n, rng), budget) for rep, budget in _shortcut_cases()]
    want = [check_stability(_fresh(rep), theta, budget) for rep, theta, budget in cases]
    kinds = {type(v).__name__ for v in want[RANDOM_SHORTCUT_CASES:]}
    assert {"CertifiedUnstable", "StrictlySemistableWitness", "NoDestabilizerFound"} <= kinds
    searched = _spied_searches(monkeypatch)
    closures = _spied_closures(monkeypatch)
    missed = {}
    for setting, name, value in (("pass", "_P", reps._P), ("no pass", "_MOD_TERMS", 0),
                                 ("prime 2", "_P", 2)):
        with monkeypatch.context() as patch:
            patch.setattr(reps, name, value)
            simple, missed[setting] = [], 0
            for (rep, theta, budget), verdict in zip(cases, want):
                rep = _fresh(rep)
                searched.clear()
                closures.clear()
                assert check_stability(rep, theta, budget) == verdict
                simple.append(is_simple(rep))
                assert searched == ([] if simple[-1] else [rep])
                if simple[-1]:
                    assert verdict == NoDestabilizerFound(budget.probes, budget.restarts,
                                                          budget.tol)
                    passes = _passes(closures)
                    missed[setting] += not (passes and all(passes))
                if setting == "no pass":
                    assert _passes(closures) == []
            assert 18 <= sum(simple) == sum(simple[:RANDOM_SHORTCUT_CASES])
    # the default prime certifies every simple case; without the pass, or
    # where it falls short, the probes and the exact closure decide
    assert missed == {"pass": 0, "no pass": sum(simple), "prime 2": 17}


# ---------------------------------------------------------------------------
# simplicity past total dimension 3


def _simplicity_cases():
    """Seeded representations of total dimension 4-8: random ones, zero
    vertices, disconnected support, y = 0, direct sums on a wall and
    elliptic (4, 4)."""
    rng = random.Random(47)
    for k in range(4):
        seed = rng.randrange(10**6)
        yield _rand(AFFINE, rng.choice([(2, 2), (3, 1), (2, 3)]), seed)
        yield _rand(ELLIPTIC, rng.choice([(2, 2), (1, 3), (3, 2)]), seed)
        yield _rand(OGRADY, (4,), seed)
        yield _rand(CHAIN, rng.choice([(2, 0, 2), (0, 3, 1), (1, 2, 1), (2, 1, 2)]), seed)
        yield _rand(DISJOINT, rng.choice([(2, 2), (3, 1)]), seed)
        yield _zero_y(_rand(AFFINE, rng.choice([(2, 2), (3, 2)]), seed))
        # the paths out of vertex 0 span everything, none come back to it
        yield _zero_y(_rand(ELLIPTIC, (1, 3), seed))
        yield direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (1 + k % 2, 1), seed + 1))
        yield direct_sum(_rand(OGRADY, (1 + k % 2,), seed), _rand(OGRADY, (3 - k % 2,), seed + 1))
    yield _rand(ELLIPTIC, (4, 4), 0)
    yield _rand(OGRADY, (5,), 0)
    yield direct_sum(_rand(AFFINE, (1, 1), 5), _rand(AFFINE, (2, 2), 6))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_is_simple_matches_reference_past_dimension_3(mode):
    verdicts = []
    for rep in _simplicity_cases():
        if mode == "float":
            rep = rep.to_float()
        assert 4 <= rep.total_dim <= 8
        got = is_simple(rep)
        assert got == reference_is_simple(rep), (rep.n, rep.mats)
        verdicts.append(got)
    assert 8 <= sum(verdicts) <= len(verdicts) - 8  # both verdicts occur


def _tilted(rep: Representation, beta, basis, p: int) -> tuple:
    """basis with the first vector at the first vertex i with 0 < beta_i <
    n_i plus the first unit vector outside the span there, mod p."""
    i = next(k for k, (b, m) in enumerate(zip(beta, rep.n)) if 0 < b < m)
    span = ModSpan(p)
    for v in basis[i]:
        span.add([mod_p(x, p) for x in v])
    units = ([int(j == k) for j in range(rep.n[i])] for k in range(rep.n[i]))
    unit = next(u for u in units if span.add(u))
    return (*basis[:i], (tuple(map(sum, zip(basis[i][0], unit))), *basis[i][1:]), *basis[i + 1:])


def test_simplicity_and_witnesses_agree_mod_two_primes():
    # an oracle that shares no code with linalg.Span: the closure and the
    # invariance checks in Z/p
    cases = list(_simplicity_cases())
    verdicts = [is_simple(rep) for rep in cases]
    witnesses = []
    for name, rep, theta in _stability_cases():
        verdict = check_stability(rep, theta)
        if not isinstance(verdict, NoDestabilizerFound):
            witnesses.append((name, rep, verdict.beta, verdict.basis))
    assert len(cases) == 39 and len(witnesses) == 14
    for p in MOD_PRIMES:
        assert [mod_p_is_simple(rep, p) for rep in cases] == verdicts
        for name, rep, beta, basis in witnesses:
            assert mod_p_witness_holds(rep, beta, basis, p)
            # the check can fail: on a claimed dimension off by one, and on
            # a tilted basis, except where y = 0 leaves every subspace at
            # vertex 1 invariant
            i = next(k for k, b in enumerate(beta) if b)
            assert not mod_p_witness_holds(rep, (*beta[:i], beta[i] - 1, *beta[i + 1:]),
                                           basis, p)
            tilted = _tilted(rep, beta, basis, p)
            assert mod_p_witness_holds(rep, beta, tilted, p) == ("-y0-" in name)


# ---------------------------------------------------------------------------
# the modular pass of is_simple


def _triangular(rep: Representation) -> Representation:
    """rep with every matrix made upper triangular: the span of the first
    basis vector of each vertex is then invariant."""
    def cut(m):
        return [[e if r <= c else 0 for c, e in enumerate(row)] for r, row in enumerate(m)]

    return Representation(rep.quiver, rep.n, rep.mode,
                          tuple((cut(x), cut(y)) for x, y in rep.mats))


def _mod_pass_cases():
    """Seeded exact draws of total dimension 2-8: random representations,
    y = 0 and triangular ones, disconnected support and direct sums."""
    rng = random.Random(61)
    for k in range(2):
        seed = rng.randrange(10**6)
        yield _rand(OGRADY, (5 + 3 * k,), seed)
        yield _rand(AFFINE, ((3, 2), (4, 4))[k], seed)
        yield _rand(ELLIPTIC, ((2, 3), (1, 2))[k], seed)
        yield _rand(CHAIN, ((1, 2, 1), (2, 1, 2))[k], seed)
        yield _rand(DISJOINT, (2, 2), seed)
        yield _zero_y(_rand(AFFINE, (2, 3), seed))
        # the pass certifies vertex 0; vertex 1 is left to the exact closure
        yield _zero_y(_rand(ELLIPTIC, (1, 3), seed))
        # closures one short of full: at vertex 1, and the triangular 2 x 2
        # matrices of the upper triangular algebra
        yield _zero_y(_rand(AFFINE, (1, 1), seed))
        yield _triangular(_rand(OGRADY, (2 + k,), seed))
        yield direct_sum(_rand(OGRADY, (2,), seed), _rand(OGRADY, (3 + k,), seed + 1))
        yield direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (2, 2), seed + 1))


def _spied_closures(monkeypatch) -> list:
    """Patch ``reps._closure`` to record (modular, vertex, seed width,
    dimension, full dimension) for each closure it runs. The modular pass
    and the exact closure of e_i have width n_i; a probe of ``is_simple``,
    the cyclic span of one coordinate vector at a vertex with n_i > 1, has
    width 1."""
    closures = []
    real = reps._closure

    def spy(n, arrows, vertex, seed, adders, mod=None):
        dim = real(n, arrows, vertex, seed, adders, mod)
        closures.append((mod is not None, vertex, seed.shape[1], dim, sum(n) * seed.shape[1]))
        return dim

    monkeypatch.setattr(reps, "_closure", spy)
    return closures


def _passes(closures) -> list[bool]:
    """Whether each modular pass was full."""
    return [dim == full for modular, _, _, dim, full in closures if modular]


def _exact_closure(rep: Representation, vertex: int) -> int:
    """The dimension of the exact closure of e_vertex, as ``is_simple``
    runs it."""
    e_i = np.eye(rep.n[vertex], dtype=object)
    return reps._closure(rep.n, rep._arrows, vertex, e_i, [linalg.Span().add for _ in rep.n])


def _check_closure_sequence(rep: Representation, closures, exact: dict) -> bool:
    """Check the closures of one ``is_simple`` call against the exact
    closures ``exact`` (vertex -> dimension) and return whether a probe
    decided the verdict. Each pass reaches the exact closure's dimension
    (the prime lost no rank). Probes and exact closures run only at the
    vertex of the last pass, which fell short; an exact closure at a vertex
    with n_i > 1 follows its n_i probes, each of which spanned everything;
    only the last closure of the call can be short, a proper probe or a
    short exact closure, and it makes the verdict False."""
    passed, probes = {}, 0
    for k, (modular, i, width, dim, full) in enumerate(closures):
        assert dim <= full and (dim == full or k == len(closures) - 1 or modular)
        if modular:
            assert width == rep.n[i] and dim == exact[i]
            passed[i], probes = dim == full, 0
            continue
        assert list(passed)[-1] == i and not passed[i]
        if width == 1 and rep.n[i] > 1:
            probes += 1
        else:  # the exact closure, after a probe per coordinate when n_i > 1
            assert width == rep.n[i] and dim == exact[i]
            assert probes == (width if width > 1 else 0)
    last = closures[-1] if closures else (True,)
    return not last[0] and last[2] == 1 < rep.n[last[1]] and last[3] < last[4]


def test_modular_pass_keeps_every_verdict(monkeypatch):
    cases = list(_mod_pass_cases())
    assert max(rep.total_dim for rep in cases) == 8
    # the exact closure at every support vertex, run before the spy goes in
    exact = [{i: _exact_closure(rep, i) for i, ni in enumerate(rep.n) if ni} for rep in cases]
    closures = _spied_closures(monkeypatch)
    verdicts, short, probed = [], [], []
    for rep, dims in zip(cases, exact):
        closures.clear()
        verdicts.append(is_simple(rep))
        short.append(not all(_passes(closures)))
        # the prime lost no rank on these draws, and the closures ran in order
        probed.append(_check_closure_sequence(rep, closures, dims))
        deficits = [full - dim for modular, _, _, dim, full in closures if not modular]
        assert verdicts[-1] == (not deficits)
    assert 6 <= sum(verdicts) <= len(verdicts) - 6  # both verdicts occur
    # the prime certifies every simple draw, and each False verdict has a
    # pass that fell short; a probe decides some of them, not all
    assert short == [not v for v in verdicts]
    assert 0 < sum(probed) < len(verdicts) - sum(verdicts)
    with monkeypatch.context() as patch:
        patch.setattr(reps, "_MOD_TERMS", 0)  # no representation is within the bound
        closures.clear()
        assert [is_simple(rep) for rep in cases] == verdicts
        assert _passes(closures) == []
    assert verdicts == [reference_is_simple(rep) for rep in cases]
    closures.clear()  # a vertex certified, then a probe at the next one
    assert not is_simple(_zero_y(_rand(ELLIPTIC, (1, 3), 5)))
    assert closures == [(True, 0, 1, 4, 4), (True, 1, 3, 3, 12), (False, 1, 1, 3, 4)]
    closures.clear()  # one short at vertex 1, where n_1 = 1 needs no probe
    assert not is_simple(_zero_y(_rand(AFFINE, (1, 1), 5)))
    assert closures == [(True, 0, 1, 2, 2), (True, 1, 1, 1, 2), (False, 1, 1, 1, 2)]
    closures.clear()  # both probes span everything; the exact closure decides
    assert not is_simple(_zero_y(_rand(ELLIPTIC, (2, 2), 5)))
    assert closures == [(True, 0, 2, 6, 8), (False, 0, 1, 4, 4), (False, 0, 1, 4, 4),
                        (False, 0, 2, 6, 8)]


def test_a_simple_representation_the_prime_misses_is_decided_exactly(monkeypatch):
    monkeypatch.setattr(reps, "_P", 2)
    closures = _spied_closures(monkeypatch)
    rep = _rand(OGRADY, (3,), 17)
    # even integer arrows vanish mod 2: the pass reaches only e_i itself
    even = Representation(rep.quiver, rep.n, EXACT,
                          tuple((2 * reps._cleared(x), 2 * reps._cleared(y)) for x, y in rep.mats))
    assert is_simple(even) and reference_is_simple(even)
    # three probes span everything, then the exact closure is full
    assert closures == [(True, 0, 3, 1, 9), *[(False, 0, 1, 3, 3)] * 3, (False, 0, 3, 9, 9)]
    outcomes = []
    for rep in [_rand(AFFINE, (2, 2), seed) for seed in range(6)]:
        closures.clear()
        got = is_simple(rep)
        assert got == reference_is_simple(rep)
        outcomes.append((got, all(_passes(closures))))
    assert {(True, True), (True, False)} <= set(outcomes)


def test_representations_past_the_int64_bound_skip_the_pass(monkeypatch):
    monkeypatch.setattr(reps, "_MOD_TERMS", 8)  # max(n) = 2 passes, 3 does not
    widths = []
    real = reps._mod_adder
    monkeypatch.setattr(reps, "_mod_adder", lambda w, mod: widths.append(w) or real(w, mod))
    verdicts = []
    for rep in (_rand(AFFINE, (2, 2), 3), _rand(AFFINE, (3, 2), 3), _rand(OGRADY, (3,), 3),
                _zero_y(_rand(AFFINE, (3, 1), 3)), _zero_y(_rand(AFFINE, (2, 1), 3))):
        widths.clear()
        verdicts.append(is_simple(rep))
        assert verdicts[-1] == reference_is_simple(rep)
        assert bool(widths) == (max(rep.n) <= 2)
    assert verdicts == [True, True, True, False, False]


# ---------------------------------------------------------------------------
# the simplicity verdict kept on the representation


def _spied_passes(monkeypatch) -> list:
    """Patch ``reps._mod_adder`` to record the width of each adder it makes;
    the pass at one vertex makes one per vertex of the quiver."""
    widths = []
    real = reps._mod_adder
    monkeypatch.setattr(reps, "_mod_adder", lambda w, mod: widths.append(w) or real(w, mod))
    return widths


def _spied_decisions(monkeypatch) -> list:
    """Patch ``reps._exact_simple`` to record the representation of each
    exact simplicity decision."""
    decided = []
    real = reps._exact_simple
    monkeypatch.setattr(reps, "_exact_simple", lambda rep: decided.append(rep) or real(rep))
    return decided


def test_is_simple_and_check_stability_share_one_pass(monkeypatch):
    # the exact verdict is decided once per representation, by whichever of
    # is_simple and check_stability asks first; after it only the search
    # closes anything, one vector at a time, and on a simple representation
    # nothing is closed
    decided = _spied_decisions(monkeypatch)
    closures = _spied_closures(monkeypatch)
    rng = random.Random(113)
    kinds = set()
    for rep, budget in _shortcut_cases():
        theta = _theta(rep.n, rng)
        first = _fresh(rep)
        decided.clear()
        simple = is_simple(first)
        closures.clear()
        verdict = check_stability(first, theta, budget)
        assert is_simple(first) == simple and decided == [first]
        assert all(not modular and width == 1 for modular, _, width, _, _ in closures)
        assert bool(closures) != simple
        # stability first on a fresh copy: the same verdicts, decided once
        other = _fresh(rep)
        decided.clear()
        assert check_stability(other, theta, budget) == verdict
        closures.clear()
        assert is_simple(other) == simple and decided == [other] and closures == []
        kinds.add(type(verdict).__name__)
    assert len(kinds) == 3


def test_a_changed_pass_leaves_the_kept_verdict(monkeypatch):
    # a verdict once decided is read, whatever the pass would do later: at
    # the prime 2, which misses the even representation below, and with the
    # int64 bound at 0. A fresh copy decides again, exactly, and alike
    widths = _spied_passes(monkeypatch)
    searched = _spied_searches(monkeypatch)
    rep = _rand(OGRADY, (3,), 17)
    # even integer arrows: the default prime certifies the vertex, 2 does not
    even = Representation(rep.quiver, rep.n, EXACT,
                          tuple((2 * reps._cleared(x), 2 * reps._cleared(y)) for x, y in rep.mats))
    nothing = NoDestabilizerFound(4, 6, 1e-8)
    for rep, theta, name, value, fresh_passes in ((even, (0,), "_P", 2, 1),
                                                  (_rand(AFFINE, (2, 2), 3), (1, -1),
                                                   "_MOD_TERMS", 0, 0)):
        widths.clear()
        assert is_simple(rep) and len(widths) == len(rep.n) ** 2  # a full pass per vertex
        passed = len(widths)
        with monkeypatch.context() as patch:
            patch.setattr(reps, name, value)
            assert check_stability(rep, theta) == nothing and is_simple(rep)
            assert searched == [] and len(widths) == passed
            fresh = _fresh(rep)
            assert check_stability(fresh, theta) == nothing and is_simple(fresh)
            assert searched == [] and len(widths) == passed + fresh_passes


def test_the_kept_verdict_cannot_go_stale():
    source = np.array([[F(1), F(2)], [F(0), F(1)]], dtype=object)
    q = quiver_from_config(AFFINE)
    rep = Representation(q, (2, 2), EXACT, ((source, source), (source, source.T)))
    assert is_simple(rep) and vars(rep)["_simple"] and reference_is_simple(rep)
    for pair in rep.mats:
        for m in pair:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = F(7)
    source[1, 0] = F(5)  # the arrays it was built from no longer reach it
    assert rep.mats[0][0][1, 0] == 0 and is_simple(rep)
    # a float representation views the arrays it was given: it keeps no
    # verdict, and the next call follows a write into them
    arrays = [m.astype(complex) for pair in rep.mats for m in pair]
    float_rep = Representation(q, (2, 2), "float", (tuple(arrays[:2]), tuple(arrays[2:])))
    assert is_simple(float_rep) and "_simple" not in vars(float_rep)
    for a in arrays:
        a[:] = 0
    assert not is_simple(float_rep) and "_simple" not in vars(float_rep)


# ---------------------------------------------------------------------------
# the probes of is_simple


def _spied_probes(monkeypatch) -> list:
    """Patch ``reps._cyclic_spans`` to record (vertex, vector, spans) of
    each call."""
    probes = []
    real = reps._cyclic_spans

    def spy(rep, vertex, vector):
        spans = real(rep, vertex, vector)
        probes.append((vertex, tuple(vector), spans))
        return spans

    monkeypatch.setattr(reps, "_cyclic_spans", spy)
    return probes


def test_a_probe_decides_false_only_on_a_proper_subrepresentation(monkeypatch):
    probes = _spied_probes(monkeypatch)
    by_probe = by_closure = 0
    for rep in [*_simplicity_cases(), *_mod_pass_cases()]:
        probes.clear()
        got = is_simple(rep)
        assert got == reference_is_simple(rep), (rep.n, rep.mats)
        graded = [(vertex, vec, *reps._graded(spans)) for vertex, vec, spans in probes]
        # the call ends at the first proper span
        assert all(dims == rep.n for _, _, dims, _ in graded[:-1])
        if graded and graded[-1][2] != rep.n:
            vertex, vec, dims, bases = graded[-1]
            assert not got and 0 < sum(dims)
            assert graded_invariance_holds(rep, bases)
            assert (dims, bases) == reference_cyclic_subrep(rep, vertex, vec)
            by_probe += 1
        else:
            by_closure += not got
    # probes decide most, the one at n_i = 1 being the closure of e_i; the
    # exact closure at n_i > 1 decides the rest
    assert by_probe >= 30 and by_closure >= 1


def _reps_exact_cells(kind: str) -> list[dict]:
    """The closure variables of the ``reps-exact`` benchmark's operations of
    this kind at seed 0, in batch order."""
    workloads = benchmark_workloads()
    return [inspect.getclosurevars(op.call).nonlocals
            for ops in workloads.build("reps-exact", 0).rounds for op in ops if op.kind == kind]


def _reps_exact_inputs() -> list[Representation]:
    """The representations of the ``is_simple`` operations of the
    ``reps-exact`` benchmark at seed 0, in batch order; a wall operation's
    direct sum is built here."""
    return [cell["make_rep"]() for cell in _reps_exact_cells("reps.is_simple.exact")]


def _reps_exact_stability_inputs() -> list[tuple[Representation, tuple]]:
    """(representation, theta) of the exact ``check_stability`` operations
    of the ``reps-exact`` benchmark at seed 0, built as in
    ``_reps_exact_inputs``."""
    return [(cell["make_rep"](), cell["theta"])
            for cell in _reps_exact_cells("reps.check_stability.exact")]


def _fresh(rep: Representation) -> Representation:
    """A copy of rep that keeps nothing an earlier call recorded on rep."""
    return Representation(rep.quiver, rep.n, rep.mode, rep.mats)


def test_the_probes_keep_every_benchmark_verdict(monkeypatch):
    inputs = _reps_exact_inputs()
    probes = _spied_probes(monkeypatch)
    verdicts, decided = [], 0
    for rep in inputs:
        probes.clear()
        verdicts.append(is_simple(rep))
        decided += bool(probes) and reps._graded(probes[-1][2])[0] != rep.n
    assert (len(verdicts), sum(verdicts), decided) == (418, 176, 207)
    # with every probe's span made full, the exact closure decides each
    # vertex; on fresh copies, which have no probe recorded
    made_full = []
    monkeypatch.setattr(reps, "_cyclic_spans",
                        lambda rep, vertex, vector: made_full.append(vertex) or
                        [linalg.Span(np.eye(k, dtype=object)) for k in rep.n])
    assert [is_simple(_fresh(rep)) for rep in inputs] == verdicts
    assert len(made_full) >= decided


def test_the_search_reads_the_probes_is_simple_closed(monkeypatch):
    # is_simple records each probe's spans on the representation, and the
    # search after it reads them: no coordinate vector is closed twice on
    # one representation, and the search finds the same spans in the same
    # order as on a fresh copy
    probes = _spied_probes(monkeypatch)
    budget = SearchBudget()
    reused = searched = 0
    for rep, theta in _reps_exact_stability_inputs():
        alone, after = _fresh(rep), _fresh(rep)
        probes.clear()
        spans = reps._exact_invariant_spans(alone, budget)
        closed_alone = len(probes)
        probes.clear()
        simple = is_simple(after)
        by_is_simple = [(vertex, vec) for vertex, vec, _ in probes]
        assert set(by_is_simple) <= {(i, tuple(int(j == k) for j in range(rep.n[i])))
                                     for i, k in after._probe_spans}
        verdict = check_stability(after, theta, budget)
        calls = [(vertex, vec) for vertex, vec, _ in probes]
        assert len(set(calls)) == len(calls)
        assert verdict == check_stability(_fresh(rep), theta, budget)
        if not simple:  # both calls together close what the search alone does
            assert len(calls) == closed_alone
            probes.clear()
            assert reps._exact_invariant_spans(after, budget) == spans
            assert len(probes) == closed_alone - len(after._probe_spans)
            reused += len(by_is_simple)
            searched += 1
    assert (searched, reused) == (242, 303)


# ---------------------------------------------------------------------------
# the interned subspaces of the search


def _rref_rows(vectors) -> tuple:
    return reps._rows(linalg.Span(vectors))


def _hyperplane(rng, width: int) -> tuple[tuple, list[int]]:
    """The rows of the kernel of a seeded integer normal with some zero
    entries, so that its free column falls anywhere, and the normal."""
    normal = [0] * width
    while not any(normal):
        normal = [rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(width)]
    return _rref_rows(linalg.nullspace([normal])), normal


def _combinations(rng, rows, count: int) -> list:
    return [[sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))]
            for coeffs in ([rng.randint(-3, 3) for _ in rows] for _ in range(count))]


def _sum_cases():
    """(kind, width, ra, rb): seeded RREF pairs at widths 1-5."""
    rng = random.Random(131)

    def anything(width, lo=1, hi=None):
        rows = rng.randint(lo, width if hi is None else hi)
        return _rref_rows([[rng.randint(-4, 4) for _ in range(width)] for _ in range(rows)])

    for _ in range(30):
        for width in range(1, 6):
            identity = _rref_rows(np.eye(width, dtype=object))
            yield "full", width, identity, anything(width)
            if width < 2:
                continue
            h, normal = _hyperplane(rng, width)
            inside = _rref_rows(_combinations(rng, h, rng.randint(1, width - 1)))
            if inside and inside != h:
                yield "inside", width, h, inside
            outside = [rng.randint(-4, 4) for _ in range(width)]
            if sum(map(lambda a, b: a * b, normal, outside)):
                yield "outside", width, h, _rref_rows([outside])
            other, _ = _hyperplane(rng, width)
            if other != h:
                yield "hyperplanes", width, h, other
            if width >= 3:
                ra, rb = anything(width, 1, width - 2), anything(width, 1, width - 2)
                if ra and rb and ra != rb:
                    yield "elimination", width, ra, rb


def test_the_shortcut_sum_equals_the_eliminated_sum(monkeypatch):
    joined = []
    real = reps._join
    monkeypatch.setattr(reps, "_join", lambda ra, rb: joined.append((ra, rb)) or real(ra, rb))
    kinds = {}
    for kind, width, ra, rb in _sum_cases():
        want = reps._rows(real(ra, rb))
        table = reps._Subspaces(width)
        a, b = table.intern(ra), table.intern(rb)
        joined.clear()
        assert table.rows[table.join(a, b)] == table.rows[table.join(b, a)] == want
        # a sum with a full or hyperplane side runs no elimination; another
        # one is eliminated once for both orders
        shortcut = width in (len(ra), len(rb)) or width - 1 in (len(ra), len(rb))
        assert len(joined) == (0 if shortcut else 1)
        assert shortcut == (kind != "elimination")
        full = len(want) == width
        if kind in ("full", "outside", "hyperplanes"):
            assert full
        if full:  # a full sum's rows are the identity, the table's full subspace
            assert want == tuple(tuple(int(i == j) for j in range(width)) for i in range(width))
            assert table.join(a, b) == table.full
        if kind == "inside":
            assert want == ra and table.join(a, b) == a
        for h in {a, b}:
            if len(table.rows[h]) == width - 1:
                normal = table._normal(h)
                assert any(normal) and not any(sum(map(lambda x, y: x * y, normal, r))
                                               for r in table.rows[h])
        kinds[kind, width] = kinds.get((kind, width), 0) + 1
    assert all(kinds.get(("full", w), 0) >= 20 for w in range(1, 6))
    # at width 2 a hyperplane is a line, and holds no other nonzero subspace
    assert all(kinds.get(("inside", w), 0) >= 10 for w in range(3, 6))
    assert all(kinds.get((k, w), 0) >= 20 for k in ("outside", "hyperplanes")
               for w in range(2, 6))
    assert all(kinds.get(("elimination", w), 0) >= 20 for w in range(3, 6))


def test_the_shortcut_decides_most_benchmark_sums(monkeypatch):
    # over the exact check_stability inputs of the reps-exact benchmark at
    # seed 0, the pair sums the search works out (one per distinct pair of
    # subspaces per search with no full side) mostly come off a hyperplane's
    # normal; every one left to _join has neither a full nor a hyperplane side
    joined, sums = [], []
    real_join, real_sum = reps._join, reps._Subspaces._sum
    monkeypatch.setattr(reps, "_join", lambda ra, rb: joined.append((ra, rb)) or
                        real_join(ra, rb))
    monkeypatch.setattr(reps._Subspaces, "_sum", lambda table, a, b: sums.append(table.width) or
                        real_sum(table, a, b))
    for rep, theta in _reps_exact_stability_inputs():
        check_stability(rep, theta)
    assert 10 * len(joined) < len(sums)
    for ra, rb in joined:
        width = len((ra or rb)[0])
        assert {len(ra), len(rb)}.isdisjoint({width, width - 1})


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction references


def _diagonal_scaled(rep: Representation, seed: int) -> Representation:
    """rep conjugated by diagonal blocks whose entries have denominators 3,
    5 and 7, so that each arrow has its own mix of denominators."""
    rng = random.Random(seed)

    def block(k):
        diag = [F(rng.choice([-1, 1]) * rng.randint(1, 4), (3, 5, 7)[rng.randrange(3)])
                for _ in range(k)]
        return tuple(tuple(diag[i] if i == j else F(0) for j in range(k)) for i in range(k))

    return act(GroupElement(tuple(block(k) for k in rep.n)), rep)


def _int64(cfg, n, seed, zero_y=False) -> tuple[Representation, Representation]:
    """A representation whose entries are numpy int64 scalars near +-2**62,
    and its twin with the same entries as Fractions."""
    rng = random.Random(seed)
    q = quiver_from_config(cfg)

    def entry():
        return 0 if rng.random() < 0.2 else rng.choice([-1, 1]) * (2**62 - rng.randint(0, 99))

    mats = [
        ([[entry() for _ in range(n[s])] for _ in range(n[t])],
         [[0 if zero_y else entry() for _ in range(n[t])] for _ in range(n[s])])
        for s, t, _ in q.orientation
    ]

    def build(scalar):
        return Representation(q, n, EXACT, tuple(
            tuple([[scalar(e) for e in row] for row in m] for m in pair) for pair in mats))

    return build(np.int64), build(F)


def _kernel_cases():
    """(representation, Fraction twin for the references) pairs."""
    rng = random.Random(53)
    for k in range(3):
        seed = rng.randrange(10**6)
        for rep in (
            _rand(AFFINE, (2, 2), seed),
            _zero_y(_rand(ELLIPTIC, (2, 1), seed)),
            _rand(CHAIN, (1, 2, 1), seed),
            _rand(OGRADY, (3,), seed),
            direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (1, 2), seed + 1)),
            # zero vertices: a chain broken at its middle, an empty vertex
            _rand(CHAIN, (2, 0, 2), seed),
            _zero_y(_rand(CHAIN, (0, 2, 1), seed)),
            _rand(AFFINE, (2, 0), seed),
        ):
            scaled = _diagonal_scaled(rep, seed)
            yield scaled, scaled
        yield _int64(AFFINE, (2, 2), seed)
        # cyclic subrepresentations of these are proper at the arrows'
        # targets, so their checks multiply long rows by the entries
        yield _int64(AFFINE, (2, 3), seed, zero_y=True)
        yield _int64(CHAIN, (1, 2, 2), seed, zero_y=True)
        yield _int64(CHAIN, (2, 0, 1), seed)
        yield _int64(OGRADY, (3,), seed)


def _probes(rep: Representation, rng):
    for i, ni in enumerate(rep.n):
        for k in range(ni):
            yield i, tuple(F(int(j == k)) for j in range(ni))
        yield i, tuple(F(rng.randint(-4, 4), rng.choice([1, 3, 5, 7])) for _ in range(ni))


def _random_bases(rep: Representation, rng):
    """A graded subspace spanned by random vectors, seldom invariant."""
    return tuple(
        tuple(tuple(F(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(ni))
              for _ in range(rng.randint(0, ni)))
        for ni in rep.n
    )


def test_integer_kernel_matches_the_fraction_references():
    rng = random.Random(59)
    simple, invariance, wide = [], [], 0
    for rep, twin in _kernel_cases():
        got = is_simple(rep)
        assert got == reference_is_simple(twin), (rep.n, rep.mats)
        simple.append(got)
        for vertex, vec in _probes(rep, rng):
            assert cyclic_subrep(rep, vertex, vec) == reference_cyclic_subrep(twin, vertex, vec)
        budget = SearchBudget(probes=2, seed=rng.randrange(100))
        found = graded_invariant_spans(rep, budget)
        assert found == reference_invariant_spans(twin, budget)
        candidates = [bases for _, bases in found] + [_random_bases(rep, rng) for _ in range(4)]
        for bases in candidates:
            held = graded_invariance_holds(rep, bases)
            assert held == reference_invariance_holds(twin, bases), (rep.n, bases)
            invariance.append(held)
        wide += any(abs(int(e)) >= 2**62 - 99 for pair in rep.mats for m in pair for e in m.flat)
    assert 6 <= sum(simple) <= len(simple) - 6  # both verdicts occur
    assert 20 <= sum(invariance) <= len(invariance) - 20
    assert wide >= 12


_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
    "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


def test_exact_kernel_does_no_fraction_arithmetic(monkeypatch):
    reps = [_diagonal_scaled(_zero_y(_rand(AFFINE, (2, 2), 7)), 7),
            _diagonal_scaled(_rand(CHAIN, (1, 2, 1), 8), 8)]
    for rep in reps:  # arrows with denominators other than 1 and 2
        assert {e.denominator for pair in rep.mats for m in pair for e in m.flat} - {1, 2}

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in the exact kernel")

    with monkeypatch.context() as patch:
        for name in _ARITHMETIC:
            patch.setattr(Fraction, name, forbidden)
        with pytest.raises(AssertionError, match="Fraction arithmetic"):
            F(1, 3) * F(3, 5)  # the patch is in force
        out = []
        for rep in reps:
            found = graded_invariant_spans(rep, SearchBudget(probes=2))
            out.append((
                is_simple(rep),
                cyclic_subrep(rep, 1, (F(1, 3), F(-2, 5))),
                found,
                [graded_invariance_holds(rep, bases) for _, bases in found],
            ))
    for rep, (simple, sub, found, held) in zip(reps, out):
        assert simple == reference_is_simple(rep)
        assert sub == reference_cyclic_subrep(rep, 1, (F(1, 3), F(-2, 5)))
        assert found and all(held)


if __name__ == "__main__":
    for name, digest in stability_digests().items():
        print(f'    "{name}": "{digest}",')
