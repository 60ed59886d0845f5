"""The float stability search: its batched kernel, its verdicts and its witnesses.

``check_stability`` in float mode skips its search, as exact mode does, on
a representation that ``is_simple`` calls simple, after its root-box bound.
Otherwise it runs every restart of a candidate beta together through one
stacked kernel. It is pinned against
``helpers.reference_float_search``, the search run one restart and one arrow
at a time on projector matrices: the verdict type and beta must be the
same on seeded representations of every shape the search meets (generic
ones, y = 0 ones, direct sums at a wall, and direct sums hidden by a random
change of basis), and the kernel's defect and gradient must equal
``helpers.reference_defect_and_grad`` on random frames for every beta. A
candidate beta whose singular-value floor no frame can get under tol is
skipped after its start frames are drawn; the floor is checked against the
projector defect of random frames, and the verdicts and witness frames
against a search that skips nothing. A representation whose sum |A|_F^2 is
below 1 is judged at unit scale; every case above is at or past it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from quiverk3 import CurveConfig, quiver_from_config, random_representation
from quiverk3 import InvariantError, reps
from quiverk3.quiver import boxed_vectors
from quiverk3.reps import (
    GroupElement,
    NoDestabilizerFound,
    Representation,
    SearchBudget,
    act,
    check_stability,
    direct_sum,
)
from helpers import reference_defect_and_grad, reference_float_search

F = Fraction

AFFINE = CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))
ELLIPTIC = CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
OGRADY = CurveConfig(((2,),), (1,), (2,), (1,))
DISJOINT = CurveConfig(((-2, 0), (0, 0)), (1, 1), (1, 1), (1, 1))  # one loop, at curve 1


def _rand(cfg, n, seed):
    return random_representation(quiver_from_config(cfg), n, seed=seed, mode="float")


def _zero_y(rep: Representation) -> Representation:
    return Representation(rep.quiver, rep.n, rep.mode, tuple((x, 0 * y) for x, y in rep.mats))


def _hidden(rep: Representation, seed: int) -> Representation:
    rng = np.random.default_rng(seed)
    blocks = tuple(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in rep.n)
    return act(GroupElement(blocks), rep)


def _theta(n):
    """theta . n = 0, with theta_1 > 0 on two vertices."""
    return (F(-n[1]), F(n[0])) if len(n) == 2 else (F(0),)


def _cases():
    """(representation, theta, budget) at total dimension 2-6 on the affine,
    elliptic and O'Grady quivers. The larger ones get a smaller budget so
    that the sequential reference stays quick; the comparison holds for
    any budget."""
    rng = random.Random(2027)
    small = dict(restarts=3, iters=60)
    for k in range(2):
        seed = rng.randrange(10**6)
        budget = SearchBudget(seed=seed)
        for cfg, n in ((AFFINE, (1, 1)), (ELLIPTIC, (1, 2)), (OGRADY, (2,))):
            yield _rand(cfg, n, seed), _theta(n), budget
        for cfg, n in ((AFFINE, (2, 3)), (OGRADY, (3,))):
            yield _rand(cfg, n, seed), _theta(n), SearchBudget(seed=seed, **small)
        for cfg, n in ((AFFINE, (2, 2)), (ELLIPTIC, (1, 1)), (ELLIPTIC, (2, 1))):
            yield _zero_y(_rand(cfg, n, seed)), _theta(n), budget
        for cfg, a, b in ((AFFINE, (1, 1), (1, 1)), (ELLIPTIC, (1, 1), (1, 1)),
                          (OGRADY, (1,), (2,)), (AFFINE, (1, 1), (2, 2))):
            wall = direct_sum(_rand(cfg, a, seed), _rand(cfg, b, seed + 1))
            budget_here = budget if sum(wall.n) <= 4 else SearchBudget(seed=seed, **small)
            yield wall, _theta(a), budget_here
            yield _hidden(wall, seed), _theta(a), budget_here
        # off the wall the summand (1, 2) has positive slope: found by descent
        # after the steeper candidates fail
        for cfg in (AFFINE, ELLIPTIC):
            off = direct_sum(_rand(cfg, (1, 1), seed), _rand(cfg, (1, 2), seed + 1))
            yield _hidden(off, seed), _theta(off.n), SearchBudget(seed=seed, **small)


def _assert_orthonormal_witness(verdict, n):
    """Every block of a float witness has beta_i orthonormal columns."""
    for ni, bi, u in zip(n, verdict.beta, verdict.basis):
        assert u.shape == (ni, bi)
        assert np.allclose(u.conj().T @ u, np.eye(bi), atol=1e-10)


def test_float_verdicts_match_the_sequential_reference():
    kinds = []
    for rep, theta, budget in _cases():
        verdict = check_stability(rep, theta, budget)
        got = (type(verdict).__name__, getattr(verdict, "beta", None))
        assert got == reference_float_search(rep, theta, budget)
        if not isinstance(verdict, NoDestabilizerFound):
            _assert_orthonormal_witness(verdict, rep.n)
        kinds.append(got[0])
    assert len(kinds) >= 30
    # every verdict type is reached, several times
    assert all(kinds.count(k) >= 5 for k in (
        "CertifiedUnstable", "StrictlySemistableWitness", "NoDestabilizerFound"))


def _stacked_frames(n, beta, R, rng):
    """R random frame tuples, stacked per vertex: orthonormal (n_i, beta_i)
    frames where 0 < beta_i < n_i, identity or empty frames elsewhere."""
    frames = []
    for ni, bi in zip(n, beta):
        if 0 < bi < ni:
            m = rng.standard_normal((R, ni, bi)) + 1j * rng.standard_normal((R, ni, bi))
            frames.append(np.linalg.qr(m)[0])
        else:
            frames.append(np.tile(np.eye(ni, bi, dtype=complex), (R, 1, 1)))
    return frames


def _scale(rep) -> float:
    """|A|^2 summed over the arrows: the size of the data, for rounding."""
    return sum(float(np.linalg.norm(a) ** 2) for pair in rep.mats for a in pair)


@pytest.mark.parametrize("cfg, n", [
    (AFFINE, (2, 3)), (AFFINE, (0, 2)), (ELLIPTIC, (2, 2)), (ELLIPTIC, (3, 1)), (OGRADY, (4,)),
])
def test_fused_kernel_matches_the_reference_defect_and_gradient(cfg, n):
    rng = np.random.default_rng(sum(n) * 7 + len(n))
    rep = _rand(cfg, n, 11)
    groups = reps._arrow_groups(rep)
    scale = _scale(rep)  # 1e-12 relative to the size of the data
    for beta in boxed_vectors(n):  # includes 0 and n, and full and empty vertices
        R = 3
        frames = _stacked_frames(n, beta, R, rng)
        defect, grads = reps._defect_and_grad(groups, frames)
        assert defect.shape == (R,)
        for r in range(R):
            ref_defect, ref_grads = reference_defect_and_grad(rep, beta, [f[r] for f in frames])
            assert abs(defect[r] - ref_defect) <= 1e-12 * scale
            for i, (ni, bi) in enumerate(zip(n, beta)):
                if 0 < bi < ni:  # the gradient of a frame that moves
                    assert np.linalg.norm(grads[i][r] - ref_grads[i]) <= 1e-12 * scale


def test_full_vertex_witness_carries_the_identity(affine_a1):
    # y = 0 with x = 1 on both edges: V_1 is a subrepresentation, beta = (0, 1)
    q = quiver_from_config(affine_a1)
    rep = Representation(q, (1, 1), "float", tuple(([[1]], [[0]]) for _ in q.orientation))
    verdict = check_stability(rep, (F(-1), F(1)))
    assert type(verdict).__name__ == "CertifiedUnstable" and verdict.beta == (0, 1)
    assert verdict.basis[0].shape == (1, 0)
    assert np.array_equal(verdict.basis[1], np.eye(1))
    _assert_orthonormal_witness(verdict, rep.n)


def test_descent_skips_a_candidate_with_no_moving_frame(monkeypatch):
    # beta = (0, 1) at n = (1, 1) fixes both frames: one kernel evaluation
    # gives the defect, and no step could change it
    kernel, calls = reps._defect_and_grad, []

    def counted(groups, frames):
        calls.append(1)
        return kernel(groups, frames)

    monkeypatch.setattr(reps, "_defect_and_grad", counted)
    rep = _rand(AFFINE, (1, 1), 0)
    reps._minimize_defect(rep, (0, 1), SearchBudget(), np.random.default_rng(0),
                          reps._arrow_groups(rep))
    assert len(calls) == 1


def _candidates(n, theta) -> int:
    """The number of candidate dimension vectors of slope >= 0 at theta."""
    return sum(1 for b in boxed_vectors(n) if any(b) and b != n
               and sum(t * x for t, x in zip(theta, b)) >= 0)


def test_search_groups_the_arrows_once(monkeypatch):
    # y = 0 makes V_1 a subrepresentation, so the representation is not
    # simple and the search runs; at theta = (1, -1) its slope is negative,
    # and no candidate of slope >= 0 is a subrepresentation, so every
    # candidate beta is descended on, all on the same arrow groups
    rep, theta = _zero_y(_rand(ELLIPTIC, (2, 2), 5)), (F(1), F(-1))
    assert not reps.is_simple(rep)
    group, minimize, calls, descents = reps._arrow_groups, reps._minimize_defect, [], []

    def counted(r):
        calls.append(1)
        return group(r)

    def descended(rep, beta, *args):
        descents.append(beta)
        return minimize(rep, beta, *args)

    monkeypatch.setattr(reps, "_arrow_groups", counted)
    monkeypatch.setattr(reps, "_minimize_defect", descended)
    verdict = check_stability(rep, theta, SearchBudget())
    assert isinstance(verdict, NoDestabilizerFound)
    assert len(calls) == 1
    assert len(descents) == len(set(descents)) == _candidates(rep.n, theta) == 4


def test_witness_recheck_does_not_trust_the_kernel(monkeypatch):
    # a kernel that calls every frame invariant must not certify a witness:
    # on a direct sum at its wall the search runs, the blind kernel proposes
    # its random start frames for every candidate, and the projector recheck
    # refuses each of them. The O'Grady quiver has only loops, so the
    # singular-value floor rules no candidate out and each reaches the kernel
    rep, theta = direct_sum(_rand(OGRADY, (1,), 5), _rand(OGRADY, (2,), 6)), (F(0),)
    assert not reps.is_simple(rep)
    assert type(check_stability(rep, theta)).__name__ == "StrictlySemistableWitness"
    kernel_calls, rechecked = [], []

    def blind(groups, frames):
        kernel_calls.append(1)
        return np.zeros(len(frames[0])), [np.zeros_like(u) for u in frames]

    recheck = reps._projector_defect

    def spied(rep, frames):
        rechecked.append(recheck(rep, frames))
        return rechecked[-1]

    monkeypatch.setattr(reps, "_defect_and_grad", blind)
    monkeypatch.setattr(reps, "_projector_defect", spied)
    assert isinstance(check_stability(rep, theta), NoDestabilizerFound)
    assert kernel_calls
    assert len(rechecked) == _candidates(rep.n, theta) == 2
    assert all(defect >= SearchBudget().tol for defect in rechecked)


# ---------------------------------------------------------------------------
# the singular-value floor


def _spy_ruled_out(monkeypatch) -> list:
    """Records (beta, ruled_out) of every ``_minimize_defect`` call."""
    minimize, tried = reps._minimize_defect, []

    def spied(rep, beta, budget, rng, groups, ruled_out=False):
        tried.append((beta, bool(ruled_out)))
        return minimize(rep, beta, budget, rng, groups, ruled_out)

    monkeypatch.setattr(reps, "_minimize_defect", spied)
    return tried


def test_the_floor_is_below_the_defect_of_every_frame():
    # soundness: no orthonormal frame tuple of dimensions beta gets a
    # projector defect below the floor of beta, up to rounding
    rng = np.random.default_rng(46)
    positive = 0
    for rep, _, _ in _cases():
        tails = reps._singular_tails(reps._arrow_groups(rep))
        for beta in boxed_vectors(rep.n):
            floor = reps._defect_floor(tails, rep.n, beta)
            positive += floor > 1e-6
            frames = _stacked_frames(rep.n, beta, 4, rng)
            for r in range(4):
                defect = reps._projector_defect(rep, [f[r] for f in frames])
                assert defect >= floor - 1e-12 * _scale(rep)
    assert positive >= 50  # the floor is not vacuous


def _result(verdict):
    """A verdict's kind, beta, defect and the bytes of its witness frames."""
    return (type(verdict).__name__, getattr(verdict, "beta", None),
            getattr(verdict, "defect", None),
            tuple(u.tobytes() for u in getattr(verdict, "basis", ())))


def test_the_floor_changes_no_verdict_and_no_witness(monkeypatch):
    # the same search with a floor that rules nothing out gives the same
    # verdicts and the same witness frames, bit for bit: a ruled-out
    # candidate draws its start frames as a descent would
    tried = _spy_ruled_out(monkeypatch)
    with_floor = [_result(check_stability(rep, theta, budget)) for rep, theta, budget in _cases()]
    assert sum(out for _, out in tried) >= 20  # candidates the floor ruled out
    monkeypatch.setattr(reps, "_defect_floor", lambda tails, n, beta: -np.inf)
    tried.clear()
    without = [_result(check_stability(rep, theta, budget)) for rep, theta, budget in _cases()]
    assert not any(out for _, out in tried)
    assert with_floor == without
    assert sum(r[0] != "NoDestabilizerFound" for r in with_floor) >= 10


def test_a_ruled_out_candidate_never_reaches_the_kernel(monkeypatch):
    # at the wall theta = (-1, 1) of the affine (1, 1) + (1, 1) sum, every
    # beta with beta_0 != beta_1 has a positive floor: its arrows have full
    # rank 2. Only (1, 1) is descended on, and it is certified
    rep, theta = direct_sum(_rand(AFFINE, (1, 1), 5), _rand(AFFINE, (1, 1), 6)), (F(-1), F(1))
    tried, kernel, kernel_betas = _spy_ruled_out(monkeypatch), reps._defect_and_grad, set()

    def spied_kernel(groups, frames):
        kernel_betas.add(tuple(f.shape[2] for f in frames))
        return kernel(groups, frames)

    monkeypatch.setattr(reps, "_defect_and_grad", spied_kernel)
    verdict = check_stability(rep, theta)
    assert type(verdict).__name__ == "StrictlySemistableWitness" and verdict.beta == (1, 1)
    assert len(tried) == _candidates(rep.n, theta) == 4
    assert {beta for beta, out in tried if out} == {(0, 1), (0, 2), (1, 2)}
    assert kernel_betas == {(1, 1)}


def test_the_floor_costs_a_loops_only_search_no_svd(monkeypatch):
    # one O'Grady vertex: every arrow is a loop, which bounds nothing; the
    # affine sum, whose arrows join two vertices, takes one SVD per group
    svd, shapes = np.linalg.svd, []

    def spied(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied)
    check_stability(direct_sum(_rand(OGRADY, (1,), 5), _rand(OGRADY, (2,), 6)), (F(0),))
    assert shapes == []
    check_stability(direct_sum(_rand(AFFINE, (1, 1), 5), _rand(AFFINE, (1, 1), 6)), (F(-1), F(1)))
    assert shapes == [(2, 2, 2), (2, 2, 2)]


def test_a_floor_that_is_not_finite_rules_nothing_out(monkeypatch):
    # an entry that is not finite is refused when the representation is
    # built, so every floor the search meets is finite: on the wall sum the
    # floor rules out the 3 candidates with beta_0 != beta_1, and a NaN,
    # inf or -inf entry never reaches a search
    rep = direct_sum(_rand(AFFINE, (1, 1), 5), _rand(AFFINE, (1, 1), 6))
    tails = reps._singular_tails(reps._arrow_groups(rep))
    assert all(np.isfinite(reps._defect_floor(tails, rep.n, b)) for b in boxed_vectors(rep.n))
    tried = _spy_ruled_out(monkeypatch)
    assert not isinstance(check_stability(rep, (F(-1), F(1))), NoDestabilizerFound)
    assert sorted(tried) == [((0, 1), True), ((0, 2), True), ((1, 1), False), ((1, 2), True)]
    for bad in (np.nan, np.inf, -np.inf):
        mats = [[m.copy() for m in pair] for pair in rep.mats]
        mats[0][0][0, 0] = bad
        with pytest.raises(ValueError, match="x matrix for edge 0->1 must have finite entries"):
            Representation(rep.quiver, rep.n, "float", tuple(map(tuple, mats)))


# ---------------------------------------------------------------------------
# the search skipped on simple representations


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refused


def test_check_stability_skips_the_search_on_simple_float_representations(monkeypatch):
    # a simple representation has no proper subrepresentation, so neither
    # the arrow groups nor a descent is needed: the verdict is the budget
    simple = [(rep, theta, budget) for rep, theta, budget in _cases() if reps.is_simple(rep)]
    assert len(simple) >= 10
    monkeypatch.setattr(reps, "_arrow_groups", _refuse("_arrow_groups"))
    monkeypatch.setattr(reps, "_minimize_defect", _refuse("_minimize_defect"))
    for rep, theta, budget in simple:
        assert check_stability(rep, theta, budget) == NoDestabilizerFound(
            budget.probes, budget.restarts, budget.tol)


def test_one_float_verdict_serves_is_simple_and_check_stability(monkeypatch):
    # is_simple then check_stability on one float representation, as a
    # benchmark round calls them, run the rank test once; so does the
    # other order, and a second representation of the same matrices runs
    # its own
    calls = []
    real = reps._float_simple

    def spied(rep):
        calls.append(rep)
        return real(rep)

    monkeypatch.setattr(reps, "_float_simple", spied)
    verdicts = set()
    for rep, theta, budget in _cases():
        verdicts.add(reps.is_simple(rep))
        check_stability(rep, theta, budget)
        assert calls == [rep]
        twin = Representation(rep.quiver, rep.n, rep.mode, rep.mats)
        check_stability(twin, theta, budget)
        assert reps.is_simple(twin) == reps.is_simple(rep) and calls == [rep, twin]
        calls.clear()
    assert verdicts == {True, False}


def test_witness_frames_are_read_only_copies():
    # a certified frame is a value: it cannot be written into, and it holds
    # no more memory than its own entries, not the restarts' stack
    witnesses = 0
    for rep, theta, budget in _cases():
        verdict = check_stability(rep, theta, budget)
        for u in getattr(verdict, "basis", ()):
            witnesses += 1
            owner = u if u.base is None else u.base
            assert not u.flags.writeable and owner.nbytes == u.nbytes
            with pytest.raises(ValueError, match="read-only"):
                u[...] = 0
    assert witnesses >= 10


def _near_reducible(eps: float) -> Representation:
    """The direct sum of two affine (1, 1) representations with every
    matrix moved by eps times complex normals, in orientation order, x
    before y."""
    q = quiver_from_config(AFFINE)
    wall = direct_sum(*(random_representation(q, (1, 1), seed=s, mode="float") for s in (1, 2)))
    rng = np.random.default_rng(3)
    mats = tuple(tuple(m + eps * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
                       for m in pair) for pair in wall.mats)
    return Representation(q, wall.n, "float", mats)


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
def test_a_near_reducible_representation_called_simple_gets_no_witness(eps, monkeypatch):
    # the rank test calls it simple, so the search is skipped; the search
    # itself would certify the summand (1, 1) to a defect below tol, which
    # contradicted the float is_simple verdict before the skip
    rep, theta = _near_reducible(eps), (F(-1), F(1))
    assert reps.is_simple(rep)
    assert isinstance(check_stability(rep, theta), NoDestabilizerFound)
    monkeypatch.setattr(reps, "is_simple", lambda rep: False)
    verdict = check_stability(rep, theta)
    assert type(verdict).__name__ == "StrictlySemistableWitness" and verdict.beta == (1, 1)
    assert verdict.defect < SearchBudget().tol


def test_the_size_bounds_come_before_is_simple(monkeypatch):
    # float: the box 0 <= beta <= n past MAX_ROOT_BOX; exact: sum(n) past
    # MAX_SEARCH_SIZE. Each is refused before is_simple runs
    q = quiver_from_config(DISJOINT)
    monkeypatch.setattr(reps, "is_simple", _refuse("is_simple"))
    big = Representation(q, (5000, 1), "float", (([[0]], [[0]]),))
    with pytest.raises(InvariantError) as err:
        check_stability(big, (F(1), F(-5000)))
    assert err.value.invariant == "root-box"
    n = (reps.MAX_SEARCH_SIZE, 1)
    big = Representation(q, n, "exact", (([[0]], [[0]]),))
    with pytest.raises(InvariantError) as err:
        check_stability(big, (F(1), F(-n[0])))
    assert err.value.invariant == "search-size"


def _norm2(rep: Representation) -> float:
    """sum |A|_F^2 over the arrows x and y."""
    return sum(np.vdot(a, a).real for pair in rep.mats for a in pair)


def test_every_case_is_searched_at_its_own_scale():
    # at sum |A|_F^2 >= 1 the search runs on the representation as given,
    # so the unit-scale rule moves none of these verdicts
    assert min(_norm2(rep) for rep, _, _ in _cases()) >= 1


@pytest.mark.parametrize("scale", [1e-2, 1e-5, 1e-8])
def test_a_small_wall_sum_is_judged_at_unit_scale(scale):
    # at 1e-5 the absolute tol certified V_1 alone, no subrepresentation, as
    # CertifiedUnstable (0, 1) with defect 2.7e-10; at 1e-2 it found nothing
    q = quiver_from_config(AFFINE)
    wall = direct_sum(*(random_representation(q, (1, 1), seed=s, mode="float") for s in (1, 2)))
    theta = (F(-1), F(1))
    want = check_stability(wall, theta)
    assert type(want).__name__ == "StrictlySemistableWitness" and want.beta == (1, 1)
    small = Representation(q, wall.n, "float",
                           tuple(tuple(scale * m for m in pair) for pair in wall.mats))
    got = check_stability(small, theta)
    assert (type(got), got.beta) == (type(want), want.beta)
    # the witness spans a subrepresentation of the small sum as given
    assert reps._projector_defect(small, got.basis) < SearchBudget().tol * _norm2(small)
