"""The float stability search: its batched kernel, its verdicts and its witnesses.

``check_stability`` in float mode runs every restart of a candidate beta
together through one stacked kernel. It is pinned against
``helpers.reference_float_search``, the search run one restart and one arrow
at a time on projector matrices: the verdict type and beta must be the
same on seeded representations of every shape the search meets (generic
ones, y = 0 ones, direct sums at a wall, and direct sums hidden by a random
change of basis), and the kernel's defect and gradient must equal
``helpers.reference_defect_and_grad`` on random frames for every beta.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from quiverk3 import CurveConfig, quiver_from_config, random_representation
from quiverk3 import reps
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


@pytest.mark.parametrize("cfg, n", [
    (AFFINE, (2, 3)), (AFFINE, (0, 2)), (ELLIPTIC, (2, 2)), (ELLIPTIC, (3, 1)), (OGRADY, (4,)),
])
def test_fused_kernel_matches_the_reference_defect_and_gradient(cfg, n):
    rng = np.random.default_rng(sum(n) * 7 + len(n))
    rep = _rand(cfg, n, 11)
    groups = reps._arrow_groups(rep)
    # 1e-12 relative to the size of the data: |A|^2 summed over the arrows
    scale = sum(float(np.linalg.norm(a) ** 2) for pair in rep.mats for a in pair)
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


def test_search_groups_the_arrows_once(monkeypatch):
    # no destabilizer is found, so every candidate beta is descended on, all
    # on the same arrow groups
    group, calls = reps._arrow_groups, []

    def counted(r):
        calls.append(1)
        return group(r)

    monkeypatch.setattr(reps, "_arrow_groups", counted)
    verdict = check_stability(_rand(ELLIPTIC, (2, 2), 5), (F(-1), F(1)), SearchBudget())
    assert isinstance(verdict, NoDestabilizerFound)
    assert len(calls) == 1


def test_witness_recheck_does_not_trust_the_kernel(monkeypatch):
    # a kernel that calls every frame invariant must not certify a witness
    # on a representation with no proper subrepresentation
    rep = _rand(AFFINE, (2, 2), 5)
    assert isinstance(check_stability(rep, (F(-1), F(1))), NoDestabilizerFound)

    def blind(groups, frames):
        return np.zeros(len(frames[0])), [np.zeros_like(u) for u in frames]

    monkeypatch.setattr(reps, "_defect_and_grad", blind)
    assert isinstance(check_stability(rep, (F(-1), F(1))), NoDestabilizerFound)
