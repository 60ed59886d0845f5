"""Equivariance oracles: answers that must not change under a relabelling
of the curves or under duality.

A relabelling of the vertices permutes the gram matrix, the multiplicities
and the matrices together. The quiver's fixed orientation (edges i -> j for
i < j) may then run an edge the other way, and such an edge's x and y
change places. Duality transposes every matrix and swaps x and y. Neither
changes the image of the path algebra, so ``is_simple`` must give the same
verdict on both sides, and ``check_stability`` the same verdict kind and
slope under a relabelling. ``is_simple`` must also keep its verdict under a
change of basis at each vertex (``helpers.unipotent_conjugate``). The draws
are seeded exact representations: random ones, y = 0 ones and direct sums,
on the fixtures and on ``random_config`` draws with two to four curves.

On the configurations, relabelling keeps the roots, walls, chambers,
strata and v-walls (mapped back), the ``cb-check`` verdict and the
relabelling-invariant data of the ``correspondence`` report. Chamber
representatives and wall normals are never compared: ``nperp_basis``
depends on the curve order, and a normal is defined only modulo n.
"""

from __future__ import annotations

import operator
import random

from conftest import random_config
from quiverk3 import (
    CurveConfig,
    LocalModel,
    cb_simple_exists,
    chamber_signature,
    quiver_from_config,
    random_representation,
    v_walls,
    verify_correspondence,
)
from quiverk3.quiver import is_positive_root, p_of
from quiverk3.reps import Representation, check_stability, direct_sum, dual, is_simple
from quiverk3.strata import _strata
from quiverk3.walls import _sign_insensitive_key
from helpers import unipotent_conjugate

AFFINE = CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))
ELLIPTIC = CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
CHAIN = CurveConfig(((-2, 1, 0), (1, -2, 1), (0, 1, -2)), (1, 1, 1), (1, 1, 1), (1, 1, 1))


def relabelled_config(cfg: CurveConfig, perm) -> CurveConfig:
    """The configuration with curve i renamed perm[i]."""
    inv = sorted(range(cfg.s), key=perm.__getitem__)
    return CurveConfig(
        tuple(tuple(cfg.gram[inv[a]][inv[b]] for b in range(cfg.s)) for a in range(cfg.s)),
        tuple(cfg.chi[i] for i in inv), tuple(cfg.mult[i] for i in inv),
        tuple(cfg.h0deg[i] for i in inv),
    )


def relabelled(cfg: CurveConfig, rep: Representation, perm) -> tuple[CurveConfig, Representation]:
    """The configuration and representation with curve i renamed perm[i]."""
    inv = sorted(range(cfg.s), key=perm.__getitem__)
    pcfg = relabelled_config(cfg, perm)
    mats = {}
    for (s, t, k), (x, y) in zip(rep.quiver.orientation, rep.mats):
        ps, pt = perm[s], perm[t]
        mats[(ps, pt, k) if ps <= pt else (pt, ps, k)] = (x, y) if ps <= pt else (y, x)
    q = quiver_from_config(pcfg)
    n = tuple(rep.n[i] for i in inv)
    return pcfg, Representation(q, n, rep.mode, tuple(mats[e] for e in q.orientation))


def _draws():
    """(configuration, representation) pairs of total dimension 1-7."""
    rng = random.Random(83)
    configs = [AFFINE, ELLIPTIC, CHAIN]
    configs += [random_config(random.Random(seed), 2, 4, gram_bound=3, mult_max=2)
                for seed in range(6)]
    for cfg in configs:
        q = quiver_from_config(cfg)
        for _ in range(3):
            n = tuple(rng.randint(0 if cfg.s > 2 else 1, 2) for _ in range(cfg.s))
            rep = random_representation(q, n, seed=rng.randrange(10**6))
            yield cfg, rep
            yield cfg, Representation(q, n, rep.mode, tuple((x, 0 * y) for x, y in rep.mats))
        one = tuple(int(i == 0) for i in range(cfg.s))
        rest = tuple(1 - x for x in one)
        yield cfg, direct_sum(random_representation(q, one, seed=rng.randrange(10**6)),
                              random_representation(q, rest, seed=rng.randrange(10**6)))


def test_is_simple_is_invariant_under_duality_and_relabelling():
    rng = random.Random(89)
    verdicts = []
    for k, (cfg, rep) in enumerate(_draws()):
        got = is_simple(rep)
        assert is_simple(dual(rep)) == got, (rep.n, rep.mats)
        assert is_simple(unipotent_conjugate(rep, k)) == got, (k, rep.n, rep.mats)
        for _ in range(2):
            perm = list(range(cfg.s))
            rng.shuffle(perm)
            pcfg, prep = relabelled(cfg, rep, perm)
            assert is_simple(prep) == got, (perm, rep.n, rep.mats)
            assert is_simple(dual(prep)) == got
        verdicts.append(got)
    assert 8 <= sum(verdicts) <= len(verdicts) - 8  # both verdicts occur


def test_stability_verdicts_are_invariant_under_relabelling():
    """A relabelling maps subrepresentations to subrepresentations with
    permuted dimension vectors and the same slope at the permuted theta, so
    ``check_stability`` must give the same verdict kind and slope. The
    witness's beta is not compared: among subspaces of equal slope the
    least dimension vector wins, and that order depends on the labels (at
    theta = 0 one side may pick (0, 1) and the other (1, 0))."""
    rng = random.Random(109)
    kinds = set()
    for cfg, rep in _draws():
        n = rep.n
        thetas = [(0,) * cfg.s]
        for _ in range(3):
            r = [rng.randint(-3, 3) for _ in n]
            dot = sum(map(operator.mul, r, n))
            thetas.append(tuple(sum(n) * x - dot for x in r))  # theta . n = 0
        perm = list(range(cfg.s))
        rng.shuffle(perm)
        _, prep = relabelled(cfg, rep, perm)
        for theta in thetas:
            ptheta = tuple(theta[perm.index(a)] for a in range(cfg.s))
            got, pgot = check_stability(rep, theta), check_stability(prep, ptheta)
            assert type(pgot) is type(got), (perm, theta, rep.n, rep.mats)
            assert getattr(pgot, "slope", None) == getattr(got, "slope", None), (perm, theta)
            kinds.add(type(got).__name__)
    assert len(kinds) == 3  # every verdict kind occurs


def test_relabelling_maps_the_quiver_and_the_arrows_back():
    # the inverse relabelling returns the configuration and the matrices
    rng = random.Random(97)
    for cfg, rep in _draws():
        perm = list(range(cfg.s))
        rng.shuffle(perm)
        pcfg, prep = relabelled(cfg, rep, perm)
        assert pcfg.mult == tuple(cfg.mult[perm.index(a)] for a in range(cfg.s))
        inv = sorted(range(cfg.s), key=perm.__getitem__)
        back_cfg, back = relabelled(pcfg, prep, inv)
        assert back_cfg == cfg and back == rep


def _walled_draws(seed: int, count: int, max_walls: int, gram_bound: int) -> list[CurveConfig]:
    """The first ``count`` draws of ``random_config(Random(seed), 2, 4)``
    with at most ``max_walls`` quiver walls."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        cfg = random_config(rng, 2, 4, gram_bound=gram_bound, mult_max=2)
        if len(LocalModel(cfg).quiver_walls) <= max_walls:
            out.append(cfg)
    return out


def test_relabelled_configurations_give_the_same_answers():
    """Under a random permutation of the curves: the roots (mapped back),
    both wall counts, the chamber count, simple_exists(n), simple_exists
    at every root (mapped back), the multiset of strata dimensions and the
    multiset of each stratum's parts (k, beta) (mapped back) agree, and the
    relabelled chambers' representatives,
    mapped back, have the signatures against the original walls of distinct
    original chambers, all of them. Representatives and wall normals are
    never compared: ``nperp_basis`` depends on the curve order, and a normal
    is defined only modulo n."""
    rng = random.Random(103)
    configs = [AFFINE, ELLIPTIC, CHAIN] + _walled_draws(1, 60, 16, 3) + _walled_draws(3, 20, 19, 4)
    for cfg in configs:
        perm = list(range(cfg.s))
        rng.shuffle(perm)
        model, pmodel = LocalModel(cfg), LocalModel(relabelled_config(cfg, perm))

        def back(v):
            return tuple(v[perm[i]] for i in range(cfg.s))

        assert sorted(map(back, pmodel.roots)) == sorted(model.roots), (cfg, perm)
        assert len(pmodel.quiver_walls) == len(model.quiver_walls), (cfg, perm)
        assert len(pmodel.ample_walls) == len(model.ample_walls), (cfg, perm)
        chambers = model.chambers
        assert pmodel.chambers.count == chambers.count, (cfg, perm)
        signatures = [chamber_signature(back(theta), chambers.walls)
                      for theta in pmodel.chambers.representatives]
        assert len(set(signatures)) == len(signatures), (cfg, perm)
        assert set(signatures) == set(chambers.signatures), (cfg, perm)
        simple, psimple = model.simple_exists(model.n), pmodel.simple_exists(pmodel.n)
        assert (psimple.exists, psimple.is_root) == (simple.exists, simple.is_root), (cfg, perm)
        for beta in pmodel.roots_upto:
            got, want = pmodel.simple_exists(beta), model.simple_exists(back(beta))
            assert (got.exists, got.is_root) == (want.exists, want.is_root), (cfg, perm, beta)
        strata, pstrata = _strata(model), _strata(pmodel)
        assert sorted(r.dim for r in pstrata) == sorted(r.dim for r in strata), (cfg, perm)
        parts = sorted(sorted(r.decomposition.parts) for r in strata)
        pparts = sorted(sorted((k, back(beta)) for k, beta in r.decomposition.parts)
                        for r in pstrata)
        assert pparts == parts, (cfg, perm)


def test_relabelling_keeps_the_v_walls_of_the_degree_cone():
    """The v-walls that meet the cone are hyperplanes of degree vectors, so a
    relabelling permutes their coefficients and keeps ``through_h0``. Each
    is compared as the sign-insensitive key of its coefficients, mapped back,
    with its flag; the (beta, chi_Gamma) that names it depends on the box
    order, and is never compared."""
    rng = random.Random(107)
    configs = [AFFINE, ELLIPTIC, CHAIN] + [
        random_config(random.Random(seed), 2, 4, gram_bound=4, mult_max=3) for seed in range(20)]
    for cfg in configs:
        perm = list(range(cfg.s))
        rng.shuffle(perm)

        def hyperplanes(walls, order):
            return sorted((_sign_insensitive_key([coeffs[k] for k in order]), through)
                          for _, _, coeffs, through in walls)

        got = hyperplanes(v_walls(relabelled_config(cfg, perm)), perm)
        assert got == hyperplanes(v_walls(cfg), range(cfg.s)), (cfg, perm)


def _relabelled_draws(seed: int, configs) -> list[tuple[CurveConfig, CurveConfig, object]]:
    """(configuration, relabelled configuration, back) for a seeded random
    permutation of each configuration's curves; back maps a vector of the
    relabelled side back to the original labels."""
    rng, out = random.Random(seed), []
    for cfg in configs:
        perm = list(range(cfg.s))
        rng.shuffle(perm)
        out.append((cfg, relabelled_config(cfg, perm),
                    lambda v, perm=perm: tuple(v[p] for p in perm)))
    return out


def test_the_cb_check_verdict_is_invariant_under_relabelling():
    """``cb-check``'s verdict: exists and is_root agree, and the violating
    decomposition, mapped back, is the same multiset of roots, or, where
    several decompositions reach the greatest sum of p, one of them: a
    decomposition of n into positive roots with the same sum of p. Which
    one of a tie is reported depends on the labels (the chain reversed
    reports (0, 1, 1) + (1, 0, 0) for (0, 0, 1) + (1, 1, 0))."""
    configs = [AFFINE, ELLIPTIC, CHAIN] + _walled_draws(1, 60, 16, 3) + _walled_draws(3, 20, 19, 4)
    same = tied = 0
    for cfg, pcfg, back in _relabelled_draws(113, configs):
        q = quiver_from_config(cfg)
        got = cb_simple_exists(q, cfg.mult)
        pgot = cb_simple_exists(quiver_from_config(pcfg), pcfg.mult)
        assert (pgot.exists, pgot.is_root) == (got.exists, got.is_root), (cfg, pcfg)
        assert (pgot.violation is None) == (got.violation is None), (cfg, pcfg)
        if got.violation is None:
            continue
        parts, want = sorted(map(back, pgot.violation)), sorted(got.violation)
        if parts == want:
            same += 1
            continue
        assert all(is_positive_root(q, beta) for beta in parts), (cfg, pcfg)
        assert tuple(map(sum, zip(*parts))) == cfg.mult, (cfg, pcfg)
        p_sum = sum(p_of(q, beta) for beta in want)
        assert sum(p_of(q, beta) for beta in parts) == p_sum, (cfg, pcfg)
        tied += 1
    assert same >= 10 and tied >= 1


def test_the_correspondence_report_is_invariant_under_relabelling():
    """The ``correspondence`` report's relabelling-invariant data: the
    chamber count; per wall its hyperplane of degree vectors, as the
    sign-insensitive key of chi * beta - chi_beta * n mapped back, with its
    vertex and sample counts; per chamber ``generic`` and the violators
    mapped back; each compared as a multiset. A wall's (beta, chi_beta) is
    not compared: it names the first root in box order of those that cut
    the hyperplane, and that order depends on the labels."""
    configs = [AFFINE, ELLIPTIC, CHAIN] + _walled_draws(1, 30, 16, 3)
    walls = nongeneric = 0
    for cfg, pcfg, back in _relabelled_draws(127, configs):

        def facts(c, f):
            report, chi = verify_correspondence(c, samples_per_wall=2), c.total_euler
            hyperplanes = sorted(
                (_sign_insensitive_key(f(tuple(chi * b - w.chi_beta * m
                                               for b, m in zip(w.beta, c.mult)))),
                 w.vertex_count, w.sample_count)
                for w in report.walls)
            chambers = sorted((ch.generic, sorted(map(f, ch.violators)))
                              for ch in report.chambers)
            return len(report.chambers), hyperplanes, chambers

        got = facts(cfg, lambda v: v)
        assert facts(pcfg, back) == got, (cfg, pcfg)
        walls += len(got[1])
        nongeneric += any(not generic for generic, _ in got[2])
    assert walls >= 100 and nongeneric >= 1
