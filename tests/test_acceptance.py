"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success so the suite doubles as a
checklist; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import json
import random
import time
import warnings
from fractions import Fraction

import quiverk3 as qk
from quiverk3.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    dispatch,
    rep_to_dict,
)
from quiverk3.quiver import boxed_vectors
from quiverk3.reps import graded_invariance_holds
from quiverk3.walls import theta_dot
from conftest import random_config
from helpers import proper_invariant_subspace_exists, sweep_chambers

F = Fraction

ELLIPTIC = qk.CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
AFFINE = qk.CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))
AFFINE22 = qk.CurveConfig(((-2, 2), (2, -2)), (1, 1), (2, 2), (1, 1))
OGRADY = qk.CurveConfig(((2,),), (1,), (2,), (1,))
FIXTURES = (ELLIPTIC, AFFINE, OGRADY)


def _elapsed_ok(t0, limit, label):
    dt = time.time() - t0
    assert dt < limit, f"{label} took {dt:.1f}s, budget {limit}s"
    return dt


def test_criterion_1_square_identity():
    """v(beta)^2 = d(beta), exactly, across random configurations."""
    t0 = time.time()
    rng = random.Random(20260811)
    for _ in range(100):
        cfg = random_config(rng, s_max=5, gram_bound=6, mult_max=3)
        q = qk.quiver_from_config(cfg)
        for beta in boxed_vectors(cfg.mult):
            euler = sum(b * c for b, c in zip(beta, cfg.chi))
            v = qk.MukaiVector(0, beta, euler)
            assert qk.mukai_square(v, cfg) == qk.d_form(q, beta)
    dt = _elapsed_ok(t0, 5.0, "criterion 1")
    print(f"\nACCEPTANCE 1 square identity v(beta)^2 = d(beta): PASS ({dt:.2f}s)")


def test_criterion_2_wall_correspondence():
    """Every sampled rational point of every relevant wall maps into its
    quiver wall under a -> a - d, exactly."""
    t0 = time.time()
    for cfg in (ELLIPTIC, AFFINE):
        report = qk.verify_correspondence(cfg, samples_per_wall=5)
        assert report.wall_counts_match
        assert all(w.all_on_image_wall for w in report.walls)
    rng = random.Random(2)
    from quiverk3.walls import _wall_slice_vertices

    for _ in range(20):
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=2, gram_bound=4)
        h0 = tuple(F(d) for d in cfg.h0deg)
        for wall in qk.ample_walls_through_h0(cfg):
            samples = [h0]
            for k, (vm, iv) in enumerate(_wall_slice_vertices(cfg, wall)):
                v = tuple(F(x, vm) for x in iv)
                lam = F(k + 1, k + 2)
                samples.append(tuple(lam * a + (1 - lam) * b for a, b in zip(v, h0)))
            for a in samples:
                if any(x <= 0 for x in a):
                    continue
                theta = qk.xi_map(cfg, qk.DegreeVector(a))
                for alpha in wall.sources:
                    assert theta_dot(theta, alpha) == 0
    dt = _elapsed_ok(t0, 10.0, "criterion 2")
    print(f"\nACCEPTANCE 2 wall correspondence Xi(a).beta = 0: PASS ({dt:.2f}s)")


def test_criterion_3_character_contract():
    """character(a) . n = 0 exactly; character(h0deg) = 0; chamber signature
    is invariant along positive rays."""
    t0 = time.time()
    rng = random.Random(3)
    fixtures = (ELLIPTIC, AFFINE, OGRADY)
    for i in range(1000):
        cfg = fixtures[i % len(fixtures)]
        a = qk.DegreeVector(
            tuple(F(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(cfg.s))
        )
        theta = qk.character_general(cfg, a)
        assert theta_dot(theta, cfg.mult) == 0
    for cfg in fixtures:
        h0 = qk.DegreeVector(tuple(F(d) for d in cfg.h0deg))
        assert all(t == 0 for t in qk.character_general(cfg, h0))
    for cfg in (ELLIPTIC, AFFINE):
        q = qk.quiver_from_config(cfg)
        walls = qk.quiver_walls(q, cfg.mult)
        for k in range(50):
            a = qk.DegreeVector(
                tuple(F(rng.randint(1, 12), rng.randint(1, 5)) for _ in range(cfg.s))
            )
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            sig1 = qk.chamber_signature(qk.character_general(cfg, a), walls)
            scaled = qk.DegreeVector(tuple(c * x for x in a.a))
            sig2 = qk.chamber_signature(qk.character_general(cfg, scaled), walls)
            assert sig1 == sig2
    dt = _elapsed_ok(t0, 5.0, "criterion 3")
    print(f"\nACCEPTANCE 3 character contract: PASS ({dt:.2f}s)")


def test_criterion_4_block_restriction():
    """Block weights of every decomposition match (Delta_j . H) ell + chi(E_j)
    exactly, for ell in {1, 5, 10}."""
    t0 = time.time()
    rng = random.Random(4)
    for cfg in FIXTURES:
        q = qk.quiver_from_config(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decs = qk.decompositions(q, cfg.mult)
        pols = [qk.DegreeVector(tuple(F(d) for d in cfg.h0deg))]
        for _ in range(3):
            pols.append(
                qk.DegreeVector(
                    tuple(F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(cfg.s))
                )
            )
        for a in pols:
            for ell in (1, 5, 10):
                weights = qk.det_weight_vector(cfg, a, ell)
                for dec in decs:
                    parts = qk.restrict_weights_to_type(weights, dec, cfg, a, ell)
                    for (k, beta), w in zip(dec.parts, parts):
                        expected = ell * sum(
                            F(b) * x for b, x in zip(beta, a.a)
                        ) + sum(b * c for b, c in zip(beta, cfg.chi))
                        assert w == expected
    dt = _elapsed_ok(t0, 5.0, "criterion 4")
    print(f"\nACCEPTANCE 4 block-restriction identity: PASS ({dt:.2f}s)")


def test_criterion_5_ci_dimension():
    """Gauss-Newton residual <= 1e-10 and rank d(mu) = n.n - 1 (tol 1e-8) in
    at least 9/10 seeded trials; local dims 3, 7 and 13.

    The criterion's text asserts 11 for the third fixture, but its own data
    (d((2)) = 8, hence 2p = 10) forces 2p + n.n - 1 = 13; see the ledger.
    """
    t0 = time.time()
    cases = (
        (AFFINE, (1, 1), 3),
        (ELLIPTIC, (1, 1), 7),
        (OGRADY, (2,), 13),
    )
    for cfg, n, expected_dim in cases:
        q = qk.quiver_from_config(cfg)
        report = qk.verify_ci_dim(
            q, n, trials=10, rank_tol=1e-8, residual_tol=1e-10, seed=20260811
        )
        assert report.expected_dim == expected_dim
        assert report.expected_rank == sum(x * x for x in n) - 1
        assert report.matching_trials >= 9, (
            f"only {report.matching_trials}/10 trials matched for n={n}"
        )
        for trial in report.trials:
            if trial.rank == report.expected_rank:
                assert trial.local_dim == expected_dim
        assert not report.advisory
    dt = _elapsed_ok(t0, 30.0, "criterion 5")
    print(f"\nACCEPTANCE 5 complete-intersection dimensions (3, 7, 13): PASS ({dt:.2f}s)")


def test_criterion_6_simplicity_oracle():
    """Burnside closure agrees with the brute-force invariant-subspace oracle
    on 50 random rational representations per dimension vector."""
    t0 = time.time()
    for cfg in FIXTURES:
        q = qk.quiver_from_config(cfg)
        if q.s == 2:
            dimvecs = [
                (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3),
            ]
        else:
            dimvecs = [(1,), (2,), (3,)]
        for n in dimvecs:
            for seed in range(50):
                rep = qk.random_representation(q, n, seed=seed)
                assert qk.is_simple(rep) == (not proper_invariant_subspace_exists(rep))
    # hand-built examples
    qa = qk.quiver_from_config(AFFINE)
    simple = qk.Representation(
        qa, (1, 1), "exact", ((((F(1),),), ((F(0),),)), (((F(0),),), ((F(1),),)))
    )
    nonsimple = qk.Representation(
        qa, (1, 1), "exact", ((((F(1),),), ((F(0),),)), (((F(0),),), ((F(0),),)))
    )
    assert qk.is_simple(simple)
    assert not qk.is_simple(nonsimple)
    dt = _elapsed_ok(t0, 20.0, "criterion 6")
    print(f"\nACCEPTANCE 6 simplicity oracle equivalence: PASS ({dt:.2f}s)")


def test_criterion_7_stability_behavior():
    """Certified instability with exact witness; no destabilizer for the
    simple fixture over 10 generic thetas; strict semistability for direct
    sums on the matching wall; duality conversion verifies."""
    t0 = time.time()
    qa = qk.quiver_from_config(AFFINE)
    unstable = qk.Representation(
        qa, (1, 1), "exact", ((((F(1),),), ((F(0),),)), (((F(0),),), ((F(0),),)))
    )
    simple = qk.Representation(
        qa, (1, 1), "exact", ((((F(1),),), ((F(0),),)), (((F(0),),), ((F(1),),)))
    )
    certified = []
    verdict = qk.check_stability(unstable, (F(-1), F(1)))
    assert isinstance(verdict, qk.CertifiedUnstable)
    assert verdict.beta == (0, 1) and verdict.slope == 1
    assert graded_invariance_holds(unstable, verdict.basis)
    certified.append((unstable, (F(-1), F(1)), verdict))

    for k in range(1, 11):
        theta = (F(-k), F(k))
        assert qk.is_generic(theta, qa, (1, 1)).generic
        v = qk.check_stability(simple, theta)
        assert isinstance(v, qk.NoDestabilizerFound)

    double = qk.direct_sum(simple, simple)
    wall_theta = (F(-1), F(1))  # vanishes on dim(simple) = (1,1)
    assert qk.slope_theta(wall_theta, (1, 1)) == 0
    v = qk.check_stability(double, wall_theta)
    assert isinstance(v, qk.StrictlySemistableWitness)
    assert v.beta == (1, 1)

    for rep, theta, verdict in certified:
        comp, bases = qk.annihilator_witness(rep, verdict.beta, verdict.basis)
        assert comp == tuple(n - b for n, b in zip(rep.n, verdict.beta))
        minus = tuple(-t for t in theta)
        assert qk.slope_theta(minus, comp) >= 0
        assert graded_invariance_holds(qk.dual(rep), bases)
    dt = _elapsed_ok(t0, 30.0, "criterion 7")
    print(f"\nACCEPTANCE 7 stability behavior: PASS ({dt:.2f}s)")


def test_criterion_8_chamber_enumeration():
    """Two chambers on both main fixtures; exact agreement with the sweep
    oracle on random three-curve configurations."""
    t0 = time.time()
    for cfg in (AFFINE, ELLIPTIC):
        q = qk.quiver_from_config(cfg)
        assert qk.enumerate_chambers(q, cfg.mult).count == 2
    rng = random.Random(8)
    for _ in range(10):
        cfg = random_config(rng, s_min=3, s_max=3, mult_max=2, gram_bound=4)
        q = qk.quiver_from_config(cfg)
        walls = qk.quiver_walls(q, cfg.mult)
        count, sigs = sweep_chambers(q, cfg.mult, walls)
        ch = qk.enumerate_chambers(q, cfg.mult)
        assert ch.count == count
        assert set(ch.signatures) == sigs
    dt = _elapsed_ok(t0, 30.0, "criterion 8")
    print(f"\nACCEPTANCE 8 chamber enumeration vs oracle: PASS ({dt:.2f}s)")


def test_criterion_9_cb_combinatorics():
    """Simple-existence verdicts on the fixtures and the O'Grady strata."""
    t0 = time.time()
    for cfg, n in ((ELLIPTIC, (1, 1)), (AFFINE, (1, 1)), (OGRADY, (2,))):
        q = qk.quiver_from_config(cfg)
        assert qk.cb_simple_exists(q, n).exists
    qa = qk.quiver_from_config(AFFINE22)
    verdict = qk.cb_simple_exists(qa, (2, 2))
    assert not verdict.exists
    assert verdict.violation == ((1, 1), (1, 1))
    dims = [r.dim for r in qk.strata_report(OGRADY)]
    assert dims == [10, 4]
    dt = _elapsed_ok(t0, 5.0, "criterion 9")
    print(f"\nACCEPTANCE 9 existence criterion and strata dims: PASS ({dt:.2f}s)")


def test_criterion_10_cli_contract(tmp_path, capsys):
    """Schema round-trip, byte-determinism under a fixed seed, and exit codes
    on the three malformed fixtures."""
    t0 = time.time()
    doc = {
        "curves": [
            {"name": "E1", "chi": 1, "h0deg": 1},
            {"name": "E2", "chi": 1, "h0deg": 1},
        ],
        "gram": [[0, 2], [2, 0]],
        "mult": [1, 1],
        "polarizations": {"H": [1, 2]},
        "options": {"seed": 0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    outs = []
    for _ in range(2):
        assert dispatch(["summary", str(cfg_path), "--json"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["schema_version"] == 1

    outs = []
    for _ in range(2):
        assert (
            dispatch(
                ["moment-verify", str(cfg_path), "--trials", "3", "--seed", "9", "--json"]
            )
            == EXIT_OK
        )
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    # representation files round-trip bit-exactly in rational mode
    q = qk.quiver_from_config(ELLIPTIC)
    rep = qk.random_representation(q, (1, 1), seed=23)
    from quiverk3.cli import rep_from_dict

    serialized = json.dumps(rep_to_dict(rep), sort_keys=True)
    back = rep_from_dict(q, json.loads(serialized))
    assert back == rep
    assert json.dumps(rep_to_dict(back), sort_keys=True) == serialized

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"curves": [')
    assert dispatch(["summary", str(bad_json)]) == EXIT_SCHEMA
    capsys.readouterr()

    bad_slope = json.loads(json.dumps(doc))
    bad_slope["curves"][1]["chi"] = 2
    p = tmp_path / "badslope.json"
    p.write_text(json.dumps(bad_slope))
    assert dispatch(["summary", str(p)]) == EXIT_INVARIANT
    capsys.readouterr()

    bad_diag = json.loads(json.dumps(doc))
    bad_diag["gram"] = [[1, 2], [2, 0]]
    p2 = tmp_path / "baddiag.json"
    p2.write_text(json.dumps(bad_diag))
    assert dispatch(["summary", str(p2)]) == EXIT_INVARIANT
    capsys.readouterr()

    dt = _elapsed_ok(t0, 5.0, "criterion 10")
    print(f"\nACCEPTANCE 10 CLI contract: PASS ({dt:.2f}s)")
