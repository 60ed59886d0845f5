import ast
import json
import pathlib
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from quiverk3 import (
    CertifiedUnstable,
    CurveConfig,
    GroupElement,
    MathAssertionError,
    NoDestabilizerFound,
    Quiver,
    Representation,
    SearchBudget,
    StrictlySemistableWitness,
    act,
    annihilator_witness,
    check_stability,
    cyclic_subrep,
    direct_sum,
    dual,
    is_simple,
    linalg,
    moment_differential,
    moment_map,
    quiver_from_config,
    random_representation,
    rep_space_dim,
    slope_theta,
    solve_moment_zero,
    verify_ci_dim,
    zero_representation,
)
from quiverk3 import cli, reps
from quiverk3.errors import InvariantError
from quiverk3.cli import rep_from_dict, rep_to_dict
from quiverk3.quiver import cb_simple_exists, mu_zero_expected_dim
from quiverk3.reps import (
    CiDimReport,
    CiTrial,
    _flatten_mats,
    graded_invariance_holds,
    moment_residual_norm,
    numeric_rank,
)
from conftest import random_config
from helpers import (
    config_document,
    moment_trace,
    reference_moment_differential,
    reference_random_float,
    reference_solve_moment_zero,
)

F = Fraction


def simple_affine_rep(affine_a1):
    q = quiver_from_config(affine_a1)
    mats = (
        (((F(1),),), ((F(0),),)),
        (((F(0),),), ((F(1),),)),
    )
    return Representation(q, (1, 1), "exact", mats)


def unstable_affine_rep(affine_a1):
    q = quiver_from_config(affine_a1)
    mats = (
        (((F(1),),), ((F(0),),)),
        (((F(0),),), ((F(0),),)),
    )
    return Representation(q, (1, 1), "exact", mats)


def test_moment_map_affine_blocks(affine_a1):
    q = quiver_from_config(affine_a1)
    x1, x2, y1, y2 = F(2), F(3), F(5), F(-7)
    mats = ((((x1,),), ((y1,),)), (((x2,),), ((y2,),)))
    rep = Representation(q, (1, 1), "exact", mats)
    m = moment_map(rep)
    assert m[0] == ((-(y1 * x1 + y2 * x2),),)
    assert m[1] == ((x1 * y1 + x2 * y2,),)


def test_moment_map_one_loop_scalar(one_loop):
    q = quiver_from_config(one_loop)
    rep = random_representation(q, (1,), seed=5)
    assert moment_map(rep) == (((F(0),),),)


def test_moment_map_zero_when_y_zero():
    rng = random.Random(61)
    for _ in range(10):
        cfg = random_config(rng, s_max=3, mult_max=2)
        q = quiver_from_config(cfg)
        rep = random_representation(q, cfg.mult, seed=rng.randint(0, 999))
        stripped = Representation(
            q,
            rep.n,
            "exact",
            tuple((x, 0 * y) for x, y in rep.mats),
        )
        assert all(
            all(all(e == 0 for e in row) for row in block)
            for block in moment_map(stripped)
        )


def test_moment_trace_zero():
    rng = random.Random(67)
    for _ in range(15):
        cfg = random_config(rng, s_max=3, mult_max=3)
        q = quiver_from_config(cfg)
        rep = random_representation(q, cfg.mult, seed=rng.randint(0, 999))
        assert moment_trace(rep) == 0
    fl = random_representation(q, cfg.mult, seed=1, mode="float")
    assert abs(moment_trace(fl)) <= 1e-12 * max(1.0, moment_residual_norm(fl))


def test_act_identity_and_center(affine_a1):
    rep = simple_affine_rep(affine_a1)
    ident = GroupElement((((F(1),),), ((F(1),),)))
    assert act(ident, rep) == rep
    center = GroupElement((((F(7),),), ((F(7),),)))
    assert act(center, rep) == rep


def test_act_equivariance_exact():
    rng = random.Random(71)
    for _ in range(8):
        cfg = random_config(rng, s_max=3, mult_max=2)
        q = quiver_from_config(cfg)
        n = cfg.mult
        rep = random_representation(q, n, seed=rng.randint(0, 999))
        blocks = []
        for ni in n:
            while True:
                g = tuple(
                    tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ni))
                    for _ in range(ni)
                )
                try:
                    linalg.mat_inv(g)
                    break
                except ZeroDivisionError:
                    continue
            blocks.append(g)
        g = GroupElement(tuple(blocks))
        lhs = moment_map(act(g, rep))
        rhs = tuple(
            linalg.mat_mul(linalg.mat_mul(g.blocks[i], m), linalg.mat_inv(g.blocks[i]))
            for i, m in enumerate(moment_map(rep))
        )
        assert all(np.array_equal(a, b) for a, b in zip(lhs, rhs))


def test_act_rejects_singular(affine_a1):
    rep = simple_affine_rep(affine_a1)
    g = GroupElement((((F(0),),), ((F(1),),)))
    with pytest.raises(ValueError, match="block for vertex 0 is singular"):
        act(g, rep)


def test_act_equivariance_float(elliptic_pair):
    q = quiver_from_config(elliptic_pair)
    rep = random_representation(q, (2, 2), seed=5, mode="float")
    rng = np.random.default_rng(7)
    blocks = tuple(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(2)
    )
    g = GroupElement(blocks)
    lhs = moment_map(act(g, rep))
    rhs = [
        blocks[i] @ m @ np.linalg.inv(blocks[i])
        for i, m in enumerate(moment_map(rep))
    ]
    for a, b in zip(lhs, rhs):
        assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(b))


def test_moment_differential_ranks(affine_a1, one_loop):
    qa = quiver_from_config(affine_a1)
    z = zero_representation(qa, (1, 1), mode="float")
    assert numeric_rank(moment_differential(z)) == 0
    # mu = 0 point with nonzero entries: rank 1
    mats = (
        (np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])),
        (np.array([[2.0 + 0j]]), np.array([[-1.0 + 0j]])),
    )
    rep = Representation(qa, (1, 1), "float", mats)
    assert moment_residual_norm(rep) == 0
    assert numeric_rank(moment_differential(rep)) == 1
    ql = quiver_from_config(one_loop)
    rep1 = random_representation(ql, (1,), seed=2, mode="float")
    assert numeric_rank(moment_differential(rep1)) == 0


def test_moment_differential_rank_bound():
    rng = random.Random(73)
    for _ in range(8):
        cfg = random_config(rng, s_max=3, mult_max=2)
        q = quiver_from_config(cfg)
        rep = random_representation(q, cfg.mult, seed=rng.randint(0, 999), mode="float")
        nn = sum(x * x for x in cfg.mult)
        assert numeric_rank(moment_differential(rep)) <= nn - 1


def test_moment_differential_exact_matches_float(affine_a1):
    q = quiver_from_config(affine_a1)
    rep = random_representation(q, (1, 1), seed=9)
    exact = moment_differential(rep)
    fl = moment_differential(rep.to_float())
    assert np.allclose(
        np.array([[complex(e) for e in row] for row in exact]), fl
    )


def test_moment_differential_matches_polarization():
    # mu is quadratic, so mu(rep + E) - mu(rep) - mu(E) = d mu_rep(E) exactly;
    # column c of the differential is that difference for the c-th unit vector
    rng = random.Random(89)
    for _ in range(8):
        cfg = random_config(rng, s_max=3, mult_max=2)
        q, n = quiver_from_config(cfg), cfg.mult
        rep = random_representation(q, n, seed=rng.randint(0, 999))

        def unit(c):
            vec = np.full(rep_space_dim(q, n), F(0))
            vec[c] = F(1)
            mats, pos = [], 0
            for s, t, _ in q.orientation:
                x = vec[pos : pos + n[t] * n[s]].reshape(n[t], n[s])
                y = vec[pos + x.size : pos + 2 * x.size].reshape(n[s], n[t])
                mats.append((x, y))
                pos += 2 * x.size
            return Representation(q, n, "exact", tuple(mats))

        columns = []
        for c in range(rep_space_dim(q, n)):
            E = unit(c)
            moved = Representation(q, n, "exact", tuple(
                (x + ex, y + ey) for (x, y), (ex, ey) in zip(rep.mats, E.mats)
            ))
            columns.append(np.concatenate([
                (a - b - d).ravel()
                for a, b, d in zip(moment_map(moved), moment_map(rep), moment_map(E))
            ]))
        assert np.array_equal(moment_differential(rep), np.stack(columns, axis=1))


def test_solver_reaches_tolerance(affine_a1, elliptic_pair):
    qa = quiver_from_config(affine_a1)
    sol = solve_moment_zero(qa, (1, 1), seed=4)
    assert moment_residual_norm(sol) <= 1e-12
    qe = quiver_from_config(elliptic_pair)
    sol = solve_moment_zero(qe, (1, 1), seed=4, tol=1e-10)
    assert moment_residual_norm(sol) <= 1e-10
    assert numeric_rank(moment_differential(sol)) == 1


def test_solver_failure_is_raised_and_recorded(ogrady):
    # no float iterate reaches 1e-300 (the residual stalls near 1e-17), so
    # the solver raises and verify_ci_dim records each seed as a failure
    q = quiver_from_config(ogrady)
    with pytest.raises(RuntimeError, match="did not reach tol=1e-300; final residual"):
        solve_moment_zero(q, (2,), tol=1e-300)
    report = verify_ci_dim(q, (2,), trials=3, residual_tol=1e-300)
    assert report.trials == () and report.matching_trials == 0
    assert len(report.failures) == 3
    for s, failure in enumerate(report.failures):
        assert failure.startswith(f"seed {s}: moment-map solver did not reach tol=1e-300; "
                                  "final residual")


def test_verify_ci_dim_fixtures(affine_a1, elliptic_pair, ogrady, one_loop):
    qa = quiver_from_config(affine_a1)
    report = verify_ci_dim(qa, (1, 1), trials=4, seed=11)
    assert report.expected_rank == 1 and report.expected_dim == 3
    assert report.matching_trials == len(report.trials) == 4
    assert not report.advisory
    qo = quiver_from_config(ogrady)
    report = verify_ci_dim(qo, (2,), trials=3, seed=11)
    assert report.expected_rank == 3 and report.expected_dim == 13
    assert report.matching_trials == 3
    ql = quiver_from_config(one_loop)
    report = verify_ci_dim(ql, (1,), trials=2, seed=0)
    assert report.expected_rank == 0 and report.expected_dim == 2
    assert report.matching_trials == 2


def test_broken_ci_dimension_identity_is_an_assertion(affine_a1, monkeypatch, tmp_path, capsys):
    """dim Rep - (n.n - 1) = 2p(n) + n.n - 1 holds by construction; a broken
    expected dimension is an internal assertion, in the library and as the
    CLI's exit 4, before any trial runs."""
    q = quiver_from_config(affine_a1)
    monkeypatch.setattr(reps, "mu_zero_expected_dim", lambda q, n: mu_zero_expected_dim(q, n) + 1)
    with pytest.raises(MathAssertionError, match=re.escape("dim Rep - (n.n - 1)")):
        verify_ci_dim(q, (1, 1), trials=2)
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(config_document(affine_a1)))
    argv = ["moment-verify", str(path), "--json", "--trials", "2"]
    assert cli.dispatch(argv) == cli.EXIT_ASSERTION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal assertion failed: dim Rep - (n.n - 1)" in captured.err


def test_trials_past_the_bound_are_refused_before_the_first(affine_a1, monkeypatch, tmp_path,
                                                            capsys):
    """Each trial runs one Gauss-Newton search and adds a line to the report;
    past ``reps.MAX_TRIALS`` the library and ``moment-verify`` (exit 3)
    refuse before the first search. 10^9 trials would run for days."""
    q = quiver_from_config(affine_a1)
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(config_document(affine_a1)))

    def no_search(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(reps, "_gauss_newton", no_search)
    assert cli.dispatch(["moment-verify", str(path), "--trials", str(10**9)]) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"[ci-trials]: {10**9} trials, more than {reps.MAX_TRIALS}" in captured.err
    monkeypatch.undo()
    monkeypatch.setattr(reps, "MAX_TRIALS", 2)
    assert cli.dispatch(["moment-verify", str(path), "--json", "--trials", "2"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["matching_trials"] == 2
    monkeypatch.setattr(reps, "_gauss_newton", no_search)
    with pytest.raises(InvariantError, match="3 trials, more than 2") as e:
        verify_ci_dim(q, (1, 1), trials=3)
    assert e.value.invariant == "ci-trials"


def test_verify_ci_dim_names_a_negative_seed(affine_a1):
    q = quiver_from_config(affine_a1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        verify_ci_dim(q, (1, 1), trials=2, seed=-1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": -3}, "trials must be a non-negative integer, got -3"),
        ({"residual_tol": float("nan")}, "residual_tol must be a positive finite number, got nan"),
        ({"residual_tol": 0.0}, "residual_tol must be a positive finite number, got 0.0"),
        ({"rank_tol": -1.0}, "rank_tol must be a positive finite number, got -1.0"),
        ({"rank_tol": float("inf")}, "rank_tol must be a positive finite number, got inf"),
    ],
)
def test_verify_ci_dim_refuses_a_bad_budget(affine_a1, kwargs, message):
    q = quiver_from_config(affine_a1)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_ci_dim(q, (1, 1), **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"tol": -1.0}, "tol must be a positive finite number, got -1.0"),
        ({"tol": float("nan")}, "tol must be a positive finite number, got nan"),
    ],
)
def test_solve_moment_zero_refuses_bad_arguments(affine_a1, kwargs, message):
    q = quiver_from_config(affine_a1)
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_moment_zero(q, (1, 1), **kwargs)


def _differential_cases():
    """Seeded quivers with loops, multi-edges and zero vertices, and on each
    a random, a zero and a signed-zero representation in both modes."""
    rng = random.Random(401)
    seen = set()
    for k in range(40):
        cfg = random_config(rng, s_max=3, gram_bound=4)
        q = quiver_from_config(cfg)
        n = tuple(rng.randint(0, 2) for _ in cfg.mult)
        kinds = {
            "loop": any(q.loops),
            "multi-edge": any(e > 1 for row in q.edges for e in row),
            "zero vertex": 0 in n,
        }
        seen.update(kind for kind, present in kinds.items() if present)
        rep = random_representation(q, n, seed=k, mode="float")
        signed = Representation(q, n, "float", tuple(
            tuple(np.where(abs(m.real) < 0.5, -0.0, m.real) + 1j * np.where(m.imag < 0, -0.0, m.imag)
                  for m in pair)
            for pair in rep.mats
        ))
        yield from (rep, signed, zero_representation(q, n, "float"))
        yield from (random_representation(q, n, seed=k), zero_representation(q, n))
    assert seen == {"loop", "multi-edge", "zero vertex"}


def test_moment_differential_is_the_entrywise_assembly():
    # the scatter does the entrywise loop's IEEE operations in its order, so
    # the float matrix matches it bit for bit (signed zeros included) and
    # the exact one entry for entry; the first call builds the pattern and
    # the second reads the one the representation kept
    for rep in _differential_cases():
        want = reference_moment_differential(rep)
        for got in (moment_differential(rep), moment_differential(rep)):
            assert got.shape == want.shape and got.dtype == want.dtype
            if rep.mode == "float":
                assert got.tobytes() == want.tobytes()
            else:
                assert (got == want).all()
                assert all(type(e) is Fraction for e in got.flat)


def test_solver_trajectory_is_the_reference_one(affine_a1, elliptic_pair, ogrady):
    for cfg, n in ((affine_a1, (1, 1)), (affine_a1, (2, 2)), (elliptic_pair, (1, 1)),
                   (ogrady, (2,))):
        q = quiver_from_config(cfg)
        for seed in range(3):
            want = _flatten_mats(reference_solve_moment_zero(q, n, seed=seed)).tobytes()
            got = solve_moment_zero(q, n, seed=seed)
            assert _flatten_mats(got).tobytes() == want


def test_a_search_that_backtracks_is_the_reference_one():
    """The ``reps-float`` case of the affine pair at n = (2, 3), seed 25,
    rejects candidate steps near tol before it converges (14 of them on
    x86-64): each rejected step is halved, and ``solve_moment_zero`` takes
    the reference trajectory bit for bit, so a backtracking that shrinks
    the step by another factor shows here."""
    cfg, n = _float_cases()[2]
    assert n == (2, 3)
    q, rejected = quiver_from_config(cfg), []
    want = reference_solve_moment_zero(q, n, seed=25, rejected=rejected)
    assert rejected and rejected[0] == 1.0
    # within one step's backtracking each rejected length halves the last
    assert all(b == a / 2 for a, b in zip(rejected, rejected[1:]) if b != 1.0)
    got = solve_moment_zero(q, n, seed=25)
    assert _flatten_mats(got).tobytes() == _flatten_mats(want).tobytes()


def _float_cases():
    """The eight (configuration, n) cases of the ``reps-float`` benchmark:
    ``FIXTURES`` and ``FLOAT_CASES`` read from the source of
    ``perfbench/workloads.py``, which is not run."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FIXTURES", "FLOAT_CASES")}
    cases = []
    for fixture, n, _ in tables["FLOAT_CASES"]:
        f = tables["FIXTURES"][fixture]
        cases.append((CurveConfig(tuple(map(tuple, f["gram"])), tuple(f["chi"]), n,
                                  tuple(f["h0deg"])), n))
    assert len(cases) == 8
    return cases


def _reference_ci_report(q, n, trials, seed, residual_tol=1e-10):
    """``verify_ci_dim``'s report from the reference solver: each trial's
    residual from ``moment_residual_norm`` and its rank from the entrywise
    d(mu) at the solution."""
    expected_rank, results, failures = sum(x * x for x in n) - 1, [], []
    for s in range(seed, seed + trials):
        try:
            rep = reference_solve_moment_zero(q, n, seed=s, tol=residual_tol)
        except RuntimeError as exc:
            failures.append(f"seed {s}: {exc}")
            continue
        rank = numeric_rank(reference_moment_differential(rep))
        results.append(CiTrial(s, moment_residual_norm(rep), rank, rep_space_dim(q, n) - rank))
    matching = sum(r.rank == expected_rank and r.residual <= residual_tol for r in results)
    return CiDimReport(tuple(n), seed, expected_rank, mu_zero_expected_dim(q, n), tuple(results),
                       matching, advisory=not cb_simple_exists(q, n).exists,
                       failures=tuple(failures))


def test_verify_ci_dim_is_the_reference_report(ogrady):
    # the report on one pattern per call equals, residual floats included
    # (compared with ==), the one whose solutions come from the reference
    # solver and whose residuals and ranks are computed afresh from them
    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        got = verify_ci_dim(q, n, trials=4, seed=5)
        assert got == _reference_ci_report(q, n, trials=4, seed=5)
        assert len(got.trials) == 4 and (got.advisory or got.matching_trials == 4)
    # every trial fails, so the failures' texts are compared too
    q = quiver_from_config(ogrady)
    got = verify_ci_dim(q, (2,), trials=2, seed=3, residual_tol=1e-300)
    assert got == _reference_ci_report(q, (2,), trials=2, seed=3, residual_tol=1e-300)
    assert len(got.failures) == 2 and not got.trials


def test_float_draws_are_the_blockwise_draws():
    # the flat start draw is the one matrix-by-matrix draw, bit for bit
    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        for seed in range(3):
            got = random_representation(q, n, seed=seed, mode="float")
            want = reference_random_float(q, n, seed=seed)
            for pair, ref in zip(got.mats, want.mats):
                for m, r in zip(pair, ref):
                    assert m.shape == r.shape and m.tobytes() == r.tobytes()


def test_the_pattern_is_built_once_per_solve(affine_a1, monkeypatch):
    # one pattern per call of solve_moment_zero or verify_ci_dim serves
    # every step of every trial and each trial's final rank; a second call
    # builds its own, so no pattern outlives the call that built it
    pattern, scatter = reps._differential_pattern, reps._scatter
    built, steps, made = [], [], []

    def counted_pattern(q, n):
        built.append(n)
        made.append(pattern(q, n))
        return made[-1]

    def counted_scatter(*args):
        steps.append(1)
        return scatter(*args)

    monkeypatch.setattr(reps, "_differential_pattern", counted_pattern)
    monkeypatch.setattr(reps, "_scatter", counted_scatter)
    q = quiver_from_config(affine_a1)
    for n in ((1, 1), (2, 2)):
        built.clear()
        steps.clear()
        solve_moment_zero(q, n, seed=2)
        assert built == [n] and len(steps) > 1
    built.clear()
    steps.clear()
    verify_ci_dim(q, (2, 2), trials=3, seed=4)
    assert built == [(2, 2)] and len(steps) > 3
    verify_ci_dim(q, (2, 2), trials=3, seed=4)
    assert built == [(2, 2)] * 2
    # and built afresh, not read from a cache below the counter
    assert not any(a is b for a, b in zip(made[-2], made[-1]))


def test_the_solver_steps_at_most_100_times(ogrady, monkeypatch):
    # a tenth of each least-squares step lowers the residual every time but
    # never to tol: the 101st residual check ends the search with the error
    lstsq, calls = reps._stacked_lstsq, []

    def short(J, b):
        calls.extend(range(len(J)))
        return lstsq(J, b) * 0.1

    monkeypatch.setattr(reps, "_stacked_lstsq", short)
    q = quiver_from_config(ogrady)
    with pytest.raises(RuntimeError, match="did not reach tol=1e-300; final residual"):
        solve_moment_zero(q, (2,), seed=1, tol=1e-300)
    assert len(calls) == 100


def test_a_batch_is_its_seeds_searched_alone(affine_a1_22, monkeypatch):
    # on the affine (2, 2) at tol 1e-15, seeds 0-11 end every way a search
    # ends: converged after different numbers of steps, a step that ran out
    # (a failure before the 100th step) and the 100-step failure; one batch
    # of all twelve gives each seed the bytes of its flat iterate, or the
    # text of its error, that solve_moment_zero gives it alone. So does a
    # batch at 1e-300, where every seed fails
    q, n = quiver_from_config(affine_a1_22), (2, 2)
    pattern = reps._differential_pattern(q, n)
    lstsq, steps = reps._stacked_lstsq, []

    def counted(J, b):
        steps.extend(range(len(J)))  # one step per slice
        return lstsq(J, b)

    monkeypatch.setattr(reps, "_stacked_lstsq", counted)
    for tol, seeds in ((1e-15, range(12)), (1e-300, range(3))):
        want, ends = [], []
        for s in seeds:
            steps.clear()
            try:
                want.append(_flatten_mats(solve_moment_zero(q, n, seed=s, tol=tol)).tobytes())
            except RuntimeError as exc:
                want.append(str(exc))
            ends.append((isinstance(want[-1], str), len(steps)))
        got = reps._gauss_newton(q, n, pattern, seeds, tol)
        assert [g if isinstance(g, str) else g[0].tobytes() for g in got] == want
        failed = [k for fails, k in ends if fails]
        if tol == 1e-15:
            assert len({k for fails, k in ends if not fails}) > 1
            assert 100 in failed and min(failed) < 100
        else:
            assert len(failed) == 3 and min(failed) < 100


def _batch_sizes(monkeypatch) -> list:
    """The number of seeds of each ``_gauss_newton`` batch from now on."""
    sizes, search = [], reps._gauss_newton

    def counted(q, n, pattern, seeds, tol):
        sizes.append(len(seeds))
        return search(q, n, pattern, seeds, tol)

    monkeypatch.setattr(reps, "_gauss_newton", counted)
    return sizes


def test_verify_ci_dim_reports_alike_in_any_batches(monkeypatch):
    # a batch holds at most MAX_DIFFERENTIAL // (m * N) seeds, so its stack
    # of d(mu)s holds no more entries than one d(mu) may; at m * N, the
    # least bound that lets d(mu) be built, each batch holds one seed, and
    # at 7 m N seven. The trials run in several batches with the report of
    # one batch, failure texts included
    sizes, split, bound = _batch_sizes(monkeypatch), 0, reps.MAX_DIFFERENTIAL
    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        m, N = reps._differential_pattern(q, n)[-1]
        for tol, trials in ((1e-10, 20), (1e-300, 3)):
            sizes.clear()
            want = verify_ci_dim(q, n, trials=trials, seed=3, residual_tol=tol)
            assert sizes == [trials]
            for size in (1, 7):
                sizes.clear()
                monkeypatch.setattr(reps, "MAX_DIFFERENTIAL", size * m * N)
                assert verify_ci_dim(q, n, trials=trials, seed=3, residual_tol=tol) == want
                monkeypatch.setattr(reps, "MAX_DIFFERENTIAL", bound)
                assert sizes == [size] * (trials // size) + [trials % size] * (trials % size > 0)
                split += len(sizes) > 1
    assert split > 8


def _stacked_differentials(q, n, seeds):
    """d(mu) at the halved start draw of each seed, as one stack, and a
    right-hand side per slice: minus the residual there."""
    Z = reps._float_draws(q, n, seeds) * 0.5
    return reps._scatter(reps._differential_pattern(q, n), Z, 0j), -reps._residuals(q, n, Z)


def test_the_stacked_solve_is_lstsq_slice_by_slice():
    # on d(mu) of every reps-float case, each of rank below its n . n rows
    # (the trace of mu vanishes), every slice of one stacked solve has the
    # bytes of np.linalg.lstsq on that slice alone
    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        J, b = _stacked_differentials(q, n, range(5))
        assert J.shape == (5, *reps._differential_pattern(q, n)[-1])
        x = reps._stacked_lstsq(J, b)
        for i in range(len(J)):
            assert numeric_rank(J[i]) < len(J[i])
            assert x[i].tobytes() == np.linalg.lstsq(J[i], b[i], rcond=None)[0].tobytes()


def test_the_stacked_norms_are_the_norms_of_each_row():
    # one stacked _norms gives each row of a complex stack the bytes of
    # np.linalg.norm on that row alone, for rows of 0-512 entries at
    # magnitudes 1e-9 to 1e3, on the stack and on rows picked out of it
    rng = np.random.default_rng(0)
    for m in range(513):
        for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3):
            R = (rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))) * scale
            want = [np.float64(np.linalg.norm(r)).tobytes() for r in R]
            assert [x.tobytes() for x in reps._norms(R)] == want
            assert [x.tobytes() for x in reps._norms(R[[2, 0]])] == [want[2], want[0]]


def test_the_stacked_solve_refuses_a_nan_as_lstsq_does(affine_a1):
    # one NaN entry in one slice: np.linalg.lstsq refuses that slice, and
    # the stacked solve refuses the stack, with the same error
    J, b = _stacked_differentials(quiver_from_config(affine_a1), (2, 2), range(3))
    J[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least"):
        np.linalg.lstsq(J[1], b[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge in Linear Least"):
        reps._stacked_lstsq(J, b)


def test_the_stacked_rank_is_numeric_rank_of_each_matrix():
    # one stacked SVD gives each slice the rank that numeric_rank gives it
    # alone and that the rule applied to its own singular values gives: at
    # start draws, at a solution of mu = 0, at zero (rank 0), and on a stack
    # of matrices without columns
    def rule(matrix, tol):
        sv = np.linalg.svd(matrix, compute_uv=False)
        return 0 if sv.size == 0 or sv[0] == 0.0 else int((sv > tol * sv[0]).sum())

    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        J, _ = _stacked_differentials(q, n, range(3))
        sol = moment_differential(solve_moment_zero(q, n, seed=0))
        J = np.concatenate([J, sol[None], np.zeros_like(J[:1])])
        for tol in (1e-8, 1e-3, 0.5):
            got = reps._ranks(J, tol)
            assert got.shape == (len(J),)
            assert list(got) == [numeric_rank(j, tol=tol) for j in J] == [rule(j, tol) for j in J]
        assert got[-1] == 0 and 0 < got[-2] < sum(x * x for x in n)
    assert list(reps._ranks(np.zeros((2, 9, 0), dtype=complex), 1e-8)) == [0, 0]


def test_a_batch_holds_one_seed_at_least(monkeypatch):
    # on a vertex without arrows d(mu) has no columns: at n = (3,) its 9
    # rows pass a bound of 8, and each batch holds one seed; at n = (0,) it
    # has neither rows nor columns, and one batch holds every seed
    q, sizes = Quiver((0,), ((0,),)), _batch_sizes(monkeypatch)
    monkeypatch.setattr(reps, "MAX_DIFFERENTIAL", 8)
    for n, batches in (((3,), [1, 1]), ((0,), [2])):
        sizes.clear()
        report = verify_ci_dim(q, n, trials=2)
        assert sizes == batches and [t.residual for t in report.trials] == [0.0, 0.0]


def test_no_trials_run_no_search(affine_a1, monkeypatch):
    def no_search(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(reps, "_gauss_newton", no_search)
    report = verify_ci_dim(quiver_from_config(affine_a1), (1, 1), trials=0)
    assert report.trials == () and report.failures == () and report.matching_trials == 0


def test_verify_ci_dim_is_the_reference_report_on_the_benchmark_traffic():
    # the reps-float benchmark asks moment-verify for 20 trials on its
    # eight cases: one batch of 20 gives the reference report at two seeds
    for cfg, n in _float_cases():
        q = quiver_from_config(cfg)
        for seed in (0, 20):
            got = verify_ci_dim(q, n, trials=20, seed=seed)
            assert got == _reference_ci_report(q, n, trials=20, seed=seed)
            assert len(got.trials) + len(got.failures) == 20


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_numeric_rank_refuses_a_bad_tol(tol):
    # diag(1, 0) has rank 1; tol = -1 counted 2 and tol = nan 0
    m = np.diag([1.0, 0.0])
    assert numeric_rank(m) == 1
    with pytest.raises(ValueError, match=f"tol must be a positive finite number, got {tol}"):
        numeric_rank(m, tol=tol)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
def test_numeric_rank_refuses_an_array_that_is_not_a_matrix(shape):
    # a vector raised numpy's LinAlgError and a stack of matrices a
    # TypeError from int() of the stack's ranks
    want = f"matrix must be 2-D, got an array of shape {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        numeric_rank(np.ones(shape))


def test_exact_matrices_are_read_only_copies(affine_a1):
    q = quiver_from_config(affine_a1)
    one, zero = np.array([[F(1)]], dtype=object), np.array([[F(0)]], dtype=object)
    sources = [((one.copy(), zero.copy()), (zero.copy(), one.copy())) for _ in range(2)]
    queried, fresh = (Representation(q, (1, 1), "exact", mats) for mats in sources)
    assert is_simple(queried) and cyclic_subrep(queried, 1, (F(1),))[0] == (1, 1)
    with pytest.raises(ValueError, match="read-only"):
        queried.mats[1][1][0, 0] = F(0)
    # zeroing the second y in the caller's arrays would make the
    # representation unstable; it changes neither one
    for mats in sources:
        mats[1][1][0, 0] = F(0)
    for rep in (queried, fresh):
        assert rep == simple_affine_rep(affine_a1)
        assert is_simple(rep) and cyclic_subrep(rep, 1, (F(1),))[0] == (1, 1)
    # a float representation copies the complex arrays it was given too
    x = np.ones((1, 1), dtype=complex)
    stored = Representation(q, (1, 1), "float", ((x, x), (x, x))).mats[0][0]
    assert not np.shares_memory(stored, x) and not stored.flags.writeable


def test_float_matrices_are_read_only_copies(affine_a1, elliptic_pair):
    # every way of building a float representation stores fresh read-only
    # arrays: none shares memory with what it was built from
    q = quiver_from_config(affine_a1)
    x = np.ones((1, 1), dtype=complex)
    rep = Representation(q, (1, 1), "float", ((x, x), ([[2j]], [[3]])))
    exact = simple_affine_rep(affine_a1)
    e = quiver_from_config(elliptic_pair)
    drawn = random_representation(e, (2, 2), seed=5, mode="float")
    g = GroupElement(tuple(np.eye(2, dtype=complex) * (k + 1) for k in range(2)))
    sources = [x, *(m for r in (exact, drawn) for pair in r.mats for m in pair)]
    for r in (rep, exact.to_float(), drawn, solve_moment_zero(q, (1, 1), seed=0),
              dual(drawn), direct_sum(drawn, drawn), act(g, drawn)):
        for pair in r.mats:
            for m in pair:
                assert m.dtype == complex and not m.flags.writeable
                assert not any(np.shares_memory(m, src) for src in sources if src is not m)
                with pytest.raises(ValueError, match="read-only"):
                    m[...] = 0
    x[0, 0] = 5  # a write into the input reaches no representation
    assert rep.mats[0][0][0, 0] == 1 and rep.mats[0][1][0, 0] == 1


def test_to_float_is_the_complex_cast_bit_for_bit(affine_a1):
    # to_float converts nothing itself: _matrix's complex copy of each exact
    # matrix holds the bytes of astype(complex), signed zeros included
    q = quiver_from_config(affine_a1)
    entries = [F(1, 3), F(-2, 7), F(10**30 + 1, 3), 2**62 + 1, 0, F(-1, 10**20), -5]
    for k in range(len(entries)):
        r = entries[k:] + entries[:k]
        rep = Representation(q, (1, 2), "exact", (([[r[0]], [r[1]]], [[r[2], r[3]]]),
                                                  ([[r[4]], [r[5]]], [[r[6], r[0]]])))
        for pe, pf in zip(rep.mats, rep.to_float().mats):
            for a, b in zip(pe, pf):
                assert b.dtype == complex and b.tobytes() == a.astype(complex).tobytes()
    for seed in range(3):
        rep = random_representation(quiver_from_config(affine_a1), (2, 2), seed=seed)
        fl = rep.to_float()
        assert all(b.tobytes() == a.astype(complex).tobytes()
                   for pe, pf in zip(rep.mats, fl.mats) for a, b in zip(pe, pf))


def test_exact_rep_stores_numpy_integers_as_python_ints(affine_a1):
    # 3 * (2**62 - 1) overflows int64: numpy scalars kept in the object
    # arrays would wrap it with only a RuntimeWarning
    q = quiver_from_config(affine_a1)
    big, three, zero = np.int64(2**62 - 1), np.int64(3), np.int64(0)
    given = np.array([[big]], dtype=object)
    rep = Representation(q, (1, 1), "exact", ((given, [[three]]), ([[zero]], [[zero]])))
    twin = Representation(q, (1, 1), "exact", (([[F(2**62 - 1)]], [[F(3)]]), ([[F(0)]], [[F(0)]])))
    assert type(given[0, 0]) is np.int64  # the caller's array is not changed
    assert all(type(e) is int for pair in rep.mats for m in pair for e in m.flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = moment_map(rep)
        assert mu[1][0, 0] == 13835058055282163709
        assert all(np.array_equal(a, b) for a, b in zip(mu, moment_map(twin)))
        assert np.array_equal(moment_differential(rep), moment_differential(twin))
    with pytest.raises(ValueError, match="must have rational entries"):
        Representation(q, (1, 1), "exact", (([[1.5]], [[1]]), ([[0]], [[0]])))


def test_exact_rep_stores_other_rationals_as_fractions(affine_a1):
    # a sympy Rational or a Fraction subclass is stored as a plain Fraction,
    # so products stay Fractions and the CLI encoder, which refuses
    # subclasses, can write them
    import sympy

    class Ratio(Fraction):
        pass

    def entries(r):
        return [e for pair in r.mats for m in pair for e in m.flat]

    q = quiver_from_config(affine_a1)
    given = (([[sympy.Rational(1, 2)]], [[Ratio(-3, 4)]]), ([[sympy.Integer(2)]], [[Ratio(5)]]))
    rep = Representation(q, (1, 1), "exact", given)
    twin = Representation(q, (1, 1), "exact", (([[F(1, 2)]], [[F(-3, 4)]]), ([[F(2)]], [[F(5)]])))
    assert [type(e) for e in entries(rep)] == [Fraction, Fraction, int, Fraction]
    assert rep == twin and cli._dumps(entries(rep)) == cli._dumps(entries(twin))
    mu = moment_map(rep)
    assert all(type(e) is Fraction for b in mu for e in b.flat)
    assert all(np.array_equal(a, b) for a, b in zip(mu, moment_map(twin)))
    doc = json.loads(json.dumps(rep_to_dict(rep)))
    assert doc == rep_to_dict(twin)
    assert rep_from_dict(q, doc) == rep


def test_representation_is_unequal_to_other_objects(affine_a1):
    rep = simple_affine_rep(affine_a1)
    assert rep.__eq__(rep.mats) is NotImplemented
    assert rep != rep.mats and rep != 0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_moment_map_and_differential_at_a_zero_vertex(mode):
    # an A3 chain of (-2)-curves at n = (1, 2, 0): the edge 1-2 meets the
    # zero space and adds no term; mu is quadratic, so d(mu) at rep maps
    # rep to 2 mu
    chain = ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
    q = quiver_from_config(CurveConfig(chain, (1, 1, 1), (1, 1, 1), (1, 1, 1)))
    rep = random_representation(q, (1, 2, 0), seed=3, mode=mode)
    got, want = moment_differential(rep), reference_moment_differential(rep)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    mu = moment_map(rep)
    assert [b.shape for b in mu] == [(1, 1), (2, 2), (0, 0)]
    lhs, rhs = want @ _flatten_mats(rep), 2 * np.concatenate([b.ravel() for b in mu])
    assert np.array_equal(lhs, rhs) if mode == "exact" else np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_search_budget_names_a_negative_seed(affine_a1):
    # the float search would otherwise end in numpy's bare "expected
    # non-negative integer"
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        SearchBudget(seed=-1)
    rep = simple_affine_rep(affine_a1).to_float()
    verdict = check_stability(rep, (F(-1), F(1)), SearchBudget(restarts=1, iters=5, seed=0))
    assert isinstance(verdict, NoDestabilizerFound)


@pytest.mark.parametrize("field, value, message", [
    ("probes", -2, "probes must be a non-negative integer, got -2"),
    ("restarts", -1, "restarts must be a non-negative integer, got -1"),
    ("iters", -5, "iters must be a non-negative integer, got -5"),
    ("iters", 2.5, "iters must be a non-negative integer, got 2.5"),
    ("tol", float("nan"), "tol must be a positive finite number, got nan"),
    ("tol", 0.0, "tol must be a positive finite number, got 0.0"),
    ("tol", -1e-8, "tol must be a positive finite number, got -1e-08"),
    ("tol", float("inf"), "tol must be a positive finite number, got inf"),
])
def test_search_budget_names_an_empty_or_vacuous_field(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SearchBudget(**{field: value})


def test_search_budget_refuses_restarts_past_the_bound(affine_a1, monkeypatch):
    """The float search tiles restarts x n_i x beta_i frames before its
    first step; past ``reps.MAX_RESTARTS`` restarts the budget is refused."""
    assert SearchBudget(restarts=reps.MAX_RESTARTS).restarts == reps.MAX_RESTARTS
    with pytest.raises(InvariantError) as e:
        SearchBudget(restarts=reps.MAX_RESTARTS + 1)
    assert e.value.invariant == "search-restarts"
    monkeypatch.setattr(reps, "MAX_RESTARTS", 2)
    rep, theta = unstable_affine_rep(affine_a1).to_float(), (F(-1), F(1))
    verdict = check_stability(rep, theta, SearchBudget(restarts=2, iters=5))
    assert isinstance(verdict, CertifiedUnstable) and verdict.beta == (0, 1)
    with pytest.raises(InvariantError, match="3 restarts, more than 2"):
        SearchBudget(restarts=3)


def test_search_budget_refuses_probes_past_the_bound(affine_a1):
    """The exact search closes a cyclic span per probe and vertex; past
    ``reps.MAX_PROBES`` probes the budget is refused. At the bound the
    search runs every probe."""
    rep, theta = unstable_affine_rep(affine_a1), (F(-1), F(1))
    budget = SearchBudget(probes=reps.MAX_PROBES)
    verdict = check_stability(rep, theta, budget)
    assert isinstance(verdict, CertifiedUnstable) and verdict.beta == (0, 1)
    with pytest.raises(InvariantError, match=f"{reps.MAX_PROBES + 1} probes, more than") as e:
        SearchBudget(probes=reps.MAX_PROBES + 1)
    assert e.value.invariant == "search-probes"


def test_differential_past_the_bound_is_refused_before_it_is_built(affine_a1, monkeypatch):
    """d(mu) has (n . n) x dim Rep entries; past ``reps.MAX_DIFFERENTIAL``
    the pattern, and so every caller, refuses before building either. The
    affine (1, 1) has a 2 x 4 differential."""
    q = quiver_from_config(affine_a1)
    rep = random_representation(q, (1, 1), seed=1)
    monkeypatch.setattr(reps, "MAX_DIFFERENTIAL", 8)
    assert moment_differential(rep).shape == (2, 4)
    assert verify_ci_dim(q, (1, 1), trials=1).expected_rank == 1
    monkeypatch.setattr(reps, "MAX_DIFFERENTIAL", 7)
    for call in (lambda: moment_differential(rep), lambda: solve_moment_zero(q, (1, 1)),
                 lambda: verify_ci_dim(q, (1, 1), trials=1)):
        with pytest.raises(InvariantError, match="has 2 x 4 entries, more than 7") as e:
            call()
        assert e.value.invariant == "differential-size"


def test_search_budget_allows_zero_restarts_and_iters(affine_a1):
    rep = unstable_affine_rep(affine_a1).to_float()
    theta = (F(-1), F(1))
    verdict = check_stability(rep, theta, SearchBudget(restarts=0))
    assert isinstance(verdict, NoDestabilizerFound) and verdict.restarts == 0
    # no descent step is needed: (0, 1) has no frame to move
    verdict = check_stability(rep, theta, SearchBudget(iters=0))
    assert type(verdict).__name__ == "CertifiedUnstable" and verdict.beta == (0, 1)


def test_is_simple_examples(affine_a1):
    assert is_simple(simple_affine_rep(affine_a1))
    assert not is_simple(unstable_affine_rep(affine_a1))
    rep = simple_affine_rep(affine_a1)
    assert not is_simple(direct_sum(rep, rep))
    assert is_simple(rep.to_float())
    assert not is_simple(direct_sum(rep, rep).to_float())
    empty = zero_representation(quiver_from_config(affine_a1), (0, 0))
    assert not is_simple(empty) and not is_simple(empty.to_float())


def test_is_simple_matches_oracle_sample():
    from helpers import proper_invariant_subspace_exists

    rng = random.Random(79)
    cfg = random_config(rng, s_min=2, s_max=2, mult_max=1)
    q = quiver_from_config(cfg)
    for n in ((1, 1), (2, 1), (1, 2)):
        for seed in range(8):
            rep = random_representation(q, n, seed=seed)
            assert is_simple(rep) == (not proper_invariant_subspace_exists(rep))


def test_cyclic_subrep(affine_a1):
    simple = simple_affine_rep(affine_a1)
    dims, _ = cyclic_subrep(simple, 0, (F(1),))
    assert dims == (1, 1)
    unstable = unstable_affine_rep(affine_a1)
    dims, bases = cyclic_subrep(unstable, 1, (F(1),))
    assert dims == (0, 1)
    assert bases[0] == () and len(bases[1]) == 1
    dims, _ = cyclic_subrep(unstable, 0, (F(0),))
    assert dims == (0, 0)
    with pytest.raises(ValueError):
        cyclic_subrep(simple.to_float(), 0, (F(1),))
    with pytest.raises(ValueError):
        cyclic_subrep(simple, 0, (F(1), F(0)))
    q = quiver_from_config(affine_a1)
    rep = random_representation(q, (0, 2), seed=1)
    assert cyclic_subrep(rep, 1, (F(0), F(0))) == ((0, 0), ((), ()))
    assert cyclic_subrep(rep, 0, ()) == ((0, 0), ((), ()))


def test_cyclic_subrep_refuses_a_vertex_outside_the_quiver(affine_a1):
    # a negative index read n[-1] and answered for the last vertex
    rep = simple_affine_rep(affine_a1)
    for vertex in (-1, 2):
        with pytest.raises(ValueError, match=f"vertex {vertex} is not in 0..1"):
            cyclic_subrep(rep, vertex, (F(1),))


@pytest.mark.parametrize("seed", range(3))
def test_cyclic_subrep_matches_reference(affine_a1, ogrady, seed):
    """Seeded exact representations at total dimension 3-6, also with their
    invariant subspaces hidden by a change of basis, against the depth-first
    reference closure."""
    from helpers import reference_cyclic_subrep, unipotent_conjugate

    rng = random.Random(seed)
    affine, og = quiver_from_config(affine_a1), quiver_from_config(ogrady)
    chain = quiver_from_config(random_config(rng, s_min=3, s_max=3, mult_max=1))
    y_zero = random_representation(affine, (3, 3), seed=seed)
    reps = [
        random_representation(affine, (2, 1), seed=seed),
        random_representation(chain, tuple(rng.randint(1, 2) for _ in range(3)), seed=seed),
        Representation(affine, (3, 3), "exact", tuple((x, 0 * y) for x, y in y_zero.mats)),
        direct_sum(random_representation(affine, (1, 1), seed=seed),
                   random_representation(affine, (2, 2), seed=100 + seed)),
        direct_sum(random_representation(og, (2,), seed=seed),
                   random_representation(og, (3,), seed=50 + seed)),
    ]
    proper = 0
    for rep in reps + [unipotent_conjugate(r, seed) for r in reps]:
        for i, ni in enumerate(rep.n):
            probes = [tuple(F(int(j == k)) for j in range(ni)) for k in range(ni)]
            probes.append(tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ni)))
            for v in probes:
                got = cyclic_subrep(rep, i, v)
                assert got == reference_cyclic_subrep(rep, i, v)
                proper += 0 < sum(got[0]) < rep.total_dim
    assert proper > 0


def test_graded_invariance_checks_both_arrow_directions(affine_a1):
    # both arrows run 0 -> 1: x maps V_0 into V_1 and y maps V_1 back
    v0, v1 = (((F(1),),), ()), ((), ((F(1),),))
    simple = simple_affine_rep(affine_a1)  # x_1 = 1 and y_2 = 1
    assert not graded_invariance_holds(simple, v0)  # moved out by x_1
    assert not graded_invariance_holds(simple, v1)  # moved out by y_2
    unstable = unstable_affine_rep(affine_a1)  # only x_1 = 1
    assert not graded_invariance_holds(unstable, v0)
    assert graded_invariance_holds(unstable, v1)
    assert graded_invariance_holds(unstable, (((F(2),),), ((F(-3),),)))


def test_slope_theta():
    assert slope_theta((-1, 1), (1, 1)) == 0
    assert slope_theta((-1, 1), (0, 1)) == 1
    with pytest.raises(ValueError):
        slope_theta((-1, 1), (0, 0))


def test_slope_theta_refuses_vectors_of_different_lengths():
    # zipped, (1, -1, 7) against (1, 0) read a slope of 1
    for theta in ((1, -1, 7), (1,)):
        with pytest.raises(ValueError, match=f"theta has length {len(theta)}, but beta has length 2"):
            slope_theta(theta, (1, 0))


def test_check_stability_unstable(affine_a1):
    rep = unstable_affine_rep(affine_a1)
    verdict = check_stability(rep, (F(-1), F(1)))
    assert isinstance(verdict, CertifiedUnstable)
    assert verdict.beta == (0, 1) and verdict.slope == 1
    # the witness basis spans an arrow-invariant subspace by construction
    from quiverk3.reps import graded_invariance_holds

    assert graded_invariance_holds(rep, verdict.basis)


def test_check_stability_simple_many_thetas(affine_a1):
    rep = simple_affine_rep(affine_a1)
    for k in range(1, 11):
        verdict = check_stability(rep, (F(-k), F(k)))
        assert isinstance(verdict, NoDestabilizerFound)


def test_check_stability_direct_sum_wall(affine_a1):
    rep = simple_affine_rep(affine_a1)
    double = direct_sum(rep, rep)
    verdict = check_stability(double, (F(-1), F(1)))
    assert isinstance(verdict, StrictlySemistableWitness)
    assert verdict.beta == (1, 1)


def test_check_stability_theta_validation(affine_a1):
    rep = simple_affine_rep(affine_a1)
    with pytest.raises(ValueError):
        check_stability(rep, (F(1), F(1)))


@pytest.mark.parametrize("theta", [(0,), (1, -1, 5)])
def test_check_stability_refuses_theta_of_the_wrong_length(affine_a1, theta):
    # zipped against n, a short or long theta would be truncated silently
    rep = simple_affine_rep(affine_a1)
    message = f"theta has length {len(theta)}, but n has length 2"
    with pytest.raises(ValueError, match=message):
        check_stability(rep, theta)
    with pytest.raises(ValueError, match=message):
        check_stability(rep.to_float(), theta)


def test_check_stability_float_negative(affine_a1):
    rep = simple_affine_rep(affine_a1).to_float()
    verdict = check_stability(rep, (F(-1), F(1)), SearchBudget(restarts=2, iters=50))
    assert isinstance(verdict, NoDestabilizerFound)


def test_check_stability_float_finds_hidden_summand(affine_a1):
    q = quiver_from_config(affine_a1)
    r1 = simple_affine_rep(affine_a1)
    mats2 = (
        (((F(0),),), ((F(1),),)),
        (((F(1),),), ((F(0),),)),
    )
    r2 = Representation(q, (1, 1), "exact", mats2)
    double = direct_sum(r1, r2).to_float()
    rng = np.random.default_rng(17)
    blocks = []
    for ni in (2, 2):
        m = rng.standard_normal((ni, ni)) + 1j * rng.standard_normal((ni, ni))
        blocks.append(m)
    hidden = act(GroupElement(tuple(blocks)), double)
    verdict = check_stability(
        hidden, (F(-1), F(1)), SearchBudget(restarts=5, iters=400, tol=1e-10, seed=3)
    )
    assert isinstance(verdict, StrictlySemistableWitness)
    assert verdict.beta == (1, 1)
    assert verdict.defect < 1e-10


def test_direct_sum_properties(affine_a1):
    r = simple_affine_rep(affine_a1)
    d = direct_sum(r, r)
    assert d.n == (2, 2)
    m = moment_map(d)
    assert m[0].tolist() == [[F(0), F(0)], [F(0), F(0)]]
    assert not is_simple(d)
    with pytest.raises(ValueError, match="need at least one representation"):
        direct_sum()
    with pytest.raises(ValueError, match="common quiver and scalar mode"):
        direct_sum(r, r.to_float())


def test_dual_involution_and_moment(affine_a1, elliptic_pair):
    rng = random.Random(83)
    for cfg in (affine_a1, elliptic_pair):
        q = quiver_from_config(cfg)
        rep = random_representation(q, (2, 1), seed=rng.randint(0, 99))
        assert dual(dual(rep)) == rep
        m = moment_map(rep)
        md = moment_map(dual(rep))
        for i in range(q.s):
            assert np.array_equal(md[i], m[i].T)


def test_destabilizer_duality(affine_a1):
    rep = unstable_affine_rep(affine_a1)
    theta = (F(-1), F(1))
    verdict = check_stability(rep, theta)
    assert isinstance(verdict, CertifiedUnstable)
    comp, bases = annihilator_witness(rep, verdict.beta, verdict.basis)
    assert comp == (1, 0)
    minus = tuple(-t for t in theta)
    assert slope_theta(minus, comp) >= 0
    from quiverk3.reps import graded_invariance_holds

    assert graded_invariance_holds(dual(rep), bases)
    with pytest.raises(ValueError, match="annihilator conversion implemented for exact mode"):
        annihilator_witness(rep.to_float(), verdict.beta, verdict.basis)
    # bases that are no witness are the caller's error, not a broken identity
    with pytest.raises(ValueError, match="annihilator dimensions disagree with n - beta"):
        annihilator_witness(rep, (1, 1), verdict.basis)
    with pytest.raises(ValueError, match="annihilator of an invariant subspace is not invariant"):
        annihilator_witness(rep, (1, 0), (((F(1),),), ()))  # x_1 leaves V_0


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_representation_input_normalization(affine_a1, mode):
    q = quiver_from_config(affine_a1)  # two edges 0 -> 1
    one = F(1) if mode == "exact" else 1.0 + 0j

    def rows(r, c):
        return tuple(tuple(one * (i + j) for j in range(c)) for i in range(r))

    # x is n_1 x n_0 = 3 x 2; a 2 x 3 matrix has the same size but not the shape
    good = (rows(3, 2), rows(2, 3))
    Representation(q, (2, 3), mode, (good, good))
    with pytest.raises(ValueError):
        Representation(q, (2, 3), mode, ((rows(2, 3), rows(2, 3)), good))
    with pytest.raises(ValueError):
        Representation(q, (2, 3), mode, ((np.array(rows(2, 3)), rows(2, 3)), good))
    ragged = (rows(1, 2)[0], rows(1, 2)[0], rows(1, 1)[0])
    with pytest.raises(ValueError):
        Representation(q, (2, 3), mode, ((ragged, rows(2, 3)), good))
    with pytest.raises(ValueError, match="x matrix for edge 0->1 must be 3 x 2"):
        Representation(q, (2, 3), mode, ((one, rows(2, 3)), good))
    with pytest.raises(ValueError, match=r"one \(x, y\) pair per oriented edge required"):
        Representation(q, (2, 3), mode, (good,))
    with pytest.raises(ValueError, match="unknown scalar mode 'rational'"):
        Representation(q, (2, 3), "rational", (good, good))
    # zero rows carry no column count; zero columns are rows of length 0
    for n, x, y in (((2, 0), (), ((), ())), ((0, 2), ((), ()), ())):
        rep = Representation(q, n, mode, ((x, y), (x, y)))
        assert rep.mats[0][0].shape == (n[1], n[0])
        assert rep.mats[0][1].shape == (n[0], n[1])
    # tuple, list and array inputs build equal representations
    as_list = tuple(tuple([list(r) for r in m] for m in pair) for pair in (good, good))
    as_array = tuple(tuple(np.array(m) for m in pair) for pair in (good, good))
    built = [Representation(q, (2, 3), mode, mats) for mats in ((good, good), as_list, as_array)]
    assert built[0] == built[1] == built[2]
    # exact mode refuses float and complex entries rather than keeping them
    if mode == "exact":
        for bad in (0.5, 1j):
            with pytest.raises(ValueError, match="x matrix for edge 0->1"):
                Representation(q, (1, 1), mode, ((((bad,),), ((1,),)), (((F(1, 10),),), ((3,),))))


def _exact_entries(*mats):
    return all(type(e) is Fraction for m in mats for e in np.asarray(m).ravel())


def _close(a, b):
    return np.allclose(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "fixture", ["elliptic_pair", "affine_a1", "affine_a1_22", "ogrady", "one_loop"]
)
def test_exact_storage_stays_exact_and_commutes_with_to_float(fixture, request):
    cfg = request.getfixturevalue(fixture)
    q = quiver_from_config(cfg)
    rng = random.Random(97)
    for seed in range(3):
        rep = random_representation(q, cfg.mult, seed=seed)
        other = random_representation(q, cfg.mult, seed=seed + 10)
        blocks = []
        for ni in cfg.mult:
            while True:
                g = tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ni))
                          for _ in range(ni))
                try:
                    linalg.mat_inv(g)
                    break
                except ZeroDivisionError:
                    continue
            blocks.append(g)
        g = GroupElement(tuple(blocks))
        g_float = GroupElement(tuple(np.array(b, dtype=complex) for b in blocks))
        pairs = [
            (rep, rep.to_float()),
            (act(g, rep), act(g_float, rep.to_float())),
            (dual(rep), dual(rep.to_float())),
            (direct_sum(rep, other), direct_sum(rep.to_float(), other.to_float())),
        ]
        for exact, fl in pairs:
            assert exact.mode == "exact" and fl.mode == "float"
            assert _exact_entries(*(m for pair in exact.mats for m in pair))
            for pe, pf in zip(exact.to_float().mats, fl.mats):
                assert all(_close(a, b) for a, b in zip(pe, pf))
            mu = moment_map(exact)
            assert _exact_entries(*mu)
            assert all(_close(a, b) for a, b in zip(mu, moment_map(fl)))
