import contextlib
import hashlib
import io
import json
import math
import operator
import random
import re
import warnings
from fractions import Fraction

import pytest

from quiverk3 import quiver as quiver_module
from quiverk3 import walls as walls_module
from quiverk3.linalg import cleared
from quiverk3 import (
    CurveConfig,
    DegreeVector,
    InvariantError,
    LocalModel,
    MathAssertionError,
    ample_walls_through_h0,
    bounded_roots,
    chamber_signature,
    character_general,
    decompositions,
    det_weight_vector,
    enumerate_chambers,
    is_generic,
    quiver_from_config,
    quiver_walls,
    restrict_weights_to_type,
    theta_dot,
    v_walls,
    verify_correspondence,
    xi_map,
)
from quiverk3.cli import EXIT_ASSERTION, dispatch, parse_config_document
from quiverk3.quiver import Quiver, check_bound
from quiverk3.walls import (
    ChamberSet,
    QuiverWall,
    _FM_LIMIT,
    _FMBlowup,
    _RowTable,
    _fm_core,
    _genericity,
    _sign_insensitive_key,
    _wall_samples,
    _wall_slice_vertices,
    lp_feasible_point,
    nperp_basis,
)
from conftest import random_config
from helpers import (
    benchmark_workloads,
    chamber_set_digest,
    config_document,
    fraction_fm_core,
    reference_genericity,
    reference_wall_samples,
    reference_wall_slice_vertices,
    sweep_chambers,
    v_walls_bounded_scan,
    zaslavsky_chamber_count,
)


def test_quiver_walls_examples(affine_a1, elliptic_pair):
    qa = quiver_from_config(affine_a1)
    walls = quiver_walls(qa, (1, 1))
    assert len(walls) == 1
    assert set(walls[0].sources) == {(1, 0), (0, 1)}
    qe = quiver_from_config(elliptic_pair)
    assert len(quiver_walls(qe, (1, 1))) == 1
    assert quiver_walls(qa, (1, 0)) == []


def test_quiver_walls_merge_proportional(affine_a1_22):
    q = quiver_from_config(affine_a1_22)
    walls = quiver_walls(q, (2, 2))
    # n-perp is a line here: every root not proportional to n cuts the same
    # hyperplane {0}, and (1,1), being proportional to n, cuts none
    assert len(walls) == 1
    assert set(walls[0].sources) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    # but no theta is fully n-generic: (1,1) vanishes on all of n-perp
    verdict = is_generic((-1, 1), q, (2, 2))
    assert not verdict.generic and (1, 1) in verdict.violators


def test_wall_complement_identity():
    # on n-perp, theta.(n - alpha) = -theta.alpha identically
    rng = random.Random(7)
    for _ in range(20):
        cfg = random_config(rng, s_min=2, mult_max=2)
        n = cfg.mult
        basis = nperp_basis(n)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        theta = tuple(
            sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
            for i in range(cfg.s)
        )
        q = quiver_from_config(cfg)
        for alpha in bounded_roots(q, n):
            comp = tuple(a - b for a, b in zip(n, alpha))
            assert theta_dot(theta, comp) == -theta_dot(theta, alpha)


def test_theta_dot_refuses_vectors_of_different_lengths():
    # zipped, the longer side would be truncated silently: (1, 2, 3) . (1, 1) read 3
    for theta, beta in (((1, 2, 3), (1, 1)), ((1,), (1, 1))):
        message = f"theta has length {len(theta)}, but beta has length {len(beta)}"
        with pytest.raises(ValueError, match=message):
            theta_dot(theta, beta)


def test_chamber_signature_refuses_a_normal_of_another_length():
    # a truncated theta . (1, 0) read (1,) for the theta (1, -1, 5)
    wall = QuiverWall((1, 0), ((1, 0),))
    assert chamber_signature((1, -1), [wall]) == (1,)
    with pytest.raises(ValueError, match="theta has length 3, but beta has length 2"):
        chamber_signature((1, -1, 5), [wall])


def test_is_generic(affine_a1, elliptic_pair):
    qa = quiver_from_config(affine_a1)
    verdict = is_generic((-1, 1), qa, (1, 1))
    assert verdict.generic and verdict.violators == ()
    verdict = is_generic((0, 0), qa, (1, 1))
    assert not verdict.generic
    assert set(verdict.violators) == {(1, 0), (0, 1)}
    qe = quiver_from_config(elliptic_pair)
    assert is_generic((1, -1), qe, (1, 1)).generic
    with pytest.raises(ValueError):
        is_generic((1, 1), qa, (1, 1))
    # zipped against n, a short or long theta would be truncated silently
    for theta in ((0,), (1, -1, 5)):
        with pytest.raises(ValueError, match=f"theta has length {len(theta)}, but n has length 2"):
            is_generic(theta, qa, (1, 1))


def test_enumerate_chambers_fixtures(affine_a1, elliptic_pair):
    qa = quiver_from_config(affine_a1)
    ch = enumerate_chambers(qa, (1, 1))
    assert ch.count == 2
    signs = {chamber_signature(r, ch.walls) for r in ch.representatives}
    assert len(signs) == 2 and all(0 not in s for s in signs)
    for r in ch.representatives:
        assert is_generic(r, qa, (1, 1)).generic
    qe = quiver_from_config(elliptic_pair)
    assert enumerate_chambers(qe, (1, 1)).count == 2


def test_each_entry_point_checks_n_once(monkeypatch):
    """``enumerate_chambers``, ``quiver_walls`` and ``is_generic`` each run
    ``check_bound`` once per call and read one root scan of the checked n."""
    calls = []

    def spy(q, n):
        calls.append(n)
        return check_bound(q, n)

    monkeypatch.setattr(walls_module, "check_bound", spy)
    monkeypatch.setattr(quiver_module, "check_bound", spy)
    q, n = Quiver((0, 0), ((0, 2), (2, 0))), (1, 1)
    counts = []
    for call in (lambda: enumerate_chambers(q, n), lambda: quiver_walls(q, n),
                 lambda: is_generic((1, -1), q, n)):
        calls.clear()
        call()
        counts.append(len(calls))
    assert counts == [1, 1, 1]
    assert enumerate_chambers(q, n).count == 2 and len(quiver_walls(q, n)) == 1


def test_enumerate_chambers_one_vertex(ogrady):
    """A one-vertex n has no wall structure: ``enumerate_chambers`` refuses
    it, and the model's chamber stage is None."""
    q = quiver_from_config(ogrady)
    with pytest.raises(ValueError, match="one-vertex"):
        enumerate_chambers(q, (2,))
    assert LocalModel(ogrady).chambers is None


ZERO_N = re.escape("n must have a nonzero entry, got (0, 0)")


def test_nperp_basis_refuses_the_zero_vector():
    # the first nonzero entry was taken by a bare next(): StopIteration
    with pytest.raises(ValueError, match=ZERO_N):
        walls_module.nperp_basis((0, 0))
    assert walls_module.nperp_basis((0, 2)) == [(2, 0)]


def test_quiver_walls_refuses_the_zero_vector(affine_a1):
    with pytest.raises(ValueError, match=ZERO_N):
        quiver_walls(quiver_from_config(affine_a1), (0, 0))


def test_enumerate_chambers_refuses_the_zero_vector(affine_a1):
    with pytest.raises(ValueError, match=ZERO_N):
        enumerate_chambers(quiver_from_config(affine_a1), (0, 0))


def test_enumerate_chambers_no_walls(affine_a1):
    q = quiver_from_config(affine_a1)
    ch = enumerate_chambers(q, (1, 0))
    assert ch.count == 1 and len(ch.representatives) == 1


def test_chambers_match_sweep_oracle():
    rng = random.Random(13)
    for _ in range(10):
        cfg = random_config(rng, s_min=3, s_max=3, gram_bound=4, mult_max=2)
        q = quiver_from_config(cfg)
        walls = quiver_walls(q, cfg.mult)
        count, sigs = sweep_chambers(q, cfg.mult, walls)
        ch = enumerate_chambers(q, cfg.mult)
        assert ch.count == count
        assert set(ch.signatures) == sigs


def fm_on_every_split(q, n) -> ChamberSet:
    """Reference enumeration: every split whose reused point fails is decided
    by a Fourier-Motzkin solve (the exact simplex on a blowup), and a side
    with no point is dropped. ``enumerate_chambers`` decides splits from
    extreme rays instead and solves only on sides they prove nonempty.
    Points are (m, ipt) for ipt / m, as both solvers return them; the
    solvers are read from the module, so a test's patch reaches them. Each
    chamber's point is its representative in ``Fraction``s, cleared."""
    if len(n) == 1:
        raise ValueError("no wall structure; non-primitive one-vertex case")
    walls = quiver_walls(q, n)
    basis = nperp_basis(n)
    d = len(basis)
    functionals = [
        tuple(sum(b[i] * w.normal[i] for i in range(len(n))) for b in basis)
        for w in walls
    ]

    def solve(signs, f, sgn):
        ext = [(tuple(s * x for x in g), 1) for s, g in zip(signs, functionals)]
        ext.append((tuple(sgn * x for x in f), 1))
        try:
            return walls_module._fm_core(ext, d, 4000, _RowTable())
        except _FMBlowup:
            return walls_module.lp_feasible_point(ext, d)

    cells = [((), 1, (1,) + (0,) * (d - 1))]
    for f in functionals:
        new_cells = []
        for signs, m, ipt in cells:
            val = sum(x * y for x, y in zip(f, ipt))
            for sgn in (1, -1):
                found = (m, ipt) if sgn * val > 0 else solve(signs, f, sgn)
                if found is not None:
                    new_cells.append((signs + (sgn,), *found))
        cells = new_cells
    points = []
    for _, m, ipt in cells:
        den, itheta = cleared(
            [Fraction(sum(ipt[k] * basis[k][i] for k in range(d)), m) for i in range(len(n))])
        points.append((den, tuple(itheta)))
    return ChamberSet(len(cells), tuple(points), tuple(cell[0] for cell in cells), tuple(walls))


def _draws_up_to(rng, count, max_walls, **kwargs):
    """The first ``count`` random_config draws with at most ``max_walls`` walls."""
    out = []
    while len(out) < count:
        cfg = random_config(rng, **kwargs)
        if len(quiver_walls(quiver_from_config(cfg), cfg.mult)) <= max_walls:
            out.append(cfg)
    return out


def test_enumerate_chambers_matches_fm_on_every_split(
    elliptic_pair, affine_a1, affine_a1_22, ogrady, one_loop
):
    for cfg in (ogrady, one_loop):
        q = quiver_from_config(cfg)
        for enumerate_ in (enumerate_chambers, fm_on_every_split):
            with pytest.raises(ValueError, match="one-vertex"):
                enumerate_(q, cfg.mult)
    rng = random.Random(2026)
    cases = [elliptic_pair, affine_a1, affine_a1_22]
    for s in (2, 3, 4):
        for mult_max in (2, 3):
            cases += _draws_up_to(rng, 2, 14, s_min=s, s_max=s, gram_bound=4,
                                  mult_max=mult_max)
    # dim n-perp = 4; draws this small mostly have n = (1, 1, 1, 1, 1)
    cases += _draws_up_to(rng, 2, 16, s_min=5, s_max=5, gram_bound=4, mult_max=2)
    assert max(len(nperp_basis(cfg.mult)) for cfg in cases) == 4
    for cfg in cases:
        q = quiver_from_config(cfg)
        assert enumerate_chambers(q, cfg.mult) == fm_on_every_split(q, cfg.mult), cfg


def _solver_spies(patch, limit=None):
    """Counters of the ``_fm_core`` blowups and the ``lp_feasible_point``
    calls that follow, with the Fourier-Motzkin budget cut to ``limit`` if
    one is given."""
    real_fm, real_lp = walls_module._fm_core, walls_module.lp_feasible_point
    counts = {"blowups": 0, "simplex": 0}

    def counted_fm(cons, nvars, budget, table):
        try:
            return real_fm(cons, nvars, limit or budget, table)
        except _FMBlowup:
            counts["blowups"] += 1
            raise

    def counted_lp(constraints, nvars):
        counts["simplex"] += 1
        return real_lp(constraints, nvars)

    patch.setattr(walls_module, "_fm_core", counted_fm)
    patch.setattr(walls_module, "lp_feasible_point", counted_lp)
    return counts


def test_budget_fallback_inside_enumerate_chambers(monkeypatch):
    """With the Fourier-Motzkin budget cut to 6 constraints, most interior
    points of ``enumerate_chambers`` come from the ray sum of their side's
    cone, and none from the simplex. The count and signatures must be those
    of the unpatched enumeration and of the reference, and every
    representative must lie in its own sign cell. The blowup count moves
    with the points, since a point is reused until it fails: the simplex
    took 606 of them before the ray sum."""
    rng = random.Random(11)
    blowups = 0
    for _ in range(10):
        cfg = random_config(rng, 3, 4, gram_bound=4, mult_max=2)
        q = quiver_from_config(cfg)
        plain = enumerate_chambers(q, cfg.mult)
        reference = fm_on_every_split(q, cfg.mult)
        with monkeypatch.context() as patch:
            counts = _solver_spies(patch, limit=6)
            patched = enumerate_chambers(q, cfg.mult)
        assert counts["simplex"] == 0, cfg
        blowups += counts["blowups"]
        for chambers in (plain, reference):
            assert (patched.count, patched.signatures) == (chambers.count, chambers.signatures), cfg
        for theta, signs in zip(patched.representatives, patched.signatures):
            assert chamber_signature(theta, patched.walls) == signs, cfg
    assert blowups == 604, blowups


def test_chamber_count_matches_zaslavsky(monkeypatch):
    """The intersection-lattice count is independent of both feasibility
    and cone generators, and reaches dim n-perp = 3 and 4, where the 2-D
    sweep oracle cannot go. The Buck-Zaslavsky bound that enumeration
    checks against ``MAX_CHAMBERS`` is at least that count: a bound set one
    below it is refused."""
    rng = random.Random(8)
    cases = _draws_up_to(rng, 6, 25, s_min=4, s_max=4, gram_bound=4, mult_max=3)
    cases += _draws_up_to(rng, 2, 22, s_min=5, s_max=5, gram_bound=4, mult_max=2)
    for cfg in cases:
        q = quiver_from_config(cfg)
        walls = quiver_walls(q, cfg.mult)
        count = zaslavsky_chamber_count(cfg.mult, walls)
        assert enumerate_chambers(q, cfg.mult).count == count
        with monkeypatch.context() as m:
            m.setattr(walls_module, "MAX_CHAMBERS", count - 1)
            with pytest.raises(InvariantError) as e:
                enumerate_chambers(q, cfg.mult)
        assert e.value.invariant == "chamber-count"


def test_no_point_on_a_proven_side_is_an_assertion(affine_a1, monkeypatch, tmp_path, capsys):
    """A side that the extreme rays prove nonempty must get an interior
    point; a solve that finds none is a broken identity (exit 4), not an
    empty cell."""
    q = quiver_from_config(affine_a1)
    calls = []

    def first_solve_fails(cons, nvars, limit, table):
        calls.append(nvars)
        return None if len(calls) == 1 else _fm_core(cons, nvars, limit, table)

    # one wall in a line: both sides are nonempty, and the start point lies
    # on one of them, so the first solve is for the other, proven side
    monkeypatch.setattr(walls_module, "_fm_core", first_solve_fails)
    with pytest.raises(MathAssertionError, match="extreme rays prove nonempty"):
        enumerate_chambers(q, (1, 1))
    calls.clear()
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_document(affine_a1)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["chambers", str(cpath), "--json"]) == EXIT_ASSERTION
    assert "internal assertion failed" in capsys.readouterr().err
    monkeypatch.undo()
    assert enumerate_chambers(q, (1, 1)).count == 2


def fresh_fm(cons, nvars, limit):
    """``_fm_core`` on a row table of its own."""
    return _fm_core(cons, nvars, limit, _RowTable())


def test_fm_feasible_point_basics():
    """``_fm_core`` finds no point of an infeasible system and a feasible
    point, as (m, ipt) for ipt / m, of a feasible one."""
    # x >= 1, -x >= 1 infeasible
    assert fresh_fm([((1,), 1), ((-1,), 1)], 1, 4000) is None
    # x + y >= 1 and x - y >= 1 at the point ipt / m
    m, ipt = fresh_fm([((1, 1), 1), ((1, -1), 1)], 2, 4000)
    assert m > 0 and ipt[0] + ipt[1] >= m and ipt[0] - ipt[1] >= m


def test_integer_fm_matches_fraction_fm():
    """``_fm_core`` back-substitutes in integers. On seeded systems it gives
    exactly the point of the ``Fraction`` back-substitution it replaced, as
    (m, ipt) with m the lcm of the point's reduced denominators, and it
    blows up on the same systems."""

    def outcome(fm, cons, nvars, limit):
        try:
            return fm(cons, nvars, limit)
        except _FMBlowup:
            return _FMBlowup

    rng = random.Random(97)
    compared = points = blowups = drawn = 0
    while compared < 400:
        drawn += 1
        nvars = rng.randint(0, 4)
        cons = [
            (tuple(rng.randint(-5, 5) for _ in range(nvars)), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 14))
        ]
        tight = outcome(fraction_fm_core, cons, nvars, 6) is _FMBlowup
        assert (outcome(fresh_fm, cons, nvars, 6) is _FMBlowup) == tight, cons
        blowups += tight
        # systems that grow past 200 constraints are left uncompared, to keep
        # the test fast; both must blow up on them
        ref = outcome(fraction_fm_core, cons, nvars, 200)
        got = outcome(fresh_fm, cons, nvars, 200)
        if ref is _FMBlowup:
            assert got is _FMBlowup, cons
            continue
        compared += 1
        if ref is None:
            assert got is None, cons
            continue
        points += 1
        m, ipt = got
        assert tuple(Fraction(x, m) for x in ipt) == ref, cons
        assert (m, list(ipt)) == cleared(ref), cons
    assert points >= 100 and 100 <= blowups <= drawn - 100, (points, blowups, drawn)


def _sign_cell_systems(cfg, rng, monkeypatch):
    """The systems that ``enumerate_chambers`` solves on cfg's arrangement,
    all feasible, and as many systems of random sign vectors on a prefix of
    its walls, mostly infeasible."""
    real_fm, systems = walls_module._fm_core, []

    def recorded(cons, nvars, limit, table):
        systems.append((cons, nvars))
        return real_fm(cons, nvars, limit, table)

    q = quiver_from_config(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(walls_module, "_fm_core", recorded)
        enumerate_chambers(q, cfg.mult)
    basis = nperp_basis(cfg.mult)
    functionals = [tuple(sum(x * y for x, y in zip(b, w.normal)) for b in basis)
                   for w in quiver_walls(q, cfg.mult)]
    for _ in range(len(systems)):
        signs = [rng.choice((1, -1)) for _ in range(rng.randint(1, len(functionals)))]
        systems.append(([(tuple(sgn * x for x in f), 1) for sgn, f in zip(signs, functionals)],
                        len(basis)))
    return systems


def test_shared_row_table_matches_fresh_tables(monkeypatch):
    """Solves on one shared row table, in a shuffled order and across a
    reset, give the point, the None and the blowup at limit 6 of a fresh
    table and of ``fraction_fm_core``. A level's row count taken over the
    whole table rather than the solve's own rows would blow up here."""

    def outcome(fm, cons, nvars, limit, *table):
        try:
            return fm(cons, nvars, limit, *table)
        except _FMBlowup:
            return _FMBlowup

    rng = random.Random(18)
    systems = []
    for seed, s in ((0, 4), (7, 5)):
        cfg = random_config(random.Random(seed), s, s, gram_bound=4, mult_max=2)
        systems += _sign_cell_systems(cfg, rng, monkeypatch)
    rng.shuffle(systems)
    shared = _RowTable()
    points = infeasible = blowups = 0
    for k, (cons, nvars) in enumerate(systems):
        if k == len(systems) // 2:
            assert len(shared) > 0
            shared.clear()
        got = outcome(_fm_core, cons, nvars, 4000, shared)
        assert got == outcome(fresh_fm, cons, nvars, 4000), cons
        ref = fraction_fm_core(cons, nvars)
        if ref is None:
            assert got is None, cons
            infeasible += 1
        else:
            m, ipt = got
            assert tuple(Fraction(x, m) for x in ipt) == ref, cons
            points += 1
        tight = outcome(_fm_core, cons, nvars, 6, shared)
        assert tight == outcome(fresh_fm, cons, nvars, 6), cons
        assert (tight is _FMBlowup) == (outcome(fraction_fm_core, cons, nvars, 6) is _FMBlowup)
        blowups += tight is _FMBlowup
    assert min(points, infeasible, blowups, len(systems) - blowups) >= 100, (
        points, infeasible, blowups, len(systems))


def test_chamber_set_of_the_3300_chamber_draw_is_pinned(monkeypatch):
    """The s = 5 draw with 32 walls and 3300 chambers, where the row table
    saves the most, gives the ``ChamberSet`` recorded before the table, and
    the table holds at most ``_FM_LIMIT`` entries after every solve, so it
    is reset on the way."""
    real_fm, sizes = walls_module._fm_core, []

    def sized(cons, nvars, limit, table):
        try:
            return real_fm(cons, nvars, limit, table)
        finally:
            sizes.append(len(table))

    cfg = random_config(random.Random(5), 5, 5, gram_bound=4, mult_max=2)
    monkeypatch.setattr(walls_module, "_fm_core", sized)
    chambers = enumerate_chambers(quiver_from_config(cfg), cfg.mult)
    assert (chambers.count, len(chambers.walls)) == (3300, 32)
    digest = "8c90cfda3e4fdee254da99f103bdd10150a9401657c86d8af97161976b14429e"
    assert chamber_set_digest(chambers) == digest
    assert max(sizes) <= _FM_LIMIT
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the table was never reset"


def test_one_cut_per_split(monkeypatch):
    """A wall that leaves a cell's closed cone on one side cannot split it,
    so ``_cut`` runs only at a wall that cuts its cell: once per split, and
    count - 1 times in all. One call per cell and wall made 26197 on the
    3300-chamber draw and 20076 on the 32 configurations of the
    ``chambers`` benchmark at seed 0. No Fourier-Motzkin solve of these
    inputs blows up, so none calls the simplex."""
    real_cut, calls = walls_module._cut, []

    def counted(*args):
        calls.append(args[0])
        return real_cut(*args)

    def cuts(cfg):
        calls.clear()
        count = enumerate_chambers(quiver_from_config(cfg), cfg.mult).count
        assert len(calls) == count - 1, cfg
        return len(calls)

    monkeypatch.setattr(walls_module, "_cut", counted)
    solvers = _solver_spies(monkeypatch)
    assert cuts(random_config(random.Random(5), 5, 5, gram_bound=4, mult_max=2)) == 3299
    rng = random.Random(40)
    for s in (3, 4, 5):
        for cfg in _draws_up_to(rng, 3, 16, s_min=s, s_max=s, gram_bound=4, mult_max=2):
            cuts(cfg)
    inputs = benchmark_workloads().build("chambers", 0).inputs
    assert len(inputs) == 32
    assert sum(cuts(parse_config_document(json.loads(doc))[0]) for doc, _ in inputs) == 4014
    # every point of these inputs is a Fourier-Motzkin point within its budget
    assert solvers == {"blowups": 0, "simplex": 0}


def test_chambers_are_listed_in_lexicographic_signature_order():
    """``enumerate_chambers`` lists the chambers in lexicographic order of
    their signatures, +1 before -1, and the correspondence report probes
    them in that order."""
    rng = random.Random(41)
    for s in (2, 3, 4, 5):
        for cfg in _draws_up_to(rng, 4, 16, s_min=s, s_max=s, gram_bound=4, mult_max=2):
            chambers = enumerate_chambers(quiver_from_config(cfg), cfg.mult)
            assert list(chambers.signatures) == sorted(chambers.signatures, reverse=True), cfg
            report = verify_correspondence(cfg)
            assert [c.signature for c in report.chambers] == list(chambers.signatures), cfg


def test_lp_matches_fm_on_random_systems():
    # two independent exact feasibility routes must agree, and any point
    # returned must actually satisfy its system
    rng = random.Random(59)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        m = rng.randint(1, 6)
        cons = [
            (
                tuple(rng.randint(-4, 4) for _ in range(nvars)),
                rng.randint(-3, 3),
            )
            for _ in range(m)
        ]
        fm = fresh_fm(cons, nvars, 4000)
        lp = lp_feasible_point(cons, nvars)
        assert (fm is None) == (lp is None), cons
        for found in (fm, lp):
            if found is not None:
                # the point ipt / m, checked in integers
                m, ipt = found
                assert m > 0, cons
                for coeffs, rhs in cons:
                    assert sum(c * x for c, x in zip(coeffs, ipt)) >= rhs * m


def test_lp_points_are_pinned():
    """The simplex's answers on 600 seeded systems, (m, ipt) for the point
    ipt / m, m the lcm of its reduced denominators, or None, hash to the
    digest recorded from the ``Fraction`` points the simplex returned before,
    each cleared to (m, ipt). Nothing else pins these points: the report
    ladder never reaches the simplex."""
    rng = random.Random(1601)
    outs = []
    for _ in range(600):
        nvars = rng.randint(0, 5)
        cons = [
            (tuple(rng.randint(-5, 5) for _ in range(nvars)), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 14))
        ]
        outs.append(lp_feasible_point(cons, nvars))
    assert sum(o is not None for o in outs) == 279
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == "28d71a5dadc6190d0ac65762f9e5383184d7b98108d41c7679f6100c5e05ec7d"


def chamber_like_systems(seed: int, count: int) -> list:
    """``count`` seeded feasible systems shaped like those a Fourier-Motzkin
    blowup hands to the simplex: 15-32 rows in 3 or 4 variables, each a
    random integer functional signed to be positive at one random nonzero
    integer point, with right-hand side 1 to 3, so a multiple of that point
    satisfies them all."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        nvars = rng.randint(3, 4)
        point = [0] * nvars
        while not any(point):
            point = [rng.randint(-5, 5) for _ in range(nvars)]
        rows, cons = rng.randint(15, 32), []
        while len(cons) < rows:
            coeffs = [rng.randint(-4, 4) for _ in range(nvars)]
            dot = sum(map(operator.mul, coeffs, point))
            if dot:
                cons.append((tuple(c if dot > 0 else -c for c in coeffs), rng.randint(1, 3)))
        systems.append((cons, nvars))
    return systems


def test_lp_points_are_pinned_on_chamber_like_systems():
    """The simplex's answers on 200 seeded systems of the size a blowup
    hands over, recorded before the simplex went fraction-free; each
    point is checked against its system."""
    outs = []
    for cons, nvars in chamber_like_systems(3001, 200):
        m, ipt = lp_feasible_point(cons, nvars)
        assert m > 0 and all(sum(map(operator.mul, c, ipt)) >= b * m for c, b in cons)
        outs.append((m, ipt))
    digest = hashlib.sha256(json.dumps(outs).encode()).hexdigest()
    assert digest == "1c7dfcae5b36996bab22d1dd759526ee783e26a634b473d0e0830935518b8f17"


def test_lp_no_constraints():
    assert lp_feasible_point([], 3) == (1, (0, 0, 0))


def test_ample_walls(elliptic_pair, affine_a1, ogrady):
    walls = ample_walls_through_h0(elliptic_pair)
    assert len(walls) == 1
    w = walls[0]
    assert set(w.sources) == {(1, 0), (0, 1)}
    assert w.chi_beta == 1
    # the wall is a1 = a2 on the slice a1 + a2 = 2, i.e. a1 = 1
    assert sorted(w.coeffs) == [-1, 1]
    assert sum(c * d for c, d in zip(w.coeffs, elliptic_pair.h0deg)) == 0
    assert len(ample_walls_through_h0(affine_a1)) == 1
    assert ample_walls_through_h0(ogrady) == []


def test_ample_wall_off_h0deg_is_an_assertion(elliptic_pair):
    """Equal slopes put every ample wall through h0deg. A configuration whose
    chi is changed to unequal slopes after validation breaks that, and the
    wall check is an internal assertion, not a wall."""
    cfg = CurveConfig(elliptic_pair.gram, elliptic_pair.chi, elliptic_pair.mult,
                      elliptic_pair.h0deg)
    object.__setattr__(cfg, "chi", (1, 2))
    with pytest.raises(MathAssertionError, match="misses h0deg; equal-slope data broken"):
        ample_walls_through_h0(cfg)


def test_wall_counts_agree_random():
    rng = random.Random(31)
    for _ in range(20):
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=2)
        q = quiver_from_config(cfg)
        qw = quiver_walls(q, cfg.mult)
        aw = ample_walls_through_h0(cfg)
        assert [w.normal for w in qw] == [w.beta for w in aw]


def test_xi_map(elliptic_pair):
    a = DegreeVector((Fraction(1, 2), Fraction(3, 2)))
    assert xi_map(elliptic_pair, a) == (Fraction(-1, 2), Fraction(1, 2))
    h0 = DegreeVector((1, 1))
    assert xi_map(elliptic_pair, h0) == (0, 0)
    with pytest.raises(ValueError, match="slice"):
        xi_map(elliptic_pair, DegreeVector((1, 2)))
    with pytest.raises(ValueError, match="a has length 1, but mult has length 2"):
        xi_map(elliptic_pair, DegreeVector((1,)))
    # any slice point with a1 = 1 lands on the quiver wall of (1, 0)
    on_wall = DegreeVector((1, 1))
    assert theta_dot(xi_map(elliptic_pair, on_wall), (1, 0)) == 0


def test_character_general(elliptic_pair):
    assert character_general(elliptic_pair, DegreeVector((1, 2))) == (-1, 1)
    assert character_general(elliptic_pair, DegreeVector((1, 1))) == (0, 0)
    on_slice = DegreeVector((Fraction(1, 2), Fraction(3, 2)))
    theta = character_general(elliptic_pair, on_slice)
    assert theta == (-1, 1)
    assert theta == tuple(2 * t for t in xi_map(elliptic_pair, on_slice))
    with pytest.raises(ValueError, match="a has length 3, but mult has length 2"):
        character_general(elliptic_pair, DegreeVector((1, 2, 3)))


def test_character_orthogonal_and_scaling():
    rng = random.Random(43)
    for _ in range(20):
        cfg = random_config(rng)
        a = DegreeVector(
            tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(cfg.s))
        )
        theta = character_general(cfg, a)
        assert theta_dot(theta, cfg.mult) == 0
        c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        scaled = character_general(cfg, DegreeVector(tuple(c * x for x in a.a)))
        assert scaled == tuple(c * t for t in theta)


def test_det_weight_vector(elliptic_pair):
    assert det_weight_vector(elliptic_pair, DegreeVector((1, 2)), 5) == (6, 11)
    assert det_weight_vector(elliptic_pair, DegreeVector((1, 1)), 1) == (2, 2)
    with pytest.raises(ValueError, match="a has length 1, but mult has length 2"):
        det_weight_vector(elliptic_pair, DegreeVector((1,)), 5)
    # on the slice, d0 * w(a) - d * w(h0) = ell * character(a)
    a = DegreeVector((Fraction(1, 2), Fraction(3, 2)))
    d0 = elliptic_pair.total_h0deg
    d = sum(n * x for n, x in zip(elliptic_pair.mult, a.a))
    for ell in (1, 5, 10):
        lhs = tuple(
            d0 * w - d * w0
            for w, w0 in zip(
                det_weight_vector(elliptic_pair, a, ell),
                det_weight_vector(elliptic_pair, DegreeVector((1, 1)), ell),
            )
        )
        assert lhs == tuple(ell * t for t in character_general(elliptic_pair, a))


def test_restrict_weights(elliptic_pair):
    q = quiver_from_config(elliptic_pair)
    decs = decompositions(q, (1, 1))
    two_part = next(d for d in decs if len(d.parts) == 2)
    a = DegreeVector((1, 2))
    weights = det_weight_vector(elliptic_pair, a, 5)
    parts = restrict_weights_to_type(weights, two_part, elliptic_pair, a, 5)
    by_beta = dict(zip([b for _, b in two_part.parts], parts))
    assert by_beta[(1, 0)] == 6 and by_beta[(0, 1)] == 11
    trivial = next(d for d in decs if d.is_trivial((1, 1)))
    tparts = restrict_weights_to_type(weights, trivial, elliptic_pair, a, 5)
    assert tparts == [17]
    h0 = DegreeVector((1, 1))
    w0 = det_weight_vector(elliptic_pair, h0, 1)
    cparts = restrict_weights_to_type(w0, two_part, elliptic_pair, h0, 1)
    assert cparts == [2 * sum(b) for _, b in two_part.parts]


def test_restrict_weights_detects_corruption(elliptic_pair):
    q = quiver_from_config(elliptic_pair)
    dec = decompositions(q, (1, 1))[0]
    a = DegreeVector((1, 2))
    weights = det_weight_vector(elliptic_pair, a, 5)
    broken = (weights[0] + 1, weights[1])
    with pytest.raises(MathAssertionError):
        restrict_weights_to_type(broken, dec, elliptic_pair, a, 5)


def test_restrict_weights_refuses_weights_of_the_wrong_length(elliptic_pair):
    # a short vector, zipped against a part, failed the identity as an
    # internal bug (MathAssertionError) on what is bad input
    dec = decompositions(quiver_from_config(elliptic_pair), (1, 1))[0]
    a = DegreeVector((1, 2))
    weights = det_weight_vector(elliptic_pair, a, 5)
    for bad in (weights[:1], (*weights, 0)):
        with pytest.raises(ValueError, match=f"weights has length {len(bad)}, but mult has"):
            restrict_weights_to_type(bad, dec, elliptic_pair, a, 5)


def test_restrict_weights_refuses_degrees_of_the_wrong_length(elliptic_pair):
    # a short a failed the identity as an internal bug (MathAssertionError),
    # and a long one was cut short by zip and accepted
    dec = next(d for d in decompositions(quiver_from_config(elliptic_pair), (1, 1))
               if len(d.parts) == 2)
    weights = det_weight_vector(elliptic_pair, DegreeVector((1, 2)), 5)
    for bad in ((1,), (1, 2, 7)):
        with pytest.raises(ValueError, match=f"a has length {len(bad)}, but mult has length 2"):
            restrict_weights_to_type(weights, dec, elliptic_pair, DegreeVector(bad), 5)


def test_restrict_weights_wrong_total(elliptic_pair, affine_a1_22):
    q22 = quiver_from_config(affine_a1_22)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = decompositions(q22, (2, 2))[0]
    a = DegreeVector((1, 2))
    with pytest.raises(ValueError):
        restrict_weights_to_type(
            det_weight_vector(elliptic_pair, a, 1), dec, elliptic_pair, a, 1
        )


def test_verify_correspondence_fixtures(elliptic_pair, affine_a1, ogrady):
    rep = verify_correspondence(elliptic_pair, samples_per_wall=4)
    assert rep.wall_counts_match
    assert len(rep.walls) == 1 and rep.walls[0].all_on_image_wall
    assert len(rep.chambers) == 2
    sigs = {c.signature for c in rep.chambers}
    assert sigs == {(1,), (-1,)}
    assert all(c.generic for c in rep.chambers)
    rep_a = verify_correspondence(affine_a1)
    # chambers a1 < 1 and a1 > 1 map to opposite-sign characters
    thetas = sorted(c.theta[0] for c in rep_a.chambers)
    assert thetas[0] < 0 < thetas[1]
    rep_o = verify_correspondence(ogrady)
    assert rep_o.walls == () and rep_o.chambers == ()
    assert "one-vertex" in rep_o.note


def test_verify_correspondence_random():
    rng = random.Random(53)
    for _ in range(6):
        cfg = random_config(rng, s_min=2, s_max=3, mult_max=2, gram_bound=4)
        report = verify_correspondence(cfg, samples_per_wall=2)
        assert report.wall_counts_match
        assert all(w.all_on_image_wall for w in report.walls)


def test_chamber_point_off_its_sign_cell_is_an_assertion(affine_a1, monkeypatch, tmp_path, capsys):
    """Each chamber's point must realize the chamber's signs; a solve that
    hands back the origin, which lies on every wall, breaks that certificate
    (exit 4)."""
    q = quiver_from_config(affine_a1)
    monkeypatch.setattr(walls_module, "_fm_core",
                        lambda cons, nvars, limit, table: (1, (0,) * nvars))
    with pytest.raises(MathAssertionError, match="does not realize its sign cell"):
        enumerate_chambers(q, (1, 1))
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_document(affine_a1)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["chambers", str(cpath), "--json"]) == EXIT_ASSERTION
    assert "does not realize its sign cell" in capsys.readouterr().err


def test_off_wall_image_is_an_assertion(elliptic_pair, monkeypatch, tmp_path, capsys):
    """A sampled ample-wall point whose xi image leaves the quiver wall
    breaks the correspondence: the library raises naming the wall's beta,
    and the CLI exits 4."""
    (wall,) = LocalModel(elliptic_pair).ample_walls
    xi = walls_module._xi
    # shifting the numerators by (1, ..., 1) changes theta . alpha by sum(alpha) / den > 0
    monkeypatch.setattr(walls_module, "_xi", lambda h0, den, a: tuple(x + 1 for x in xi(h0, den, a)))
    with pytest.raises(MathAssertionError, match=re.escape(f"quiver wall for beta={wall.beta}")):
        verify_correspondence(elliptic_pair)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_document(elliptic_pair)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["correspondence", str(cpath), "--json"]) == EXIT_ASSERTION
    assert f"beta={wall.beta}" in capsys.readouterr().err


def _assert_correspondence_assertion(cfg, match, tmp_path, capsys):
    """verify_correspondence raises ``MathAssertionError`` matching ``match``,
    and the CLI's ``correspondence`` exits 4 naming it."""
    with pytest.raises(MathAssertionError, match=re.escape(match)):
        verify_correspondence(cfg)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_document(cfg)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["correspondence", str(cpath), "--json"]) == EXIT_ASSERTION
    assert match in capsys.readouterr().err


def test_off_slice_wall_sample_is_an_assertion(elliptic_pair, monkeypatch, tmp_path, capsys):
    """Doubled slice vertices put every sample after h0deg off the slice
    sum n_i a_i = d_0: a broken identity that names the wall's beta and
    exits 4, not a ``ValueError`` and a traceback."""
    (wall,) = LocalModel(elliptic_pair).ample_walls
    verts = walls_module._wall_slice_vertices
    monkeypatch.setattr(walls_module, "_wall_slice_vertices",
                        lambda cfg, w: [(vm, tuple(2 * x for x in iv)) for vm, iv in verts(cfg, w)])
    _assert_correspondence_assertion(
        elliptic_pair, f"wall sample for beta={wall.beta} is off the slice", tmp_path, capsys)


def test_wall_sample_outside_the_positive_cone_is_an_assertion(
        elliptic_pair, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(walls_module, "_wall_slice_vertices",
                        lambda cfg, w: [(1, (-5, -5))])
    _assert_correspondence_assertion(
        elliptic_pair, "wall sample left the positive cone", tmp_path, capsys)


def test_probe_character_off_d0_xi_is_an_assertion(elliptic_pair, monkeypatch, tmp_path, capsys):
    character = walls_module._character
    monkeypatch.setattr(walls_module, "_character",
                        lambda d0, n, h0, ia: tuple(x + 1 for x in character(d0, n, h0, ia)))
    _assert_correspondence_assertion(
        elliptic_pair, "character of an on-slice point is not d0 * xi", tmp_path, capsys)


def test_integer_wall_slice_vertices_match_the_fraction_scan():
    """Every wall's vertices (vm, iv) are those of the ``Fraction`` scan,
    in order and in number, each with vm > 0 and no common factor."""
    rng = random.Random(2601)
    walls_seen = vertices = 0
    for _ in range(16):
        cfg = random_config(rng, s_min=2, s_max=5, mult_max=3, gram_bound=4)
        for wall in LocalModel(cfg).ample_walls:
            got = _wall_slice_vertices(cfg, wall)
            assert all(vm > 0 and math.gcd(vm, *iv) == 1 for vm, iv in got)
            assert [tuple(Fraction(x, vm) for x in iv) for vm, iv in got] == (
                reference_wall_slice_vertices(cfg, wall)), (cfg, wall.beta)
            walls_seen += 1
            vertices += len(got)
    assert walls_seen >= 40 and vertices >= 80, (walls_seen, vertices)


def test_integer_wall_samples_match_the_fraction_loop():
    """Every wall's integer samples, each over its denominator, are the
    samples of the ``Fraction`` loop, in order; that loop's checks pass on
    them, and so does verify_correspondence on the same counts."""
    rng = random.Random(2501)
    walls_seen = passes = 0
    for _ in range(12):
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=2, gram_bound=4)
        for wall in LocalModel(cfg).ample_walls:
            verts = _wall_slice_vertices(cfg, wall)
            for count in (0, 1, 5):
                samples = _wall_samples(cfg.h0deg, verts, count)
                assert all(den > 0 for den, _ in samples)
                got = [tuple(Fraction(x, den) for x in ia) for den, ia in samples]
                assert got == reference_wall_samples(cfg, wall, count), (cfg, wall.beta, count)
            walls_seen += 1
            passes += 0 < len(verts) < 5
        report = verify_correspondence(cfg, samples_per_wall=5)
        assert [w.sample_count for w in report.walls] == [
            len(reference_wall_samples(cfg, w, 5)) for w in LocalModel(cfg).ample_walls]
    # the draws reach walls whose five samples take a second pass over the vertices
    assert walls_seen >= 40 and passes >= 40, (walls_seen, passes)


def test_genericity_matches_the_fraction_reference():
    """``_genericity`` clears theta to integers once; on seeded thetas with
    int and ``Fraction`` entries, on walls, off them and off n-perp, it gives
    the verdict, or the ``ValueError``, of the ``Fraction`` reference. A
    float or "p/q" entry is refused with ``InvariantError("rationality")``."""
    rng = random.Random(2502)
    spellings = [lambda x: x, lambda x: x.numerator if x.denominator == 1 else x]
    verdicts = raised = with_violators = refused = 0
    for _ in range(8):
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=2, gram_bound=4)
        n, roots = cfg.mult, LocalModel(cfg).roots
        basis = nperp_basis(n)
        thetas = []
        for _ in range(12):
            coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 8))) for _ in basis]
            theta = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(n))]
            thetas.append(theta)
            if roots:  # onto the wall of a root: theta - (theta . alpha / u . alpha) u
                alpha = rng.choice(roots)
                u = next((b for b in basis if walls_module._dot(b, alpha)), None)
                if u is not None:
                    t = sum(x * a for x, a in zip(theta, alpha)) / walls_module._dot(u, alpha)
                    thetas.append([x - t * y for x, y in zip(theta, u)])
            off = list(theta)
            off[0] += Fraction(1, rng.choice((1, 3)))
            thetas.append(off)
        thetas.append([Fraction(1, 10)] * len(n))
        for theta in thetas:
            spelled = [rng.choice(spellings)(Fraction(x)) for x in theta]
            for bad in (float, str):
                with pytest.raises(InvariantError) as err:
                    _genericity([bad(spelled[0]), *spelled[1:]], n, roots)
                refused += err.value.invariant == "rationality"
            try:
                want = reference_genericity(spelled, n, roots)
            except ValueError as err:
                with pytest.raises(ValueError, match=re.escape(str(err))):
                    _genericity(spelled, n, roots)
                raised += 1
                continue
            assert _genericity(spelled, n, roots) == want, (cfg, spelled)
            verdicts += 1
            with_violators += bool(want.violators)
    assert verdicts >= 150 and raised >= 100 and with_violators >= 100, (
        verdicts, raised, with_violators)
    assert refused == 2 * (verdicts + raised)


def test_correspondence_chamber_facts_match_per_chamber_oracle(affine_a1_22):
    """verify_correspondence reads signatures from the chamber set and decides
    genericity once; recomputing both chamber by chamber must agree. The
    affine (2,2) fixture has a root proportional to n, violated everywhere."""
    rng = random.Random(404)
    draws = [random_config(rng, s_min=2, s_max=4, mult_max=2) for _ in range(10)]
    with_violators = 0
    for cfg in [affine_a1_22] + draws:
        q, n = quiver_from_config(cfg), cfg.mult
        walls = quiver_walls(q, n)
        report = verify_correspondence(cfg, samples_per_wall=1)
        sigs = [c.signature for c in report.chambers]
        assert len(set(sigs)) == len(sigs)
        for c in report.chambers:
            assert c.signature == chamber_signature(c.theta, walls)
            assert 0 not in c.signature
            verdict = is_generic(c.theta, q, n)
            assert (c.generic, c.violators) == (verdict.generic, verdict.violators)
        with_violators += bool(report.chambers[0].violators)
    assert with_violators >= 1


def test_negative_counts_are_refused(elliptic_pair):
    with pytest.raises(ValueError, match="samples_per_wall must be a non-negative integer, got -2"):
        verify_correspondence(elliptic_pair, samples_per_wall=-2)


def _both_signs(coeffs) -> bool:
    """The hyperplane coeffs . a = 0 meets the open cone a > 0."""
    return any(c > 0 for c in coeffs) and any(c < 0 for c in coeffs)


def test_v_walls_match_the_bounded_scan_in_the_cone():
    """chi_Gamma of a wall that meets the cone lies strictly between 0 and
    chi, so the unbounded scan at B = |chi|, cut to the hyperplanes with
    coefficients of both signs, is the exact list, entry for entry. Every
    ample wall through h0deg is in it, flagged so."""
    rng = random.Random(3)
    nonempty = 0
    for _ in range(100):
        cfg = random_config(rng, 2, 4, gram_bound=4, mult_max=3)
        exact = v_walls(cfg)
        scan = v_walls_bounded_scan(cfg, abs(cfg.total_euler))
        assert exact == [w for w in scan if _both_signs(w[2])], cfg
        assert all(_both_signs(coeffs) for _, _, coeffs, _ in exact), cfg
        through = {_sign_insensitive_key(co): th for _, _, co, th in exact}
        for wall in ample_walls_through_h0(cfg):
            assert through[_sign_insensitive_key(wall.coeffs)] is True, (cfg, wall)
        nonempty += bool(exact)
    assert nonempty >= 90, nonempty


def test_v_walls_of_the_elliptic_pair(elliptic_pair):
    """beta = (0, 1) and (1, 0) cut the one hyperplane a_1 = a_2 at chi_Gamma
    = 1, strictly inside (0, chi) = (0, 2); the first in box order stays."""
    assert v_walls(elliptic_pair) == [((0, 1), 1, (-1, 1), True)]
    # the scan at B = 2 lists six more, all missing the cone
    assert len(v_walls_bounded_scan(elliptic_pair, 2)) == 7
