import random
import re
import sys
import warnings

import pytest

from quiverk3 import (
    CurveConfig,
    InvariantError,
    MukaiVector,
    bounded_roots,
    cb_simple_exists,
    d_form,
    decompositions,
    is_positive_root,
    mu_zero_expected_dim,
    mukai_square,
    p_of,
    quiver_from_config,
    quiver_to_dot,
    quiver_walls,
    rep_space_dim,
    strata_report,
)
from quiverk3.quiver import Quiver, _pack, _packed_box, _packing, boxed_vectors
from quiverk3.walls import LocalModel
from conftest import random_config
from helpers import reference_decompositions, reference_simple_exists


def test_quiver_from_config_examples(elliptic_pair, affine_a1):
    q = quiver_from_config(elliptic_pair)
    assert q.loops == (1, 1) and q.edges[0][1] == 2
    assert q.cartan() == ((0, -2), (-2, 0))
    qa = quiver_from_config(affine_a1)
    assert qa.loops == (0, 0) and qa.edges[0][1] == 2
    assert qa.cartan() == ((2, -2), (-2, 2))
    g2 = quiver_from_config(CurveConfig(((2,),), (1,), (1,), (1,)))
    assert g2.loops == (2,)
    assert g2.cartan() == ((-2,),)


def test_quiver_from_config_rejects_bad_diagonal():
    # quiver_from_config takes a CurveConfig, and no CurveConfig carries an
    # odd diagonal entry or one below -2
    for g in (3, -4):
        with pytest.raises(InvariantError) as e:
            quiver_from_config(CurveConfig(((g,),), (1,), (1,), (1,)))
        assert e.value.invariant == "gram-diagonal"


@pytest.mark.parametrize("loops, edges, message", [
    ((0, 0), ((0, 1),), "edge matrix must be s x s"),
    ((0, 0), ((0, 1), (1,)), "edge matrix must be s x s"),
    ((0, -1), ((0, 1), (1, 0)), "loop counts must be non-negative"),
    ((0, 0), ((1, 1), (1, 0)), "edge matrix must have zero diagonal"),
    ((0, 0), ((0, 1), (2, 0)), "edge matrix must be symmetric non-negative"),
    ((0, 0), ((0, -1), (-1, 0)), "edge matrix must be symmetric non-negative"),
])
def test_quiver_refuses_a_malformed_edge_matrix(loops, edges, message):
    with pytest.raises(ValueError, match=message):
        Quiver(loops, edges)


def test_orientation_counts(elliptic_pair):
    q = quiver_from_config(elliptic_pair)
    loops = [e for e in q.orientation if e[0] == e[1]]
    edges = [e for e in q.orientation if e[0] != e[1]]
    assert len(loops) == 2 and len(edges) == 2
    assert all(s < t for s, t, _ in edges)


def test_orientation_is_built_once(elliptic_pair):
    # cached like ``form``: not a field, so equality and hashing are unchanged
    q, twin = quiver_from_config(elliptic_pair), quiver_from_config(elliptic_pair)
    assert q.orientation is q.orientation
    assert q == twin and hash(q) == hash(twin) and q.orientation == twin.orientation


def test_d_form_examples(elliptic_pair, affine_a1):
    qe = quiver_from_config(elliptic_pair)
    qa = quiver_from_config(affine_a1)
    assert d_form(qe, (1, 1)) == 4
    assert d_form(qa, (1, 1)) == 0
    assert d_form(qa, (0, 0)) == 0
    assert p_of(qe, (1, 1)) == 3
    assert p_of(qa, (1, 0)) == 0
    assert p_of(qa, (0, 0)) == 1
    with pytest.raises(ValueError, match="beta has length 3, but loops has length 2"):
        d_form(qa, (1, 1, 1))


def test_d_form_always_even():
    rng = random.Random(3)
    for _ in range(40):
        cfg = random_config(rng)
        q = quiver_from_config(cfg)
        beta = tuple(rng.randint(0, 3) for _ in range(cfg.s))
        assert d_form(q, beta) % 2 == 0


def test_is_positive_root(affine_a1):
    q = quiver_from_config(affine_a1)
    assert is_positive_root(q, (1, 0))
    assert not is_positive_root(q, (0, 0))
    disconnected = Quiver((1, 1), ((0, 0), (0, 0)))
    assert not is_positive_root(disconnected, (1, 1))
    assert is_positive_root(disconnected, (1, 0))
    assert not is_positive_root(q, (2, 0))  # d = -8 < -2
    assert not is_positive_root(q, (-1, 1))


def test_bounded_roots(affine_a1, elliptic_pair):
    qa = quiver_from_config(affine_a1)
    qe = quiver_from_config(elliptic_pair)
    assert bounded_roots(qa, (1, 1)) == [(0, 1), (1, 0)]
    assert bounded_roots(qe, (1, 1)) == [(0, 1), (1, 0)]
    assert bounded_roots(qa, (1, 0)) == []
    assert bounded_roots(qa, (2, 2)) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    with pytest.raises(ValueError, match="n must be non-negative"):
        bounded_roots(qa, (1, -1))


def test_roots_symmetry_under_complement():
    rng = random.Random(17)
    for _ in range(25):
        cfg = random_config(rng, mult_max=2)
        q = quiver_from_config(cfg)
        n = cfg.mult
        roots = set(bounded_roots(q, n))
        for alpha in roots:
            comp = tuple(a - b for a, b in zip(n, alpha))
            if any(comp) and comp != n and is_positive_root(q, comp):
                assert comp in roots


def test_decompositions_examples(affine_a1, ogrady):
    qa = quiver_from_config(affine_a1)
    decs = decompositions(qa, (1, 1))
    assert [d.parts for d in decs] == [
        ((1, (1, 1)),),
        ((1, (0, 1)), (1, (1, 0))),
    ]
    qo = quiver_from_config(ogrady)
    decs = decompositions(qo, (2,))
    assert [d.parts for d in decs] == [((1, (2,)),), ((2, (1,)),)]
    # a simple root decomposes only trivially
    assert [d.parts for d in decompositions(qa, (1, 0))] == [((1, (1, 0)),)]


def test_decompositions_sum_and_root_parts():
    rng = random.Random(29)
    for _ in range(10):
        cfg = random_config(rng, s_max=3, mult_max=2)
        q = quiver_from_config(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for dec in decompositions(q, cfg.mult):
                assert dec.total == cfg.mult
                for k, beta in dec.parts:
                    assert k > 0 and is_positive_root(q, beta)
                assert len({b for _, b in dec.parts}) == len(dec.parts)


def test_decompositions_match_the_unmemoized_recursion():
    """Same decompositions in the same order as the plain skip/use recursion,
    on 60 draws with s = 2..4 and mult_max 2, 3 and 4 in turn; draws with
    more than 56 roots below n are skipped to bound the reference's time."""
    rng = random.Random(83)
    checked = total = 0
    while checked < 60:
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=2 + checked % 3)
        q = quiver_from_config(cfg)
        if len(bounded_roots(q, cfg.mult)) > 56:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = decompositions(q, cfg.mult)
            want = reference_decompositions(q, cfg.mult)
        assert [d.parts for d in got] == [d.parts for d in want], cfg
        checked += 1
        total += len(got)
    assert total > 2500  # the draws include strata-heavy ones, up to 299
    # an s = 1 draw (11 decompositions of (6,)), and a bound with a zero
    # entry (109 decompositions); random_config draws every multiplicity
    # >= 1, so the zero is set by hand
    one = random_config(random.Random(5), s_min=1, s_max=1, mult_max=6)
    many = random_config(random.Random(0), s_min=3, s_max=4, mult_max=3)
    cases = [(quiver_from_config(one), one.mult),
             (quiver_from_config(many), many.mult[:1] + (0,) + many.mult[2:])]
    for q, n in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = decompositions(q, n)
            want = reference_decompositions(q, n)
        assert [d.parts for d in got] == [d.parts for d in want], n
    assert [len(decompositions(q, n)) for q, n in cases] == [11, 109]


def _clique(s: int) -> CurveConfig:
    """s genus-1 curves meeting pairwise once; every nonzero 0/1 vector is a
    root, so the decompositions of n = (1, ..., 1) are the set partitions."""
    gram = tuple(tuple(0 if i == j else 1 for j in range(s)) for i in range(s))
    return CurveConfig(gram, (1,) * s, (1,) * s, (1,) * s)


def test_decompositions_recurse_once_per_part_not_per_root():
    """The 8-curve clique has 255 roots and at most 8 parts per
    decomposition; its enumeration runs with about 60 frames of headroom,
    which a recursion taking one frame per skipped root would exceed."""
    cfg = _clique(8)
    q = quiver_from_config(cfg)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        decs = decompositions(q, cfg.mult)
    finally:
        sys.setrecursionlimit(limit)
    assert len(bounded_roots(q, cfg.mult)) == 254
    assert len(decs) == 4140  # the Bell number B_8


def test_equal_parts_are_one_object():
    """Each part (k, beta) of a model's decompositions is made once, so the
    report encoder's identity memo spells each value once: the 8-curve
    clique's 4140 decompositions hold 17007 parts of 255 values, one object
    each; so on seeded draws with multiplicities above 1."""
    rng = random.Random(43)
    cfgs = [_clique(8)] + [random_config(rng, 1, 4, mult_max=3) for _ in range(40)]
    for cfg in cfgs:
        parts = [p for d in LocalModel(cfg).decompositions for p in d.parts]
        assert len({id(p) for p in parts}) == len(set(parts)), cfg
    parts = [p for d in LocalModel(cfgs[0]).decompositions for p in d.parts]
    assert (len(parts), len(set(parts))) == (17007, 255)


def test_nine_curve_clique_strata():
    # 511 roots, 21147 = B_9 decompositions, one stratum record each
    cfg = _clique(9)
    assert len(decompositions(quiver_from_config(cfg), cfg.mult)) == 21147
    assert len(strata_report(cfg)) == 21147


def test_decomposition_count_is_bounded():
    # n = (k,) at one vertex with two loops: every multiple of the vertex is
    # a root, so the decompositions are the partitions of k; 1958 of k = 25
    # fit under a bound of 2000, and the 2436 of k = 26 do not
    q = quiver_from_config(CurveConfig(((2,),), (1,), (25,), (1,)))
    assert len(decompositions(q, (25,))) == 1958
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("quiverk3.quiver.MAX_DECOMPOSITIONS", 2000)
        assert len(decompositions(q, (25,))) == 1958
        with pytest.raises(InvariantError) as e:
            decompositions(q, (26,))
    assert e.value.invariant == "decomposition-count"


@pytest.mark.parametrize("n", [
    (1,), (2,), (3,), (4,), (5,),  # the ogrady fixture's vertex, mult 1 to 5
    (0, 3, 0, 2), (2, 0), (0,),  # zero entries
    (7, 2, 1), (8, 2, 1), (15, 0, 3), (16, 0, 3),  # max(n) at 2^k - 1 and 2^k
    (500,), (1, 500, 2),
])
def test_packed_vectors_order_and_fit_like_tuples(n):
    """Int order of packed vectors is tuple order, the guard test is
    componentwise <=, and the guarded difference is the packed difference:
    over the whole box when it is small, else on 60 seeded vectors."""
    w, guard = _packing(n)
    assert w == max(n).bit_length() + 1
    box = list(boxed_vectors(n))
    assert _packed_box(n, w) == [_pack(v, w) for v in box]
    if len(box) > 400:
        rng = random.Random(str(n))
        box = [tuple(rng.randint(0, k) for k in n) for _ in range(60)] + [n, (0,) * len(n)]
    for g in box:
        pg = _pack(g, w)
        for r in box:
            pr = _pack(r, w)
            assert (pg < pr) == (g < r) and (pg == pr) == (g == r)
            d = (pr | guard) - pg
            fits = all(x <= y for x, y in zip(g, r))
            assert (d & guard == guard) == fits, (g, r)
            if fits:
                assert d ^ guard == _pack(tuple(y - x for x, y in zip(g, r)), w)


def test_decompositions_warns_on_non_root():
    q = quiver_from_config(CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1)))
    with pytest.warns(UserWarning):
        decompositions(q, (2, 0))


def test_decompositions_refuses_a_negative_or_zero_vector(affine_a1):
    # (-1, 2) gave [], where bounded_roots refuses it; (0, 0) gave one empty
    # Decomposition whose .total raised IndexError
    q = quiver_from_config(affine_a1)
    for n, message in (((-1, 2), "n must be non-negative"),
                       ((0, 0), "n must have a nonzero entry, got (0, 0)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            decompositions(q, n)


def test_cb_simple_exists(elliptic_pair, affine_a1, affine_a1_22):
    qe = quiver_from_config(elliptic_pair)
    qa = quiver_from_config(affine_a1)
    assert cb_simple_exists(qe, (1, 1)).exists
    assert cb_simple_exists(qa, (1, 1)).exists
    verdict = cb_simple_exists(qa, (2, 2))
    assert not verdict.exists and verdict.is_root
    assert verdict.violation == ((1, 1), (1, 1))
    not_root = cb_simple_exists(qa, (2, 0))
    assert not not_root.exists and not not_root.is_root


def test_cb_simple_exists_matches_decomposition_oracle():
    # a simple representation exists iff n is a root and every nontrivial
    # decomposition sum k * beta = n has sum k * p(beta) < p(n); checked at
    # n, and at every root beta <= n through the configuration's one table
    rng = random.Random(211)
    failures = 0
    for _ in range(40):
        cfg = random_config(rng, s_max=3)
        q = quiver_from_config(cfg)
        model = LocalModel(cfg)
        cases = [(cfg.mult, cb_simple_exists(q, cfg.mult))] + [
            (beta, model.simple_exists(beta)) for beta in model.roots_upto
        ]
        for n, verdict in cases:
            pn = p_of(q, n)
            is_root = is_positive_root(q, n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                decs = decompositions(q, n)
            oracle = is_root and all(
                sum(k * p_of(q, beta) for k, beta in dec.parts) < pn
                for dec in decs
                if not dec.is_trivial(n)
            )
            assert verdict.exists == oracle and verdict.is_root == is_root, n
            if is_root and not verdict.exists:
                failures += 1
                viol = verdict.violation
                assert len(viol) >= 2 and all(is_positive_root(q, b) for b in viol)
                assert tuple(map(sum, zip(*viol))) == n
                assert sum(p_of(q, b) for b in viol) >= pn
    assert failures > 0


def test_simple_table_matches_the_per_root_dynamic_program():
    # the shared table keeps each root's verdict and its violating sum: the
    # same maximum, with the same tie-break, as a program run at that root
    rng = random.Random(57)
    checked = violated = 0
    for _ in range(30):
        cfg = random_config(rng, s_min=2, s_max=4, mult_max=3)
        q = quiver_from_config(cfg)
        model = LocalModel(cfg)
        for beta in model.roots_upto:
            verdict = model.simple_exists(beta)
            assert verdict == reference_simple_exists(q, beta), beta
            checked += 1
            violated += verdict.violation is not None
        assert cb_simple_exists(q, cfg.mult) == reference_simple_exists(q, cfg.mult)
    assert checked > 1000 and violated > 50


def test_bounded_roots_result_is_not_shared(affine_a1):
    q = quiver_from_config(affine_a1)
    roots = bounded_roots(q, (2, 2))
    roots[0] = (7, 7)
    roots.append((9, 9))
    assert bounded_roots(q, (2, 2)) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    assert not cb_simple_exists(q, (2, 2)).exists
    walls = quiver_walls(q, [2, 2])
    expected = list(walls)
    walls[0] = None
    walls.append(None)
    assert quiver_walls(q, (2, 2)) == expected


def test_mu_zero_expected_dim(elliptic_pair, affine_a1, one_loop, ogrady):
    qa = quiver_from_config(affine_a1)
    qe = quiver_from_config(elliptic_pair)
    ql = quiver_from_config(one_loop)
    qo = quiver_from_config(ogrady)
    assert mu_zero_expected_dim(qa, (1, 1)) == 3
    assert mu_zero_expected_dim(qe, (1, 1)) == 7
    assert mu_zero_expected_dim(ql, (1,)) == 2
    assert mu_zero_expected_dim(qo, (2,)) == 13
    # complete-intersection identity: dim Rep - (n.n - 1) = 2p + n.n - 1
    for q, n in ((qa, (1, 1)), (qe, (1, 1)), (qo, (2,)), (ql, (1,))):
        nn = sum(x * x for x in n)
        assert rep_space_dim(q, n) - (nn - 1) == mu_zero_expected_dim(q, n)


def test_square_identity_random():
    rng = random.Random(41)
    for _ in range(30):
        cfg = random_config(rng)
        q = quiver_from_config(cfg)
        for beta in boxed_vectors(cfg.mult):
            v = MukaiVector(0, beta, sum(b * c for b, c in zip(beta, cfg.chi)))
            assert mukai_square(v, cfg) == d_form(q, beta)
            assert mukai_square(v, cfg) + 2 == 2 * p_of(q, beta)


def test_dot_output(elliptic_pair):
    dot = quiver_to_dot(quiver_from_config(elliptic_pair))
    assert "0:1 loops" in dot and "1:1 loops" in dot
    assert 'v0 -- v1 [label="2"]' in dot
    assert "schema_version=1" in dot

