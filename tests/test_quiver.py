import random
import warnings
from types import SimpleNamespace

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
    rep_space_dim,
)
from quiverk3.quiver import Quiver
from conftest import random_config


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
    bad = SimpleNamespace(s=1, gram=((3,),))
    with pytest.raises(InvariantError):
        quiver_from_config(bad)
    bad = SimpleNamespace(s=1, gram=((-4,),))
    with pytest.raises(InvariantError):
        quiver_from_config(bad)


def test_orientation_counts(elliptic_pair):
    q = quiver_from_config(elliptic_pair)
    loops = [e for e in q.orientation if e[0] == e[1]]
    edges = [e for e in q.orientation if e[0] != e[1]]
    assert len(loops) == 2 and len(edges) == 2
    assert all(s < t for s, t, _ in edges)


def test_d_form_examples(elliptic_pair, affine_a1):
    qe = quiver_from_config(elliptic_pair)
    qa = quiver_from_config(affine_a1)
    assert d_form(qe, (1, 1)) == 4
    assert d_form(qa, (1, 1)) == 0
    assert d_form(qa, (0, 0)) == 0
    assert p_of(qe, (1, 1)) == 3
    assert p_of(qa, (1, 0)) == 0
    assert p_of(qa, (0, 0)) == 1


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


def test_decompositions_warns_on_non_root():
    q = quiver_from_config(CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1)))
    with pytest.warns(UserWarning):
        decompositions(q, (2, 0))


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
    # decomposition sum k * beta = n has sum k * p(beta) < p(n)
    rng = random.Random(211)
    failures = 0
    for _ in range(40):
        cfg = random_config(rng, s_max=3)
        q = quiver_from_config(cfg)
        n = cfg.mult
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
        verdict = cb_simple_exists(q, n)
        assert verdict.exists == oracle and verdict.is_root == is_root
        if is_root and not verdict.exists:
            failures += 1
            viol = verdict.violation
            assert len(viol) >= 2 and all(is_positive_root(q, b) for b in viol)
            assert tuple(map(sum, zip(*viol))) == n
            assert sum(p_of(q, b) for b in viol) >= pn
    assert failures > 0


def test_bounded_roots_result_is_not_shared(affine_a1):
    q = quiver_from_config(affine_a1)
    roots = bounded_roots(q, (2, 2))
    roots[0] = (7, 7)
    roots.append((9, 9))
    assert bounded_roots(q, (2, 2)) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    assert not cb_simple_exists(q, (2, 2)).exists


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
        for beta in _boxed(cfg.mult):
            v = MukaiVector(0, beta, sum(b * c for b, c in zip(beta, cfg.chi)))
            assert mukai_square(v, cfg) == d_form(q, beta)
            assert mukai_square(v, cfg) + 2 == 2 * p_of(q, beta)


def _boxed(n):
    from quiverk3.quiver import boxed_vectors

    return boxed_vectors(n)


def test_dot_output(elliptic_pair):
    dot = quiver_to_dot(quiver_from_config(elliptic_pair))
    assert "0:1 loops" in dot and "1:1 loops" in dot
    assert 'v0 -- v1 [label="2"]' in dot
    assert "schema_version=1" in dot
