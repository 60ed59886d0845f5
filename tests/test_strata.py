import contextlib
import io
import json
import random
import re
import warnings

import pytest

from quiverk3 import (
    MathAssertionError,
    NonPrimitivityWarning,
    decompositions,
    quiver_from_config,
    singular_model_summary,
    strata_report,
    vector_of_beta,
)
from quiverk3 import strata as strata_module
from quiverk3.cli import EXIT_ASSERTION, dispatch
from conftest import random_config
from helpers import config_document


def test_strata_elliptic(elliptic_pair):
    records = strata_report(elliptic_pair)
    assert [r.dim for r in records] == [6, 4]
    assert records[0].is_open_stratum and not records[1].is_open_stratum
    assert records[0].ambient_dim == 6
    two_part = records[1]
    assert two_part.wall_normal == (0, 1)
    assert all(p.is_root for p in two_part.parts)
    assert all(p.simple_exists for p in two_part.parts)
    assert [p.mukai.euler for p in two_part.parts] == [1, 1]


def test_strata_affine(affine_a1):
    records = strata_report(affine_a1)
    assert [r.dim for r in records] == [2, 0]


def test_strata_ogrady(ogrady):
    records = strata_report(ogrady)
    assert [r.dim for r in records] == [10, 4]
    deep = records[1]
    assert deep.decomposition.parts == ((2, (1,)),)
    assert deep.parts[0].p == 2


def test_strata_neither_warn_nor_silence_warnings(ogrady):
    """O'Grady's part (2,) has gcd(2, chi) = 2, so ``vector_of_beta`` warns
    on it; the strata build its Mukai vector directly, with no warning to
    silence."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = {p.beta: p.mukai for r in strata_report(ogrady) for p in r.parts}
    assert set(parts) == {(1,), (2,)}
    with pytest.warns(NonPrimitivityWarning, match="gcd 2"):
        assert vector_of_beta(ogrady, (2,)) == parts[(2,)]
    assert vector_of_beta(ogrady, (1,)) == parts[(1,)]


def test_strata_dims_decrease_when_simple_exists():
    rng = random.Random(97)
    checked = 0
    for _ in range(12):
        cfg = random_config(rng, s_max=3, mult_max=2, gram_bound=4)
        q = quiver_from_config(cfg)
        from quiverk3 import cb_simple_exists

        records = strata_report(cfg)
        if not records:
            continue
        if cb_simple_exists(q, cfg.mult).exists:
            open_dims = [r.dim for r in records if r.is_open_stratum]
            rest = [r.dim for r in records if not r.is_open_stratum]
            assert open_dims and all(d < open_dims[0] for d in rest)
            checked += 1
    assert checked > 0


def test_two_part_strata_have_walls():
    rng = random.Random(101)
    for _ in range(10):
        cfg = random_config(rng, s_min=2, s_max=3, mult_max=2, gram_bound=4)
        for r in strata_report(cfg):
            if len(r.decomposition.parts) == 2 and all(
                k == 1 for k, _ in r.decomposition.parts
            ):
                assert r.wall_normal is not None


def test_summary_elliptic(elliptic_pair):
    s = singular_model_summary(elliptic_pair)
    assert s.sheaf_side_dim == 6
    assert s.mu_zero_dim == 7
    assert s.quiver_wall_count == s.ample_wall_count == 1
    assert s.chamber_count == 2
    assert len(s.strata) == 2
    assert s.simple.exists
    assert s.primitivity_gcd == 1


def test_summary_affine(affine_a1):
    s = singular_model_summary(affine_a1)
    # 3-dimensional mu^-1(0) over the 2-dimensional sheaf-side model
    assert s.mu_zero_dim == 3
    assert s.sheaf_side_dim == 2
    assert s.chamber_count == 2


def test_summary_one_vertex(ogrady):
    s = singular_model_summary(ogrady)
    assert s.chamber_count is None
    assert any("one-vertex" in note for note in s.notes)
    assert s.primitivity_gcd == 2
    assert any("non-primitive" in note for note in s.notes)


def test_summary_wall_consistency_random():
    rng = random.Random(103)
    for _ in range(8):
        cfg = random_config(rng, s_min=2, s_max=3, mult_max=2, gram_bound=4)
        s = singular_model_summary(cfg)
        assert s.quiver_wall_count == s.ample_wall_count


def _assert_strata_assertion(cfg, match, tmp_path, capsys):
    """strata_report raises ``MathAssertionError`` matching ``match``, and
    the CLI's ``strata`` exits 4 naming it."""
    with pytest.raises(MathAssertionError, match=re.escape(match)):
        strata_report(cfg)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config_document(cfg)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["strata", str(cpath), "--json"]) == EXIT_ASSERTION
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("seed, count", [(9, 212), (11, 269)])
def test_strata_heavy_draws_keep_their_decomposition_counts(seed, count):
    # the strata-heavy cases of tools/report_digests.py, mult (3, 4, 1) and
    # (2, 2, 4): reports of 0.36-0.52 MB that repeat each root's stratum part
    cfg = random_config(random.Random(seed), s_min=3, s_max=3, mult_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert len(decompositions(quiver_from_config(cfg), cfg.mult)) == count


def test_lattice_and_quiver_out_of_sync_is_an_assertion(
        elliptic_pair, monkeypatch, tmp_path, capsys):
    """v(beta)^2 = d(beta) holds part by part by construction; a Mukai
    square off by one breaks it (exit 4)."""
    square = strata_module.mukai_square
    monkeypatch.setattr(strata_module, "mukai_square", lambda v, cfg: square(v, cfg) + 1)
    _assert_strata_assertion(elliptic_pair, "v(beta)^2 != d(beta)", tmp_path, capsys)


def test_stratum_past_the_ambient_dimension_is_an_assertion(
        elliptic_pair, monkeypatch, tmp_path, capsys):
    """Where simple representations of dimension n exist, no stratum but
    the open one reaches 2p(n); a p inflated for every part but n puts the
    two-part stratum of the elliptic pair past it (exit 4)."""
    n = elliptic_pair.mult
    p_of = strata_module.p_of
    monkeypatch.setattr(strata_module, "p_of",
                        lambda q, beta: p_of(q, beta) + (tuple(beta) != n))
    _assert_strata_assertion(elliptic_pair, "exceeds ambient", tmp_path, capsys)
