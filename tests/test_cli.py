import json
from fractions import Fraction

import pytest

from quiverk3 import Representation, quiver_from_config, random_representation
from quiverk3.cli import (
    EXIT_ASSERTION,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    dispatch,
    parse_config_document,
    parse_rational,
    rep_from_dict,
    rep_to_dict,
)
from quiverk3.errors import InvariantError, SchemaError

ELLIPTIC_DOC = {
    "curves": [
        {"name": "E1", "chi": 1, "h0deg": 1},
        {"name": "E2", "chi": 1, "h0deg": 1},
    ],
    "gram": [[0, 2], [2, 0]],
    "mult": [1, 1],
    "polarizations": {"H": [1, 2], "Hs": ["1/2", "3/2"]},
    "options": {"ell": 5, "seed": 0},
}

AFFINE_DOC = {
    "curves": [
        {"name": "C1", "chi": 1, "h0deg": 1},
        {"name": "C2", "chi": 1, "h0deg": 1},
    ],
    "gram": [[-2, 2], [2, -2]],
    "mult": [1, 1],
    "polarizations": {"H": [1, 2]},
}

OGRADY_DOC = {
    "curves": [{"name": "C", "chi": 1, "h0deg": 1}],
    "gram": [[2]],
    "mult": [2],
    "polarizations": {"H": [1]},
}


@pytest.fixture
def elliptic_path(tmp_path):
    p = tmp_path / "elliptic.json"
    p.write_text(json.dumps(ELLIPTIC_DOC))
    return str(p)


@pytest.fixture
def affine_path(tmp_path):
    p = tmp_path / "affine.json"
    p.write_text(json.dumps(AFFINE_DOC))
    return str(p)


def test_parse_rational():
    assert parse_rational(3) == 3
    assert parse_rational("2/5") == Fraction(2, 5)
    with pytest.raises(SchemaError):
        parse_rational(True)
    with pytest.raises(SchemaError):
        parse_rational("x/y")
    with pytest.raises(SchemaError):
        parse_rational(1.5)


def test_parse_config_document():
    cfg, pols, options, names = parse_config_document(ELLIPTIC_DOC)
    assert cfg.s == 2 and cfg.mult == (1, 1)
    assert pols["Hs"].a == (Fraction(1, 2), Fraction(3, 2))
    assert options["ell"] == 5
    assert names == ["E1", "E2"]


def test_parse_config_schema_errors():
    with pytest.raises(SchemaError):
        parse_config_document([])
    with pytest.raises(SchemaError):
        parse_config_document({"curves": [], "gram": [], "mult": []})
    bad = json.loads(json.dumps(ELLIPTIC_DOC))
    del bad["gram"]
    with pytest.raises(SchemaError):
        parse_config_document(bad)
    bad = json.loads(json.dumps(ELLIPTIC_DOC))
    bad["gram"] = [[0, 2]]
    with pytest.raises(SchemaError):
        parse_config_document(bad)
    bad = json.loads(json.dumps(ELLIPTIC_DOC))
    bad["polarizations"] = {"H": [1]}
    with pytest.raises(SchemaError):
        parse_config_document(bad)


def test_parse_config_invariant_error():
    bad = json.loads(json.dumps(ELLIPTIC_DOC))
    bad["curves"][1]["chi"] = 2
    with pytest.raises(InvariantError) as e:
        parse_config_document(bad)
    assert e.value.invariant == "equal-slope"


def test_exit_codes(tmp_path, elliptic_path):
    assert dispatch(["summary", elliptic_path]) == EXIT_OK

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"curves": "nope"')
    assert dispatch(["summary", str(bad_json)]) == EXIT_SCHEMA

    bad_slope = json.loads(json.dumps(ELLIPTIC_DOC))
    bad_slope["curves"][1]["chi"] = 2
    p = tmp_path / "badslope.json"
    p.write_text(json.dumps(bad_slope))
    assert dispatch(["summary", str(p)]) == EXIT_INVARIANT

    bad_diag = json.loads(json.dumps(ELLIPTIC_DOC))
    bad_diag["gram"] = [[1, 2], [2, 0]]
    p2 = tmp_path / "baddiag.json"
    p2.write_text(json.dumps(bad_diag))
    assert dispatch(["summary", str(p2)]) == EXIT_INVARIANT

    missing = tmp_path / "missing.json"
    assert dispatch(["summary", str(missing)]) == EXIT_SCHEMA


def test_character_command(elliptic_path, capsys):
    assert dispatch(["character", elliptic_path, "--pol", "H", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == [-1, 1]
    assert payload["det_weights"] == [6, 11]
    assert payload["on_slice"] is False
    assert dispatch(["character", elliptic_path, "--pol", "Hs", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == [-1, 1]
    assert payload["xi"] == ["-1/2", "1/2"]


def test_character_unknown_pol(elliptic_path):
    assert dispatch(["character", elliptic_path, "--pol", "Z"]) == EXIT_SCHEMA


def test_chambers_command(affine_path, capsys):
    assert dispatch(["chambers", affine_path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_walls_one_vertex(tmp_path, capsys):
    p = tmp_path / "og.json"
    p.write_text(json.dumps(OGRADY_DOC))
    assert dispatch(["walls", str(p), "--side", "both", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["quiver_walls"] == [] and payload["ample_walls"] == []
    assert payload["counts_match"] is True
    assert dispatch(["chambers", str(p), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] is None and "one-vertex" in payload["note"]


def test_walls_global_scan(elliptic_path, capsys):
    assert (
        dispatch(["walls", elliptic_path, "--side", "ample", "--chi-bound", "2", "--json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert all(abs(w["chi_gamma"]) <= 2 for w in payload["global_scan"])


def test_roots_command(affine_path, capsys):
    assert dispatch(["roots", affine_path, "--bound", "2,2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [1, 1] in payload["roots"]
    assert dispatch(["roots", affine_path, "--bound", "1,2,3"]) == EXIT_SCHEMA


def test_quiver_command(elliptic_path, capsys):
    assert dispatch(["quiver", elliptic_path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["loops"] == [1, 1]
    assert payload["cartan"] == [[0, -2], [-2, 0]]
    assert "v0 -- v1" in payload["dot"]


def test_json_reports_deterministic(elliptic_path, capsys):
    outs = []
    for _ in range(2):
        assert dispatch(["summary", elliptic_path, "--json"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        assert (
            dispatch(["moment-verify", elliptic_path, "--trials", "2", "--seed", "5", "--json"])
            == EXIT_OK
        )
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_reports_reparse(elliptic_path, affine_path, capsys):
    for argv in (
        ["summary", elliptic_path, "--json"],
        ["correspondence", affine_path, "--json"],
        ["strata", elliptic_path, "--json"],
        ["cb-check", affine_path, "--json"],
        ["walls", elliptic_path, "--side", "both", "--json"],
    ):
        assert dispatch(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["command"] == argv[0]


def test_stdin_config(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(AFFINE_DOC)))
    assert dispatch(["chambers", "-", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_qrl_seed_env(elliptic_path, capsys, monkeypatch):
    monkeypatch.setenv("QRL_SEED", "42")
    assert dispatch(["moment-verify", elliptic_path, "--trials", "1", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 42
    # explicit flag wins over the environment
    assert (
        dispatch(["moment-verify", elliptic_path, "--trials", "1", "--seed", "7", "--json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7


def test_rep_roundtrip_exact(affine_a1):
    q = quiver_from_config(affine_a1)
    rep = random_representation(q, (2, 1), seed=19)
    doc = json.loads(json.dumps(rep_to_dict(rep)))
    back = rep_from_dict(q, doc)
    assert back == rep
    # byte-identical re-serialization
    assert json.dumps(rep_to_dict(back)) == json.dumps(rep_to_dict(rep))


def test_rep_roundtrip_float(affine_a1):
    import numpy as np

    q = quiver_from_config(affine_a1)
    rep = random_representation(q, (1, 1), seed=19, mode="float")
    doc = json.loads(json.dumps(rep_to_dict(rep)))
    back = rep_from_dict(q, doc)
    for (x1, y1), (x2, y2) in zip(rep.mats, back.mats):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_stability_command(tmp_path, affine_path, capsys, affine_a1):
    q = quiver_from_config(affine_a1)
    F = Fraction
    mats = (
        (((F(1),),), ((F(0),),)),
        (((F(0),),), ((F(0),),)),
    )
    rep = Representation(q, (1, 1), "exact", mats)
    rp = tmp_path / "rep.json"
    rp.write_text(json.dumps(rep_to_dict(rep)))
    assert (
        dispatch(
            ["stability", affine_path, "--rep", str(rp), "--theta=-1,1", "--json"]
        )
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "CertifiedUnstable"
    assert payload["verdict"]["beta"] == [0, 1]
    assert payload["verdict"]["slope"] == 1


def test_moment_verify_command(affine_path, capsys):
    assert (
        dispatch(["moment-verify", affine_path, "--trials", "3", "--seed", "2", "--json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    assert rep["expected_rank"] == 1 and rep["expected_dim"] == 3
    assert rep["matching_trials"] == 3


EXACT_REP = {
    "schema_version": 1,
    "mode": "exact",
    "n": [1, 1],
    "matrices": [{"x": [[1]], "y": [[0]]}, {"x": [[0]], "y": [[0]]}],
}
FLOAT_EDGE = {"x": [[[0.0, 0.0]]], "y": [[[0.0, 0.0]]]}
STABILITY = ["stability", "--theta=-1,1"]


@pytest.mark.parametrize(
    "config_edit, rep_edit, argv, env, diagnostic",
    [
        pytest.param(
            {"polarizations": ["H"]}, None, ["summary"], {},
            "polarizations must be an object", id="polarizations-list",
        ),
        pytest.param(
            {"options": {"seed": "x"}}, None, ["summary"], {},
            "options.seed must be an integer", id="options-seed",
        ),
        pytest.param(
            {}, None, ["moment-verify", "--trials", "1"], {"QRL_SEED": "x"},
            "QRL_SEED must be an integer", id="env-seed",
        ),
        pytest.param(
            {"options": {"budget": {"probes": "4"}}}, None, ["summary"], {},
            "options.budget.probes must be an integer", id="budget-probes",
        ),
        pytest.param(
            {"options": {"budget": {"tol": "1e-8"}}}, None, ["summary"], {},
            "options.budget.tol must be a number", id="budget-tol",
        ),
        pytest.param(
            {}, {"matrices": [[1], EXACT_REP["matrices"][1]]}, STABILITY, {},
            "matrices[0] must be an object", id="matrix-entry-list",
        ),
        pytest.param(
            {}, {"matrices": [{"x": [[1]]}, EXACT_REP["matrices"][1]]}, STABILITY, {},
            "matrices[0] must be an object with 'x' and 'y'", id="matrix-entry-no-y",
        ),
        pytest.param(
            {}, {"n": [1]}, STABILITY, {},
            "n must be a list of 2 non-negative integers", id="rep-n-length",
        ),
        pytest.param(
            {}, {"n": [1, -1]}, STABILITY, {},
            "n must be a list of 2 non-negative integers", id="rep-n-negative",
        ),
        pytest.param(
            {}, {"n": [1, "1"]}, STABILITY, {},
            "n must be a list of 2 non-negative integers", id="rep-n-string",
        ),
        pytest.param(
            {}, {"matrices": [{"x": [[1, 0]], "y": [[0]]}, EXACT_REP["matrices"][1]]},
            STABILITY, {}, "matrices[0].x must be a 1 x 1 matrix", id="exact-shape",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[1.0]]}, FLOAT_EDGE]},
            STABILITY, {}, "[re, im] number pairs", id="float-entry-scalar",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[[1.0, "i"]]]}, FLOAT_EDGE]},
            STABILITY, {}, "[re, im] number pairs", id="float-entry-string",
        ),
        pytest.param(
            {}, None, ["stability", "--theta=1,1"], {},
            "theta . n != 0", id="theta-not-orthogonal",
        ),
    ],
)
def test_malformed_input_exits_2(
    tmp_path, capsys, monkeypatch, config_edit, rep_edit, argv, env, diagnostic
):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**AFFINE_DOC, **config_edit}))
    tail = argv[1:]
    if argv[0] == "stability":
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({**EXACT_REP, **(rep_edit or {})}))
        tail = ["--rep", str(rep)] + tail
    assert dispatch([argv[0], str(config)] + tail) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and diagnostic in err


@pytest.mark.parametrize(
    "argv", [["summary"], ["walls", "--side", "both"], ["correspondence"]]
)
def test_wall_disagreement_exits_4(elliptic_path, capsys, monkeypatch, argv):
    from quiverk3 import walls

    ample_walls = walls.ample_walls_through_h0
    monkeypatch.setattr(walls, "ample_walls_through_h0", lambda cfg: ample_walls(cfg)[1:])
    assert dispatch([argv[0], elliptic_path, "--json"] + argv[1:]) == EXIT_ASSERTION
    err = capsys.readouterr().err
    assert "quiver-side and ample-side wall systems disagree" in err
