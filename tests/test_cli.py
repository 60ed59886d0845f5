import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import quiverk3
from quiverk3 import Representation, cli, quiver_from_config, random_representation, reps
from quiverk3.cli import (
    EXIT_ASSERTION,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_SCHEMA,
    build_parser,
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


def test_console_script_exits_with_the_dispatch_code(tmp_path, elliptic_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"curves": "nope"}')
    for path, code in ((elliptic_path, EXIT_OK), (str(bad), EXIT_SCHEMA)):
        monkeypatch.setattr(sys, "argv", ["quiverk3", "quiver", path, "--json"])
        with pytest.raises(SystemExit) as e:
            cli.main()
        assert e.value.code == code
    out, err = capsys.readouterr()
    assert json.loads(out)["command"] == "quiver"
    assert err.startswith("schema error: ")


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


def test_correspondence_and_strata_text(elliptic_path, capsys):
    """The text reports, in process: the report ladder runs them only in a
    subprocess."""
    assert dispatch(["correspondence", elliptic_path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "walls checked: 1 (counts match: True)",
        "  beta [0, 1]: 4 samples, on image wall: True",
        "adjacent chambers probed: 2",
        "  signature [1] generic: True",
        "  signature [-1] generic: True",
    ]
    assert dispatch(["strata", elliptic_path]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "strata: 2",
        "  dim 6/6 (open) parts [(1, [1, 1])]",
        "  dim 4/6 parts [(1, [0, 1]), (1, [1, 0])]",
    ]


def test_an_asymmetric_gram_exits_3(tmp_path, capsys):
    path = tmp_path / "asymmetric.json"
    path.write_text(json.dumps({**ELLIPTIC_DOC, "gram": [[0, 1], [2, 0]]}))
    assert dispatch(["summary", str(path)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation [gram-symmetric]: gram not symmetric at (0,1)\n")


def test_cb_check_text_when_n_is_not_a_root(tmp_path, capsys):
    # two disjoint (-2)-curves: n = (1, 1) has disconnected support
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps({**AFFINE_DOC, "gram": [[-2, 0], [0, -2]]}))
    assert dispatch(["cb-check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "simple representation in mu^-1(0) for n=[1, 1]: False",
        "  n is not a positive root",
    ]


def test_walls_one_vertex(tmp_path, capsys):
    p = tmp_path / "og.json"
    p.write_text(json.dumps(OGRADY_DOC))
    assert dispatch(["walls", str(p), "--side", "both", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["quiver_walls"] == [] and payload["ample_walls"] == []
    assert payload["counts_match"] is True
    assert dispatch(["chambers", str(p), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] is None
    assert payload["note"] == "no wall structure; non-primitive one-vertex case"


def test_a_value_error_of_the_chamber_stage_is_not_a_note(affine_path, monkeypatch):
    """Only a one-vertex configuration reports chambers as a note; any other
    ``ValueError`` of the chamber stage is not turned into one."""
    from quiverk3 import walls

    def broken(n, walls):
        raise ValueError("not a one-vertex case")

    monkeypatch.setattr(walls, "_chambers", broken)
    for command in ("chambers", "summary", "correspondence"):
        with pytest.raises(ValueError, match="not a one-vertex case"):
            dispatch([command, affine_path, "--json"])


def test_walls_global_scan(elliptic_path, capsys):
    """``walls --global`` adds the v-walls that meet the degree cone, on any
    side, and only with the flag."""
    for side in ("quiver", "ample", "both"):
        assert dispatch(["walls", elliptic_path, "--side", side, "--global", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["global_scan"] == [
            {"beta": [0, 1], "chi_gamma": 1, "coeffs": [-1, 1], "through_h0": True}
        ]
        assert dispatch(["walls", elliptic_path, "--side", side, "--json"]) == EXIT_OK
        assert "global_scan" not in json.loads(capsys.readouterr().out)
    assert dispatch(["walls", elliptic_path, "--global"]) == EXIT_OK
    assert "v-walls meeting the degree cone: 1" in capsys.readouterr().out


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


def test_qrl_seed_env(tmp_path, capsys, monkeypatch):
    """The seed is --seed, else options.seed, else 0; a QRL_SEED in the
    environment changes nothing."""
    monkeypatch.setenv("QRL_SEED", "42")
    config = tmp_path / "config.json"
    for options, flags, seed in (
        ({}, [], 0),
        ({"seed": 3}, [], 3),
        ({"seed": 3}, ["--seed", "7"], 7),
        ({}, ["--seed", "7"], 7),
    ):
        config.write_text(json.dumps({**AFFINE_DOC, "options": options}))
        argv = ["moment-verify", str(config), "--trials", "1", "--json", *flags]
        assert dispatch(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == seed, (options, flags)


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


def test_shared_parser_keeps_no_flags_between_calls(
    tmp_path, affine_path, capsys, affine_a1, monkeypatch
):
    """The parser is built once per process; a flag given to one call must
    not become the default of the next."""
    assert build_parser() is build_parser()
    rp = tmp_path / "rep.json"
    rp.write_text(json.dumps(rep_to_dict(random_representation(
        quiver_from_config(affine_a1), (1, 1), seed=3))))
    budgets = []
    real = reps.check_stability

    def recording(rep, theta, budget):
        budgets.append(budget)
        return real(rep, theta, budget)

    # _cmd_stability reads check_stability from reps when it runs
    monkeypatch.setattr(reps, "check_stability", recording)
    base = ["stability", affine_path, "--rep", str(rp), "--theta=-1,1", "--json"]
    assert dispatch(base + ["--probes", "2", "--restarts", "1", "--seed", "5"]) == EXIT_OK
    assert dispatch(base) == EXIT_OK
    capsys.readouterr()
    first, second = budgets
    assert (first.probes, first.restarts, first.seed) == (2, 1, 5)
    assert (second.probes, second.restarts, second.iters, second.tol, second.seed) == (
        4, 6, 200, 1e-8, 0)


def test_moment_verify_command(affine_path, capsys):
    assert (
        dispatch(["moment-verify", affine_path, "--trials", "3", "--seed", "2", "--json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    rep = payload["report"]
    assert rep["expected_rank"] == 1 and rep["expected_dim"] == 3
    assert rep["matching_trials"] == 3



def test_moment_verify_lists_solver_failures(tmp_path, capsys):
    path = tmp_path / "ogrady.json"
    path.write_text(json.dumps(OGRADY_DOC))
    argv = ["moment-verify", str(path), "--tol", "1e-300", "--trials", "1", "--json"]
    assert dispatch(argv) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["trials"] == [] and rep["matching_trials"] == 0
    [failure] = rep["failures"]
    assert failure.startswith("seed 0: moment-map solver did not reach tol=1e-300")


def test_moment_verify_text_lists_solver_failures(tmp_path, capsys):
    """Text mode counts a failed trial in the denominator and prints it."""
    path = tmp_path / "ogrady.json"
    path.write_text(json.dumps(OGRADY_DOC))
    assert dispatch(["moment-verify", str(path), "--tol", "1e-300", "--trials", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "matching trials: 0/1"
    assert lines[2].startswith("  seed 0: moment-map solver did not reach tol=1e-300")
    assert len(lines) == 3


EXACT_REP = {
    "schema_version": 1,
    "mode": "exact",
    "n": [1, 1],
    "matrices": [{"x": [[1]], "y": [[0]]}, {"x": [[0]], "y": [[0]]}],
}
FLOAT_EDGE = {"x": [[[0.0, 0.0]]], "y": [[[0.0, 0.0]]]}
STABILITY = ["stability", "--theta=-1,1"]
BUDGET_REFUSAL = ("options.budget is not read: "
                  "pass --probes, --restarts, --iters and --tol to stability")
# written into a document as a 5000-digit integer, past the 4300 digits
# that Python converts from a string by default
HUGE = "<a 5000-digit integer>"


def _document(doc: dict) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE), "7" * 5000)


@pytest.mark.parametrize(
    "config_edit, rep_edit, argv, diagnostic",
    [
        pytest.param(
            {"polarizations": ["H"]}, None, ["summary"],
            "polarizations must be an object", id="polarizations-list",
        ),
        pytest.param(
            {"options": {"seed": "x"}}, None, ["summary"],
            "options.seed must be an integer", id="options-seed",
        ),
        pytest.param(
            {"options": {"seed": -1}}, None, ["moment-verify", "--trials", "1"],
            "seed must be a non-negative integer, got -1", id="options-seed-negative",
        ),
        pytest.param(
            {}, None, ["moment-verify", "--trials", "1", "--seed", "-2"],
            "seed must be a non-negative integer, got -2", id="flag-seed-negative",
        ),
        # a budget in the options is refused, valid or not
        pytest.param(
            {"options": {"budget": {"probes": 4}}}, None, ["summary"],
            BUDGET_REFUSAL, id="budget-probes",
        ),
        pytest.param(
            {"options": {"budget": {"tol": 0}}}, None, STABILITY,
            BUDGET_REFUSAL, id="budget-tol-zero",
        ),
        pytest.param(
            {}, None, STABILITY + ["--restarts", "-1"],
            "restarts must be a non-negative integer, got -1", id="flag-restarts-negative",
        ),
        pytest.param(
            {}, None, STABILITY + ["--iters", "-5"],
            "iters must be a non-negative integer, got -5", id="flag-iters-negative",
        ),
        pytest.param(
            {}, None, STABILITY + ["--probes", "-2"],
            "probes must be a non-negative integer, got -2", id="flag-probes-negative",
        ),
        pytest.param(
            {}, None, STABILITY + ["--tol", "nan"],
            "tol must be a positive finite number, got nan", id="flag-tol-nan",
        ),
        pytest.param(
            {}, {"matrices": [[1], EXACT_REP["matrices"][1]]}, STABILITY,
            "matrices[0] must be an object", id="matrix-entry-list",
        ),
        pytest.param(
            {}, {"matrices": [{"x": [[1]]}, EXACT_REP["matrices"][1]]}, STABILITY,
            "matrices[0] must be an object with 'x' and 'y'", id="matrix-entry-no-y",
        ),
        pytest.param(
            {}, {"n": [1]}, STABILITY,
            "n must be a list of 2 non-negative integers", id="rep-n-length",
        ),
        pytest.param(
            {}, {"n": [1, -1]}, STABILITY,
            "n must be a list of 2 non-negative integers", id="rep-n-negative",
        ),
        pytest.param(
            {}, {"n": [1, "1"]}, STABILITY,
            "n must be a list of 2 non-negative integers", id="rep-n-string",
        ),
        pytest.param(
            {}, {"matrices": [{"x": [[1, 0]], "y": [[0]]}, EXACT_REP["matrices"][1]]},
            STABILITY, "matrices[0].x must be a 1 x 1 matrix", id="exact-shape",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[1.0]]}, FLOAT_EDGE]},
            STABILITY, "[re, im] number pairs", id="float-entry-scalar",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[[1.0, "i"]]]}, FLOAT_EDGE]},
            STABILITY, "[re, im] number pairs", id="float-entry-string",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[[float("nan"), 0.0]]]},
                                               FLOAT_EDGE]},
            STABILITY, "float entries must be finite, got [nan, 0.0]", id="float-entry-nan",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [FLOAT_EDGE, {**FLOAT_EDGE, "y": [[[0.0, -1e999]]]}]},
            STABILITY, "float entries must be finite, got [0.0, -inf]", id="float-entry-inf",
        ),
        pytest.param(
            {}, {"mode": "float", "matrices": [{**FLOAT_EDGE, "x": [[[10**400, 0]]]}, FLOAT_EDGE]},
            STABILITY, f"float entries must be finite, got [{10**400}, 0]",
            id="float-entry-overflow",
        ),
        pytest.param(
            {"mult": [HUGE, 1]}, None, ["summary", "--json"],
            "invalid JSON: Exceeds the limit (4300 digits)", id="config-huge-integer",
        ),
        pytest.param(
            {}, {"matrices": [{"x": [[HUGE]], "y": [[0]]}, EXACT_REP["matrices"][1]]},
            STABILITY, "invalid representation JSON: Exceeds the limit (4300 digits)",
            id="rep-huge-integer",
        ),
        pytest.param(
            {}, None, ["stability", "--theta=1,1"],
            "theta . n != 0", id="theta-not-orthogonal",
        ),
        pytest.param(
            {}, None, ["roots", "--bound=-1,0"],
            "entries must be non-negative", id="roots-bound-negative",
        ),
        pytest.param(
            {}, None, ["moment-verify", "--trials", "-3"],
            "--trials must be a non-negative integer, got -3", id="flag-trials-negative",
        ),
        pytest.param(
            {}, None, ["moment-verify", "--tol", "nan"],
            "--tol must be a positive finite number, got nan", id="flag-residual-tol-nan",
        ),
        pytest.param(
            {}, None, ["moment-verify", "--rank-tol", "-1"],
            "--rank-tol must be a positive finite number, got -1.0", id="flag-rank-tol-negative",
        ),
        pytest.param(
            {}, None, ["correspondence", "--samples", "-2"],
            "--samples must be a non-negative integer, got -2", id="flag-samples-negative",
        ),
        pytest.param(
            {"curves": [1, AFFINE_DOC["curves"][1]]}, None, ["summary"],
            "curves[0] must be an object", id="curve-not-object",
        ),
        pytest.param(
            {"gram": [[-2, 2], [2, "-2"]]}, None, ["summary"],
            "gram entries must be integers", id="gram-entry-string",
        ),
        pytest.param(
            {"mult": [1]}, None, ["summary"],
            "mult must be an integer list matching curves", id="mult-length",
        ),
        pytest.param(
            {"options": [1]}, None, ["summary"],
            "options must be an object", id="options-list",
        ),
        pytest.param(
            {}, [EXACT_REP], STABILITY,
            "representation document must be a JSON object", id="rep-list",
        ),
        pytest.param(
            {}, {"mode": "fuzzy"}, STABILITY,
            "unknown representation mode 'fuzzy'", id="rep-mode-unknown",
        ),
        pytest.param(
            {}, None, ["roots", "--bound", "1,x"],
            "bad dimension vector '1,x': invalid literal for int()", id="roots-bound-string",
        ),
        pytest.param(
            {}, None, ["stability", "--theta=1"],
            "theta needs 2 entries, got 1", id="theta-length",
        ),
        # an error in the configuration comes before one in a flag
        pytest.param(
            {"curves": []}, None, ["moment-verify", "--trials", "-1"],
            "curves list is empty", id="config-before-trials",
        ),
        pytest.param(
            {"curves": []}, None, ["correspondence", "--samples", "-1"],
            "curves list is empty", id="config-before-samples",
        ),
        pytest.param(
            {"curves": []}, None, STABILITY + ["--probes", "-1"],
            "curves list is empty", id="config-before-probes",
        ),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, config_edit, rep_edit, argv, diagnostic):
    config = tmp_path / "config.json"
    config.write_text(_document({**AFFINE_DOC, **config_edit}))
    tail = argv[1:]
    if argv[0] == "stability":
        rep = tmp_path / "rep.json"
        # a list replaces the whole document, a dict edits the exact one
        doc = rep_edit if isinstance(rep_edit, list) else {**EXACT_REP, **(rep_edit or {})}
        rep.write_text(_document(doc))
        tail = ["--rep", str(rep)] + tail
    assert dispatch([argv[0], str(config)] + tail) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and diagnostic in err


def test_bytes_that_are_not_utf8_exit_2(tmp_path, capsys, monkeypatch):
    """A configuration that is not UTF-8, from a file or from a strict
    stdin, is a schema error like a representation file of the same bytes,
    not a traceback."""
    import io

    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"curves": [\xff\xfe]}')
    config = tmp_path / "config.json"
    config.write_text(json.dumps(AFFINE_DOC))
    strict = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", strict)
    for argv, diagnostic in (
        (["summary", str(bad), "--json"], "schema error: invalid JSON: "),
        (["summary", "-", "--json"], "schema error: invalid JSON: "),
        (["stability", str(config), "--rep", str(bad), "--theta=-1,1"],
         "schema error: invalid representation JSON: "),
    ):
        assert dispatch(argv) == EXIT_SCHEMA, argv
        assert capsys.readouterr().err.startswith(diagnostic), argv


def test_no_configuration_state_between_dispatches(tmp_path, capsys):
    # every configuration fact lives in a LocalModel built per call, so one
    # process gives the same bytes for A after B as for A alone
    def summary(doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["summary", str(path), "--json"]) == EXIT_OK
        return capsys.readouterr().out

    a = {**AFFINE_DOC, "mult": [2, 3]}
    first = summary(a)
    assert summary({**AFFINE_DOC, "mult": [3, 2]}) != first
    assert summary(a) == first
    import importlib
    import pkgutil

    import quiverk3

    cached = []
    for info in pkgutil.iter_modules(quiverk3.__path__):
        module = importlib.import_module(f"quiverk3.{info.name}")
        cached += [
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        ]
    # neither depends on a configuration
    assert sorted(cached) == ["cli._layout", "cli.build_parser"]


@pytest.mark.parametrize(
    "argv", [["summary"], ["walls", "--side", "both"], ["correspondence"]]
)
def test_wall_disagreement_exits_4(elliptic_path, capsys, monkeypatch, argv):
    from quiverk3 import walls

    # a LocalModel builds its ample walls from its own roots, not through
    # ample_walls_through_h0
    ample_walls = walls._ample_walls
    monkeypatch.setattr(walls, "_ample_walls", lambda cfg, roots: ample_walls(cfg, roots)[1:])
    assert dispatch([argv[0], elliptic_path, "--json"] + argv[1:]) == EXIT_ASSERTION
    err = capsys.readouterr().err
    assert "quiver-side and ample-side wall systems disagree" in err


@pytest.mark.parametrize("command", ["strata", "summary"])
def test_too_many_decompositions_exit_3(tmp_path, capsys, command):
    # one genus-2 curve of multiplicity 500: n = (500,) has as many
    # decompositions as 500 has partitions, far past the bound
    path = tmp_path / "mult500.json"
    path.write_text(json.dumps({"curves": [{"chi": 1, "h0deg": 1}], "gram": [[2]], "mult": [500]}))
    assert dispatch([command, str(path), "--json"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation [decomposition-count]" in captured.err


def test_root_box_past_the_bound_exits_3(elliptic_path, tmp_path, capsys):
    """A root scan visits every vector of the box 0 <= alpha <= n; past
    ``quiver.MAX_ROOT_BOX`` of them, ``roots --bound`` and every command
    that builds a local model from the configuration's mult stop at once.
    On the elliptic pair every box vector is a root, so 3000 x 3000 would
    list 9 * 10^6 of them. The v-wall list visits the same box, under the
    same bound."""
    from quiverk3 import quiver, walls

    side = int(quiver.MAX_ROOT_BOX ** 0.5)  # the box side * side is the bound itself
    assert side * side == quiver.MAX_ROOT_BOX
    square = f"{side - 1},{side - 1}"
    assert dispatch(["roots", elliptic_path, "--json", "--bound", square]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["roots"]) == quiver.MAX_ROOT_BOX - 2
    for bound in (f"{side - 1},{side}", "3000,3000"):
        assert dispatch(["roots", elliptic_path, "--json", "--bound", bound]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invariant violation [root-box]" in captured.err
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**ELLIPTIC_DOC, "mult": [side - 1, side]}))
    for command in ("summary", "strata", "chambers", "walls", "correspondence", "cb-check"):
        assert dispatch([command, str(path), "--json"]) == EXIT_INVARIANT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invariant violation [root-box]" in captured.err
    cfg = cli.parse_config_document({**ELLIPTIC_DOC, "mult": [side, side]})[0]
    for scan in (lambda: quiver.bounded_roots(quiver_from_config(cfg), (side, side)),
                 lambda: walls.v_walls(cfg)):
        with pytest.raises(InvariantError) as e:
            scan()
        assert e.value.invariant == "root-box"


def test_v_wall_scan_past_the_bound_exits_3(tmp_path, capsys, monkeypatch):
    """The v-walls of the cone take, for each box vector, the integers
    strictly inside an interval of length up to |chi|; past
    ``walls.MAX_V_WALL_SCAN`` such pairs ``walls --global`` stops before it
    builds a wall. With chi = (20000, 20000) the elliptic pair's two proper
    box vectors take 39999 pairs each."""
    from quiverk3 import walls

    def walls_global(chi):
        path = tmp_path / f"chi{chi}.json"
        path.write_text(json.dumps({**ELLIPTIC_DOC, "curves": [
            {"name": "E1", "chi": chi, "h0deg": 1}, {"name": "E2", "chi": chi, "h0deg": 1}]}))
        return dispatch(["walls", str(path), "--json", "--global"])

    started = time.process_time()
    assert walls_global(20000) == EXIT_INVARIANT
    assert time.process_time() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation [v-wall-scan]" in captured.err
    assert "79998 pairs" in captured.err
    monkeypatch.setattr(walls, "MAX_V_WALL_SCAN", 6)  # chi = 4: 0 < chi_Gamma < 4, twice
    assert walls_global(2) == EXIT_OK
    scan = json.loads(capsys.readouterr().out)["global_scan"]
    assert [(w["beta"], w["chi_gamma"]) for w in scan] == [([0, 1], 1), ([0, 1], 2), ([0, 1], 3)]
    monkeypatch.setattr(walls, "MAX_V_WALL_SCAN", 5)
    assert walls_global(2) == EXIT_INVARIANT
    assert "invariant violation [v-wall-scan]" in capsys.readouterr().err
    cfg = parse_config_document({**ELLIPTIC_DOC, "curves": [
        {"chi": 2, "h0deg": 1}, {"chi": 2, "h0deg": 1}]})[0]
    with pytest.raises(InvariantError) as e:
        walls.v_walls(cfg)
    assert e.value.invariant == "v-wall-scan"


def _clique_doc(k: int) -> dict:
    """k genus-1 curves meeting pairwise once, each of multiplicity 1."""
    return {"curves": [{"chi": 1, "h0deg": 1}] * k,
            "gram": [[0 if i == j else 1 for j in range(k)] for i in range(k)], "mult": [1] * k}


def test_chamber_count_past_the_bound_exits_3(tmp_path, capsys, monkeypatch):
    """Chamber enumeration refuses, before its first split, walls whose
    Buck-Zaslavsky bound 2 sum_(i<d) C(m - 1, i) on the chamber count passes
    ``walls.MAX_CHAMBERS``. The k-curve clique's walls are its subset sums:
    63 in dimension 6 at k = 7, 511 in dimension 9 at k = 10. The A3 chain
    has 3 walls in a plane, and their bound 6 is its chamber count."""
    from quiverk3 import enumerate_chambers, walls

    commands = ("summary", "chambers", "correspondence")
    for k, bound in ((7, 14137242), (10, 218302137855193226)):
        path = tmp_path / f"clique{k}.json"
        path.write_text(json.dumps(_clique_doc(k)))
        for command in commands:
            started = time.process_time()
            assert dispatch([command, str(path), "--json"]) == EXIT_INVARIANT
            assert time.process_time() - started < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "invariant violation [chamber-count]" in captured.err
            assert f"up to {bound} chambers" in captured.err
    chain = {"curves": [{"chi": 1, "h0deg": 1}] * 3, "mult": [1, 1, 1],
             "gram": [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    monkeypatch.setattr(walls, "MAX_CHAMBERS", 6)
    for command in commands:
        assert dispatch([command, str(path), "--json"]) == EXIT_OK
        capsys.readouterr()
    assert dispatch(["chambers", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["count"] == 6
    monkeypatch.setattr(walls, "MAX_CHAMBERS", 5)
    for command in commands:
        assert dispatch([command, str(path), "--json"]) == EXIT_INVARIANT
        assert "invariant violation [chamber-count]" in capsys.readouterr().err
    cfg = parse_config_document(chain)[0]
    with pytest.raises(InvariantError) as e:
        enumerate_chambers(quiver_from_config(cfg), cfg.mult)
    assert e.value.invariant == "chamber-count"


def test_wall_samples_past_the_bound_exit_3(elliptic_path, capsys, monkeypatch):
    """``correspondence --samples`` builds walls x samples points; past
    ``walls.MAX_WALL_SAMPLES`` it stops before building one. 10^8 samples
    on the elliptic pair's one wall would need about 20 GB."""
    from quiverk3 import walls

    argv = ["correspondence", elliptic_path, "--json", "--samples"]
    started = time.process_time()
    assert dispatch(argv + [str(10**8)]) == EXIT_INVARIANT
    assert time.process_time() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation [wall-samples]" in captured.err
    monkeypatch.setattr(walls, "MAX_WALL_SAMPLES", 4)
    assert dispatch(argv + ["4"]) == EXIT_OK
    (wall,) = json.loads(capsys.readouterr().out)["report"]["walls"]
    assert wall["sample_count"] == 5  # h0deg and the four
    assert dispatch(argv + ["5"]) == EXIT_INVARIANT
    assert "invariant violation [wall-samples]" in capsys.readouterr().err
    with pytest.raises(InvariantError) as e:
        walls.verify_correspondence(parse_config_document(ELLIPTIC_DOC)[0], samples_per_wall=5)
    assert e.value.invariant == "wall-samples"


def test_stability_searches_past_their_bounds_exit_3(elliptic_path, tmp_path, capsys, monkeypatch):
    """The exact search's join closure stops once it has found more than
    ``reps.MAX_INVARIANT_SPANS`` subspaces: on the elliptic pair's zero
    representation it finds 46 at (2, 2) and 6628 at (4, 4), which took
    55 s unbounded. The float search walks the box 0 <= beta <= n under
    ``quiver.MAX_ROOT_BOX``, and n comes from the representation file: at a
    vertex with no arrow a huge n costs one line of JSON. More than
    ``reps.MAX_RESTARTS`` restarts are refused before a frame is tiled."""

    def stability(rep, theta, *flags, config=elliptic_path):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep if isinstance(rep, dict) else rep_to_dict(rep)))
        return dispatch(["stability", config, "--rep", str(path), f"--theta={theta}", "--json",
                         *flags])

    def refused(invariant):
        captured = capsys.readouterr()
        return captured.out == "" and f"invariant violation [{invariant}]" in captured.err

    q = quiver_from_config(parse_config_document(ELLIPTIC_DOC)[0])
    started = time.process_time()
    assert stability(reps.zero_representation(q, (4, 4)), "-1,1") == EXIT_INVARIANT
    assert time.process_time() - started < 2.0
    assert refused("invariant-spans")
    small = reps.zero_representation(q, (2, 2))
    found = len(reps._exact_invariant_spans(small, reps.SearchBudget()))
    assert found == 46
    monkeypatch.setattr(reps, "MAX_INVARIANT_SPANS", found)
    assert stability(small, "-1,1") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "CertifiedUnstable"
    monkeypatch.setattr(reps, "MAX_INVARIANT_SPANS", found - 1)
    assert stability(small, "-1,1") == EXIT_INVARIANT
    assert refused("invariant-spans")

    # curve 0 has no loop and meets nothing; curve 1 has one loop
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({**ELLIPTIC_DOC, "gram": [[-2, 0], [0, 0]]}))
    huge = {"schema_version": 1, "mode": "float", "n": [5000, 1],
            "matrices": [{"x": [[[0.0, 0.0]]], "y": [[[0.0, 0.0]]]}]}
    started = time.process_time()
    assert stability(huge, "1,-5000", config=str(disjoint)) == EXIT_INVARIANT
    assert time.process_time() - started < 1.0
    assert refused("root-box")

    rep = random_representation(q, (1, 1), seed=3, mode="float")
    monkeypatch.setattr(reps, "MAX_RESTARTS", 2)
    assert stability(rep, "-1,1", "--restarts", "2", "--iters", "5") == EXIT_OK
    capsys.readouterr()
    assert stability(rep, "-1,1", "--restarts", "3") == EXIT_INVARIANT
    assert refused("search-restarts")


def test_exact_stability_past_its_size_and_probes_exits_3(tmp_path, capsys, monkeypatch):
    """The exact search refuses a total dimension sum(n) past
    ``reps.MAX_SEARCH_SIZE`` before its first probe: the zero representation
    of the disjoint pair puts n_0 = 2000 at a vertex with no arrow for one
    line of JSON, and its coordinate probes ran 3.8 s unbounded. More than
    ``reps.MAX_PROBES`` probes are refused before the search."""
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps({**ELLIPTIC_DOC, "gram": [[-2, 0], [0, 0]]}))

    def stability(n, theta, *flags, config=str(disjoint)):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"schema_version": 1, "mode": "exact", "n": list(n),
                                    "matrices": [{"x": [[0]], "y": [[0]]}]}))
        return dispatch(["stability", config, "--rep", str(path), f"--theta={theta}", "--json",
                         *flags])

    def refused(invariant):
        captured = capsys.readouterr()
        return captured.out == "" and f"invariant violation [{invariant}]" in captured.err

    started = time.process_time()
    assert stability((2000, 1), "1,-2000") == EXIT_INVARIANT
    assert time.process_time() - started < 0.1
    assert refused("search-size")
    monkeypatch.setattr(reps, "MAX_SEARCH_SIZE", 3)
    assert stability((2, 1), "1,-2") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "CertifiedUnstable"
    assert stability((3, 1), "1,-3") == EXIT_INVARIANT
    assert refused("search-size")

    assert stability((2, 1), "1,-2", "--probes", str(reps.MAX_PROBES)) == EXIT_OK
    capsys.readouterr()
    assert stability((2, 1), "1,-2", "--probes", str(reps.MAX_PROBES + 1)) == EXIT_INVARIANT
    assert refused("search-probes")


def test_moment_verify_past_the_differential_bound_exits_3(tmp_path, capsys):
    """n = (100,) on one loop asks for a d(mu) of 10^4 x 2 * 10^4 complex
    entries (3.2 GB); ``moment-verify`` refuses before its first trial."""
    path = tmp_path / "loop100.json"
    path.write_text(json.dumps({"curves": [{"chi": 1, "h0deg": 1}], "gram": [[0]], "mult": [100]}))
    started = time.process_time()
    assert dispatch(["moment-verify", str(path), "--json"]) == EXIT_INVARIANT
    assert time.process_time() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invariant violation [differential-size]" in captured.err
    assert "10000 x 20000 entries" in captured.err


def test_cli_closes_the_files_it_reads(affine_path, tmp_path, capsys):
    import gc
    import warnings

    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(EXACT_REP))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert dispatch(["cb-check", affine_path]) == EXIT_OK
        assert dispatch(["stability", affine_path, "--rep", str(rep), "--theta=-1,1"]) == EXIT_OK
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# every subcommand's arguments, in order, as (option strings, or the dest of
# a positional; default; required; choices; type); written out so that how
# the parser is built cannot change what it accepts
PARSER_CONTRACT = {
    "quiver": [],
    "roots": [(("--bound",), None, False, None, None)],
    "walls": [
        (("--side",), "both", False, ["quiver", "ample", "both"], None),
        (("--global",), False, False, None, None),
    ],
    "chambers": [],
    "character": [(("--pol",), None, True, None, None), (("--ell",), None, False, None, int)],
    "correspondence": [(("--samples",), 3, False, None, int)],
    "strata": [],
    "cb-check": [],
    "moment-verify": [
        (("--trials",), 10, False, None, int),
        (("--tol",), 1e-10, False, None, float),
        (("--rank-tol",), 1e-08, False, None, float),
        (("--seed",), None, False, None, int),
    ],
    "stability": [
        (("--rep",), None, True, None, None),
        (("--theta",), None, True, None, None),
        (("--probes",), None, False, None, int),
        (("--restarts",), None, False, None, int),
        (("--iters",), None, False, None, int),
        (("--tol",), None, False, None, float),
        (("--seed",), None, False, None, int),
    ],
    "summary": [],
}
COMMON_ARGUMENTS = [("config", None, True, None, None), (("--json",), False, False, None, None)]


def test_parser_contract():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [
            (tuple(a.option_strings) or a.dest, a.default, a.required, a.choices, a.type)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    assert list(got) == list(PARSER_CONTRACT)
    assert got == {name: COMMON_ARGUMENTS + args for name, args in PARSER_CONTRACT.items()}


def test_integer_budget_tol_reports_a_float(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(AFFINE_DOC))
    rep = tmp_path / "rep.json"
    # x and y both nonzero: the rep is simple, and the search finds nothing
    simple = [{"x": [[1]], "y": [[1]]}, {"x": [[0]], "y": [[0]]}]
    rep.write_text(json.dumps({**EXACT_REP, "matrices": simple}))
    argv = ["stability", str(config), "--rep", str(rep), "--theta=-1,1", "--tol", "1", "--json"]
    assert dispatch(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["kind"] == "NoDestabilizerFound"
    assert '"tolerance": 1.0' in out


# the names that quiverk3 serves from quiverk3.reps
REPS_NAMES = (
    "CertifiedUnstable", "GroupElement", "NoDestabilizerFound", "Representation",
    "SearchBudget", "StrictlySemistableWitness", "act", "annihilator_witness",
    "check_stability", "cyclic_subrep", "direct_sum", "dual", "is_simple",
    "moment_differential", "moment_map", "random_representation", "slope_theta",
    "solve_moment_zero", "verify_ci_dim", "zero_representation",
)

# run in a fresh interpreter: each argv list of stdin's JSON in turn, then
# print, after each, its exit code and whether numpy and quiverk3.reps are loaded
LOADS_CHILD = """
import contextlib, io, json, sys
import quiverk3
rows = [["import quiverk3", 0, "numpy" in sys.modules, "quiverk3.reps" in sys.modules]]
from quiverk3.cli import dispatch
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    rows.append([argv[0], code, "numpy" in sys.modules, "quiverk3.reps" in sys.modules])
print(json.dumps(rows))
"""


def _loads_in_a_fresh_interpreter(argvs) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(quiverk3.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADS_CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_commands_without_a_representation_load_neither_numpy_nor_reps(
        tmp_path, elliptic_path, elliptic_pair):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps(rep_to_dict(random_representation(
        quiver_from_config(elliptic_pair), (1, 1), seed=3))))
    exact = [
        [name, elliptic_path, "--json", *extra]
        for name, extra in (
            ("quiver", ()), ("roots", ()), ("walls", ()), ("chambers", ()),
            ("character", ("--pol", "H")), ("correspondence", ()), ("strata", ()),
            ("cb-check", ()), ("summary", ()),
        )
    ]
    numeric = [
        ["stability", elliptic_path, "--json", "--rep", str(rep), "--theta=-1,1"],
        ["moment-verify", elliptic_path, "--json", "--trials", "1"],
    ]
    rows = _loads_in_a_fresh_interpreter(exact + numeric)
    assert [row[0] for row in rows[1:]] == [argv[0] for argv in exact + numeric]
    assert all(code == EXIT_OK for _, code, *_ in rows)
    assert rows[:10] == [[name, 0, False, False] for name, *_ in rows[:10]]
    assert rows[10:] == [["stability", 0, True, True], ["moment-verify", 0, True, True]]


def test_a_budget_in_the_options_is_validated_without_loading_reps(tmp_path, capsys):
    """Every command refuses a budget in the options with exit 2 before its
    handler runs, so none loads numpy or the representation layer."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**AFFINE_DOC, "options": {"budget": {"probes": 2}}}))
    argvs = [
        [name, str(config), "--json", *extra]
        for name, extra in (
            ("quiver", ()), ("roots", ()), ("walls", ()), ("chambers", ()),
            ("character", ("--pol", "H")), ("correspondence", ()), ("strata", ()),
            ("cb-check", ()), ("moment-verify", ()),
            ("stability", ("--rep", str(tmp_path / "absent.json"), "--theta=-1,1")),
            ("summary", ()),
        )
    ]
    assert [argv[0] for argv in argvs] == list(cli.COMMANDS)
    for argv in argvs:
        assert dispatch(argv) == EXIT_SCHEMA, argv
        assert capsys.readouterr().err == f"schema error: {BUDGET_REFUSAL}\n", argv
    rows = _loads_in_a_fresh_interpreter(argvs)
    assert rows == [["import quiverk3", 0, False, False]] + [
        [argv[0], EXIT_SCHEMA, False, False] for argv in argvs]


def test_the_package_serves_the_representation_names_from_reps():
    for name in REPS_NAMES:
        assert getattr(quiverk3, name) is getattr(reps, name), name
        assert name in dir(quiverk3)
    assert {"cli", "LocalModel", "__version__"} <= set(dir(quiverk3))
    with pytest.raises(AttributeError, match="no_such_name"):
        quiverk3.no_such_name  # noqa: B018
