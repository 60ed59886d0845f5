"""Mutated config and representation documents never crash the CLI.

Hypothesis starts from valid documents and applies a few random edits: an
integer changed to another small integer, a value replaced by a small JSON
value, a key or list entry deleted, a list entry duplicated, or the
serialized text cut short. Config documents go through every command but
``stability``; representation documents go through ``stability`` with a
small search budget. Every command must then exit 0, 2 or 3, and a nonzero
exit must name its reason on stderr; a traceback, exit 1 or exit 4 fails
the test. Mutated integers stay small, the config documents have at most
three curves and the representations total dimension at most 4 (a mutated
``n`` no longer matches its matrices), so every document stays cheap to
compute, valid or not.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverk3 import CurveConfig, direct_sum, quiver_from_config, random_representation
from quiverk3.cli import EXIT_INVARIANT, EXIT_OK, EXIT_SCHEMA, dispatch, rep_to_dict
from conftest import random_config
from helpers import config_document

BASES = [
    config_document(cfg, {"H1": [d + 1 for d in cfg.h0deg]},
                    {"ell": 3, "seed": 1})
    for cfg in (
        CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1)),
        CurveConfig(((-2, 2), (2, -2)), (1, 1), (2, 2), (1, 1)),
        CurveConfig(((2,),), (1,), (2,), (1,)),
        random_config(random.Random(3), s_min=3, s_max=3, gram_bound=3, mult_max=2),
    )
]

COMMANDS = (
    ("quiver",),
    ("roots",),
    ("walls", "--side", "both"),
    ("chambers",),
    ("character", "--pol", "H1"),
    ("correspondence",),
    ("strata",),
    ("cb-check",),
    ("moment-verify", "--trials", "1"),
    ("summary",),
)

# an integer nudged to another small integer is three times as likely as each
# other edit, so that many documents stay well-formed and reach the maths
KINDS = ("nudge", "nudge", "nudge", "replace", "delete", "duplicate")
# no base carries a budget: only a mutation adds one, which the CLI refuses
KEYS = ("curves", "gram", "mult", "chi", "h0deg", "name", "polarizations", "H0",
        "options", "seed", "ell", "budget", "probes", "restarts", "iters", "tol")
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["", "x", "1/2", "-3", "0/0", "1/0"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated_text(data, bases=BASES) -> str:
    doc = copy.deepcopy(data.draw(st.sampled_from(bases)))
    for _ in range(data.draw(st.integers(1, 3))):
        # the whole document is the last choice: hypothesis favours the first
        path = data.draw(st.sampled_from(list(_paths(doc))[1:] + [()]))
        kind = data.draw(st.sampled_from(KINDS))
        if not path:
            doc = data.draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "delete":
            del parent[key]
        elif kind == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif kind == "nudge" and type(parent[key]) is int:
            parent[key] = data.draw(st.integers(-3, 4))
        else:
            parent[key] = data.draw(VALUES)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 9)) == 9:  # one document in ten is cut short
        text = text[:data.draw(st.integers(0, len(text)))]
    return text


def _run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


def test_every_base_reaches_the_maths():
    """Unmutated, each base passes every command: a base that a command
    refuses would leave the mutations below testing only that refusal."""
    for base in BASES:
        for cmd in COMMANDS:
            code, err = _run([cmd[0], "-", "--json", *cmd[1:]], json.dumps(base))
            assert code == EXIT_OK, (cmd, base, err)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.data())
def test_mutated_config_documents_exit_cleanly(data):
    text = _mutated_text(data)
    for cmd in COMMANDS:
        code, err = _run([cmd[0], "-", "--json", *cmd[1:]], text)
        assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_INVARIANT), (cmd, code, text, err)
        if code != EXIT_OK:
            assert err.strip(), (cmd, code, text)


def _rep_bases():
    """(config text, theta, representation document): random representations
    in both modes, one per seed; two seeds make a direct sum, which at theta
    lies on a wall."""
    out = []
    for cfg, seeds in (
        (CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1)), (7,)),
        (CurveConfig(((-2, 2), (2, -2)), (1, 1), (2, 2), (1, 1)), (7,)),
        (CurveConfig(((2,),), (1,), (2,), (1,)), (7,)),
        (CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1)), (1, 2)),
    ):
        q = quiver_from_config(cfg)
        text = json.dumps(config_document(cfg, options={"seed": 1}))
        for mode in ("exact", "float"):
            rep = direct_sum(*(random_representation(q, cfg.mult, seed=k, mode=mode) for k in seeds))
            theta = [-rep.n[1], rep.n[0]] if cfg.s == 2 else [0]
            out.append((text, ",".join(map(str, theta)), rep_to_dict(rep)))
    return out


REP_BASES = _rep_bases()


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(st.data())
def test_mutated_representation_documents_exit_cleanly(data):
    config, theta, base = data.draw(st.sampled_from(REP_BASES))
    text = _mutated_text(data, [base])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rep.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["stability", "-", "--json", "--rep", path, "--theta=" + theta,
                "--probes", "2", "--restarts", "2", "--iters", "50"]
        code, err = _run(argv, config)
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_INVARIANT), (code, text, err)
    if code != EXIT_OK:
        assert err.strip(), (code, text)
