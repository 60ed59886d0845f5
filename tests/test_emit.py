"""``cli._dumps`` gives the bytes of ``json.dumps(indent=2, sort_keys=True,
default=oracle)`` on seeded random report-like trees, where ``oracle`` below
spells the report values json has no type for.

The trees mix every value kind the reports hold: str, int, bool, None,
float, list, tuple, dict with str keys, ``Fraction``, complex, 2-D complex
arrays and dataclasses. They share containers (at the same depth and at
different depths), hold the same dataclass instance twice, and put many
distinct dataclass instances and arrays side by side, whose temporary lists
are freed and reallocated while one emission runs (the id-reuse trap of a
memo keyed on ids); they also hold empty containers, bools inside int lists,
non-finite floats, -0.0 and strings that need escaping. Values no report
holds (subclasses of the builtins, numpy scalars, sets, non-string keys)
must raise ``TypeError``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
from collections import namedtuple
from contextlib import redirect_stdout
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_config
from quiverk3 import Representation, cli, quiver_from_config, random_representation


def oracle(obj):
    """The ``default=`` of the reference encoding: a ``Fraction`` as an int
    or the string "p/q", a complex number as [re, im], a 2-D array as rows of
    such pairs and a dataclass as the dict of its fields."""
    if type(obj) is Fraction:
        return obj.numerator if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if type(obj) is complex:
        return [obj.real, obj.imag]
    if type(obj) is np.ndarray and obj.ndim == 2:
        return [[oracle(complex(e)) for e in row] for row in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"no report holds a {type(obj).__name__}")


@dataclass(frozen=True)
class Leaf:
    beta: tuple
    p: int
    label: str


@dataclass(frozen=True)
class Node:
    parts: tuple
    weight: object
    note: str | None


STRINGS = ("", "plain", "tab\there", 'quote " and \\ backslash', "née", "∂θ",
           "\U0001d4c0 astral", "line\nbreak\x00\x1f", "</script>")


def _scalar(rng: random.Random):
    kind = rng.randrange(13)
    if kind == 0:
        return rng.randint(-10**20, 10**20)
    if kind == 1:
        return rng.choice((True, False, None))
    if kind == 2:
        return rng.choice((math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 2.5e300,
                           rng.uniform(-1e6, 1e6)))
    if kind == 3:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 7))
    if kind == 4:
        return complex(rng.uniform(-3, 3), rng.choice((0.0, -0.0, math.nan, 1.5)))
    if kind == 5:  # a chamber representative
        return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(4))
    if kind == 6:
        rows, cols = rng.randint(1, 3), rng.randint(0, 3)
        return np.array([[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(cols)]
                         for _ in range(rows)], dtype=complex).reshape(rows, cols)
    if kind == 7:
        return [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
    if kind == 8:
        return [rng.choice((0, 1, True, False)) for _ in range(rng.randint(1, 4))]
    if kind == 9:
        return rng.choice(([], (), {}))
    if kind == 10:
        return Leaf(tuple(rng.randint(0, 4) for _ in range(3)), rng.randint(-2, 9),
                    rng.choice(STRINGS))
    return rng.choice(STRINGS)


def random_tree(rng: random.Random, depth: int, shared: list):
    """A tree of dicts, lists and tuples over ``_scalar`` leaves; entries of
    ``shared`` are reused wherever the draw picks them, at any depth."""
    if depth == 0 or rng.random() < 0.25:
        if shared and rng.random() < 0.3:
            return rng.choice(shared)
        return _scalar(rng)
    width = rng.randint(0, 5)
    kind = rng.randrange(4)
    if kind == 0:
        keys = rng.sample(STRINGS, min(width, len(STRINGS)))
        node = {k: random_tree(rng, depth - 1, shared) for k in keys}
    elif kind == 1:
        node = [random_tree(rng, depth - 1, shared) for _ in range(width)]
    elif kind == 2:
        node = tuple(random_tree(rng, depth - 1, shared) for _ in range(width))
    else:
        node = Node(tuple(random_tree(rng, depth - 1, shared) for _ in range(width)),
                    _scalar(rng), rng.choice((None, "note")))
    if rng.random() < 0.3:
        shared.append(node)
    return node


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=oracle)


def assert_same_text(obj):
    """``_dumps`` equals the reference; on failure, report the first
    differing offset instead of a diff of two large documents."""
    got, want = cli._dumps(obj), reference(obj)
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"differs at offset {at}: {got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")


@pytest.mark.parametrize("seed", range(40))
def test_dumps_matches_json_on_random_trees(seed):
    rng = random.Random(seed)
    shared: list = []
    doc = {"schema_version": 1, "command": "test",
           "tree": random_tree(rng, 5, shared), "again": random_tree(rng, 4, shared)}
    assert_same_text(doc)


def test_shared_objects_at_equal_and_different_depths():
    part = Leaf((1, 0, 2), 3, "p")
    inner = [part, {"x": part}]
    doc = {"a": inner, "b": inner, "c": [inner, [[inner]]], "d": (part, part), "e": [[part]]}
    assert_same_text(doc)


def test_temporaries_never_alias():
    """Distinct dataclasses, complex numbers and arrays side by side: each
    complex number and array is spelled through a temporary list, and a memo
    that let such temporaries die would see their ids again on the next
    sibling and repeat the wrong text."""
    rng = random.Random(7)
    same = Leaf((2, 2, 2), 1, "same")
    items = []
    for k in range(300):
        items.append(Leaf((k, k % 3, 1), k, str(k)))
        items.append(same)
        items.append(np.array([[complex(k, -k)]]))
        items.append(complex(k, 0.5))
        items.append(Node((Fraction(k, 3), [k, True]), k / 7, None))
    rng.shuffle(items)
    doc = {"items": items, "nested": [[x] for x in items[:50]]}
    assert_same_text(doc)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"empty": [[], (), {}]}, [True, 1, False, 0], [1, 2, 3], "solo é",
    0, -0.0, math.nan, [math.inf, -math.inf], (Fraction(1, 2), Fraction(2), Fraction(0)),
    -math.nan, Fraction(7, 1), Fraction(-3, 4), complex(-0.0, math.inf), None, True,
    {"b": Fraction(1, 3), "a": complex(1, -0.0), "é": [], "": None, "A": [Fraction(-5, 1)]},
    {"frame": np.zeros((2, 0), dtype=complex), "frames": (np.array([[1 - 2j], [-0.0j]]),)},
])
def test_edge_values(obj):
    assert_same_text(obj)


Pair = namedtuple("Pair", "k beta")


def test_values_reports_never_hold_raise():
    """A namedtuple, a numpy scalar, a set, a key that is no string and an
    array that is not 2-D have no report spelling: each raises."""
    for obj in (Pair(1, 2), [np.int64(3)], {"s": {1, 2}}, {1: "x"}, {None: 0}, {(1, 2): 3},
                [np.float32(0.5), np.float16(1.25)], np.zeros(3, dtype=complex), [object()]):
        with pytest.raises(TypeError):
            cli._dumps(obj)


def test_emit_prints_the_reference_encoding():
    payload = {"strata": [Leaf((1, 1), 2, "x")] * 3, "theta": (Fraction(-1, 2), Fraction(1, 2))}
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.emit(payload, "strata", True, [])
    doc = {"schema_version": cli.SCHEMA_VERSION, "command": "strata", **payload}
    assert buf.getvalue() == reference(doc) + "\n"


# ---------------------------------------------------------------------------
# the exact-type fast paths of ``_dumps`` and what must fall off them


class Sign(IntEnum):
    MINUS = -1
    PLUS = 1


@dataclass(frozen=True)
class Flags:
    beta: tuple
    is_root: bool
    k: int


@dataclass(frozen=True)
class Scalars:
    x: float
    nan: float
    zero: float
    q: Fraction
    z: complex
    none: None


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Holder:
    inner: object
    again: tuple


class Vec(tuple):
    pass


class Table(dict):
    pass


class Label(str):
    pass


@dataclass
class TableRecord(dict):
    a: int = 1


def test_bools_and_int_enums_inside_int_tuples_and_as_fields():
    """A tuple with a bool is not all ``int``: the bool spells
    ``true``/``false``. An ``IntEnum`` member is no report value: the int
    fast paths must not take it, so it raises wherever it sits."""
    assert_same_text([(1, True, 0), (False,), [0, 1, True], [[False, 0]]])
    assert_same_text({"flags": [Flags((1, True), True, 3), Flags((True, 0), False, 0)]})
    for obj in ((Sign.PLUS, 2), [[Sign.MINUS, 0]], [Sign.PLUS], Sign.MINUS,
                Flags((0,), True, Sign.PLUS), {"k": (Fraction(1, 2), Sign.PLUS)}):
        with pytest.raises(TypeError):
            cli._dumps(obj)


def test_float_fraction_complex_none_and_numpy_fields():
    fields = Scalars(2.5, math.nan, -0.0, Fraction(-7, 3), complex(1.5, -0.0), None)
    assert_same_text({"s": fields, "t": [fields, (fields,)], "u": (math.nan, -0.0, 1e300)})
    assert_same_text(Scalars(-math.inf, math.nan, 0.0, Fraction(4, 1), complex(math.inf, 2), None))
    # np.float64 is a float subclass, np.int64 no int at all: neither is exact
    for value in (np.float64(0.5), np.int64(-12), np.complex128(1j)):
        with pytest.raises(TypeError):
            cli._dumps(Holder(value, ()))


def test_namedtuples_and_tuple_dict_and_str_subclasses():
    """Subclasses of the builtin containers and of str are no report values:
    each raises, at the top and inside a container. A dataclass is spelled
    by its fields even when it subclasses a builtin."""
    for obj in (Pair(2, (1, 0)), Vec((3, 4)), Vec(), Table(b=1), Label("tab\t")):
        for where in (obj, [obj], {"x": (obj,)}):
            with pytest.raises(TypeError):
                cli._dumps(where)
    record = TableRecord()
    record["k"] = (1, 2)
    assert cli._dumps([record]) == '[\n  {\n    "a": 1\n  }\n]'


def test_dataclass_with_no_fields():
    assert_same_text(Empty())
    assert_same_text({"e": Empty(), "l": [Empty(), Empty()], "h": Holder(Empty(), (Empty(),))})


def test_int_tuples_nested_three_deep_in_lists():
    assert_same_text([[[(1, 2, 3), (0,)], [(4, 5)]], [[()]], [[[(6, 7), [8, 9]]]]])
    assert_same_text({"d": [[[(-1, 10**30)]]], "h": Holder([[[(2, 2)]]], ((1,), ((1, 2),)))})


def test_one_instance_shared_at_two_depths_inside_a_field():
    """The memo is keyed on (id, depth): the same part at two depths of one
    field gets two indentations."""
    part = Leaf((1, 0, 2), 3, "shared")
    outer = Holder([part, [part, (part,)]], (part, Holder(part, (part,))))
    assert_same_text(outer)
    assert_same_text({"x": outer, "y": [outer, part]})


@dataclass(frozen=True)
class Parts:
    parts: tuple


def test_value_equal_parts_of_other_types_keep_their_spelling():
    """The memo is keyed on identity, never on value: ``1 == True == 1.0 ==
    Fraction(1)`` spell differently, so a decomposition part ``(k, beta)``
    that holds a bool or a float must not take the text of an equal part of
    ints, nor the other way round, at the same depth or another, while one
    list of them met again is spelled from its first text."""
    same = [(1, (1, 2)), (1, (True, 2)), (True, (1, 2)), (1, (1.0, 2)), (1, (Fraction(1), 2))]
    for parts in (same, same[::-1]):
        assert_same_text({"a": Parts(tuple(parts)), "b": [Parts(tuple(parts)), parts],
                          "c": [[tuple(parts)], parts[::-1]], "d": Holder(parts, (parts[0],))})


# ---------------------------------------------------------------------------
# the encoder on real reports


FIXTURES = ("elliptic_pair", "affine_a1", "affine_a1_22", "ogrady", "one_loop")


def report_document(cfg, command: str, *flags: str) -> dict:
    """The document ``cli.emit`` encodes for ``command --json`` on ``cfg``."""
    args = cli.build_parser().parse_args([command, "config.json", "--json", *flags])
    payload, _lines = cli.COMMANDS[command].handler(cfg, {}, {}, args)
    return {"schema_version": cli.SCHEMA_VERSION, "command": command, **payload}


def test_real_reports_match_the_reference_encoding(request):
    """``summary``, ``strata``, ``chambers`` and ``correspondence`` of the
    five fixtures and of the strata-heavy seed-9 draw (212 decompositions),
    as the CLI builds them, against json's pure-Python encoder. The probed
    chambers' ``a`` and ``theta`` hold integers and proper fractions."""
    heavy = random_config(random.Random(9), 3, 3, mult_max=4)
    assert len(report_document(heavy, "strata")["strata"]) == 212
    characters = []
    for cfg in [request.getfixturevalue(name) for name in FIXTURES] + [heavy]:
        for command in ("summary", "strata", "chambers", "correspondence"):
            doc = report_document(cfg, command)
            if command == "correspondence":
                characters += [x for c in doc["report"].chambers for x in c.a + c.theta]
            assert_same_text(doc)
    assert {x.denominator == 1 for x in characters} == {True, False}


def test_float_stability_report_with_complex_frames(tmp_path, affine_a1_22):
    """A float-mode witness carries its frames as complex arrays, one of
    them with no column; theta and the slope are proper fractions."""
    q = quiver_from_config(affine_a1_22)
    rep = random_representation(q, (2, 2), seed=7, mode="float")
    rep = Representation(q, (2, 2), "float", tuple((x, 0 * y) for x, y in rep.mats))
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(cli.rep_to_dict(rep)))
    doc = report_document(affine_a1_22, "stability", "--rep", str(path), "--theta=-1/2,1/2")
    verdict = doc["verdict"]
    assert doc["kind"] == "CertifiedUnstable" and verdict.slope == Fraction(1, 2)
    assert [f.shape for f in verdict.basis] == [(2, 0), (2, 1)]
    assert all(f.dtype == complex for f in verdict.basis)
    assert_same_text(doc)
