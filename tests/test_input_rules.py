"""Per-vertex input is refused by one rule per kind of check.

``errors._as_int_vector`` decides whether entries are integers,
``errors._check_same_length`` whether a vector has one entry per vertex,
and ``quiver.check_bound`` whether a dimension vector fits its quiver.
Hypothesis draws a valid per-vertex vector for one of the public entry
points and spoils it once: one entry becomes a float, a string, a bool or
None, an entry is dropped or added, or an entry turns negative where
negatives are not allowed. Each spoiled input must raise ``ValueError``
(``InvariantError`` is one), never ``TypeError`` or ``IndexError``, and
never return a value.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverk3 import (
    CurveConfig,
    GroupElement,
    Quiver,
    Representation,
    act,
    annihilator_witness,
    bounded_roots,
    zero_representation,
)
from quiverk3.lattice import MukaiVector
from quiverk3.reps import graded_invariance_holds

BAD_ENTRIES = (1.5, 1.0, "1", True, None)
QUIVERS = (
    Quiver((1,), ((0,),)),
    Quiver((0, 0), ((0, 2), (2, 0))),
    Quiver((1, 0, 0), ((0, 1, 0), (1, 0, 1), (0, 1, 0))),
)
ENTRY, SHORT, LONG, NEGATIVE = "entry", "short", "long", "negative"
LENGTHS = (SHORT, LONG)


@st.composite
def spoiled(draw, valid, kinds):
    """``valid`` spoiled in one of the given ways."""
    kind = draw(st.sampled_from(kinds))
    out = list(valid)
    i = draw(st.integers(0, len(out) - 1))
    if kind == ENTRY:
        out[i] = draw(st.sampled_from(BAD_ENTRIES))
    elif kind == SHORT:
        del out[i]
    elif kind == LONG:
        out.insert(i, draw(st.integers(0, 2)))
    else:
        out[i] = -1 - out[i]
    return tuple(out)


def _quiver(draw, q):
    if draw(st.booleans()):
        return Quiver(draw(spoiled(q.loops, (ENTRY, SHORT, LONG, NEGATIVE))), q.edges)
    row = draw(st.integers(0, q.s - 1))
    edges = list(q.edges)
    edges[row] = draw(spoiled(edges[row], (ENTRY,)))
    return Quiver(q.loops, tuple(edges))


def _representation(draw, q):
    n = tuple(draw(st.integers(0, 2)) for _ in range(q.s))
    bad = draw(spoiled(n, (ENTRY, SHORT, LONG, NEGATIVE)))
    return Representation(q, bad, "exact", zero_representation(q, n).mats)


def _curve_config(draw, q):
    ones = (1,) * q.s
    mult = draw(spoiled(ones, (ENTRY, SHORT, LONG, NEGATIVE)))
    gram = tuple(tuple(-2 * (i == j) for j in range(q.s)) for i in range(q.s))
    return CurveConfig(gram, ones, mult, ones)


def _mukai_vector(draw, q):
    return MukaiVector(0, draw(spoiled((1,) * q.s, (ENTRY,))), 1)


def _bounded_roots(draw, q):
    n = tuple(draw(st.integers(0, 2)) for _ in range(q.s))
    return bounded_roots(q, draw(spoiled(n, (ENTRY, SHORT, LONG, NEGATIVE))))


def _act(draw, q):
    rep = zero_representation(q, (1,) * q.s)
    blocks = draw(spoiled(((Fraction(1),),) * q.s, LENGTHS))
    return act(GroupElement(tuple((b,) for b in blocks)), rep)


def _graded_invariance(draw, q):
    rep = zero_representation(q, (1,) * q.s)
    return graded_invariance_holds(rep, draw(spoiled(((),) * q.s, LENGTHS)))


def _annihilator(draw, q):
    rep, beta, bases = zero_representation(q, (1,) * q.s), (0,) * q.s, ((),) * q.s
    if draw(st.booleans()):
        return annihilator_witness(rep, draw(spoiled(beta, LENGTHS)), bases)
    return annihilator_witness(rep, beta, draw(spoiled(bases, LENGTHS)))


CALLS = (_quiver, _representation, _curve_config, _mukai_vector, _bounded_roots, _act,
         _graded_invariance, _annihilator)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_malformed_per_vertex_input_raises_value_error(data):
    call = data.draw(st.sampled_from(CALLS), label="call")
    q = data.draw(st.sampled_from(QUIVERS), label="quiver")
    with pytest.raises(ValueError):
        call(data.draw, q)


def test_numpy_integers_are_stored_as_python_ints():
    def python_ints(vec):
        return all(type(e) is int for e in vec)

    i64 = np.int64
    q = Quiver(np.array([1, 0]), np.array([[0, 2], [2, 0]]))
    assert q == Quiver((1, 0), ((0, 2), (2, 0)))
    assert python_ints(q.loops) and all(map(python_ints, q.edges))
    rep = Representation(q, (i64(1), np.int32(0)), "exact", zero_representation(q, (1, 0)).mats)
    assert rep.n == (1, 0) and python_ints(rep.n)
    cfg = CurveConfig(np.array([[0, 2], [2, 0]]), np.array([1, 1]), (i64(1), i64(2)), (1, 1))
    assert cfg == CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 2), (1, 1))
    assert all(map(python_ints, (*cfg.gram, cfg.chi, cfg.mult, cfg.h0deg)))
    assert python_ints(MukaiVector(0, np.array([1, -1]), 0).div)
    assert bounded_roots(q, np.array([1, 1])) == bounded_roots(q, (1, 1))
