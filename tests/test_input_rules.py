"""Per-vertex input is refused by one rule per kind of check.

``errors._as_int_vector`` decides whether entries are integers,
``errors._as_rational`` whether they are exact rationals,
``errors._stability_parameter`` whether theta is a stability parameter,
``errors._check_same_length`` whether a vector has one entry per vertex,
and ``quiver.check_bound`` whether a dimension vector fits its quiver.
Hypothesis draws a valid per-vertex vector for one of the public entry
points and spoils it once: one entry becomes a float, a string, a bool,
None, inf or nan, an entry is dropped or added, or an entry turns negative
where negatives are not allowed. Each spoiled input must raise
``ValueError`` (``InvariantError`` is one), never ``TypeError``,
``IndexError``, ``OverflowError`` or ``MathAssertionError``, and never
return a value. A rational entry respelled as a numpy integer or a sympy
``Rational`` of the same value must give the same answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverk3 import (
    CurveConfig,
    Decomposition,
    DegreeVector,
    GroupElement,
    InvariantError,
    Quiver,
    Representation,
    SearchBudget,
    act,
    annihilator_witness,
    bounded_roots,
    cb_simple_exists,
    chamber_signature,
    check_stability,
    cyclic_subrep,
    decompositions,
    degrees,
    det_weight_vector,
    direct_sum,
    enumerate_chambers,
    is_generic,
    mu_zero_expected_dim,
    quiver_walls,
    random_representation,
    rep_space_dim,
    restrict_weights_to_type,
    slope_theta,
    solve_moment_zero,
    theta_dot,
    verify_ci_dim,
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


def _dimension_vector(call):
    def case(draw, q):
        return call(q, draw(spoiled((1,) * q.s, (ENTRY, SHORT, LONG, NEGATIVE))))
    return case


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


def verify_ci_dim_once(q, n):
    return verify_ci_dim(q, n, trials=1)


def is_generic_at_large_theta(q, n):
    # past int64, so that a numpy n would overflow theta . n
    return is_generic((10**20, -10**20) + (0,) * (q.s - 2), q, n)


DIMENSION_CALLS = (enumerate_chambers, verify_ci_dim_once, solve_moment_zero,
                   is_generic_at_large_theta, cb_simple_exists, rep_space_dim,
                   mu_zero_expected_dim)
CALLS = (_quiver, _representation, _curve_config, _mukai_vector, _bounded_roots, _act,
         _graded_invariance, _annihilator, *map(_dimension_vector, DIMENSION_CALLS))


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


@pytest.mark.parametrize("call", DIMENSION_CALLS)
def test_numpy_dimension_vectors_are_accepted(call):
    for q in QUIVERS[1:]:
        n = (1,) * q.s
        assert repr(call(q, np.array(n))) == repr(call(q, n))


@pytest.mark.parametrize("call", [cb_simple_exists, rep_space_dim, mu_zero_expected_dim])
def test_dimension_formulas_take_n_by_the_bound_rule(call):
    # each used to answer for a negative or fractional n: cb_simple_exists
    # (-1, 2) with "not a root", rep_space_dim -2 and mu_zero_expected_dim
    # -6 at (-1, 2), rep_space_dim 7.5 at (1.5, 1); and cb_simple_exists
    # called a wrong-length n "alpha"
    q = Quiver((1, 0), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="n must be non-negative"):
        call(q, (-1, 2))
    with pytest.raises(ValueError, match="integer"):
        call(q, (1.5, 1))
    with pytest.raises(ValueError, match="^n has length 3, but loops has length 2$"):
        call(q, (1, 1, 1))


def test_decomposition_parts_are_taken_by_the_integer_rule():
    # each beta goes through _as_int_vector and each k must be a positive
    # integer; int(k) used to take 1.9 as 1 and True as 1, and a beta entry
    # 0.5 passed unchecked
    parts = Decomposition(((np.int64(2), np.array([1, 0])), (1, (0, 1)))).parts
    assert parts == ((1, (0, 1)), (2, (1, 0)))
    assert all(type(k) is int and all(type(e) is int for e in b) for k, b in parts)
    for bad in (((1.9, (1, 0)),), ((True, (1, 0)),), (("1", (1, 0)),), ((None, (1, 0)),),
                ((0, (1, 0)),), ((-1, (1, 0)),), ((1, (0.5, 1)),), ((1, (True, 1)),),
                ((1.9, (1, 0)), (True, (0.5, 1)))):
        with pytest.raises(ValueError):
            Decomposition(bad)


def test_decomposition_betas_share_a_length_and_are_distinct_nonzero_and_non_negative():
    # the docstring's pairwise distinct roots: each of these was accepted,
    # the first with total (0, 0)
    assert Decomposition(((1, (1, 0)), (2, (0, 1)))).total == (1, 2)
    for bad in (((1, (1, 0)), (1, (1, 0)), (2, (-1, 0))),  # repeated and negative
                ((1, (1, 0)), (2, (1, 0))),  # repeated
                ((1, (2, -1)),), ((1, (-1, 0)), (1, (1, 1))),  # a negative entry
                ((1, ()),),  # empty
                ((1, (0, 0)),), ((1, (1, 0)), (1, (0, 0))),  # zero
                ((1, (1, 0)), (1, (1,))), ((1, (1,)), (1, (0, 1)))):  # lengths differ
        with pytest.raises(ValueError):
            Decomposition(bad)


def test_decomposition_of_no_parts_is_refused():
    # it was accepted, and its total then raised IndexError on parts[0]
    for empty in ((), []):
        with pytest.raises(ValueError, match="at least one part"):
            Decomposition(empty)

# float matrix entries and act's blocks


def test_float_entries_must_be_finite():
    # the CLI's rule for float entries, owned by the library: a NaN, inf or
    # -inf real or imaginary part is refused where a float representation
    # is built (the affine (1, 1) + (1, 1) wall sum among them) and in a
    # block of act, naming the matrix
    q = QUIVERS[1]
    one = random_representation(q, (1, 1), seed=1, mode="float")
    wall = direct_sum(one, random_representation(q, (1, 1), seed=2, mode="float"))
    for bad in (math.nan, math.inf, -math.inf):
        for z in (complex(bad, 0), complex(0, bad)):
            for rep in (one, wall):
                for e, (s, t, _) in enumerate(q.orientation):
                    for k, name in enumerate("xy"):
                        mats = [list(pair) for pair in rep.mats]
                        mats[e][k] = mats[e][k].copy()
                        mats[e][k][0, 0] = z
                        with pytest.raises(ValueError, match=f"{name} matrix for edge {s}->{t} "
                                                             "must have finite entries"):
                            Representation(q, rep.n, "float", tuple(map(tuple, mats)))
            with pytest.raises(ValueError, match="block for vertex 1 must have finite entries"):
                act(GroupElement((((1,),), ((z,),))), one)


def test_act_refuses_a_singular_block_by_its_vertex():
    # one refusal in both modes, naming the vertex whose block has no inverse
    q = QUIVERS[1]
    for mode in ("exact", "float"):
        rep = random_representation(q, (2, 2), seed=3, mode=mode)
        for i in range(2):
            blocks = [((1, 0), (0, 1))] * 2
            blocks[i] = ((1, 2), (2, 4))
            with pytest.raises(ValueError, match=f"block for vertex {i} is singular"):
                act(GroupElement(tuple(blocks)), rep)
            blocks[i] = ((0, 0), (0, 0))
            with pytest.raises(ValueError, match=f"block for vertex {i} is singular"):
                act(GroupElement(tuple(blocks)), rep)


# rational input: theta, degree vectors, weights, cyclic_subrep's vector and
# exact matrix entries
AFFINE = CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))  # QUIVERS[1] at n = (1, 1)
RATIONALS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2))
EXACT, INEXACT = "exact", "inexact"


def _inexact_spellings(x: Fraction) -> list:
    """Spellings of x that are not exact rationals; the float, string and
    bool ones keep its value."""
    out = [float(x), str(x), None, math.inf, math.nan]
    return out + [bool(x)] if x in (0, 1) else out


def _exact_spellings(x: Fraction) -> list:
    out = [sympy.Rational(x.numerator, x.denominator)]
    return out + [np.int64(x.numerator)] if x.denominator == 1 else out


def _theta(draw, q):
    """A stability parameter at n = (1, ..., 1): (x, -x, 0, ...)."""
    x = draw(st.sampled_from(RATIONALS))
    return (x, -x) + (Fraction(0),) * (q.s - 2)


def _is_generic(draw, q):
    return lambda t: is_generic(t, q, (1,) * q.s), _theta(draw, q)


def _check_stability_exact(draw, q):
    rep = random_representation(q, (1,) * q.s, seed=1)
    return lambda t: check_stability(rep, t), _theta(draw, q)


def _check_stability_float(draw, q):
    rep = random_representation(q, (1,) * q.s, seed=1, mode="float")
    budget = SearchBudget(restarts=1, iters=5)
    return lambda t: check_stability(rep, t, budget), _theta(draw, q)


def _theta_dot(draw, q):
    return lambda t: theta_dot(t, (1, 2, 3)[:q.s]), _theta(draw, q)


def _slope_theta(draw, q):
    return lambda t: slope_theta(t, (1, 2, 3)[:q.s]), _theta(draw, q)


def _chamber_signature(draw, q):
    walls = quiver_walls(q, (1,) * q.s)
    return lambda t: chamber_signature(t, walls), _theta(draw, q)


def _cyclic_subrep(draw, q):
    rep = random_representation(q, (2,) + (1,) * (q.s - 1), seed=draw(st.integers(0, 3)))
    return lambda v: cyclic_subrep(rep, 0, v), tuple(draw(st.sampled_from(RATIONALS)) for _ in range(2))


def _degree_vector(draw, q):
    return DegreeVector, tuple(draw(st.sampled_from(RATIONALS[1::2])) for _ in range(q.s))


def _restrict_weights(draw, q):
    a, ell = degrees(AFFINE), draw(st.integers(-2, 2))
    tau = decompositions(QUIVERS[1], AFFINE.mult)[0]
    weights = det_weight_vector(AFFINE, a, ell)
    return lambda w: restrict_weights_to_type(w, tau, AFFINE, a, ell), weights


def _matrix_entries(draw, q):
    """The 1 x 1 arrows of a representation at n = (1, ..., 1), as one vector;
    the call rebuilds the representation and compares it with the original."""
    rep = random_representation(q, (1,) * q.s, seed=draw(st.integers(0, 3)))

    def build(entries):
        pairs = zip(*[iter(entries)] * 2)
        return Representation(q, rep.n, "exact", tuple(([[x]], [[y]]) for x, y in pairs)) == rep

    return build, tuple(e for x, y in rep.mats for e in (x[0, 0], y[0, 0]))


# the cases whose vector has a fixed length, one entry per vertex or per
# dimension of V_0, so that a dropped or added entry is refused
FIXED_LENGTH_CASES = (_is_generic, _check_stability_exact, _check_stability_float, _theta_dot,
                      _slope_theta, _chamber_signature, _restrict_weights, _cyclic_subrep)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rational_input_is_taken_by_one_rule(data):
    """A rational vector respelled in one entry: an exact spelling gives the
    answer of the valid vector, and any other spelling, or a dropped or
    added entry of a vector of fixed length, raises ``ValueError``."""
    case = data.draw(st.sampled_from(FIXED_LENGTH_CASES + (_degree_vector, _matrix_entries)),
                     label="case")
    q = data.draw(st.sampled_from(QUIVERS[1:]), label="quiver")
    call, valid = case(data.draw, q)
    kinds = (EXACT, INEXACT, *LENGTHS) if case in FIXED_LENGTH_CASES else (EXACT, INEXACT)
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind in LENGTHS:
        spelled = data.draw(spoiled(valid, (kind,)))
    else:
        i = data.draw(st.integers(0, len(valid) - 1))
        spellings = (_exact_spellings if kind == EXACT else _inexact_spellings)(Fraction(valid[i]))
        spelled = (*valid[:i], data.draw(st.sampled_from(spellings)), *valid[i + 1:])
    if kind == EXACT:
        assert repr(call(spelled)) == repr(call(valid))
    else:
        with pytest.raises(ValueError):
            call(spelled)


def test_chamber_signature_takes_theta_without_walls():
    with pytest.raises(InvariantError) as err:
        chamber_signature((None,), [])
    assert err.value.invariant == "rationality"
