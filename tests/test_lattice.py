import random
from fractions import Fraction

import pytest

from quiverk3 import (
    CurveConfig,
    DegreeVector,
    InvariantError,
    MukaiVector,
    NonPrimitivityWarning,
    bounded_roots,
    degrees,
    is_positive,
    is_positive_root,
    mukai_pairing,
    quiver_from_config,
    slope,
    vector_of_beta,
)
from conftest import random_config


def test_pairing_examples(elliptic_pair):
    v = MukaiVector(0, (1, 1), 2)
    assert mukai_pairing(v, v, elliptic_pair) == 4
    ideal = MukaiVector(1, (0, 0), 0)
    assert mukai_pairing(ideal, ideal, elliptic_pair) == 0
    a = MukaiVector(0, (1, 0), 1)
    b = MukaiVector(0, (0, 1), 1)
    assert mukai_pairing(a, b, elliptic_pair) == 2


def test_pairing_signs_of_the_rank_terms(elliptic_pair):
    # the structure sheaf v(O_S) = (1, 0, 1) is spherical: v.v = -2. Every
    # other example has a rank or an Euler entry 0 on one side, or pairs a
    # vector with itself through a symmetric form, so a pairing with both
    # rank terms' signs flipped passed them all
    o_s = MukaiVector(1, (0, 0), 1)
    assert mukai_pairing(o_s, o_s, elliptic_pair) == -2
    # rank 1 against rank 0: c_1 . c_1 = 2 through the gram, minus 1 * 3
    u, w = MukaiVector(1, (1, 0), 1), MukaiVector(0, (0, 1), 3)
    assert mukai_pairing(u, w, elliptic_pair) == mukai_pairing(w, u, elliptic_pair) == -1


def test_pairing_dimension_mismatch(elliptic_pair):
    with pytest.raises(ValueError):
        mukai_pairing(MukaiVector(0, (1,), 1), MukaiVector(0, (1, 1), 1), elliptic_pair)


def test_pairing_symmetric_bilinear():
    rng = random.Random(11)
    for _ in range(30):
        cfg = random_config(rng)
        vecs = [
            MukaiVector(
                rng.randint(-2, 2),
                tuple(rng.randint(-3, 3) for _ in range(cfg.s)),
                rng.randint(-4, 4),
            )
            for _ in range(3)
        ]
        u, v, w = vecs
        assert mukai_pairing(u, v, cfg) == mukai_pairing(v, u, cfg)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        comb = MukaiVector(
            a * u.rank + b * v.rank,
            tuple(a * x + b * y for x, y in zip(u.div, v.div)),
            a * u.euler + b * v.euler,
        )
        assert mukai_pairing(comb, w, cfg) == a * mukai_pairing(u, w, cfg) + b * mukai_pairing(v, w, cfg)


def test_is_positive_examples(elliptic_pair):
    assert is_positive(MukaiVector(0, (1, 1), 2), elliptic_pair)
    assert not is_positive(MukaiVector(0, (0, 0), 0), elliptic_pair)
    assert not is_positive(MukaiVector(0, (1, 0), 0), elliptic_pair)
    assert is_positive(MukaiVector(1, (0, 0), 0), elliptic_pair)  # ideal-sheaf type
    assert is_positive(MukaiVector(0, (0, 0), 3), elliptic_pair)
    assert not is_positive(MukaiVector(0, (-1, 0), 1), elliptic_pair)


def test_is_positive_refuses_negative_rank(elliptic_pair):
    # the negative of the ideal-sheaf type passes the square bound
    v = MukaiVector(-1, (0, 0), 0)
    assert mukai_pairing(v, v, elliptic_pair) == 0
    assert not is_positive(v, elliptic_pair)


def test_is_positive_square_bound():
    # two disjoint (-2)-curves: v((1,1))^2 = -4 < -2, so positivity fails
    # even though the effectivity and euler clauses hold
    cfg = CurveConfig(((-2, 0), (0, -2)), (1, 1), (1, 1), (1, 1))
    assert not is_positive(MukaiVector(0, (1, 1), 2), cfg)


def test_vector_of_beta(elliptic_pair):
    v = vector_of_beta(elliptic_pair, (1, 1))
    assert v == MukaiVector(0, (1, 1), 2)
    full = vector_of_beta(elliptic_pair, elliptic_pair.mult)
    assert full.euler == elliptic_pair.total_euler
    with pytest.warns(NonPrimitivityWarning):
        w = vector_of_beta(elliptic_pair, (2, 0))
    assert w == MukaiVector(0, (2, 0), 2)
    with pytest.raises(ValueError):
        vector_of_beta(elliptic_pair, (0, 0))
    with pytest.raises(ValueError):
        vector_of_beta(elliptic_pair, (-1, 1))


def test_slope_examples(elliptic_pair):
    a = DegreeVector((1, 1))
    assert slope(MukaiVector(0, (1, 1), 2), a) == 1
    assert slope(MukaiVector(0, (1, 0), 1), a) == 1
    with pytest.raises(ValueError):
        slope(MukaiVector(1, (1, 0), 1), a)


def test_slope_refuses_degrees_of_another_length():
    # zipped against c_1, a long a was cut short and a short one dropped terms:
    # (1, 1, 5) read slope 1 for (0, (1, 1), 2)
    v = MukaiVector(0, (1, 1), 2)
    for a in ((1,), (1, 1, 5)):
        with pytest.raises(ValueError, match=f"a has length {len(a)}, but div has length 2"):
            slope(v, DegreeVector(a))


def test_slope_zero_denominator():
    cfg = CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
    # degree vectors are strictly positive, so force the zero denominator
    # through a zero divisor class instead
    with pytest.raises(ZeroDivisionError):
        slope(MukaiVector(0, (0, 0), 1), degrees(cfg))


def test_equal_slope_propagates():
    import warnings

    rng = random.Random(23)
    for _ in range(25):
        cfg = random_config(rng)
        h0 = degrees(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = slope(vector_of_beta(cfg, cfg.mult), h0)
            for i in range(cfg.s):
                beta = tuple(1 if j == i else 0 for j in range(cfg.s))
                assert slope(vector_of_beta(cfg, beta), h0) == base
            beta = tuple(max(0, m - 1) for m in cfg.mult)
            if any(beta):
                assert slope(vector_of_beta(cfg, beta), h0) == base


def test_roots_give_positive_vectors():
    # on bounded roots the square bound holds by the root criterion, the
    # divisor class is effective nonzero, and equal slopes force a nonzero
    # euler characteristic
    rng = random.Random(37)
    import warnings

    for _ in range(20):
        cfg = random_config(rng, mult_max=2)
        q = quiver_from_config(cfg)
        betas = list(bounded_roots(q, cfg.mult))
        if is_positive_root(q, cfg.mult):
            betas.append(cfg.mult)
        for beta in betas:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = vector_of_beta(cfg, beta)
            assert v.euler != 0
            assert is_positive(v, cfg)


def test_config_invariant_errors():
    good = dict(gram=((0, 2), (2, 0)), chi=(1, 1), mult=(1, 1), h0deg=(1, 1))
    with pytest.raises(InvariantError) as e:
        CurveConfig(((1, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
    assert e.value.invariant == "gram-diagonal"
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, -1), (-1, 0)), (1, 1), (1, 1), (1, 1))
    assert e.value.invariant == "gram-offdiag"
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, 2), (2, 0)), (1, 2), (1, 1), (1, 1))
    assert e.value.invariant == "equal-slope"
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, 2), (2, 0)), (1, -1), (1, 1), (1, -1))
    assert e.value.invariant == "h0deg-positive"
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, 2), (2, 0)), (1, 1), (0, 1), (1, 1))
    assert e.value.invariant == "mult-positive"
    cfg = CurveConfig(**good)
    assert cfg.s == 2 and cfg.total_euler == 2 and cfg.total_h0deg == 2


@pytest.mark.parametrize("args, invariant", [
    (((), (), (), ()), "size"),
    ((((0, 2), (2,)), (1, 1), (1, 1), (1, 1)), "gram-shape"),
    ((((0, 2), (2, 0)), (1, 1), (1,), (1, 1)), "size"),
    ((((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1, 1)), "size"),
    ((((0, 2), (2, 0)), (1, 1.0), (1, 1), (1, 1)), "integrality"),
    ((((0, True), (2, 0)), (1, 1), (1, 1), (1, 1)), "integrality"),
])
def test_config_shape_and_entry_errors(args, invariant):
    with pytest.raises(InvariantError) as e:
        CurveConfig(*args)
    assert e.value.invariant == invariant


def test_vector_of_beta_length_must_be_s(elliptic_pair):
    with pytest.raises(ValueError, match="beta has length 3, but mult has length 2"):
        vector_of_beta(elliptic_pair, (1, 0, 1))

def test_total_euler_zero_rejected():
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, 2), (2, 0)), (-1, 1), (1, 1), (1, 1))
    # chi = (-1, 1) with d = (1, 1) already breaks equal slopes; build a
    # genuinely slope-equal zero-chi example instead
    assert e.value.invariant in ("equal-slope", "total-euler")
    with pytest.raises(InvariantError) as e:
        CurveConfig(((0, 2), (2, 0)), (0, 0), (1, 1), (1, 1))
    assert e.value.invariant == "total-euler"


def test_degree_vector_positive():
    with pytest.raises(InvariantError):
        DegreeVector((1, 0))
    with pytest.raises(InvariantError) as err:  # the CLI parses "p/q" strings, the library does not
        DegreeVector(("1/2", 2))
    assert err.value.invariant == "rationality"
    dv = DegreeVector((Fraction(1, 2), 2))
    assert dv.a == (Fraction(1, 2), Fraction(2))


def test_primitivity_gcd(ogrady, elliptic_pair):
    assert ogrady.primitivity_gcd() == 2
    assert elliptic_pair.primitivity_gcd() == 1
