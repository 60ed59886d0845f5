"""linalg reads rank, nullspace and inverse off the RREF kept by ``Span``.

The references are the column-by-column Gauss-Jordan loops in
``helpers``; since the RREF of a matrix is unique, both must agree entry
for entry, in the same order. sympy's rank is a third, independent count.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from quiverk3 import linalg
from helpers import reference_mat_inv, reference_nullspace

F = Fraction


def _entry(rng):
    # zeros are common so that pivots are often missing
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def _random_matrix(rng, rows, cols):
    return tuple(tuple(_entry(rng) for _ in range(cols)) for _ in range(rows))


def _low_rank(rng, rows, cols):
    k = rng.randint(0, max(0, min(rows, cols) - 1))
    return linalg.mat_mul(_random_matrix(rng, rows, k), _random_matrix(rng, k, cols)) if k else (
        tuple(tuple(F(0) for _ in range(cols)) for _ in range(rows))
    )


def _matrices(seed: int, count: int):
    """Seeded rational matrices up to 6 x 6: full random, rank-deficient
    products, matrices with zero rows, repeated rows, and 0 x k inputs."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = i % 5
        if kind == 0:
            a = _random_matrix(rng, rows, cols)
        elif kind == 1:
            a = _low_rank(rng, rows, cols)
        elif kind == 2:  # zero rows mixed in
            a = tuple(
                tuple(F(0) for _ in range(cols)) if rng.random() < 0.4 else r
                for r in _random_matrix(rng, rows, cols)
            )
        elif kind == 3:  # a row repeated as a multiple
            a = list(_random_matrix(rng, rows, cols))
            a.append(tuple(F(rng.randint(-2, 2)) * x for x in rng.choice(a)))
            a = tuple(a)
        else:  # 0 x k, as a tuple and as an array: no rows carry no column count
            a = () if i % 2 else np.empty((0, cols), dtype=object)
        out.append(a)
    return out


def _square(seed: int, count: int):
    """Seeded square rational matrices of size 0 to 6; about half singular."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(0, 6)
        out.append(_low_rank(rng, n, n) if i % 2 else _random_matrix(rng, n, n))
    return out


def test_nullspace_and_rank_match_reference():
    mats = _matrices(2024, 2500)
    for k, a in enumerate(mats):
        ns = linalg.nullspace(a)
        assert ns == reference_nullspace(a), a
        assert all(type(x) is Fraction for v in ns for x in v)
        r = linalg.rank(a)
        ncols = linalg.shape(a)[1]
        assert len(ns) == ncols - r
        for v in ns:
            assert all(x == 0 for x in linalg.mat_vec(a, v))
        if k % 10 == 0 and len(a):
            assert r == sympy.Matrix([[sympy.Rational(x) for x in row] for row in a]).rank()


def test_nullspace_and_rank_cover_their_cases():
    mats = _matrices(2024, 2500)
    ranks = [(linalg.shape(a), linalg.rank(a)) for a in mats]
    assert sum(r < min(shape) for shape, r in ranks) >= 500  # rank-deficient
    assert sum(shape == (0, 0) for shape, _ in ranks) == 500  # 0 x k
    assert sum(any(not any(row) for row in a) for a in mats if len(a)) >= 400  # zero rows


def test_mat_inv_matches_reference_and_inverts():
    singular = 0
    for a in _square(7, 2000):
        n = len(a)
        try:
            expected = reference_mat_inv(a)
        except ZeroDivisionError:
            singular += 1
            assert linalg.rank(a) < n
            with pytest.raises(ZeroDivisionError):
                linalg.mat_inv(a)
            continue
        inv = linalg.mat_inv(a)
        assert inv == expected
        assert linalg.mat_mul(inv, a) == linalg.identity(n)
    assert 800 <= singular < 2000


def test_span_absorbs_initial_rows_like_add():
    rng = random.Random(5)
    for a in _matrices(5, 200):
        grown = linalg.Span()
        accepted = [grown.add(row) for row in a]
        built = linalg.Span(a)
        assert built.basis() == grown.basis()
        assert built.dim == sum(accepted) == linalg.rank(a)
        for row in a:
            assert built.contains(row)
        if built.dim:
            v = [_entry(rng) for _ in a[0]]
            assert built.contains(v) == (linalg.rank(list(a) + [v]) == built.dim)
