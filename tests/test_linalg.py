"""linalg reads rank, nullspace and inverse off the RREF kept by ``Span``.

The references are the column-by-column Gauss-Jordan loops in
``helpers``; since the RREF of a matrix is unique, both must agree entry
for entry, in the same order. sympy's rank is a third, independent count.
``Span.reduce`` divides out the gcd once per vector; its residues, rows and
pivots must equal those of ``helpers.reference_reduce``, which divides it
out at every step.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from quiverk3 import linalg
from helpers import reference_mat_inv, reference_nullspace, reference_reduce, reference_span

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
    assert sum(shape[0] == 0 for shape, _ in ranks) == 500  # 0 x k
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


def _rref_rows(span):
    return [row for _, row in sorted(zip(span.pivots, span.rows))]


def test_span_seeded_from_rref_rows_joins_like_a_fresh_span():
    # the exact stability search joins two spans by taking one side's RREF
    # rows as they are and adding the other's: the same rows and pivots,
    # by pivot, as reducing both sides afresh
    from quiverk3.reps import _join

    rng = random.Random(23)
    kinds = []
    for k in range(240):
        cols = rng.randint(1, 6)
        ra = _rref_rows(linalg.Span(_random_matrix(rng, rng.randint(1, cols), cols)))
        kind = k % 4
        if kind == 0:  # rb inside ra
            rb_src = linalg.mat_mul(_random_matrix(rng, rng.randint(1, 3), len(ra)), ra) if ra else ()
        elif kind == 1:  # an empty side
            rb_src = ()
        else:
            rb_src = _random_matrix(rng, rng.randint(1, cols), cols)
        rb = _rref_rows(linalg.Span(rb_src))
        if kind == 3:
            ra, rb = rb, ra
        span = linalg.Span(ra + rb)
        fresh = sorted(zip(span.pivots, span.rows))
        seeded = linalg.Span.echelon(rng.sample(ra, len(ra)))  # in any order
        for row in rb:
            seeded.add(row)
        assert sorted(zip(seeded.pivots, seeded.rows)) == fresh
        for left, right in ((ra, rb), (rb, ra)):
            joined = _join(left, right)
            assert sorted(zip(joined.pivots, joined.rows)) == fresh
        kinds.append((kind, len(ra), len(rb), len(fresh)))
    assert sum(1 for kind, a, b, f in kinds if kind == 0 and b and f == a) >= 30
    assert sum(1 for _, a, b, _ in kinds if a == 0 or b == 0) >= 60
    assert sum(1 for _, a, b, f in kinds if a and b and f > max(a, b)) >= 30


def _full_join(ra, rb):
    """``reps._join`` without its early exit: every row of the smaller side
    added."""
    if len(rb) > len(ra):
        ra, rb = rb, ra
    span = linalg.Span.echelon(ra)
    for row in rb:
        span.add(row)
    return span


def test_join_that_stops_once_full_is_the_full_join(monkeypatch):
    from quiverk3 import reps

    rng = random.Random(29)
    adds = []
    real = linalg.Span.add
    monkeypatch.setattr(linalg.Span, "add", lambda sp, v: adds.append(v) or real(sp, v))
    kinds = []
    for k in range(320):
        cols = rng.randint(1, 5)
        kind = k % 4
        if kind == 0:  # an empty side
            ra, rb = _rref_rows(linalg.Span(_random_matrix(rng, rng.randint(0, cols), cols))), []
        elif kind == 1:  # a full side
            ra = _rref_rows(linalg.Span(_random_matrix(rng, rng.randint(1, cols), cols)))
            rb = _rref_rows(linalg.Span(linalg.identity(cols)))
        elif kind == 2:  # one short of full, so full after one row
            ra = _rref_rows(linalg.Span(_random_matrix(rng, cols - 1, cols))) if cols > 1 else []
            rb = _rref_rows(linalg.Span(_random_matrix(rng, rng.randint(1, cols), cols)))
        else:
            ra, rb = (_rref_rows(linalg.Span(_random_matrix(rng, rng.randint(1, cols), cols)))
                      for _ in range(2))
        for left, right in ((ra, rb), (rb, ra)):
            adds.clear()
            joined = reps._join(left, right)
            stopped = len(adds)
            full = _full_join(left, right)
            assert sorted(zip(joined.pivots, joined.rows)) == sorted(zip(full.pivots, full.rows))
            kinds.append((kind, stopped < len(adds) - stopped, full.dim == cols))
    assert sum(1 for kind, skipped, _ in kinds if kind == 1 and skipped) >= 120
    assert sum(1 for kind, skipped, _ in kinds if kind == 2 and skipped) >= 60
    assert sum(1 for kind, skipped, full in kinds if kind == 3 and full and skipped) >= 20


def _reduce_cases(seed: int):
    """(rows to span, vectors to reduce against them): small integer
    matrices with negative entries, the seeded rational matrices above and
    the large mixed ones of ``_stress_matrices``, each with a zero vector,
    a vector of negative integers and random vectors to reduce."""
    rng = random.Random(seed)
    ints = [tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rng.randint(1, 6)))
            for cols in (rng.randint(1, 6) for _ in range(200))]
    for a in ints + [a for a in _matrices(seed, 300) if len(a)] + _stress_matrices(seed, 200):
        cols = len(a[0])
        probes = [(0,) * cols, tuple(-rng.randint(1, 10**6) for _ in range(cols)),
                  tuple(_entry(rng) for _ in range(cols)),
                  tuple(_stress_entry(rng) for _ in range(cols))]
        yield a, probes


def test_span_residues_rows_and_pivots_match_the_per_step_reduce():
    residues = []
    for a, probes in _reduce_cases(41):
        span = linalg.Span()
        for vec in list(a) + probes:
            expected = reference_reduce(span.rows, span.pivots, vec)
            assert span.reduce(vec) == expected, (span.rows, vec)
            assert span.contains(vec) == (not any(expected))
            span.add(vec)
            residues.append(expected)
        assert (span.rows, span.pivots) == reference_span(list(a) + probes)
        assert all(r == list(linalg.primitive(r)) and r[p] > 0
                   for r, p in zip(span.rows, span.pivots))
    zero = sum(not any(r) for r in residues)
    assert zero >= 1000 and len(residues) - zero >= 1000
    assert sum(any(x < 0 for x in r) for r in residues) >= 500
    assert sum(max(map(abs, r)) >= 10**12 for r in residues) >= 100


def test_nullspace_of_a_matrix_with_no_rows_is_everything():
    # a 2-D array carries its column count even with no rows; nested rows
    # with no row carry none
    for k in range(5):
        a = np.empty((0, k), dtype=object)
        assert linalg.shape(a) == (0, k)
        assert linalg.nullspace(a) == list(linalg.identity(k))
        assert linalg.rank(a) == 0
    assert linalg.shape(()) == (0, 0) and linalg.nullspace(()) == []


def _stress_entry(rng):
    """Entries with numerators and denominators up to 10^6, as int or
    Fraction."""
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _stress_matrices(seed: int, count: int):
    """Rows mixing int and Fraction with large entries, rows whose first
    nonzero entry is negative, and rank-deficient stacks of such rows."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[_stress_entry(rng) for _ in range(cols)] for _ in range(rows)]
        for row in a:  # make the leading entry negative
            lead = next((j for j, x in enumerate(row) if x != 0), None)
            if lead is not None and row[lead] > 0 and rng.random() < 0.7:
                row[:] = [-x for x in row]
        if i % 3 == 1 and rows > 1:  # a combination of two rows
            c = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            a.append([x - c * y for x, y in zip(a[0], a[1])])
        out.append(tuple(tuple(row) for row in a))
    return out


def test_span_on_large_mixed_and_negative_entries():
    rng = random.Random(11)
    mats = _stress_matrices(606, 400)
    negative_leads = 0
    for a in mats:
        span = linalg.Span(a)
        ns = linalg.nullspace(a)
        assert ns == reference_nullspace(a)
        assert span.dim == len(a[0]) - len(ns)
        rref = span.basis()
        assert all(type(x) is Fraction for v in rref for x in v)
        # the RREF: pivot 1, zeros above and below, rows ordered by pivot
        pivots = [next(j for j, x in enumerate(v) if x != 0) for v in rref]
        assert pivots == sorted(pivots)
        for v, p in zip(rref, pivots):
            assert v[p] == 1
            assert all(w[p] == 0 for w in rref if w is not v)
        for row in a:
            assert span.contains(row)
            lead = next((x for x in row if x != 0), 0)
            negative_leads += lead < 0
        v = [_stress_entry(rng) for _ in a[0]]
        assert span.contains(v) == (linalg.rank(list(a) + [v]) == span.dim)
    assert negative_leads >= 300


def test_mat_inv_on_large_mixed_entries():
    rng = random.Random(12)
    for _ in range(150):
        k = rng.randint(1, 5)
        a = tuple(tuple(_stress_entry(rng) for _ in range(k)) for _ in range(k))
        if linalg.rank(a) < k:
            with pytest.raises(ZeroDivisionError):
                linalg.mat_inv(a)
            continue
        inv = linalg.mat_inv(a)
        assert inv == reference_mat_inv(a)
        assert linalg.mat_mul(inv, a) == linalg.identity(k)
