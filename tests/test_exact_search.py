"""The exact representation kernel: simplicity and the stability search.

``is_simple`` is checked against ``helpers.reference_is_simple``, the
Burnside closure on the whole of End(V), past the total dimension 3 that
the invariant-subspace oracle of criterion 6 reaches. The exact stability
search is pinned twice: ``_exact_invariant_spans`` must return the list of
``helpers.reference_invariant_spans`` (the same spans, in the same order),
and the sha256 of the exact ``check_stability`` verdicts and of the
``annihilator_witness`` outputs built from them must equal ``GOLDEN``. To
re-record after an intended change, run ``python tests/test_exact_search.py``
from the repository root with ``src`` and ``tests`` on ``PYTHONPATH`` and
paste its output into ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from quiverk3 import CurveConfig, quiver_from_config, random_representation
from quiverk3.reps import (
    NoDestabilizerFound,
    Representation,
    SearchBudget,
    _exact_invariant_spans,
    annihilator_witness,
    check_stability,
    direct_sum,
    is_simple,
)
from helpers import reference_invariant_spans, reference_is_simple, unipotent_conjugate

F = Fraction

AFFINE = CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1))
ELLIPTIC = CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1))
OGRADY = CurveConfig(((2,),), (1,), (2,), (1,))
CHAIN = CurveConfig(((-2, 1, 0), (1, -2, 1), (0, 1, -2)), (1, 1, 1), (1, 1, 1), (1, 1, 1))
DISJOINT = CurveConfig(((-2, 0), (0, 0)), (1, 1), (1, 1), (1, 1))


def _zero_y(rep: Representation) -> Representation:
    return Representation(rep.quiver, rep.n, rep.mode, tuple((x, 0 * y) for x, y in rep.mats))


def _rand(cfg, n, seed, mode="exact"):
    return random_representation(quiver_from_config(cfg), n, seed=seed, mode=mode)


# ---------------------------------------------------------------------------
# pinned exact stability search


def _canon(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: _canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _stability_cases():
    """(name, representation, theta) on the shapes of the benchmark's exact
    workload: affine (3, 3) with y = 0, the direct sums (1, 1) + (2, 2) and
    (2,) + (3,) at their wall, and O'Grady (5,). The affine direct sum is
    also conjugated, so that the witnesses found are not coordinate
    subspaces."""
    for seed in range(3):
        yield f"affine33-y0-{seed}", _zero_y(_rand(AFFINE, (3, 3), seed)), (F(-3), F(3))
        wall = direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (2, 2), 100 + seed))
        yield f"affine-11+22-{seed}", wall, (F(-1), F(1))
        wall = direct_sum(_rand(OGRADY, (2,), seed), _rand(OGRADY, (3,), 100 + seed))
        yield f"ogrady-2+3-{seed}", wall, (F(0),)
        yield f"ogrady5-{seed}", _rand(OGRADY, (5,), seed), (F(0),)
    for seed in range(8):
        wall = direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (2, 2), 100 + seed))
        yield f"affine-11+22-hidden-{seed}", unipotent_conjugate(wall, seed), (F(-1), F(1))


def stability_digests() -> dict[str, str]:
    out = {}
    for name, rep, theta in _stability_cases():
        verdict = check_stability(rep, theta)
        dual_witness = None
        if not isinstance(verdict, NoDestabilizerFound):
            dual_witness = annihilator_witness(rep, verdict.beta, verdict.basis)
        text = json.dumps(_canon([verdict, dual_witness]), sort_keys=True)
        out[name] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


# recorded before the integer-row Span and the semi-naive join went in
GOLDEN = {
    "affine33-y0-0": "5cf636f4b893fd5d",
    "affine-11+22-0": "43a7eb9bed6c2916",
    "ogrady-2+3-0": "bd685bbb75a21681",
    "ogrady5-0": "e40fd10b8a090989",
    "affine33-y0-1": "5cf636f4b893fd5d",
    "affine-11+22-1": "43a7eb9bed6c2916",
    "ogrady-2+3-1": "bd685bbb75a21681",
    "ogrady5-1": "e40fd10b8a090989",
    "affine33-y0-2": "5cf636f4b893fd5d",
    "affine-11+22-2": "43a7eb9bed6c2916",
    "ogrady-2+3-2": "bd685bbb75a21681",
    "ogrady5-2": "e40fd10b8a090989",
    "affine-11+22-hidden-0": "e40fd10b8a090989",
    "affine-11+22-hidden-1": "ef9a41c57d091f67",
    "affine-11+22-hidden-2": "722814847d88262b",
    "affine-11+22-hidden-3": "e40fd10b8a090989",
    "affine-11+22-hidden-4": "e40fd10b8a090989",
    "affine-11+22-hidden-5": "57665c6796e26b38",
    "affine-11+22-hidden-6": "19754c40fb792aac",
    "affine-11+22-hidden-7": "2073b7b4a4a4f841",
}


def test_exact_stability_verdicts_and_dual_witnesses_are_pinned():
    assert stability_digests() == GOLDEN


def _search_cases():
    """Seeded exact representations with many invariant spans: direct sums
    of four summands, whose sums of three need a second join pass, and
    y = 0 representations, on four quivers."""
    rng = random.Random(31)
    for k in range(36):
        kind = k % 4
        seed = rng.randrange(10**6)
        if kind == 0:
            rep = direct_sum(*(_rand(AFFINE, m, seed + j)
                               for j, m in enumerate([(1, 1), (1, 0), (0, 1), (1, 1)])))
        elif kind == 1:
            rep = _zero_y(_rand(rng.choice([AFFINE, ELLIPTIC]), (2, rng.randint(1, 2)), seed))
        elif kind == 2:
            rep = direct_sum(*(_rand(OGRADY, (1,), seed + j) for j in range(4)))
        else:
            rep = _zero_y(_rand(CHAIN, (1, rng.randint(1, 2), 1), seed))
        yield rep, SearchBudget(probes=rng.randint(1, 3), seed=seed)


def test_invariant_spans_match_the_reference_join():
    sizes = []
    for rep, budget in _search_cases():
        found = _exact_invariant_spans(rep, budget)
        assert found == reference_invariant_spans(rep, budget)
        sizes.append(len(found))
    assert len(sizes) >= 30
    assert sum(s >= 4 for s in sizes) >= 15  # the join has pairs to work on


# ---------------------------------------------------------------------------
# simplicity past total dimension 3


def _simplicity_cases():
    """Seeded representations of total dimension 4-8: random ones, zero
    vertices, disconnected support, y = 0, direct sums on a wall and
    elliptic (4, 4)."""
    rng = random.Random(47)
    for k in range(4):
        seed = rng.randrange(10**6)
        yield _rand(AFFINE, rng.choice([(2, 2), (3, 1), (2, 3)]), seed)
        yield _rand(ELLIPTIC, rng.choice([(2, 2), (1, 3), (3, 2)]), seed)
        yield _rand(OGRADY, (4,), seed)
        yield _rand(CHAIN, rng.choice([(2, 0, 2), (0, 3, 1), (1, 2, 1), (2, 1, 2)]), seed)
        yield _rand(DISJOINT, rng.choice([(2, 2), (3, 1)]), seed)
        yield _zero_y(_rand(AFFINE, rng.choice([(2, 2), (3, 2)]), seed))
        # the paths out of vertex 0 span everything, none come back to it
        yield _zero_y(_rand(ELLIPTIC, (1, 3), seed))
        yield direct_sum(_rand(AFFINE, (1, 1), seed), _rand(AFFINE, (1 + k % 2, 1), seed + 1))
        yield direct_sum(_rand(OGRADY, (1 + k % 2,), seed), _rand(OGRADY, (3 - k % 2,), seed + 1))
    yield _rand(ELLIPTIC, (4, 4), 0)
    yield _rand(OGRADY, (5,), 0)
    yield direct_sum(_rand(AFFINE, (1, 1), 5), _rand(AFFINE, (2, 2), 6))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_is_simple_matches_reference_past_dimension_3(mode):
    verdicts = []
    for rep in _simplicity_cases():
        if mode == "float":
            rep = rep.to_float()
        assert 4 <= rep.total_dim <= 8
        got = is_simple(rep)
        assert got == reference_is_simple(rep), (rep.n, rep.mats)
        verdicts.append(got)
    assert 8 <= sum(verdicts) <= len(verdicts) - 8  # both verdicts occur


if __name__ == "__main__":
    for name, digest in stability_digests().items():
        print(f'    "{name}": "{digest}",')
