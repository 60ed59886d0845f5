"""Byte-identity of the ``strata`` and ``summary`` ``--json`` reports on
strata-heavy draws.

The fixtures have at most a few root decompositions. This file pins two
seeded s = 3 ``random_config`` draws with mult_max 4 and 212 and 269
decompositions, whose reports (0.36-0.52 MB) repeat each root's stratum part
across many records. The digests were recorded before decompositions were
memoized and before reports were written by ``cli._dumps``. Each digest is
the sha256 of the stdout of one ``dispatch([..., "--json"])`` call. To
re-record after an intended report change, run
``python tests/test_golden_strata_reports.py`` from the repository root with
``src`` on ``PYTHONPATH`` and paste its output into ``GOLDEN``.
"""

from __future__ import annotations

import functools
import random
import warnings

import pytest

from quiverk3 import decompositions, quiver_from_config
from conftest import random_config
from helpers import record_golden, report_digests

SEEDS = (9, 11)  # mult (3, 4, 1) and (2, 2, 4)
DECOMPOSITIONS = {9: 212, 11: 269}
COMMANDS = ("strata", "summary")


def draw(seed):
    return random_config(random.Random(seed), s_min=3, s_max=3, mult_max=4)


GOLDEN = {
    "9": {
        "strata": "e84a1ed8a5e9c94809200f282f17e7d2a53b6b240fcec4c213c47efe54c971a4",
        "summary": "f073d8b464a1b055a6d8d11455fb675de939fd4c1c4f624e0cd5c5c73ed5fe39"
    },
    "11": {
        "strata": "f4f31fe93056cc78cfd7d1aca277e719ddbe78bf3d0bf8286be32479af1e45ba",
        "summary": "8ecc5ba5aa45bf22aec42f0e5a63273917bf7127a355908f8e004de6db4ad32e"
    }
}


@pytest.mark.parametrize("seed", SEEDS)
def test_strata_heavy_reports_are_byte_identical(seed, tmp_path):
    cfg = draw(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert len(decompositions(quiver_from_config(cfg), cfg.mult)) == DECOMPOSITIONS[seed]
    assert report_digests(cfg, tmp_path, COMMANDS) == GOLDEN[str(seed)]


if __name__ == "__main__":
    record_golden({str(seed): draw(seed) for seed in SEEDS},
                  functools.partial(report_digests, commands=COMMANDS))
