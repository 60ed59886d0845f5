"""Byte-identity of the chamber-side ``--json`` reports on multi-wall draws.

``test_golden_reports.py`` pins the small fixtures, whose arrangements have
at most one wall. This file pins ``chambers``, ``correspondence`` and
``summary`` on three seeded s = 4 ``random_config`` draws with 10-14 walls
and 62-116 chambers, where chamber enumeration splits many cells, and on one
s = 5 draw with 19 walls and 728 chambers, where Fourier-Motzkin eliminates
four variables (dim n-perp = 4). Each digest
is the sha256 of the stdout of one ``dispatch([..., "--json"])`` call. To
re-record after an intended report change, run
``python tests/test_golden_chamber_reports.py`` from the repository root with
``src`` on ``PYTHONPATH`` and paste its output into ``GOLDEN``.
"""

from __future__ import annotations

import functools
import random

import pytest

from conftest import random_config
from helpers import record_golden, report_digests

# key -> (seed, s). s = 4: 10, 14 and 14 walls; mult (1,2,1,1), (1,2,2,1),
# (1,1,2,2). s = 5: 19 walls; mult (1,1,2,1,1)
DRAWS = {"0": (0, 4), "1": (1, 4), "4": (4, 4), "s5-7": (7, 5)}
COMMANDS = ("chambers", "correspondence", "summary")


def draw(key):
    seed, s = DRAWS[key]
    return random_config(random.Random(seed), s_min=s, s_max=s, gram_bound=4, mult_max=2)


GOLDEN = {
    "0": {
        "chambers": "ae9c919dee60616b6b066d10fb0b33fd0af844cdedaa78940363eec0e64f6b14",
        "correspondence": "765bd75b97a6e737758339d7a310c54b6c59d25ceeb99086ceb94b2fae2599ab",
        "summary": "5c5459f79f78a76b0a49f6c384bd2d304779a03f33692a8f3ec8aa68aad23965"
    },
    "1": {
        "chambers": "d2e3a5a80ed08c0876d40cfe8c391ebd7ec22e93df6d37d0573d239e631ef2fc",
        "correspondence": "4aca3314fde67a3124728dad237f6809d8c82113c2afe12a5ee4ce8cfc43faf4",
        "summary": "c8241a789f0f8d03d677f1abe2673cd8c1352043c4d330991571001957944091"
    },
    "4": {
        "chambers": "f39841fb666435398291fcb04467a18ec068313c374be4bbba716603782df946",
        "correspondence": "9bd1c3ba78aa2e3ee7249fa36c56a2b9fe231b0a271b1ff52a2f1012b3ff6154",
        "summary": "000cd7e480ca7caaf4ca64975d1c39532bc778e37c1f2f3b7c8559c9b20c63b9"
    },
    "s5-7": {
        "chambers": "6bda4158b9565e2b7202f8f7f3e48f5896d37315628065a3d2b85957290a81a0",
        "correspondence": "e49c4a892b60fa064f91452aac06882f71ee45c500de209981557c481e149217",
        "summary": "9cd6cbff5494d604fbfc0613af0ac6adc465347c145f59cc8cffa3341d10fabd"
    }
}


@pytest.mark.parametrize("key", DRAWS)
def test_multi_wall_chamber_reports_are_byte_identical(key, tmp_path):
    assert report_digests(draw(key), tmp_path, COMMANDS) == GOLDEN[key]


if __name__ == "__main__":
    record_golden({key: draw(key) for key in DRAWS},
                  functools.partial(report_digests, commands=COMMANDS))
