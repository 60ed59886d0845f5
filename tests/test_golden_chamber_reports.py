"""Byte-identity of the chamber-side ``--json`` reports on multi-wall draws.

``test_golden_reports.py`` pins the small fixtures, whose arrangements have
at most one wall. This file pins ``chambers``, ``correspondence`` and
``summary`` on three seeded s = 4 ``random_config`` draws with 10-14 walls
and 62-116 chambers, where chamber enumeration splits many cells. Each digest
is the sha256 of the stdout of one ``dispatch([..., "--json"])`` call. To
re-record after an intended report change, run
``python tests/test_golden_chamber_reports.py`` from the repository root with
``src`` on ``PYTHONPATH`` and paste its output into ``GOLDEN``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from quiverk3.cli import EXIT_OK, dispatch
from conftest import random_config
from helpers import config_document

SEEDS = (0, 1, 4)  # 10, 14 and 14 walls; mult (1,2,1,1), (1,2,2,1), (1,1,2,2)
COMMANDS = ("chambers", "correspondence", "summary")


def draw(seed):
    return random_config(random.Random(seed), s_min=4, s_max=4, gram_bound=4, mult_max=2)


def report_digests(cfg, tmp_dir) -> dict[str, str]:
    """sha256 of the --json stdout of every command in COMMANDS for cfg."""
    cpath = tmp_dir / "config.json"
    cpath.write_text(json.dumps(config_document(cfg)))
    out = {}
    for cmd in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dispatch([cmd, str(cpath), "--json"])
        assert code == EXIT_OK, (cmd, code)
        out[cmd] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


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
    }
}


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_wall_chamber_reports_are_byte_identical(seed, tmp_path):
    assert report_digests(draw(seed), tmp_path) == GOLDEN[str(seed)]


if __name__ == "__main__":
    import pathlib
    import tempfile

    golden = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as d:
            golden[str(seed)] = report_digests(draw(seed), pathlib.Path(d))
    print("GOLDEN = " + json.dumps(golden, indent=4))
