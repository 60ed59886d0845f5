"""The CLI report ladder, pinned: ``tools/report_digests.py`` run on this
tree prints the lines of ``tests/report_digests.txt``.

The tool runs once, as a subprocess, and each case of the ladder is one
test, so a failure names its case and shows its changed lines. The
``moment-verify`` lines are not compared: their reports carry float
residuals, which vary with the BLAS build. Every other line, exit code
included, must match. To re-record after an intended report change, run
``python tools/report_digests.py . > tests/report_digests.txt`` from the
repository root; ``git diff`` then lists every changed line.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def by_case(lines) -> dict[int, list[str]]:
    """The compared lines of a ladder output, grouped by case index."""
    cases: dict[int, list[str]] = {}
    for line in lines:
        fields = line.split()
        case, command = fields[1:3] if fields[0] == "text" else fields[:2]
        if command != "moment-verify":
            cases.setdefault(int(case), []).append(line)
    return cases


PINNED = by_case((ROOT / "tests" / "report_digests.txt").read_text().splitlines())


@pytest.fixture(scope="module")
def ladder() -> dict[int, list[str]]:
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return by_case(run.stdout.splitlines())


def test_the_ladder_runs_the_pinned_cases(ladder):
    assert sorted(ladder) == sorted(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_ladder_reports_match_the_pinned_digests(ladder, case):
    assert ladder.get(case) == PINNED[case]
