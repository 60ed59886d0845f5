"""Digests of the CLI's reports: the report ladder that tier-1 pins.

Usage: ``python tools/report_digests.py <tree>``, where <tree> is a checkout
of this repository. The script imports quiverk3 from ``<tree>/src`` and the
test helpers from ``<tree>/tests``, runs 15 invocations covering all 11
commands on each configuration, then the extra invocations below, and prints
one line per invocation: case index, command, exit code and the first 16
hex digits of the sha256 of stdout. The command is the whole invocation
with its temporary directory left out of the paths, so each label names
one invocation (``walls --side both`` and ``walls --side both --global``,
or the seed-7 and the y = 0 representation, differ). It runs every
invocation first with --json and then again in text mode (no --json); a
text-mode line starts with ``text``. Identical output on two trees means
byte-identical reports.

``tests/report_digests.txt`` holds the output on this tree, and
``tests/test_report_ladder.py`` compares every line to it, one test per
case. It skips only the ``moment-verify`` lines, whose float residuals vary
with the BLAS build. After an intended report change, re-record it with
``python tools/report_digests.py . > tests/report_digests.txt`` from the
repository root; ``git diff`` of that file lists every changed line.

The 1002 lines come in two blocks, each of --json lines then text lines,
so a block appended later leaves the earlier lines in their places.

The first block (864 lines) has 27 cases: the five test fixtures (cases
0-4), 20 ``random_config(random.Random(2024), s_min=1, s_max=4,
mult_max=2)`` draws (5-24), and two strata-heavy draws,
``random_config(random.Random(seed), s_min=3, s_max=3, mult_max=4)`` for
seed 9 and 11 (25-26: 212 and 269 root decompositions, reports of
0.36-0.52 MB whose strata share their parts). After the 15 invocations of
each case come 27 extra ones: ``stability`` on the seed-7 representation
with every y_e set to zero, for each of the 22 cases with s >= 2 (each
verdict is ``CertifiedUnstable``, so witness bytes are covered; the seed-7
representation itself gives ``NoDestabilizerFound`` in 26 of 27 cases),
and ``moment-verify --trials 20`` on the five fixtures. So 432 --json lines
lead, the text-mode lines follow in the same order, and of each half the
first 405 lines are those of the 27 cases.

The second block (138 lines) adds four multi-wall chamber draws,
``random_config(random.Random(seed), s_min=s, s_max=s, gram_bound=4,
mult_max=2)`` for seed 0, 1 and 4 at s = 4 (cases 27-29: 10, 14 and 14
walls, 62-116 chambers) and seed 7 at s = 5 (case 30: 19 walls, 728
chambers, where Fourier-Motzkin eliminates four variables). Their 60
invocations are followed by the y = 0 ``stability`` of each, and by
``stability --probes 2`` with the search's default restarts and iterations
on the five fixtures: 69 --json lines, then 69 text lines.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile

sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]

from conftest import random_config  # noqa: E402
from helpers import config_document  # noqa: E402
from quiverk3 import (  # noqa: E402
    CurveConfig, Representation, quiver_from_config, random_representation
)
from quiverk3.cli import dispatch, rep_to_dict  # noqa: E402


# seeds of the strata-heavy draws, after the 25 cases of the original ladder
STRATA_SEEDS = (9, 11)
# (seed, s) of the multi-wall chamber draws, the appended cases 27-30
CHAMBER_DRAWS = ((0, 4), (1, 4), (4, 4), (7, 5))
FIXTURES = 5
SEARCH = ("--restarts", "2", "--iters", "50")


def stability(rep_path: str, theta: str, search=SEARCH) -> list[str]:
    return ["stability", "--rep", rep_path, "--theta=" + theta, "--probes", "2", *search]


def commands(rep_path: str, theta: str) -> list[list[str]]:
    return [
        ["quiver"], ["roots"], ["walls", "--side", "quiver"], ["walls", "--side", "ample"],
        ["walls", "--side", "both"], ["walls", "--side", "both", "--global"],
        ["chambers"], ["character", "--pol", "H0"], ["character", "--pol", "H1"],
        ["correspondence"], ["strata"], ["cb-check"], ["moment-verify", "--trials", "2"],
        stability(rep_path, theta),
        ["summary"],
    ]


def write_rep(path: str, rep: Representation) -> None:
    with open(path, "w") as fh:
        json.dump(rep_to_dict(rep), fh)


def theta_of(n) -> str:
    return ",".join(map(str, [-n[1], n[0]] + [0] * (len(n) - 2) if len(n) >= 2 else [0]))


def invocations(cases, start: int, tmp: str) -> list:
    """(case, config path, command) of every command on each case, numbered
    from start, then of the y = 0 ``stability`` of each case with s >= 2."""
    out, extra = [], []
    for i, cfg in enumerate(cases, start):
        n, cpath, rpath = cfg.mult, f"{tmp}/{i}.json", f"{tmp}/{i}.rep.json"
        theta = theta_of(n)
        doc = config_document(cfg, {"H1": [d + 1 for d in cfg.h0deg]}, {"ell": 3, "seed": 1})
        with open(cpath, "w") as fh:
            json.dump(doc, fh)
        q = quiver_from_config(cfg)
        rep = random_representation(q, n, seed=7)
        write_rep(rpath, rep)
        out += [(i, cpath, cmd) for cmd in commands(rpath, theta)]
        if cfg.s >= 2:
            ypath = f"{tmp}/{i}.y0.rep.json"
            y_zero = tuple((x, 0 * y) for x, y in rep.mats)
            write_rep(ypath, Representation(q, n, "exact", y_zero))
            extra.append((i, cpath, stability(ypath, theta)))
    return out + extra


def main() -> None:
    cases = [
        CurveConfig(((0, 2), (2, 0)), (1, 1), (1, 1), (1, 1)),
        CurveConfig(((-2, 2), (2, -2)), (1, 1), (1, 1), (1, 1)),
        CurveConfig(((-2, 2), (2, -2)), (1, 1), (2, 2), (1, 1)),
        CurveConfig(((2,),), (1,), (2,), (1,)),
        CurveConfig(((0,),), (1,), (1,), (1,)),
    ]
    rng = random.Random(2024)
    cases += [random_config(rng, s_min=1, s_max=4, mult_max=2) for _ in range(20)]
    cases += [random_config(random.Random(seed), 3, 3, mult_max=4) for seed in STRATA_SEEDS]
    draws = [random_config(random.Random(seed), s_min=s, s_max=s, gram_bound=4, mult_max=2)
             for seed, s in CHAMBER_DRAWS]
    with tempfile.TemporaryDirectory() as tmp:
        ladder = invocations(cases, 0, tmp)
        ladder += [(i, f"{tmp}/{i}.json", ["moment-verify", "--trials", "20"])
                   for i in range(FIXTURES)]
        appended = invocations(draws, len(cases), tmp)
        appended += [(i, f"{tmp}/{i}.json", stability(f"{tmp}/{i}.rep.json",
                                                      theta_of(cases[i].mult), ()))
                     for i in range(FIXTURES)]
        for block in (ladder, appended):
            for prefix, flags in (([], ["--json"]), (["text"], [])):
                for i, cpath, cmd in block:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = dispatch([cmd[0], cpath] + flags + cmd[1:])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                    print(*prefix, i, " ".join(c.replace(tmp + "/", "") for c in cmd), code,
                          digest)


if __name__ == "__main__":
    main()
