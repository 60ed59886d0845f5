"""Digests of the CLI's reports, for byte-identity checks between trees.

Usage: ``python tools/report_digests.py <tree>``, where <tree> is a checkout
of this repository. The script imports quiverk3 from ``<tree>/src`` and the
test helpers from ``<tree>/tests``, runs 15 invocations covering all 11
commands on 27 configurations, then the extra invocations below, and prints
one line per invocation: case index, command, exit code and the first 16
hex digits of the sha256 of stdout. The command is the whole invocation
with its temporary directory left out of the paths, so each label names
one invocation (``walls --side both`` and ``walls --side both --global``,
or the seed-7 and the y = 0 representation, differ). It runs every
invocation first with --json and then again in text mode (no --json); a
text-mode line starts with ``text``. Run it on two trees and ``diff`` the
outputs; identical output means byte-identical reports.

The configurations are the five test fixtures, 20
``random_config(random.Random(2024), s_min=1, s_max=4, mult_max=2)`` draws,
and then two strata-heavy draws, ``random_config(random.Random(seed),
s_min=3, s_max=3, mult_max=4)`` for seed 9 and 11 (212 and 269 root
decompositions, reports of 0.36-0.52 MB whose strata share their parts).
The first 375 lines are those of the 25-case ladder before the last two
were appended, and the first 405 lines are those of the 27 cases.

The extra invocations follow, 27 in all: ``stability`` on the seed-7
representation with every y_e set to zero, for each of the 22
configurations with s >= 2 (each verdict is ``CertifiedUnstable``, so
witness bytes are covered; the seed-7 representation itself gives
``NoDestabilizerFound`` in 26 of 27 cases), and ``moment-verify --trials
20`` on the five fixtures. So the 432 --json digests come first, the 405
of the 27 cases leading, and the text-mode digests follow in the same
order.
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
FIXTURES = 5


def stability(rep_path: str, theta: str) -> list[str]:
    return ["stability", "--rep", rep_path, "--theta=" + theta,
            "--probes", "2", "--restarts", "2", "--iters", "50"]


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
    with tempfile.TemporaryDirectory() as tmp:
        invocations, extra = [], []
        for i, cfg in enumerate(cases):
            n, cpath, rpath = cfg.mult, f"{tmp}/{i}.json", f"{tmp}/{i}.rep.json"
            doc = config_document(cfg, {"H1": [d + 1 for d in cfg.h0deg]}, {"ell": 3, "seed": 1})
            with open(cpath, "w") as fh:
                json.dump(doc, fh)
            q = quiver_from_config(cfg)
            rep = random_representation(q, n, seed=7)
            write_rep(rpath, rep)
            theta = ",".join(map(str, [-n[1], n[0]] + [0] * (cfg.s - 2) if cfg.s >= 2 else [0]))
            invocations += [(i, cpath, cmd) for cmd in commands(rpath, theta)]
            if cfg.s >= 2:
                ypath = f"{tmp}/{i}.y0.rep.json"
                y_zero = tuple((x, 0 * y) for x, y in rep.mats)
                write_rep(ypath, Representation(q, n, "exact", y_zero))
                extra.append((i, cpath, stability(ypath, theta)))
        verify = ["moment-verify", "--trials", "20"]
        extra += [(i, f"{tmp}/{i}.json", verify) for i in range(FIXTURES)]
        invocations += extra
        for prefix, flags in (([], ["--json"]), (["text"], [])):
            for i, cpath, cmd in invocations:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = dispatch([cmd[0], cpath] + flags + cmd[1:])
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
                print(*prefix, i, " ".join(c.replace(tmp + "/", "") for c in cmd), code, digest)


if __name__ == "__main__":
    main()
