"""CPU time and digests of the root decompositions and the simple-existence
table, for comparing trees.

Usage: ``python tools/strata_timing.py <tree>``, where <tree> is a checkout
of this repository. The script imports quiverk3 from ``<tree>/src`` and the
benchmark's input maker from ``<tree>/perfbench``. For each input it builds
a fresh ``LocalModel`` per run, reads its ``roots_upto`` outside the clock,
and then times ``decompositions`` and ``_simple`` alone, best of 3 CPU runs
(``time.process_time``) in seconds. It prints one line per input: its name,
the root and decomposition counts, the two times, and the first 16 hex
digits of the sha256 of each result (the decompositions' parts, and the
table's (beta, exists, violation) entries, as JSON). Run it on two trees one
after the other; equal digests mean equal results.

The inputs are the 7-, 8- and 9-curve cliques (genus-1 curves meeting
pairwise once; gram 0 on the diagonal and 1 off it, chi, h0deg and mult all
1; 127, 255 and 511 roots), and then one line ``strata-seed0(80)`` for the 80
configurations of the ``strata`` benchmark batch at seed 0, whose times and
digests are summed over the batch. A last line gives the exit code and the
byte count of ``strata --json`` on the 9-curve clique.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]

import workloads  # noqa: E402
from quiverk3 import CurveConfig  # noqa: E402
from quiverk3.cli import dispatch  # noqa: E402
from quiverk3.walls import LocalModel  # noqa: E402

RUNS = 3


def clique(s: int) -> CurveConfig:
    gram = tuple(tuple(0 if i == j else 1 for j in range(s)) for i in range(s))
    return CurveConfig(gram, (1,) * s, (1,) * s, (1,) * s)


def from_document(doc: str) -> CurveConfig:
    d = json.loads(doc)
    return CurveConfig(
        tuple(map(tuple, d["gram"])),
        tuple(c["chi"] for c in d["curves"]),
        tuple(d["mult"]),
        tuple(c["h0deg"] for c in d["curves"]),
    )


def timed(cfg: CurveConfig, name: str):
    """Best CPU time of reading ``name`` from a fresh model, and its value;
    (None, None) when the read raises ``RecursionError``."""
    best = value = None
    for _ in range(RUNS):
        model = LocalModel(cfg)
        model.roots_upto
        t0 = time.process_time()
        try:
            value = getattr(model, name)
        except RecursionError:
            return None, None
        spent = time.process_time() - t0
        best = spent if best is None else min(best, spent)
    return best, value


def measure(name: str, cfgs: list[CurveConfig]) -> None:
    """Print the roots, the decompositions, both summed times and both
    digests of cfgs; a read that raised shows as ``RecursionError``."""
    roots = count = 0
    t_dec = t_simple = 0.0
    h_dec, h_simple = hashlib.sha256(), hashlib.sha256()
    for cfg in cfgs:
        roots += len(LocalModel(cfg).roots_upto)
        spent, decs = timed(cfg, "decompositions")
        if decs is None:
            count = t_dec = h_dec = None
        elif h_dec is not None:
            t_dec += spent
            count += len(decs)
            h_dec.update(json.dumps([d.parts for d in decs]).encode())
        spent, table = timed(cfg, "_simple")
        t_simple += spent
        h_simple.update(json.dumps(
            [[b, v.exists, v.violation] for b, v in sorted(table.items())]).encode())
    dec = ("RecursionError",) * 3 if h_dec is None else (
        count, f"{t_dec:.3f}", h_dec.hexdigest()[:16])
    print(name, roots, dec[0], dec[1], f"{t_simple:.3f}", dec[2], h_simple.hexdigest()[:16])


def main() -> None:
    for s in (7, 8, 9):
        measure(f"clique{s}", [clique(s)])
    cfgs = [from_document(doc) for doc, _ in workloads.build("strata", 0).inputs]
    measure(f"strata-seed0({len(cfgs)})", cfgs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "clique9.json")
        cfg = clique(9)
        with open(path, "w") as fh:
            json.dump({"curves": [{"chi": c, "h0deg": d} for c, d in zip(cfg.chi, cfg.h0deg)],
                       "gram": [list(r) for r in cfg.gram], "mult": list(cfg.mult)}, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = dispatch(["strata", path, "--json"])
            except RecursionError:
                code = "RecursionError"
    print("clique9 strata --json", code, len(out.getvalue().encode()))


if __name__ == "__main__":
    main()
