"""CPU time and digest of chamber enumeration on two s = 5 draws, for
comparing trees.

Usage: ``python tools/chamber_timing.py <tree>``, where <tree> is a checkout
of this repository. The script imports quiverk3 from ``<tree>/src`` and
``random_config`` from ``<tree>/tests/conftest.py``, and prints one line per
draw: its name, its wall and chamber counts, the best of 3 CPU times
(``time.process_time``) of ``enumerate_chambers`` in seconds, and the first
16 hex digits of the sha256 of its ``ChamberSet`` (count, representatives as
``Fraction`` strings and signatures, as JSON; the digest that
``tests/test_walls.py`` pins for the 3300-chamber draw). Run it on two trees
one after the other; equal digests mean equal chamber sets.

The draws are ``random_config(random.Random(seed), 5, 5, gram_bound=4,
mult_max=2)``: ``s5-7`` (seed 7, 19 walls, 728 chambers, a golden chamber
report) and ``3300`` (seed 5, 32 walls, 3300 chambers).
"""

import hashlib
import json
import random
import sys
import time

sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]

from conftest import random_config  # noqa: E402
from quiverk3 import enumerate_chambers, quiver_from_config  # noqa: E402

DRAWS = {"s5-7": 7, "3300": 5}


def main() -> None:
    for name, seed in DRAWS.items():
        cfg = random_config(random.Random(seed), 5, 5, gram_bound=4, mult_max=2)
        q = quiver_from_config(cfg)
        best = None
        for _ in range(3):
            t0 = time.process_time()
            chambers = enumerate_chambers(q, cfg.mult)
            spent = time.process_time() - t0
            best = spent if best is None else min(best, spent)
        doc = [chambers.count, [[str(x) for x in theta] for theta in chambers.representatives],
               [list(sig) for sig in chambers.signatures]]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
        print(name, len(chambers.walls), chambers.count, f"{best:.3f}", digest)


if __name__ == "__main__":
    main()
