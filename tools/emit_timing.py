"""CPU time and digest of the CLI's JSON encoder on large reports, for
comparing trees.

Usage: ``python tools/emit_timing.py <tree>``, where <tree> is a checkout of
this repository. The script imports quiverk3 from ``<tree>/src`` and
``random_config`` from ``<tree>/tests/conftest.py``, builds each payload
below as ``dispatch`` would hand it to ``emit`` (the handler's payload under
the schema version and command name), and only then times
``cli._dumps`` on it. It prints one line per payload: its name, the byte
count of the text, the best of 3 CPU times (``time.process_time``) of
``cli._dumps`` in seconds, and the first 16 hex digits of the sha256 of the
text. Run it on two trees one after the other; equal digests mean equal
reports.

The payloads are ``summary`` and ``strata`` of the strata-heavy draws
``random_config(random.Random(seed), 3, 3, mult_max=4)`` for seed 9 and 11
(212 and 269 root decompositions), and ``chambers`` of the 3300-chamber draw
``random_config(random.Random(5), 5, 5, gram_bound=4, mult_max=2)``.
"""

import hashlib
import random
import sys
import time

sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/tests"]

from conftest import random_config  # noqa: E402
from quiverk3 import cli  # noqa: E402

DRAWS = {
    "s9": random_config(random.Random(9), 3, 3, mult_max=4),
    "s11": random_config(random.Random(11), 3, 3, mult_max=4),
    "3300": random_config(random.Random(5), 5, 5, gram_bound=4, mult_max=2),
}
PAYLOADS = (("s9", "summary"), ("s9", "strata"), ("s11", "summary"), ("s11", "strata"),
            ("3300", "chambers"))


def document(cfg, command: str) -> dict:
    args = cli.build_parser().parse_args([command, "config.json", "--json"])
    payload, _lines = cli.COMMANDS[command].handler(cfg, {}, {}, args)
    return {"schema_version": cli.SCHEMA_VERSION, "command": command, **payload}


def main() -> None:
    for draw, command in PAYLOADS:
        doc = document(DRAWS[draw], command)
        best = None
        for _ in range(3):
            t0 = time.process_time()
            text = cli._dumps(doc)
            spent = time.process_time() - t0
            best = spent if best is None else min(best, spent)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        print(f"{draw}-{command}", len(text.encode()), f"{best:.4f}", digest)


if __name__ == "__main__":
    main()
