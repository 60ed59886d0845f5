"""CPU time of the CLI's JSON encoder on large reports, two trees in one
process, and a check that both trees write the same text.

Usage: ``python tools/emit_timing.py <parent> <change>``, where each
argument is a checkout of this repository. The script imports each tree's
quiverk3 from ``<tree>/src``, ``random_config`` from
``<tree>/tests/conftest.py`` and the benchmark's input maker from
``<tree>/perfbench``, one tree after the other under the same module names,
and keeps both sets of modules. Each tree builds every document below as
``dispatch`` would hand it to ``emit`` (the handler's payload under the
schema version and command name), with its own handlers. Then
``cli._dumps`` of the two trees runs interleaved, parent and change in
turn, 15 times per document, and the script asserts that both trees give
equal text. Timing both trees in one process, run against run, keeps the
host's load out of the comparison, which separate runs per tree do not.

It prints one line per document or batch: its name, the number of
documents, the byte count of the text, the parent's and the change's CPU
time (``time.process_time``, the best of the 15 runs of each document,
summed over a batch) in seconds, their ratio, and the first 16 hex digits
of the sha256 of the text.

The documents are ``summary`` and ``strata`` of the strata-heavy draws
``random_config(random.Random(seed), 3, 3, mult_max=4)`` for seed 9 and 11
(212 and 269 root decompositions), and ``chambers`` and ``correspondence``
of the 3300-chamber draw ``random_config(random.Random(5), 5, 5,
gram_bound=4, mult_max=2)``. The two batches are the documents of the
``chambers`` and ``strata`` benchmark workloads at seed 0: ``summary``,
``chambers`` and ``correspondence``, and ``summary``, ``strata`` and
``cb-check``, of every configuration of the batch.
"""

import hashlib
import json
import random
import sys
import time
from types import SimpleNamespace

RUNS = 15
OWN_MODULES = ("quiverk3", "conftest", "workloads")


def load(tree: str) -> SimpleNamespace:
    """The tree's ``cli``, ``random_config`` and ``workloads``; its modules
    leave ``sys.modules`` so that the next tree imports its own."""
    sys.path[:0] = [tree + "/src", tree + "/tests", tree + "/perfbench"]
    try:
        import conftest
        import workloads
        from quiverk3 import cli

        return SimpleNamespace(cli=cli, random_config=conftest.random_config, workloads=workloads)
    finally:
        del sys.path[:3]
        for name in [m for m in sys.modules if m.split(".")[0] in OWN_MODULES]:
            del sys.modules[name]


def document(tree: SimpleNamespace, cfg, command: str) -> dict:
    cli = tree.cli
    args = cli.build_parser().parse_args([command, "config.json", "--json"])
    payload, _lines = cli.COMMANDS[command].handler(cfg, {}, {}, args)
    return {"schema_version": cli.SCHEMA_VERSION, "command": command, **payload}


def cases(tree: SimpleNamespace) -> list[tuple[str, list[dict]]]:
    """(name, documents) of every line, built by the tree's own code."""
    draws = {
        "s9": tree.random_config(random.Random(9), 3, 3, mult_max=4),
        "s11": tree.random_config(random.Random(11), 3, 3, mult_max=4),
        "3300": tree.random_config(random.Random(5), 5, 5, gram_bound=4, mult_max=2),
    }
    out = [
        (f"{draw}-{command}", [document(tree, draws[draw], command)])
        for draw, command in (("s9", "summary"), ("s9", "strata"), ("s11", "summary"),
                              ("s11", "strata"), ("3300", "chambers"), ("3300", "correspondence"))
    ]
    for workload, commands in (("chambers", ("summary", "chambers", "correspondence")),
                               ("strata", ("summary", "strata", "cb-check"))):
        cfgs = [tree.cli.parse_config_document(json.loads(doc))[0]
                for doc, _ in tree.workloads.build(workload, 0).inputs]
        docs = [document(tree, cfg, command) for cfg in cfgs for command in commands]
        out.append((f"{workload}-seed0", docs))
    return out


def best_times(dumps_pair, doc_pair) -> tuple[list[float], str]:
    """The best CPU time of each tree's ``_dumps`` on its document, the
    two run in turn; and the text, which both must give."""
    best, texts = [float("inf")] * 2, [None, None]
    for run in range(RUNS):
        for k in (0, 1) if run % 2 == 0 else (1, 0):
            t0 = time.process_time()
            texts[k] = dumps_pair[k](doc_pair[k])
            best[k] = min(best[k], time.process_time() - t0)
    assert texts[0] == texts[1], "the two trees write different text"
    return best, texts[0]


def main() -> None:
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    dumps_pair = (parent.cli._dumps, change.cli._dumps)
    print("name docs bytes parent_s change_s ratio sha256")
    for (name, docs_p), (_, docs_c) in zip(cases(parent), cases(change)):
        total, size, digest = [0.0, 0.0], 0, hashlib.sha256()
        for doc_pair in zip(docs_p, docs_c):
            best, text = best_times(dumps_pair, doc_pair)
            total = [t + b for t, b in zip(total, best)]
            data = text.encode()
            size += len(data)
            digest.update(data)
        print(name, len(docs_p), size, f"{total[0]:.4f}", f"{total[1]:.4f}",
              f"{total[1] / total[0]:.3f}", digest.hexdigest()[:16])


if __name__ == "__main__":
    main()
