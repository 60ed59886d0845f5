"""CPU time and digest of fixed inputs on two checkouts in one process.

Usage: ``python tools/ab_timing.py <parent> <change> [ROW ...]``, two
checkouts of this repository, then optionally the rows to run: a ROW is a
layer, a row name or ``layer/name`` (``is_simple/genus2-5``), and selects
every row it names; with none every row runs. A ROW that names no row
exits 2 and lists them. Each tree's quiverk3 (``src``), ``random_config``
(``tests/conftest.py``) and benchmark inputs (``perfbench/workloads.py``)
load under the same module names, one tree after the other, and both sets
stay loaded. Each tree builds every input of a row with its own code; then
the trees run in turn, the order alternating from run to run, RUNS times
per input, and each keeps the best CPU time (``time.process_time``) of each
input. Run against run in one process, a slow stretch of the host falls on
both trees, which separate runs per tree cannot ensure.

One line per row of ROWS: the layer, the row, the number of inputs, the
parent's and the change's seconds summed over the inputs, their ratio
(change over parent), and the first 16 hex digits of the sha256 of the
results' texts (TEXT). Where the trees disagree both digests print as
``parent!=change``, and the script exits 1 after the last row. The rows
time ``enumerate_chambers`` on two s = 5 draws (728 and 3300 chambers; the
latter's digest is pinned in ``tests/test_walls.py``) and on the 32
``chambers`` benchmark configurations at seed 0, ``verify_correspondence``
on the 3300-chamber draw and on those 32 (its TEXT is ``cli._dumps`` of
the report), ``decompositions``
and ``_simple`` read from a fresh ``walls.LocalModel`` whose ``roots_upto``
was read outside the clock (7-, 8- and 9-curve genus-1 cliques and the 80
``strata`` benchmark configurations at seed 0), and ``cli._dumps`` on
reports as ``dispatch`` hands them to ``emit`` (two s = 3 strata-heavy
draws, the 3300-chamber draw, every document of the ``chambers`` and
``strata`` workloads at seed 0, and the 12.8 MB ``strata`` report of the
8-curve clique's 4140 decompositions, where a cost that grows with the
nesting or the size of a report shows most), and ``is_simple`` on a fresh
copy of each representation per run (three seeded exact
``random_representation``s each of one genus-2 curve, two loops, at mult
5, 6, 7 and 8 and of the affine pair at (4, 4) and (5, 5), and the 418
representations of the ``is_simple`` operations of the ``reps-exact``
benchmark at seed 0; its TEXT is the verdict), exact ``check_stability``
on a fresh copy of the representation of each of the 418 exact
``check_stability`` operations of ``reps-exact`` at seed 0, with the
operation's theta (its TEXT is the verdict's ``repr``), and on the 242
of them that reach the search (``reps-exact-search``: the y = 0 and wall
direct-sum operations; the other 176 are simple and skip it,
so this row's ratio is the search's own), the same 418 as a pair,
``is_simple`` and then exact ``check_stability`` on one fresh copy per run, as a ``reps-exact`` round calls them (its TEXT is the
``repr`` of both verdicts; the ``check_stability`` row alone cannot show
what the second call reuses from the first), and ``verify_ci_dim`` at
20 trials and seed 0 on the eight (fixture, n) cases of the ``reps-float``
benchmark (its TEXT is each trial's seed, ``repr`` of its residual and
rank, so the digest also covers the residual floats), and
``lp_feasible_point`` on the 600 systems of ``test_lp_points_are_pinned``
and the 200 of ``test_lp_points_are_pinned_on_chamber_like_systems`` (its
TEXT is the JSON of the point; no benchmark workload runs the simplex, so
this row is its only A/B). A perf change to another layer adds a row.

Rows compare only by their ratios. A row's absolute seconds swing with
the host's load from row to row and from run to run: two runs of one
tree in one session read its ``check_stability/reps-exact-seed0`` row at
0.7457 s and 1.0287 s, and its ``is_simple+check_stability`` row below
the ``check_stability`` row alone, which cannot hold on a quiet host.
Noise floor: a quoted ratio needs beside it a same-tree run from the same
session (``python tools/ab_timing.py T T``, T one checkout on both sides):
a ratio no farther from 1 than that run reads on its row shows nothing.
Floors measured on a quiet host do not carry over to a busy one. Two
same-tree runs in one session on a shared 2-vCPU VM (Python 3.11.7) read:
enumerate_chambers s5-7 0.814-1.019, 3300 0.990-1.013, chambers-seed0
1.007-1.015; verify_correspondence 3300 0.948-1.007, chambers-seed0
0.995-1.021; decompositions / _simple clique7 1.014-1.049 / 0.995-1.359,
clique8 1.001-1.002 / 0.937-1.006, clique9 0.912-0.991 / 0.977-1.014,
strata-seed0(80) 1.005-1.010 / 1.001-1.004. Two later same-tree runs of
the one-pass encoder, in one session on the same VM, read for the
cli._dumps rows: s9-summary 0.986-1.023, s9-strata 0.968-0.982,
s11-summary 1.007-1.020, s11-strata 0.988-1.002, 3300-chambers
0.999-1.001, 3300-correspondence 0.928-0.971, chambers-seed0 0.978-1.032,
strata-seed0 0.987-0.997, clique8-strata 0.989-0.992. Two same-tree runs
of the one-plan Gauss-Newton search, in one session on the same VM, read
0.981 and 1.001 on the verify_ci_dim row. The Gauss-Newton trials run
as one stacked batch, two A/B runs beside one same-tree run (change on
both sides), minutes apart on the same VM: verify_ci_dim
reps-float-seed0 0.721 and 0.722 (same tree 0.999), every run printing
the one digest 721741ecc2a2d8d1, so the residual floats did not move.
Two same-tree runs of the
fraction-free simplex on the same VM, one per tree, beside its A/B, read
1.001 and 0.998 on lp_feasible_point pinned600 and 1.011 and 1.002 on
chamber-like200. One same-tree run of the interned exact search on the
same VM read 0.992 on check_stability reps-exact-seed0, 0.994 on
reps-exact-search, 1.004 on is_simple+check_stability and 1.004 on
is_simple reps-exact-seed0. The one exact simplicity verdict per
representation, two A/B runs beside one same-tree run in one session on
the same VM: is_simple reps-exact-seed0 0.995 and 0.996 (same tree
0.999); check_stability reps-exact-seed0 1.021 and 1.020 (0.999) and
reps-exact-search 1.036 and 1.019 (0.997), since a fresh non-simple copy
now decides simplicity before its search, which adds the exact closure of
e_i on the 35 whose coordinate probes all span everything; and
is_simple+check_stability, the benchmark's traffic, 0.996 and 0.998
(0.997), within 0.001 of the same-tree run, which shows nothing. The chamber
enumeration that splits each cell only at the walls that cut it, one A/B
run beside one same-tree run, minutes apart on the same VM:
enumerate_chambers s5-7 0.849 (same tree 1.085), 3300 0.756 (0.956) and
chambers-seed0 0.885 (0.979); verify_correspondence 3300 0.703 (0.987)
and chambers-seed0 0.909 (0.996); cli._dumps 3300-chambers 0.999 (0.998),
3300-correspondence 1.009 (1.036) and chambers-seed0 1.000 (1.005). The
encoder did not change, so the cli._dumps rows show nothing, and every
row printed one digest. Rows whose best times sum to under about 0.1 s
of CPU swing the most.
"""

import hashlib
import inspect
import json
import os
import random
import sys
import time
from functools import partial
from types import SimpleNamespace
from unittest import mock

RUNS = 15
OWN_MODULES = ("quiverk3", "conftest", "workloads")
NEEDED = ("src/quiverk3/__init__.py", "tests/conftest.py", "perfbench/workloads.py")


def load(tree: str) -> SimpleNamespace:
    """The tree's package, ``walls``, ``reps``, ``cli``, ``random_config``
    and ``workloads``, and ``modules``, the tree's entries of
    ``sys.modules``; they leave ``sys.modules`` so that the next tree
    imports its own, and code that imports inside a function runs under
    ``mock.patch.dict(sys.modules, t.modules)``."""
    sys.path[:0] = [tree + "/src", tree + "/tests", tree + "/perfbench"]
    try:
        import conftest
        import quiverk3
        import workloads
        from quiverk3 import cli, reps, walls

        return SimpleNamespace(pkg=quiverk3, walls=walls, reps=reps, cli=cli,
                               random_config=conftest.random_config, workloads=workloads,
                               modules={name: mod for name, mod in sys.modules.items()
                                        if name.split(".")[0] in OWN_MODULES})
    finally:
        del sys.path[:3]
        for name in [m for m in sys.modules if m.split(".")[0] in OWN_MODULES]:
            del sys.modules[name]


def draw(seed: int, s: int, **kw):
    """The configurations of a row, built by a tree: one random draw."""
    return lambda t: [t.random_config(random.Random(seed), s, s, **kw)]


def clique(s: int):
    gram = tuple(tuple(0 if i == j else 1 for j in range(s)) for i in range(s))
    return lambda t: [t.pkg.CurveConfig(gram, (1,) * s, (1,) * s, (1,) * s)]


def batch(workload: str):
    return lambda t: [t.cli.parse_config_document(json.loads(doc))[0]
                      for doc, _ in t.workloads.build(workload, 0).inputs]


def chambers(t, cfg) -> list:
    """The inputs of a configuration: thunks, each called once per run
    outside the clock, that return the call to time."""
    q = t.pkg.quiver_from_config(cfg)
    return [lambda: partial(t.pkg.enumerate_chambers, q, cfg.mult)]


def correspondence(t, cfg) -> list:
    return [lambda: partial(t.pkg.verify_correspondence, cfg)]


def model(attr: str):
    def fresh(t, cfg):
        m = t.walls.LocalModel(cfg)
        m.roots_upto
        return partial(getattr, m, attr)
    return lambda t, cfg: [partial(fresh, t, cfg)]


def drawn(gram, n, seeds=range(3)):
    """The representations of a row, built by a tree: seeded exact
    ``random_representation``s of dimension n on the quiver of ``gram``."""
    def build(t):
        s = len(gram)
        q = t.pkg.quiver_from_config(t.pkg.CurveConfig(gram, (1,) * s, n, (1,) * s))
        return [t.reps.random_representation(q, n, seed=seed) for seed in seeds]
    return build


def bench_cells(t, kind: str, suffixes=("",)) -> list[dict]:
    """The closure variables of the ``reps-exact`` benchmark's operations of
    this kind at seed 0 whose id ends in one of ``suffixes``, in batch
    order."""
    with mock.patch.dict(sys.modules, t.modules):  # cli.rep_from_dict imports reps
        rounds = t.workloads.build("reps-exact", 0).rounds
    return [inspect.getclosurevars(op.call).nonlocals
            for ops in rounds for op in ops if op.kind == kind and op.id.endswith(suffixes)]


def bench_simple(t) -> list:
    """The representations of the ``is_simple`` operations of the
    ``reps-exact`` benchmark at seed 0; a wall operation's direct sum is
    built here, outside the clock."""
    return [cell["make_rep"]() for cell in bench_cells(t, "reps.is_simple.exact")]


def simple(t, rep) -> list:
    """A fresh copy of the representation per run, so that no run reads
    the cleared arrows an earlier one kept."""
    return [lambda: partial(t.reps.is_simple, t.reps.Representation(rep.quiver, rep.n, rep.mode,
                                                                    rep.mats))]


def bench_stability(t, suffixes=("",)) -> list:
    """(representation, theta) of the exact ``check_stability`` operations
    of the ``reps-exact`` benchmark at seed 0, built as in ``bench_simple``."""
    return [(cell["make_rep"](), cell["theta"])
            for cell in bench_cells(t, "reps.check_stability.exact", suffixes)]


def bench_search(t) -> list:
    """The 242 of ``bench_stability`` that reach the search, none of them
    simple: the y = 0 (``.unstable``) and wall direct-sum (``.wall``)
    operations."""
    return bench_stability(t, (".unstable", ".wall"))


def stability(t, case) -> list:
    """As ``simple``, a fresh copy of the representation per run."""
    rep, theta = case
    return [lambda: partial(t.reps.check_stability,
                            t.reps.Representation(rep.quiver, rep.n, rep.mode, rep.mats), theta)]


def simple_then_stability(t, case) -> list:
    """``is_simple``, then exact ``check_stability`` with the operation's
    theta, on one fresh copy of the representation per run, as a
    ``reps-exact`` round calls them: the second call may reuse what the
    first kept on the representation."""
    rep, theta = case

    def call(fresh):
        return t.reps.is_simple(fresh), t.reps.check_stability(fresh, theta)
    return [lambda: partial(call, t.reps.Representation(rep.quiver, rep.n, rep.mode, rep.mats))]


def float_cases(t) -> list:
    """The configurations of the eight (fixture, n) cases of the
    ``reps-float`` benchmark, each with its n as mult."""
    w = t.workloads
    return [t.cli.parse_config_document(json.loads(w.config_doc(dict(w.FIXTURES[f], mult=list(n)))))[0]
            for f, n, _ in w.FLOAT_CASES]


def ci_dim(t, cfg) -> list:
    q = t.pkg.quiver_from_config(cfg)
    return [lambda: partial(t.reps.verify_ci_dim, q, cfg.mult, trials=20, seed=0)]


def lp_pinned(t) -> list:
    """The 600 systems of ``test_lp_points_are_pinned`` in
    ``tests/test_walls.py``, as (constraints, nvars); the same data for
    both trees."""
    rng = random.Random(1601)
    systems = []
    for _ in range(600):
        nvars = rng.randint(0, 5)
        systems.append(([(tuple(rng.randint(-5, 5) for _ in range(nvars)), rng.randint(-3, 3))
                         for _ in range(rng.randint(0, 14))], nvars))
    return systems


def lp_chamber_like(t) -> list:
    """The 200 systems of ``chamber_like_systems(3001, 200)`` in
    ``tests/test_walls.py``, the size a Fourier-Motzkin blowup hands over."""
    rng = random.Random(3001)
    systems = []
    for _ in range(200):
        nvars = rng.randint(3, 4)
        point = [0] * nvars
        while not any(point):
            point = [rng.randint(-5, 5) for _ in range(nvars)]
        rows, cons = rng.randint(15, 32), []
        while len(cons) < rows:
            coeffs = [rng.randint(-4, 4) for _ in range(nvars)]
            dot = sum(c * x for c, x in zip(coeffs, point))
            if dot:
                cons.append((tuple(c if dot > 0 else -c for c in coeffs), rng.randint(1, 3)))
        systems.append((cons, nvars))
    return systems


def lp(t, system) -> list:
    return [lambda: partial(t.walls.lp_feasible_point, *system)]


def dumps(*commands: str):
    def document(t, cfg, command: str) -> dict:
        args = t.cli.build_parser().parse_args([command, "config.json", "--json"])
        payload, _lines = t.cli.COMMANDS[command].handler(cfg, {}, {}, args)
        return {"schema_version": t.cli.SCHEMA_VERSION, "command": command, **payload}
    return lambda t, cfg: [partial(partial, t.cli._dumps, document(t, cfg, c)) for c in commands]


TEXT = {  # layer -> the text of one result of a tree, for the digest
    "enumerate_chambers": lambda t, c: json.dumps([
        c.count, [[str(x) for x in theta] for theta in c.representatives],
        [list(sig) for sig in c.signatures]]),
    "decompositions": lambda t, decs: json.dumps([d.parts for d in decs]),
    "_simple": lambda t, table: json.dumps([[b, v.exists, v.violation]
                                            for b, v in sorted(table.items())]),
    "verify_correspondence": lambda t, report: t.cli._dumps(report),
    "cli._dumps": lambda t, text: text,
    "is_simple": lambda t, verdict: json.dumps(verdict),
    "check_stability": lambda t, verdict: repr(verdict),
    "is_simple+check_stability": lambda t, verdicts: repr(verdicts),
    "lp_feasible_point": lambda t, point: json.dumps(point),
    "verify_ci_dim": lambda t, report: json.dumps([[c.seed, repr(c.residual), c.rank]
                                                   for c in report.trials]),
}
S3, S5 = {"mult_max": 4}, {"gram_bound": 4, "mult_max": 2}
GENUS2, AFFINE = ((2,),), ((-2, 2), (2, -2))
ROWS = [  # (layer, name, configurations or representations, inputs of one of them)
    ("enumerate_chambers", "s5-7", draw(7, 5, **S5), chambers),
    ("enumerate_chambers", "3300", draw(5, 5, **S5), chambers),
    ("enumerate_chambers", "chambers-seed0", batch("chambers"), chambers),
    ("verify_correspondence", "3300", draw(5, 5, **S5), correspondence),
    ("verify_correspondence", "chambers-seed0", batch("chambers"), correspondence),
    *[(layer, name, cfgs, model(layer))
      for name, cfgs in [("clique7", clique(7)), ("clique8", clique(8)), ("clique9", clique(9)),
                         ("strata-seed0(80)", batch("strata"))]
      for layer in ("decompositions", "_simple")],
    *[("cli._dumps", f"{name}-{command}", draw(seed, s, **kw), dumps(command))
      for name, seed, s, kw, commands in [("s9", 9, 3, S3, ("summary", "strata")),
                                          ("s11", 11, 3, S3, ("summary", "strata")),
                                          ("3300", 5, 5, S5, ("chambers", "correspondence"))]
      for command in commands],
    ("cli._dumps", "chambers-seed0", batch("chambers"),
     dumps("summary", "chambers", "correspondence")),
    ("cli._dumps", "strata-seed0", batch("strata"), dumps("summary", "strata", "cb-check")),
    ("cli._dumps", "clique8-strata", clique(8), dumps("strata")),
    *[("is_simple", f"genus2-{m}", drawn(GENUS2, (m,)), simple) for m in (5, 6, 7, 8)],
    *[("is_simple", f"affine{m}{m}", drawn(AFFINE, (m, m)), simple) for m in (4, 5)],
    ("is_simple", "reps-exact-seed0", bench_simple, simple),
    ("check_stability", "reps-exact-seed0", bench_stability, stability),
    ("check_stability", "reps-exact-search", bench_search, stability),
    ("is_simple+check_stability", "reps-exact-seed0", bench_stability, simple_then_stability),
    ("verify_ci_dim", "reps-float-seed0", float_cases, ci_dim),
    ("lp_feasible_point", "pinned600", lp_pinned, lp),
    ("lp_feasible_point", "chamber-like200", lp_chamber_like, lp),
]


def measure(pairs, texts) -> tuple[list[float], list[str]]:
    """Each tree's summed best time over its inputs, the two run in turn,
    and each tree's digest of its results, ``texts[k]`` the text of a
    result of tree k."""
    total, digests = [0.0, 0.0], [hashlib.sha256(), hashlib.sha256()]
    for pair in pairs:
        best, values = [float("inf")] * 2, [None, None]
        for run in range(RUNS):
            for k in (0, 1) if run % 2 == 0 else (1, 0):
                call, values[k] = pair[k](), None  # the last result is freed off the clock
                t0 = time.process_time()
                values[k] = call()
                best[k] = min(best[k], time.process_time() - t0)
        for k in (0, 1):
            total[k] += best[k]
            digests[k].update(texts[k](values[k]).encode())
    return total, [d.hexdigest()[:16] for d in digests]


def selected(names: list[str]) -> list | None:
    """The rows of ROWS that the names select, in ROWS order: every row
    when there are none; None when a name selects no row."""
    keys = [{layer, name, f"{layer}/{name}"} for layer, name, _, _ in ROWS]
    if any(not any(x in k for k in keys) for x in names):
        return None
    return [row for row, k in zip(ROWS, keys) if not names or k & set(names)]


def main(argv: list[str]) -> int:
    trees, rows = argv[:2], selected(argv[2:])
    if len(trees) != 2 or not all(os.path.isfile(os.path.join(t, f))
                                  for t in trees for f in NEEDED):
        print("usage: python tools/ab_timing.py <parent> <change> [ROW ...]", file=sys.stderr)
        return 2
    if rows is None:
        print("unknown row; a ROW is a layer, a name or layer/name of:", file=sys.stderr)
        for layer, name, _, _ in ROWS:
            print(f"  {layer}/{name}", file=sys.stderr)
        return 2
    trees = [load(tree) for tree in trees]
    differed = False
    print("layer name inputs parent_s change_s ratio sha256")
    for layer, name, cfgs, inputs in rows:
        sides = [[thunk for cfg in cfgs(t) for thunk in inputs(t, cfg)] for t in trees]
        texts = [partial(TEXT[layer], t) for t in trees]
        (tp, tc), (dp, dc) = measure(list(zip(*sides)), texts)
        differed |= dp != dc
        print(layer, name, len(sides[0]), f"{tp:.4f}", f"{tc:.4f}", f"{tc / tp:.3f}",
              dp if dp == dc else f"{dp}!={dc}", flush=True)
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
