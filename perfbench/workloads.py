"""Seeded inputs, operations and output checks of the benchmark workloads.

Inputs are made here, from the seed alone, and handed to quiverk3 only as
configuration documents and representation documents. Configurations are
drawn with the rules of ``tests/conftest.py::random_config``. Random draws
differ wildly in cost (a draw can have 7 walls or 25, 2 decompositions or
4660), so each seeded batch is a list of rounds, and a round holds the first
unused draw of every structural class: exact wall counts for ``chambers``,
bands of decomposition counts for ``strata``. The classes are counted here,
independently of the package, so a defect in the package cannot change
which inputs are chosen. This makes the work of a round nearly independent
of the seed while the seed still picks every configuration and every matrix
entry.

Every operation calls public entry points only: ``cli.dispatch`` with
``--json``, or one ``reps`` library call with the ``direct_sum`` or ``dual``
it works on. Its output is checked by
``check``, which returns a failure message or None, and reduced by
``digest`` to the sha256 that the golden file records for the default seed.
Checks use functions captured at import time, so tracing never wraps them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from quiverk3 import cli, quiver_from_config, reps

WORKLOADS = ("chambers", "strata", "reps-exact", "reps-float")

_graded_invariance_holds = reps.graded_invariance_holds


@dataclass
class Op:
    id: str
    kind: str
    call: Callable[[dict], object]  # timed; reads results of earlier ops
    check: Callable[[object, dict], str | None]
    digest: Callable[[object], str]


@dataclass
class Batch:
    rounds: list[list[Op]]  # every round holds one input of each class
    size: str  # input size, stated next to ops_per_s
    # every (config document, representation document or None) the
    # operations hand to quiverk3; set-up time is the time to parse them
    inputs: list[tuple[str, dict | None]]


# Rounds per batch: about 30 s at the seed commit on one core, so a 20 s run
# seldom sees an input twice.
ROUNDS = {"chambers": 8, "strata": 16, "reps-exact": 22, "reps-float": 10}
# Scaled CPU seconds of one round (see run.CALIBRATION_S), measured at the
# commit that added the benchmark.
# An untraced run measures round(--seconds / ROUND_S) rounds, so the inputs
# it measures depend on the seed alone and not on how fast the code or the
# machine is: a run that ends part-way through a batch after a varying
# number of rounds moves the median and the tail with the inputs it drops.
ROUND_S = {"chambers": 5.0, "strata": 2.0, "reps-exact": 2.6, "reps-float": 3.4}
# The traced run takes the first rounds of the batch, a fixed number so that
# per-round counts depend on seed and code only; untraced and then traced,
# they take about as long as an untraced run.
TRACE_ROUNDS = {"chambers": 4, "strata": 8, "reps-exact": 6, "reps-float": 5}


# ---------------------------------------------------------------------------
# configurations


def random_config(rng, s_min=1, s_max=5, gram_bound=6, mult_max=3) -> dict:
    """Same draw order and rules as tests/conftest.py::random_config."""
    s = rng.randint(s_min, s_max)
    gram = [[0] * s for _ in range(s)]
    for i in range(s):
        gram[i][i] = 2 * rng.randint(-1, gram_bound // 2)
        for j in range(i + 1, s):
            gram[i][j] = gram[j][i] = rng.randint(0, gram_bound)
    mult = [rng.randint(1, mult_max) for _ in range(s)]
    h0deg = [rng.randint(1, 3) for _ in range(s)]
    t = rng.choice([x for x in range(-3, 4) if x != 0])
    return {"gram": gram, "chi": [t * d for d in h0deg], "mult": mult, "h0deg": h0deg}


def config_doc(cfg: dict) -> str:
    curves = [
        {"name": f"D{i}", "chi": c, "h0deg": d}
        for i, (c, d) in enumerate(zip(cfg["chi"], cfg["h0deg"]))
    ]
    return json.dumps({"curves": curves, "gram": cfg["gram"], "mult": cfg["mult"]})


def d_form(gram, beta) -> int:
    s = len(beta)
    return sum(beta[i] * gram[i][j] * beta[j] for i in range(s) for j in range(s))


def _connected(gram, alpha) -> bool:
    support = [i for i, a in enumerate(alpha) if a]
    seen, frontier = {support[0]}, [support[0]]
    while frontier:
        i = frontier.pop()
        for j in support:
            if j not in seen and gram[i][j] > 0:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(support)


def roots_upto(gram, n, include_n=False) -> list[tuple[int, ...]]:
    """Positive roots 0 < alpha <= n: connected support and d(alpha) >= -2."""
    n = tuple(n)
    return [
        alpha
        for alpha in itertools.product(*(range(k + 1) for k in n))
        if any(alpha)
        and (include_n or alpha != n)
        and d_form(gram, alpha) >= -2
        and _connected(gram, alpha)
    ]


def wall_count(gram, n) -> int:
    """Distinct hyperplanes {theta . alpha = 0} of n-perp over the roots."""
    j0 = next(i for i, x in enumerate(n) if x)
    keys = set()
    for alpha in roots_upto(gram, n):
        # alpha restricted to n-perp, in the basis n[j0] e_i - n[i] e_j0
        coeffs = [n[j0] * alpha[i] - n[i] * alpha[j0] for i in range(len(n)) if i != j0]
        g = math.gcd(*coeffs)
        if g == 0:
            continue  # alpha proportional to n
        first = next(c for c in coeffs if c)
        keys.add(tuple(c // g if first > 0 else -c // g for c in coeffs))
    return len(keys)


def decomposition_count(gram, n) -> int:
    """Multisets of positive roots (n itself included) summing to n."""
    n = tuple(n)
    box = list(itertools.product(*(range(k + 1) for k in n)))
    ways = dict.fromkeys(box, 0)
    ways[(0,) * len(n)] = 1
    for beta in roots_upto(gram, n, include_n=True):
        for v in box:  # lexicographic, so v - beta is already final
            prev = tuple(a - b for a, b in zip(v, beta))
            if min(prev) >= 0:
                ways[v] += ways[prev]
    return ways[n]


def _fill_ladder(rng, draw, classify, classes, rounds: int, cap: int = 50000) -> list:
    """Rounds of configurations, one per entry of ``classes`` in that order
    (a class may appear more than once), taken from the first draws that
    fall into each class."""
    need = {k: classes.count(k) * rounds for k in classes}
    found: dict = {k: [] for k in classes}
    for _ in range(cap):
        cfg = draw(rng)
        key = classify(cfg)
        if key in found and len(found[key]) < need[key]:
            found[key].append(cfg)
            if all(len(found[k]) == need[k] for k in found):
                taken = {k: iter(v) for k, v in found.items()}
                return [[next(taken[k]) for k in classes] for _ in range(rounds)]
    raise RuntimeError(f"classes {classes} not filled in {cap} draws")


def _config_inputs(table) -> list[tuple[str, None]]:
    return [(config_doc(cfg), None) for cfgs in table for cfg in cfgs]


# ---------------------------------------------------------------------------
# CLI operations


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def cli_call(argv: list[str], doc: str) -> CliResult:
    """quiverk3 <argv> with the config document on stdin, in this process."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
    finally:
        sys.stdin = stdin
    return CliResult(code, out.getvalue(), err.getvalue())


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _report(res: CliResult, facts: dict, key: str):
    """The parsed report of a successful call, or the failure message."""
    if res.code != 0:
        return None, f"exit {res.code}: {res.err.strip()[:200]}"
    doc = json.loads(res.out)
    facts[key] = doc
    return doc, None


def _cli_op(op_id: str, command: str, doc: str, check, extra=()) -> Op:
    argv = [command, "-", "--json", *extra]
    return Op(
        op_id,
        f"cli.{command}",
        lambda facts: cli_call(argv, doc),
        check,
        lambda res: sha(res.out),
    )


# s = 4 draws (mult_max 2, gram_bound 4) mostly have 10, 13, 14 or 19 walls,
# that is 62, 100, 116 or 212 chambers; in 3000 draws 10, 14 and 19 walls
# came 673, 984 and 705 times, 13 walls 83 times. Each round takes one draw
# with 10 and 19 walls and two with 14, the commonest count. The median
# operation of a run then falls among the 14-wall calls, of twice as many
# draws as with one, and not between two classes, where it would move with
# every seed.
CHAMBER_WALLS = (10, 14, 14, 19)


def _chamber_ops(tag: str, cfg: dict, walls: int) -> list[Op]:
    doc = config_doc(cfg)
    nroots = len(roots_upto(cfg["gram"], cfg["mult"]))

    def check_summary(res, facts):
        doc, err = _report(res, facts, f"{tag}.summary")
        if err:
            return err
        s = doc["summary"]
        if (s["quiver_wall_count"], s["ample_wall_count"]) != (walls, walls):
            return f"wall counts {s['quiver_wall_count']}/{s['ample_wall_count']} != {walls}"
        if s["roots_count"] != nroots:
            return f"roots_count {s['roots_count']} != {nroots}"
        return None

    def check_chambers(res, facts):
        doc, err = _report(res, facts, f"{tag}.chambers")
        if err:
            return err
        if len(doc["representatives"]) != doc["count"]:
            return "representative count differs from chamber count"
        return None

    def check_corr(res, facts):
        doc, err = _report(res, facts, f"{tag}.correspondence")
        if err:
            return err
        if doc["report"]["wall_counts_match"] is not True:
            return "wall_counts_match is not true"
        counts = (
            facts.get(f"{tag}.summary", {}).get("summary", {}).get("chamber_count"),
            facts.get(f"{tag}.chambers", {}).get("count"),
            len(doc["report"]["chambers"]),
        )
        if len(set(counts)) != 1:
            return f"chamber counts of summary/chambers/correspondence disagree: {counts}"
        return None

    return [
        _cli_op(f"{tag}.summary", "summary", doc, check_summary),
        _cli_op(f"{tag}.chambers", "chambers", doc, check_chambers),
        _cli_op(f"{tag}.correspondence", "correspondence", doc, check_corr),
    ]


def _chambers_batch(seed: int) -> Batch:
    rounds = ROUNDS["chambers"]
    rng = random.Random(f"quiverk3-bench/chambers/{seed}")
    table = _fill_ladder(
        rng,
        lambda r: random_config(r, 4, 4, gram_bound=4, mult_max=2),
        lambda c: wall_count(c["gram"], c["mult"]),
        CHAMBER_WALLS,
        rounds,
    )
    batch = [
        [op for i, (walls, cfg) in enumerate(zip(CHAMBER_WALLS, cfgs))
         for op in _chamber_ops(f"r{r}.d{i}w{walls}", cfg, walls)]
        for r, cfgs in enumerate(table)
    ]
    return Batch(batch, f"{rounds} rounds x s=4 configs with {CHAMBER_WALLS} walls"
                        " x summary/chambers/correspondence", _config_inputs(table))


# s = 3 draws (mult_max 4) by number of root decompositions, which sets the
# cost of summary and strata; the top band stays under the 1000-4660
# decompositions of the draws that take 3-10 s. With five bands, an odd
# number, and cb-check the fastest call, the median operation of a run falls
# amid the strata calls of the (40, 60) band; with an even number it falls
# between the strata and summary calls of one band and moves with every seed.
STRATA_BANDS = ((20, 30), (40, 60), (100, 150), (150, 250), (250, 360))


def _strata_band(cfg) -> tuple[int, int] | None:
    if len(roots_upto(cfg["gram"], cfg["mult"])) > 56:
        return None  # skips the costly count; such draws have far more decompositions
    ndec = decomposition_count(cfg["gram"], cfg["mult"])
    return next((b for b in STRATA_BANDS if b[0] <= ndec < b[1]), None)


def _strata_ops(tag: str, cfg: dict) -> list[Op]:
    doc = config_doc(cfg)
    ndec = decomposition_count(cfg["gram"], cfg["mult"])

    def check_summary(res, facts):
        doc, err = _report(res, facts, f"{tag}.summary")
        if err:
            return err
        if len(doc["summary"]["strata"]) != ndec:
            return f"{len(doc['summary']['strata'])} strata != {ndec} decompositions"
        return None

    def check_strata(res, facts):
        doc, err = _report(res, facts, f"{tag}.strata")
        if err:
            return err
        if doc["strata"] != facts.get(f"{tag}.summary", {}).get("summary", {}).get("strata"):
            return "strata report differs from the summary's strata"
        return None

    def check_cb(res, facts):
        doc, err = _report(res, facts, f"{tag}.cb-check")
        if err:
            return err
        if doc["verdict"] != facts.get(f"{tag}.summary", {}).get("summary", {}).get("simple"):
            return "cb-check verdict differs from the summary's"
        return None

    return [
        _cli_op(f"{tag}.summary", "summary", doc, check_summary),
        _cli_op(f"{tag}.strata", "strata", doc, check_strata),
        _cli_op(f"{tag}.cb-check", "cb-check", doc, check_cb),
    ]


def _strata_batch(seed: int) -> Batch:
    rounds = ROUNDS["strata"]
    rng = random.Random(f"quiverk3-bench/strata/{seed}")
    table = _fill_ladder(
        rng, lambda r: random_config(r, 3, 3, mult_max=4), _strata_band, STRATA_BANDS, rounds
    )
    batch = [
        [op for (lo, _), cfg in zip(STRATA_BANDS, cfgs) for op in _strata_ops(f"r{r}.dec{lo}", cfg)]
        for r, cfgs in enumerate(table)
    ]
    return Batch(batch, f"{rounds} rounds x s=3 configs with decompositions in {STRATA_BANDS}"
                        " x summary/strata/cb-check", _config_inputs(table))


# ---------------------------------------------------------------------------
# representations

FIXTURES = {
    "affine": {"gram": [[-2, 2], [2, -2]], "chi": [1, 1], "h0deg": [1, 1]},
    "elliptic": {"gram": [[0, 2], [2, 0]], "chi": [1, 1], "h0deg": [1, 1]},
    "ogrady": {"gram": [[2]], "chi": [1], "h0deg": [1]},
}

# (fixture, n, split of n into two summands of slope zero at the wall theta)
EXACT_CASES = (
    ("affine", (2, 2), ((1, 1), (1, 1))),
    ("affine", (3, 2), None),
    ("affine", (3, 3), ((1, 1), (2, 2))),
    ("elliptic", (2, 2), ((1, 1), (1, 1))),
    ("elliptic", (3, 2), None),
    ("ogrady", (3,), ((1,), (2,))),
    ("ogrady", (4,), ((2,), (2,))),
    ("ogrady", (5,), ((2,), (3,))),
)
FLOAT_CASES = (
    ("affine", (1, 1), None),
    ("affine", (2, 2), ((1, 1), (1, 1))),
    ("affine", (2, 3), None),
    ("elliptic", (1, 1), None),
    ("elliptic", (1, 2), None),
    ("elliptic", (2, 2), ((1, 1), (1, 1))),
    ("ogrady", (2,), ((1,), (1,))),
    ("ogrady", (3,), ((1,), (2,))),
)
MV_TRIALS = 20
MV_MIN_MATCH = 18  # moment-verify must match in >= 90% of trials (criterion 5)
FLOAT_WITNESS_TOL = 1e-8  # the default SearchBudget tolerance


def orientation(gram) -> list[tuple[int, int]]:
    """Loops per vertex first, then i -> j for i < j, one per edge copy."""
    s = len(gram)
    out = [(i, i) for i in range(s) for _ in range(gram[i][i] // 2 + 1)]
    out += [(i, j) for i in range(s) for j in range(i + 1, s) for _ in range(gram[i][j])]
    return out


def _exact_entry(rng) -> int | str:
    f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rep_doc(gram, n, rng, mode: str, zero_y: bool = False) -> dict:
    if mode == "exact":
        def entry():
            return _exact_entry(rng)
    else:
        def entry():
            return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
    zero = 0 if mode == "exact" else [0.0, 0.0]
    mats = []
    for s, t in orientation(gram):
        x = [[entry() for _ in range(n[s])] for _ in range(n[t])]
        y = [[zero if zero_y else entry() for _ in range(n[t])] for _ in range(n[s])]
        mats.append({"x": x, "y": y})
    return {"schema_version": 1, "mode": mode, "n": list(n), "matrices": mats}


def theta_for(n) -> tuple[Fraction, ...]:
    """theta . n = 0 and, for two vertices, theta_1 > 0."""
    return (Fraction(-n[1]), Fraction(n[0])) if len(n) == 2 else (Fraction(0),)


def slope(theta, beta) -> Fraction:
    return sum((t * b for t, b in zip(theta, beta)), Fraction(0)) / sum(beta)


def canon(obj):
    """JSON-ready canonical form of a library result, exact values only."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__, **{
            f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest_of(obj) -> str:
    return sha(json.dumps(canon(obj), sort_keys=True))


def _witness_error(rep, theta, verdict, need: str | None) -> str | None:
    """Certified witnesses must be invariant and have the claimed slope."""
    kind = type(verdict).__name__
    if need == "witness" and kind == "NoDestabilizerFound":
        return "no destabilizer found for a representation that has one"
    if need and need != "witness" and kind != need:
        return f"expected {need}, got {kind}"
    if kind == "NoDestabilizerFound":
        return None
    beta = verdict.beta
    if not 0 < sum(beta) < sum(rep.n):
        return f"witness dimension {beta} is not proper"
    sl = slope(theta, beta)
    if kind == "CertifiedUnstable" and not (sl > 0 and sl == verdict.slope):
        return f"unstable witness slope {verdict.slope} vs computed {sl}"
    if kind == "StrictlySemistableWitness" and sl != 0:
        return f"semistable witness has slope {sl}"
    if rep.mode == "exact":
        if tuple(len(b) for b in verdict.basis) != tuple(beta):
            return "witness basis sizes differ from beta"
        if not _graded_invariance_holds(rep, verdict.basis):
            return "witness is not invariant under the arrows"
        return None
    defect = float_defect(rep, beta, verdict.basis)
    if not defect < FLOAT_WITNESS_TOL:
        return f"float witness defect {defect:.3e} >= {FLOAT_WITNESS_TOL:g}"
    return None


def float_defect(rep, beta, frames) -> float:
    """Sum over arrows of |(1 - P_t) A P_s|^2 for the frames' projections."""
    projs = []
    for i, ni in enumerate(rep.n):
        if beta[i] == 0:
            projs.append(np.zeros((ni, ni), dtype=complex))
        elif beta[i] == ni:
            projs.append(np.eye(ni, dtype=complex))
        else:
            u = np.asarray(frames[i])
            projs.append(u @ u.conj().T)
    total = 0.0
    for (s, t, _), (x, y) in zip(rep.quiver.orientation, rep.mats):
        for a, src, dst in ((x, s, t), (y, t, s)):
            gap = (np.eye(len(projs[dst])) - projs[dst]) @ np.asarray(a) @ projs[src]
            total += float(np.linalg.norm(gap) ** 2)
    return total


def _simple_op(op_id: str, kind: str, make_rep, expect: bool | None = None) -> Op:
    """is_simple; ``expect`` is the verdict where the input fixes it."""

    def check(res, facts):
        if expect is not None and res != expect:
            return f"is_simple is {res} on a representation where it must be {expect}"
        facts[op_id] = res
        return None

    return Op(op_id, kind, lambda facts: reps.is_simple(make_rep()), check, digest_of)


def _stab_op(op_id, kind, make_rep, theta, simple_of: str, need=None) -> Op:
    """check_stability; ``simple_of`` is the is_simple operation on the same
    representation, whose True verdict no certified witness may contradict."""

    def call(facts):
        rep = make_rep()
        return rep, reps.check_stability(rep, theta)

    def check(res, facts):
        rep, verdict = res
        err = _witness_error(rep, theta, verdict, need)
        witness = type(verdict).__name__ != "NoDestabilizerFound"
        if err is None and witness and facts.get(simple_of) is True:
            err = "is_simple said True, but a proper subrepresentation was certified"
        if err is None:
            facts[op_id] = res
        return err

    def digest(res):
        verdict = res[1]
        if res[0].mode == "exact":
            return digest_of(verdict)
        return digest_of([type(verdict).__name__, getattr(verdict, "beta", None)])

    return Op(op_id, kind, call, check, digest)


def _dual_op(op_id: str, source: str) -> Op:
    """dual + annihilator_witness on the witness certified by ``source``."""

    def call(facts):
        rep, verdict = facts[source]
        return reps.dual(rep), reps.annihilator_witness(rep, verdict.beta, verdict.basis)

    def check(res, facts):
        drep, (comp, bases) = res
        rep, verdict = facts[source]
        if comp != tuple(a - b for a, b in zip(rep.n, verdict.beta)):
            return f"annihilator dimension {comp} != n - beta"
        if not _graded_invariance_holds(drep, bases):
            return "annihilator witness is not invariant in the dual"
        return None

    return Op(op_id, "reps.dual+annihilator", call, check, lambda res: digest_of(res[1]))


def _rep(inputs: list, fixture: str, n, rng, mode: str, zero_y: bool = False):
    """A seeded representation, parsed from its document; the config and
    representation documents are appended to ``inputs``."""
    doc = config_doc(dict(FIXTURES[fixture], mult=list(n)))
    rdoc = rep_doc(FIXTURES[fixture]["gram"], n, rng, mode, zero_y)
    inputs.append((doc, rdoc))
    parsed, _, _, _ = cli.parse_config_document(json.loads(doc))
    return cli.rep_from_dict(quiver_from_config(parsed), rdoc)


def _reps_exact_batch(seed: int) -> Batch:
    rng = random.Random(f"quiverk3-bench/reps-exact/{seed}")
    batch, inputs = [], []
    kind = "reps.is_simple.exact"
    stab = "reps.check_stability.exact"
    for r in range(ROUNDS["reps-exact"]):
        ops = []
        for fixture, n, split in EXACT_CASES:
            tag = f"r{r}.{fixture}{''.join(map(str, n))}"
            theta = theta_for(n)
            rep = _rep(inputs, fixture, n, rng, "exact")
            ops.append(_simple_op(f"{tag}.is_simple", kind, lambda rep=rep: rep))
            ops.append(_stab_op(f"{tag}.stability", stab, lambda rep=rep: rep, theta,
                                f"{tag}.is_simple"))
            if len(n) == 2:
                # y = 0 makes V_1 a subrepresentation of slope theta_1 > 0
                unstable = _rep(inputs, fixture, n, rng, "exact", zero_y=True)
                ops.append(_simple_op(f"{tag}.unstable.is_simple", kind,
                                      lambda rep=unstable: rep, expect=False))
                ops.append(_stab_op(f"{tag}.unstable", stab, lambda rep=unstable: rep, theta,
                                    f"{tag}.unstable.is_simple", need="CertifiedUnstable"))
                ops.append(_dual_op(f"{tag}.unstable.dual", f"{tag}.unstable"))
            if split:
                a, b = (_rep(inputs, fixture, m, rng, "exact") for m in split)
                ops.append(_simple_op(f"{tag}.wall.is_simple", kind,
                                      lambda a=a, b=b: reps.direct_sum(a, b), expect=False))
                ops.append(_stab_op(f"{tag}.wall", stab, lambda a=a, b=b: reps.direct_sum(a, b),
                                    theta_for(split[0]), f"{tag}.wall.is_simple", need="witness"))
                ops.append(_dual_op(f"{tag}.wall.dual", f"{tag}.wall"))
        batch.append(ops)
    return Batch(batch, f"{len(batch)} rounds x {len(EXACT_CASES)} fixtures at total dim 3-6",
                 inputs)


def _mv_digest(res: CliResult) -> str:
    """Deterministic part of a moment-verify report: residuals are floats
    whose last digits depend on the BLAS build, so they are left out."""
    if res.code != 0:
        return sha(res.out)
    r = json.loads(res.out)["report"]
    trials = [[t["seed"], t["rank"], t["local_dim"]] for t in r["trials"]]
    keep = [r["n"], r["expected_rank"], r["expected_dim"], r["matching_trials"],
            r["advisory"], len(r["failures"]), trials]
    return sha(json.dumps(keep))


def _mv_op(op_id: str, fixture: str, n, seed: int) -> Op:
    cfg = dict(FIXTURES[fixture], mult=list(n))
    expected_dim = d_form(cfg["gram"], n) + 2 + sum(x * x for x in n) - 1

    def check(res, facts):
        if res.code != 0:
            return f"exit {res.code}: {res.err.strip()[:200]}"
        r = json.loads(res.out)["report"]
        if r["expected_dim"] != expected_dim:
            return f"expected_dim {r['expected_dim']} != 2p(n) + n.n - 1 = {expected_dim}"
        if not r["advisory"] and r["matching_trials"] < MV_MIN_MATCH:
            return f"{r['matching_trials']}/{MV_TRIALS} trials matched"
        return None

    op = _cli_op(op_id, "moment-verify", config_doc(cfg), check,
                 ("--trials", str(MV_TRIALS), "--seed", str(seed)))
    op.digest = _mv_digest
    return op


def _reps_float_batch(seed: int) -> Batch:
    rng = random.Random(f"quiverk3-bench/reps-float/{seed}")
    batch, inputs = [], []
    kind = "reps.is_simple.float"
    stab = "reps.check_stability.float"
    for r in range(ROUNDS["reps-float"]):
        ops = []
        for fixture, n, split in FLOAT_CASES:
            tag = f"r{r}.{fixture}{''.join(map(str, n))}"
            theta = theta_for(n)
            # two seeds per fixture: the median operation of a run is then a
            # moment-verify call, not a border between unlike operations
            for j in range(2):
                ops.append(_mv_op(f"{tag}.moment-verify{j}", fixture, n, rng.randrange(10**6)))
                inputs.append((config_doc(dict(FIXTURES[fixture], mult=list(n))), None))
            rep = _rep(inputs, fixture, n, rng, "float")
            ops.append(_simple_op(f"{tag}.is_simple", kind, lambda rep=rep: rep))
            ops.append(_stab_op(f"{tag}.stability", stab, lambda rep=rep: rep, theta,
                                f"{tag}.is_simple"))
            if split:
                a, b = (_rep(inputs, fixture, m, rng, "float") for m in split)
                ops.append(_simple_op(f"{tag}.wall.is_simple", kind,
                                      lambda a=a, b=b: reps.direct_sum(a, b), expect=False))
                ops.append(_stab_op(f"{tag}.wall", stab, lambda a=a, b=b: reps.direct_sum(a, b),
                                    theta_for(split[0]), f"{tag}.wall.is_simple"))
        batch.append(ops)
    return Batch(batch, f"{len(batch)} rounds x {len(FLOAT_CASES)} fixtures at total dim 2-5",
                 inputs)


def build(workload: str, seed: int) -> Batch:
    return {
        "chambers": _chambers_batch,
        "strata": _strata_batch,
        "reps-exact": _reps_exact_batch,
        "reps-float": _reps_float_batch,
    }[workload](seed)
