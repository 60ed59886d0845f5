"""The mutation ledger: named defects of ``src/`` that the tests must see.

Usage: ``python tools/mutants.py [NAME ...]``, from anywhere. It runs every
mutant of ``MUTANTS``, or only those named, against the repository that
holds this script, as its files stand (uncommitted edits included).

A mutant is one text replacement in one ``src/`` file: the exact old text,
which must occur there once, and the new text. Each mutant runs on its own
copy of the repository in a temporary directory, two at a time: first the
tests that the ledger names as its killers, then, if those pass, tier-1
with ``-x``. A mutant is killed when a run fails, and survives when both
pass. One line per mutant gives its outcome, the stage that decided it and
the seconds it took; the script exits 1 when any outcome differs from the
ledger's:
- a defect that survives (an unexpected survivor: no test sees it)
- a defect that its named tests miss and only tier-1 catches (the ledger
  names the wrong tests)
- an equivalent mutant or the control that a test kills (its reason is
  wrong, or a test is flaky)
- a stale mutant, whose old text no longer occurs once in its file

An equivalent mutant changes no result on valid input, so no test can kill
it; the ledger says why for each. The control changes no value at all, and
shows that a survivor is not an artefact of the copy. A mutant that its
named tests kill takes seconds; a survivor takes one whole tier-1 run, and
the ledger, about 3 minutes on two cores. Nothing in the checkout is
written to. The technique is mutation testing (DeMillo, Lipton & Sayward
1978, IEEE Computer 11; Jia & Harman 2011, IEEE Trans. Softw. Eng. 37).
"""

import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
# the tier-1 command of ROADMAP.md, stopping at the first failure
TIER1 = PYTEST + ["--continue-on-collection-errors"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")
OUTCOMES = {
    "named": "killed by its named tests",
    "tier-1": "killed by tier-1 only",
    "survived": "survived tier-1",
    "stale": "stale: its old text does not occur once",
}


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # pytest node ids; empty for a mutant expected to survive
    why_equivalent: str = ""  # set for an equivalent mutant and for the control


MUTANTS = (
    Mutant("positive-root-bound", "src/quiverk3/quiver.py",
           "return d_form(q, alpha) >= -2", "return d_form(q, alpha) >= -4",
           ("tests/test_lattice.py::test_roots_give_positive_vectors",)),
    Mutant("simple-table-violation-strict", "src/quiverk3/quiver.py",
           "violated = top is not None and top[0] >= pr",
           "violated = top is not None and top[0] > pr",
           ("tests/test_quiver.py::test_simple_table_matches_the_per_root_dynamic_program",
            "tests/test_quiver.py::test_cb_simple_exists_matches_decomposition_oracle")),
    Mutant("slope-sign", "src/quiverk3/reps.py",
           "    return num / tot\n", "    return -num / tot\n",
           ("tests/test_reps.py::test_slope_theta",
            "tests/test_reps.py::test_destabilizer_duality")),
    Mutant("modular-pass-one-short", "src/quiverk3/reps.py",
           "np.eye(ni, dtype=np.int64), adders, _P) == ni * N:",
           "np.eye(ni, dtype=np.int64), adders, _P) >= ni * N - 1:",
           ("tests/test_exact_search.py::test_modular_pass_keeps_every_verdict",
            "tests/test_reps.py::test_is_simple_examples")),
    Mutant("positive-euler-clause", "src/quiverk3/lattice.py",
           "        return v.euler != 0\n", "        return True\n",
           ("tests/test_lattice.py::test_is_positive_examples",)),
    Mutant("v-walls-chi-range-low-end", "src/quiverk3/walls.py",
           "range(math.floor(lo) + 1, math.ceil(hi))", "range(math.floor(lo), math.ceil(hi))",
           ("tests/test_walls.py::test_v_walls_match_the_bounded_scan_in_the_cone",
            "tests/test_walls.py::test_v_walls_of_the_elliptic_pair")),
    Mutant("dual-without-swap", "src/quiverk3/reps.py",
           "mats = tuple((y.T, x.T) for x, y in rep.mats)",
           "mats = tuple((x.T, y.T) for x, y in rep.mats)",
           ("tests/test_reps.py::test_dual_involution_and_moment",
            "tests/test_equivariance.py"
            "::test_is_simple_is_invariant_under_duality_and_relabelling")),
    Mutant("det-weight-sign", "src/quiverk3/walls.py",
           "return tuple(x * ell + c for x, c in zip(a.a, cfg.chi))",
           "return tuple(x * ell - c for x, c in zip(a.a, cfg.chi))",
           ("tests/test_walls.py::test_det_weight_vector",
            "tests/test_walls.py::test_restrict_weights")),
    Mutant("mukai-pairing-rank-signs", "src/quiverk3/lattice.py",
           "return c1 - v.rank * w.euler - v.euler * w.rank",
           "return c1 + v.rank * w.euler + v.euler * w.rank",
           ("tests/test_lattice.py::test_pairing_signs_of_the_rank_terms",)),
    Mutant("chamber-budget-fallback-first-ray", "src/quiverk3/walls.py",
           "for v, _, _ in rays))", "for v, _, _ in rays[:1]))",
           ("tests/test_walls.py::test_budget_fallback_inside_enumerate_chambers",)),
    Mutant("float-search-at-given-scale", "src/quiverk3/reps.py",
           "if 0 < norm < 1:", "if False:",
           ("tests/test_float_search.py::test_a_small_wall_sum_is_judged_at_unit_scale",)),
    Mutant("strata-ambient-guard-equality", "src/quiverk3/strata.py",
           "if simple_at_n and (dim > ambient or (dim == ambient and not trivial)):",
           "if simple_at_n and dim > ambient:", (),
           "the guard never fires on valid input: where the simple criterion holds "
           "at n, p(n) exceeds the sum of p over the parts of every other "
           "decomposition, so only the trivial one reaches 2p(n)"),
    Mutant("correspondence-genericity-last-point", "src/quiverk3/walls.py",
           "_genericity(chambers.points[0][1], cfg.mult, model.roots)",
           "_genericity(chambers.points[-1][1], cfg.mult, model.roots)", (),
           "every chamber point gives the same verdict: a root vanishes at a "
           "chamber point only if it is proportional to n, and then on all of n-perp"),
    Mutant("control-strata-dimension-sum", "src/quiverk3/strata.py",
           "dim = sum(2 * pt.p for pt in parts)", "dim = 2 * sum(pt.p for pt in parts)", (),
           "the control: the same integer, summed in another order"),
)


def _pytest(tree: pathlib.Path, args: list[str]) -> bool:
    """True when pytest passes on ``tree`` with these arguments."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def run(mutant: Mutant) -> tuple[str, float]:
    """(outcome, seconds) of one mutant on a fresh copy; the outcome is a
    key of ``OUTCOMES``."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="quiverk3-mutant-") as tmp:
        tree = pathlib.Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            outcome = "stale"
        else:
            target.write_text(text.replace(mutant.old, mutant.new))
            if mutant.killers and not _pytest(tree, PYTEST + list(mutant.killers)):
                outcome = "named"
            else:
                outcome = "survived" if _pytest(tree, TIER1) else "tier-1"
    return outcome, time.perf_counter() - start


def main() -> int:
    names = set(sys.argv[1:])
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for mutant, (outcome, secs) in zip(chosen, pool.map(run, chosen)):
            ok = outcome == ("survived" if mutant.why_equivalent else "named")
            bad += not ok
            note = f" ({mutant.why_equivalent})" if mutant.why_equivalent else ""
            print(f"{'ok ' if ok else 'BAD'} {mutant.name}: {OUTCOMES[outcome]}, "
                  f"{secs:.0f} s{note}", flush=True)
    print(f"{len(chosen)} mutants, {len(chosen) - bad} as the ledger expects, "
          f"{bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
