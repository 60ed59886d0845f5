"""Spans around quiverk3's layers, recorded from outside the package.

``Tracer.install`` replaces each listed public function by a wrapper in
every ``quiverk3`` namespace that bound it (``strata`` and ``cli`` import
names from ``walls`` and ``quiver`` directly, so those bindings are patched
too) and ``uninstall`` puts the originals back. A span records its name,
start, end, parent span and operation id; spans stay in memory until the
run writes them out. Self time is a span's duration minus the time its
child spans cover.

Some calls are counted without a span so that their time stays in the
caller's self time: top-level entries into ``walls._fm_core`` (entries from
its own recursion are not counted) and ``walls.lp_feasible_point``, which
runs only when an elimination blows up.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); ``None`` as name means "count only".
# ``reps.is_simple`` and ``reps.check_stability`` get the scalar mode of
# their representation appended to the name.
TARGETS = (
    ("cli", "dispatch", "cli.dispatch"),
    ("cli", "emit", "cli.emit"),
    ("walls", "quiver_walls", "walls.quiver_walls"),
    ("walls", "ample_walls_through_h0", "walls.ample_walls"),
    ("walls", "enumerate_chambers", "walls.enumerate_chambers"),
    ("walls", "is_generic", "walls.is_generic"),
    ("walls", "verify_correspondence", "walls.verify_correspondence"),
    ("walls", "character_general", "walls.character_general"),
    ("walls", "_fm_core", None),
    ("walls", "lp_feasible_point", None),
    ("quiver", "quiver_from_config", "quiver.quiver_from_config"),
    ("quiver", "bounded_roots", "quiver.bounded_roots"),
    ("quiver", "decompositions", "quiver.decompositions"),
    ("quiver", "cb_simple_exists", "quiver.cb_simple_exists"),
    ("strata", "strata_report", "strata.strata_report"),
    ("strata", "singular_model_summary", "strata.singular_model_summary"),
    ("lattice", "mukai_pairing", "lattice.mukai_pairing"),
    ("lattice", "mukai_square", "lattice.mukai_square"),
    ("lattice", "vector_of_beta", "lattice.vector_of_beta"),
    ("lattice", "is_positive", "lattice.is_positive"),
    ("lattice", "slope", "lattice.slope"),
    ("lattice", "degrees", "lattice.degrees"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "mat_vec", "linalg.mat_vec"),
    ("linalg", "mat_inv", "linalg.mat_inv"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "Span.add", "linalg.Span.add"),
    ("linalg", "Span.contains", "linalg.Span.contains"),
    ("reps", "is_simple", "reps.is_simple"),
    ("reps", "check_stability", "reps.check_stability"),
    ("reps", "cyclic_subrep", "reps.cyclic_subrep"),
    ("reps", "graded_invariance_holds", "reps.graded_invariance_holds"),
    ("reps", "direct_sum", "reps.direct_sum"),
    ("reps", "dual", "reps.dual"),
    ("reps", "annihilator_witness", "reps.annihilator_witness"),
    ("reps", "verify_ci_dim", "reps.verify_ci_dim"),
    ("reps", "solve_moment_zero", "reps.solve_moment_zero"),
    ("reps", "moment_differential", "reps.moment_differential"),
    ("reps", "moment_map", "reps.moment_map"),
    ("reps", "numeric_rank", "reps.numeric_rank"),
)
_BY_MODE = {"reps.is_simple", "reps.check_stability"}
LAYERS = ("cli", "lattice", "linalg", "quiver", "reps", "strata", "walls")

# span fields
NAME, START, END, PARENT, OP, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        by_mode = name in _BY_MODE
        ids = {m: self._id(f"{name}.{m}") for m in ("exact", "float")} if by_mode else None
        nid = None if by_mode else self._id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [ids[args[0].mode] if by_mode else nid, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(idx)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span[START], span[END] = t0, time.perf_counter()
                span[FAILED] = failed
                stack.pop()
            if name == "walls.enumerate_chambers":
                counts["walls.chambers"] += result.count
            elif name == "quiver.decompositions":
                counts["quiver.decompositions.count"] += len(result)
            elif name == "linalg.Span.add" and result:
                counts["linalg.span_accepts"] += 1
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                counts[key] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "quiverk3" or k.startswith("quiverk3.")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules[f"quiverk3.{mod_name}"]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._span_wrapper(name, orig))
                continue
            orig = getattr(home, attr)
            key = f"walls.{attr}" if name is None else name
            wrapped = (self._count_wrapper if name is None else self._span_wrapper)(key, orig)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, inclusive and self seconds,
        and calls made directly from each parent name."""
        child_time = defaultdict(float)
        for sp in self.spans:
            if sp[PARENT] >= 0:
                child_time[sp[PARENT]] += sp[END] - sp[START]
        out: dict[str, dict] = {}
        for idx, sp in enumerate(self.spans):
            name = self.names[sp[NAME]]
            row = out.setdefault(name, {"calls": 0, "failed": 0, "incl_s": 0.0,
                                        "self_s": 0.0, "parents": Counter()})
            dur = sp[END] - sp[START]
            row["calls"] += 1
            row["failed"] += sp[FAILED]
            row["incl_s"] += dur
            row["self_s"] += dur - child_time[idx]
            parent = self.names[self.spans[sp[PARENT]][NAME]] if sp[PARENT] >= 0 else None
            row["parents"][parent] += 1
        return out

    def write(self, path) -> None:
        """One JSON header line with the span names, then one line per span:
        [name id, start s, end s, parent index or -1, operation id, failed]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def layer_metrics(agg: dict, counts: Counter, rounds: int, overhead_ratio: float) -> dict:
    """Per-layer metrics as {name: (value, unit)} from ``Tracer.aggregate``
    and ``Tracer.counts``: counts and seconds are per traced round, ratios
    are over the whole traced run."""

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def layer_sum(layer, field):
        return sum(row[field] for name, row in agg.items() if name.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    per_round = {
        "walls.enumerate_chambers.self_s": ("s", get("walls.enumerate_chambers", "self_s")),
        "walls.fm_solves": ("count", counts["walls._fm_core"]),
        "walls.lp_solves": ("count", counts["walls.lp_feasible_point"]),
        "walls.is_generic.self_s": ("s", get("walls.is_generic", "self_s")),
        "walls.verify_correspondence.self_s": ("s", get("walls.verify_correspondence", "self_s")),
        "walls.quiver_walls.calls": ("count", get("walls.quiver_walls", "calls")),
        "walls.ample_walls.calls": ("count", get("walls.ample_walls", "calls")),
        "quiver.bounded_roots.calls": ("count", get("quiver.bounded_roots", "calls")),
        "quiver.bounded_roots.self_s": ("s", get("quiver.bounded_roots", "self_s")),
        "quiver.decompositions.self_s": ("s", get("quiver.decompositions", "self_s")),
        "quiver.decompositions.count": ("count", counts["quiver.decompositions.count"]),
        "quiver.cb_simple_exists.calls": ("count", get("quiver.cb_simple_exists", "calls")),
        "quiver.cb_simple_exists.self_s": ("s", get("quiver.cb_simple_exists", "self_s")),
        "strata.strata_report.self_s": ("s", get("strata.strata_report", "self_s")),
        "strata.singular_model_summary.self_s": ("s", get("strata.singular_model_summary", "self_s")),
        "lattice.calls": ("count", layer_sum("lattice", "calls")),
        "lattice.self_s": ("s", layer_sum("lattice", "self_s")),
        "reps.is_simple.exact_s": ("s", get("reps.is_simple.exact", "incl_s")),
        "reps.is_simple.float_s": ("s", get("reps.is_simple.float", "incl_s")),
        "reps.check_stability.exact_s": ("s", get("reps.check_stability.exact", "incl_s")),
        "reps.check_stability.float_s": ("s", get("reps.check_stability.float", "incl_s")),
        "reps.cyclic_subrep.calls": ("count", get("reps.cyclic_subrep", "calls")),
        "linalg.span_adds": ("count", get("linalg.Span.add", "calls")),
        "linalg.self_s": ("s", layer_sum("linalg", "self_s")),
        "reps.solve_moment_zero.self_s": ("s", get("reps.solve_moment_zero", "self_s")),
        # Gauss-Newton steps: moment_differential calls made by the solver
        "reps.gn_iterations": ("count", agg.get("reps.moment_differential", {}).get(
            "parents", {}).get("reps.solve_moment_zero", 0)),
        "reps.moment_failures": ("count", get("reps.solve_moment_zero", "failed")),
        "cli.dispatch_s": ("s", get("cli.dispatch", "self_s")),
        "cli.emit_s": ("s", get("cli.emit", "incl_s")),
        "cli.report_bytes": ("bytes", counts["cli.report_bytes"]),
    }
    out = {name: (value / rounds, unit) for name, (unit, value) in per_round.items()}
    solves = counts["walls._fm_core"] + counts["walls.lp_feasible_point"]
    out["walls.chambers_per_solve"] = (ratio(counts["walls.chambers"], solves), "ratio")
    out["linalg.span_accept_ratio"] = (
        ratio(counts["linalg.span_accepts"], get("linalg.Span.add", "calls")), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def layer_table(agg: dict, rounds: int) -> list[str]:
    """Self seconds per round for each layer and its spans."""
    total = sum(row["self_s"] for row in agg.values()) or 1.0
    lines = [f"{'span':42s} {'calls/round':>11s} {'self s/round':>12s} {'incl s/round':>12s} {'self %':>7s}"]
    for layer in LAYERS:
        rows = {n: r for n, r in agg.items() if n.startswith(layer + ".")}
        self_s = sum(r["self_s"] for r in rows.values())
        calls = sum(r["calls"] for r in rows.values())
        lines.append(f"{layer:42s} {calls / rounds:11.1f} {self_s / rounds:12.4f} "
                     f"{'':12s} {100 * self_s / total:6.1f}%")
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  {name:40s} {r['calls'] / rounds:11.1f} {r['self_s'] / rounds:12.4f} "
                         f"{r['incl_s'] / rounds:12.4f} {100 * r['self_s'] / total:6.1f}%")
    return lines
