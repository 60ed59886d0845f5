"""Configuration parsing, command dispatch, and report emission.

Input is a JSON document describing the curve configuration and named
polarizations; output is either a human-readable table or (with --json) a
deterministic JSON report. Exit codes: 0 success, 2 schema error, 3 invariant
violation, 4 failed internal mathematical assertion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .errors import InvariantError, MathAssertionError, SchemaError
from .lattice import CurveConfig, DegreeVector
from .quiver import (
    bounded_roots,
    quiver_from_config,
    quiver_to_dot,
)
from .reps import (
    EXACT,
    FLOAT,
    Representation,
    SearchBudget,
    check_stability,
    verify_ci_dim,
)
from .strata import singular_model_summary, strata_report
from .walls import (
    ample_walls_through_h0,
    character_general,
    det_weight_vector,
    enumerate_chambers,
    quiver_walls,
    v_walls_bounded_scan,
    verify_correspondence,
    wall_systems,
    xi_map,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_ASSERTION = 4


# ---------------------------------------------------------------------------
# parsing


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"expected rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse rational {value!r}: {exc}") from None
    raise SchemaError(f"expected integer or 'p/q' string, got {value!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require(doc: dict, key: str, typ) -> object:
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    v = doc[key]
    if not isinstance(v, typ):
        raise SchemaError(f"key {key!r} has wrong type {type(v).__name__}")
    return v


def parse_config_document(doc: dict):
    """Validate a configuration document into (CurveConfig, polarizations,
    options). Raises SchemaError for malformed structure and InvariantError
    for value-level violations."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be a JSON object")
    curves = _require(doc, "curves", list)
    if not curves:
        raise SchemaError("curves list is empty")
    chi, h0deg, names = [], [], []
    for i, c in enumerate(curves):
        if not isinstance(c, dict):
            raise SchemaError(f"curves[{i}] must be an object")
        names.append(str(c.get("name", f"D{i}")))
        if "chi" not in c or "h0deg" not in c:
            raise SchemaError(f"curves[{i}] needs 'chi' and 'h0deg'")
        if not isinstance(c["chi"], int) or isinstance(c["chi"], bool):
            raise SchemaError(f"curves[{i}].chi must be an integer")
        if not isinstance(c["h0deg"], int) or isinstance(c["h0deg"], bool):
            raise SchemaError(f"curves[{i}].h0deg must be an integer")
        chi.append(c["chi"])
        h0deg.append(c["h0deg"])
    gram = _require(doc, "gram", list)
    if len(gram) != len(curves) or any(
        not isinstance(r, list) or len(r) != len(curves) for r in gram
    ):
        raise SchemaError("gram must be an s x s integer matrix")
    for row in gram:
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise SchemaError("gram entries must be integers")
    mult = _require(doc, "mult", list)
    if len(mult) != len(curves) or any(
        not isinstance(m, int) or isinstance(m, bool) for m in mult
    ):
        raise SchemaError("mult must be an integer list matching curves")
    cfg = CurveConfig(
        tuple(tuple(r) for r in gram), tuple(chi), tuple(mult), tuple(h0deg)
    )
    pols_doc = doc.get("polarizations") or {}
    if not isinstance(pols_doc, dict):
        raise SchemaError("polarizations must be an object")
    pols = {}
    for name, vec in pols_doc.items():
        if not isinstance(vec, list) or len(vec) != cfg.s:
            raise SchemaError(f"polarization {name!r} must be a length-{cfg.s} list")
        pols[str(name)] = DegreeVector(tuple(parse_rational(v) for v in vec))
    options = doc.get("options") or {}
    if not isinstance(options, dict):
        raise SchemaError("options must be an object")
    for key in ("seed", "ell"):
        if key in options and not _is_int(options[key]):
            raise SchemaError(f"options.{key} must be an integer")
    budget = options.get("budget") or {}
    if not isinstance(budget, dict):
        raise SchemaError("options.budget must be an object")
    for key in ("probes", "restarts", "iters"):
        if key in budget and not _is_int(budget[key]):
            raise SchemaError(f"options.budget.{key} must be an integer")
    if "tol" in budget and type(budget["tol"]) not in (int, float):
        raise SchemaError("options.budget.tol must be a number")
    return cfg, pols, options, names


def load_config(source: str):
    """Read a config document from a path or stdin ('-')."""
    text = sys.stdin.read() if source == "-" else open(source).read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return parse_config_document(doc)


# ---------------------------------------------------------------------------
# representation files


def _frac_to_json(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rep_to_dict(rep: Representation) -> dict:
    mats = []
    for x, y in rep.mats:
        if rep.mode == EXACT:
            mats.append(
                {
                    "x": [[_frac_to_json(e) for e in row] for row in x],
                    "y": [[_frac_to_json(e) for e in row] for row in y],
                }
            )
        else:
            mats.append(
                {
                    "x": [[[e.real, e.imag] for e in row] for row in np.asarray(x)],
                    "y": [[[e.real, e.imag] for e in row] for row in np.asarray(y)],
                }
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": rep.mode,
        "n": list(rep.n),
        "matrices": mats,
    }


def _parse_complex(e) -> complex:
    # exact type tests: bool is an int subclass but not a JSON number
    if (
        type(e) is list
        and len(e) == 2
        and type(e[0]) in (int, float)
        and type(e[1]) in (int, float)
    ):
        return complex(e[0], e[1])
    raise SchemaError(f"float entries must be [re, im] number pairs, got {e!r}")


def _parse_matrix(m, rows: int, cols: int, entry, where: str) -> tuple[tuple, ...]:
    if not isinstance(m, list) or len(m) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in m
    ):
        raise SchemaError(f"{where} must be a {rows} x {cols} matrix")
    return tuple(tuple(entry(e) for e in row) for row in m)


def rep_from_dict(quiver, doc: dict) -> Representation:
    if not isinstance(doc, dict):
        raise SchemaError("representation document must be a JSON object")
    mode = _require(doc, "mode", str)
    if mode not in (EXACT, FLOAT):
        raise SchemaError(f"unknown representation mode {mode!r}")
    n = tuple(_require(doc, "n", list))
    if len(n) != quiver.s or not all(_is_int(x) and x >= 0 for x in n):
        raise SchemaError(
            f"representation n must be a list of {quiver.s} non-negative integers"
        )
    mats_doc = _require(doc, "matrices", list)
    if len(mats_doc) != len(quiver.orientation):
        raise SchemaError("matrix list does not match the quiver orientation")
    entry = parse_rational if mode == EXACT else _parse_complex
    mats = []
    for k, ((s, t, _), m) in enumerate(zip(quiver.orientation, mats_doc)):
        if not isinstance(m, dict) or "x" not in m or "y" not in m:
            raise SchemaError(f"matrices[{k}] must be an object with 'x' and 'y'")
        x = _parse_matrix(m["x"], n[t], n[s], entry, f"matrices[{k}].x")
        y = _parse_matrix(m["y"], n[s], n[t], entry, f"matrices[{k}].y")
        if mode == FLOAT:
            x = np.array(x, dtype=complex).reshape(n[t], n[s])
            y = np.array(y, dtype=complex).reshape(n[s], n[t])
        mats.append((x, y))
    return Representation(quiver, n, mode, tuple(mats))


# ---------------------------------------------------------------------------
# JSON encoding of report objects


def jsonable(obj):
    if isinstance(obj, Fraction):
        return _frac_to_json(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [[jsonable(complex(e)) for e in row] for row in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot encode {type(obj).__name__}")


def emit(payload: dict, command: str, as_json: bool, lines: list[str]) -> None:
    if as_json:
        doc = {"schema_version": SCHEMA_VERSION, "command": command}
        doc.update(payload)
        print(json.dumps(jsonable(doc), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


def _seed_from(args, options) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("QRL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError(f"QRL_SEED must be an integer, got {env!r}") from None
    return options.get("seed", 0)


def _cmd_quiver(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    dot = quiver_to_dot(q)
    payload = {
        "loops": list(q.loops),
        "edges": [list(r) for r in q.edges],
        "cartan": [list(r) for r in q.cartan()],
        "dot": dot,
    }
    lines = [dot, "", "Cartan matrix:"] + [
        "  " + " ".join(f"{e:4d}" for e in row) for row in q.cartan()
    ]
    emit(payload, "quiver", args.json, lines)
    return EXIT_OK


def _parse_dimvec(text: str, s: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise SchemaError(f"expected {s} comma-separated entries, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"bad dimension vector {text!r}: {exc}") from None


def _cmd_roots(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    n = _parse_dimvec(args.bound, cfg.s) if args.bound else cfg.mult
    roots = bounded_roots(q, n)
    payload = {"n": list(n), "roots": [list(r) for r in roots]}
    lines = [f"R+({list(n)}): {len(roots)} roots"] + [f"  {list(r)}" for r in roots]
    emit(payload, "roots", args.json, lines)
    return EXIT_OK


def _cmd_walls(cfg, pols, options, args):
    if args.side == "both":
        qw, aw = wall_systems(cfg)
    elif args.side == "quiver":
        qw = quiver_walls(quiver_from_config(cfg), cfg.mult)
    else:
        aw = ample_walls_through_h0(cfg)
    payload = {}
    lines = []
    if args.side in ("quiver", "both"):
        payload["quiver_walls"] = qw
        lines.append(f"quiver walls: {len(qw)}")
        lines += [f"  normal {list(w.normal)} sources {[list(s) for s in w.sources]}" for w in qw]
    if args.side in ("ample", "both"):
        payload["ample_walls"] = aw
        lines.append(f"ample walls through H0: {len(aw)}")
        lines += [
            f"  beta {list(w.beta)} chi_beta {w.chi_beta} coeffs {list(w.coeffs)}"
            for w in aw
        ]
        if args.chi_bound is not None:
            scan = v_walls_bounded_scan(cfg, args.chi_bound)
            payload["global_scan"] = [
                {"beta": list(b), "chi_gamma": c, "coeffs": list(co), "through_h0": th}
                for b, c, co, th in scan
            ]
            lines.append(f"global scan (|chi_Gamma| <= {args.chi_bound}): {len(scan)} candidate walls")
    if args.side == "both":
        payload["counts_match"] = True
        lines.append("wall systems agree")
    emit(payload, "walls", args.json, lines)
    return EXIT_OK


def _cmd_chambers(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    try:
        ch = enumerate_chambers(q, cfg.mult)
    except ValueError as exc:
        payload = {"count": None, "note": str(exc)}
        emit(payload, "chambers", args.json, [str(exc)])
        return EXIT_OK
    payload = {
        "count": ch.count,
        "representatives": ch.representatives,
        "signatures": [list(s) for s in ch.signatures],
        "walls": ch.walls,
    }
    lines = [f"chambers: {ch.count}"] + [
        f"  rep {[str(x) for x in r]} signs {list(s)}"
        for r, s in zip(ch.representatives, ch.signatures)
    ]
    emit(payload, "chambers", args.json, lines)
    return EXIT_OK


def _get_pol(pols, name: str) -> DegreeVector:
    if name not in pols:
        raise SchemaError(f"polarization {name!r} not defined in the document")
    return pols[name]


def _cmd_character(cfg, pols, options, args):
    a = _get_pol(pols, args.pol)
    theta = character_general(cfg, a)
    ell = args.ell if args.ell is not None else int(options.get("ell", 1))
    payload = {"pol": args.pol, "a": a.a, "theta": theta}
    lines = [f"theta = {[str(t) for t in theta]}"]
    on_slice = sum(n * x for n, x in zip(cfg.mult, a.a)) == cfg.total_h0deg
    payload["on_slice"] = on_slice
    if on_slice:
        payload["xi"] = xi_map(cfg, a)
    weights = det_weight_vector(cfg, a, ell)
    payload["ell"] = ell
    payload["det_weights"] = weights
    lines.append(f"det weights (ell={ell}) = {[str(w) for w in weights]}")
    emit(payload, "character", args.json, lines)
    return EXIT_OK


def _cmd_correspondence(cfg, pols, options, args):
    report = verify_correspondence(cfg, samples_per_wall=args.samples)
    payload = {"report": report}
    lines = [
        f"walls checked: {len(report.walls)} (counts match: {report.wall_counts_match})",
    ]
    for w in report.walls:
        lines.append(
            f"  beta {list(w.beta)}: {w.sample_count} samples, on image wall: {w.all_on_image_wall}"
        )
    lines.append(f"adjacent chambers probed: {len(report.chambers)}")
    for c in report.chambers:
        lines.append(
            f"  signature {list(c.signature)} generic: {c.generic}"
            + (f" violators {[list(v) for v in c.violators]}" if c.violators else "")
        )
    emit(payload, "correspondence", args.json, lines)
    return EXIT_OK


def _cmd_strata(cfg, pols, options, args):
    records = strata_report(cfg)
    payload = {"strata": records}
    lines = [f"strata: {len(records)}"]
    for r in records:
        tag = " (open)" if r.is_open_stratum else ""
        lines.append(
            f"  dim {r.dim}/{r.ambient_dim}{tag} parts {[(k, list(b)) for k, b in r.decomposition.parts]}"
        )
    emit(payload, "strata", args.json, lines)
    return EXIT_OK


def _cmd_cb_check(cfg, pols, options, args):
    from .quiver import cb_simple_exists

    q = quiver_from_config(cfg)
    verdict = cb_simple_exists(q, cfg.mult)
    payload = {"n": list(cfg.mult), "verdict": verdict}
    lines = [
        f"simple representation in mu^-1(0) for n={list(cfg.mult)}: {verdict.exists}",
        f"  {verdict.reason}",
    ]
    emit(payload, "cb-check", args.json, lines)
    return EXIT_OK


def _cmd_moment_verify(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    seed = _seed_from(args, options)
    report = verify_ci_dim(
        q,
        cfg.mult,
        trials=args.trials,
        rank_tol=args.rank_tol,
        residual_tol=args.tol,
        seed=seed,
    )
    payload = {"seed": seed, "report": report}
    lines = [
        f"expected rank {report.expected_rank}, expected local dim {report.expected_dim}",
        f"matching trials: {report.matching_trials}/{len(report.trials)}"
        + (" (advisory: simple-existence criterion fails)" if report.advisory else ""),
    ]
    for t in report.trials:
        lines.append(
            f"  seed {t.seed}: residual {t.residual:.2e} rank {t.rank} dim {t.local_dim}"
        )
    emit(payload, "moment-verify", args.json, lines)
    return EXIT_OK


def _parse_theta(text: str, s: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise SchemaError(f"theta needs {s} entries, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _cmd_stability(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    try:
        doc = json.loads(open(args.rep).read())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid representation JSON: {exc}") from None
    rep = rep_from_dict(q, doc)
    theta = _parse_theta(args.theta, cfg.s)
    if sum(t * x for t, x in zip(theta, rep.n)) != 0:
        raise SchemaError(f"theta . n != 0 for the representation's n = {list(rep.n)}")
    opts = options.get("budget") or {}
    budget = SearchBudget(
        probes=args.probes if args.probes is not None else int(opts.get("probes", 4)),
        restarts=args.restarts if args.restarts is not None else int(opts.get("restarts", 6)),
        iters=args.iters if args.iters is not None else int(opts.get("iters", 200)),
        tol=args.tol if args.tol is not None else float(opts.get("tol", 1e-8)),
        seed=_seed_from(args, options),
    )
    verdict = check_stability(rep, theta, budget)
    kind = type(verdict).__name__
    payload = {"theta": theta, "kind": kind, "verdict": verdict, "seed": budget.seed}
    lines = [f"{kind}"]
    if hasattr(verdict, "beta"):
        lines.append(f"  beta {list(verdict.beta)}")
    if hasattr(verdict, "slope"):
        lines.append(f"  slope {verdict.slope}")
    emit(payload, "stability", args.json, lines)
    return EXIT_OK


def _cmd_summary(cfg, pols, options, args):
    summary = singular_model_summary(cfg)
    payload = {"summary": summary}
    lines = [
        f"n = {list(summary.n)}, d(n) = {summary.d_of_n}, p(n) = {summary.p_of_n}",
        f"sheaf-side dim 2p(n) = {summary.sheaf_side_dim}; mu^-1(0) dim = {summary.mu_zero_dim}",
        f"simple exists: {summary.simple.exists} ({summary.simple.reason})",
        f"walls: {summary.quiver_wall_count} (quiver) / {summary.ample_wall_count} (ample)",
        f"chambers: {summary.chamber_count}",
        f"strata: {len(summary.strata)}",
    ]
    for note in summary.notes:
        lines.append(f"note: {note}")
    emit(payload, "summary", args.json, lines)
    return EXIT_OK


COMMANDS = {
    "quiver": _cmd_quiver,
    "roots": _cmd_roots,
    "walls": _cmd_walls,
    "chambers": _cmd_chambers,
    "character": _cmd_character,
    "correspondence": _cmd_correspondence,
    "strata": _cmd_strata,
    "cb-check": _cmd_cb_check,
    "moment-verify": _cmd_moment_verify,
    "stability": _cmd_stability,
    "summary": _cmd_summary,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverk3",
        description="Local quiver models of singular sheaf moduli on a K3: "
        "walls, chambers, characters, moment-map and stability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="configuration JSON path, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("quiver", help="DOT graph and Cartan matrix")
    common(p)
    p = sub.add_parser("roots", help="bounded positive roots R+(n)")
    common(p)
    p.add_argument("--bound", help="comma-separated bound, defaults to mult")
    p = sub.add_parser("walls", help="wall systems")
    common(p)
    p.add_argument("--side", choices=["quiver", "ample", "both"], default="both")
    p.add_argument("--chi-bound", type=int, default=None, help="optional global v-wall scan bound")
    p = sub.add_parser("chambers", help="chamber enumeration in n-perp")
    common(p)
    p = sub.add_parser("character", help="character of a named polarization")
    common(p)
    p.add_argument("--pol", required=True)
    p.add_argument("--ell", type=int, default=None)
    p = sub.add_parser("correspondence", help="verify the wall correspondence")
    common(p)
    p.add_argument("--samples", type=int, default=3)
    p = sub.add_parser("strata", help="singular-locus stratification")
    common(p)
    p = sub.add_parser("cb-check", help="simple-representation existence criterion")
    common(p)
    p = sub.add_parser("moment-verify", help="dimension check at mu = 0 solutions")
    common(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.add_argument("--rank-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=None)
    p = sub.add_parser("stability", help="King stability search for a representation file")
    common(p)
    p.add_argument("--rep", required=True)
    p.add_argument("--theta", required=True, help='comma-separated rationals, e.g. "-1,1"')
    p.add_argument("--probes", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p = sub.add_parser("summary", help="bundled local-model report")
    common(p)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, pols, options, _names = load_config(args.config)
        return COMMANDS[args.command](cfg, pols, options, args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InvariantError as exc:
        print(f"invariant violation [{exc.invariant}]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MathAssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
