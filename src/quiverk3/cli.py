"""Configuration parsing, command dispatch, and report emission.

Input is a JSON document describing the curve configuration and named
polarizations; output is either a human-readable table or (with --json) a
deterministic JSON report. Exit codes: 0 success, 2 schema error, 3 invariant
violation, 4 failed internal mathematical assertion.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import operator
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable

from .errors import InvariantError, MathAssertionError, SchemaError, _check_count, _check_tol
from .lattice import CurveConfig, DegreeVector
from .quiver import (
    bounded_roots,
    cb_simple_exists,
    quiver_from_config,
    quiver_to_dot,
)
from .strata import singular_model_summary, strata_report
from .walls import (
    LocalModel,
    character_general,
    det_weight_vector,
    v_walls,
    verify_correspondence,
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
        for key in ("chi", "h0deg"):
            if not _is_int(c[key]):
                raise SchemaError(f"curves[{i}].{key} must be an integer")
        chi.append(c["chi"])
        h0deg.append(c["h0deg"])
    gram = _require(doc, "gram", list)
    if len(gram) != len(curves) or any(
        not isinstance(r, list) or len(r) != len(curves) for r in gram
    ):
        raise SchemaError("gram must be an s x s integer matrix")
    if not all(_is_int(e) for row in gram for e in row):
        raise SchemaError("gram entries must be integers")
    mult = _require(doc, "mult", list)
    if len(mult) != len(curves) or not all(map(_is_int, mult)):
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
    if "budget" in options:
        raise SchemaError("options.budget is not read: "
                          "pass --probes, --restarts, --iters and --tol to stability")
    return cfg, pols, options, names


def load_config(source: str):
    """Read a config document from a path or stdin ('-')."""
    try:
        if source == "-":
            doc = json.load(sys.stdin)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    except ValueError as exc:  # bad JSON, too many digits, or a file that is not UTF-8
        raise SchemaError(f"invalid JSON: {exc}") from None
    return parse_config_document(doc)


# ---------------------------------------------------------------------------
# representation files


def _frac_to_json(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _complex_to_json(z) -> list:
    return [z.real, z.imag]


def rep_to_dict(rep) -> dict:
    from .reps import EXACT
    entry = _frac_to_json if rep.mode == EXACT else _complex_to_json
    mats = [
        {key: [[entry(e) for e in row] for row in m] for key, m in zip("xy", pair)}
        for pair in rep.mats
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": rep.mode,
        "n": list(rep.n),
        "matrices": mats,
    }


def _parse_complex(e) -> complex:
    # exact type tests: bool is an int subclass but not a JSON number
    if type(e) is not list or len(e) != 2 or any(type(x) not in (int, float) for x in e):
        raise SchemaError(f"float entries must be [re, im] number pairs, got {e!r}")
    try:
        z = complex(e[0], e[1])
    except OverflowError:  # an integer part too large for a double
        raise SchemaError(f"float entries must be finite, got {e!r}") from None
    if not cmath.isfinite(z):  # json reads NaN and Infinity
        raise SchemaError(f"float entries must be finite, got {e!r}")
    return z


def _parse_matrix(m, rows: int, cols: int, entry, where: str) -> tuple[tuple, ...]:
    if not isinstance(m, list) or len(m) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in m
    ):
        raise SchemaError(f"{where} must be a {rows} x {cols} matrix")
    return tuple(tuple(entry(e) for e in row) for row in m)


def rep_from_dict(quiver, doc: dict):
    from .reps import EXACT, FLOAT, Representation
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
        mats.append((x, y))
    return Representation(quiver, n, mode, tuple(mats))


# ---------------------------------------------------------------------------
# JSON encoding of report objects


_encode_str = json.encoder.encode_basestring_ascii
_INT = frozenset((int,))


def _frac_text(f: Fraction) -> str:
    """``_frac_to_json(f)`` as JSON text: an int, or the string ``"p/q"``."""
    return f"{f.numerator}" if f.denominator == 1 else f'"{f.numerator}/{f.denominator}"'


# the text of each scalar type; bools and None by value
_SCALAR = {
    str: _encode_str,
    int: int.__repr__,
    Fraction: _frac_text,
    float: json.dumps,  # float repr, and json's NaN/Infinity
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_SCALARS = frozenset(_SCALAR)


def _prefixes(inner: str, keys) -> tuple[str, ...]:
    """Each value's prefix in an object whose lines ``inner`` starts: ``{``
    or ``,``, ``inner``, ``"key": ``."""
    return tuple(("," if i else "{") + inner + _encode_str(k) + ": " for i, k in enumerate(keys))


@functools.cache
def _layout(cls, inner: str) -> tuple[operator.attrgetter | None, tuple[str, ...]] | None:
    """A dataclass's getter of its field values in sorted name order, and
    their ``_prefixes``; None for other classes."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = sorted(f.name for f in dataclasses.fields(cls))
    # attrgetter of one name returns the bare value, and of none raises: a
    # lone field is named twice (zip with its one prefix drops the copy),
    # and a class with no fields, spelled {}, needs no getter
    get = operator.attrgetter(*(names * 2 if len(names) == 1 else names)) if names else None
    return get, _prefixes(inner, names)


def _dumps(obj) -> str:
    """Report values as JSON text, indented by 2 from column 0 with sorted
    keys. Dispatch is on exact type only: ``str``, ``int``, ``list``/
    ``tuple``, ``dict`` with ``str`` keys, dataclasses (by field), then
    ``Fraction`` (``_frac_to_json``), ``float`` (json's spelling, NaN and
    Infinity included), ``None``/``True``/``False``, then ``complex``
    (``[re, im]``) and 2-D arrays (rows of such pairs). Anything else,
    subclasses included, raises ``TypeError``.

    The text is written in one pass onto one list of pieces, joined once.
    In a container's loop scalars, lists and tuples of scalars (one piece
    each) and memo hits take no call. One memo works per depth: an object
    met again at the same depth is spelled once. It maps the (id, depth) of
    each object ``write`` spells to the object, which the entry keeps alive
    so that the id is not reused, and the range of its pieces, joined on
    the first reuse. The strata records share their ``StratumPart``s and
    their decompositions' parts ``(k, beta)``, one object per value.
    """
    memo = {}  # (id, depth) -> (obj, start, end), then (obj, text) once reused
    out = []
    append = out.append

    def write(obj, indent: str) -> None:
        """Append obj's text and record its pieces; the loop below reads
        the memo's hits."""
        t, inner, start = type(obj), indent + "  ", len(out)
        if t is list or t is tuple:
            pre, values, close = chain(("[" + inner,), repeat("," + inner)), obj, indent + "]"
        elif t is dict:  # sorted as json sorts; a key that is no str raises here
            keys = sorted(obj)
            pre, values, close = _prefixes(inner, keys), [obj[k] for k in keys], indent + "}"
        elif (layout := _layout(t, inner)) is not None:
            get, pre = layout
            values, close = get(obj) if get else (), indent + "}"
        elif (spell := _SCALAR.get(t)) is not None:
            append(spell(obj))
            return
        else:
            if t is complex:
                values = _complex_to_json(obj)
            elif (np := sys.modules.get("numpy")) and t is np.ndarray and obj.ndim == 2:
                # an array exists only once numpy is loaded, so the test loads nothing
                values = [[_complex_to_json(complex(e)) for e in row] for row in obj.tolist()]
            else:
                raise TypeError(f"cannot encode {t.__name__}")
            t, pre, close = list, chain(("[" + inner,), repeat("," + inner)), indent + "]"
        if not values:
            append("[]" if t is list or t is tuple else "{}")
            return
        depth, deeper = len(inner), inner + "  "
        isep = "," + deeper
        for p, v in zip(pre, values):
            tv = type(v)
            if (spell := _SCALAR.get(tv)) is not None:
                append(p + spell(v))
            elif (hit := memo.get((id(v), depth))) is not None:
                if len(hit) == 3:
                    hit = memo[id(v), depth] = (v, "".join(out[hit[1]:hit[2]]))
                append(p + hit[1])
            elif (tv is tuple or tv is list) and v and _INT.issuperset(map(type, v)):  # no bools
                append(p + "[" + deeper + isep.join(map(int.__repr__, v)) + inner + "]")
            elif (tv is tuple or tv is list) and v and _SCALARS.issuperset(map(type, v)):
                append(p + "[" + deeper + isep.join([_SCALAR[type(x)](x) for x in v]) + inner + "]")
            else:
                append(p)
                write(v, inner)
        append(close)
        memo[id(obj), len(indent)] = (obj, start, len(out))

    try:
        write(obj, "\n")
        return "".join(out)
    finally:
        del write  # its cell refers to it: free the pieces now, not at a collection


def emit(payload: dict, command: str, as_json: bool, lines: Iterable[str]) -> None:
    """Print the report: with ``as_json``, the payload under the schema
    version and command name as indented JSON with sorted keys (``_dumps``),
    else the text lines. Handlers whose lines grow with the report yield
    them lazily, so that JSON mode formats none of them."""
    if as_json:
        doc = {"schema_version": SCHEMA_VERSION, "command": command}
        doc.update(payload)
        print(_dumps(doc))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands: each takes (cfg, pols, options, args) and returns (payload, lines),
# the lines an iterable of text lines


def _seed_from(args, options) -> int:
    seed = args.seed if args.seed is not None else options.get("seed", 0)
    # numpy's generators refuse negative seeds
    if seed < 0:
        raise SchemaError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _check_flags(args, counts, tolerances) -> None:
    """Refuse a negative count flag, or a tolerance flag that is not a
    positive finite number, as a schema error that names the flag."""
    try:
        for flags, check in ((counts, _check_count), (tolerances, _check_tol)):
            for flag in flags:
                value = getattr(args, flag[2:].replace("-", "_"))
                if value is not None:
                    check(flag, value)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


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
    return payload, lines


def _parse_dimvec(text: str, s: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise SchemaError(f"expected {s} comma-separated entries, got {len(parts)}")
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SchemaError(f"bad dimension vector {text!r}: {exc}") from None
    if any(x < 0 for x in vec):
        raise SchemaError(f"bad dimension vector {text!r}: entries must be non-negative")
    return vec


def _cmd_roots(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    n = _parse_dimvec(args.bound, cfg.s) if args.bound else cfg.mult
    roots = bounded_roots(q, n)
    payload = {"n": list(n), "roots": [list(r) for r in roots]}
    lines = chain([f"R+({list(n)}): {len(roots)} roots"], (f"  {list(r)}" for r in roots))
    return payload, lines


def _cmd_walls(cfg, pols, options, args):
    model = LocalModel(cfg)
    payload = {}
    if args.side in ("quiver", "both"):
        payload["quiver_walls"] = model.quiver_walls
    if args.side in ("ample", "both"):
        payload["ample_walls"] = model.ample_walls
    if args.global_walls:
        payload["global_scan"] = [
            {"beta": list(b), "chi_gamma": c, "coeffs": list(co), "through_h0": th}
            for b, c, co, th in v_walls(cfg)
        ]
    if args.side == "both":
        payload["counts_match"] = True

    def lines():
        if "quiver_walls" in payload:
            yield f"quiver walls: {len(payload['quiver_walls'])}"
            for w in payload["quiver_walls"]:
                yield f"  normal {list(w.normal)} sources {[list(s) for s in w.sources]}"
        if "ample_walls" in payload:
            yield f"ample walls through H0: {len(payload['ample_walls'])}"
            for w in payload["ample_walls"]:
                yield f"  beta {list(w.beta)} chi_beta {w.chi_beta} coeffs {list(w.coeffs)}"
        if "global_scan" in payload:
            yield f"v-walls meeting the degree cone: {len(payload['global_scan'])}"
        if "counts_match" in payload:
            yield "wall systems agree"

    return payload, lines()


def _cmd_chambers(cfg, pols, options, args):
    ch = LocalModel(cfg).chambers
    if ch is None:
        note = "no wall structure; non-primitive one-vertex case"
        return {"count": None, "note": note}, [note]
    payload = {
        "count": ch.count,
        "representatives": ch.representatives,
        "signatures": [list(s) for s in ch.signatures],
        "walls": ch.walls,
    }
    lines = chain([f"chambers: {ch.count}"], (
        f"  rep {[str(x) for x in r]} signs {list(s)}"
        for r, s in zip(ch.representatives, ch.signatures)
    ))
    return payload, lines


def _cmd_character(cfg, pols, options, args):
    if args.pol not in pols:
        raise SchemaError(f"polarization {args.pol!r} not defined in the document")
    a = pols[args.pol]
    theta = character_general(cfg, a)
    ell = args.ell if args.ell is not None else options.get("ell", 1)
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
    return payload, lines


def _cmd_correspondence(cfg, pols, options, args):
    report = verify_correspondence(cfg, samples_per_wall=args.samples)
    payload = {"report": report}

    def lines():
        yield f"walls checked: {len(report.walls)} (counts match: {report.wall_counts_match})"
        for w in report.walls:
            yield (f"  beta {list(w.beta)}: {w.sample_count} samples, "
                   f"on image wall: {w.all_on_image_wall}")
        yield f"adjacent chambers probed: {len(report.chambers)}"
        for c in report.chambers:
            yield (f"  signature {list(c.signature)} generic: {c.generic}"
                   + (f" violators {[list(v) for v in c.violators]}" if c.violators else ""))

    return payload, lines()


def _cmd_strata(cfg, pols, options, args):
    records = strata_report(cfg)
    payload = {"strata": records}

    def lines():
        yield f"strata: {len(records)}"
        for r in records:
            tag = " (open)" if r.is_open_stratum else ""
            parts = [(k, list(b)) for k, b in r.decomposition.parts]
            yield f"  dim {r.dim}/{r.ambient_dim}{tag} parts {parts}"

    return payload, lines()


def _cmd_cb_check(cfg, pols, options, args):
    q = quiver_from_config(cfg)
    verdict = cb_simple_exists(q, cfg.mult)
    payload = {"n": list(cfg.mult), "verdict": verdict}
    lines = [
        f"simple representation in mu^-1(0) for n={list(cfg.mult)}: {verdict.exists}",
        f"  {verdict.reason}",
    ]
    return payload, lines


def _cmd_moment_verify(cfg, pols, options, args):
    from .reps import verify_ci_dim
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
        f"matching trials: {report.matching_trials}/{args.trials}"
        + (" (advisory: simple-existence criterion fails)" if report.advisory else ""),
    ]
    for t in report.trials:
        lines.append(
            f"  seed {t.seed}: residual {t.residual:.2e} rank {t.rank} dim {t.local_dim}"
        )
    lines += [f"  {failure}" for failure in report.failures]
    return payload, lines


def _parse_theta(text: str, s: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != s:
        raise SchemaError(f"theta needs {s} entries, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def _cmd_stability(cfg, pols, options, args):
    from .reps import SearchBudget, check_stability
    q = quiver_from_config(cfg)
    try:
        with open(args.rep) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # as in load_config
        raise SchemaError(f"invalid representation JSON: {exc}") from None
    rep = rep_from_dict(q, doc)
    theta = _parse_theta(args.theta, cfg.s)
    if sum(t * x for t, x in zip(theta, rep.n)) != 0:
        raise SchemaError(f"theta . n != 0 for the representation's n = {list(rep.n)}")
    # SearchBudget's defaults, overridden by the flags given; dispatch
    # range-checked those before the command ran
    given = {k: getattr(args, k) for k in ("probes", "restarts", "iters", "tol")}
    budget = SearchBudget(**{k: v for k, v in given.items() if v is not None},
                          seed=_seed_from(args, options))
    verdict = check_stability(rep, theta, budget)
    kind = type(verdict).__name__
    payload = {"theta": theta, "kind": kind, "verdict": verdict, "seed": budget.seed}
    lines = [f"{kind}"]
    if hasattr(verdict, "beta"):
        lines.append(f"  beta {list(verdict.beta)}")
    if hasattr(verdict, "slope"):
        lines.append(f"  slope {verdict.slope}")
    return payload, lines


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
    ] + [f"note: {note}" for note in summary.notes]
    return payload, lines


# a subcommand: its handler, its help, the flags it adds to the config path
# and --json as (flag, add_argument keywords), and which of those flags
# dispatch range-checks as counts and as tolerances
Command = namedtuple("Command", "handler help flags counts tolerances", defaults=((), (), ()))

COMMANDS = {
    "quiver": Command(_cmd_quiver, "DOT graph and Cartan matrix"),
    "roots": Command(_cmd_roots, "bounded positive roots R+(n)", (
        ("--bound", {"help": "comma-separated bound, defaults to mult"}),
    )),
    "walls": Command(_cmd_walls, "wall systems", (
        ("--side", {"choices": ["quiver", "ample", "both"], "default": "both"}),
        ("--global", {"action": "store_true", "dest": "global_walls",
                      "help": "add every v-wall that meets the degree cone a > 0"}),
    )),
    "chambers": Command(_cmd_chambers, "chamber enumeration in n-perp"),
    "character": Command(_cmd_character, "character of a named polarization", (
        ("--pol", {"required": True}),
        ("--ell", {"type": int}),
    )),
    "correspondence": Command(_cmd_correspondence, "verify the wall correspondence", (
        ("--samples", {"type": int, "default": 3}),
    ), counts=("--samples",)),
    "strata": Command(_cmd_strata, "singular-locus stratification"),
    "cb-check": Command(_cmd_cb_check, "simple-representation existence criterion"),
    "moment-verify": Command(_cmd_moment_verify, "dimension check at mu = 0 solutions", (
        ("--trials", {"type": int, "default": 10}),
        ("--tol", {"type": float, "default": 1e-10, "help": "residual tolerance"}),
        ("--rank-tol", {"type": float, "default": 1e-8}),
        ("--seed", {"type": int}),
    ), counts=("--trials",), tolerances=("--tol", "--rank-tol")),
    "stability": Command(_cmd_stability, "King stability search for a representation file", (
        ("--rep", {"required": True}),
        ("--theta", {"required": True, "help": 'comma-separated rationals, e.g. "-1,1"'}),
        ("--probes", {"type": int}),
        ("--restarts", {"type": int}),
        ("--iters", {"type": int}),
        ("--tol", {"type": float}),
        ("--seed", {"type": int}),
    ), counts=("--probes", "--restarts", "--iters"), tolerances=("--tol",)),
    "summary": Command(_cmd_summary, "bundled local-model report"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built from ``COMMANDS``: every option
    default is immutable, so parsing leaves nothing behind for the next
    call."""
    parser = argparse.ArgumentParser(
        prog="quiverk3",
        description="Local quiver models of singular sheaf moduli on a K3: "
        "walls, chambers, characters, moment-map and stability checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("config", help="configuration JSON path, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


def dispatch(argv) -> int:
    """Run one command: load the config (its errors come first), range-check
    the command's flags, run the handler and emit its report."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg, pols, options, _names = load_config(args.config)
        _check_flags(args, command.counts, command.tolerances)
        payload, lines = command.handler(cfg, pols, options, args)
        emit(payload, args.command, args.json, lines)
        return EXIT_OK
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
