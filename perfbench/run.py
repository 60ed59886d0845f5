"""Benchmark of quiverk3, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chambers --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2        # every workload

One run builds the workload's seeded batch (see workloads.py), a list of
rounds that each hold one input of every structural class. A single
closed-loop client runs the rounds in order, from the first again once the
batch is done. An untraced run measures round(--seconds / ROUND_S) whole
rounds, where workloads.ROUND_S is the scaled CPU time (see CALIBRATION_S)
of one round at the commit that added the benchmark; whole rounds, so that
every workload class weighs the same. Every operation's output is checked,
and at the golden seed its digest must equal the one recorded in
golden.json. With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1`` it runs a fixed number of the
batch's first rounds (workloads.TRACE_ROUNDS) twice each, untraced and then
traced, and reports the per-layer metrics per traced round (see spans.py)
and the tracing overhead as traced over untraced time.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. A JSON record with the
environment and every operation goes to perfbench/out/. The exit code is 0
when every operation passed, 1 when one failed, 2 on a usage error or when
the package is missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores this process may use, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

GOLDEN_SEED = 0
# Set-up is timed in SETUP_REPEATS fresh interpreters spread over the run, so
# that their median sees the same changes of the machine's speed as the
# operations. It is CPU time as measured: scaled by calibrations, in the
# interpreter or around it, it spread more, since loading modules does not
# slow with the core as the calibration loop does.
SETUP_REPEATS = 7
# Times are CPU seconds scaled to a machine on which one calibration() call
# takes CALIBRATION_S of CPU. The cores of a shared host change speed by
# tens of percent from one second to the next, and that change slows the
# fixed calibration loop about as much as it slows quiverk3, so the scaled
# times stay. Each operation is scaled by the calibrations run just before
# and just after it: at least CALIBRATION_CALLS calls, and enough of them to
# take CALIBRATION_SHARE of the operation's CPU time. Scaled that way, the
# spread of 50 repeats of one 0.3 s chambers operation fell from 0.29 to
# 0.10 of its median (0.15 with the calibrations after it only).
CALIBRATION_S = 1.5e-3
CALIBRATION_CALLS = 3
CALIBRATION_SHARE = 0.05
# A machine far slower than the calibration, or a change that makes the
# code far slower, stops taking new rounds after WALL_CAP times --seconds of
# wall time, so that a run still ends in bounded time.
WALL_CAP = 1.5
OP_TIMEOUT_S = 30.0
# Operations still to run at the deadline get a ~0 s budget, so a run ends
# soon after it even if every operation hangs. An untraced run's deadline is
# WALL_CAP times --seconds plus this margin for the round under way; a traced
# run, whose work does not depend on --seconds, has a fixed one.
ROUND_MARGIN_S = 30.0
TRACE_DEADLINE_S = 150.0
END_TO_END = (
    ("ops_per_s_scaled", "1/s"),
    ("op_p50_ms_scaled", "ms"),
    ("op_tail_ms_scaled", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the package
    that catches Exception can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record the digests of this run as the golden ones")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():  # else git would search the parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        lines += data.count(b"\n")
        tree.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
    return {
        "git_sha": sha,
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "blas_threads": NPROC,
    }


def calibration():
    """Fixed pure-Python work like quiverk3's own: exact fractions, tuple
    keys and dictionaries. Never changes, so that its CPU time measures the
    speed of the core it ran on."""
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def calibration_s() -> float:
    """CPU seconds of one calibration() call."""
    c0 = time.process_time()
    calibration()
    return time.process_time() - c0


def measure_setup(workload: str, payload: str) -> float:
    """Set-up CPU seconds of a fresh interpreter, timed by ``setup_child``;
    ``payload`` is the JSON list of the workload's input documents."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-only"]
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def setup_child() -> int:
    """Time what quiverk3 does before a workload's first operation: its
    import and the parsing of the input documents, which are read from
    stdin before the clock starts. Prints the CPU seconds."""
    inputs = json.loads(sys.stdin.read())
    t0 = time.process_time()
    from quiverk3 import cli, quiver_from_config

    for doc, rep in inputs:
        config, _, _, _ = cli.parse_config_document(json.loads(doc))
        if rep is not None:
            cli.rep_from_dict(quiver_from_config(config), rep)
    print(time.process_time() - t0)
    return 0


def run_op(op, facts, timeout):
    """(wall seconds, CPU seconds, result, failure) of one timed call."""
    result, failure = None, None
    c0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        try:
            result = op.call(facts)
        finally:  # an alarm that fires in here is still caught below
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure = "timeout"
    except Exception as exc:  # any error of the package fails the operation
        failure = f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - t0, time.process_time() - c0, result, failure


def calibrate(cpu: float = 0.0) -> float:
    """Mean CPU seconds of the calibration() calls owed after an operation
    that took ``cpu`` seconds."""
    calls = []
    while len(calls) < CALIBRATION_CALLS or sum(calls) < CALIBRATION_SHARE * cpu:
        calls.append(calibration_s())
    return statistics.fmean(calls)


def run_round(ops, golden, first_digests, records, deadline, tracer=None, cal=None):
    """One round of operations; returns its busy seconds. Without ``cal``
    they are CPU seconds. With ``cal``, a list that ends with the mean of the
    last calibrations, each operation is followed by calibrate(), untimed by
    it, whose result is appended to ``cal``, and the busy seconds are scaled
    ones."""
    facts: dict = {}
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        timeout = max(1e-3, min(OP_TIMEOUT_S, deadline - time.perf_counter()))
        elapsed, cpu, result, failure = run_op(op, facts, timeout)
        scaled = None
        if cal is not None:
            cal.append(calibrate(cpu))
            scaled = cpu * CALIBRATION_S / ((cal[-2] + cal[-1]) / 2)
        busy += cpu if scaled is None else scaled
        digest = None
        if failure is None:
            try:
                failure = op.check(result, facts)
                digest = op.digest(result)
            except Exception as exc:  # malformed output fails the operation
                failure = f"output check raised {type(exc).__name__}: {exc}"[:300]
        if failure is None:
            if tracer is not None and hasattr(result, "out"):
                tracer.counts["cli.report_bytes"] += len(result.out)
            if first_digests.setdefault(op.id, digest) != digest:
                failure = "output differs from the first run of the operation"
            elif golden is not None and golden.get(op.id) != digest:
                failure = "golden digest mismatch"
        records.append({"op": op.id, "kind": op.kind, "ms": elapsed * 1e3, "cpu_ms": cpu * 1e3,
                        "scaled_ms": None if scaled is None else scaled * 1e3,
                        "status": failure or "ok"})
    return busy


def tail(latencies_ms):
    """Value at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies_ms)
    if len(xs) < 11:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def run_all(args) -> int:
    """Each workload in its own process; non-zero if any check failed."""
    from workloads import WORKLOADS

    status = 0
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
    return status


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "quiverk3" / "__init__.py").is_file():
        print(f"quiverk3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_child()
    if args.workload == "all":
        return run_all(args)
    if args.write_golden and (args.seed != GOLDEN_SEED or args.trace):
        print(f"--write-golden records untraced runs of seed {GOLDEN_SEED} only",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or all",
              file=sys.stderr)
        return 2

    batch = workloads.build(args.workload, args.seed)
    golden_path = BENCH / "golden.json"
    golden_all = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    golden = None
    if args.seed == GOLDEN_SEED and not args.write_golden:
        golden = golden_all.get(args.workload, {})
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    if args.write_golden:  # every round once, bounded by the per-operation timeout only
        deadline = math.inf
    elif args.trace:
        deadline = t0 + TRACE_DEADLINE_S
    else:
        deadline = t0 + WALL_CAP * args.seconds + ROUND_MARGIN_S

    records: list[dict] = []
    first: dict[str, str] = {}
    tracer = None
    untraced_busy = []
    busy = []
    cal: list[float] = []
    planned = None
    setup_times: list[float] = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        run_round(batch.rounds[0], golden, first, records, deadline)  # one-off costs
        start = len(records)
        for ops in batch.rounds[:workloads.TRACE_ROUNDS[args.workload]]:
            # each traced round right after the same round untraced, so that
            # the overhead is not lost in the drift of the machine's speed
            untraced_busy.append(run_round(ops, golden, first, records, deadline))
            tracer.install()
            try:
                busy.append(run_round(ops, golden, first, records, deadline, tracer))
            finally:
                tracer.uninstall()
    else:
        start = 0
        cal.append(calibrate())
        if args.write_golden:  # every round once
            planned, wall_cap = len(batch.rounds), math.inf
        else:
            planned = max(1, round(args.seconds / workloads.ROUND_S[args.workload]))
            wall_cap = WALL_CAP * args.seconds
        payload = json.dumps(batch.inputs)
        setup_wall = 0.0  # the wall cap leaves out the set-up interpreters
        while len(busy) < planned and (
                not busy or time.perf_counter() - t0 - setup_wall < wall_cap):
            w0 = time.perf_counter()
            while len(setup_times) < math.ceil(SETUP_REPEATS * (len(busy) + 1) / planned):
                setup_times.append(measure_setup(args.workload, payload))
            setup_wall += time.perf_counter() - w0
            ops = batch.rounds[len(busy) % len(batch.rounds)]
            busy.append(run_round(ops, golden, first, records, deadline, cal=cal))
        while len(setup_times) < SETUP_REPEATS:  # after a run cut short
            setup_times.append(measure_setup(args.workload, payload))

    measured = records[start:]
    failed = sum(r["status"] != "ok" for r in records)
    rounds = len(busy)
    env = environment()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"quiverk3 benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input: {batch.size}; {len(measured)} operations in {rounds} rounds"
          f"{', each untraced then traced' if args.trace else ''}, one closed-loop client")
    if planned is not None and rounds < planned:
        print(f"only {rounds} of {planned} planned rounds ran within {WALL_CAP:g} x --seconds")
    notes = {}
    if args.trace:
        from spans import layer_metrics, layer_table

        agg = tracer.aggregate()
        overhead = sum(busy) / sum(untraced_busy)
        metrics = layer_metrics(agg, tracer.counts, rounds, overhead)
        for line in layer_table(agg, rounds):
            print(line)
        n = len(measured) // 2
        print(f"{rounds} rounds untraced {sum(untraced_busy):.3f} CPU s"
              f" ({n / sum(untraced_busy):.3f} ops/s) | traced {sum(busy):.3f} CPU s"
              f" ({n / sum(busy):.3f} ops/s) | overhead {100 * (overhead - 1):.1f}%")
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    else:
        # wall and CPU times as measured are shown next to the scaled ones;
        # wall times also carry the time the process waited for a core
        lat = [r["scaled_ms"] for r in measured]
        cpu = [r["cpu_ms"] for r in measured]
        wall = [r["ms"] for r in measured]
        tail_ms, tail_pct, beyond = tail(lat)
        cal_s = statistics.fmean(cal)
        values = {
            "ops_per_s_scaled": len(measured) / sum(busy),
            "op_p50_ms_scaled": statistics.median(lat),
            "op_tail_ms_scaled": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        notes = {
            "ops_per_s_scaled": f"{len(measured)} ops in {sum(busy):.3f} scaled s,"
                                f" {sum(cpu) / 1e3:.3f} CPU s, mean calibration"
                                f" {cal_s * 1e3:.4g} ms; wall"
                                f" {len(measured) / (sum(wall) / 1e3):.4g}/s; {batch.size}",
            "op_p50_ms_scaled": f"CPU {statistics.median(cpu):.4g} ms,"
                                f" wall {statistics.median(wall):.4g} ms",
            "op_tail_ms_scaled": f"p{tail_pct:.1f}, {beyond} of {len(lat)} samples beyond;"
                                 f" CPU {tail(cpu)[0]:.4g} ms, wall {tail(wall)[0]:.4g} ms",
            "setup_s": f"median CPU s of {len(setup_times)} fresh interpreters (import +"
                       " parse) spread over the run: "
                       + ", ".join(f"{t:.3f}" for t in setup_times),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:14s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':40s} {failed / len(records):14.6g} {'ratio':14s} "
          f"{failed} failed of {len(records)} attempted")
    for r in records:
        if r["status"] != "ok":
            print(f"  FAILED {r['op']}: {r['status']}")

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "input": batch.size, "notes": notes,
         "result": result, "operations": records}, indent=1))
    if args.write_golden and failed == 0:
        golden_all[args.workload] = first
        golden_path.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
