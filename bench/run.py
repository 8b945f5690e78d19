#!/usr/bin/env python3
"""Benchmark of tropfan: four fixed-seed workloads, run in one process with
no threads, one closed-loop caller (the next operation starts when the
previous one returns).

    python3 bench/run.py --workload canon --seed 1 --seconds 24 --trace 0

Set-up imports the program from ``src/`` of this checkout and generates the
workload's inputs.  Then every operation runs once untimed, and its answer
is checked against a computation made apart from the program (``oracle``).
Then the whole operation list is timed in a fixed number of passes,
``--seconds`` divided by the workload's nominal pass length (its
``PASS_SECONDS``), so that the count does not depend on how fast the
program is; each operation's median time over the passes, scaled to a
nominal machine speed by the yardstick timed around it (below), is what
the latency and throughput figures are made of.  Every
answer of a timed pass must equal the checked one or pass the check
itself.  After each pass one cold start of the set-up is timed in a fresh
interpreter; ``setup_s`` is their median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics (spans wrapped around each layer's
public functions, see ``spans.py``) with ``--trace 1``.  A summary goes to
standard error.  ``--write-spec`` writes BENCHMARK.json instead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")

WORKLOADS = {"canon": "wl_canon", "member": "wl_member", "lattice": "wl_lattice", "cli": "wl_cli"}
MIN_PASSES = 3
SETUP_STARTS = 8
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_BEYOND = 10

# The shared host's speed changes by up to 2x from one fraction of a second
# to the next, so every timing is taken at the speed of its moment: a fixed
# piece of interpreter work, the yardstick, is timed right before and right
# after it, and a time t taken while the yardstick took y is reported as
# t * YARDSTICK_SECONDS / y, the time at the speed at which the yardstick
# takes YARDSTICK_SECONDS (about its usual time on the 2-vCPU host where
# the benchmark was built).
YARDSTICK_ROUNDS = 800
YARDSTICK_SECONDS = 1e-4


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _fix_hash_seed():
    """Re-run this same process image with PYTHONHASHSEED=0, so that set and
    dict layouts, and with them timings, do not change from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "tropfan", "__init__.py")):
        _fail(f"no tropfan sources under {SRC}")
    if not os.path.isdir(FIXTURES):
        _fail(f"no fixtures directory at {FIXTURES}")
    sys.path.insert(0, SRC)
    import tropfan

    if os.path.dirname(os.path.dirname(os.path.abspath(tropfan.__file__))) != SRC:
        _fail(f"imported tropfan from {tropfan.__file__}, not from {SRC}")


def prepare(workload: str, seed: int, workdir: str) -> list:
    """Import the program and generate the workload's operations."""
    _import_program()
    module = importlib.import_module(WORKLOADS[workload])
    return module.build(random.Random(f"{workload}:{seed}"), workdir)


def _workdir(tag: str) -> str:
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(path)
    return path


def _remove(workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run still uses it


def _yardstick_work() -> int:
    """Small-int arithmetic and dict stores; never calls the program."""
    acc, table = 0, {}
    for i in range(YARDSTICK_ROUNDS):
        acc += (i * 7919) % 13
        table[i & 63] = acc
    return acc


def yardstick() -> float:
    """Seconds the yardstick takes now."""
    start = time.perf_counter()
    _yardstick_work()
    return time.perf_counter() - start


def at_nominal_speed(elapsed: float, yard: float) -> float:
    """``elapsed`` seconds, taken while the yardstick took ``yard``, at the
    speed at which it takes YARDSTICK_SECONDS."""
    return elapsed * YARDSTICK_SECONDS / yard


# ------------------------------------------------------------------ set-up


def _probe(args):
    """Child of ``cold_start``: set up from a cold interpreter, then say so
    with the median yardstick time before and after set-up."""
    yards = [yardstick() for _ in range(3)]
    workdir = _workdir("probe")
    try:
        prepare(args.workload, args.seed, workdir)
        yards += [yardstick() for _ in range(3)]
        print(f"ready {statistics.median(yards)!r}", flush=True)
    finally:
        _remove(workdir)


def cold_start(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to the workload being ready
    to run (import, fixtures loaded and inputs generated), at the speed of
    the yardstick timed in that interpreter."""
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--probe",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    word, _, yard = line.strip().partition(" ")
    if word != "ready" or code != 0:
        _fail(f"set-up of {workload} failed in a fresh interpreter (exit {code})")
    return at_nominal_speed(ready, float(yard))


# ---------------------------------------------------------------- measuring


def _call(op):
    """(answer, failed) for one call; a known fault counts as failed."""
    try:
        return op.run(), False
    except op.known_fault:
        return None, True


def warm_up(ops) -> tuple[list, list]:
    """Run every operation once untimed and check every answer."""
    answers, errors = [], []
    for op in ops:
        answer, failed = _call(op)
        if not failed:
            error = op.check(answer)
            if error:
                errors.append(f"{op.label}: {error}")
        answers.append((answer, failed))
    return answers, errors


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass length."""
    nominal = importlib.import_module(WORKLOADS[workload]).PASS_SECONDS
    return max(MIN_PASSES, round(seconds / nominal))


def timed_passes(ops, reference, passes: int, tracer=None, between=None):
    """Time the operation list ``passes`` times; returns per-operation
    times at nominal speed, failed count, wrong answers, per-pass layer
    snapshots, pass wall times and yardstick times.  The yardstick runs
    between every two operations; each operation is scaled by the mean of
    the yardsticks on its two sides.  ``between`` runs after every pass."""
    times = [[] for _ in ops]
    failed, errors, layers, walls, yards = 0, [], [], [], []
    for _ in range(passes):
        if tracer:
            tracer.reset()
            tracer.install()
        pass_start = time.perf_counter()
        before = yardstick()
        try:
            for i, op in enumerate(ops):
                start = time.perf_counter()
                answer, fault = _call(op)
                elapsed = time.perf_counter() - start
                after = yardstick()
                times[i].append(at_nominal_speed(elapsed, (before + after) / 2))
                yards.append(after)
                before = after
                failed += fault
                ref, ref_fault = reference[i]
                if fault != ref_fault or (not fault and answer != ref and op.check(answer)):
                    errors.append(f"{op.label}: answer changed between passes")
        finally:
            if tracer:
                tracer.uninstall()
        walls.append(time.perf_counter() - pass_start)
        if tracer:
            layers.append(tracer.snapshot())
        if between:
            between()
    return times, failed, errors, layers, walls, yards


def tail_percentile(count: int) -> float:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    for q in TAIL_PERCENTILES:
        if count - math.ceil(q / 100 * count) >= TAIL_BEYOND:
            return q
    return 50.0


def latency_figures(times, failed_per_pass: int) -> dict:
    """Throughput, median and tail over the operations, each operation
    counted with its median time over the passes, which drops the passes
    in which a garbage collection or a burst of the host's noise fell."""
    typical = sorted(statistics.median(t) for t in times)
    q = tail_percentile(len(typical))
    return {
        "ops_per_s": (len(typical) - failed_per_pass) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1e3,
        "latency_tail_ms": typical[math.ceil(q / 100 * len(typical)) - 1] * 1e3,
        "tail_percentile": q,
    }


def run(args) -> dict:
    import spec

    starts = []

    def measure_setup():
        starts.append(cold_start(args.workload, args.seed))

    workdir = _workdir(args.workload)
    try:
        ops = prepare(args.workload, args.seed, workdir)
        reference, errors = warm_up(ops)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        begin = time.perf_counter()
        times, failed, pass_errors, layers, walls, yards = timed_passes(
            ops, reference, pass_count(args.workload, args.seconds), tracer,
            None if args.trace else measure_setup)
        measured = time.perf_counter() - begin
    finally:
        _remove(workdir)
    while not args.trace and len(starts) < SETUP_STARTS:
        measure_setup()
    errors += pass_errors
    passes = len(walls)
    failed_per_pass = sum(f for _, f in reference)
    figures = latency_figures(times, failed_per_pass)
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}
    if args.trace:
        # like the operations, each layer figure is its median over the passes
        values = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
        values["trace.wall_ms"] = statistics.median(walls) * 1e3
        values["trace.ops_per_s"] = figures["ops_per_s"]
        if any(s["trace.layers_self_ms"] > 1e3 * wall for s, wall in zip(layers, walls)):
            errors.append("layer self times exceed the pass wall time")
        names = [name for name, *_ in spec.PER_LAYER]
    else:
        values = dict(figures, setup_s=statistics.median(starts),
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        names = [name for name, *_ in spec.END_TO_END]
    for error in errors[:20]:
        print(f"WRONG {error}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} operations x {passes} passes in {measured:.1f} s, "
          f"{failed_per_pass} failing per pass, tail = p{figures['tail_percentile']:g}, "
          f"yardstick median {statistics.median(yards) * 1e6:.1f} us "
          f"(nominal {YARDSTICK_SECONDS * 1e6:g})", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(ops) * passes,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the root of the checkout and exit")
    args = parser.parse_args()
    if args.write_spec:
        import spec

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(spec.benchmark_json())
        return
    if args.workload is None:
        parser.error("--workload is required")
    _fix_hash_seed()
    if args.probe:
        _probe(args)
        return
    if args.seconds is None:
        import spec

        args.seconds = spec.RUN_SECONDS
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
