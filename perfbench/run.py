"""Benchmark of the amoebas package: end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's inputs from the
seed, sets up (timed in fresh processes), runs closed-loop iterations
for S seconds, checks every output, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, in seconds calibrated to the host's
speed (calibrate.py); with --trace 1 untraced and traced iterations
alternate, and the metrics are per layer, in raw seconds.  The line
before it records the environment.  Exits 1 when any check fails and 2
when the package source is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from calibrate import REFERENCE_PROBE_S, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("fold", "grid", "raster", "query")
# set-up is timed in at least SETUP_SAMPLES fresh processes, and in more,
# up to SETUP_MAX_SAMPLES, while they have taken under SETUP_BUDGET_S
SETUP_SAMPLES = 5
SETUP_MAX_SAMPLES = 11
SETUP_BUDGET_S = 5.0
# a set-up probe process runs the calibration kernel for about a tenth of
# this many seconds before its set-up and again after it
SETUP_PROBE_BUSY = 1.5
PROBE_TIMEOUT = 120
MIN_TRACED_ITERATIONS = 2

# per-layer time metrics: (span name, inclusive or self time)
LAYER_TIMES = {
    "bench.self_s": ("bench.iteration", "self"),
    "cli.self_s": ("cli.main", "self"),
    "poly.parse_s": ("poly.parse", "incl"),
    "poly.format_s": ("poly.format", "incl"),
    "cycres.fold_s": ("cycres.fold", "incl"),
    "lopsided.table_build_s": ("lopsided.table_build", "incl"),
    "lopsided.classify_s": ("lopsided.classify", "incl"),
    "lopsided.classify_self_s": ("lopsided.classify", "self"),
    "lopsided.margins_s": ("lopsided.margins", "incl"),
    "lopsided.float_values_s": ("lopsided.float_values", "incl"),
    "gridsolver.approximate_s": ("gridsolver.approximate", "incl"),
    "gridsolver.self_s": ("gridsolver.approximate", "self"),
    "gridsolver.csv_s": ("gridsolver.csv", "incl"),
    "newton.hull_s": ("newton.hull", "incl"),
    "semialg.describe_s": ("semialg.describe", "incl"),
    "semialg.describe_self_s": ("semialg.describe", "self"),
    "semialg.raster_s": ("semialg.raster", "incl"),
    "semialg.raster_self_s": ("semialg.raster", "self"),
    "semialg.certify_log_s": ("semialg.certify_log", "incl"),
    "semialg.certify_log_self_s": ("semialg.certify_log", "self"),
    "render.svg_s": ("render.svg", "incl"),
}
LAYER_COUNTS = (
    "cycres.fold_calls", "cycres.out_terms", "cycres.coeff_bits",
    "poly.format_bytes", "lopsided.table_terms", "lopsided.classify_rows",
    "lopsided.value_cells", *(f"gridsolver.certified_L{k}" for k in range(5)),
    "gridsolver.csv_bytes", "semialg.raster_samples", "semialg.queries",
    "render.svg_bytes",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_samples_s(args):
    """Calibrated set-up times of fresh processes that only import
    and set up.  Each probe process runs the calibration kernel before and
    after its set-up and reports that time, which is taken out of its
    wall time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    samples, spent = [], 0.0
    while len(samples) < SETUP_SAMPLES or (spent < SETUP_BUDGET_S and len(samples) < SETUP_MAX_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        # a blocking wait does not poll; the timer ends a hung probe
        guard = threading.Timer(PROBE_TIMEOUT, proc.kill)
        guard.start()
        try:
            out, _ = proc.communicate()
        finally:
            guard.cancel()
        wall = time.perf_counter() - t0
        spent += wall
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(out.strip().splitlines()[-1])
        samples.append((wall - probe["probe_s"]) * REFERENCE_PROBE_S / probe["probe_mean_s"])
    return samples


def setup_probe(args, tmpdir):
    """Body of a set-up probe process: calibrate, set up, calibrate."""
    cal = Calibration()
    spent = cal.probe(SETUP_PROBE_BUSY)
    from workloads import make

    make(args.workload, args.seed, tmpdir).setup()
    spent += cal.probe(SETUP_PROBE_BUSY)
    print(json.dumps({"probe_s": spent, "probe_mean_s": cal.mean()}))


def timed_iteration(workload, ops, walls, pause=None):
    """One untraced iteration; its per-operation latencies and the time
    its operations took, without the pauses between them."""
    latencies, busy = workload.iteration(pause)
    for op, values in latencies.items():
        ops.setdefault(op, []).extend(values)
    walls.append(busy)


def measure(workload, seconds):
    """Closed loop for ``seconds``, with calibration probes between the
    operations: (the time of each iteration, the calibration)."""
    walls, cal = [], Calibration()
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        timed_iteration(workload, {}, walls, cal.probe)
    return walls, cal


def end_to_end(walls, cal, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "cal_wall_s": {"value": statistics.fmean(walls) * cal.factor(), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced_rounds(workload, seconds):
    """Alternate untraced and traced iterations, so that drift in machine
    speed falls on both sides: (untraced latencies, untraced walls, one
    tracer per traced iteration)."""
    from spans import Tracer, traced

    ops, walls, tracers = {}, [], []
    t_end = time.perf_counter() + seconds
    while len(tracers) < MIN_TRACED_ITERATIONS or time.perf_counter() < t_end:
        timed_iteration(workload, ops, walls)
        tracer = Tracer()
        with traced(tracer), tracer.span("bench.iteration"):
            workload.iteration()
        tracer.settle()
        tracers.append(tracer)
    return ops, walls, tracers


def operation_latencies(ops):
    """Untraced latency of each fold command and of one point query."""
    def median(op):
        return statistics.median(ops[op]) if op in ops else 0.0

    calls = ops.get("certify_log")
    # each pass of 20,000 calls puts 200 samples beyond p99
    p99 = statistics.quantiles(calls, n=100)[98] if calls else 0.0
    return {
        "cli.cres_real_s": {"value": median("fold_real"), "unit": "s"},
        "cli.cres_gauss_s": {"value": median("fold_gauss"), "unit": "s"},
        "cli.cres_3var_s": {"value": median("fold_3var"), "unit": "s"},
        "semialg.certify_log_p50_us": {"value": median("certify_log") * 1e6, "unit": "us"},
        "semialg.certify_log_p99_us": {"value": p99 * 1e6, "unit": "us"},
    }


def per_layer(tracers, untraced_walls):
    """Mean per-iteration layer times; counts, which must repeat exactly."""
    from spans import span_times

    rows, problems = [], []
    for tracer in tracers:
        times = span_times(tracer.spans)
        row = {m: times.get(span, (0.0, 0.0))[kind == "self"] for m, (span, kind) in LAYER_TIMES.items()}
        row["trace.wall_s"] = times["bench.iteration"][0]
        row["trace.self_sum_s"] = sum(own for _, own in times.values())
        counts = {k: tracer.counts[k] for k in LAYER_COUNTS}
        counts["cycres.coeff_bits"] = tracer.maxima["cycres.coeff_bits"]
        counts["lopsided.certified_rows"] = tracer.counts["lopsided.certified_rows"]
        rows.append((row, counts))
    first = rows[0][1]
    if any(counts != first for _, counts in rows):
        problems.append("work counts differ between traced iterations")
    metrics = {m: {"value": statistics.fmean(r[m] for r, _ in rows), "unit": "s"} for m in rows[0][0]}
    for key in LAYER_COUNTS:
        unit = "bytes" if key.endswith("_bytes") else "bits" if key.endswith("_bits") else "count"
        metrics[key] = {"value": first[key], "unit": unit}
    ratio = first["lopsided.certified_rows"] / first["lopsided.classify_rows"] if first["lopsided.classify_rows"] else 0.0
    metrics["lopsided.certified_ratio"] = {"value": ratio, "unit": "ratio"}
    untraced = statistics.fmean(untraced_walls)
    wall = metrics["trace.wall_s"]["value"]
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}
    metrics["trace.accounted_ratio"] = {"value": metrics["trace.self_sum_s"]["value"] / wall, "unit": "ratio"}
    return metrics, problems


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(args, tmpdir):
    import numpy
    import workloads

    setup_samples = [] if args.trace else setup_samples_s(args)
    workload = workloads.make(args.workload, args.seed, tmpdir)
    workload.setup()
    problems, calibration = [], {}
    if args.trace:
        ops, walls, tracers = traced_rounds(workload, args.seconds)
        metrics, problems = per_layer(tracers, walls)
        metrics.update(operation_latencies(ops))
        from spans import write_jsonl

        write_jsonl(os.path.join(ROOT, ".perfbench_out", f"trace-{args.workload}-seed{args.seed}.jsonl"),
                    tracers, min(span[4] for span in tracers[0].spans))
        iterations = len(walls) + len(tracers)
    else:
        walls, cal = measure(workload, args.seconds)
        metrics = end_to_end(walls, cal, statistics.median(setup_samples))
        iterations = len(walls)
        calibration = {"raw_mean_wall_s": statistics.fmean(walls), "probes": len(cal.samples),
                       "probe_mean_s": cal.mean(), "factor": cal.factor()}
    failed, check_problems = workload.check()
    problems += check_problems
    attempted = iterations * workload.ops_per_iteration
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": iterations, "operations": attempted,
        "setup_samples": len(setup_samples), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "amoeba_threads": os.environ["AMOEBA_THREADS"], "commit": git_commit(),
        **calibration,
    }
    print(json.dumps({"env": env}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems and failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "amoebas")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from inputs import RASTER_THREADS

    # the grid runs on the library default of one thread
    os.environ["AMOEBA_THREADS"] = str(RASTER_THREADS if args.workload == "raster" else 1)
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir)
    try:
        if args.setup_probe:
            setup_probe(args, tmpdir)
            return 0
        return run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
