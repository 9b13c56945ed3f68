"""obsforge benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is cli_pipeline, monte_carlo or design_sweep (see README.md). The run
sets up five times, then repeats whole rounds of the workload's
operations until S seconds have passed (at least two rounds), checks every
output against the references in checks.py, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, each operation's time divided by a
reference kernel's time sampled next to it; with ``--trace 1`` rounds
alternate between untraced and traced, and the metrics are the per-layer ones from the
traced rounds plus the tracing overhead. Lines before the JSON line, starting with '#', give the
environment, the unscaled figures, per-operation times and, for
design_sweep, the fault ledger.

obsforge is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with an error.
"""

from __future__ import annotations

import argparse
import os
import sys

# Cap BLAS/OpenMP threads before numpy loads; child processes inherit it.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5
MIN_ROUNDS = 2
#: reference-kernel time that the reported timings are scaled to
REFERENCE_S = 0.025


def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import obsforge
    except ImportError as exc:
        sys.exit("perfbench: cannot import obsforge from %s: %s" % (SRC, exc))
    if Path(obsforge.__file__).resolve().parent != SRC / "obsforge":
        sys.exit("perfbench: obsforge was imported from %s, not from %s" % (obsforge.__file__, SRC))
    return obsforge


def child(args):
    """Run a fresh interpreter on the checkout's sources; (seconds, stderr)."""
    from workloads import child_env

    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(str(ROOT)),
                          capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode:
        sys.exit("perfbench: %s failed: %s" % (args, proc.stderr[-2000:]))
    return dt, proc.stderr


def import_times():
    """Cumulative import time of obsforge and of scipy.optimize inside it, from -X importtime."""
    _, err = child(["-X", "importtime", "-c", "import obsforge"])
    cum = {}
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cum[parts[2].strip()] = int(parts[1]) / 1e6
    return {"import.obsforge_s": cum["obsforge"], "import.scipy_optimize_s": cum.get("scipy.optimize", 0.0)}


def peak_rss_mb(in_process):
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run(args, out_dir, bench):
    obsforge = load_program()
    import numpy
    import scipy

    import workloads
    from tracer import Tracer, median_metrics, round_layer_metrics

    wl = workloads.WORKLOADS[args.workload](str(ROOT), args.seed, str(out_dir))
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        child(["-c", "import obsforge"])
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    plain, traced, trace_spans = [], [], []  # rounds: (seconds, ops)
    paired = []  # per plain round: the reference-kernel time paired with each operation
    first, differs = [], []

    def keep(ops):
        """Keep the first round's outputs for the checks; compare each later
        round with it and drop its outputs, so memory does not grow with
        the number of rounds."""
        if not first:
            first.append(ops)
            return ops
        differs.append(not wl.same(ops, first[0]))
        return [o._replace(out=None) for o in ops]

    tracer = Tracer(obsforge)
    wl.sample()
    start = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        ops = wl.round(in_process=bool(args.trace) or wl.in_process)
        plain.append((time.perf_counter() - t0, keep(ops)))
        paired.append(wl.paired_reference())
        if args.trace:
            begin = len(tracer.spans)
            tracer.install()
            try:
                t0 = time.perf_counter()
                ops = wl.round(tracer, in_process=True)
                traced.append((time.perf_counter() - t0, keep(ops)))
            finally:
                tracer.uninstall()
            wl.paired_reference()
            trace_spans.append(tracer.spans[begin:])
    rss = peak_rss_mb(wl.in_process)

    rounds = plain + traced
    problems = wl.check(first[0])
    if any(differs):
        problems.append("%d of %d later rounds differ from the first" % (sum(differs), len(differs)))
    attempted = sum(len(ops) for _, ops in rounds)
    failed = sum(not o.ok for _, ops in rounds for o in ops)

    # Time of each operation of the round (rows: rounds). The host's speed
    # swings by up to 2x over seconds and drifts over minutes, so each
    # operation's time is divided by the reference kernel's time sampled
    # just before and just after it, and taken at the median over rounds.
    # Throughput is then scaled to a host on which the kernel takes
    # REFERENCE_S.
    times = numpy.array([[o.seconds for o in ops] for _, ops in plain])
    relative = numpy.median(times / numpy.array(paired), axis=0)
    completed = statistics.median(sum(o.ok for o in ops) for _, ops in plain)
    ops_per_s = completed / (relative.sum() * REFERENCE_S)
    unscaled = completed / numpy.median(times, axis=0).sum()
    by_kind = {}
    for o, t in zip(plain[0][1], times.T):
        by_kind.setdefault(o.kind, []).extend(t)
    print("# workload %s seed %d trace %d: %d rounds, %d operations attempted, %d failed"
          % (args.workload, args.seed, args.trace, len(rounds), attempted, failed))
    print("# nproc %d, threads %s, python %s, numpy %s, scipy %s"
          % (os.cpu_count(), THREADS, platform.python_version(), numpy.__version__, scipy.__version__))
    print("# reference kernel median %.6f s over %d samples; unscaled ops_per_s %.6f 1/s"
          % (statistics.median(wl.reference_s), len(wl.reference_s), unscaled))
    for kind, secs in by_kind.items():
        print("# %s_s median %.6f s, first quartile %.6f s, %d samples"
              % (kind, statistics.median(secs), numpy.percentile(secs, 25), len(secs)))
    if args.workload == "design_sweep":
        print("# designs_per_s (scaled, = ops_per_s) %.4f 1/s" % ops_per_s)
        print("# fault ledger %s" % json.dumps(wl.ledger_counts()))
    for p in problems:
        print("perfbench: check failed: %s" % p, file=sys.stderr)

    if args.trace:
        metrics = median_metrics([round_layer_metrics(spans) for spans in trace_spans])
        metrics.update(median_metrics([import_times() for _ in range(SETUPS)]))
        traced_times = numpy.array([[o.seconds for o in ops] for _, ops in traced])
        metrics["trace.overhead_s"] = numpy.median(traced_times, axis=0).sum() - numpy.median(times, axis=0).sum()
        tracer.write(out_dir.parent / ("trace_%s.json" % args.workload), trace_spans[-1])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {"setup_s": statistics.median(setup_s), "ops_per_s": ops_per_s, "peak_rss_mb": rss}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(metrics) != set(units):
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_pipeline", "monte_carlo", "design_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit("perfbench: cannot read BENCHMARK.json: %s" % exc)
    out_dir = ROOT / ".bench_build" / "perfbench" / ("%s-%d" % (args.workload, os.getpid()))
    out_dir.mkdir(parents=True)
    try:
        result = run(args, out_dir, bench)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
