"""Alternating parent/change pairs of the committed benchmark, as one JSON file.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --seeds 13001,...,13010 \
        [--workloads cli_pipeline,monte_carlo,design_sweep] \
        [--parent-label REV] [--about TEXT] [--notes TEXT] --out BENCH_N.json

PARENT_TREE and CHANGE_TREE are two checkouts of the repository, each with
its own ``perfbench/`` and ``src/``. The workloads (all by default) and the
run length T come from the change tree's BENCHMARK.json, as do the metrics
and their bounds. For every workload, pair i runs
``python3 perfbench/run.py --workload W --seed S_i --seconds T --trace 0``
once in each tree; the parent runs first in even pairs and the change
first in odd ones, so drift of the host does not favour one side. The
output holds, per workload, the seeds, every run's end-to-end metrics and
failed share, their medians and quartiles (numpy's linear percentiles),
and a comparison per metric: how many pairs the change won (ties count for
neither side), the ratio of the medians, the parent's interquartile
spread, whether the medians differ by more than that spread, and whether
the change stays within the bound BENCHMARK.json fixes. After a
workload's pairs, one ``--trace 1`` run per tree on the first seed gives
the per-layer metrics of both sides, stored under ``per_layer`` as
``{metric: {"parent": value, "change": value}}``. Each untraced run's
``# nproc ...`` line is kept under ``nproc`` and its per-kind median
operation times (``box_check_s``, ``cli_roa_s``, ..., unscaled seconds)
are summarised under ``per_kind_s``, both by side, so the file shows the
CPU count of every run and which operation moved. The file is rewritten
after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


#: a ``#`` line of perfbench/run.py with one kind of operation's median time
KIND_LINE = re.compile(r"# (\w+_s) median (\S+) s,")


def run_once(tree, workload, seed, seconds, trace=0):
    """One benchmark run in ``tree``: (correct, {metric: value, failed_share},
    {"nproc": its ``# nproc`` line, "kinds": {kind: median seconds}})."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode or not lines:
        sys.exit("bench_pairs: %s %s seed %d failed: %s" % (tree, workload, seed, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["failed_share"] = result["failed"] / result["attempted"]
    out = proc.stdout.splitlines()
    info = {
        "nproc": next((l[2:] for l in out if l.startswith("# nproc ")), None),
        "kinds": {m[1]: float(m[2]) for m in map(KIND_LINE.match, out) if m},
    }
    return result["correct"], values, info


def summary(runs):
    return {"median": float(np.median(runs)), "q1": float(np.percentile(runs, 25)),
            "q3": float(np.percentile(runs, 75)), "runs": runs}


def compare(parent, change, better, bound):
    """The change against the parent on one metric, pair by pair and by median."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
    limit = parent["median"] * (1.0 - sign * bound)
    iqr = parent["q3"] - parent["q1"]
    return {
        "better": better,
        "change_wins": "%d/%d" % (wins, len(parent["runs"])),
        "ratio_change_over_parent": change["median"] / parent["median"],
        "parent_iqr": iqr,
        "median_gap_exceeds_parent_iqr": bool(abs(change["median"] - parent["median"]) > iqr),
        "within_bound": bool(sign * (change["median"] - limit) >= 0),
    }


def entry(seeds, done):
    """One workload's record from the finished pairs ``done`` [(side, correct, values, info)]."""
    sides = {"parent": {}, "change": {}}
    kinds = {"parent": {}, "change": {}}
    nproc = {"parent": [], "change": []}
    for side, _, values, info in done:
        for k, v in values.items():
            sides[side].setdefault(k, []).append(v)
        for k, v in info["kinds"].items():
            kinds[side].setdefault(k, []).append(v)
        nproc[side].append(info["nproc"])
    out = {
        "seeds": seeds[: len(done) // 2],
        "pairs": len(done) // 2,
        "all_correct": all(ok for _, ok, _, _ in done),
        "nproc": nproc,
        "per_kind_s": {side: {k: summary(v) for k, v in kinds[side].items()} for side in kinds},
    }
    for side, metrics in sides.items():
        out[side] = {k: summary(v) for k, v in metrics.items()}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--seeds", required=True, help="comma-separated, one per pair")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--parent-label", default="")
    parser.add_argument("--about", default="")
    parser.add_argument("--notes", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((args.change_tree / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error("unknown workloads %s" % sorted(unknown))
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    doc = {"about": args.about, "parent": args.parent_label, "workloads": {}, "notes": args.notes}
    for workload in workloads:
        done = []
        for i, seed in enumerate(seeds):
            order = [("parent", args.parent_tree), ("change", args.change_tree)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                ok, values, info = run_once(tree, workload, seed, bench["run_seconds"])
                done.append((side, ok, values, info))
                print("%s pair %d %s: correct %s %s" % (workload, i, side, ok, json.dumps(values)),
                      flush=True)
            rec = entry(seeds, done)
            rec["comparison"] = {
                name: compare(rec["parent"][name], rec["change"][name], m["better"], m["bound"])
                for name, m in metrics.items()
            }
            doc["workloads"][workload] = rec
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
        traced = {side: run_once(tree, workload, seeds[0], bench["run_seconds"], trace=1)[1]
                  for side, tree in (("parent", args.parent_tree), ("change", args.change_tree))}
        rec["per_layer"] = {name: {side: values[name] for side, values in traced.items()}
                            for name in sorted(traced["parent"])}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
