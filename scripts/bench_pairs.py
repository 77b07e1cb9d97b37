"""Alternating parent/change pairs of ``perfbench/run.py``, aggregated.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
        --seeds 41-50 --seconds 30 --trace 0 --out BENCH.json [--section S]

``--parent`` and ``--change`` are two checkouts of the repository (a
``git clone`` or ``git archive`` of each commit).  For every seed the
benchmark runs once in each checkout, and the side that runs first
alternates from seed to seed, so a drift in machine speed during the runs
falls on both sides alike.  Each run's full record is read from the
checkout's ``perfbench/out/<workload>-seed<N>-trace<T>.json``.

With ``--trace 0`` the result goes to ``out[section][workload]``: the seeds,
the exit codes, whether every output check passed, the failed and attempted
operations, and for every end-to-end metric both sides' runs, medians and
quartiles, the ratio of medians, the pairs the change won (ties count for
neither side), whether the medians differ by more than the parent's
interquartile range, and whether the change's median is worse than the
parent's by more than the metric's ``bound`` in the parent's
``BENCHMARK.json`` (null for a metric without one).  With ``--trace 1`` (one run per side, on the first
seed) it goes to ``out["traced"][workload]``: the exit code, the "not traced"
line if the run printed one, and every per-layer metric; one traced run per
side shows where time went, not a ratio.  Other entries of ``--out`` are
kept, so one file collects every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# end-to-end metrics (perfbench/metrics.py GATED and E2E, without the tails)
GATED = ("setup_s", "fit_ms.reparam-id", "fit_ms.reparam-nonid", "cycle_s")
UNGATED = ("fit_ms.mle", "compare_ms", "validate_s", "mc_reps_per_s")
HIGHER_IS_BETTER = {"mc_reps_per_s"}
SIDES = ("parent", "change")


def parse_seeds(text):
    """``41-50`` or ``41,43,45`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit_of(checkout):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns its exit code, stdout and saved record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    record = Path(checkout) / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    record.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    saved = json.loads(record.read_text()) if record.exists() else None
    print(f"  {checkout} seed {seed}: exit {proc.returncode}", file=sys.stderr, flush=True)
    return proc.returncode, proc.stdout, saved


def quartiles(xs):
    if len(xs) < 2:  # one seed, as in a confirmation run
        return {"median": xs[0], "q1": None, "q3": None, "iqr": None, "runs": xs}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": xs}


def bounds_of(checkout):
    """The regression bound, a share of the parent's median, of each
    end-to-end metric in ``checkout``'s ``BENCHMARK.json``."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(runs, bounds):
    """Per-metric pair statistics from ``runs[side][i]`` (saved records)."""
    metrics = {}
    for name in GATED + UNGATED:
        vals = {side: [r["metrics"].get(name, {}).get("value") if r else None
                       for r in runs[side]] for side in SIDES}
        pairs = [(p, c) for p, c in zip(vals["parent"], vals["change"])
                 if p is not None and c is not None]
        if not pairs:
            continue
        higher = name in HIGHER_IS_BETTER
        parent = quartiles([p for p, _ in pairs])
        change = quartiles([c for _, c in pairs])
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        bound = bounds.get(name)
        worse = None
        if bound is not None:
            sign = -1 if higher else 1
            worse = sign * (change["median"] - parent["median"]) > bound * parent["median"]
        metrics[name] = {
            "gated": name in GATED,
            "unit": next(r["metrics"][name]["unit"] for r in runs["parent"]
                         if r and name in r["metrics"]),
            "parent": parent,
            "change": change,
            "ratio_of_medians": change["median"] / parent["median"],
            "pair_wins": wins,
            "pairs": len(pairs),
            "medians_differ_by_more_than_parent_iqr": None if parent["iqr"] is None
                else abs(change["median"] - parent["median"]) > parent["iqr"],
            "bound": bound,
            "worse_than_bound": worse,
        }
    return metrics


def paired(args, seeds):
    runs = {side: [] for side in SIDES}
    exits = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            code, _, saved = run_once(getattr(args, side), args.workload, seed,
                                      args.seconds, 0)
            exits[side].append(code)
            runs[side].append(saved)
    done = {side: [r for r in runs[side] if r] for side in SIDES}
    return {
        "seeds": seeds,
        "first": ["parent" if k % 2 == 0 else "change" for k in range(len(seeds))],
        "exit_codes": exits,
        "correct": {s: all(r["correct"] for r in done[s]) and len(done[s]) == len(seeds)
                    for s in SIDES},
        "failed_ops": {s: sum(r["failed"] for r in done[s]) for s in SIDES},
        "attempted_ops": {s: sum(r["attempted"] for r in done[s]) for s in SIDES},
        "metrics": summarize(runs, bounds_of(args.parent)),
    }


def traced(args, seed):
    out = {"seed": seed, "runs": {}}
    for side in SIDES:
        code, stdout, saved = run_once(getattr(args, side), args.workload, seed,
                                       args.seconds, 1)
        absent = [line for line in stdout.splitlines() if line.startswith("not traced")]
        out["runs"][side] = {
            "exit_code": code,
            "not_traced": absent[0] if absent else None,
            "correct": saved["correct"] if saved else None,
            "failed_ops": saved["failed"] if saved else None,
            "metrics": {k: v["value"] for k, v in (saved or {}).get("metrics", {}).items()},
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 41-50")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to create or update")
    parser.add_argument("--section", default="workloads",
                        help="top-level key of the --trace 0 result")
    args = parser.parse_args(argv)

    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    out.setdefault("environment", {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    })
    out["parent_commit"] = commit_of(args.parent)
    out["change_commit"] = commit_of(args.change)
    if args.trace:
        out.setdefault("traced", {})[args.workload] = traced(args, args.seeds[0])
    else:
        entry = paired(args, args.seeds)
        entry["seconds"] = args.seconds
        out.setdefault(args.section, {})[args.workload] = entry
        for name, m in entry["metrics"].items():
            print(f"{args.workload:13s} {name:22s} parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} ratio {m['ratio_of_medians']:.4f} "
                  f"wins {m['pair_wins']}/{m['pairs']} "
                  f"beyond parent IQR: {m['medians_differ_by_more_than_parent_iqr']} "
                  f"worse than bound: {m['worse_than_bound']}")
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
