"""Benchmark for the semest package.

    python3 perfbench/run.py --workload {leprosy,wide-support,unit-long}
                             --seed N --seconds S --trace {0,1}

Paths are resolved from this file, so any working directory works.  The
package is imported from ``src/`` beside this directory; without it the
benchmark exits 2 and prints no result.

One run: set-up (fresh interpreters that import the package and load the
workload's input), then a closed loop with a single client that repeats the
workload's cycle of operations for about ``--seconds``, checking every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation untraced and then traced (see ``tracing.py``) and reports per-layer
self times and counts plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (environment, every
metric with its sample count, every operation's timing, failures) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and the spans of a traced
run to ``...-spans.jsonl``.

Timings are scaled for machine speed (see ``speed.py``); raw wall-time
medians are printed beside every timing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 10


def environment(args):
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {
            k: {f: deps.get(k, {}).get(f) for f in ("name", "version")}
            for k in ("blas", "lapack")
        }
    except Exception as exc:  # the config layout differs across numpy builds
        blas = {"error": repr(exc)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            v: os.environ.get(v)
            for v in ("SEMEST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_kernel_s": speed.REFERENCE_S,
    }


SETUP_CODE = """\
import time
import speed
t0 = time.perf_counter()
before = speed.calibrate()
t1 = time.perf_counter()
import semest
import semest.cli
t2 = time.perf_counter()
{load}
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(repr((t2 - t1) * 1e3), repr(done), repr(t1 - t0), repr(before), repr(speed.calibrate()))
"""


def setup(wl):
    """Fresh interpreters that import numpy and the package and load the
    input: one warm-up (it compiles the bytecode), then ``SETUP_REPEATS``
    timed runs, each from launch to the end of the load.  Each interpreter
    times the reference kernel itself before the package import (that time
    is taken out) and after the load, so the scale reflects the CPU it ran
    on.  Returns the outcomes and the package import times (numpy already
    loaded) measured inside the interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    code = SETUP_CODE.format(load=wl.load_snippet())
    outcomes, import_ms = [], []
    for i in range(SETUP_REPEATS + 1):
        launch = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        imported, done, kernel_s, before, after = (float(v) for v in proc.stdout.split())
        if i:
            wall = done - launch - kernel_s
            outcomes.append(W.Outcome(wall, True, scale=speed.scale([before, after])))
            import_ms.append(imported)
    return outcomes, import_ms


def run_op(op, wl, probe=None):
    """Run one operation; the wall time covers exactly the call into semest,
    less the time of ``probe`` (a ``speed.Probe``) if one is given.  Failed
    operations keep their time and their standard output."""
    import semest.cli
    import semest.validate

    if op.kind != "mc" and os.path.exists(wl.out):
        os.remove(wl.out)
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with probe or nullcontext(), redirect_stdout(out), redirect_stderr(err):
            if op.kind == "mc":
                result = semest.validate.monte_carlo_variance(
                    semest.validate.default_mc_design(),
                    sizes=W.MC_SIZES, n_rep=op.reps, seed=op.mc_seed,
                )
            else:
                result = semest.cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # counted as a failed operation
        result = exc
    seconds = perf_counter() - t0 - (probe.spent if probe else 0.0)
    if isinstance(result, BaseException):
        msg = "".join(traceback.format_exception_only(type(result), result)).strip()
        return W.Outcome(seconds, False, op.reps or 1, op.reps or 1, msg, out.getvalue())
    if op.kind == "mc":
        return W.Outcome(seconds, True, op.reps, result.n_failed, payload=result)
    if result != 0:
        msg = f"exit {result}: {err.getvalue().strip()[:200]}"
        return W.Outcome(seconds, False, 1, 1, msg, out.getvalue())
    return W.Outcome(seconds, True, payload=out.getvalue())


def run_loop(wl, seconds, checker, tracer=None):
    """Closed loop for about ``seconds``.  A new cycle starts while its
    projected end stays within ``seconds`` plus half a cycle, and after the
    first cycle no operation starts once ``seconds`` have passed, which also
    bounds a run in which one operation took far longer than usual (a fit
    stalled at its iteration cap).  Operations of an unfinished last cycle
    count; the cycle does not.  Returns the records, the records of each
    whole cycle, and ``speed.leak`` of the kernel times; a record is
    ``[op, outcome]`` plus the traced outcome when ``tracer`` is given."""
    records, cycles = [], []
    t_start = perf_counter()
    between, inside = [], []  # (cpu, reference-kernel time), see speed.leak
    kernel = speed.calibrate(between)
    while True:
        cycle = []
        for op in wl.cycle_ops(len(cycles)):
            if cycles and perf_counter() - t_start > seconds:
                return records, cycles, speed.leak(between, inside)
            probe = speed.Probe()
            outcome = run_op(op, wl, probe)
            after = speed.calibrate(between)
            outcome.scale = speed.scale([kernel, *probe.samples, after])
            inside += zip(probe.cpus, probe.samples)
            kernel = after
            checker.check(op, outcome)
            rec = [op, outcome]
            if tracer is not None:
                tracer.install(len(records))
                try:
                    traced = run_op(op, wl)
                finally:
                    tracer.uninstall()
                after = speed.calibrate()
                traced.scale = speed.scale([kernel, after])
                kernel = after
                checker.check(op, traced)
                rec.append(traced)
            records.append(rec)
            cycle.append(rec)
        cycles.append(cycle)
        elapsed = perf_counter() - t_start
        mean = elapsed / len(cycles)
        if elapsed + mean > seconds + 0.5 * mean:
            return records, cycles, speed.leak(between, inside)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semest" / "__init__.py").is_file():
        print(f"error: the package source {SRC / 'semest'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semest

    if Path(semest.__file__).resolve().parent != SRC / "semest":
        print(f"error: imported semest from {semest.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print("environment:", json.dumps(env))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = W.Workload(args.workload, args.seed, workdir)
        setup_outcomes, import_ms = setup(wl)
        checker = W.Checker(wl)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            if tracer.missing:
                print("not traced (absent):", ", ".join(tracer.missing))
        records, cycles, leak = run_loop(wl, args.seconds, checker, tracer)
        correct = checker.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = M.Metrics()
    M.end_to_end(metrics, records, cycles, setup_outcomes)
    metrics.print("end-to-end (untraced; value scaled for machine speed, raw = wall time):", M.E2E)
    if tracer is not None:
        M.per_layer(metrics, tracer, records, cycles, import_ms)
        metrics.print("per-layer (traced, wall time):", set(metrics.rows) - set(M.E2E))
        M.accounting(tracer, records)
    outcomes = [(op, o) for op, *outs in records for o in outs]
    attempted = sum(o.attempted for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    failures = [f"{op.kind} {op.method or ''} cycle {op.cycle}: {o.error}"
                for op, o in outcomes if not o.ok]
    scales = sorted(o.scale for _, o in outcomes)
    speed_record = {"scale_median": M._median(scales), "scale_min": scales[0],
                    "scale_max": scales[-1], "leak": leak}
    print("machine-speed scale (scaled / raw time) per operation: median "
          f"{speed_record['scale_median']:.4g}, range {scales[0]:.4g} to {scales[-1]:.4g}")
    if leak:
        print("reference kernel inside / between operations (medians), per CPU:",
              ", ".join(f"{c}: {r:.4g}" for c, r in leak.items()))
    print(f"cycles: {len(cycles)}; operations attempted {attempted}, failed {failed}")
    for line in failures[:10]:
        print("  failed:", line)
    if checker.mc_ratio:
        print("Monte Carlo sd/SE pooled over the run:", checker.mc_ratio)
    print("output checks:", "all passed" if correct else "; ".join(checker.errors))

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "environment": env, "metrics": metrics.rows, "correct": correct,
            "errors": checker.errors, "attempted": attempted, "failed": failed,
            "failures": failures, "speed": speed_record,
            "operations": [[op.kind, op.method, op.cycle, o.seconds, o.scale]
                           for op, o, *_ in records],
        }, fh, indent=1)
    if tracer is not None:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")

    names = M.PER_LAYER if args.trace else M.GATED
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics.select(names)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
