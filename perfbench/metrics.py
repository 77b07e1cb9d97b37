"""Metric definitions and their computation from one run's records.

A record is ``[op, untraced outcome]`` or, in a traced run,
``[op, untraced outcome, traced outcome]``.  End-to-end timings use the
untraced outcomes, scaled by the machine-speed factor measured around each
operation (``Outcome.scaled``); the raw wall-time median is kept beside
each.  Per-layer metrics come from the spans of the traced outcomes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import workloads as W
from tracing import LAYERS

# end-to-end metrics every workload measures: the JSON line of --trace 0
GATED = ("setup_s", "fit_ms.reparam-id", "fit_ms.reparam-nonid", "cycle_s")
# every end-to-end metric, printed where the workload measures it
E2E = GATED + (
    "fit_ms.mle", "fit_ms_tail.mle", "fit_ms_tail.reparam-nonid",
    "fit_ms_tail.reparam-id", "compare_ms", "validate_s", "mc_reps_per_s",
    "fit_fail_frac",
)
# per-layer metrics every workload measures: the JSON line of --trace 1
REPARAM = ("reparam-id", "reparam-nonid")
UNIFORM_LAYERS = ("cli", "data", "logistic", "likelihood", "optimize", "inference", "analysis")
PER_LAYER = (
    ("data.load_ms", "data.rows", "data.support_k")
    + tuple(f"logistic.build_ms.{m}" for m in REPARAM)
    + tuple(
        f"likelihood.{q}.{m}"
        for m in REPARAM
        for q in ("loglik_ms", "score_ms", "hessian_ms", "calls")
    )
    + tuple(
        f"optimize.{q}.{m}"
        for m in REPARAM
        for q in ("fit_ms", "self_ms", "iterations", "objective_evals")
    )
    + tuple(f"inference.se_ms.{m}" for m in REPARAM)
    + ("analysis.report_ms", "analysis.self_ms", "cli.import_ms", "cli.self_ms.fit")
    + tuple(f"{layer}.cycle_ms" for layer in UNIFORM_LAYERS)
    + ("trace.overhead_pct",)
)


def _median(xs):
    return statistics.median(xs) if xs else None


class Metrics:
    """Named metrics with unit, sample count and (for timings) a tail."""

    def __init__(self):
        self.rows = {}

    def timing(self, name, samples, unit, scale=1.0, raw=None):
        """Median of ``samples`` with the highest percentile that has at
        least ten samples beyond it; ``raw`` are the unscaled samples."""
        if not samples:
            return
        xs = sorted(x * scale for x in samples)
        row = {"value": statistics.median(xs), "unit": unit, "n": len(xs)}
        if len(xs) >= 11:
            row["tail_pct"] = 100.0 * (len(xs) - 10) / len(xs)
            row["tail"] = xs[len(xs) - 11]
        if raw:
            row["raw"] = statistics.median(raw) * scale
        self.rows[name] = row

    def value(self, name, value, unit, n=1):
        if value is not None:
            self.rows[name] = {"value": value, "unit": unit, "n": n}

    def print(self, title, names):
        print(title)
        for name, row in self.rows.items():
            if name not in names:
                continue
            extra = ""
            if "raw" in row:
                extra += f"  raw={row['raw']:.6g}"
            if "tail" in row:
                extra += f"  p{row['tail_pct']:.0f}={row['tail']:.6g}"
            print(f"  {name:34s} {row['value']:>14.6g} {row['unit']:6s} n={row['n']}{extra}")

    def select(self, names):
        missing = [n for n in names if n not in self.rows]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        return {n: {"value": self.rows[n]["value"], "unit": self.rows[n]["unit"]} for n in names}


def end_to_end(metrics, records, cycles, setup):
    """``cycles`` lists the records of each whole cycle; ``setup`` the
    set-up outcomes."""
    metrics.timing("setup_s", [o.scaled for o in setup], "s", raw=[o.seconds for o in setup])
    by = defaultdict(list)
    for op, outcome, *_ in records:
        by[(op.kind, op.method)].append(outcome)

    def timing(name, outcomes, unit, scale):
        metrics.timing(name, [o.scaled for o in outcomes], unit, scale,
                       raw=[o.seconds for o in outcomes])

    for m in W.METHODS:
        timing(f"fit_ms.{m}", by[("fit", m)], "ms", 1e3)
        row = metrics.rows.get(f"fit_ms.{m}")
        if row and "tail" in row:
            metrics.value(f"fit_ms_tail.{m}", row["tail"], "ms", row["n"])
    timing("compare_ms", by[("compare", None)], "ms", 1e3)
    timing("validate_s", by[("validate", None)], "s", 1.0)
    mc = by[("mc", None)]
    if mc:
        reps = sum(o.attempted - o.failed for o in mc)
        metrics.value("mc_reps_per_s", reps / sum(o.scaled for o in mc), "1/s", len(mc))
    attempted = sum(o.attempted for _, o, *_ in records)
    failed = sum(o.failed for _, o, *_ in records)
    metrics.value("fit_fail_frac", failed / attempted, "ratio", attempted)
    metrics.timing("cycle_s", [sum(r[1].scaled for r in c) for c in cycles], "s",
                   raw=[sum(r[1].seconds for r in c) for c in cycles])


def per_layer(metrics, tracer, records, cycles, import_ms):
    spans = tracer.spans
    own = tracer.self_ns()
    in_op = defaultdict(list)
    for i, s in enumerate(spans):
        in_op[s.op].append(i)

    def layer_ms(op_id):
        out = defaultdict(float)
        for i in in_op[op_id]:
            out[spans[i].layer] += own[i] / 1e6
        return out

    def named(op_id, *names):
        return [i for i in in_op[op_id] if spans[i].name in names]

    def ms(i):
        return spans[i].ms

    ops = defaultdict(list)  # (kind, method) -> op ids
    for op_id, (op, *_rest) in enumerate(records):
        ops[(op.kind, op.method)].append(op_id)
    fits = [i for m in W.METHODS for i in ops[("fit", m)]]

    metrics.timing("data.load_ms", [layer_ms(i)["data"] for i in fits], "ms")
    shape = next(
        (spans[i].result for i in in_op[fits[0]] if spans[i].layer == "data" and spans[i].result),
        None,
    ) if fits else None
    if shape:
        metrics.value("data.rows", shape["rows"], "count")
        metrics.value("data.support_k", shape["support_k"], "count")
    lik = {
        "loglik_ms": "likelihood.log_likelihood",
        "score_ms": "likelihood.aggregate_score",
        "hessian_ms": "likelihood.aggregate_hessian",
    }
    for m in W.METHODS:
        ids = ops[("fit", m)]
        if not ids:
            continue
        metrics.timing(f"logistic.build_ms.{m}", [layer_ms(i)["logistic"] for i in ids], "ms")
        for q, name in lik.items():
            metrics.timing(f"likelihood.{q}.{m}", [ms(j) for i in ids for j in named(i, name)], "ms")
        metrics.value(f"likelihood.calls.{m}", len(named(ids[0], *lik.values())), "count")
        fit_spans = [j for i in ids for j in named(i, "optimize.maximize")]
        metrics.timing(f"optimize.fit_ms.{m}", [ms(j) for j in fit_spans], "ms")
        metrics.timing(f"optimize.self_ms.{m}", [own[j] / 1e6 for j in fit_spans], "ms")
        first = named(ids[0], "optimize.maximize")
        if first:
            j = first[0]
            metrics.value(f"optimize.iterations.{m}", spans[j].result, "count")
            evals = [k for k in named(ids[0], "likelihood.log_likelihood") if spans[k].parent == j]
            metrics.value(f"optimize.objective_evals.{m}", len(evals), "count")
        metrics.timing(f"inference.se_ms.{m}", [layer_ms(i)["inference"] for i in ids], "ms")

    reports = ("inference.to_json", "inference.render_table",
               "analysis.render_comparison", "analysis.comparison_json")
    orchestration = ("analysis.fit_method", "analysis.compare_methods")
    for suffix, ids in (("", fits), (".compare", ops[("compare", None)])):
        metrics.timing(f"analysis.report_ms{suffix}",
                       [sum(own[j] for j in named(i, *reports)) / 1e6 for i in ids], "ms")
        metrics.timing(f"analysis.self_ms{suffix}",
                       [sum(own[j] for j in named(i, *orchestration)) / 1e6 for i in ids], "ms")
    metrics.timing("cli.import_ms", import_ms, "ms")
    for kind in ("fit", "compare", "validate"):
        ids = fits if kind == "fit" else ops[(kind, None)]
        metrics.timing(f"cli.self_ms.{kind}", [own[j] / 1e6 for i in ids for j in named(i, "cli.main")], "ms")

    # self time of each layer per whole cycle
    index = {id(rec): op_id for op_id, rec in enumerate(records)}
    for layer in LAYERS:
        metrics.timing(
            f"{layer}.cycle_ms",
            [sum(layer_ms(index[id(rec)])[layer] for rec in c) for c in cycles], "ms",
        )

    # reparam layer and the validate oracles (leprosy only)
    metrics.timing("reparam.fstar_ms",
                   [ms(i) for i, s in enumerate(spans) if s.name == "reparam.fstar_empirical"], "ms")
    generic = defaultdict(list)
    for i, s in enumerate(spans):
        if s.layer == "likelihood" and tracer.is_generic(s.model):
            generic[s.name].append(ms(i))
    if generic:
        metrics.value("reparam.eval_ms", sum(_median(v) for v in generic.values()), "ms",
                      sum(map(len, generic.values())))
    vids = ops[("validate", None)]
    fd = ("validate.fd_gradient", "validate.fd_hessian")
    metrics.timing("validate.fd_ms", [sum(ms(j) for j in named(i, *fd)) for i in vids], "ms")
    if vids:
        fd_ids = set(named(vids[0], *fd))
        calls = [j for j in named(vids[0], "likelihood.log_likelihood") if spans[j].parent in fd_ids]
        metrics.value("validate.fd_loglik_calls", len(calls), "count")
    metrics.timing("validate.stationarity_ms",
                   [sum(ms(j) for j in named(i, "validate.check_stationarity")) for i in vids], "ms")
    enum = ("validate.brute_force_info", "validate.enumerated_centered_scores")
    metrics.timing("validate.enumeration_ms", [sum(ms(j) for j in named(i, *enum)) for i in vids], "ms")
    metrics.timing("validate.mc_rep_ms", [
        ms(j) / records[i][0].reps
        for i in ops[("mc", None)] for j in named(i, "validate.monte_carlo_variance")
    ], "ms")
    metrics.timing("data.simulate_ms",
                   [ms(i) for i, s in enumerate(spans) if s.name == "validate.simulate"], "ms")

    untraced = sum(rec[1].scaled for rec in records)
    traced = sum(rec[2].scaled for rec in records)
    metrics.value("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%", len(records))


def accounting(tracer, records):
    """Per operation kind: untraced and traced wall-time medians, and the
    median sum of per-layer self times (which equals the traced root span)."""
    own = tracer.self_ns()
    op_self = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        op_self[s.op] += own[i] / 1e9
    by = defaultdict(lambda: ([], [], []))
    for op_id, (op, untraced, traced) in enumerate(records):
        key = op.kind if op.method is None else f"{op.kind} {op.method}"
        by[key][0].append(untraced.seconds)
        by[key][1].append(traced.seconds)
        by[key][2].append(op_self[op_id])
    print("time per operation kind (wall-time medians, ms): untraced / traced / sum of layer self times")
    for key, (u, t, s) in by.items():
        print(f"  {key:22s} {_median(u) * 1e3:12.3f} {_median(t) * 1e3:12.3f} "
              f"{_median(s) * 1e3:12.3f}  n={len(u)}")
