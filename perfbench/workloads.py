"""Workload definitions: the operations of one cycle, their inputs, and the
checks applied to every output.

A workload is a closed loop with one client: each cycle runs a fixed list of
operations one after another, in this process, the way a user drives the
package (``semest.cli.main([...])`` for ``fit``/``compare``/``validate``,
``semest.validate.monte_carlo_variance`` for the simulation study).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

METHODS = ("mle", "reparam-nonid", "reparam-id")

# Reference slopes and standard errors on the bundled data, (Scar, Age) per
# method, with the acceptance tolerance (the values the package's own
# acceptance gate checks against).
REF_COEF = {
    "mle": (-0.30205, -4.30992),
    "reparam-nonid": (-0.30211, -4.31017),
    "reparam-id": (-0.30215, -4.30988),
}
REF_SE = {
    "mle": (0.19737, 0.57891),
    "reparam-nonid": (0.19737, 0.57892),
    "reparam-id": (0.19736, 0.57889),
}
REF_TOL = 5e-4
AGREE_TOL = 1e-6  # converged slopes of all methods on one dataset
IRLS_TOL = 1e-6  # reparam-id against the independent IRLS fit
MC_BAND = (0.9, 1.1)  # pooled Monte Carlo sd/SE ratio

# Workload names; their inputs, cycles and rationale are in README.md.
WORKLOADS = ("leprosy", "wide-support", "unit-long")
# The only failures a workload may show: on wide-support, the two known mle
# failure modes (a fit stalled on the flat intercept ridge, a spurious
# "indefinite" efficient information), on the mle fit and on compare, and on
# at most this share of the run's datasets (rounded up).  Any other failure,
# anywhere, makes the run incorrect.
KNOWN_MLE_FAILURES = ("did not converge", "efficient information is indefinite")
ALLOWED_FAILED_DATASETS = 0.1

LEPROSY_FIT_REPEATS = 20
LEPROSY_COMPARE_REPEATS = 10
MC_BATCH = 50  # replicates per Monte Carlo operation
MC_BATCHES = 20  # Monte Carlo operations per cycle
MC_SIZES = (260, 260)


@dataclass
class Op:
    kind: str  # fit | compare | validate | mc
    cycle: int
    method: str | None = None
    argv: list | None = None
    reps: int = 0
    mc_seed: int = 0


@dataclass
class Outcome:
    seconds: float
    ok: bool
    attempted: int = 1
    failed: int = 0
    error: str = ""
    payload: object = None
    scale: float = 1.0  # machine-speed factor measured around the operation

    @property
    def scaled(self):
        return self.seconds * self.scale


def _mc_seed(seed, cycle, batch):
    state = np.random.SeedSequence([int(seed), 7, int(cycle), int(batch)]).generate_state(1)
    return int(state[0])


class Workload:
    """Inputs and operations of one named workload for one seed."""

    def __init__(self, name, seed, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.out = str(workdir / "report.json")
        self._irls = {}

    def input_path(self, cycle):
        """Write (once) and return the CSV for ``cycle``; None for leprosy."""
        if self.name == "leprosy":
            return None
        path = self.workdir / f"{self.name}-{cycle}.csv"
        if not path.exists():
            make = gen.wide_support_csv if self.name == "wide-support" else gen.unit_long_csv
            path.write_text(make(self.seed, cycle), encoding="utf-8")
        return path

    def load_snippet(self):
        """Python source that loads this workload's input (for set-up)."""
        if self.name == "leprosy":
            return "from semest.logistic import leprosy_dataset\nleprosy_dataset()\n"
        path = str(self.input_path(0))
        if self.name == "wide-support":
            return (
                "from semest.data import load_casecontrol_csv\n"
                "from semest.logistic import transform_age\n"
                f"load_casecontrol_csv({path!r}, transform=transform_age)\n"
            )
        return f"from semest.data import load_long_csv\nload_long_csv({path!r})\n"

    def _data_args(self, cycle):
        if self.name == "leprosy":
            return ["--builtin", "leprosy"]
        args = ["--input", str(self.input_path(cycle))]
        return args + (["--schema", "long"] if self.name == "unit-long" else [])

    def _fit(self, cycle, method):
        argv = ["fit", *self._data_args(cycle), "--method", method,
                "--format", "json", "--out", self.out]
        return Op("fit", cycle, method, argv)

    def _compare(self, cycle):
        argv = ["compare", *self._data_args(cycle), "--format", "json", "--out", self.out]
        return Op("compare", cycle, None, argv)

    def cycle_ops(self, cycle):
        if self.name == "leprosy":
            ops = [
                Op("validate", cycle, None, ["validate", "--seed", str(self.seed)]),
            ]
            ops += [
                Op("mc", cycle, reps=MC_BATCH, mc_seed=_mc_seed(self.seed, cycle, b))
                for b in range(MC_BATCHES)
            ]
            for r in range(LEPROSY_FIT_REPEATS):
                ops += [self._fit(cycle, m) for m in METHODS]
                if r < LEPROSY_COMPARE_REPEATS:
                    ops.append(self._compare(cycle))
            return ops
        if self.name == "wide-support":
            return [self._fit(cycle, m) for m in METHODS] + [self._compare(cycle)]
        return [self._fit(cycle, m) for m in ("reparam-id", "reparam-nonid")]

    def irls(self, cycle):
        """Independent reference for reparam-id on a unit-row dataset:
        logistic IRLS with the fixed offset log(w1 / w0)."""
        if cycle not in self._irls:
            data = np.loadtxt(self.input_path(cycle), delimiter=",", skiprows=1)
            y = data[:, 1]
            Z = np.column_stack([np.ones(len(data)), data[:, 2:]])
            offset = np.log(y.sum() / (len(y) - y.sum()))
            b = np.zeros(Z.shape[1])
            for _ in range(50):
                mu = 1.0 / (1.0 + np.exp(-(offset + Z @ b)))
                step = np.linalg.solve((Z * (mu * (1 - mu))[:, None]).T @ Z, Z.T @ (y - mu))
                b = b + step
                if np.max(np.abs(step)) < 1e-13:
                    break
            self._irls[cycle] = b
        return self._irls[cycle]


@dataclass
class Checker:
    """Collects every output check; ``errors`` empty means correct."""

    workload: Workload
    errors: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)  # cycle -> [slope vectors]
    checked: int = 0  # outputs checked
    datasets: set = field(default_factory=set)  # cycles with a CLI operation
    failed_datasets: set = field(default_factory=set)  # known mle failures
    mc_var: list = field(default_factory=list)  # (dof, variance vector)
    mc_se: list = field(default_factory=list)  # (reps, mean SE vector)
    mc_ratio: list = field(default_factory=list)  # pooled sd/SE per slope

    def _fail(self, msg):
        if len(self.errors) < 20:
            self.errors.append(msg)

    def _report(self, op, method, rep):
        coef = np.asarray(rep["coef"], dtype=float)
        self.slopes.setdefault(op.cycle, []).append(coef)
        if self.workload.name == "leprosy":
            for what, ref, got in (
                ("coef", REF_COEF[method], coef),
                ("se", REF_SE[method], np.asarray(rep["se"], dtype=float)),
            ):
                diff = float(np.max(np.abs(got - np.asarray(ref))))
                if not diff <= REF_TOL:
                    self._fail(f"{op.kind} {method}: {what} off reference by {diff:.2e}")
        if self.workload.name == "unit-long" and method == "reparam-id":
            ref = self.workload.irls(op.cycle)
            got = np.concatenate([[rep["extra_rows"]["Intercept*"][0]], coef])
            diff = float(np.max(np.abs(got - ref)))
            if not diff <= IRLS_TOL:
                self._fail(f"reparam-id vs IRLS on dataset {op.cycle}: {diff:.2e}")

    def _known_failure(self, op, outcome):
        """True for a failure the workload allows (see KNOWN_MLE_FAILURES)."""
        return (
            self.workload.name == "wide-support"
            and (op.kind, op.method) in (("fit", "mle"), ("compare", None))
            and outcome.error.startswith("exit 2: error:")
            and any(k in outcome.error for k in KNOWN_MLE_FAILURES)
        )

    def check(self, op, outcome):
        """Check one operation's outcome, failed or not."""
        if op.kind != "mc":
            self.datasets.add(op.cycle)
        if op.kind == "validate":
            lines = (outcome.payload or "").strip().splitlines()
            bad = [ln for ln in lines if ln.startswith("FAIL")]
            checks = [ln for ln in lines if ln.startswith("PASS")]
            if not outcome.ok or bad or not checks:
                self._fail(f"validate: {outcome.error or 'ok'}; {bad or 'no checks reported'}")
        elif not outcome.ok:
            if self._known_failure(op, outcome):
                self.failed_datasets.add(op.cycle)
            else:
                self._fail(f"{op.kind} {op.method or ''} on dataset {op.cycle} failed: "
                           f"{outcome.error}")
            return
        elif op.kind == "mc":
            rep = outcome.payload
            if rep.n_failed:
                self._fail(f"Monte Carlo: {rep.n_failed} of {rep.n_rep} replicates failed")
            kept = rep.n_rep - rep.n_failed
            self.mc_var.append((kept - 1, np.asarray(rep.empirical_sd) ** 2))
            self.mc_se.append((kept, np.asarray(rep.mean_model_se)))
        else:
            with open(self.workload.out, encoding="utf-8") as fh:
                doc = json.load(fh)
            if op.kind == "fit":
                self._report(op, op.method, doc)
            else:
                for method, rep in doc["reports"].items():
                    self._report(op, method, rep)
        self.checked += 1

    def finish(self):
        """Cross-output checks; returns True when every check passed."""
        for cycle, found in self.slopes.items():
            diff = max(float(np.max(np.abs(s - found[0]))) for s in found)
            if not diff <= AGREE_TOL:
                self._fail(f"dataset {cycle}: methods disagree on slopes by {diff:.2e}")
        if self.mc_var:
            dof = sum(d for d, _ in self.mc_var)
            sd = np.sqrt(sum(d * v for d, v in self.mc_var) / dof)
            se = sum(k * s for k, s in self.mc_se) / sum(k for k, _ in self.mc_se)
            ratio = sd / se
            self.mc_ratio = [float(r) for r in ratio]
            if not np.all((ratio > MC_BAND[0]) & (ratio < MC_BAND[1])):
                self._fail(f"Monte Carlo sd/SE {self.mc_ratio} outside {MC_BAND}")
        allowed = math.ceil(ALLOWED_FAILED_DATASETS * len(self.datasets))
        if len(self.failed_datasets) > allowed:
            self._fail(f"mle failed on {len(self.failed_datasets)} of "
                       f"{len(self.datasets)} datasets (at most {allowed} allowed)")
        if not self.checked:
            self._fail("no operation produced an output to check")
        return not self.errors
