"""Span tracing of the package's public functions, from outside the package.

``Tracer`` rebinds each traced function to a timing wrapper in every
``semest`` module (and class) that holds a reference to it, so calls made
through ``from .x import f`` bindings are caught as well as calls through
the defining module.  Spans (name, layer, start, end, parent, operation id)
are kept in memory; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns


def _model_of(args, kwargs):
    return args[0] if args else kwargs.get("model")


def _dataset_shape(ds):
    try:
        return {"rows": len(ds.observations), "support_k": len(ds.support)}
    except (AttributeError, TypeError):
        return None


def _iterations(fit):
    return getattr(fit, "iterations", None)


# (module or module:Class, attribute, layer, result hook)
TARGETS = (
    ("semest.cli", "main", "cli", None),
    ("semest.data", "load_casecontrol_csv", "data", _dataset_shape),
    ("semest.data", "load_long_csv", "data", _dataset_shape),
    ("semest.logistic", "leprosy_dataset", "data", _dataset_shape),
    ("semest.validate", "simulate", "data", None),
    ("semest.data", "compute_weights", "logistic", None),
    ("semest.logistic", "build_full_mle_model", "logistic", None),
    ("semest.logistic", "build_nonidentifiable_model", "logistic", None),
    ("semest.logistic", "build_identifiable_model", "logistic", None),
    ("semest.likelihood", "log_likelihood", "likelihood", None),
    ("semest.likelihood", "aggregate_score", "likelihood", None),
    ("semest.likelihood", "aggregate_hessian", "likelihood", None),
    ("semest.optimize", "maximize", "optimize", _iterations),
    ("semest.inference", "info_blocks_observed", "inference", None),
    ("semest.inference", "efficient_information", "inference", None),
    ("semest.inference", "standard_errors", "inference", None),
    ("semest.inference", "centered_scores", "inference", None),
    ("semest.inference", "info_blocks_moments", "inference", None),
    ("semest.inference", "efficient_score", "inference", None),
    ("semest.reparam", "fstar_empirical", "reparam", None),
    ("semest.reparam", "check_normalization", "reparam", None),
    ("semest.validate", "casecontrol_reparam_model", "reparam", None),
    ("semest.validate", "fd_gradient", "validate", None),
    ("semest.validate", "fd_hessian", "validate", None),
    ("semest.validate", "check_stationarity", "validate", None),
    ("semest.validate", "brute_force_info", "validate", None),
    ("semest.validate", "enumerated_centered_scores", "validate", None),
    ("semest.validate", "monte_carlo_variance", "validate", None),
    ("semest.validate", "run_suite", "validate", None),
    ("semest.analysis", "fit_method", "analysis", None),
    ("semest.analysis", "compare_methods", "analysis", None),
    ("semest.analysis", "render_comparison", "analysis", None),
    ("semest.analysis", "comparison_json", "analysis", None),
    ("semest.inference:EfficiencyReport", "render_table", "analysis", None),
    ("semest.inference:EfficiencyReport", "to_json", "analysis", None),
)
LAYERS = (
    "cli", "data", "logistic", "likelihood", "optimize",
    "inference", "reparam", "validate", "analysis",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "result", "model")

    def __init__(self, name, layer, parent, op, model):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.model = model
        self.start = self.end = 0
        self.result = None

    @property
    def ms(self):
        return (self.end - self.start) / 1e6

    def record(self, index):
        return {
            "i": index,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class Tracer:
    """Span recorder for the ``TARGETS``; targets the package no longer has
    are listed in ``missing`` and left untraced."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._bindings = []  # (owner, attribute, original, wrapper)
        self.missing = []
        self.generic_models = []
        for target, attr, layer, hook in TARGETS:
            modname, _, cls = target.partition(":")
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            if cls and owner is not None:
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{target}.{attr}")
                continue
            name = f"{modname.rpartition('.')[2]}.{attr}"
            wrapper = self._wrap(orig, name, layer, hook)
            if cls:
                self._bindings.append((owner, attr, orig, wrapper))
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "semest":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._bindings.append((mod, key, orig, wrapper))

    def _wrap(self, fn, name, layer, hook):
        tracer = self
        takes_model = layer == "likelihood" or name == "optimize.maximize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            model = _model_of(args, kwargs) if takes_model else None
            span = Span(name, layer, parent, tracer.op, model)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                tracer._stack.pop()
            if hook is not None:
                span.result = hook(out)
            if name == "validate.casecontrol_reparam_model":
                tracer.generic_models.append(out)
            return out

        return traced

    def install(self, op):
        self.op = op
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)
        self.op = None

    def is_generic(self, model):
        """Whether ``model`` is (or restricts) a generic reparam model."""
        base = getattr(model, "base", model)
        return any(base is m for m in self.generic_models)

    def self_ns(self):
        """Self time of every span: its duration minus its children's."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def records(self):
        return [s.record(i) for i, s in enumerate(self.spans)]
