"""Span tracing of bayesrisk's public functions, installed from outside the package.

Nothing under ``src/`` knows about tracing. :meth:`Tracer.install` replaces
each traced function with a wrapper at every place the package binds it
(``from .distributions import kl_divergence`` copies the name into
``bounds``, ``pipeline``, ``smoothing`` and ``cli``), and replaces the
traced methods on their classes. :meth:`Tracer.uninstall` puts every
original back.

A span is (name, parent, start, end, count), kept in flat in-memory arrays
while the workload runs and written out only when it ends. ``count`` is 1
for a call, or the work the call did where the layer counts something
else (samples estimated, atoms truncated, bytes written). A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _files_written(args, result) -> int:
    run = args[0]
    return sum((run.out / name).stat().st_size for name in ("report.csv", "summary.json", "manifest.json"))


def _samples(args, result) -> int:
    return len(args[0])


def _atoms(args, result) -> int:
    return int(result.mass.shape[0])


# (layer, module, attribute, count kind, measure). The attribute is either a
# module-level function or ``Class.method``. The count kind names the
# layer's count metric; ``measure`` turns a call into that count (None: 1).
TARGETS = (
    ("cli", "bayesrisk.cli", "main", None, None),
    ("cli.write", "bayesrisk.cli", "_Run.finish", "bytes", _files_written),
    ("bounds.generate", "bayesrisk.bounds", "random_theorem1_instance", "calls", None),
    ("bounds.generate", "bayesrisk.bounds", "random_theorem2_instance", "calls", None),
    ("bounds.generate", "bayesrisk.bounds", "random_source", "calls", None),
    ("bounds.generate", "bayesrisk.bounds", "random_l1_perturbation", "calls", None),
    ("bounds.generate", "bayesrisk.bounds", "support_safe_perturbation", "calls", None),
    ("bounds.generate", "bayesrisk.bounds", "random_cost", "calls", None),
    ("bounds.check", "bayesrisk.bounds", "check_theorem1", "calls", None),
    ("bounds.check", "bayesrisk.bounds", "check_theorem2", "calls", None),
    ("bounds.check", "bayesrisk.bounds", "excess_logloss_identity", "calls", None),
    ("bounds.search", "bayesrisk.bounds", "tightness_search", "calls", None),
    ("classify.source", "bayesrisk.classify", "LabeledSource.__post_init__", "count", None),
    ("classify.cost", "bayesrisk.classify", "bayes_classifier", "calls", None),
    ("classify.cost", "bayesrisk.classify", "risk", "calls", None),
    ("classify.logloss", "bayesrisk.classify", "posterior_rule", "calls", None),
    ("classify.logloss", "bayesrisk.classify", "plugin_rule", "calls", None),
    ("classify.logloss", "bayesrisk.classify", "logloss_risk", "calls", None),
    ("distributions.dist", "bayesrisk.distributions", "Distribution.__post_init__", "count", None),
    ("distributions.divergence", "bayesrisk.distributions", "l1_distance", "calls", None),
    ("distributions.divergence", "bayesrisk.distributions", "kl_divergence", "calls", None),
    ("distributions.domain_eq", "bayesrisk.distributions", "Domain.__eq__", "calls", None),
    ("smoothing.verify", "bayesrisk.smoothing", "verify_smoothing", "calls", None),
    ("pipeline.trial", "bayesrisk.pipeline", "run_trial", "calls", None),
    ("pipeline.estimate", "bayesrisk.pipeline", "empirical_estimator", "samples", _samples),
    ("pdfa.truncate", "bayesrisk.pdfa", "truncate", "atoms", _atoms),
)

COUNT_UNITS = {"calls": "count", "count": "count", "samples": "count", "atoms": "count", "bytes": "bytes"}


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    names: dict[str, str] = {}
    for layer, _, _, kind, _ in TARGETS:
        if kind is not None:
            names[f"{layer}.{kind}"] = COUNT_UNITS[kind]
        names[f"{layer}.self_s"] = "s"
    return names


class Tracer:
    """Records spans around the calls listed in :data:`TARGETS`."""

    def __init__(self) -> None:
        self.labels = [f"{module.rsplit('.', 1)[-1]}.{attr}" for _, module, attr, _, _ in TARGETS]
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._current = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        packages = [mod for name, mod in sorted(sys.modules.items())
                    if mod is not None and (name == "bayesrisk" or name.startswith("bayesrisk."))]
        for sid, (_, module, attr, _, measure) in enumerate(TARGETS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], sid, measure))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, sid, measure)
            for mod in packages:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, sid: int, measure):
        names, parents, starts, ends, counts = self.name, self.parent, self.start, self.end, self.count
        current = self._current
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(current[0])
            counts.append(1)
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]
            if measure is not None:
                counts[idx] = measure(args, result)
            return result

        traced.perfbench_traced = True
        return traced

    # -- results ----------------------------------------------------------

    def _arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        count = np.array(self.count, dtype=np.int64)
        return name, dur, dur - child, count, parent

    def functions(self) -> dict[str, dict]:
        """Per traced function: calls, summed count, self and inclusive seconds."""
        name, dur, self_t, count, _ = self._arrays()
        size = len(TARGETS)
        calls = np.bincount(name, minlength=size)
        counts = np.bincount(name, weights=count, minlength=size)
        selfs = np.bincount(name, weights=self_t, minlength=size)
        totals = np.bincount(name, weights=dur, minlength=size)
        return {
            label: {"calls": int(calls[i]), "count": int(counts[i]),
                    "self_s": float(selfs[i]), "total_s": float(totals[i])}
            for i, label in enumerate(self.labels)
        }

    def layers(self) -> dict[str, float]:
        """Per-layer metrics (see :func:`layer_metrics`) summed over functions."""
        out = {name: 0 for name in layer_metrics()}
        for (layer, _, _, kind, _), stats in zip(TARGETS, self.functions().values()):
            if kind is not None:
                out[f"{layer}.{kind}"] += stats["calls"] if kind == "calls" else stats["count"]
            out[f"{layer}.self_s"] += stats["self_s"]
        return out

    def root_seconds(self) -> float:
        """Summed duration of the root spans; equals the summed self time of all spans."""
        _, dur, _, _, parent = self._arrays()
        return float(dur[parent < 0].sum())

    def write(self, path: Path) -> None:
        np.savez(
            path,
            name=np.array(self.name),
            parent=np.array(self.parent),
            start=np.array(self.start),
            end=np.array(self.end),
            count=np.array(self.count),
            labels=np.array(json.dumps(self.labels)),
        )


def leftover_wrappers() -> list[str]:
    """Names in the bayesrisk package that are still tracing wrappers."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "bayesrisk" or mod_name.startswith("bayesrisk.")):
            continue
        for name, value in vars(mod).items():
            if getattr(value, "perfbench_traced", False):
                found.append(f"{mod_name}.{name}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for meth, member in vars(value).items():
                    if getattr(member, "perfbench_traced", False):
                        found.append(f"{mod_name}.{name}.{meth}")
    return found
