"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name a
``spatialconfound`` module bound it to (``from .pls import fit_pls`` binds
``estimators.fit_pls``, for instance), so calls made inside the library are
seen too.  ``BasisSet.gram`` is a method and is wrapped on the class.
Spans are kept in memory as (name, start, end, parent, replication) and
written out by the caller when the run ends.

A replication is identified by the seed ``generate_dataset`` receives:
every span that follows it, until the next top-level experiment call,
belongs to that replication.
"""

from __future__ import annotations

import json
import math
import sys

from time import perf_counter

import numpy as np

ESTIMATOR_FUNCTIONS = {
    "nonspatial": "fit_nonspatial",
    "rsr": "fit_rsr",
    "spatial": "fit_spatial",
    "spatial-plus": "fit_spatial_plus",
    "gsem": "fit_gsem",
    "spatial-plus-lowfreq": "fit_spatial_plus_lowfreq",
}

TOP_LEVEL = ("mc.run_mc", "mc.aic_bias_experiment", "mc.scenario_experiment")

SPAN_NAMES = (
    "fields.sample_grf",
    "dgp.generate_dataset",
    "basis.fourier_basis",
    "basis.gram",
    "oracle.compute_estimands",
    "pls.sweep_lambda",
    "pls.select_lambda_gcv",
    "pls.project_out",
    "pls.fit_pls.lam0",
    "pls.fit_pls.finite",
    "pls.fit_pls.inf",
    *(f"estimators.{kind}" for kind in ESTIMATOR_FUNCTIONS),
    *TOP_LEVEL,
)

# Statistic and unit reported for each span name.
SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("ms_p50", "ms"), ("ms_p90", "ms"))


def _fit_pls_name(args, kwargs) -> str:
    lam = float(kwargs["lam"] if "lam" in kwargs else args[3])
    if lam == 0.0:
        return "pls.fit_pls.lam0"
    return "pls.fit_pls.inf" if math.isinf(lam) else "pls.fit_pls.finite"


def _package_modules():
    return [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "spatialconfound"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._rep = None
        self._restore: list = []

    def _wrap(self, name, fn, *, starts_rep=False, top_level=False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if top_level:
                self._rep = None
            elif starts_rep:
                self._rep = int(kwargs["seed"] if "seed" in kwargs else args[1])
            span_name = name(args, kwargs) if callable(name) else name
            rep = self._rep
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, rep)

        return traced

    def _patch_everywhere(self, fn, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def install(self, sc) -> None:
        """Wrap the traced functions of the imported package ``sc``."""
        targets = [
            (sc.fields.sample_grf, "fields.sample_grf", {}),
            (sc.dgp.generate_dataset, "dgp.generate_dataset", {"starts_rep": True}),
            (sc.basis.fourier_basis, "basis.fourier_basis", {}),
            (sc.oracle.compute_estimands, "oracle.compute_estimands", {}),
            (sc.pls.sweep_lambda, "pls.sweep_lambda", {}),
            (sc.pls.select_lambda_gcv, "pls.select_lambda_gcv", {}),
            (sc.pls.project_out, "pls.project_out", {}),
            (sc.pls.fit_pls, _fit_pls_name, {}),
            (sc.mc.run_mc, "mc.run_mc", {"top_level": True}),
            (sc.mc.aic_bias_experiment, "mc.aic_bias_experiment", {"top_level": True}),
            (sc.mc.scenario_experiment, "mc.scenario_experiment", {"top_level": True}),
        ]
        targets += [
            (getattr(sc.estimators, fn_name), f"estimators.{kind}", {})
            for kind, fn_name in ESTIMATOR_FUNCTIONS.items()
        ]
        for fn, name, flags in targets:
            self._patch_everywhere(fn, self._wrap(name, fn, **flags))
        gram = sc.basis.BasisSet.gram
        sc.basis.BasisSet.gram = self._wrap("basis.gram", gram)
        self._restore.append((sc.basis.BasisSet, "gram", gram))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-span calls, busy and self time, duration percentiles, and
        per-replication time percentiles."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
        self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        rep_start: dict[int, float] = {}
        rep_end: dict[int, float] = {}
        for i, (name, start, end, _, rep) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[i]
            if rep is not None:
                if name == "dgp.generate_dataset":
                    rep_start.setdefault(rep, start)
                rep_end[rep] = max(rep_end.get(rep, end), end)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            d = np.array(durations[name])
            p50, p90 = np.percentile(d * 1e3, [50, 90]) if d.size else (0.0, 0.0)
            out[f"{name}.calls"] = d.size
            out[f"{name}.busy_s"] = float(d.sum())
            out[f"{name}.self_s"] = self_time[name]
            out[f"{name}.ms_p50"] = float(p50)
            out[f"{name}.ms_p90"] = float(p90)
        reps = np.array([rep_end[r] - rep_start[r] for r in rep_start]) * 1e3
        p50, p90 = np.percentile(reps, [50, 90]) if reps.size else (0.0, 0.0)
        out["mc.rep_ms_p50"] = float(p50)
        out["mc.rep_ms_p90"] = float(p90)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "rep": rep}
                fh.write(json.dumps(row) + "\n")
