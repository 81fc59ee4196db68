"""Output checks: capture every fit the MC harness makes and verify it.

``Recorder`` wraps ``generate_dataset``, ``fit_estimator`` and
``sweep_lambda`` at the names ``spatialconfound.mc`` imported, so it sees
each replication's seed and each estimate without changing what the
harness computes.  ``row_failures`` then applies the invariants (finite
estimate, CI around it, selected smoothing on its grid, edf within
[q, q+p]) and, where a stored reference exists, compares the estimate.

A "fit" is one exposure-coefficient estimate: one estimator on one
replication, or one smoothing value of an AIC sweep.
"""

from __future__ import annotations

import math
import threading

# The estimates are reproducible to round-off; a refactor that reorders
# floating-point work (about 1e-10 relative) passes, a different estimator
# (differences of 1e-3 and more) does not.
REFERENCE_REL_TOL = 1e-7

# Fixed-design width q of each stage, and whether that stage carries the
# spatial basis (so that edf may reach q + p).  Stage 1 of Spatial+ includes
# C, the default every workload uses.
_STAGES = {
    "nonspatial": {"outcome": (3, False)},
    "rsr": {"outcome": (3, True)},
    "spatial": {"outcome": (3, True)},
    "spatial-plus": {"exposure": (2, True), "outcome": (3, True)},
    "gsem": {
        "outcome": (1, True),
        "exposure": (1, True),
        "covariate": (1, True),
        "final_ols": (3, False),
    },
    "spatial-plus-lowfreq": {"exposure": (2, True), "outcome": (3, True)},
}


class Recorder:
    def __init__(self, sc):
        self._sc = sc
        self._local = threading.local()
        self.records: list[dict] = []
        self._restore: list = []

    def install(self) -> None:
        mc = self._sc.mc
        default_grid = tuple(self._sc.DEFAULT_LAMBDA_GRID)
        generate_dataset, fit_estimator, sweep_lambda = (
            mc.generate_dataset,
            mc.fit_estimator,
            mc.sweep_lambda,
        )

        def recorded_generate_dataset(config, seed):
            self._local.seed = int(seed)
            return generate_dataset(config, seed)

        def recorded_fit_estimator(kind, obs, b=None, smoothing=None, cutoff=None,
                                   include_c_in_stage1=True):
            row = {"seed": self._local.seed, "tag": kind.value, "error": None}
            if smoothing is None:
                row["lam_grid"] = (0.0,) if kind.value == "spatial-plus-lowfreq" else default_grid
            elif isinstance(smoothing, (int, float)):
                row["lam_grid"] = (float(smoothing),)
            else:
                row["lam_grid"] = tuple(float(v) for v in smoothing)
            if b is None:
                row["p"] = 0
            elif cutoff is not None:
                row["p"] = int((b.freq <= cutoff).sum())
            else:
                row["p"] = b.p
            self.records.append(row)
            try:
                rec = fit_estimator(kind, obs, b, smoothing=smoothing, cutoff=cutoff,
                                    include_c_in_stage1=include_c_in_stage1)
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                raise
            row.update(beta=rec.beta1_hat, ci=rec.ci95, lambdas=rec.lambdas, edf=rec.edf)
            return rec

        def recorded_sweep_lambda(y, fixed, basis, lambdas, fixed_names=None):
            row = {"seed": self._local.seed, "tag": "aic-sweep", "error": None,
                   "n_lambda": len(lambdas), "p": basis.p, "q": fixed.shape[1]}
            self.records.append(row)
            try:
                sweep = sweep_lambda(y, fixed, basis, lambdas, fixed_names)
            except Exception as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                raise
            row.update(beta=[float(v) for v in sweep.fixed_coefs[:, 1]],
                       edf=[float(v) for v in sweep.edf])
            return sweep

        for attr, fn in (("generate_dataset", recorded_generate_dataset),
                         ("fit_estimator", recorded_fit_estimator),
                         ("sweep_lambda", recorded_sweep_lambda)):
            self._restore.append((attr, getattr(mc, attr)))
            setattr(mc, attr, fn)

    def uninstall(self) -> None:
        for attr, fn in reversed(self._restore):
            setattr(self._sc.mc, attr, fn)
        self._restore.clear()


def record_key(row: dict) -> str:
    return f"{row['seed']}/{row['tag']}"


def fits_in(row: dict) -> int:
    return row["n_lambda"] if row["tag"] == "aic-sweep" else 1


def _edf_ok(edf: float, q: int, p: int) -> bool:
    slack = 1e-9 * (q + p)
    return q - slack <= edf <= q + p + slack


def _matches(value: float, ref: float) -> bool:
    return abs(value - ref) <= REFERENCE_REL_TOL * max(1.0, abs(ref))


def row_failures(row: dict, reference: dict | None) -> list[str]:
    """Reasons this record fails; one entry per failed fit at most."""
    if row["error"] is not None:
        return [row["error"]] * fits_in(row)
    ref = None if reference is None else reference.get(record_key(row))
    if row["tag"] == "aic-sweep":
        out = []
        for i, (beta, edf) in enumerate(zip(row["beta"], row["edf"])):
            if not math.isfinite(beta):
                out.append(f"lambda #{i}: beta {beta} not finite")
            elif not _edf_ok(edf, row["q"], row["p"]):
                out.append(f"lambda #{i}: edf {edf} outside [{row['q']}, {row['q'] + row['p']}]")
            elif ref is not None and not _matches(beta, ref[i]):
                out.append(f"lambda #{i}: beta {beta!r} differs from reference {ref[i]!r}")
        return out
    beta, (lo, hi) = row["beta"], row["ci"]
    if not math.isfinite(beta):
        return [f"beta {beta} not finite"]
    if not lo <= beta <= hi:
        return [f"CI [{lo}, {hi}] does not contain beta {beta}"]
    stages = _STAGES[row["tag"]]
    for stage, edf in row["edf"].items():
        q, with_basis = stages[stage]
        p = row["p"] if with_basis else 0
        if not _edf_ok(edf, q, p):
            return [f"{stage} edf {edf} outside [{q}, {q + p}]"]
    for stage, lam in row["lambdas"].items():
        if lam not in row["lam_grid"]:
            return [f"{stage} lambda {lam} is not on the smoothing grid"]
    if ref is not None and not _matches(beta, ref):
        return [f"beta {beta!r} differs from reference {ref!r}"]
    return []
