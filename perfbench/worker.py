"""One benchmark workload in a fresh process.

Started by ``run.py``; prints one JSON line with the raw measurements.
BLAS and OpenMP are pinned to one thread before numpy is imported, so that
``n_jobs=2`` runs two worker threads with one BLAS thread each.

Phases, all driven through the public API of ``spatialconfound``:

1. set-up: import, and one discarded warm-up call, which builds the grid,
   the basis with its Gram matrix and the targets, and runs one
   replication;
2. serial: chunks of replications run back to back (closed loop, one
   worker) until ``--seconds`` have passed;
3. par2: the first ``replay_chunks`` chunks again with ``run_mc(plan,
   n_jobs=2)``, on the workloads whose experiment takes ``n_jobs``;
4. traced (``--trace 1``): the same chunks again, serially, with spans
   around the library's public functions.

Every fit of phase 2 is checked (``checks.py``), and the summaries of
phases 3 and 4 must equal those of phase 2.
"""

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import spatialconfound as sc  # noqa: E402
from spatialconfound import (  # noqa: E402
    SCENARIO_KINDS,
    SCENARIO_STRONG_EXPOSURE,
    EstimatorKind,
    EstimatorSpec,
    MCPlan,
)

from checks import Recorder, fits_in, record_key, row_failures  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
MAX_FREQ = 10


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to build and run one chunk of replications.

    ``build(i, master_seed, reps)`` returns chunk i's task; ``serial(task)``
    runs it with one worker and returns (summary dict, plan run).  With
    ``par2`` the plan is run again by ``run_mc(plan, n_jobs=2)``.
    """

    chunk_reps: int
    fits_per_rep: int
    build: Callable
    serial: Callable
    par2: bool
    replay_chunks: int = 4


def _trio():
    return tuple(
        EstimatorSpec(kind=k, max_freq=MAX_FREQ)
        for k in (EstimatorKind.SPATIAL, EstimatorKind.SPATIAL_PLUS, EstimatorKind.GSEM)
    )


def _mc_serial(plan):
    return sc.run_mc(plan).to_dict(), plan


def _scenario_build(i, seed, reps):
    kind = SCENARIO_KINDS[i % 2]
    return kind, sc.default_scenario_plan(kind, r=reps, master_seed=seed)


def _scenario_serial(task):
    result = sc.scenario_experiment(*task)
    return result.summary.to_dict(), result.plan


def _aic_serial(plan):
    return sc.aic_bias_experiment(plan).to_dict(), plan


_UNPENALIZED = (
    EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
    EstimatorSpec(kind=EstimatorKind.RSR, max_freq=MAX_FREQ),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=MAX_FREQ, smoothing=0.0),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ, max_freq=MAX_FREQ, cutoff=2),
)


def _unpenalized_build(i, seed, reps):
    config = replace(sc.scenario_config(SCENARIO_STRONG_EXPOSURE), e_sd=0.0)
    return MCPlan(config=config, estimators=_UNPENALIZED, R=reps, master_seed=seed)


def _grid128_build(i, seed, reps):
    config = replace(sc.scenario_config(SCENARIO_STRONG_EXPOSURE), m=128)
    return MCPlan(config=config, estimators=_trio(), R=reps, master_seed=seed)


def _aic_build(i, seed, reps):
    return sc.default_aic_plan(r=reps, master_seed=seed, max_freq=MAX_FREQ)


# The par2 and traced phases replay a fixed number of chunks (about a third
# of a serial phase at the baseline, a ninth on aic), so that per-layer
# counts and busy times do not grow with the speed of the code.
# aic_bias_experiment takes no n_jobs, so aic has no par2 phase.
WORKLOADS = {
    "scenario": Workload(4, 3, _scenario_build, _scenario_serial, par2=True),
    "aic": Workload(12, len(sc.DEFAULT_LAMBDA_GRID), _aic_build, _aic_serial, par2=False),
    "unpenalized": Workload(4, 4, _unpenalized_build, _mc_serial, par2=True),
    "grid128": Workload(2, 3, _grid128_build, _mc_serial, par2=True, replay_chunks=2),
}


def chunk_seed(workload: str, seed: int, i) -> int:
    """Master seed of chunk i, derived from the workload seed alone."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment(par2: bool) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "n_jobs": {"serial": 1, "par2": 2} if par2 else {"serial": 1},
        "spatialconfound": sc.__version__,
    }


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


class SetupClock:
    """Time the per-call set-up work of the serial phase.

    Each ``run_mc`` or ``aic_bias_experiment`` call builds its grid, its
    basis and the basis's Gram matrix, and each plan built computes its
    targets.  A full-length run does this once and amortizes it over
    hundreds of replications; a chunk of a few replications would not.
    The clock wraps ``make_grid``, ``fourier_basis`` and
    ``compute_estimands`` at the names ``spatialconfound.mc`` imported, and
    the first ``gram()`` of each basis they built, so that the serial phase
    can report replications per second of the replication loop alone.  The
    set-up time of the run (``setup_s``) pays this work once, in its
    warm-up call.
    """

    def __init__(self, sc):
        self._sc = sc
        self.seconds = 0.0
        self.basis_bytes = 0
        self._depth = 0
        self._pending: set[int] = set()
        self._restore: list = []

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += time.perf_counter() - t0

        return timed

    def install(self) -> None:
        mc, basis_cls = self._sc.mc, self._sc.basis.BasisSet
        fourier_basis, gram = mc.fourier_basis, basis_cls.gram

        def built_basis(*args, **kwargs):
            b = fourier_basis(*args, **kwargs)
            self._pending.add(id(b))
            self.basis_bytes = max(self.basis_bytes, b.n * b.p * 8)
            return b

        timed_gram = self._timed(gram)

        def first_gram(b):
            if id(b) in self._pending:
                self._pending.discard(id(b))
                return timed_gram(b)
            return gram(b)

        for attr, fn in (("make_grid", self._timed(mc.make_grid)),
                         ("fourier_basis", self._timed(built_basis)),
                         ("compute_estimands", self._timed(mc.compute_estimands))):
            self._restore.append((mc, attr, getattr(mc, attr)))
            setattr(mc, attr, fn)
        self._restore.append((basis_cls, "gram", gram))
        basis_cls.gram = first_gram

    def start_chunk(self) -> None:
        """Reset the clock.  Bases of earlier chunks are gone by now, so
        their ids are forgotten before a new basis can reuse one."""
        self.seconds = 0.0
        self._pending.clear()

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def run_serial(wl: Workload, workload: str, seed: int, seconds: float, recorder, clock):
    chunks = []
    start = time.perf_counter()
    while True:
        i = len(chunks)
        mark = len(recorder.records)
        clock.start_chunk()
        t0 = time.perf_counter()
        task = wl.build(i, chunk_seed(workload, seed, i), wl.chunk_reps)
        summary, plan = wl.serial(task)
        t1 = time.perf_counter()
        chunks.append(
            {"summary": summary, "plan": plan, "time": t1 - t0, "setup": clock.seconds,
             "records": recorder.records[mark:]}
        )
        if t1 - start >= seconds:
            return chunks


def run_par2(chunks):
    """Run the chunks' plans again with two workers; returns (summaries, times)."""
    summaries, times = [], []
    for chunk in chunks:
        t0 = time.perf_counter()
        summaries.append(sc.run_mc(chunk["plan"], n_jobs=2).to_dict())
        times.append(time.perf_counter() - t0)
    return summaries, times


def run_traced(wl: Workload, workload: str, seed: int, n_chunks: int):
    summaries = []
    elapsed = 0.0
    for i in range(n_chunks):
        t0 = time.perf_counter()
        task = wl.build(i, chunk_seed(workload, seed, i), wl.chunk_reps)
        summaries.append(wl.serial(task)[0])
        elapsed += time.perf_counter() - t0
    return summaries, elapsed


def same(a: dict, b: dict) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check_chunks(chunks, expected, par_summaries, traced_summaries, reference):
    """Count fits attempted and failed; see checks.py and README.md."""
    attempted = failed = compared = 0
    messages = []
    for i, chunk in enumerate(chunks):
        chunk_failed = recorded = 0
        for row in chunk["records"]:
            recorded += fits_in(row)
            if reference is not None and record_key(row) in reference:
                compared += 1
            reasons = row_failures(row, reference)
            chunk_failed += len(reasons)
            messages += [f"chunk {i} seed {row['seed']} {row['tag']}: {r}" for r in reasons]
        if recorded != expected:
            messages.append(f"chunk {i}: {recorded} fits recorded, {expected} expected")
            chunk_failed += abs(expected - recorded)
        if reference is not None and i == 0 and not all(
            record_key(row) in reference for row in chunk["records"]
        ):
            messages.append("chunk 0: estimates missing from the reference")
            chunk_failed = expected
        if i < len(par_summaries) and not same(chunk["summary"], par_summaries[i]):
            messages.append(f"chunk {i}: n_jobs=2 summary differs from n_jobs=1")
            chunk_failed = expected
        if i < len(traced_summaries) and not same(chunk["summary"], traced_summaries[i]):
            messages.append(f"chunk {i}: traced summary differs from untraced")
            chunk_failed = expected
        attempted += expected
        failed += min(chunk_failed, expected)
    return attempted, failed, compared, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", type=Path, default=None)
    ap.add_argument("--trace-out", type=Path, default=None)
    args = ap.parse_args(argv)

    src = HERE.parent / "src"
    if src not in Path(sc.__file__).resolve().parents:
        print(f"spatialconfound was imported from {sc.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # The warm-up call builds what the workload needs and pays the first-call
    # costs; its result is discarded.
    wl.serial(wl.build(0, chunk_seed(args.workload, -1, "warm-up"), 1))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    recorder, clock = Recorder(sc), SetupClock(sc)
    recorder.install()
    clock.install()
    try:
        chunks = run_serial(wl, args.workload, args.seed, args.seconds, recorder, clock)
    finally:
        clock.uninstall()
        recorder.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replayed = chunks[: wl.replay_chunks]
    par_summaries, par2_times = run_par2(replayed) if wl.par2 else ([], [])

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install(sc)
        try:
            traced_summaries, traced_s = run_traced(wl, args.workload, args.seed, len(replayed))
        finally:
            tracer.uninstall()
        if args.trace_out is not None:
            tracer.write(args.trace_out)
        traced = {"metrics": tracer.metrics(), "time": traced_s, "summaries": traced_summaries}

    reference = None
    if args.reference is not None:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)["workloads"][args.workload]

    attempted, failed, compared, messages = check_chunks(
        chunks, wl.chunk_reps * wl.fits_per_rep, par_summaries,
        traced["summaries"] if traced else [], reference,
    )

    out = {
        "setup_s": setup_s,
        "chunks": len(chunks),
        "reps": len(chunks) * wl.chunk_reps,
        "chunk_reps": wl.chunk_reps,
        "serial_chunk_s": [c["time"] for c in chunks],
        "serial_setup_s": [c["setup"] for c in chunks],
        "par2_chunk_s": par2_times,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "reference_compared": compared,
        "messages": messages[:20],
        "gcv": gcv_edges([row for c in chunks for row in c["records"]]),
        "basis_bytes": clock.basis_bytes,
        "env": environment(wl.par2),
    }
    if traced is not None:
        out["traced"] = {
            "metrics": traced["metrics"],
            "overhead": traced["time"] / sum(c["time"] for c in replayed) - 1.0,
        }
    print(json.dumps(out))
    return 0


def gcv_edges(records) -> tuple[int, int]:
    """(GCV selections, selections on the smallest or largest grid value)."""
    grid = sc.DEFAULT_LAMBDA_GRID
    edges = (min(grid), max(grid))
    selections = hits = 0
    for row in records:
        if row["error"] is None and row["tag"] != "aic-sweep" and row["lam_grid"] == tuple(grid):
            for lam in row["lambdas"].values():
                selections += 1
                hits += lam in edges
    return selections, hits


if __name__ == "__main__":
    sys.exit(main())
