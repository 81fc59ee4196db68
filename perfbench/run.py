"""Monte Carlo benchmark of spatialconfound.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scenario --seed 0 --seconds 10 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with the
package imported from ``src/``.  The set-up is timed from process start in
``SETUP_RUNS`` processes and its median reported.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give the same metrics in readable form, the output checks and the
environment.  A copy of the result, with the environment, is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("scenario", "aic", "unpenalized", "grid128")
DEFAULT_SEED = 0
SETUP_RUNS = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from tracing import SPAN_NAMES, SPAN_STATS  # noqa: E402

END_TO_END_UNITS = {"reps_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    **{f"{name}.{stat}": unit for name in SPAN_NAMES for stat, unit in SPAN_STATS},
    "par2_reps_per_s": "1/s",
    "mc.rep_ms_p50": "ms",
    "mc.rep_ms_p90": "ms",
    "mc.par2_efficiency": "ratio",
    "pls.gcv_edge_share": "ratio",
    "basis.bytes_computed": "B",
    "trace.overhead": "ratio",
    "check.fail_share": "ratio",
}


class BenchError(RuntimeError):
    pass


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_worker(args, extra, deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, full record)."""
    if not (ROOT / "src" / "spatialconfound" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--trace-out", str(OUT / f"{stem}.spans.jsonl")] if args.trace else []
    if args.seed == DEFAULT_SEED:
        extra += ["--reference", str(REFERENCE)]
    w = run_worker(args, extra, deadline)
    setups.append(w["setup_s"])

    attempted, failed = w["attempted"], w["failed"]
    # Replications per second of the replication loop: each chunk's time
    # without the per-call set-up work (grid, basis, Gram matrix, targets)
    # that a full-length run amortizes; see SetupClock in worker.py.
    serial_rates = [
        w["chunk_reps"] / (t - setup) for t, setup in zip(w["serial_chunk_s"], w["serial_setup_s"])
    ]
    if args.trace:
        # The par2 phase replays the first chunks; their set-up work, timed
        # in the serial phase, is taken off the same way.  Workloads without
        # a two-worker path (aic) report 0.
        par2_rates = [
            w["chunk_reps"] / (t - setup) for t, setup in zip(w["par2_chunk_s"], w["serial_setup_s"])
        ]
        par2_reps_per_s = par2_efficiency = 0.0
        if par2_rates:
            par2_reps_per_s = statistics.median(par2_rates)
            par2_efficiency = par2_reps_per_s / (
                2.0 * statistics.median(serial_rates[: len(par2_rates)])
            )
        selections, edge_hits = w["gcv"]
        values = dict(w["traced"]["metrics"])
        values.update({
            "par2_reps_per_s": par2_reps_per_s,
            "mc.par2_efficiency": par2_efficiency,
            "pls.gcv_edge_share": edge_hits / selections if selections else 0.0,
            "basis.bytes_computed": w["basis_bytes"],
            "trace.overhead": w["traced"]["overhead"],
            "check.fail_share": failed / attempted,
        })
        units = PER_LAYER_UNITS
    else:
        values = {
            "reps_per_s": statistics.median(serial_rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": w["peak_rss_mib"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": line,
        "fail_share": failed / attempted,
        "reps": w["reps"],
        "chunks": w["chunks"],
        "setup_runs_s": setups,
        "serial_chunk_s": w["serial_chunk_s"],
        "serial_setup_s": w["serial_setup_s"],
        "par2_chunk_s": w["par2_chunk_s"],
        "reference_compared": w["reference_compared"],
        "check_messages": w["messages"],
        "env": {**w["env"], "git_commit": git_commit(ROOT)},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return line, record


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description="Monte Carlo benchmark of spatialconfound.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18.0,
                    help="length of the serial phase; the par2 and traced phases replay its first chunks")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        line, record = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {record['reps']} replications "
          f"in {record['chunks']} chunks; reference estimates compared: "
          f"{record['reference_compared']}")
    print(f"fail_share {record['fail_share']!r} ratio "
          f"({line['failed']} of {line['attempted']} fits)")
    for message in record["check_messages"]:
        print(f"check failed: {message}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
