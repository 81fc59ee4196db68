"""Regenerate ``reference.json``: the estimates of the first chunks of every
workload at the default seed, which ``run.py`` compares against.

Run from the root of the repository, only after a change of the estimates
has been accepted as intended:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

import worker  # pins the BLAS threads before numpy is imported
from checks import Recorder, record_key
from run import DEFAULT_SEED

# About the chunks one 18-second serial phase runs at the baseline (half of
# them on aic, to keep this file small); later chunks are checked by the
# invariants alone.
REFERENCE_CHUNKS = {"scenario": 12, "aic": 14, "unpenalized": 14, "grid128": 7}


def main() -> None:
    workloads = {}
    for name, wl in worker.WORKLOADS.items():
        recorder = Recorder(worker.sc)
        recorder.install()
        try:
            for i in range(REFERENCE_CHUNKS[name]):
                wl.serial(wl.build(i, worker.chunk_seed(name, DEFAULT_SEED, i), wl.chunk_reps))
        finally:
            recorder.uninstall()
        workloads[name] = {record_key(row): row["beta"] for row in recorder.records}
        print(f"{name}: {len(recorder.records)} estimates")
    doc = {"seed": DEFAULT_SEED, "workloads": workloads}
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
