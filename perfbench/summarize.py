"""Summarize untraced results under perfbench/out/: for each workload and
end-to-end metric, the values by seed, their median and the distance
between the first and third quartile as a share of the median.

    python3 perfbench/summarize.py                 # print
    python3 perfbench/summarize.py --write         # also write perfbench/baseline.json
"""

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(out_dir: Path) -> dict:
    runs: dict[str, list[dict]] = {}
    env = None
    for path in sorted(out_dir.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
        env = record["env"]
    workloads = {}
    for workload, records in runs.items():
        records.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, m in records[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            entry = {"unit": m["unit"], "median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["iqr_share"] = (q3 - q1) / median
            metrics[name] = entry
        workloads[workload] = {
            "seeds": [r["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": metrics,
        }
    return {"workloads": workloads, "env": env}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    doc = summarize(HERE / "out")
    for workload, w in doc["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload:12s} {name:16s} median {m['median']:.4g} {m['unit']:4s} "
                  f"iqr/median {m.get('iqr_share', float('nan')):.3f} (n={len(m['values'])})")
    if args.write:
        with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
