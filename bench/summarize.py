"""Median and quartile spread of every metric over the runs in bench/results/.

    python3 bench/summarize.py [--out bench/baseline.json]

Groups the result files run.py wrote by workload and mode (end-to-end or
traced) and reports, per metric, the run count, median, quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance
as a share of the median. The environment of the first run of each group
is kept with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def summarize(paths) -> dict:
    groups = defaultdict(list)
    for path in sorted(paths):
        record = json.loads(path.read_text())
        mode = "per_layer" if record["spans"] else "end_to_end"
        groups[(record["environment"]["workload"], mode)].append(record)
    out = {}
    for (workload, mode), records in sorted(groups.items()):
        metrics = {}
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": first["unit"], "runs": len(values), "median": median,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
            }
        env = dict(records[0]["environment"])
        env["seeds"] = sorted(r["environment"]["seed"] for r in records)
        env["failed_rows"] = sum(r["failed"] for r in records)
        env["problems"] = sum(len(r["problems"]) for r in records)
        out.setdefault(workload, {})[mode] = {"environment": env, "metrics": metrics}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args()
    summary = summarize(RESULTS.glob("*.json"))
    for workload, modes in summary.items():
        for mode, group in modes.items():
            for name, m in group["metrics"].items():
                print(f"{workload:12s} {mode:10s} {name:28s} {m['unit']:6s} runs={m['runs']:2d} "
                      f"median={m['median']:.6g} spread={m['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
