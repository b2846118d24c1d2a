"""Smoke test of the benchmark at tiny sizes, in about half a minute.

    python3 bench/smoke.py

Runs every workload with shrunken chain and particle counts in both modes
and checks that each metric BENCHMARK.json names is emitted with its unit,
that the exact-count and fidelity checks pass, and that an estimate shifted
by 10 nats counts as a failed row. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys

import checks
import run

TINY = {"iterations": 400, "burn_in": 100, "T": 300, "J": 10, "J1": 40, "M": 60,
        "M1": 200, "M2": 200, "bridge_J1": 50, "bridge_iterations": 3}


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: {message}")


def expect_shift_fails(rows, checked) -> None:
    """Shifting any one checked estimate by 10 nats must fail that row."""
    for i, row in enumerate(rows):
        if row["method"] not in checked or row["error"]:
            continue
        shifted = [dict(r) for r in rows]
        shifted[i]["log_evidence"] += 10.0
        failed = checks.accuracy_failures(shifted, checked)
        expect(any(r is shifted[i] for r in failed),
               f"a 10-nat shift of {row['method']} did not fail its row")


def main() -> int:
    run.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(workload, seed=1, seconds=0.0, trace=trace,
                                      overrides=TINY)
            got = {name: m["unit"] for name, m in record["metrics"].items()}
            expect(got == want[trace], f"{workload} trace={trace}: metrics {got} "
                                       f"differ from BENCHMARK.json {want[trace]}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in record["metrics"].values()),
                   f"{workload} trace={trace}: a metric value is not a number")
            expect(not record["problems"], f"{workload}: {record['problems']}")

            expect_shift_fails(record["rows"], run.WORKLOADS[workload]["checked"])
            print(f"smoke: {workload} trace={int(trace)} ok "
                  f"({record['attempted']} rows, {record['failed']} failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
