"""Correctness checks applied to the estimator rows a workload produces.

Rows are the dicts `mixevidence.harness.run_replicate` returns. Nothing
here imports the program, so the checks can be tested on hand-made rows.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# Largest distance, in nats, between a checked estimate and the median of
# its replicate's checked estimates. On D2 (k=3, fixed:2,15), one replicate
# for each of seeds 0-24: chib_perm stays within 0.54 nats of sym_is (the
# unbiased routes are closer still), while chib_kfact is 1.42 nats high and
# plugin_is 2.30 nats low on average. So 1 nat passes a correct change of
# random-stream use and flags chib_kfact on 20 and plugin_is on 24 of those
# 25 replicates; a single replicate cannot separate them more sharply.
TOLERANCE_NATS = 1.0


def row_key(row: dict) -> tuple:
    """What must repeat bit for bit: the estimate, R and the evaluation count."""
    if row["error"]:
        return (row["replicate"], row["method"], row["error"])
    return (row["replicate"], row["method"], float(row["log_evidence"]).hex(),
            float(row["R"]).hex(), int(row["density_evaluations"]))


def offsets(rows: list[dict], checked) -> dict:
    """{(replicate, method): log_evidence minus the replicate's checked median}."""
    by_rep = defaultdict(list)
    for row in rows:
        if not row["error"] and math.isfinite(row["log_evidence"]):
            by_rep[row["replicate"]].append(row)
    out = {}
    for rep, group in by_rep.items():
        values = [r["log_evidence"] for r in group if r["method"] in checked]
        if values:
            center = statistics.median(values)
            for r in group:
                out[(rep, r["method"])] = r["log_evidence"] - center
    return out


def accuracy_failures(rows: list[dict], checked, tol: float = TOLERANCE_NATS) -> list[dict]:
    """Rows that carry an error, a non-finite estimate, or a checked estimate
    farther than `tol` nats from the median of its replicate's checked set."""
    off = offsets(rows, checked)
    failed = []
    for row in rows:
        key = (row["replicate"], row["method"])
        if key not in off:
            failed.append(row)
        elif row["method"] in checked and abs(off[key]) > tol:
            failed.append(row)
    return failed


def expected_evaluations(config, row: dict) -> int:
    """Block-density evaluations (point x draw x permutation) a row must report."""
    k_fact = math.factorial(config.k)
    chain_len = config.gibbs_config().kept
    method = row["method"]
    if method == "chib_kfact":
        return chain_len
    if method == "chib_perm":
        return k_fact * chain_len
    if method == "plugin_is":
        return config.T * k_fact
    if method == "sym_is":
        return config.T * k_fact * config.J
    if method == "sym_is_trunc":
        m = min(config.M, config.T)
        return (m * k_fact + (config.T - m) * int(row["A_size"])) * config.J
    if method == "mixture_is":
        return config.T * config.effective_J1
    if method == "bridge":
        return (config.M1 + config.M2) * config.bridge_J1
    raise ValueError(f"no evaluation formula for {method!r}")


def count_mismatches(config, rows: list[dict]) -> list[str]:
    """One message per successful row whose evaluation count breaks its formula."""
    out = []
    for row in rows:
        if row["error"]:
            continue
        want = expected_evaluations(config, row)
        if int(row["density_evaluations"]) != want:
            out.append(f"replicate {row['replicate']} {row['method']}: "
                       f"{row['density_evaluations']} evaluations, formula gives {want}")
    return out
