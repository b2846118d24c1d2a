"""Benchmark of one workload: end-to-end figures, or a layer trace.

    python3 bench/run.py --workload d2_full --seed 1 --seconds 30 --trace 0

Run from the root of a mixevidence checkout; the program is imported from
its `src/`. With `--trace 0` the process calls
`mixevidence.harness.run_experiment` serially, untraced, until `--seconds`
is spent (at least two calls), and reports the end-to-end metrics. With
`--trace 1` it makes one untraced call, for the reference rows and the
replicate time that `trace.overhead_s` subtracts, then re-enacts the
replicate with spans around every public call (see replay.py), times
model-layer micro-calls and the estimators the workload leaves out, and
reports the per-layer metrics; `--seconds` does not apply there.

Both modes check the rows: evaluation counts against the paper-unit
formulas and estimates against each other (checks.py); repeated calls
must agree (`--trace 0`), and so must the re-enacted and untraced rows
(`--trace 1`). The environment goes to stdout as one JSON line, the full
record to bench/results/, and the result as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# config: ExperimentConfig fields; checked: the estimators held to the
# accuracy check. chib_kfact is never checked: it is biased wherever the chain
# switches labels, which D2 and galaxy always do and D1 does on some seeds
# (seed 103, replicate 1: +1.34 nats). plugin_is is biased on D2 and galaxy.
# Each run_experiment call runs one replicate, so a run is a series of
# identical calls and replicate_s is their median.
WORKLOADS = {
    # Gibbs-bound: about 90% of a replicate is run_gibbs; the kernel sees
    # 2 permutations and single-point batches.
    "d1_chib": {
        "config": {"dataset": "d1", "k": 2, "prior": "fixed:2,3",
                   "estimators": ("chib_kfact", "chib_perm", "plugin_is")},
        "checked": ("chib_perm", "plugin_is"),
    },
    # The paper's overlapping, label-switching case: bridge (P=1,
    # J=4000) dominates, then Gibbs, then the k!-permutation kernel (P=6).
    "d2_full": {
        "config": {"dataset": "d2", "k": 3, "prior": "fixed:2,15"},
        "checked": ("chib_perm", "sym_is", "sym_is_trunc", "mixture_is", "bridge"),
    },
    # k=4 with the hierarchical prior: the P=24 kernel, mixture_is and
    # bridge dominate, and truncation keeps |A| < 24.
    "galaxy_full": {
        "config": {"dataset": "galaxy", "k": 4, "prior": "rg"},
        "checked": ("chib_perm", "sym_is", "sym_is_trunc", "mixture_is", "bridge"),
    },
}

SETUP_REPEATS = 5
MIN_CALLS = 2
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What the setup_s child process does: import the package, draw or load the
# data and build the prior, exactly as run_experiment starts.
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import mixevidence
from mixevidence.harness import ExperimentConfig, parse_prior, resolve_dataset
config = ExperimentConfig(**json.loads(sys.argv[2]))
parse_prior(config.prior, resolve_dataset(config))
"""

END_TO_END_UNITS = {"replicate_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}


def per_layer_units() -> dict:
    from mixevidence.harness import KNOWN_ESTIMATORS
    units = {
        "gibbs.s": "s", "gibbs.sweep_us": "us", "gibbs.fallbacks": "count",
        "gibbs.switch_rate": "ratio", "pivot.s": "s", "permute.s": "s", "relabel.s": "s",
        "cond.build_us_per_draw": "us", "kernel.sym.ns_per_eval": "ns",
        "kernel.mix.ns_per_eval": "ns", "sample.sym.us_per_particle": "us",
        "sample.mix.us_per_particle": "us", "target.ns_per_point_obs": "ns",
    }
    for m in KNOWN_ESTIMATORS:
        units.update({f"est.{m}.s": "s", f"est.{m}.evals": "count",
                      f"est.{m}.ns_per_eval": "ns", f"est.{m}.R": "ratio"})
    units.update({"trunc.A_size": "count", "trunc.delta": "ratio",
                  "harness.self_s": "s", "trace.overhead_s": "s"})
    return units


def load_program() -> None:
    """Put the checkout's src/ first on the path, or exit if there is none."""
    if not (SRC / "mixevidence" / "__init__.py").is_file():
        sys.exit(f"bench: no {SRC / 'mixevidence'}; run from the root of a mixevidence checkout")
    sys.path.insert(0, str(SRC))
    import mixevidence
    if Path(mixevidence.__file__).resolve().parent != SRC / "mixevidence":
        sys.exit(f"bench: imported mixevidence from {mixevidence.__file__}, not {SRC}")


def make_config(workload: str, seed: int, overrides: dict | None = None):
    from mixevidence.harness import ExperimentConfig
    spec = WORKLOADS[workload]
    return ExperimentConfig(**spec["config"], **(overrides or {}),
                            replicates=1, seed=seed, threads=1, out=None)


def measure_setup(config) -> float:
    """Median wall time of fresh processes that import, load data and parse the prior."""
    payload = json.dumps({k: config.as_dict()[k] for k in ("dataset", "k", "prior", "seed", "n")})
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), payload],
                       check=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def end_to_end(config, seconds: float):
    """Serial run_experiment calls until `seconds` is spent: (wall times, rows per call)."""
    from mixevidence.harness import run_experiment
    times, calls = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        record = run_experiment(config)
        wall = time.perf_counter() - t0
        times.append(wall)
        calls.append(record.rows)
        if len(calls) >= MIN_CALLS and time.perf_counter() - started + wall > seconds:
            return times, calls


def traced(config):
    """Replicate 0 traced: its rows, off-path rows, the untraced replicate_s,
    spans, chain and micro-call costs."""
    import replay
    from mixevidence.harness import parse_prior, resolve_dataset, run_experiment

    t0 = time.perf_counter()
    reference = run_experiment(config).rows
    replicate_s = time.perf_counter() - t0

    data = resolve_dataset(config)
    prior = parse_prior(config.prior, data)
    recorder = replay.SpanRecorder()
    rows, chain, permuted, pivot = replay.traced_replicate(config, data, prior, 0, recorder)
    if [checks.row_key(r) for r in rows] != [checks.row_key(r) for r in reference]:
        sys.exit("bench: the traced re-enactment does not reproduce run_replicate's rows "
                 "bit for bit; update bench/replay.py to follow run_replicate")
    micro = replay.micro_calls(config, data, prior, chain, pivot, 0)
    off_path = replay.off_path_estimators(config, data, prior, chain, permuted, pivot, 0,
                                          recorder)
    return rows, off_path, replicate_s, recorder.spans, chain, micro


def layer_metrics(config, rows, replicate_s, spans, chain, micro) -> dict:
    """Per-layer figures from the spans, rows, chain and micro-call costs.

    `rows` holds the replicate's rows and the off-path rows, so every known
    estimator has figures; `dur` sums spans by name across both.
    """
    from mixevidence.harness import KNOWN_ESTIMATORS
    dur = {}
    for s in spans:
        dur[s["name"]] = dur.get(s["name"], 0.0) + s["end"] - s["start"]
    root = next(s for s in spans if s["name"] == "harness.replicate")
    replicate = root["end"] - root["start"]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    out = {
        "gibbs.s": dur["gibbs.run_gibbs"],
        "gibbs.sweep_us": dur["gibbs.run_gibbs"] / config.iterations * 1e6,
        "gibbs.fallbacks": chain.allocation_fallbacks,
        "gibbs.switch_rate": float(chain.switch_flags.mean()),
        "pivot.s": dur["gibbs.select_pivot"],
        "permute.s": dur["gibbs.permute_chain"],
        "relabel.s": dur["relabel.relabel_chain"],
        **micro,
        "trunc.A_size": 0,
        "trunc.delta": 0.0,
        "harness.self_s": replicate - children,
        "trace.overhead_s": replicate - replicate_s,
    }
    for m in KNOWN_ESTIMATORS:
        row = next(x for x in rows if x["method"] == m)
        ok = not row["error"]
        seconds = dur[f"estimators.{m}"]
        evals = int(row["density_evaluations"]) if ok else 0
        out[f"est.{m}.s"] = seconds
        out[f"est.{m}.evals"] = evals
        out[f"est.{m}.ns_per_eval"] = seconds / evals * 1e9 if evals else 0.0
        out[f"est.{m}.R"] = float(row["R"]) if ok else 0.0
        if m == "sym_is_trunc" and ok:
            out["trunc.A_size"] = int(row["A_size"])
            out["trunc.delta"] = float(row["delta"])
    return out


def git_sha() -> str | None:
    """HEAD of the checkout's .git, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    digest = sha256()
    for path in sorted((SRC / "mixevidence").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARIABLES},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None) -> dict:
    """Everything but printing: metrics, check outcomes, rows and spans."""
    spec = WORKLOADS[workload]
    config = make_config(workload, seed, overrides)
    setup_s = measure_setup(config)
    problems, spans, per_call, off_path = [], [], None, []
    if trace:
        rows, off_path, replicate_s, spans, chain, micro = traced(config)
        metrics = layer_metrics(config, rows + off_path, replicate_s, spans, chain, micro)
        units = per_layer_units()
    else:
        per_call, calls = end_to_end(config, seconds)
        rows = calls[0]
        if any([checks.row_key(r) for r in c] != [checks.row_key(r) for r in rows]
               for c in calls[1:]):
            problems.append("repeated run_experiment calls gave different rows")
        units = END_TO_END_UNITS
    problems += checks.count_mismatches(config, rows + off_path)
    failed = checks.accuracy_failures(rows, spec["checked"])
    if not trace:
        metrics = {
            "replicate_s": statistics.median(per_call),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1.0 - len(failed) / len(rows),
        }
    offsets = checks.offsets(rows, spec["checked"])
    return {
        "config": config.as_dict(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "attempted": len(rows),
        "failed": len(failed),
        "problems": problems,
        "failed_rows": [
            f"replicate {r['replicate']} {r['method']}: "
            + (r["error"] or f"{offsets.get((r['replicate'], r['method']), math.nan):+.3f} nats")
            for r in failed
        ],
        "offsets": {f"{rep}/{m}": v for (rep, m), v in offsets.items()},
        "replicate_s_per_call": per_call,
        "rows": rows,
        "off_path_rows": off_path,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    load_program()
    env = environment(args.workload, args.seed)
    print(json.dumps({"environment": env}), flush=True)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for line in record["failed_rows"]:
        print(f"bench: failed row: {line}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, **record}, indent=1))

    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
