"""Experiment configuration, the replication runner, and result summaries.

A run is: draw (or load) a dataset once, then for each replicate run a
fresh Gibbs chain, select the pivot, relabel, build the proposals and
execute every requested estimator with its own keyed substream.  Replicate
results are deterministic functions of (config, seed) regardless of
execution order or thread count.  `resolve_dataset` and `replicate_chains`
key the dataset's and a replicate's chain's streams, so the command line's
``simulate`` and ``gibbs`` write the data and chain a replicate uses.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import model
from .datasets import BUILTIN_NAMES, builtin_dataset, load_dataset
from .estimators import (
    DEFAULT_TAU,
    bridge_sampling,
    build_dual_proposal,
    build_permuted_mixture,
    build_plugin_proposal,
    chib,
    importance_estimate,
)
from .gibbs import GibbsChain, GibbsConfig, permute_chain, run_gibbs, select_pivot
from .model import Dataset, FixedPrior, HierarchicalPrior, PriorSpec
from .numerics import RngStream
from .relabel import relabel_chain

__all__ = [
    "KNOWN_ESTIMATORS",
    "ExperimentConfig",
    "RunRecord",
    "parse_prior",
    "resolve_dataset",
    "replicate_chains",
    "run_experiment",
    "run_replicate",
    "summarize",
    "write_summary_csv",
    "read_summary_csv",
]

KNOWN_ESTIMATORS = (
    "chib_kfact",    # candidate-point estimate times k!
    "chib_perm",     # candidate-point estimate averaged over relabellings
    "plugin_is",     # symmetrized single-draw proposal
    "sym_is",        # pooled symmetrized proposal, all k! clusters
    "sym_is_trunc",  # pooled symmetrized proposal, contributing clusters only
    "mixture_is",    # randomly permuted J1-mixture proposal
    "bridge",        # iterative bridge sampling
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one estimator comparison."""

    dataset: str = "d1"
    k: int = 2
    prior: str = "fixed:2,3"
    estimators: tuple[str, ...] = KNOWN_ESTIMATORS
    T: int = 10_000
    J: int = 100
    J1: int | None = None           # default: min(100 k!, 5000)
    M: int = 1_000
    M1: int = 6_000
    M2: int = 6_000
    bridge_J1: int = 4_000
    bridge_iterations: int = 10
    tau: float = DEFAULT_TAU
    iterations: int = 15_000
    burn_in: int = 5_000
    thinning: int = 1
    replicates: int = 50
    seed: int = 0
    n: int | None = None            # sample size for simulated datasets
    out: str | None = None
    threads: int = 1

    def __post_init__(self):
        def require(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise ValueError(f"{name} must be {what}, not {getattr(self, name)!r}")

        for name in ("dataset", "prior"):
            require(isinstance(getattr(self, name), str), name, "a string")
        require(self.out is None or isinstance(self.out, str), "out", "a string or null")
        require(isinstance(self.estimators, Sequence) and not isinstance(self.estimators, str)
                and all(isinstance(e, str) for e in self.estimators),
                "estimators", "a list of estimator names")
        require(isinstance(self.tau, numbers.Real) and not isinstance(self.tau, bool),
                "tau", "a number")
        for name in ("k", "T", "J", "J1", "M", "M1", "M2", "bridge_J1", "bridge_iterations",
                     "iterations", "burn_in", "thinning", "replicates", "seed", "n", "threads"):
            value = getattr(self, name)
            if value is None and name in ("J1", "n"):
                continue
            require(isinstance(value, int) and not isinstance(value, bool), name, "an integer")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        unknown = [e for e in self.estimators if e not in KNOWN_ESTIMATORS]
        if unknown:
            raise ValueError(f"unknown estimators {unknown}; known: {KNOWN_ESTIMATORS}")
        for name in ("k", "T", "J", "J1", "M", "M1", "M2", "bridge_J1",
                     "bridge_iterations", "replicates", "n", "threads"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and > 0")
        kept = self.gibbs_config().kept  # checks iterations, burn_in and thinning
        # the numbers of distinct chain draws each estimator subsamples
        subsampled = {"sym_is": {"J": self.J}, "sym_is_trunc": {"J": self.J},
                      "mixture_is": {"J1": self.effective_J1},
                      "bridge": {"bridge_J1": self.bridge_J1, "M2": self.M2}}
        for method in self.estimators:
            for name, size in subsampled.get(method, {}).items():
                if size > kept:
                    raise ValueError(f"{name}={size} ({method}) exceeds the {kept} kept draws")

    @property
    def effective_J1(self) -> int:
        if self.J1 is not None:
            return self.J1
        return min(100 * math.factorial(self.k), 5_000)

    def gibbs_config(self) -> GibbsConfig:
        return GibbsConfig(iterations=self.iterations, burn_in=self.burn_in,
                           thinning=self.thinning)

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["estimators"] = list(self.estimators)
        return out

    @classmethod
    def from_dict(cls, payload, **overrides) -> "ExperimentConfig":
        """The config of a JSON object's fields, with `overrides` taking
        precedence over them."""
        if not isinstance(payload, dict):
            raise ValueError(f"a config must be a JSON object, not {type(payload).__name__}")
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return cls(**{**payload, **overrides})


def parse_prior(spec: str, data: Dataset) -> PriorSpec:
    """Parse 'fixed:a,b' or 'rg' (hierarchical, calibrated from the data)."""
    token = spec.strip().lower()
    if token in ("rg", "hierarchical"):
        return HierarchicalPrior.from_data(data)
    if token.startswith("fixed"):
        _, _, args = token.partition(":")
        if args:
            try:
                a, b = (float(v) for v in args.split(","))
            except ValueError:
                raise ValueError(f"bad fixed prior spec {spec!r}; want fixed:a,b") from None
        else:
            a, b = 2.0, 3.0
        return FixedPrior(var_shape=a, var_scale=b)
    raise ValueError(f"unknown prior spec {spec!r}; want 'fixed:a,b' or 'rg'")


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    root = RngStream(config.seed)
    name = config.dataset
    if name.lower() in BUILTIN_NAMES:
        return builtin_dataset(name, n=config.n, rng=root.substream("dataset"))
    return load_dataset(name)


def replicate_chains(config: ExperimentConfig, data: Dataset, prior: PriorSpec,
                     replicate: int) -> tuple[RngStream, GibbsChain, GibbsChain]:
    """The replicate's stream, its Gibbs chain and the chain's randomly
    relabelled copy; the replicate's estimators draw from substreams of the
    stream."""
    if replicate < 0:
        raise ValueError(f"replicate must be >= 0, got {replicate}")
    stream = RngStream(config.seed).substream("replicate", replicate)
    chain = run_gibbs(data, prior, config.k, config.gibbs_config(),
                      rng=stream.substream("gibbs"))
    return stream, chain, permute_chain(chain, stream.substream("permute"))


def run_replicate(config: ExperimentConfig, data: Dataset, prior: PriorSpec,
                  replicate: int) -> list[dict]:
    """All requested estimators on one fresh chain; failures are recorded rows.

    A chain or pivot that fails fails every estimator of the replicate: each
    gets a row with the error.
    """
    try:
        stream, chain, permuted = replicate_chains(config, data, prior, replicate)
        pivot = select_pivot(chain, data, prior)
    except Exception as exc:  # noqa: BLE001 - per-replicate isolation
        return [{"replicate": replicate, "method": method, "error": f"{type(exc).__name__}: {exc}"}
                for method in config.estimators]

    dual = None

    def dual_proposal():
        nonlocal dual
        if dual is None:
            dual = build_dual_proposal(relabel_chain(chain, pivot), data, prior,
                                       config.J, stream.substream("subsample"))
        return dual

    rows = []
    for method in config.estimators:
        row = {"replicate": replicate, "method": method}
        try:
            if method == "chib_kfact":
                est = chib(data, prior, chain, pivot, mode="k_fact")
            elif method == "chib_perm":
                est = chib(data, prior, permuted, pivot, mode="permutation_averaged")
            elif method == "plugin_is":
                proposal = build_plugin_proposal(data, prior, pivot)
                est = importance_estimate(proposal, config.T, stream.substream("plugin"))
            elif method == "sym_is":
                est = importance_estimate(dual_proposal(), config.T,
                                          stream.substream("dual"))
            elif method == "sym_is_trunc":
                est = importance_estimate(dual_proposal(), config.T,
                                          stream.substream("dual"),
                                          truncated=True, M=config.M, tau=config.tau)
            elif method == "mixture_is":
                proposal = build_permuted_mixture(chain, data, prior,
                                                  config.effective_J1,
                                                  stream.substream("j1"))
                est = importance_estimate(proposal, config.T, stream.substream("j1-particles"))
            elif method == "bridge":
                proposal = build_permuted_mixture(chain, data, prior,
                                                  config.bridge_J1,
                                                  stream.substream("bridge-q"))
                est = bridge_sampling(data, prior, proposal, config.M1, config.M2,
                                      config.bridge_iterations,
                                      stream.substream("bridge"), permuted)
            else:  # pragma: no cover - guarded by config validation
                raise ValueError(method)
            row.update(est.as_record())
            row["error"] = ""
        except Exception as exc:  # noqa: BLE001 - per-replicate isolation
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


@dataclass
class RunRecord:
    """Config echo, per-replicate estimator rows, and summary tables."""

    config: ExperimentConfig
    dataset_name: str
    rows: list[dict]
    summary: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "dataset_name": self.dataset_name,
            "rows": self.rows,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        return cls(
            config=ExperimentConfig.from_dict(payload["config"]),
            dataset_name=payload["dataset_name"],
            rows=list(payload["rows"]),
            summary=dict(payload.get("summary", {})),
        )

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1)

    @classmethod
    def from_json(cls, path) -> "RunRecord":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _set_kernel_threads(threads: int) -> None:
    """Initializer of `run_experiment`'s worker processes."""
    model.KERNEL_THREADS = threads


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """The full protocol: replicated chains, estimators, summaries, outputs."""
    data = resolve_dataset(config)
    prior = parse_prior(config.prior, data)
    replicate = partial(run_replicate, config, data, prior)
    if config.threads > 1:
        # imported here, since a serial run has no use for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # the worker processes share the CPUs, so each kernel gets its share
        kernel_threads = max(1, model.KERNEL_THREADS // config.threads)
        with ProcessPoolExecutor(max_workers=config.threads, initializer=_set_kernel_threads,
                                 initargs=(kernel_threads,)) as pool:
            per_rep = list(pool.map(replicate, range(config.replicates)))
    else:
        per_rep = list(map(replicate, range(config.replicates)))
    rows = [row for rep_rows in per_rep for row in rep_rows]
    record = RunRecord(config=config, dataset_name=data.name, rows=rows)
    record.summary = summarize(rows)
    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        record.to_json(out / "records.json")
        write_summary_csv(record.summary, out)
        _write_long_csv(rows, out / "long.csv")
    return record


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def _stats(values) -> dict:
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        return {"count": 0, "mean": None, "sd": None,
                "q25": None, "median": None, "q75": None}
    return {
        "count": int(arr.size),
        "mean": float(np.mean(arr)),
        "sd": float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0,
        "q25": float(np.quantile(arr, 0.25)),
        "median": float(np.quantile(arr, 0.5)),
        "q75": float(np.quantile(arr, 0.75)),
    }


def summarize(rows: list[dict]) -> dict:
    """Per-estimator summary tables over the successful replicates."""
    methods = []
    for row in rows:
        if row["method"] not in methods:
            methods.append(row["method"])
    tables: dict[str, list[dict]] = {
        "log_evidence": [], "R": [], "truncation": [], "elapsed": [], "errors": [],
    }
    for method in methods:
        ok = [r for r in rows if r["method"] == method and not r.get("error")]
        bad = [r for r in rows if r["method"] == method and r.get("error")]
        tables["log_evidence"].append(
            {"method": method, **_stats([r["log_evidence"] for r in ok])}
        )
        tables["R"].append({"method": method, **_stats([r["R"] for r in ok])})
        trunc = [r for r in ok if "A_size" in r]
        if trunc:
            tables["truncation"].append(
                {
                    "method": method,
                    "count": len(trunc),
                    "A_size_mean": float(np.mean([r["A_size"] for r in trunc])),
                    "A_size_sd": float(np.std([r["A_size"] for r in trunc], ddof=1)) if len(trunc) > 1 else 0.0,
                    "delta_mean": float(np.mean([r["delta"] for r in trunc])),
                    "delta_sd": float(np.std([r["delta"] for r in trunc], ddof=1)) if len(trunc) > 1 else 0.0,
                }
            )
        tables["elapsed"].append(
            {"method": method, **_stats([r["elapsed_seconds"] for r in ok])}
        )
        tables["errors"].append({"method": method, "failures": len(bad)})
    return tables


def write_summary_csv(tables: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    for name, rows in tables.items():
        if not rows:
            continue
        path = out_dir / f"summary_{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})


def read_summary_csv(out_dir) -> dict:
    out_dir = Path(out_dir)
    tables = {}
    for path in sorted(out_dir.glob("summary_*.csv")):
        name = path.stem.removeprefix("summary_")
        with open(path, newline="") as fh:
            rows = []
            for row in csv.DictReader(fh):
                parsed = {}
                for key, value in row.items():
                    if key == "method":
                        parsed[key] = value
                    elif value == "":
                        parsed[key] = None
                    elif key in ("count", "failures"):
                        parsed[key] = int(value)
                    else:
                        parsed[key] = float(value)
                rows.append(parsed)
        tables[name] = rows
    return tables


def _write_long_csv(rows: list[dict], path) -> None:
    """Boxplot-ready long format: estimator, replicate, log_evidence, R."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "replicate", "log_evidence", "R"])
        for row in rows:
            if row.get("error"):
                continue
            writer.writerow([
                row["method"], row["replicate"],
                _fmt(row["log_evidence"]), _fmt(row["R"]),
            ])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)
