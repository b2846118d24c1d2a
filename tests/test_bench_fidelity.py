"""The bench's traced re-enactment of `run_replicate` yields the same rows.

`bench/replay.py` repeats the estimator dispatch of
`mixevidence.harness.run_replicate` to put spans around each call, then
times model-layer micro-calls and runs the estimators a workload leaves
out on the traced replicate's chain and pivot. The two dispatches must
agree bit for bit under `checks.row_key`, and the rest of the trace path
must run on what `traced_replicate` returns; these tests hold all of it in
step at the bench's smoke-test sizes, so a drift fails the test suite and
not only `bench/run.py --trace 1`. The scripts are loaded, never changed.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from mixevidence.harness import KNOWN_ESTIMATORS, parse_prior, resolve_dataset, run_replicate

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ["d1_chib", "d2_full", "galaxy_full"]
MICRO_METRICS = {
    "cond.build_us_per_draw", "sample.sym.us_per_particle", "sample.mix.us_per_particle",
    "kernel.sym.ns_per_eval", "kernel.mix.ns_per_eval", "target.ns_per_point_obs",
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def bench(monkeypatch):
    """The smoke and replay scripts; smoke.py and run.py import their siblings."""
    monkeypatch.syspath_prepend(str(BENCH))
    return _load("smoke"), _load("replay")


def _setup(smoke, workload: str):
    config = smoke.run.make_config(workload, seed=1, overrides=smoke.TINY)
    data = resolve_dataset(config)
    return config, data, parse_prior(config.prior, data)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_replicate_rows_equal_run_replicate(workload, bench):
    smoke, replay = bench
    config, data, prior = _setup(smoke, workload)

    rows = run_replicate(config, data, prior, 0)
    traced, *_ = replay.traced_replicate(config, data, prior, 0, replay.SpanRecorder())
    assert [smoke.checks.row_key(r) for r in traced] == [smoke.checks.row_key(r) for r in rows]
    assert not any(r["error"] for r in rows)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_path_runs_on_traced_replicate(workload, bench):
    """Micro-calls and off-path estimators run on the traced chain and pivot."""
    smoke, replay = bench
    config, data, prior = _setup(smoke, workload)
    recorder = replay.SpanRecorder()
    _, chain, permuted, pivot = replay.traced_replicate(config, data, prior, 0, recorder)

    off_path = replay.off_path_estimators(config, data, prior, chain, permuted, pivot, 0,
                                          recorder)
    missing = [m for m in KNOWN_ESTIMATORS if m not in config.estimators]
    assert [r["method"] for r in off_path] == missing
    assert not any(r["error"] for r in off_path)
    assert smoke.checks.count_mismatches(config, off_path) == []

    micro = replay.micro_calls(config, data, prior, chain, pivot, 0)
    assert set(micro) == MICRO_METRICS
    assert all(math.isfinite(v) and v > 0 for v in micro.values())
