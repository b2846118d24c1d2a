"""The bench's traced re-enactment of `run_replicate` yields the same rows.

`bench/replay.py` repeats the estimator dispatch of
`mixevidence.harness.run_replicate` to put spans around each call. The two
must agree bit for bit under `checks.row_key`; this test holds them in
step at the bench's smoke-test sizes, so a drift fails the test suite and
not only `bench/run.py --trace 1`. The scripts are loaded, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from mixevidence.harness import parse_prior, resolve_dataset, run_replicate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["d2_full", "galaxy_full"])
def test_traced_replicate_rows_equal_run_replicate(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # smoke.py and run.py import their siblings
    smoke, replay = _load("smoke"), _load("replay")
    config = smoke.run.make_config(workload, seed=1, overrides=smoke.TINY)
    data = resolve_dataset(config)
    prior = parse_prior(config.prior, data)

    rows = run_replicate(config, data, prior, 0)
    traced, *_ = replay.traced_replicate(config, data, prior, 0, replay.SpanRecorder())
    assert [smoke.checks.row_key(r) for r in traced] == [smoke.checks.row_key(r) for r in rows]
    assert not any(r["error"] for r in rows)
