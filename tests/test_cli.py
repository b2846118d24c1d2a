import csv
import json
import math

import numpy as np
import pytest

from mixevidence.cli import main
from mixevidence.datasets import load_dataset
from mixevidence.gibbs import run_gibbs
from mixevidence.harness import ExperimentConfig, parse_prior, resolve_dataset
from mixevidence.numerics import RngStream


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "d1.txt"
    assert main(["simulate", "--dataset", "d1", "--seed", "3", "--out", str(out)]) == 0
    data = load_dataset(out)
    assert data.n == 60


def test_simulate_custom_n(tmp_path):
    out = tmp_path / "d2.txt"
    main(["simulate", "--dataset", "d2", "--n", "17", "--out", str(out)])
    assert load_dataset(out).n == 17


@pytest.mark.parametrize("flags, settings", [
    (["--dataset", "d1", "--seed", "3"], {"dataset": "d1", "seed": 3}),
    (["--dataset", "d2", "--n", "17", "--seed", "5"], {"dataset": "d2", "n": 17, "seed": 5}),
    (["--seed", "8"], {"seed": 8}),
])
def test_simulate_writes_the_dataset_of_the_config(tmp_path, flags, settings):
    """The file holds, to the last bit, the dataset that `compare` and
    `estimate` draw for the same config and seed."""
    out = tmp_path / "data.txt"
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    np.testing.assert_array_equal(load_dataset(out).observations,
                                  resolve_dataset(ExperimentConfig(**settings)).observations)


def test_gibbs_exports_chain(tmp_path):
    out = tmp_path / "chain.csv"
    code = main([
        "gibbs", "--dataset", "d1", "--k", "2", "--prior", "fixed:2,3",
        "--iterations", "300", "--burn-in", "100", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert "log_posterior" in rows[0]
    # the chain of replicate 0 of the equivalent ExperimentConfig, to the last bit
    config = ExperimentConfig(dataset="d1", k=2, prior="fixed:2,3", estimators=(),
                              iterations=300, burn_in=100, seed=1)
    data = resolve_dataset(config)
    chain = run_gibbs(data, parse_prior(config.prior, data), 2, config.gibbs_config(),
                      rng=RngStream(1).substream("replicate", 0).substream("gibbs"))
    for name in ("weights", "means", "variances"):
        exported = [[float(r[f"{name[:-1]}_{i}"]) for i in range(2)] for r in rows]
        np.testing.assert_array_equal(exported, getattr(chain, name))


def test_gibbs_random_permutation(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    code = main([
        "gibbs", "--dataset", "d1", "--k", "2", "--prior", "fixed:2,3",
        "--iterations", "2100", "--burn-in", "100", "--seed", "1",
        "--random-permutation", "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    low = np.argmin([[float(r["mean_0"]), float(r["mean_1"])] for r in rows], axis=1)
    # D1 barely switches on its own; relabelled draws give each label the
    # smallest mean half the time, independently from draw to draw
    assert abs(np.mean(low == 0) - 0.5) < 4 * math.sqrt(0.25 / len(rows))
    switches = int(np.sum(low[1:] != low[:-1]))
    assert f"({switches} smallest-mean identity switches)" in capsys.readouterr().out


def test_estimate_single(tmp_path):
    out = tmp_path / "est.json"
    code = main([
        "estimate", "--estimator", "sym_is", "--dataset", "d1", "--k", "1",
        "--prior", "fixed:2,3", "--T", "200", "--J", "10",
        "--iterations", "300", "--burn-in", "100", "--seed", "2",
        "--n", "20", "--out", str(out),
    ])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["method"] == "sym_is"
    assert np.isfinite(rec["log_evidence"])


def test_compare_with_config_file(tmp_path, capsys):
    cfg = {
        "dataset": "d1", "k": 1, "prior": "fixed:2,3",
        "estimators": ["chib_kfact", "sym_is"],
        "T": 200, "J": 10, "iterations": 300, "burn_in": 100,
        "replicates": 2, "seed": 4, "n": 20,
        "out": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    # the flag overrides the file value
    code = main(["compare", "--config", str(cfg_path), "--replicates", "1"])
    assert code == 0
    record = json.loads((tmp_path / "results" / "records.json").read_text())
    assert record["config"]["replicates"] == 1
    assert len(record["rows"]) == 2
    out = capsys.readouterr().out
    assert "log_evidence" in out


def test_estimate_reports_truncation(tmp_path):
    """The sym_is_trunc row carries the permutation cluster report."""
    out = tmp_path / "row.json"
    code = main([
        "estimate", "--estimator", "sym_is_trunc", "--dataset", "d1", "--k", "2",
        "--prior", "fixed:2,3", "--J", "20", "--M", "100", "--T", "500",
        "--iterations", "400", "--burn-in", "100", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    row = json.loads(out.read_text())
    assert 1 <= row["A_size"] <= 2
    assert len(row["eta_bar"]) == len(row["ordering"]) == 2
    assert 0.0 < row["delta"] <= 1.0 and row["phi_hat"] >= 0.0


def test_estimate_reports_failure_nonzero_exit(tmp_path):
    code = main([
        "estimate", "--estimator", "chib_perm", "--dataset", "d1", "--k", "9",
        "--prior", "fixed:2,3",
        "--T", "100", "--iterations", "300", "--burn-in", "100",
        "--seed", "6", "--n", "20",
    ])
    assert code == 1


def test_compare_reports_an_estimator_that_fails_every_replicate(capsys):
    """chib_perm refuses k > 8, so it has no successful replicate: its summary
    lines say so, the failure count is printed and the run exits 0."""
    code = main(["compare", "--dataset", "d1", "--k", "9", "--estimators", "chib_perm",
                 "--replicates", "1", "--iterations", "300", "--burn-in", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("chib_perm      no successful replicates") == 2  # log_evidence and R
    assert "1 estimator failures" in out


BAD_CONFIGS = {
    "bad.json": {"thining": 2},
    "list.json": [1],
    "string-k.json": {"k": "3"},
    "float-T.json": {"T": 2.5},
}


@pytest.mark.parametrize("make_argv, message", [
    (lambda tmp: ["simulate", "--config", str(tmp / "bad.json")], "['thining']"),
    (lambda tmp: ["simulate", "--dataset", str(tmp / "missing.txt")], "missing.txt"),
    (lambda tmp: ["estimate", "--estimator", "sym_is", "--k", "0"], "k must be >= 1"),
    (lambda tmp: ["estimate", "--estimator", "chib_kfact", "--dataset", "d1",
                  "--iterations", "300", "--burn-in", "100", "--replicate", "-1"],
     "replicate must be >= 0"),
    (lambda tmp: ["simulate", "--config", str(tmp / "list.json")],
     "a config must be a JSON object, not list"),
    (lambda tmp: ["simulate", "--config", str(tmp / "string-k.json")],
     "k must be an integer, not '3'"),
    (lambda tmp: ["simulate", "--config", str(tmp / "float-T.json")],
     "T must be an integer, not 2.5"),
    (lambda tmp: ["estimate", "--estimator", "sym_is", "--dataset", "d1",
                  "--prior", "fixed:inf,3"],
     "bad fixed prior spec 'fixed:inf,3'"),
], ids=["unknown-config-key", "missing-dataset", "k-zero", "negative-replicate",
        "config-not-an-object", "string-k", "float-T", "infinite-prior"])
def test_bad_input_is_a_one_line_error(tmp_path, capsys, make_argv, message):
    """A config, dataset or replicate the command cannot use exits 2 with one
    `mixevidence: error:` line and no traceback or row."""
    for name, payload in BAD_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixevidence: error: ")
    assert message in captured.err and captured.err.count("\n") == 1
