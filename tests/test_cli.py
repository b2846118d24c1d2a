import csv
import json

import numpy as np
import pytest

from mixevidence.cli import main
from mixevidence.datasets import load_dataset


def test_simulate_writes_dataset(tmp_path):
    out = tmp_path / "d1.txt"
    assert main(["simulate", "--dataset", "d1", "--seed", "3", "--out", str(out)]) == 0
    data = load_dataset(out)
    assert data.n == 60


def test_simulate_custom_n(tmp_path):
    out = tmp_path / "d2.txt"
    main(["simulate", "--dataset", "d2", "--n", "17", "--out", str(out)])
    assert load_dataset(out).n == 17


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


def test_calibrate_prints_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "calibrate", "--dataset", "d1", "--k", "2", "--prior", "fixed:2,3",
        "--J", "20", "--M", "100", "--T", "500",
        "--iterations", "400", "--burn-in", "100", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "|A| =" in printed
    report = json.loads(out.read_text())
    assert 1 <= report["A_size"] <= 2
    assert len(report["eta_bar"]) == 2


def test_calibrate_describes_the_truncated_row(tmp_path, capsys):
    """calibrate reports the truncation the sym_is_trunc estimate used."""
    flags = ["--dataset", "galaxy", "--k", "4", "--prior", "rg",
             "--iterations", "4000", "--burn-in", "1000", "--seed", "3"]
    calibrated = tmp_path / "report.json"
    estimated = tmp_path / "row.json"
    assert main(["calibrate", *flags, "--out", str(calibrated)]) == 0
    assert main(["estimate", "--estimator", "sym_is_trunc", *flags,
                 "--out", str(estimated)]) == 0
    report = json.loads(calibrated.read_text())
    row = json.loads(estimated.read_text())
    for key in ("A_size", "phi_hat", "delta", "eta_bar", "ordering"):
        assert report[key] == row[key], key
    assert f"|A| = {row['A_size']}," in capsys.readouterr().out


def test_estimate_reports_failure_nonzero_exit(tmp_path):
    code = main([
        "estimate", "--estimator", "bridge", "--dataset", "d1", "--k", "1",
        "--prior", "fixed:2,3", "--M2", "100000",
        "--T", "100", "--iterations", "300", "--burn-in", "100",
        "--seed", "6", "--n", "20",
    ])
    assert code == 1
