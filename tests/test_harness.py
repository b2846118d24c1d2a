import dataclasses
import json
import math
import multiprocessing
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pathlib import Path

import numpy as np
import pytest

from mixevidence import model
from mixevidence.harness import (
    KNOWN_ESTIMATORS,
    ExperimentConfig,
    RunRecord,
    parse_prior,
    read_summary_csv,
    replicate_chains,
    resolve_dataset,
    run_experiment,
    run_replicate,
    summarize,
    write_summary_csv,
)
from mixevidence.model import FixedPrior, HierarchicalPrior


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset="d1",
        k=1,
        prior="fixed:2,3",
        estimators=("chib_kfact", "sym_is", "sym_is_trunc"),
        T=400,
        J=20,
        M=100,
        M1=300,
        M2=300,
        bridge_J1=50,
        iterations=600,
        burn_in=200,
        replicates=2,
        seed=5,
        n=25,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimators"):
            ExperimentConfig(estimators=("nope",))

    def test_positivity(self):
        with pytest.raises(ValueError):
            ExperimentConfig(T=0)
        with pytest.raises(ValueError):
            ExperimentConfig(tau=0.0)
        # NaN would keep every cluster, since phi < nan is never true
        for tau in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tau"):
                ExperimentConfig(tau=tau)
        with pytest.raises(ValueError, match="seed"):  # SeedSequence refuses it mid-run
            ExperimentConfig(seed=-1)
        for field_name in ("J1", "n"):
            with pytest.raises(ValueError, match=field_name):
                ExperimentConfig(**{field_name: 0})
        with pytest.raises(ValueError, match="burn_in"):
            ExperimentConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError, match="thinning"):
            ExperimentConfig(thinning=0)

    def test_subsample_sizes_checked_against_kept_draws(self):
        small = dict(iterations=400, burn_in=100, J=10, J1=10, bridge_J1=10, M2=10)  # 300 kept
        for method, field_name in (("sym_is", "J"), ("sym_is_trunc", "J"),
                                   ("mixture_is", "J1"), ("bridge", "bridge_J1"),
                                   ("bridge", "M2")):
            ExperimentConfig(estimators=(method,), **{**small, field_name: 300})
            message = rf"^{field_name}=301 \({method}\) exceeds the 300 kept draws$"
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(estimators=(method,), **{**small, field_name: 301})
        # the default J1, min(100 k!, 5000), is checked too
        with pytest.raises(ValueError, match=r"^J1=600 \(mixture_is\)"):
            ExperimentConfig(k=3, estimators=("mixture_is",), **{**small, "J1": None})
        # only the estimators the config requests are checked
        ExperimentConfig(estimators=("chib_kfact", "chib_perm", "plugin_is"),
                         **{**small, "J": 10_000, "J1": 10_000, "bridge_J1": 10_000,
                            "M2": 10_000})
        assert _tiny_config(k=3).effective_J1 == 600 > _tiny_config(k=3).gibbs_config().kept

    def test_effective_j1_default(self):
        assert ExperimentConfig(k=2).effective_J1 == 200
        assert ExperimentConfig(k=6).effective_J1 == 5_000
        assert ExperimentConfig(k=2, J1=77).effective_J1 == 77

    def test_dict_round_trip(self):
        cfg = _tiny_config()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.as_dict())))
        assert again == cfg

    @pytest.mark.parametrize("field_name, value", [
        ("k", "3"), ("k", True), ("T", 2.5), ("seed", 1.0), ("n", "20"), ("J1", 7.0),
        ("tau", "1e-3"), ("tau", False), ("dataset", 1), ("prior", None), ("out", 3),
        ("estimators", "sym_is"), ("estimators", 5), ("estimators", ["sym_is", 1]),
    ])
    def test_field_types(self, field_name, value):
        message = rf"^{field_name} must be .*, not {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field_name: value})

    def test_from_dict_takes_a_json_object(self):
        with pytest.raises(ValueError, match="^a config must be a JSON object, not list$"):
            ExperimentConfig.from_dict([1])
        assert ExperimentConfig.from_dict({"k": 2, "T": 50}, T=60) == ExperimentConfig(k=2, T=60)

    def test_from_dict_names_unknown_keys(self):
        with pytest.raises(ValueError, match=r"\['thining', 'tua'\]"):
            ExperimentConfig.from_dict({"tua": 1e-3, "k": 2, "thining": 2})

    def test_negative_replicate_rejected(self):
        # its stream key would be 2^64 - 1, which no run of replicates 0..R-1 uses
        cfg = _tiny_config()
        data = resolve_dataset(cfg)
        with pytest.raises(ValueError, match="replicate must be >= 0"):
            replicate_chains(cfg, data, parse_prior(cfg.prior, data), -1)


class TestPriorParsing:
    def test_fixed_with_args(self, small_normal_data):
        prior = parse_prior("fixed:2,15", small_normal_data)
        assert isinstance(prior, FixedPrior)
        assert prior.var_shape == 2.0 and prior.var_scale == 15.0

    def test_fixed_default(self, small_normal_data):
        prior = parse_prior("fixed", small_normal_data)
        assert prior.var_scale == 3.0

    def test_rg(self, small_normal_data):
        prior = parse_prior("rg", small_normal_data)
        assert isinstance(prior, HierarchicalPrior)
        x = small_normal_data.observations
        assert prior.center == pytest.approx(float(np.median(x)))
        assert prior.spread == pytest.approx(float(x.max() - x.min()))

    def test_bad_spec(self, small_normal_data):
        with pytest.raises(ValueError):
            parse_prior("fixed:2", small_normal_data)
        with pytest.raises(ValueError):
            parse_prior("cauchy", small_normal_data)

    @pytest.mark.parametrize("spec", [
        "fixedgarbage", "fixed:", "fixed:inf,3", "fixed:2,inf", "fixed:nan,3", "fixed:2,3,4",
        "fixed:0,3", "fixed:2,-1", "fixed:,", "rgx", ""])
    def test_malformed_specs_are_rejected(self, small_normal_data, spec):
        with pytest.raises(ValueError, match="prior spec"):
            parse_prior(spec, small_normal_data)

    @pytest.mark.parametrize("spec, shape, scale", [
        ("fixed", 2.0, 3.0), (" FIXED:2,15 ", 2.0, 15.0), ("fixed: 0.005 , 3", 0.005, 3.0),
        ("fixed:2,1e-320", 2.0, 1e-320)])
    def test_fixed_specs_keep_their_meaning(self, small_normal_data, spec, shape, scale):
        assert parse_prior(spec, small_normal_data) == FixedPrior(var_shape=shape,
                                                                  var_scale=scale)

    def test_hierarchical_alias(self, small_normal_data):
        assert parse_prior("Hierarchical", small_normal_data) == parse_prior("rg",
                                                                             small_normal_data)

    @pytest.mark.parametrize("field", ["mean_loc", "mean_var", "var_shape", "var_scale"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_fixed_prior_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            FixedPrior(**{field: value})


class TestRunExperiment:
    def test_end_to_end_deterministic(self, tmp_path):
        cfg = _tiny_config(out=str(tmp_path / "run1"))
        rec1 = run_experiment(cfg)
        rec2 = run_experiment(_tiny_config(out=None))
        assert len(rec1.rows) == 2 * 3
        for a, b in zip(rec1.rows, rec2.rows):
            assert a["method"] == b["method"]
            if not a["error"]:
                assert a["log_evidence"] == b["log_evidence"]
                assert a["ess"] == b["ess"]

    def test_replicates_differ(self):
        rec = run_experiment(_tiny_config())
        by_rep = {}
        for row in rec.rows:
            if row["method"] == "sym_is":
                by_rep[row["replicate"]] = row["log_evidence"]
        assert by_rep[0] != by_rep[1]

    def test_truncated_matches_full_per_replicate(self):
        rec = run_experiment(_tiny_config())
        for r in range(2):
            full = [x for x in rec.rows if x["replicate"] == r and x["method"] == "sym_is"]
            trunc = [x for x in rec.rows
                     if x["replicate"] == r and x["method"] == "sym_is_trunc"]
            assert abs(full[0]["log_evidence"] - trunc[0]["log_evidence"]) < 1e-6

    def test_failure_isolated(self):
        # at k=9, S_k is too large to list: that row fails, others survive
        cfg = _tiny_config(k=9, estimators=("chib_perm", "chib_kfact"), replicates=1)
        rec = run_experiment(cfg)
        by_method = {r["method"]: r for r in rec.rows}
        assert by_method["chib_perm"]["error"].startswith("PermutationCapacityError")
        assert not by_method["chib_kfact"]["error"]
        assert "log_evidence" in by_method["chib_kfact"]

    def test_chain_failure_isolated(self):
        """A replicate whose chain raises gets one error row per estimator;
        the other replicates keep their rows."""
        cfg = ExperimentConfig(dataset="galaxy", k=3, prior="fixed:2,1e-320",
                               estimators=("chib_kfact", "chib_perm"), iterations=300,
                               burn_in=100, replicates=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rec = run_experiment(cfg)
        assert [(r["replicate"], r["method"]) for r in rec.rows] == [
            (rep, m) for rep in range(3) for m in cfg.estimators]
        for row in rec.rows[:4]:
            assert row["error"].startswith("DegenerateStateError: sweep "), row
            assert set(row) == {"replicate", "method", "error"}
        for row in rec.rows[4:]:
            assert row["error"] == "" and math.isfinite(row["log_evidence"]), row
        assert rec.summary["errors"] == [{"method": m, "failures": 2} for m in cfg.estimators]

    def test_k9_fails_only_where_clusters_are_enumerated(self):
        config = _tiny_config(k=9, estimators=KNOWN_ESTIMATORS, J1=50, replicates=1)
        data = resolve_dataset(config)
        rows = run_replicate(config, data, parse_prior(config.prior, data), 0)
        errors = {row["method"]: row["error"] for row in rows}
        for method in ("chib_kfact", "mixture_is", "bridge"):
            assert errors.pop(method) == "", method
        assert sorted(errors) == ["chib_perm", "plugin_is", "sym_is", "sym_is_trunc"]
        for method, error in errors.items():
            assert error.startswith("PermutationCapacityError: enumerating S_9"), method

    def test_threads_reproduce_sequential(self):
        seq = run_experiment(_tiny_config())
        par = run_experiment(_tiny_config(threads=2))
        for a, b in zip(seq.rows, par.rows):
            assert a["method"] == b["method"] and a["replicate"] == b["replicate"]
            if not a["error"]:
                assert a["log_evidence"] == b["log_evidence"]

    def test_worker_processes_fork_after_threaded_kernel(self, monkeypatch):
        """Replicate processes forked after this process ran the kernel in
        threads finish, with the serial rows; a hang fails the test."""
        config = _tiny_config(k=2)
        monkeypatch.setattr(model, "KERNEL_BUDGET", 2 * config.J * 4)  # 2-point chunks
        monkeypatch.setattr(model, "KERNEL_THREADS", 4)  # 2 in each of 2 processes
        serial = run_experiment(config)  # its kernel calls run in 4 threads here
        with ThreadPoolExecutor(1) as runner:
            future = runner.submit(run_experiment, dataclasses.replace(config, threads=2))
            try:
                pooled = future.result(timeout=120)
            except FuturesTimeoutError:
                for child in multiprocessing.active_children():
                    child.kill()  # the pool breaks and run_experiment returns
                raise
        assert len(pooled.rows) == len(serial.rows) == 2 * 3
        for a, b in zip(serial.rows, pooled.rows):
            assert not a["error"]
            a, b = dict(a), dict(b)
            del a["elapsed_seconds"], b["elapsed_seconds"]
            assert a == b

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(_tiny_config(out=str(out)))
        assert (out / "records.json").exists()
        assert (out / "summary_log_evidence.csv").exists()
        assert (out / "long.csv").exists()

    def test_file_dataset(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(str(v) for v in np.linspace(-1, 1, 30)))
        cfg = _tiny_config(dataset=str(path))
        data = resolve_dataset(cfg)
        assert data.n == 30


# The benchmark workloads at the bench smoke-test sizes, seed 1, replicate 0:
# (config, [(method, log_evidence, R, se_log, density_evaluations, A_size)]).
SMOKE_SIZES = dict(iterations=400, burn_in=100, T=300, J=10, J1=40, M=60, M1=200,
                   M2=200, bridge_J1=50, bridge_iterations=3, seed=1, replicates=1)
PINNED_ROWS = {
    "d1_chib": (
        dict(dataset="d1", k=2, prior="fixed:2,3",
             estimators=("chib_kfact", "chib_perm", "plugin_is")),
        [("chib_kfact", -160.17248061445326, 1.0, 0.14366543384954653, 300, None),
         ("chib_perm", -160.17248061445326, 1.0, 0.14366543384954666, 600, None),
         ("plugin_is", -160.24385055130662, 0.39044051373488325, 0.07225951050046968,
          600, None)],
    ),
    "d2_full": (
        dict(dataset="d2", k=3, prior="fixed:2,15"),
        [("chib_kfact", -223.05134050557155, 1.0, 0.5402951131427692, 300, None),
         ("chib_perm", -223.05183860128614, 1.0, 0.5399982767285285, 1800, None),
         ("plugin_is", -224.60517505510003, 0.04974774677955617, 0.2527534849549547,
          1800, None),
         ("sym_is", -222.08968910587197, 0.07161232043236236, 0.20822612487547815,
          18000, None),
         ("sym_is_trunc", -222.08968910587197, 0.07161232043236236, 0.20822612487547815,
          18000, 6),
         ("mixture_is", -222.42198455442207, 0.10193049313724162, 0.17165929258924506,
          12000, None),
         ("bridge", -222.23974145362206, 0.071564593044301, 0.2553290362722502,
          20000, None)],
    ),
    "galaxy_full": (
        dict(dataset="galaxy", k=4, prior="rg"),
        [("chib_kfact", -223.37683087556408, 1.0, 0.3875914162490111, 300, None),
         ("chib_perm", -223.37683087556408, 1.0, 0.3875914162490106, 7200, None),
         ("plugin_is", -224.7883797364838, 0.1081960925990155, 0.16603257476320474,
          7200, None),
         ("sym_is", -224.29040193451976, 0.020177388515868387, 0.40300056626389724,
          72000, None),
         ("sym_is_trunc", -224.29040193451976, 0.020177388515868387, 0.40300056626389724,
          26400, 5),
         ("mixture_is", -226.0693921919748, 0.1370143965755542, 0.14513865027732367,
          12000, None),
         ("bridge", -223.65208931999996, 0.042162813511231585, 0.33787380053862726,
          20000, None)],
    ),
}


@pytest.mark.parametrize("workload", sorted(PINNED_ROWS))
def test_replicate_rows_pinned(workload):
    """Every estimate, diagnostic and evaluation count of one replicate is frozen."""
    fields, pinned = PINNED_ROWS[workload]
    config = ExperimentConfig(**fields, **SMOKE_SIZES)
    data = resolve_dataset(config)
    rows = run_replicate(config, data, parse_prior(config.prior, data), 0)
    assert [r["method"] for r in rows] == [p[0] for p in pinned]
    for row, (method, log_evidence, R, se_log, evaluations, A_size) in zip(rows, pinned):
        assert row["error"] == "", method
        assert row["log_evidence"] == pytest.approx(log_evidence, rel=1e-12, abs=0), method
        assert row["R"] == pytest.approx(R, rel=1e-12, abs=0), method
        assert row["se_log"] == pytest.approx(se_log, rel=1e-12, abs=0), method
        assert row["density_evaluations"] == evaluations, method
        assert row.get("A_size") == A_size, method


# Shortened chains for the screen's share: J1 and bridge_J1 at 2400 draws, the
# size of the galaxy mixture_is proposal, of a 4000-draw chain
SCREEN_SIZES = dict(iterations=5000, burn_in=1000, T=1000, J=100, J1=2400, M1=1000,
                    M2=1000, bridge_J1=2400, bridge_iterations=3, seed=3)


@pytest.mark.parametrize("workload, least, most", [
    ("galaxy_full", 0.9, 1.0), ("d2_full", 0.9, 1.0), ("d1_chib", None, None)])
def test_screened_share_of_a_replicate(workload, least, most, monkeypatch):
    """The share of the points of single-row kernel calls that the screen
    takes, over a replicate: at least 90% on galaxy, where the randomly
    permuted proposals' draws lie far apart, and on D2, whose overlapping
    components keep about a sixth of the draws within reach, and none on
    the D1 Chib route, which makes no single-row call of
    `log_pooled_density`."""
    fields, _ = PINNED_ROWS[workload]
    config = ExperimentConfig(**fields, **SCREEN_SIZES)
    data = resolve_dataset(config)
    pooled = model.ConditioningSet.log_pooled_density
    calls = []

    def spy(cond, batch, perms):
        before = cond.screened
        values = pooled(cond, batch, perms)
        if values.shape[1] == 1:
            calls.append((len(batch), cond.screened - before))
        return values

    monkeypatch.setattr(model.ConditioningSet, "log_pooled_density", spy)
    rows = run_replicate(config, data, parse_prior(config.prior, data), 0)
    assert not any(row["error"] for row in rows)
    if least is None:
        assert calls == []
    else:
        points, screened = np.sum(calls, axis=0)
        assert least <= screened / points <= most


# Imports the package, its harness and its command line in a fresh process,
# runs one replicate and prints its rows' errors, the scipy modules loaded,
# and the multiprocessing modules loaded by the import and by the end.
IMPORT_FOOTPRINT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
import mixevidence
imported = loaded("multiprocessing")
import mixevidence.cli, mixevidence.harness
from mixevidence.harness import ExperimentConfig, parse_prior, resolve_dataset, run_replicate
config = ExperimentConfig(**json.loads(sys.argv[2]))
data = resolve_dataset(config)
rows = run_replicate(config, data, parse_prior(config.prior, data), 0)
print(json.dumps({"errors": [r["error"] for r in rows], "scipy": loaded("scipy"),
                  "multiprocessing": [imported, loaded("multiprocessing")]}))
"""


def test_no_scipy_module_in_a_replicate():
    """The package, and a replicate of all seven routes, the two that relabel
    (sym_is and sym_is_trunc) included, load no scipy module: log Gamma comes
    from `math.lgamma` and the relabelling's assignment is solved in numpy.
    Neither `import mixevidence` nor a serial replicate loads multiprocessing,
    which only `run_experiment`'s worker processes use."""
    fields = dict(PINNED_ROWS["galaxy_full"][0], **SMOKE_SIZES)
    src = Path(model.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT, str(src), json.dumps(fields)],
                          capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout)
    assert result["errors"] == [""] * len(KNOWN_ESTIMATORS)
    assert result["scipy"] == []
    assert result["multiprocessing"] == [[], []]


class TestRecordsAndSummaries:
    def test_json_round_trip(self, tmp_path):
        rec = run_experiment(_tiny_config())
        path = tmp_path / "records.json"
        rec.to_json(path)
        again = RunRecord.from_json(path)
        assert again.config == rec.config
        assert again.rows == json.loads(json.dumps(rec.rows))
        assert again.summary == json.loads(json.dumps(rec.summary))

    def test_summary_recomputable_from_rows(self):
        rec = run_experiment(_tiny_config())
        assert summarize(rec.rows) == rec.summary

    def test_summary_csv_round_trip(self, tmp_path):
        rec = run_experiment(_tiny_config())
        write_summary_csv(rec.summary, tmp_path)
        back = read_summary_csv(tmp_path)
        assert set(back) == set(rec.summary)
        for name, rows in rec.summary.items():
            assert back[name] == rows

    def test_single_replicate_sd_zero(self):
        rec = run_experiment(_tiny_config(replicates=1))
        for row in rec.summary["log_evidence"]:
            assert row["sd"] == 0.0

    def test_all_seven_known(self):
        assert len(KNOWN_ESTIMATORS) == 7
