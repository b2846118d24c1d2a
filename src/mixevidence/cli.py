"""Command-line interface.

Subcommands: ``simulate`` (write the dataset of a config), ``gibbs`` (run
and export replicate 0's chain), ``estimate`` (one estimator on one
replicate, printed as its JSON row; the ``sym_is_trunc`` row carries the
truncation report: ``A_size``, ``phi_hat``, ``delta``, ``eta_bar`` and
``ordering``) and ``compare`` (the full replicated estimator comparison).

Every subcommand reads an `ExperimentConfig`: a JSON config file, if given,
overridden by explicit flags.  Each config flag is declared once, in the
flag group of the settings it sets, with no default of its own, so an unset
flag takes the config file's value or the `ExperimentConfig` default.  A
subcommand takes only the groups it uses, and the harness derives its data
and chain from the config and seed as `compare` does.  A config, dataset,
prior or replicate that cannot be used is reported in one line, with exit
status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .gibbs import export_chain_csv
from .harness import (
    KNOWN_ESTIMATORS,
    ExperimentConfig,
    parse_prior,
    replicate_chains,
    resolve_dataset,
    run_experiment,
    run_replicate,
)
from .model import Dataset, PriorSpec


def _add_data_flags(p: argparse.ArgumentParser, out_help: str, out_required=False) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--dataset", help="builtin name (d1, d2, galaxy, fishery) or file path")
    p.add_argument("--n", type=int, help="sample size for simulated datasets")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=out_required, help=out_help)


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="number of mixture components")
    p.add_argument("--prior", help="'fixed:a,b' or 'rg'")
    p.add_argument("--iterations", type=int, help="total Gibbs sweeps")
    p.add_argument("--burn-in", type=int, dest="burn_in")
    p.add_argument("--thinning", type=int)


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=int, help="importance particles per estimator")
    p.add_argument("--J", type=int, help="pooled draws in the symmetrized proposal")
    p.add_argument("--J1", type=int, help="draws in the permuted-mixture proposal")
    p.add_argument("--M", type=int, help="calibration particles for truncation")
    p.add_argument("--M1", type=int, help="bridge draws from the proposal")
    p.add_argument("--M2", type=int, help="bridge draws from the posterior")
    p.add_argument("--bridge-iterations", type=int, dest="bridge_iterations")
    p.add_argument("--tau", type=float, help="truncation threshold")


def _config_from_args(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
    flags = {key: getattr(args, key) for key in ExperimentConfig.__dataclass_fields__
             if getattr(args, key, None) is not None}
    if "estimators" in flags:  # --estimators is comma-separated
        flags["estimators"] = tuple(
            name.strip() for name in flags["estimators"].split(",") if name.strip()
        )
    return ExperimentConfig.from_dict(payload, **{**flags, **overrides})


class _InputError(Exception):
    """A config, dataset, prior or replicate the command cannot use."""


def _inputs(args: argparse.Namespace,
            **overrides) -> tuple[ExperimentConfig, Dataset, PriorSpec]:
    """The command's config, data and prior."""
    try:
        config = _config_from_args(args, **overrides)
        data = resolve_dataset(config)
        prior = parse_prior(config.prior, data)
    except (ValueError, OSError) as exc:
        raise _InputError(str(exc)) from exc
    return config, data, prior


def _cmd_simulate(args) -> int:
    config, data, _ = _inputs(args, estimators=())  # the data, no estimates
    lines = [f"# dataset {data.name!r} (n={data.n}, seed={config.seed})"]
    lines += [f"{v:.17g}" for v in data.observations]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gibbs(args) -> int:
    config, data, prior = _inputs(args, estimators=())  # a chain, no estimates
    _, chain, permuted = replicate_chains(config, data, prior, replicate=0)
    chain = permuted if args.permute else chain
    export_chain_csv(chain, data, prior, args.out)
    switches = int(chain.switch_flags.sum())
    print(f"wrote {len(chain)} draws to {args.out} "
          f"({switches} smallest-mean identity switches)")
    return 0


def _cmd_estimate(args) -> int:
    config, data, prior = _inputs(args, estimators=(args.estimator,), replicates=1,
                                  out=None)
    if args.replicate < 0:
        raise _InputError(f"replicate must be >= 0, got {args.replicate}")
    rows = run_replicate(config, data, prior, replicate=args.replicate)
    payload = json.dumps(rows[0], indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if not rows[0]["error"] else 1


def _cmd_compare(args) -> int:
    config, _, _ = _inputs(args)  # checks the dataset and prior before the run
    record = run_experiment(config)
    for table_name in ("log_evidence", "R"):
        print(f"== {table_name} ==")
        for row in record.summary[table_name]:
            if not row["count"]:
                print(f"  {row['method']:<14} no successful replicates")
                continue
            print(
                f"  {row['method']:<14} mean={row['mean']:.4f} sd={row['sd']:.4f} "
                f"median={row['median']:.4f} (n={row['count']})"
            )
    failures = sum(r["failures"] for r in record.summary["errors"])
    if failures:
        print(f"{failures} estimator failures; see records for details")
    if config.out:
        print(f"outputs written to {config.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixevidence",
        description="Evidence estimation for univariate Gaussian mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the dataset of a config")
    _add_data_flags(p, "output file (default: standard output)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gibbs", help="run replicate 0's chain and export it as CSV")
    _add_data_flags(p, "output CSV file", out_required=True)
    _add_chain_flags(p)
    p.add_argument("--random-permutation", action="store_true", dest="permute",
                   help="export the chain with each stored draw relabelled by a "
                        "uniformly drawn label permutation, as chib_perm and "
                        "bridge use it")
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("estimate", help="run one estimator once")
    p.add_argument("--estimator", required=True, choices=KNOWN_ESTIMATORS)
    p.add_argument("--replicate", type=int, default=0)
    _add_data_flags(p, "output JSON file (default: standard output)")
    _add_chain_flags(p)
    _add_estimator_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("compare", help="replicated comparison of the estimators")
    _add_data_flags(p, "output directory")
    _add_chain_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--estimators", help="comma-separated subset of: " + ",".join(KNOWN_ESTIMATORS))
    p.add_argument("--replicates", type=int)
    p.add_argument("--threads", type=int, help="concurrent replicate workers")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"mixevidence: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
