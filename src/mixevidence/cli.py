"""Command-line interface.

Subcommands: ``simulate`` (write a dataset file), ``gibbs`` (run and export
a chain), ``estimate`` (one estimator on one dataset), ``compare`` (the
full replicated estimator comparison) and ``calibrate`` (the permutation
cluster contribution report of the ``sym_is_trunc`` estimate).  ``compare``
and ``estimate`` accept a JSON config file; explicit flags override file
values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .datasets import generate_dataset
from .gibbs import GibbsConfig, export_chain_csv, run_gibbs
from .harness import (
    KNOWN_ESTIMATORS,
    ExperimentConfig,
    parse_prior,
    resolve_dataset,
    run_experiment,
    run_replicate,
)
from .numerics import RngStream


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--dataset", help="builtin name (d1, d2, galaxy, fishery) or file path")
    p.add_argument("--k", type=int, help="number of mixture components")
    p.add_argument("--prior", help="'fixed:a,b' or 'rg'")
    p.add_argument("--estimators", help="comma-separated subset of: " + ",".join(KNOWN_ESTIMATORS))
    p.add_argument("--T", type=int, help="importance particles per estimator")
    p.add_argument("--J", type=int, help="pooled draws in the symmetrized proposal")
    p.add_argument("--J1", type=int, help="draws in the permuted-mixture proposal")
    p.add_argument("--M", type=int, help="calibration particles for truncation")
    p.add_argument("--M1", type=int, help="bridge draws from the proposal")
    p.add_argument("--M2", type=int, help="bridge draws from the posterior")
    p.add_argument("--bridge-iterations", type=int, dest="bridge_iterations")
    p.add_argument("--tau", type=float, help="truncation threshold")
    p.add_argument("--iterations", type=int, help="total Gibbs sweeps")
    p.add_argument("--burn-in", type=int, dest="burn_in")
    p.add_argument("--thinning", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int, help="sample size for simulated datasets")
    p.add_argument("--out", help="output directory (or file, per subcommand)")
    p.add_argument("--threads", type=int, help="concurrent replicate workers")


def _config_from_args(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    payload: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            payload.update(json.load(fh))
    for key in ExperimentConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            payload[key] = value
    if "estimators" in payload and isinstance(payload["estimators"], str):
        payload["estimators"] = tuple(
            name.strip() for name in payload["estimators"].split(",") if name.strip()
        )
    payload.update(overrides)
    return ExperimentConfig.from_dict(payload)


def _cmd_simulate(args) -> int:
    data = generate_dataset(args.dataset, n=args.n, rng=args.seed)
    lines = [f"# simulated dataset {data.name!r} (n={data.n}, seed={args.seed})"]
    lines += [f"{v:.17g}" for v in data.observations]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gibbs(args) -> int:
    data = resolve_dataset(_config_from_args(args, out=None))
    prior = parse_prior(args.prior, data)
    config = GibbsConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        thinning=args.thinning,
        random_permutation=args.random_permutation,
        seed=args.seed,
    )
    chain = run_gibbs(data, prior, args.k, config,
                      rng=RngStream(args.seed).substream("replicate", 0, "gibbs"))
    export_chain_csv(chain, data, prior, args.out)
    switches = int(chain.switch_flags.sum())
    print(f"wrote {len(chain)} draws to {args.out} "
          f"({switches} smallest-mean identity switches)")
    return 0


def _cmd_estimate(args) -> int:
    config = _config_from_args(args, estimators=(args.estimator,), replicates=1, out=None)
    data = resolve_dataset(config)
    prior = parse_prior(config.prior, data)
    rows = run_replicate(config, data, prior, replicate=args.replicate)
    payload = json.dumps(rows[0], indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0 if not rows[0]["error"] else 1


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    record = run_experiment(config)
    for table_name in ("log_evidence", "R"):
        print(f"== {table_name} ==")
        for row in record.summary[table_name]:
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


def _cmd_calibrate(args) -> int:
    config = _config_from_args(args, estimators=("sym_is_trunc",), replicates=1, out=None)
    data = resolve_dataset(config)
    prior = parse_prior(config.prior, data)
    row = run_replicate(config, data, prior, replicate=args.replicate)[0]
    if row["error"]:
        print(f"sym_is_trunc failed: {row['error']}", file=sys.stderr)
        return 1
    print(f"ranked mean cluster contributions (M={row['M']}, tau={row['tau']:g}):")
    for rank, (idx, eta) in enumerate(zip(row["ordering"], row["eta_bar"]), start=1):
        marker = "*" if rank <= row["A_size"] else " "
        print(f" {marker} rank {rank:>3}  cluster {idx:>3}  eta_bar={eta:.6g}")
    print(f"|A| = {row['A_size']}, phi_hat = {row['phi_hat']:.6g}, "
          f"workload fraction = {row['delta']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(row, fh, indent=1)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixevidence",
        description="Evidence estimation for univariate Gaussian mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated dataset file")
    p.add_argument("--dataset", default="d1", help="d1 or d2")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gibbs", help="run one chain and export it as CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prior", default="fixed:2,3")
    p.add_argument("--iterations", type=int, default=15_000)
    p.add_argument("--burn-in", type=int, dest="burn_in", default=5_000)
    p.add_argument("--thinning", type=int, default=1)
    p.add_argument("--random-permutation", action="store_true", dest="random_permutation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("estimate", help="run one estimator once")
    p.add_argument("--estimator", required=True, choices=KNOWN_ESTIMATORS)
    p.add_argument("--replicate", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("compare", help="replicated comparison of the estimators")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("calibrate", help="cluster contribution / truncation report")
    p.add_argument("--replicate", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
