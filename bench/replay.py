"""A traced re-enactment of `run_replicate`, and micro-calls into the model.

`traced_replicate` makes the same public calls as
`mixevidence.harness.run_replicate`, in the same order and with the same
keyed substreams, and records a span around each. Its rows must equal the
untraced rows bit for bit; `run.py` checks that, so the spans always time
the program that produced the end-to-end figures.

`micro_calls` times single model-layer calls on a replicate's chain, and
`off_path_estimators` runs the estimators the workload leaves out on that
chain. Both run after the replicate and draw from their own substreams, so
they cannot change the replicate's rows.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from mixevidence.estimators import (
    bridge_sampling,
    build_dual_proposal,
    build_permuted_mixture,
    build_plugin_proposal,
    chib,
    importance_estimate,
)
from mixevidence.gibbs import permute_chain, run_gibbs, select_pivot
from mixevidence.harness import KNOWN_ESTIMATORS
from mixevidence.model import (
    ConditioningSet,
    ParamsBatch,
    log_likelihood_batch,
    log_prior_batch,
)
from mixevidence.numerics import RngStream
from mixevidence.relabel import relabel_chain

# Block-density evaluations per kernel timing: about 0.1 s at 100 ns each.
KERNEL_EVALUATIONS = 1_000_000
REPEATS = 3


class SpanRecorder:
    """Spans kept in memory: id, name, start, end, parent id and replicate."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, replicate: int):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "replicate": replicate,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def traced_replicate(config, data, prior, replicate: int, recorder: SpanRecorder):
    """`run_replicate` with spans; returns (rows, chain, permuted chain, pivot)."""

    def span(name):
        return recorder.span(name, replicate)

    with span("harness.replicate"):
        stream = RngStream(config.seed).substream("replicate", replicate)
        with span("gibbs.run_gibbs"):
            chain = run_gibbs(data, prior, config.k, config.gibbs_config(),
                              rng=stream.substream("gibbs"))
        with span("gibbs.permute_chain"):
            permuted = permute_chain(chain, stream.substream("permute"))
        with span("gibbs.select_pivot"):
            pivot = select_pivot(chain, data, prior)
        rows = _traced_estimators(config.estimators, config, data, prior, chain, permuted,
                                  pivot, stream, replicate, span)
    return rows, chain, permuted, pivot


def off_path_estimators(config, data, prior, chain, permuted, pivot, replicate: int,
                        recorder: SpanRecorder) -> list[dict]:
    """The known estimators the workload does not run, traced on the replicate's
    chain with their own substream, so every estimator has measured figures.

    Their spans sit under an "off_path" root, outside the replicate span.
    """
    missing = [m for m in KNOWN_ESTIMATORS if m not in config.estimators]

    def span(name):
        return recorder.span(name, replicate)

    with span("off_path"):
        return _traced_estimators(missing, config, data, prior, chain, permuted, pivot,
                                  RngStream(config.seed).substream("bench-off-path", replicate),
                                  replicate, span)


def _traced_estimators(methods, config, data, prior, chain, permuted, pivot, stream,
                       replicate, span) -> list[dict]:
    """The estimator loop of `run_replicate`, with a span around each estimator."""
    dual = None

    def dual_proposal():
        nonlocal dual
        if dual is None:
            with span("relabel.relabel_chain"):
                relabelled = relabel_chain(chain, pivot[0])
            with span("estimators.build_dual_proposal"):
                dual = build_dual_proposal(relabelled, data, prior, config.J,
                                           stream.substream("subsample"))
        return dual

    rows = []
    for method in methods:
        row = {"replicate": replicate, "method": method}
        with span(f"estimators.{method}"):
            try:
                est = _estimate(method, config, data, prior, chain, permuted,
                                pivot, dual_proposal, stream)
                rec = est.as_record()
                rec.pop("trace", None)
                row.update(rec)
                row["error"] = ""
            except Exception as exc:  # noqa: BLE001 - mirrors run_replicate
                row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _estimate(method, config, data, prior, chain, permuted, pivot, dual_proposal, stream):
    if method == "chib_kfact":
        return chib(data, prior, chain, pivot, mode="k_fact")
    if method == "chib_perm":
        return chib(data, prior, permuted, pivot, mode="permutation_averaged")
    if method == "plugin_is":
        proposal = build_plugin_proposal(data, prior, pivot)
        return importance_estimate(proposal, config.T, stream.substream("plugin"))
    if method == "sym_is":
        return importance_estimate(dual_proposal(), config.T, stream.substream("dual"))
    if method == "sym_is_trunc":
        return importance_estimate(dual_proposal(), config.T, stream.substream("dual"),
                                   truncated=True, M=config.M, tau=config.tau)
    if method == "mixture_is":
        proposal = build_permuted_mixture(chain, data, prior, config.effective_J1,
                                          stream.substream("j1"))
        return importance_estimate(proposal, config.T, stream.substream("j1-particles"))
    if method == "bridge":
        proposal = build_permuted_mixture(chain, data, prior, config.bridge_J1,
                                          stream.substream("bridge-q"))
        return bridge_sampling(data, prior, proposal, config.M1, config.M2,
                               config.bridge_iterations, stream.substream("bridge"),
                               permuted)
    raise ValueError(method)


def _median_time(call):
    """Median wall time of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def micro_calls(config, data, prior, chain, pivot, replicate: int) -> dict:
    """Per-call costs of the model layer on one replicate's chain."""
    stream = RngStream(config.seed).substream("bench-micro", replicate)
    out = {}

    allocs = chain.allocations.astype(np.intp)
    seconds, _ = _median_time(lambda: ConditioningSet.from_draws(
        data, prior, chain.means, allocs, chain.betas))
    out["cond.build_us_per_draw"] = seconds / len(chain) * 1e6

    proposals = {
        # the sym_is proposal: J draws, all k! permutations
        "sym": (build_dual_proposal(relabel_chain(chain, pivot[0]), data, prior, config.J,
                                    stream.substream("subsample")), config.T),
        # the bridge proposal: bridge_J1 draws, the identity permutation only
        "mix": (build_permuted_mixture(chain, data, prior, config.bridge_J1,
                                       stream.substream("bridge-q")), config.M1),
    }
    for label, (proposal, particles) in proposals.items():
        seconds, batch = _median_time(
            lambda: proposal.sample(particles, stream.substream("sample", label)))
        out[f"sample.{label}.us_per_particle"] = seconds / particles * 1e6

        per_point = proposal.n_clusters * proposal.J
        size = min(batch.size, math.ceil(KERNEL_EVALUATIONS / per_point))
        head = ParamsBatch(batch.weights[:size], batch.means[:size], batch.variances[:size],
                           None if batch.betas is None else batch.betas[:size])
        before = proposal.cond.evaluations
        seconds, _ = _median_time(lambda: proposal.log_q(head))
        evaluations = (proposal.cond.evaluations - before) // REPEATS
        out[f"kernel.{label}.ns_per_eval"] = seconds / evaluations * 1e9

        if label == "sym":
            seconds, _ = _median_time(lambda: (log_likelihood_batch(data, batch),
                                               log_prior_batch(batch, prior)))
            out["target.ns_per_point_obs"] = seconds / (batch.size * data.n) * 1e9
    return out
