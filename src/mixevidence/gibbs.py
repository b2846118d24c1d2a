"""Data-augmentation Gibbs sampler for the mixture model.

Sweep order: allocations, then weights, then per component the variance
given the stored mean followed by the mean given the fresh variance, then
the shared scale when the prior is hierarchical.  The sweep draws its
blocks from the conditionals in `model` that `ConditioningSet` samples and
evaluates, so one sweep from a stored draw is an exact sample from the
block density the estimators use.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Allocation,
    Dataset,
    MixtureParams,
    ParamsBatch,
    PriorSpec,
    beta_conditional,
    log_likelihood_batch,
    log_prior_batch,
    mean_conditional,
    variance_conditional,
)
from .numerics import (
    Permutation,
    as_generator,
    normal_logpdf,
    permutation_matrix,
)

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "run_gibbs",
    "random_permutation_step",
    "permute_draws",
    "permute_chain",
    "select_pivot",
    "export_chain_csv",
    "integrated_autocorr_time",
    "chain_mean_stderr",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Sweep counts and chain post-processing options."""

    iterations: int = 15_000
    burn_in: int = 5_000
    thinning: int = 1
    random_permutation: bool = False
    seed: int = 0

    def __post_init__(self):
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning stride must be >= 1")

    @property
    def kept(self) -> int:
        return 1 + (self.iterations - self.burn_in - 1) // self.thinning


@dataclass
class GibbsChain:
    """Post-burn-in, thinned draws stored as flat arrays."""

    k: int
    weights: np.ndarray          # (T, k)
    means: np.ndarray            # (T, k)
    variances: np.ndarray        # (T, k)
    allocations: np.ndarray      # (T, n) small ints
    betas: np.ndarray | None     # (T,) under the hierarchical prior
    switch_flags: np.ndarray     # (T,) smallest-mean identity changed
    allocation_fallbacks: int = 0

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.allocations.shape[1]

    def draw(self, t: int) -> tuple[MixtureParams, Allocation]:
        params = MixtureParams(
            self.weights[t].copy(),
            self.means[t].copy(),
            self.variances[t].copy(),
            None if self.betas is None else float(self.betas[t]),
        )
        return params, Allocation(self.allocations[t].astype(np.intp))

    def params_batch(self) -> ParamsBatch:
        return ParamsBatch(self.weights, self.means, self.variances, self.betas)

    def subset(self, indices) -> "GibbsChain":
        idx = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            weights=self.weights[idx],
            means=self.means[idx],
            variances=self.variances[idx],
            allocations=self.allocations[idx],
            betas=None if self.betas is None else self.betas[idx],
            switch_flags=self.switch_flags[idx],
        )


def _init_allocation(x: np.ndarray, k: int) -> np.ndarray:
    """Quantile-slice the sorted data into k contiguous blocks."""
    z = np.empty(x.size, dtype=np.intp)
    order = np.argsort(x, kind="stable")
    for i, block in enumerate(np.array_split(order, k)):
        z[block] = i
    return z


def _sample_allocation(x, weights, means, variances, gen):
    """Gumbel-max categorical draws from the allocation conditionals."""
    with np.errstate(divide="ignore"):
        logits = np.log(weights)[None, :] + normal_logpdf(
            x[:, None], means[None, :], variances[None, :]
        )
    bad = ~np.isfinite(np.max(logits, axis=1))
    n_fallback = int(np.count_nonzero(bad))
    if n_fallback:
        nearest = np.argmin(np.abs(x[:, None] - means[None, :]), axis=1)
        logits[bad] = -np.inf
        logits[bad, nearest[bad]] = 0.0
    z = np.argmax(logits + gen.gumbel(size=logits.shape), axis=1)
    return z, n_fallback


def run_gibbs(data: Dataset, prior: PriorSpec, k: int, config: GibbsConfig,
              rng=None) -> GibbsChain:
    """Run the sampler; draws are deterministic given (data, prior, config, rng)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gen = as_generator(rng if rng is not None else config.seed)
    x = data.observations
    n = x.size

    z = _init_allocation(x, k)
    counts = np.bincount(z, minlength=k).astype(float)
    sums = np.bincount(z, weights=x, minlength=k)
    means = np.where(counts > 0, sums / np.maximum(counts, 1.0), prior.mean_loc)
    beta = prior.beta_shape / prior.beta_rate if prior.hierarchical else None

    kept = config.kept
    W = np.empty((kept, k))
    M = np.empty((kept, k))
    V = np.empty((kept, k))
    Z = np.empty((kept, n), dtype=np.int16)
    B = np.empty(kept) if prior.hierarchical else None

    perm_rows = permutation_matrix(k) if config.random_permutation else None

    variances = None
    weights = None
    total_fallbacks = 0
    out = 0
    for sweep in range(config.iterations):
        if sweep > 0:
            z, n_bad = _sample_allocation(x, weights, means, variances, gen)
            total_fallbacks += n_bad
            counts = np.bincount(z, minlength=k).astype(float)
            sums = np.bincount(z, weights=x, minlength=k)
        sums_sq = np.bincount(z, weights=x * x, minlength=k)

        weights = gen.dirichlet(1.0 + counts)
        shape, scale = variance_conditional(prior, counts, sums, sums_sq, means, beta)
        variances = scale / gen.gamma(shape)
        cond_mean, cond_var = mean_conditional(prior, counts, sums, variances)
        means = gen.normal(cond_mean, np.sqrt(cond_var))
        if prior.hierarchical:
            shape, rate = beta_conditional(prior, variances)
            beta = float(gen.gamma(shape, 1.0 / rate))

        if perm_rows is not None:
            row = perm_rows[gen.integers(len(perm_rows))]
            weights, means, variances = weights[row], means[row], variances[row]
            z = np.argsort(row)[z]

        if sweep >= config.burn_in and (sweep - config.burn_in) % config.thinning == 0:
            W[out], M[out], V[out], Z[out] = weights, means, variances, z
            if B is not None:
                B[out] = beta
            out += 1

    low_mean = np.argmin(M, axis=1)
    switches = np.zeros(kept, dtype=bool)
    switches[1:] = low_mean[1:] != low_mean[:-1]
    return GibbsChain(
        k=k, weights=W, means=M, variances=V, allocations=Z, betas=B,
        switch_flags=switches, allocation_fallbacks=total_fallbacks,
    )


def random_permutation_step(draw: tuple[MixtureParams, Allocation], rng):
    """Apply one uniformly drawn label permutation jointly to a draw."""
    gen = as_generator(rng)
    params, alloc = draw
    rows = permutation_matrix(params.k)
    sigma = Permutation(tuple(rows[gen.integers(len(rows))]))
    return params.permuted(sigma), alloc.permuted(sigma)


def permute_draws(chain: GibbsChain, idx) -> GibbsChain:
    """Relabel draw t, components and allocations, by row idx[t] of permutation_matrix(k)."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = permutation_matrix(chain.k)
    gather = rows[idx]
    inv = np.argsort(rows, axis=1)
    return replace(
        chain,
        weights=np.take_along_axis(chain.weights, gather, axis=1),
        means=np.take_along_axis(chain.means, gather, axis=1),
        variances=np.take_along_axis(chain.variances, gather, axis=1),
        allocations=inv[idx[:, None], chain.allocations.astype(np.intp)].astype(
            chain.allocations.dtype
        ),
    )


def permute_chain(chain: GibbsChain, rng) -> GibbsChain:
    """Independently random-permute every draw of a chain."""
    idx = as_generator(rng).integers(math.factorial(chain.k), size=len(chain))
    return permute_draws(chain, idx)


def chain_log_posterior(chain: GibbsChain, data: Dataset, prior: PriorSpec) -> np.ndarray:
    """log prior + log likelihood of every stored draw."""
    batch = chain.params_batch()
    return log_prior_batch(batch, prior) + log_likelihood_batch(data, batch)


def select_pivot(chain: GibbsChain, data: Dataset, prior: PriorSpec):
    """The stored draw with the highest joint posterior density."""
    if len(chain) == 0:
        raise ValueError("cannot select a pivot from an empty chain")
    t = int(np.argmax(chain_log_posterior(chain, data, prior)))
    return chain.draw(t)


def export_chain_csv(chain: GibbsChain, data: Dataset, prior: PriorSpec, path) -> None:
    """One row per draw: weights, means, variances, [beta,] z hash, log posterior."""
    logpost = chain_log_posterior(chain, data, prior)
    k = chain.k
    header = (
        [f"weight_{i}" for i in range(k)]
        + [f"mean_{i}" for i in range(k)]
        + [f"variance_{i}" for i in range(k)]
        + (["beta"] if chain.betas is not None else [])
        + ["allocation_crc32", "log_posterior"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(len(chain)):
            row = (
                [f"{v:.17g}" for v in chain.weights[t]]
                + [f"{v:.17g}" for v in chain.means[t]]
                + [f"{v:.17g}" for v in chain.variances[t]]
            )
            if chain.betas is not None:
                row.append(f"{chain.betas[t]:.17g}")
            row.append(str(zlib.crc32(chain.allocations[t].astype(np.int64).tobytes())))
            row.append(f"{logpost[t]:.17g}")
            writer.writerow(row)


def integrated_autocorr_time(series: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the autocorrelation time."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    if acov[0] <= 0:
        return 1.0
    rho = acov / acov[0]
    tau = 1.0
    for m in range(1, n // 2):
        pair = rho[2 * m - 1] + rho[2 * m]
        if pair <= 0:
            break
        tau += 2.0 * pair
    return max(tau, 1.0)


def chain_mean_stderr(series: np.ndarray) -> float:
    """Autocovariance-adjusted standard error of a chain average."""
    x = np.asarray(series, dtype=float)
    tau = integrated_autocorr_time(x)
    return float(np.std(x, ddof=1) * math.sqrt(tau / x.size))
