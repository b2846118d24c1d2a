"""Scalar reference implementation of the distributions and Gibbs blocks.

The library evaluates and samples the one-sweep block density only in
batched form (`ConditioningSet`, `run_gibbs`).  This module keeps a
per-draw implementation written independently of that code: small
distribution value objects with exact normalized log-densities, the
sufficient statistics of an allocation, the full conditionals, and the
block density pi(theta | theta', z', x) with an exact sampler.  The tests
check the batched code against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mixevidence.model import Allocation, Dataset, MixtureParams, PriorSpec
from mixevidence.numerics import (
    as_generator,
    dirichlet_logpdf,
    gamma_logpdf,
    inverse_gamma_logpdf,
    log_sum_exp,
    normal_logpdf,
)


# ---------------------------------------------------------------------------
# Distribution value objects (the tagged union used by the conditionals).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normal:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be > 0, got {self.variance}")

    def log_pdf(self, x):
        return normal_logpdf(x, self.mean, self.variance)

    def sample(self, rng, size=None):
        return self.mean + math.sqrt(self.variance) * as_generator(rng).standard_normal(size)


@dataclass(frozen=True)
class InverseGamma:
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("inverse-gamma shape and scale must be > 0")

    def log_pdf(self, x):
        return inverse_gamma_logpdf(x, self.shape, self.scale)

    def sample(self, rng, size=None):
        return self.scale / as_generator(rng).gamma(self.shape, 1.0, size)


@dataclass(frozen=True)
class Gamma:
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("gamma shape and rate must be > 0")

    def log_pdf(self, x):
        return gamma_logpdf(x, self.shape, self.rate)

    def sample(self, rng, size=None):
        return as_generator(rng).gamma(self.shape, 1.0 / self.rate, size)


@dataclass(frozen=True)
class Dirichlet:
    concentration: tuple[float, ...]

    def __post_init__(self):
        if len(self.concentration) < 1 or any(a <= 0 for a in self.concentration):
            raise ValueError("dirichlet concentrations must be positive")

    def log_pdf(self, x):
        return dirichlet_logpdf(x, np.array(self.concentration))

    def sample(self, rng, size=None):
        return as_generator(rng).dirichlet(self.concentration, size)


@dataclass(frozen=True)
class Categorical:
    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = np.array(self.probabilities)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("categorical probabilities must be >= 0 and sum to 1")

    def log_pdf(self, x):
        p = np.array(self.probabilities)
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        return logp[np.asarray(x, dtype=np.intp)]

    def sample(self, rng, size=None):
        return as_generator(rng).choice(len(self.probabilities), size=size, p=self.probabilities)


DistSpec = Normal | InverseGamma | Gamma | Dirichlet | Categorical


def log_pdf(spec: DistSpec, point):
    """Exact normalized log-density of `spec` at `point` (-inf off support)."""
    return spec.log_pdf(point)


def sample(spec: DistSpec, rng, size=None):
    """Draw from `spec`; reproducible given the generator state."""
    return spec.sample(rng, size)


def beta_prior(prior) -> Gamma:
    """The Gamma(beta_shape, beta_rate) prior of a hierarchical prior's shared scale."""
    return Gamma(prior.beta_shape, prior.beta_rate)


# ---------------------------------------------------------------------------
# Sufficient statistics, conditionals and the block density of one draw.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficientStats:
    """Per-component counts and power sums of the allocated observations."""

    counts: np.ndarray
    sums: np.ndarray
    sums_sq: np.ndarray

    @classmethod
    def from_allocation(cls, data: Dataset, alloc: Allocation, k: int) -> "SufficientStats":
        z = alloc.labels
        x = data.observations
        if z.size != x.size:
            raise ValueError("allocation length does not match dataset")
        counts = np.bincount(z, minlength=k).astype(float)
        sums = np.bincount(z, weights=x, minlength=k)
        sums_sq = np.bincount(z, weights=x * x, minlength=k)
        return cls(_frozen_array(counts), _frozen_array(sums), _frozen_array(sums_sq))

    def centered_sq(self, centers: np.ndarray) -> np.ndarray:
        """Sum of (x - c_i)^2 within each component, from power sums."""
        c = np.asarray(centers, dtype=float)
        return self.sums_sq - 2.0 * c * self.sums + self.counts * c * c


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def allocation_log_probs(data: Dataset, params: MixtureParams):
    """Normalized per-observation log allocation probabilities, (n, k).

    Rows whose unnormalized log-probabilities are all -inf fall back to a
    one-hot at the closest component mean; the number of such rows is
    returned as a diagnostic.
    """
    x = data.observations[:, None]
    with np.errstate(divide="ignore"):
        logits = np.log(params.weights)[None, :] + normal_logpdf(
            x, params.means[None, :], params.variances[None, :]
        )
    row_max = np.max(logits, axis=1)
    bad = ~np.isfinite(row_max)
    n_fallback = int(np.count_nonzero(bad))
    if n_fallback:
        nearest = np.argmin(np.abs(x - params.means[None, :]), axis=1)
        logits[bad] = -np.inf
        logits[bad, nearest[bad]] = 0.0
        row_max = np.max(logits, axis=1)
    norm = log_sum_exp(logits, axis=1)
    return logits - norm[:, None], n_fallback


def allocation_conditional(data: Dataset, params: MixtureParams) -> list[Categorical]:
    """The conditional allocation distribution of each observation."""
    log_probs, _ = allocation_log_probs(data, params)
    probs = np.exp(log_probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return [Categorical(tuple(row)) for row in probs]


@dataclass(frozen=True)
class FullConditionals:
    """The Gibbs block distributions at the current state."""

    weights: Dirichlet
    means: list[Normal]
    variances: list[InverseGamma]
    beta: Gamma | None = None


def _variance_conditionals(stats: SufficientStats, means: np.ndarray,
                           prior: PriorSpec, beta: float | None):
    """Shapes and scales of the per-component variance conditionals."""
    shape = prior.var_shape + 0.5 * stats.counts
    base = beta if prior.hierarchical else prior.var_scale
    scale = base + 0.5 * stats.centered_sq(means)
    return shape, scale


def _mean_conditional_moments(stats: SufficientStats, variances: np.ndarray,
                              prior: PriorSpec):
    prec = 1.0 / prior.mean_var + stats.counts / variances
    mean = (prior.mean_loc / prior.mean_var + stats.sums / variances) / prec
    return mean, 1.0 / prec


def full_conditionals(data: Dataset, alloc: Allocation, params: MixtureParams,
                      prior: PriorSpec) -> FullConditionals:
    """Block conditionals given the current state; empty blocks reduce to the prior."""
    k = params.k
    stats = SufficientStats.from_allocation(data, alloc, k)
    if prior.hierarchical and params.beta is None:
        raise ValueError("hierarchical prior requires params.beta")
    v_shape, v_scale = _variance_conditionals(stats, params.means, prior, params.beta)
    m_mean, m_var = _mean_conditional_moments(stats, params.variances, prior)
    beta_cond = None
    if prior.hierarchical:
        beta_cond = Gamma(
            prior.beta_shape + prior.var_shape * k,
            prior.beta_rate + float(np.sum(1.0 / params.variances)),
        )
    return FullConditionals(
        weights=Dirichlet(tuple(1.0 + stats.counts)),
        means=[Normal(float(m), float(v)) for m, v in zip(m_mean, m_var)],
        variances=[InverseGamma(float(s), float(c)) for s, c in zip(v_shape, v_scale)],
        beta=beta_cond,
    )


def log_block_density(params_at: MixtureParams, given: tuple[MixtureParams, Allocation],
                      data: Dataset, prior: PriorSpec) -> float:
    """Normalized one-sweep joint block density at `params_at` given a stored draw.

    Factorization: p(weights | z') * prod_i [ p(var_i | mean'_i, z', x)
    * p(mean_i | var_i, z', x) ] * p(beta | var, x) when hierarchical.
    The variance factor conditions on the stored mean (and stored beta);
    the mean factor conditions on the evaluation point's fresh variance.
    """
    given_params, given_alloc = given
    k = params_at.k
    if given_params.k != k:
        raise ValueError("conditioning draw has mismatched number of components")
    stats = SufficientStats.from_allocation(data, given_alloc, k)

    total = float(dirichlet_logpdf(params_at.weights, 1.0 + stats.counts))

    v_shape, v_scale = _variance_conditionals(
        stats, given_params.means, prior, given_params.beta
    )
    total += float(np.sum(inverse_gamma_logpdf(params_at.variances, v_shape, v_scale)))

    m_mean, m_var = _mean_conditional_moments(stats, params_at.variances, prior)
    total += float(np.sum(normal_logpdf(params_at.means, m_mean, m_var)))

    if prior.hierarchical:
        if params_at.beta is None or given_params.beta is None:
            raise ValueError("hierarchical prior requires beta on both states")
        total += float(
            gamma_logpdf(
                params_at.beta,
                prior.beta_shape + prior.var_shape * k,
                prior.beta_rate + float(np.sum(1.0 / params_at.variances)),
            )
        )
    return total


def sample_block(given: tuple[MixtureParams, Allocation], data: Dataset,
                 prior: PriorSpec, rng) -> MixtureParams:
    """One exact draw from the block density evaluated by log_block_density."""
    gen = as_generator(rng)
    given_params, given_alloc = given
    k = given_params.k
    stats = SufficientStats.from_allocation(data, given_alloc, k)

    weights = gen.dirichlet(1.0 + stats.counts)
    v_shape, v_scale = _variance_conditionals(
        stats, given_params.means, prior, given_params.beta
    )
    variances = v_scale / gen.gamma(v_shape)
    m_mean, m_var = _mean_conditional_moments(stats, variances, prior)
    means = gen.normal(m_mean, np.sqrt(m_var))
    beta = None
    if prior.hierarchical:
        beta = float(
            gen.gamma(
                prior.beta_shape + prior.var_shape * k,
                1.0 / (prior.beta_rate + float(np.sum(1.0 / variances))),
            )
        )
    return MixtureParams(weights, means, variances, beta)
