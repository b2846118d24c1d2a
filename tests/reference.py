"""Scalar reference implementation of the densities and Gibbs blocks.

The library evaluates and samples the likelihood, the prior and the
one-sweep block density only in batched form (`log_likelihood_batch`,
`log_prior_batch`, `ConditioningSet`, `run_gibbs`), and holds a parameter
state only as a row of a `ParamsBatch` (a `GibbsChain` is one that also
holds the draws' allocations).  This module keeps a per-draw
implementation written independently of that code: a validated scalar
state (`MixtureParams`, `Allocation`) with conversions to and from the
library's rows, small distribution value objects with exact normalized
log-densities, the scalar likelihood and prior, the sufficient
statistics of an allocation, the full conditionals, and the block density
pi(theta | theta', z', x) with an exact sampler, and the relabelling of a
chain towards a reference by exhaustive search over S_k.  It also keeps
`log_sum_exp_into` as it was before its exponent floor, the grouped
loop that `ConditioningSet.sample` replaced, the truncation report's
phi trace summed point by point, and the Gibbs sampler with its parameter
step on (k,) arrays.  The tests check the batched code against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from mixevidence.gibbs import GibbsChain, GibbsConfig, _init_allocation, _sample_allocation
from mixevidence.model import (
    ConditioningSet,
    Dataset,
    ParamsBatch,
    PriorSpec,
    beta_conditional,
    mean_conditional,
    variance_conditional,
)
from mixevidence.numerics import (
    as_generator,
    dirichlet_logpdf,
    gamma_logpdf,
    inverse_gamma_logpdf,
    log_sum_exp,
    normal_logpdf,
)


# ---------------------------------------------------------------------------
# Scalar states, and their conversion to and from the library's rows.
# ---------------------------------------------------------------------------

def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MixtureParams:
    """Full parameter state of a k-component Gaussian mixture.

    `beta` is the shared variance-prior scale and is only set when the
    model carries the hierarchical prior; it rides along with the state so
    that per-draw values can differ along a chain.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    beta: float | None = None

    def __post_init__(self):
        w = _frozen_array(self.weights)
        m = _frozen_array(self.means)
        v = _frozen_array(self.variances)
        if not (w.shape == m.shape == v.shape) or w.ndim != 1 or w.size < 1:
            raise ValueError("weights/means/variances must be 1-D and same length")
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be >= 0 and sum to 1 within 1e-12")
        if np.any(v <= 0):
            raise ValueError("variances must be > 0")
        if self.beta is not None and not self.beta > 0:
            raise ValueError("beta must be > 0 when present")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def k(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Allocation:
    """Latent component label per observation."""

    labels: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.labels)
        if z.ndim != 1 or z.size < 1:
            raise ValueError("labels must be a non-empty 1-D integer array")
        if np.any(z < 0):
            raise ValueError("labels must be non-negative")
        z = z.astype(np.intp)
        z.flags.writeable = False
        object.__setattr__(self, "labels", z)

    @property
    def n(self) -> int:
        return self.labels.size


def from_params(params_seq) -> ParamsBatch:
    """The states of `params_seq` stacked into one batch, in order."""
    params_seq = list(params_seq)
    betas = None
    if params_seq[0].beta is not None:
        betas = np.array([p.beta for p in params_seq])
    return ParamsBatch(
        weights=np.stack([p.weights for p in params_seq]),
        means=np.stack([p.means for p in params_seq]),
        variances=np.stack([p.variances for p in params_seq]),
        betas=betas,
    )


def scalar_draw(chain: GibbsChain, t: int = 0) -> tuple[MixtureParams, Allocation]:
    """Draw t of a chain (by default the one draw of a pivot) as a scalar state."""
    params = MixtureParams(chain.weights[t], chain.means[t], chain.variances[t],
                           None if chain.betas is None else float(chain.betas[t]))
    return params, Allocation(chain.allocations[t])


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
# Likelihood, prior and relabelling of one state.
# ---------------------------------------------------------------------------

def log_likelihood(data: Dataset, params: MixtureParams) -> float:
    """log p(x | theta) = sum_j log sum_i w_i N(x_j; mu_i, var_i)."""
    x = data.observations[:, None]
    with np.errstate(divide="ignore"):
        comp = np.log(params.weights)[None, :] + normal_logpdf(
            x, params.means[None, :], params.variances[None, :]
        )
    return float(np.sum(log_sum_exp(comp, axis=1)))


def log_prior(params: MixtureParams, prior: PriorSpec) -> float:
    """Joint log-prior of the state (including the beta level if present)."""
    k = params.k
    total = float(dirichlet_logpdf(params.weights, np.ones(k)))
    total += float(np.sum(normal_logpdf(params.means, prior.mean_loc, prior.mean_var)))
    if prior.hierarchical:
        if params.beta is None:
            raise ValueError("hierarchical prior requires params.beta")
        total += float(
            np.sum(inverse_gamma_logpdf(params.variances, prior.var_shape, params.beta))
        )
        total += float(gamma_logpdf(params.beta, prior.beta_shape, prior.beta_rate))
    else:
        total += float(
            np.sum(inverse_gamma_logpdf(params.variances, prior.var_shape, prior.var_scale))
        )
    return total


def permute_params(params: MixtureParams, row) -> MixtureParams:
    """`params` relabelled by the gather row `row`: label i takes the values
    of label row[i]."""
    row = np.asarray(row)
    return MixtureParams(params.weights[row], params.means[row], params.variances[row],
                         params.beta)


def permute_labels(alloc: Allocation, row) -> Allocation:
    """`alloc` relabelled to match `permute_params(., row)`."""
    return Allocation(np.argsort(row)[alloc.labels])


def nearest_relabelling(chain: GibbsChain, reference: GibbsChain) -> np.ndarray:
    """Per draw, the gather row that brings it closest to the one draw of
    `reference`, by exhaustive search over all k! label permutations.

    The distance is the squared Euclidean one in (mean, log variance, log
    weight) coordinates, each divided by its standard deviation pooled over
    every draw and component of the chain.  Returns a (T, k) array of rows.
    """
    def coords(weights, means, variances):
        return np.stack([means, np.log(variances), np.log(np.maximum(weights, 1e-300))],
                        axis=-1)

    points = coords(chain.weights, chain.means, chain.variances)        # (T, k, 3)
    target = coords(reference.weights[0], reference.means[0], reference.variances[0])
    scales = points.reshape(-1, 3).std(axis=0)
    scales[scales == 0] = 1.0
    rows = np.array(list(permutations(range(chain.k))), dtype=np.intp)
    dists = np.stack([np.sum(((points[:, row] - target) / scales) ** 2, axis=(1, 2))
                      for row in rows], axis=1)
    return rows[np.argmin(dists, axis=1)]


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


# ---------------------------------------------------------------------------
# The library's reduce before its exponent floor.
# ---------------------------------------------------------------------------

def log_sum_exp_into(values: np.ndarray, axis=None) -> np.ndarray:
    """`numerics.log_sum_exp_into` without `EXP_FLOOR`: the shifted values
    go to `np.exp` as they are, and a slice that is all -inf takes log 0."""
    shift = np.max(values, axis=axis, keepdims=True)
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    values -= shift
    np.exp(values, out=values)
    out = np.sum(values, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out += shift
    return np.squeeze(out, axis=axis)


# ---------------------------------------------------------------------------
# The grouped sampler that `ConditioningSet.sample` replaced.
# ---------------------------------------------------------------------------

def sample_grouped(cond: ConditioningSet, draw_indices, rng) -> ParamsBatch:
    """One block draw per entry of `draw_indices`, drawn draw by draw: the
    rows of each distinct draw index get their own generator calls, and the
    values are scattered back into the order of `draw_indices`."""
    gen = as_generator(rng)
    draw_indices = np.asarray(draw_indices, dtype=np.intp)
    B, k = draw_indices.size, cond.k
    prior = cond.prior
    weights = np.empty((B, k))
    means = np.empty((B, k))
    variances = np.empty((B, k))
    betas = np.empty(B) if prior.hierarchical else None
    for j in np.unique(draw_indices):
        rows = np.nonzero(draw_indices == j)[0]
        m = rows.size
        weights[rows] = gen.dirichlet(1.0 + cond.counts[j], m)
        v = cond.ig_scale[j] / gen.gamma(cond.ig_shape[j], 1.0, (m, k))
        variances[rows] = v
        mean, var = mean_conditional(prior, cond.counts[j], cond.sums[j], v)
        means[rows] = gen.normal(mean, np.sqrt(var))
        if betas is not None:
            shape, rate = beta_conditional(prior, v)
            betas[rows] = gen.gamma(shape, 1.0 / rate)
    return ParamsBatch(weights, means, variances, betas)


# ---------------------------------------------------------------------------
# The truncation report computed point by point.
# ---------------------------------------------------------------------------

def truncation_per_point(log_h: np.ndarray, tau: float):
    """(ranked eta_bar, ordering, phi trace, A_size) of `_build_report` on an
    (M, P) `log_h`, with phi_n the mean over points of each point's own
    left-out share: (1/M) sum_l sum_{r > n} eta_l,(r), from per-point suffix
    sums of the ranked contributions."""
    M, P = log_h.shape
    log_eta = log_h - log_sum_exp(log_h, axis=1)[:, None]
    eta_bar = np.exp(log_sum_exp(log_eta, axis=0) - math.log(M))
    order = np.argsort(-eta_bar, kind="stable")
    # suffix[:, n] = log sum of the ranked contributions n..P-1
    suffix = np.logaddexp.accumulate(log_eta[:, order][:, ::-1], axis=1)[:, ::-1]
    log_phi = np.full(P, -np.inf)
    if P > 1:
        log_phi[:-1] = log_sum_exp(suffix[:, 1:], axis=0) - math.log(M)
    phi = np.exp(log_phi)
    below = np.nonzero(phi < tau)[0]
    A_size = int(below[0]) + 1 if below.size else P
    return eta_bar[order], order, phi, A_size


# ---------------------------------------------------------------------------
# The Gibbs sampler with its parameter step on (k,) arrays.
# ---------------------------------------------------------------------------

def array_sweep_gibbs(data: Dataset, prior: PriorSpec, k: int, config: GibbsConfig,
                      rng) -> GibbsChain:
    """`gibbs.run_gibbs` with the weights, variances and means of a sweep
    drawn by one generator call each on (k,) arrays: `dirichlet`,
    `standard_gamma` of the k shapes and `standard_normal` of size k."""
    gen = as_generator(rng)
    x = data.observations
    n = x.size
    xc = x[:, None]
    x_sq = x * x

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

    variances = None
    weights = None
    total_fallbacks = 0
    out = 0
    for sweep in range(config.iterations):
        if sweep > 0:
            z, n_bad = _sample_allocation(xc, weights, means, variances, gen,
                                          np.empty((n, k)))
            total_fallbacks += n_bad
            counts = np.bincount(z, minlength=k).astype(float)
            sums = np.bincount(z, weights=x, minlength=k)
        sums_sq = np.bincount(z, weights=x_sq, minlength=k)

        weights = gen.dirichlet(1.0 + counts)
        shape, scale = variance_conditional(prior, counts, sums, sums_sq, means, beta)
        with np.errstate(divide="ignore", over="ignore"):
            # a tiny shape draws zero and subnormal gammas: the variance is +inf
            variances = scale / gen.standard_gamma(shape)
        cond_mean, cond_var = mean_conditional(prior, counts, sums, variances)
        means = cond_mean + np.sqrt(cond_var) * gen.standard_normal(k)
        if prior.hierarchical:
            shape, rate = beta_conditional(prior, variances)
            beta = float(gen.gamma(shape, 1.0 / rate))

        if sweep >= config.burn_in and (sweep - config.burn_in) % config.thinning == 0:
            W[out], M[out], V[out], Z[out] = weights, means, variances, z
            if B is not None:
                B[out] = beta
            out += 1

    return GibbsChain(weights=W, means=M, variances=V, betas=B, allocations=Z,
                      allocation_fallbacks=total_fallbacks)
