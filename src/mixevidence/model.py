"""Univariate Gaussian mixture model: likelihood, priors and Gibbs blocks.

The parameter state is theta = (weights, means, variances), optionally
extended by a shared inverse-gamma scale `beta` under the hierarchical
prior, in which case all joint densities (prior, posterior blocks) include
the beta level so that evidence values remain well-defined integrals over
the full state.

The central object for every estimator is the normalized "one Gibbs sweep"
block density pi(theta | theta', z', x): weights given allocation counts,
then per component the variance given the stored mean, the mean given the
fresh variance, and finally beta given the fresh variances.  It is exactly
samplable and exactly evaluable, which is what the importance schemes and
the candidate-point evidence identity require.  The conditional parameters
are written once, in `variance_conditional`, `mean_conditional` and
`beta_conditional`; the Gibbs sweep and `ConditioningSet` both call them,
and `ConditioningSet` samples and evaluates the block density in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .numerics import (
    LOG_2PI,
    as_generator,
    dirichlet_logpdf,
    gamma_logpdf,
    inverse_gamma_logpdf,
    log_sum_exp,
    normal_logpdf,
)

__all__ = [
    "Dataset",
    "MixtureParams",
    "Allocation",
    "FixedPrior",
    "HierarchicalPrior",
    "PriorSpec",
    "variance_conditional",
    "mean_conditional",
    "beta_conditional",
    "ParamsBatch",
    "ConditioningSet",
    "log_likelihood_batch",
    "log_prior_batch",
]


@dataclass(frozen=True)
class Dataset:
    """Observed sample x_1..x_n with a label for reporting."""

    observations: np.ndarray
    name: str = ""

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1 or obs.size < 1:
            raise ValueError("observations must be a non-empty 1-D array")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations must all be finite")
        obs = obs.copy()
        obs.flags.writeable = False
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return self.observations.size


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
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


@dataclass(frozen=True)
class FixedPrior:
    """Independent conjugate-style prior with fixed hyperparameters.

    means ~ N(mean_loc, mean_var), variances ~ IG(var_shape, var_scale),
    weights ~ Dirichlet(1, ..., 1).
    """

    mean_loc: float = 0.0
    mean_var: float = 100.0
    var_shape: float = 2.0
    var_scale: float = 3.0

    hierarchical = False

    def __post_init__(self):
        if not (self.mean_var > 0 and self.var_shape > 0 and self.var_scale > 0):
            raise ValueError("prior hyperparameters must be strictly positive")


@dataclass(frozen=True)
class HierarchicalPrior:
    """Data-located prior with a shared random inverse-gamma scale.

    means ~ N(center, spread^2/4), variances ~ IG(var_shape, beta) with
    beta ~ Gamma(beta_shape, beta_rate); weights ~ Dirichlet(1, ..., 1).
    The conventional calibration sets center to the sample median, spread
    to the sample range, beta_shape = 0.2 and beta_rate = 10/spread^2.
    """

    center: float
    spread: float
    var_shape: float = 2.0
    beta_shape: float = 0.2

    hierarchical = True

    def __post_init__(self):
        if not (self.spread > 0 and self.var_shape > 0 and self.beta_shape > 0):
            raise ValueError("prior hyperparameters must be strictly positive")

    @property
    def mean_loc(self) -> float:
        return self.center

    @property
    def mean_var(self) -> float:
        return self.spread**2 / 4.0

    @property
    def beta_rate(self) -> float:
        return 10.0 / self.spread**2

    @classmethod
    def from_data(cls, data: Dataset, var_shape: float = 2.0, beta_shape: float = 0.2):
        x = data.observations
        spread = float(np.max(x) - np.min(x))
        return cls(center=float(np.median(x)), spread=spread,
                   var_shape=var_shape, beta_shape=beta_shape)


PriorSpec = FixedPrior | HierarchicalPrior


# ---------------------------------------------------------------------------
# Block conditionals, on arrays of per-component statistics.  Counts, sums
# and sums of squares are those of the conditioning allocation; empty
# components reduce to the prior.
# ---------------------------------------------------------------------------

def variance_conditional(prior: PriorSpec, counts, sums, sums_sq, means, beta=None):
    """Shape and scale of the inverse-gamma variance conditionals given the stored means.

    `beta` is the stored shared scale (hierarchical prior only); it must
    broadcast against `counts`.
    """
    base = beta if prior.hierarchical else prior.var_scale
    shape = prior.var_shape + 0.5 * counts
    scale = base + 0.5 * (sums_sq - 2.0 * means * sums + counts * means**2)
    return shape, scale


def mean_conditional(prior: PriorSpec, counts, sums, variances):
    """Mean and variance of the normal mean conditionals given the fresh variances."""
    prec = 1.0 / prior.mean_var + counts / variances
    mean = (prior.mean_loc / prior.mean_var + sums / variances) / prec
    return mean, 1.0 / prec


def beta_conditional(prior: HierarchicalPrior, variances):
    """Shape and rate of the gamma conditional of the shared scale given the
    fresh variances (components on the last axis)."""
    rate = prior.beta_rate + np.sum(1.0 / variances, axis=-1)
    return prior.beta_shape + prior.var_shape * np.shape(variances)[-1], rate


# ---------------------------------------------------------------------------
# Vectorized machinery: parameter batches and precomputed conditioning sets.
# ---------------------------------------------------------------------------

# States per block of the batched likelihood, and points per block of the
# block-density kernel; both bound the size of the temporaries.
LIKELIHOOD_CHUNK = 512
KERNEL_CHUNK = 256


@dataclass
class ParamsBatch:
    """A batch of B parameter states as (B, k) arrays."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    betas: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, float))
        self.means = np.atleast_2d(np.asarray(self.means, float))
        self.variances = np.atleast_2d(np.asarray(self.variances, float))
        if self.betas is not None:
            self.betas = np.atleast_1d(np.asarray(self.betas, float))

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_params(cls, params_seq) -> "ParamsBatch":
        params_seq = list(params_seq)
        betas = None
        if params_seq[0].beta is not None:
            betas = np.array([p.beta for p in params_seq])
        return cls(
            weights=np.stack([p.weights for p in params_seq]),
            means=np.stack([p.means for p in params_seq]),
            variances=np.stack([p.variances for p in params_seq]),
            betas=betas,
        )


def log_likelihood_batch(data: Dataset, batch: ParamsBatch) -> np.ndarray:
    """Vectorized log p(x | theta) = sum_j log sum_i w_i N(x_j; mu_i, var_i) over
    a batch, LIKELIHOOD_CHUNK states at a time to bound memory."""
    x = data.observations
    out = np.empty(batch.size)
    with np.errstate(divide="ignore"):
        logw = np.log(batch.weights)
    for lo in range(0, batch.size, LIKELIHOOD_CHUNK):
        hi = min(lo + LIKELIHOOD_CHUNK, batch.size)
        comp = logw[lo:hi, :, None] + normal_logpdf(
            x[None, None, :],
            batch.means[lo:hi, :, None],
            batch.variances[lo:hi, :, None],
        )
        out[lo:hi] = np.sum(log_sum_exp(comp, axis=1), axis=1)
    return out


def log_prior_batch(batch: ParamsBatch, prior: PriorSpec) -> np.ndarray:
    """Vectorized joint log-prior over a batch of states."""
    k = batch.k
    out = dirichlet_logpdf(batch.weights, np.ones(k))
    out = out + np.sum(normal_logpdf(batch.means, prior.mean_loc, prior.mean_var), axis=1)
    if prior.hierarchical:
        if batch.betas is None:
            raise ValueError("hierarchical prior requires batch.betas")
        out = out + np.sum(
            inverse_gamma_logpdf(batch.variances, prior.var_shape, batch.betas[:, None]),
            axis=1,
        )
        out = out + gamma_logpdf(batch.betas, prior.beta_shape, prior.beta_rate)
    else:
        out = out + np.sum(
            inverse_gamma_logpdf(batch.variances, prior.var_shape, prior.var_scale),
            axis=1,
        )
    return out


@dataclass
class ConditioningSet:
    """Precomputed block-conditional statistics for J stored draws.

    Evaluating the pooled conditional density of a batch of states against
    all J draws and a set of label permutations reduces to gathers and
    matrix contractions over these arrays; `evaluations` counts individual
    block-density evaluations (one per point, draw and permutation).
    """

    prior: PriorSpec
    counts: np.ndarray      # (J, k)
    sums: np.ndarray        # (J, k)
    ig_shape: np.ndarray    # (J, k)
    ig_scale: np.ndarray    # (J, k)
    dir_const: np.ndarray   # (J,)
    evaluations: int = field(default=0, repr=False)

    @property
    def J(self) -> int:
        return self.counts.shape[0]

    @property
    def k(self) -> int:
        return self.counts.shape[1]

    @classmethod
    def from_draws(cls, data: Dataset, prior: PriorSpec, means: np.ndarray,
                   allocs: np.ndarray, betas: np.ndarray | None = None) -> "ConditioningSet":
        """Build from stored means (J, k), allocations (J, n) and optional betas (J,)."""
        means = np.atleast_2d(np.asarray(means, float))
        # bincount casts narrower labels on every call; cast once
        allocs = np.atleast_2d(np.asarray(allocs, dtype=np.intp))
        J, k = means.shape
        x = data.observations
        counts = np.empty((J, k))
        sums = np.empty((J, k))
        sums_sq = np.empty((J, k))
        for j in range(J):
            z = allocs[j]
            counts[j] = np.bincount(z, minlength=k)
            sums[j] = np.bincount(z, weights=x, minlength=k)
            sums_sq[j] = np.bincount(z, weights=x * x, minlength=k)
        beta = None
        if prior.hierarchical:
            if betas is None:
                raise ValueError("hierarchical prior requires stored betas")
            beta = np.asarray(betas, float)[:, None]
        ig_shape, ig_scale = variance_conditional(prior, counts, sums, sums_sq, means, beta)
        dir_const = gammaln(k + counts.sum(axis=1)) - gammaln(1.0 + counts).sum(axis=1)
        return cls(prior=prior, counts=counts, sums=sums,
                   ig_shape=ig_shape, ig_scale=ig_scale, dir_const=dir_const)

    def _eval_pieces(self, batch: ParamsBatch):
        """Batch-side quantities shared by every permutation column."""
        prior = self.prior
        with np.errstate(divide="ignore"):
            logw = np.log(batch.weights)
        # a zero weight with a zero count must contribute 0, not -inf * 0
        logw = np.where(np.isneginf(logw), -1e300, logw)
        logv = np.log(batch.variances)
        if prior.hierarchical and batch.betas is None:
            raise ValueError("hierarchical prior requires batch.betas")
        # a subnormal variance overflows 1/v to inf: infinite precision is the correct limit
        with np.errstate(over="ignore"):
            inv_v = 1.0 / batch.variances
            if prior.hierarchical:
                g_shape, g_rate = beta_conditional(prior, batch.variances)
        ig_const = self.dir_const + np.sum(
            self.ig_shape * np.log(self.ig_scale) - gammaln(self.ig_shape), axis=1
        )                                         # (J,) permutation-invariant sums
        if prior.hierarchical:
            beta_term = (
                g_shape * np.log(g_rate)
                - gammaln(g_shape)
                + (g_shape - 1.0) * np.log(batch.betas)
                - g_rate * batch.betas
            )
        else:
            beta_term = np.zeros(batch.size)
        return logw, logv, inv_v, ig_const, beta_term

    def _terms_one_perm(self, batch, idx, pieces, lo, hi):
        """(hi-lo, J) log pi(theta_b | sigma(draw_j), x) without the beta factor."""
        logw, logv, inv_v, ig_const, _ = pieces
        p0 = 1.0 / self.prior.mean_var
        pm0 = self.prior.mean_loc * p0
        n_p = self.counts[:, idx]                 # (J, k)
        s_p = self.sums[:, idx]
        a_p = self.ig_shape[:, idx]
        sc_p = self.ig_scale[:, idx]
        with np.errstate(over="ignore", invalid="ignore"):
            dir_part = logw[lo:hi] @ n_p.T        # (b, J)
            ig_part = -(logv[lo:hi] @ (a_p + 1.0).T) - (inv_v[lo:hi] @ sc_p.T)
            var = batch.variances[lo:hi, None, :]
            prec = p0 + n_p[None, :, :] / var
            # stable at extreme variances: (pm0 v + s) / (p0 v + n)
            mean = (pm0 * var + s_p[None, :, :]) / (p0 * var + n_p[None, :, :])
            norm_part = 0.5 * np.sum(
                np.log(prec) - LOG_2PI
                - prec * (batch.means[lo:hi, None, :] - mean) ** 2,
                axis=2,
            )
            total = ig_const[None, :] + dir_part + ig_part + norm_part
        # an overflowing precision with an exactly-matching mean yields
        # inf - inf; the correct limit of the log-density there is -inf
        return np.where(np.isnan(total), -np.inf, total)

    def log_pooled_density(self, batch: ParamsBatch, perms: np.ndarray) -> np.ndarray:
        """(B, P) array of log[(1/J) sum_j pi(theta_b | sigma_p(draw_j), x)].

        `perms` is a (P, k) integer array of label permutations applied to
        the conditioning draws.
        """
        log_J = math.log(self.J)
        return self._per_permutation(batch, perms, (),
                                     lambda terms: log_sum_exp(terms, axis=1) - log_J)

    def log_density_terms(self, batch: ParamsBatch, perms: np.ndarray) -> np.ndarray:
        """(B, P, J) un-pooled log block densities (memory: B*P*J floats)."""
        return self._per_permutation(batch, perms, (self.J,), lambda terms: terms)

    def _per_permutation(self, batch, perms, tail, reduce):
        """(B, P, *tail) array of `reduce` applied to each (KERNEL_CHUNK, J) block
        of log densities, one permutation and batch chunk at a time."""
        perms = np.atleast_2d(np.asarray(perms, dtype=np.intp))
        B, P = batch.size, perms.shape[0]
        pieces = self._eval_pieces(batch)
        out = np.empty((B, P) + tail)
        for p in range(P):
            for lo in range(0, B, KERNEL_CHUNK):
                hi = min(lo + KERNEL_CHUNK, B)
                # held until the next chunk's terms exist: freeing it first lets
                # the allocator return the pages and fault them in again
                # (4x the page faults, about 10% slower, on the D2 bridge)
                terms = self._terms_one_perm(batch, perms[p], pieces, lo, hi)
                out[lo:hi, p] = reduce(terms)
        self.evaluations += B * P * self.J
        beta_term = pieces[-1]
        return out + beta_term.reshape((B,) + (1,) * (out.ndim - 1))

    def sample(self, draw_indices: np.ndarray, rng) -> ParamsBatch:
        """One block draw per entry of `draw_indices` (values in 0..J-1).

        Draws are generated grouped by conditioning draw for speed and
        scattered back so the batch order matches `draw_indices`.
        """
        gen = as_generator(rng)
        draw_indices = np.asarray(draw_indices, dtype=np.intp)
        B, k = draw_indices.size, self.k
        prior = self.prior
        weights = np.empty((B, k))
        means = np.empty((B, k))
        variances = np.empty((B, k))
        betas = np.empty(B) if prior.hierarchical else None
        for j in np.unique(draw_indices):
            rows = np.nonzero(draw_indices == j)[0]
            m = rows.size
            weights[rows] = gen.dirichlet(1.0 + self.counts[j], m)
            v = self.ig_scale[j] / gen.gamma(self.ig_shape[j], 1.0, (m, k))
            variances[rows] = v
            mean, var = mean_conditional(prior, self.counts[j], self.sums[j], v)
            means[rows] = gen.normal(mean, np.sqrt(var))
            if betas is not None:
                shape, rate = beta_conditional(prior, v)
                betas[rows] = gen.gamma(shape, 1.0 / rate)
        return ParamsBatch(weights, means, variances, betas)
