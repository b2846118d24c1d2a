"""Univariate Gaussian mixture model: likelihood, priors and Gibbs blocks.

The parameter state is theta = (weights, means, variances), optionally
extended by a shared inverse-gamma scale `beta` under the hierarchical
prior, in which case all joint densities (prior, posterior blocks) include
the beta level so that evidence values remain well-defined integrals over
the full state.  A state is a row of a `ParamsBatch`; a stored Gibbs draw
is a row of its subclass `gibbs.GibbsChain`, which adds the allocations,
and a single state is a batch of one row.

The central object for every estimator is the normalized "one Gibbs sweep"
block density pi(theta | theta', z', x): weights given allocation counts,
then per component the variance given the stored mean, the mean given the
fresh variance, and finally beta given the fresh variances.  It is exactly
samplable and exactly evaluable, which is what the importance schemes and
the candidate-point evidence identity require.  The conditional parameters
are written once, in `variance_conditional`, `mean_conditional` and
`beta_conditional`; the Gibbs sweep and `ConditioningSet` both call them,
and `ConditioningSet` samples and evaluates the block density in batches.
It samples a batch in one pass whatever the number of distinct draws it
conditions on: each factor's parameters are gathered per particle and drawn
with one generator call.  `variance_conditional` and `mean_conditional`
take Python floats or arrays, with the same bits either way: the sweep
calls them on one component's floats and `ConditioningSet` on arrays.
`beta_conditional` takes an array or one state's list of floats, with the
same bits either way.  The sweep's allocation step has its own conditional:
`allocation_conditional` writes one component's log w + log N(x; mu, v) as
a quadratic in the centred point, on Python floats only, for a state whose
weights and variances are regular.

The block density factorises over components: under a label permutation
sigma, batch component i only meets draw component sigma(i).  One element
budget, `KERNEL_BUDGET`, sizes the blocks of every batched loop (states of
the likelihood, draws of the statistics and the relabelling, points of the
kernel), so that the kernel's buffers stay in cache whatever the number of
draws.  The kernel makes as few passes over them as it can: each pass costs
about half a nanosecond per element and a log three times that.  The
weight and variance factors with the draw's normalising constant are one
matrix product per permutation row, [log w | log v | 1/v | 1] against the
row's relabelled [counts; -(shape + 1); -scale; constant].  The normal-mean
factor is computed once per (i, c) component pair rather than once per
permutation (k pairs for the identity, k**2 for all of S_k instead of
k * k!), in closed form: with D = p0 v + n and t = n mu - s + v (p0 mu - p0
mu0), log prec - prec (mu - mean)^2 = log D - t^2 / (v D) - log v, where
t / sqrt(v) is one matrix product of the point's [mu, -1, v (p0 mu - p0
mu0)] / sqrt(v) with the draw's [n; s; 1].  Each row uses each batch
component exactly once, so the -1/2 sum_i log v_i and -k/2 log 2 pi of the
normal factors are the same for every row; neither depends on the draw, so
they leave the loop over draws and are added once per point after the
reduce, with the beta factor.  Each (point, permutation) row is reduced
over the J draws by `numerics.log_sum_exp_into`.  The log densities of
far-apart draws sit hundreds to 1e5 nats below the row's largest, and the
reduce floors the shifted values at `numerics.EXP_FLOOR` so that `np.exp`
never makes a subnormal or underflowing result, which costs it 5 to 100
times a normal one; no bit of the result changes.

A call with a single permutation row (the randomly permuted mixture of
`mixture_is` and `bridge`) screens its points first, because nearly all of a
point's terms there lie tens to thousands of nats below its largest: on a
galaxy replicate 97% of them lie more than 50 nats below.  Putting the
largest count of each component over the draws in place of the draw's own
makes every term's normal-mean factor larger, so the terms have an upper
bound of two matrix products per point chunk (`ConditioningSet._screen`).
The exact term at the best-bounded of every 16th draw is a floor on a
point's largest, and only the draws whose bound lies within
G = ln J + 60 ln 2 nats of that floor are evaluated and reduced; the mass
left out is below 2**-60 of the point's sum, so the result is the dense
kernel's within rounding.  A point whose bound is not finite (a zero or
infinite variance, a NaN), or whose bound keeps more than 1/8 of those
strided draws, takes the dense kernel.  So does every point of a call whose
draws the screen would not repay: it must take half of 64 states at the
modes of the draws' own conditionals, which it does on galaxy and not on
D2, whose components overlap.  Every call with more rows and every call of
`log_density_terms` is dense.  A point's value depends on the point and
the conditioning set alone, on either path.  `evaluations`
still counts every (point, draw, permutation) triple, bounded or
evaluated: that is the paper's unit of work, whatever part of it the
screen saves; `screened` counts the points the screen took.

The point chunks of one kernel call are shared between `KERNEL_THREADS`
threads, the calling thread among them; they pull chunks from one shared
iterator and each writes only its own chunk's rows of the output, so the
result does not depend on the thread count.  Each chunk runs every step once
for all its permutation rows, so that each numpy call is large enough to
run without the interpreter lock most of the time.  The calling thread
allocates every buffer, because a worker that allocates its own gets a
second malloc arena and raises the peak resident memory.  Threads are
started per call and joined before it returns: a pool kept in module state
would be inherited by a forked process without its threads, and the
replicate process pool of `harness.run_experiment` forks.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .numerics import (
    EXP_FLOOR,
    LOG_2PI,
    as_generator,
    dirichlet_logpdf,
    gamma_logpdf,
    inverse_gamma_logpdf,
    log_gamma,
    log_sum_exp_into,
    normal_logpdf,
    normal_logpdf_into,
)

__all__ = [
    "Dataset",
    "FixedPrior",
    "HierarchicalPrior",
    "PriorSpec",
    "variance_conditional",
    "mean_conditional",
    "allocation_conditional",
    "beta_conditional",
    "ParamsBatch",
    "ConditioningSet",
    "log_likelihood_batch",
    "log_prior_batch",
    "log_posterior_batch",
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
    # set from `spread` at construction, since every mean and beta
    # conditional of a sweep reads them; they take no part in equality
    mean_var: float = field(init=False, repr=False, compare=False)
    beta_rate: float = field(init=False, repr=False, compare=False)

    hierarchical = True

    def __post_init__(self):
        if not (self.spread > 0 and self.var_shape > 0 and self.beta_shape > 0):
            raise ValueError("prior hyperparameters must be strictly positive")
        object.__setattr__(self, "mean_var", self.spread**2 / 4.0)
        object.__setattr__(self, "beta_rate", 10.0 / self.spread**2)

    @property
    def mean_loc(self) -> float:
        return self.center

    @classmethod
    def from_data(cls, data: Dataset, var_shape: float = 2.0, beta_shape: float = 0.2):
        x = data.observations
        spread = float(np.max(x) - np.min(x))
        return cls(center=float(np.median(x)), spread=spread,
                   var_shape=var_shape, beta_shape=beta_shape)


PriorSpec = FixedPrior | HierarchicalPrior


# ---------------------------------------------------------------------------
# Block conditionals, on per-component statistics as Python floats or
# arrays.  Counts, sums and sums of squares are those of the conditioning
# allocation; empty components reduce to the prior.  On floats every
# operation is the one numpy applies elementwise (x * x, not x**2, which
# is C `pow` on a float and raises on overflow).
# ---------------------------------------------------------------------------

def variance_conditional(prior: PriorSpec, counts, sums, sums_sq, means, beta=None):
    """Shape and scale of the inverse-gamma variance conditionals given the stored means.

    `beta` is the stored shared scale (hierarchical prior only); it must
    broadcast against `counts`.
    """
    base = beta if prior.hierarchical else prior.var_scale
    shape = prior.var_shape + 0.5 * counts
    scale = base + 0.5 * (sums_sq - 2.0 * means * sums + counts * (means * means))
    return shape, scale


def mean_conditional(prior: PriorSpec, counts, sums, variances):
    """Mean and variance of the normal mean conditionals given the fresh variances."""
    prec = 1.0 / prior.mean_var + counts / variances
    mean = (prior.mean_loc / prior.mean_var + sums / variances) / prec
    return mean, 1.0 / prec


def allocation_conditional(weight: float, mean: float, variance: float, centre: float):
    """Coefficients (a, b, c) of one component's allocation log-odds as a
    quadratic in the centred point x~ = x - centre:

        log w + log N(x; mu, v) + LOG_2PI / 2 = a + b x~ + c x~^2.

    Python floats only; the weight and variance must be positive and finite.
    The LOG_2PI / 2 is shared by every component, so a categorical draw over
    the components does not need it.
    """
    shifted = mean - centre
    precision = 1.0 / variance
    return (math.log(weight) - 0.5 * math.log(variance) - 0.5 * (shifted * shifted) * precision,
            shifted * precision, -0.5 * precision)


def beta_conditional(prior: HierarchicalPrior, variances):
    """Shape and rate of the gamma conditional of the shared scale given the
    fresh variances: an array with the components on its last axis, or one
    state's list of Python floats, whose reciprocals are added in the order
    `np.sum` adds an array's (`_pairwise_sum`), so both give the same bits."""
    if isinstance(variances, np.ndarray):
        k, total = variances.shape[-1], np.sum(1.0 / variances, axis=-1)
    else:
        k, total = len(variances), _pairwise_sum([1.0 / v for v in variances])
    return prior.beta_shape + prior.var_shape * k, prior.beta_rate + total


def _pairwise_sum(values: list) -> float:
    """The sum of Python floats in numpy's order for a contiguous float64
    array: left to right below eight terms; from eight on, eight running sums
    of every eighth term, added pairwise, then the rest left to right; above
    128 terms, the two halves (the first a multiple of eight) apart."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    lanes = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        lanes = [lane + value for lane, value in zip(lanes, values[i:i + 8])]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5])
                                                                + (lanes[6] + lanes[7]))
    for value in values[end:]:
        total += value
    return total


# ---------------------------------------------------------------------------
# Vectorized machinery: parameter batches and precomputed conditioning sets.
# ---------------------------------------------------------------------------

# The one block size of every batched loop, in float64 elements: the states
# of `log_likelihood_batch` go in blocks of KERNEL_BUDGET // (k n) and the
# draws of `ConditioningSet.from_draws` and `gibbs.permute_draws` in blocks of
# KERNEL_BUDGET // n, so that no temporary grows with the batch or the chain;
# no value depends on the block it falls in.  In the block-density kernel it
# is the elements in each (pairs, points, J) and (rows, points, J) buffer: per
# thread, two pair buffers (D, then the pair factor, and t / sqrt(v)) and
# three row buffers (the row sum and two for the pair slices), besides the
# small (pairs, points, 3) left operand of the mean factor.  Point chunks are
# sized by this element count, not by a fixed number of points, because J
# runs from 1 (plug-in proposal) to the whole chain (Chib): a fixed 256
# points made (256, J, k) temporaries of 33 MB at J=4000.  2**16 elements
# (512 KB) keeps a thread's two pair buffers within a 2 MB per-core L2 cache.
# A chunk holds at least two points (see `_chunk_edges`), so the pair buffers
# outgrow the budget where 2 * J * pairs does; the rows of a chunk go in
# blocks that fit the budget, one row at least, so the row buffers grow with
# J alone.  The right operands, (P, 3k + 1, J) and (pairs, 3, J), are built
# once per call and are not bounded by the budget.  Chunks and blocks are
# sized as if J were at least 8: the thread that runs a chunk allocates its
# (pairs, points) gathers and the (rows, points) arrays of the reduce, and at
# J=1 these would be as large as the buffers.
KERNEL_BUDGET = 1 << 16

# Threads that share the point chunks of one block-density call, the calling
# thread included: the CPUs this process may run on.  `harness.run_experiment`
# divides them between its replicate processes.
KERNEL_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)

# The screen of single-row kernel calls (`ConditioningSet._screen`).  The
# draws it drops lie more than ln J + SCREEN_BITS ln 2 nats below a point's
# largest term, so together they carry less than 2**-60 of its sum, far
# below the 2**-53 a sum of float64 rounds to.  Its bounds are rounded by
# about (8k + 2) 2**-53 of the magnitude of their terms; SCREEN_SLACK covers
# that many times over and still moves a bound by a tiny fraction of a nat.
# A point whose bound on every SCREEN_STRIDE-th draw keeps more than
# 1/SCREEN_SHARE of those draws takes the dense kernel: a kept term costs
# about eight times a bounded one.
SCREEN_BITS = 60
SCREEN_SLACK = 2.0**-40
SCREEN_STRIDE = 16
SCREEN_SHARE = 8
# A call screens its points only if the screen takes half of this many states
# on its draws (`ConditioningSet._screen_pays`).
SCREEN_PROBES = 64

# OpenBLAS multiplies on the calling thread alone up to 4 * 65536 multiply-adds.
SERIAL_PRODUCT = 1 << 18


@dataclass
class ParamsBatch:
    """B parameter states as (B, k) arrays, with (B,) betas under the
    hierarchical prior.  `batch[rows]` (an int, a slice or an index array)
    indexes every row array alike and keeps the batch's type; an int gives
    a one-row batch."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    betas: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, float))
        self.means = np.atleast_2d(np.asarray(self.means, float))
        self.variances = np.atleast_2d(np.asarray(self.variances, float))
        shape = self.weights.shape
        if self.weights.ndim != 2 or self.means.shape != shape or self.variances.shape != shape:
            raise ValueError("weights, means and variances must all be (B, k) arrays, not "
                             f"{shape}, {self.means.shape} and {self.variances.shape}")
        if self.betas is not None:
            self.betas = np.atleast_1d(np.asarray(self.betas, float))
            if self.betas.shape != shape[:1]:
                raise ValueError(f"betas must be a ({shape[0]},) array, not {self.betas.shape}")

    def __len__(self) -> int:
        return self.weights.shape[0]

    @property
    def size(self) -> int:
        return len(self)

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return replace(self, **{f.name: value[rows] for f in fields(self)
                                if isinstance(value := getattr(self, f.name), np.ndarray)})


def _chunk_edges(size: int, step: int) -> list[int]:
    """Edges of the blocks of `step` items, out of `size`, of a batched loop.

    A block holds at least two items and a lone tail item joins the block
    before it, so every matrix product of the block-density kernel has two
    or more rows: numpy sends a one-row product to BLAS's matrix-vector
    routine, which rounds differently from the matrix-matrix one, and a
    point's density would then depend on how the batch was chunked.
    """
    edges = list(range(0, size, max(2, step))) + [size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """`np.matmul(a, b, out=out)` in blocks of two or more rows of a, each
    with at most SERIAL_PRODUCT multiply-adds, which OpenBLAS runs on the
    calling thread alone: a larger product wakes its own threads, which
    compete with the kernel's for the CPUs.  A row's values do not depend
    on the blocks."""
    rows = SERIAL_PRODUCT // (b.shape[0] * b.shape[1])
    edges = _chunk_edges(a.shape[0], rows)
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(a[lo:hi], b, out=out[lo:hi])


def _sum_columns(values: np.ndarray) -> np.ndarray:
    """Row sums of a (B, k) array, added column by column from the left: the
    order of a sequential loop over a row, for any k, so that a row's sum
    does not depend on B (`np.sum` adds eight or more terms pairwise)."""
    out = values[:, 0].copy()
    for column in values.T[1:]:
        out += column
    return out


def _nan_to_neg_inf(values: np.ndarray) -> None:
    """Set the NaN entries of `values` to -inf."""
    np.copyto(values, -np.inf, where=np.isnan(values))


def _run_in_threads(work, buffers: list) -> None:
    """Call `work(*buffers[t])` in one thread per entry of `buffers`, the
    calling thread running the first, and raise here the first exception
    any of them raised, once all have returned."""
    if len(buffers) == 1:
        work(*buffers[0])
        return
    with ThreadPoolExecutor(len(buffers) - 1) as pool:
        futures = [pool.submit(work, *bufs) for bufs in buffers[1:]]
        work(*buffers[0])
    for future in futures:
        future.result()


def log_likelihood_batch(data: Dataset, batch: ParamsBatch) -> np.ndarray:
    """Vectorized log p(x | theta) = sum_j log sum_i w_i N(x_j; mu_i, var_i) over
    a batch, in blocks of KERNEL_BUDGET (state, component, point) terms.

    Every block is computed in one (state, component, point) buffer, which
    the density and the reduce over components overwrite in place."""
    x = data.observations
    out = np.empty(batch.size)
    edges = _chunk_edges(batch.size, KERNEL_BUDGET // (batch.k * x.size))
    buffer = np.empty((max(np.diff(edges), default=0), batch.k, x.size))
    with np.errstate(divide="ignore"):
        logw = np.log(batch.weights)[:, :, None]
    # a subnormal variance overflows (x - mu)^2 / v to +inf, the density's limit
    with np.errstate(over="ignore"):
        for lo, hi in zip(edges[:-1], edges[1:]):
            comp = normal_logpdf_into(buffer[:hi - lo], x, batch.means[lo:hi, :, None],
                                      batch.variances[lo:hi, :, None])
            comp += logw[lo:hi]
            out[lo:hi] = np.sum(log_sum_exp_into(comp, axis=1), axis=1)
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


def log_posterior_batch(data: Dataset, prior: PriorSpec, batch: ParamsBatch) -> np.ndarray:
    """Unnormalized log posterior, log prior + log likelihood, of every state:
    the target density of every estimator."""
    return log_prior_batch(batch, prior) + log_likelihood_batch(data, batch)


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
    ig_const: np.ndarray    # (J,) permutation-invariant normalising constants
    evaluations: int = field(default=0, repr=False)
    screened: int = field(default=0, repr=False)
    # `_screen_pays` of each permutation row, by the row's bytes
    _screen_decisions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        allocs = np.atleast_2d(np.asarray(allocs))
        J, k = means.shape
        x = data.observations
        if allocs.shape != (J, x.size):
            raise ValueError(f"allocs must be ({J}, {x.size}), not {allocs.shape}")
        if betas is not None and np.shape(betas) != (J,):
            raise ValueError(f"betas must be a ({J},) array, not {np.shape(betas)}")
        if allocs.size and (allocs.min() < 0 or allocs.max() >= k):
            raise ValueError(f"allocation labels must lie in 0..{k - 1}")
        counts = np.empty((J, k))
        sums = np.empty((J, k))
        sums_sq = np.empty((J, k))
        edges = _chunk_edges(J, KERNEL_BUDGET // x.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            # one bincount per block: draw lo + r owns bins k r .. k r + k - 1, and
            # each bin adds its observations in order, as a per-draw bincount does
            bins = (allocs[lo:hi].astype(np.intp) + k * np.arange(hi - lo)[:, None]).ravel()
            size = (hi - lo) * k
            xs = np.tile(x, hi - lo)
            counts[lo:hi] = np.bincount(bins, minlength=size).reshape(-1, k)
            sums[lo:hi] = np.bincount(bins, weights=xs, minlength=size).reshape(-1, k)
            sums_sq[lo:hi] = np.bincount(bins, weights=xs * xs, minlength=size).reshape(-1, k)
        beta = None
        if prior.hierarchical:
            if betas is None:
                raise ValueError("hierarchical prior requires stored betas")
            beta = np.asarray(betas, float)[:, None]
        ig_shape, ig_scale = variance_conditional(prior, counts, sums, sums_sq, means, beta)
        dir_const = log_gamma(k + counts.sum(axis=1)) - log_gamma(1.0 + counts).sum(axis=1)
        ig_const = dir_const + np.sum(ig_shape * np.log(ig_scale) - log_gamma(ig_shape), axis=1)
        return cls(prior=prior, counts=counts, sums=sums, ig_shape=ig_shape,
                   ig_scale=ig_scale, ig_const=ig_const)

    def _batch_pieces(self, batch: ParamsBatch, left: np.ndarray) -> np.ndarray:
        """Fill `left`, a (B, 3k + 1) array, with [log w | log v | 1/v | 1], the
        left operand of the weight and variance factors, and return the (B,)
        terms that every permutation row shares: -1/2 sum_i log v_i,
        -k/2 log(2 pi) and the beta factor."""
        prior = self.prior
        k = batch.k
        if prior.hierarchical and batch.betas is None:
            raise ValueError("hierarchical prior requires batch.betas")
        logw, logv, inv_v = (left[:, i * k:(i + 1) * k] for i in range(3))
        left[:, 3 * k] = 1.0
        # a zero or subnormal variance makes 1/v (and log v) infinite: infinite
        # precision is the correct limit
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.log(batch.weights, out=logw)
            # a zero weight with a zero count must contribute 0, not -inf * 0
            np.copyto(logw, -1e300, where=np.isneginf(logw))
            np.log(batch.variances, out=logv)
            np.divide(1.0, batch.variances, out=inv_v)
            shared = _sum_columns(logv)
            shared *= -0.5
            shared -= 0.5 * k * LOG_2PI
            if prior.hierarchical:
                shared += gamma_logpdf(batch.betas, *beta_conditional(prior, batch.variances))
        # a zero variance gives +inf and an infinite rate inf - inf; the
        # log-density's limit at either is -inf
        np.copyto(shared, -np.inf, where=~(shared < np.inf))
        return shared

    def log_pooled_density(self, batch: ParamsBatch, perms: np.ndarray) -> np.ndarray:
        """(B, P) array of log[(1/J) sum_j pi(theta_b | sigma_p(draw_j), x)].

        `perms` is a (P, k) integer array of label permutations applied to
        the conditioning draws.  A call with one row screens its points
        first (`_screen`); the points the screen leaves, and every point of
        a call with more rows, take the dense kernel.
        """
        perms = self._checked_perms(perms)
        B, J = batch.size, self.J
        log_J = math.log(J)

        def dense(points):
            return self._per_permutation(points, perms, (),
                                         lambda terms: log_sum_exp_into(terms, axis=-1) - log_J)

        # with fewer than SCREEN_SHARE strided draws, the floor's own draw alone
        # is too large a share for the screen to take a point
        if perms.shape[0] > 1 or len(range(0, J, SCREEN_STRIDE)) < SCREEN_SHARE:
            out = dense(batch)
        else:
            out = np.empty((B, 1))
            taken = np.zeros(B, dtype=bool)
            if self._screen_pays(perms[0]):
                taken = self._screen(batch, perms[0], out[:, 0])
                self.screened += np.count_nonzero(taken)
            left = np.flatnonzero(~taken)
            if left.size == B > 1:
                out = dense(batch)
            elif left.size:
                # a lone point goes twice, so that its products are not matrix-vector ones
                out[left] = dense(batch[np.resize(left, max(2, left.size))])[:left.size]
        self.evaluations += out.size * J
        return out

    def log_density_terms(self, batch: ParamsBatch, perms: np.ndarray) -> np.ndarray:
        """(B, P, J) un-pooled log block densities (memory: B*P*J floats)."""
        perms = self._checked_perms(perms)
        out = self._per_permutation(batch, perms, (self.J,), lambda terms: terms)
        self.evaluations += out.size
        return out

    def _checked_perms(self, perms) -> np.ndarray:
        perms = np.atleast_2d(np.asarray(perms, dtype=np.intp))
        k = self.k
        if perms.shape[0] < 1 or perms.shape[1] != k or np.any((perms < 0) | (perms >= k)):
            raise ValueError(f"perms must be a non-empty (P, {k}) array of labels 0..{k - 1}")
        return perms

    def _screen_pays(self, perm: np.ndarray) -> bool:
        """Whether the screen takes at least half of SCREEN_PROBES states that sit
        on the draws, one for each of SCREEN_PROBES evenly spaced draws at the
        modes of its block conditionals.

        Every point the screen sees costs its strided bound whether the screen
        takes it or not, and where the draws' components overlap, as on D2,
        it takes a few points in a hundred and saves less than it costs.  The
        probes depend on the draws alone, so a point's value still depends on
        the point and the draws alone.  The answer is kept for the row.
        """
        key = perm.tobytes()
        if key in self._screen_decisions:
            return self._screen_decisions[key]
        prior, k = self.prior, self.k
        rows = np.arange(0, self.J, -(-self.J // SCREEN_PROBES))[:, None]
        counts, sums = self.counts[rows, perm], self.sums[rows, perm]
        variances = self.ig_scale[rows, perm] / (self.ig_shape[rows, perm] + 1.0)
        means, _ = mean_conditional(prior, counts, sums, variances)
        weights = (1.0 + counts) / (k + _sum_columns(counts))[:, None]
        betas = None
        if prior.hierarchical:
            shape, rate = beta_conditional(prior, variances)
            betas = np.maximum(shape - 1.0, 0.0) / rate
        probes = ParamsBatch(weights, means, variances, betas)
        taken = self._screen(probes, perm, np.empty(len(probes)))
        self._screen_decisions[key] = 2 * np.count_nonzero(taken) >= taken.size
        return self._screen_decisions[key]

    def _screen(self, batch: ParamsBatch, perm: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write log[(1/J) sum_j pi(theta_b | perm(draw_j), x)] into `out` for
        the points the screen takes, and return the (B,) flags of those points;
        the others are left to the dense kernel.

        Point b's term for draw j is L_bj + 1/2 sum_i (log D_ij - t_ij^2 / (v_i D_ij))
        plus the terms every draw shares, as in `_per_permutation`.  With
        the largest count nbar_i of each component over the draws in place of
        n_ij, log D_ij <= log Dbar_i and t^2 / (v D_ij) >= t^2 / (v Dbar_i), and
        t = n mu~ - s~ + v p0 mu~ is linear in (n, s~) for mu~ = mu - mu0 and
        s~ = s - n mu0.  So every term has an upper bound of two matrix
        products: L itself, and the point's quadratic coefficients against
        the draw's [n^2; s~^2; n s~; n; s~; 1].  A rounding slack of
        SCREEN_SLACK times the magnitude of the products' terms is added.

        The exact term at the best-bounded of every SCREEN_STRIDE-th draw is
        a floor on the point's largest term, so the draws whose bound lies
        more than G = ln J + SCREEN_BITS ln 2 below it carry less than
        2**-SCREEN_BITS of the point's sum together, and they are left out.
        A point is left to the dense kernel when its bound is not finite, or
        when more than 1/SCREEN_SHARE of the strided draws lie within G of
        the floor: its screen would then cost more than the terms it saves.
        The terms of the draws a point keeps are computed element by element
        from the point's and the draws' gathered inputs, in the centred form
        of t, and reduced over the draws in draw order, so a point's value
        depends on the point and the draws alone.

        Every matrix product has at least two rows and a multiple of eight
        columns: OpenBLAS rounds the last columns of other widths, and the
        row of a one-row product, with other kernels, so a point's bound
        would depend on its chunk.  The points go in chunks whose strided
        (points, J / SCREEN_STRIDE) bounds hold about KERNEL_BUDGET elements,
        shared between the kernel's threads; the points a chunk keeps go on
        in blocks whose (points, J) values of L and bounds each do, and a
        block's kept terms in slices of KERNEL_BUDGET / 8k.  The calling
        thread allocates the buffers; the arrays a worker thread allocates
        stay small, because its malloc arena keeps their high-water mark.
        """
        prior, k, J, B = self.prior, self.k, self.J, batch.size
        p0 = 1.0 / prior.mean_var
        gap = math.log(J) + SCREEN_BITS * math.log(2.0)
        # the right operands of L and of the quadratic bound, with zero columns
        # up to a multiple of eight
        right = np.zeros((8 * k + 2, -(-J // 8) * 8))
        quad = right[3 * k + 1:8 * k + 1, :J].reshape(5, k, J)
        counts, centred = quad[3], quad[4]
        counts[...] = self.counts.T[perm]
        np.subtract(self.sums.T[perm], counts * prior.mean_loc, out=centred)
        np.multiply(counts, counts, out=quad[0])
        np.multiply(centred, centred, out=quad[1])
        np.multiply(counts, centred, out=quad[2])
        right[8 * k + 1, :J] = 1.0
        right[:k, :J] = counts
        np.negative(self.ig_shape.T[perm] + 1.0, out=right[k:2 * k, :J])
        np.negative(self.ig_scale.T[perm], out=right[2 * k:3 * k, :J])
        right[3 * k, :J] = self.ig_const
        draw_pieces = right[6 * k + 1:8 * k + 1, :J]                    # [n; s~]
        magnitude = np.abs(right).max(axis=1)
        n_bar = counts.max(axis=1)
        stride = np.arange(0, J, SCREEN_STRIDE)
        coarse = np.zeros((8 * k + 2, -(-stride.size // 8) * 8))
        coarse[:, :stride.size] = right[:, stride]
        taken = np.zeros(B, dtype=bool)
        # a chunk's strided bounds are sized as if 256 draws wide at least: a
        # larger chunk saves no time, and the per-point arrays a worker thread
        # allocates for it would grow that thread's malloc arena for good; a
        # smaller batch is split between the threads
        step = max(2, min(KERNEL_BUDGET // max(coarse.shape[1], 256), -(-B // KERNEL_THREADS)))
        edges = _chunk_edges(B, step)
        chunks = iter(zip(edges[:-1], edges[1:]))
        block = max(2, KERNEL_BUDGET // right.shape[1])
        span = KERNEL_BUDGET // (8 * k)
        lock = threading.Lock()

        def next_chunk():
            with lock:
                return next(chunks, None)

        def terms(lead, pieces, draws):
            # the exact terms, without the shared ones, from L's values `lead`,
            # the points' [mu~; p0 v; 1/v] (3k rows, overwritten) and the draws'
            # [n; s~]: with D = p0 v + n, t = mu~ D - s~, and the pair factors
            # log D - t^2 / (v D) are added in component order
            shifted, d, inv_v = pieces.reshape(3, k, -1)
            n, s = np.take(draw_pieces, draws, axis=1).reshape(2, k, -1)
            d += n
            shifted *= d
            shifted -= s
            np.square(shifted, out=shifted)
            shifted /= d
            shifted *= inv_v
            np.log(d, out=d)
            d -= shifted
            total = d[0]
            for pair in d[1:]:
                total += pair
            total *= 0.5
            total += lead
            return total

        def screen(points, coefficients, threshold, best, pieces, shared, lead_buf, bound_buf):
            # the (points, J) values of L and bounds
            lead, bound = (buf[:points.size * right.shape[1]].reshape(points.size, -1)
                           for buf in (lead_buf, bound_buf))
            _serial_matmul(coefficients[:, :3 * k + 1], right[:3 * k + 1], lead)
            _serial_matmul(coefficients[:, 3 * k + 1:], right[3 * k + 1:], bound)
            bound += lead
            survive = bound >= threshold[:, None]
            survive[:, J:] = False
            # the floor's own draw, whose bound is above it but for rounding
            survive[np.arange(points.size), best] = True
            # the flat indices of the kept (point, draw) pairs, point by point
            kept = np.flatnonzero(survive)
            offsets = np.arange(points.size + 1) * right.shape[1]
            ends = np.searchsorted(kept, offsets)
            starts, sizes = ends[:-1], ends[1:] - ends[:-1]
            rows = np.repeat(np.arange(points.size), sizes)
            values = lead.ravel()[kept]
            # the terms go in slices of `span` pairs, whose gathered inputs stay small
            for lo in range(0, kept.size, span):
                at = slice(lo, lo + span)
                values[at] = terms(values[at], np.take(pieces, rows[at], axis=1),
                                   kept[at] - offsets[rows[at]])
            top = np.maximum.reduceat(values, starts)
            values -= np.repeat(top, sizes)
            np.maximum(values, EXP_FLOOR, out=values)
            np.exp(values, out=values)
            total = np.add.reduceat(values, starts)
            np.log(total, out=total)
            total += top
            total += shared
            out[points] = total
            taken[points] = True

        def run_chunks(coefficient_buf, near_buf, lead_buf, bound_buf):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while (chunk := next_chunk()) is not None:
                    lo, hi = chunk
                    points = np.arange(lo, hi) if hi - lo > 1 else np.array([lo, lo])
                    part = batch[lo:hi] if hi - lo > 1 else batch[points]
                    # each point's [log w | log v | 1/v | 1], the left operand
                    # of L, then its coefficients of [n^2; s~^2; n s~; n; s~] in
                    # -w t^2 and the sum over the pairs of 1/2 log Dbar - w u^2
                    coefficients = coefficient_buf[:points.size * (8 * k + 2)].reshape(
                        points.size, -1)
                    shared = self._batch_pieces(part, coefficients[:, :3 * k + 1]) - math.log(J)
                    var = part.variances                               # (points, k)
                    shifted = part.means - prior.mean_loc
                    d_bar = var * p0 + n_bar
                    w = 0.5 / (var * d_bar)
                    u = var * p0 * shifted
                    quad = coefficients[:, 3 * k + 1:8 * k + 1].reshape(-1, 5, k)
                    np.multiply(shifted * shifted, -w, out=quad[:, 0])
                    np.negative(w, out=quad[:, 1])
                    np.multiply(shifted, 2.0 * w, out=quad[:, 2])
                    np.multiply(shifted * u, -2.0 * w, out=quad[:, 3])
                    np.multiply(u, 2.0 * w, out=quad[:, 4])
                    coefficients[:, 8 * k + 1] = _sum_columns(0.5 * np.log(d_bar) - w * u * u)
                    size = np.abs(coefficients)
                    size *= magnitude
                    slack = _sum_columns(size) * SCREEN_SLACK
                    pieces = np.concatenate([shifted.T, (var * p0).T, (1.0 / var).T])
                    # the bounds on the strided draws, and the floor their best gives
                    near = near_buf[:points.size * coarse.shape[1]].reshape(points.size, -1)
                    _serial_matmul(coefficients, coarse, near)
                    near = near[:, :stride.size]
                    best = np.argmax(near, axis=1)
                    finite = np.isfinite(near[np.arange(points.size), best])
                    best = stride[best]
                    lead = _sum_columns(coefficients[:, :3 * k + 1] * right[:3 * k + 1, best].T)
                    threshold = terms(lead, pieces.copy(), best) - gap - slack
                    keep = np.flatnonzero(
                        finite & np.isfinite(threshold)
                        & (SCREEN_SHARE * np.count_nonzero(near >= threshold[:, None], axis=1)
                           <= stride.size))
                    for start in range(0, keep.size, block):
                        rows = keep[start:start + block]
                        if rows.size == 1:
                            rows = np.repeat(rows, 2)
                        screen(points[rows], coefficients[rows], threshold[rows], best[rows],
                               pieces[:, rows], shared[rows], lead_buf, bound_buf)

        threads = max(1, min(KERNEL_THREADS, len(edges) - 1))
        _run_in_threads(run_chunks, [
            (np.empty((step + 1) * (8 * k + 2)), np.empty((step + 1) * coarse.shape[1]),
             np.empty(block * right.shape[1]), np.empty(block * right.shape[1]))
            for _ in range(threads)
        ])
        return taken

    def _per_permutation(self, batch, perms, tail, reduce):
        """(B, P, *tail) array: `reduce` of each (rows, points, J) block of log
        densities without the terms every row shares, plus those terms.

        The block density factorises over components: row p pairs batch
        component i with draw component c = perms[p, i].  Its log is

            [log w | log v | 1/v | 1] @ [counts; -(shape + 1); -scale; ig_const]
            + 1/2 sum_i (log D - t^2 / (v D)) - 1/2 sum_i log v_i - k/2 log 2 pi
            + beta factor,

        with D = p0 v + n and t = n mu - s + v (p0 mu - p0 mu0) for the pair's
        point values (w, mu, v) and draw statistics (n, s): the normal-mean
        factor 1/2 (log prec - log 2 pi - prec (mu - mean)^2) in closed form,
        since prec = D / v and mu - mean = t / D.  The first term is one
        stacked matrix product per row, against the row's relabelled draw
        statistics.  The second is computed once per chunk for every distinct
        (i, c) pair the rows use (k pairs for the identity alone, k**2 for all
        of S_k) into (pairs, points, J) buffers of about KERNEL_BUDGET
        elements (`_chunk_edges`): D, then t / sqrt(v) as one matrix product
        of [mu, -1, v (p0 mu - p0 mu0)] / sqrt(v) with [n; s; 1], then
        log D - (t / sqrt(v))^2 / D.  The rest is the same for every row,
        because a row uses each batch component exactly once, and it does not
        depend on the draw, so it is added once per point after the reduce.
        The rows go in blocks of up to KERNEL_BUDGET / (points J) rows, each
        step once per block; a block of one row sums its pair slices as
        views, a larger one gathers them, in component order either way.

        A row that meets an overflowing precision or a non-finite input can
        hold inf - inf, whose limit is -inf.  A block whose reduced values
        hold a NaN is recomputed and its NaNs set to -inf before the reduce;
        no other block pays for that check beyond the reduced values.

        The chunks are shared between `KERNEL_THREADS` threads (fewer if there
        are fewer chunks; one chunk runs in the calling thread alone).  The
        calling thread allocates every buffer, one set per thread, and a chunk
        writes only its own points of the output, so every bit of the result
        is the same for any thread count.
        """
        B, P, J, k = batch.size, perms.shape[0], self.J, self.k
        left = np.empty((B, 3 * k + 1))
        shared = self._batch_pieces(batch, left)
        # pair (i, c) has code k i + c; cols[p, i] is the buffer slot of (i, perms[p, i])
        codes, cols = np.unique(k * np.arange(k) + perms, return_inverse=True)
        cols = cols.reshape(P, k)
        pairs = codes.size
        pair_i, pair_c = np.divmod(codes, k)
        # each row's relabelled draw statistics and constant, (P, 3k + 1, J), and
        # each pair's [n; s; 1], (pairs, 3, J): with the output these are the
        # only arrays that grow with P and J
        right = np.empty((P, 3 * k + 1, J))
        for i in range(k):
            c = perms[:, i]
            right[:, i] = self.counts.T[c]
            np.negative(self.ig_shape.T[c] + 1.0, out=right[:, k + i])
            np.negative(self.ig_scale.T[c], out=right[:, 2 * k + i])
        right[:, 3 * k] = self.ig_const
        pair_right = np.empty((pairs, 3, J))
        pair_right[:, 0] = self.counts.T[pair_c]
        pair_right[:, 1] = self.sums.T[pair_c]
        pair_right[:, 2] = 1.0
        n_pair = pair_right[:, :1]                       # (pairs, 1, J)
        p0 = 1.0 / self.prior.mean_var
        pm0 = self.prior.mean_loc * p0
        span = max(J, 8)
        edges = _chunk_edges(B, KERNEL_BUDGET // (span * max(pairs, P)))
        width = max(max(np.diff(edges), default=0), 1)
        block = min(P, max(1, KERNEL_BUDGET // (width * span)))
        out = np.empty((B, P) + tail)
        chunks = iter(zip(edges[:-1], edges[1:]))
        lock = threading.Lock()

        def next_chunk():
            with lock:
                return next(chunks, None)

        def block_values(lo, hi, r0, r1, normal, total, part, other):
            # the rows r0..r1 of the chunk's points, without the shared terms
            np.matmul(left[lo:hi], right[r0:r1], out=total)
            if r1 - r0 == 1:
                # (1, points, J) views: an input shaped unlike its output that
                # shares its memory would be copied first
                acc = normal[cols[r0, 0], None]
                for c in cols[r0, 1:]:
                    np.add(acc, normal[c], out=part)
                    acc = part
            else:
                # mode="raise" would gather into a temporary, then copy
                np.take(normal, cols[r0:r1, 0], axis=0, out=part, mode="clip")
                for i in range(1, k):
                    np.take(normal, cols[r0:r1, i], axis=0, out=other, mode="clip")
                    np.add(part, other, out=part)
                acc = part
            np.multiply(acc, 0.5, out=part)
            np.add(total, part, out=total)
            return total

        def run_chunks(pair_buf, lhs_buf, row_buf):
            # error state is per thread
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while (chunk := next_chunk()) is not None:
                    lo, hi = chunk
                    m = hi - lo
                    # contiguous views, so that every chunk takes numpy's same loops
                    normal, sq = pair_buf[:, :pairs * m * J].reshape(2, pairs, m, J)
                    lhs = lhs_buf[:pairs * m * 3].reshape(pairs, m, 3)
                    var = batch.variances[lo:hi, pair_i].T          # (pairs, points)
                    mu = batch.means[lo:hi, pair_i].T
                    root = lhs[:, :, 2]
                    np.sqrt(var, out=root)
                    np.divide(mu, root, out=lhs[:, :, 0])
                    np.divide(-1.0, root, out=lhs[:, :, 1])
                    np.multiply(mu, p0, out=mu)
                    np.subtract(mu, pm0, out=mu)
                    np.multiply(root, mu, out=root)
                    np.multiply(var, p0, out=var)
                    # `normal` holds D until log D - t^2 / (v D) replaces it
                    np.add(var[:, :, None], n_pair, out=normal)
                    np.matmul(lhs, pair_right, out=sq)
                    np.square(sq, out=sq)
                    np.divide(sq, normal, out=sq)
                    np.log(normal, out=normal)
                    np.subtract(normal, sq, out=normal)
                    for r0 in range(0, P, block):
                        r1 = min(r0 + block, P)
                        size = (r1 - r0) * m * J
                        total, part, other = row_buf[:, :size].reshape(3, r1 - r0, m, J)
                        bufs = (normal, total, part, other)
                        values = reduce(block_values(lo, hi, r0, r1, *bufs))
                        # the max is NaN if any value is; only this rare path
                        # allocates a block-sized array (the guard's flags)
                        if np.isnan(np.max(values)):
                            total = block_values(lo, hi, r0, r1, *bufs)
                            _nan_to_neg_inf(total)
                            values = reduce(total)
                        out[lo:hi, r0:r1] = np.swapaxes(values, 0, 1)

        threads = max(1, min(KERNEL_THREADS, len(edges) - 1))
        _run_in_threads(run_chunks, [
            (np.empty((2, pairs * width * J)), np.empty(pairs * width * 3),
             np.empty((3, block * width * J)))
            for _ in range(threads)
        ])
        out += shared.reshape((B,) + (1,) * (out.ndim - 1))
        return out

    def sample(self, draw_indices: np.ndarray, rng) -> ParamsBatch:
        """One block draw per entry of `draw_indices` (values in 0..J-1), in
        the order of `draw_indices`.

        Every factor is drawn for the whole batch in one pass from its
        draw's gathered statistics: the weights as standard gammas of shape
        1 + counts, each row scaled by the inverse of its sum taken left to
        right (the Dirichlet law, as numpy draws and sums it for
        concentrations of 1 or more), the variances as inverse gammas,
        the means as normals given the fresh variances, and beta given the
        fresh variances.  Each value is rounded as numpy's `dirichlet`,
        `gamma` and `normal` round it, so a batch that conditions on one
        draw alone has the bits of those calls on that draw's conditionals.
        """
        gen = as_generator(rng)
        draw_indices = np.asarray(draw_indices, dtype=np.intp)
        if np.any((draw_indices < 0) | (draw_indices >= self.J)):
            raise ValueError(f"draw indices must lie in 0..{self.J - 1}")
        prior = self.prior
        counts = self.counts[draw_indices]
        weights = gen.standard_gamma(1.0 + counts)
        weights *= 1.0 / _sum_columns(weights)[:, None]
        variances = self.ig_scale[draw_indices] / gen.standard_gamma(self.ig_shape[draw_indices])
        mean, var = mean_conditional(prior, counts, self.sums[draw_indices], variances)
        means = mean + np.sqrt(var) * gen.standard_normal(mean.shape)
        betas = None
        if prior.hierarchical:
            shape, rate = beta_conditional(prior, variances)
            betas = gen.standard_gamma(shape, rate.shape) * (1.0 / rate)
        return ParamsBatch(weights, means, variances, betas)
