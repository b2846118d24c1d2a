"""Data-augmentation Gibbs sampler for the mixture model.

Sweep order: allocations, then weights, then per component the variance
given the stored mean followed by the mean given the fresh variance, then
the shared scale when the prior is hierarchical.  The sweep draws its
blocks from the conditionals in `model` that `ConditioningSet` samples and
evaluates, so one sweep from a stored draw is an exact sample from the
block density the estimators use.

The random stream is part of the contract, and the CRC32 pins in the
tests freeze it.  Every sweep after the first draws these values, in this
order:

- n * k `gumbel` values, row by row, for the allocations (Gumbel-max);
- k weight gammas, `standard_gamma(1 + n_i)` for i = 1..k, which are
  normalised into the weights as numpy's `dirichlet` normalises them;
- k variance gammas, `standard_gamma(shape_i)`;
- k `standard_normal` values for the means;
- under the hierarchical prior, one `gamma` for the shared scale.

The first sweep starts from the quantile allocation and draws no `gumbel`
values.  How the values are drawn is free (the allocations take one (n, k)
call, the parameters one scalar call per value), but a change of the values
or their order changes every chain, and so does a change of the parameter
step's arithmetic.  The allocation step's arithmetic may change only within
the rounding of its log-odds, as its two forms below do.

The allocation step has two forms that add the same `gumbel` values to the
same log-odds.  For a regular state, log w + log N(x; mu, v) is, up to a
constant per point, a quadratic a + b x~ + c x~^2 in the point's offset
x~ = x - centre from the midpoint of the data range:
`model.allocation_conditional` gives each component's (a, b, c) after its
mean draw, and the next sweep's logits are one (n, 3) by (3, k) matrix
product.  A state with a zero weight, a variance that is not a finite normal
float, or a component whose (max|x~| + |mu~|)^2 / v exceeds
`QUADRATIC_BOUND` takes the exact step, `_sample_allocation`, which alone
handles degenerate states and counts the fallbacks.  The two forms differ
by rounding below about 1e-9 nats, so an allocation can differ between them
only where two Gumbel-perturbed logits tie that closely.

The stored draws are a `GibbsChain`, a `model.ParamsBatch` that also holds
each draw's allocations.  They are relabelled only afterwards, each by a
(k,) gather row (`permute_draws`, on any batch): uniformly at random in
`permute_chain`, or towards a reference in `relabel.relabel_chain`.

`chain[rows]` is the chain of the draws at `rows`, so a single draw is a
one-draw chain.  The pivot is one: `select_pivot` returns the stored draw
of highest posterior density as `chain[t]`, and the plug-in proposal,
Chib's candidate point and the relabelling reference all take it as such.
"""

from __future__ import annotations

import csv
import math
import sys
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .model import (
    Dataset,
    ParamsBatch,
    PriorSpec,
    allocation_conditional,
    beta_conditional,
    log_posterior_batch,
    mean_conditional,
    variance_conditional,
)
from .numerics import as_generator, normal_logpdf_into, permutation_rows

__all__ = [
    "DegenerateStateError",
    "GibbsConfig",
    "GibbsChain",
    "run_gibbs",
    "permute_draws",
    "permute_chain",
    "select_pivot",
    "export_chain_csv",
    "integrated_autocorr_time",
    "chain_mean_stderr",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Sweep counts and thinning."""

    iterations: int = 15_000
    burn_in: int = 5_000
    thinning: int = 1

    def __post_init__(self):
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")
        if self.thinning < 1:
            raise ValueError("thinning stride must be >= 1")

    @property
    def kept(self) -> int:
        return 1 + (self.iterations - self.burn_in - 1) // self.thinning


@dataclass(kw_only=True)
class GibbsChain(ParamsBatch):
    """Post-burn-in, thinned draws: a `ParamsBatch` of T states with each
    draw's (T, n) allocations and the sweep's allocation fallback count.

    A parameter state with its allocation is a row; a single draw, such as
    the pivot, is a chain of length one.
    """

    allocations: np.ndarray      # (T, n) small ints
    allocation_fallbacks: int = 0

    def __post_init__(self):
        super().__post_init__()
        self.allocations = np.asarray(self.allocations)
        if self.allocations.ndim != 2 or self.allocations.shape[0] != len(self):
            raise ValueError(f"allocations must be a ({len(self)}, n) array, "
                             f"not {self.allocations.shape}")

    @property
    def n(self) -> int:
        return self.allocations.shape[1]

    @property
    def switch_flags(self) -> np.ndarray:
        """(T,) True where the label of the smallest mean differs from the previous draw's."""
        low = np.argmin(self.means, axis=1)
        flags = np.zeros(len(self), dtype=bool)
        flags[1:] = low[1:] != low[:-1]
        return flags


def _init_allocation(x: np.ndarray, k: int) -> np.ndarray:
    """Quantile-slice the sorted data into k contiguous blocks."""
    z = np.empty(x.size, dtype=np.intp)
    order = np.argsort(x, kind="stable")
    for i, block in enumerate(np.array_split(order, k)):
        z[block] = i
    return z


def _sample_allocation(xc, weights, means, variances, gen, logits):
    """Gumbel-max categorical draws from the allocation conditionals.

    `xc` is the data as an (n, 1) column, and `logits` an (n, k) buffer
    that the step overwrites with log w + log N(x; mu, v):
    `numerics.normal_logpdf_into` writes the density into it from the (k,)
    vectors, inside the one `errstate` of the step.  A row with no finite
    logit falls back to a one-hot at the nearest mean.
    """
    with np.errstate(divide="ignore", over="ignore"):
        # a zero weight gives log 0 = -inf, and an overflowing (x - mu)^2 / v
        # (a subnormal variance) is +inf: both are the limits of the density
        normal_logpdf_into(logits, xc, means, variances)
        np.add(logits, np.log(weights), out=logits)
    n_fallback = 0
    if not np.isfinite(logits).all():
        bad = ~np.isfinite(np.max(logits, axis=1))
        n_fallback = int(np.count_nonzero(bad))
        if n_fallback:
            nearest = np.argmin(np.abs(xc - means), axis=1)
            logits[bad] = -np.inf
            logits[bad, nearest[bad]] = 0.0
    logits += gen.gumbel(size=logits.shape)
    return np.argmax(logits, axis=1), n_fallback


# A state takes the quadratic allocation step only if every component's
# (max|x~| + |mu~|)^2 / v is at most this.  The expanded form's terms are then
# below it in magnitude, so their rounding stays below about 1e-9 nats; the
# states of the benchmark chains stay below about 2e4.
QUADRATIC_BOUND = 2.0 ** 20


def _quadratic_row(weight, mean, variance, centre, radius):
    """`model.allocation_conditional` of one component, or None if the
    component sends its state to the exact step: a zero weight, a variance
    that is not a finite normal float, or one so small that
    (radius + |mean - centre|)^2 / variance exceeds `QUADRATIC_BOUND`."""
    if not (weight > 0.0 and sys.float_info.min <= variance < math.inf):
        return None
    reach = radius + abs(mean - centre)
    if not reach * reach / variance <= QUADRATIC_BOUND:
        return None
    return allocation_conditional(weight, mean, variance, centre)


class DegenerateStateError(ArithmeticError):
    """Raised when a Gibbs sweep draws a state with no valid next conditional."""


def run_gibbs(data: Dataset, prior: PriorSpec, k: int, config: GibbsConfig,
              rng) -> GibbsChain:
    """Run the sampler; draws are deterministic given (data, prior, config, rng).

    The parameter step runs on Python floats, one component at a time, with
    scalar generator calls: on (k,) arrays numpy's per-call overhead costs
    more than the arithmetic.  Each float operation is the one the array
    code applies elementwise, so the draws have its bits.  After each mean
    draw it writes the component's row of the next allocation step, which
    is then one matrix product (see the module docstring).

    A variance draw of 0, or one so small that its mean conditional's
    precision or mean overflows, raises `DegenerateStateError`; an empty
    component's tiny variance and the +inf variance of a zero gamma draw
    leave a valid conditional and are kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gen = as_generator(rng)
    x = data.observations
    n = x.size
    xc = x[:, None]
    x_sq = x * x
    logits = np.empty((n, k))
    # the columns [1, x~, x~^2] of the quadratic step, centred on the data range
    centre = 0.5 * (float(x.min()) + float(x.max()))
    x_centred = x - centre
    radius = float(np.abs(x_centred).max())
    powers = np.stack((np.ones(n), x_centred, x_centred * x_centred), axis=1)
    coefficients = None

    z = _init_allocation(x, k)
    counts = np.bincount(z, minlength=k).tolist()
    sums = np.bincount(z, weights=x, minlength=k).tolist()
    means = [s / c if c else prior.mean_loc for c, s in zip(counts, sums)]
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
            if coefficients is None:
                z, n_bad = _sample_allocation(xc, np.array(weights), np.array(means),
                                              np.array(variances), gen, logits)
                total_fallbacks += n_bad
            else:
                np.dot(powers, coefficients.T, out=logits)
                logits += gen.gumbel(size=logits.shape)
                z = logits.argmax(1)
            counts = np.bincount(z, minlength=k).tolist()
            sums = np.bincount(z, weights=x, minlength=k).tolist()
        sums_sq = np.bincount(z, weights=x_sq, minlength=k).tolist()

        # the weights as numpy's `dirichlet` forms them from concentrations
        # of at least 0.1: each gamma times the inverse of their left-to-right
        # sum (`sum` compensates from Python 3.12 on)
        gammas = [gen.standard_gamma(1.0 + c) for c in counts]
        total = 0.0
        for g in gammas:
            total += g
        inverse = 1.0 / total
        weights = [g * inverse for g in gammas]
        variances = []
        for c, s, ss, m in zip(counts, sums, sums_sq, means):
            shape, scale = variance_conditional(prior, c, s, ss, m, beta)
            g = gen.standard_gamma(shape)
            # a tiny shape draws exact zeros: scale * inf is numpy's scale / 0
            variances.append(scale / g if g else scale * math.inf)
        means = []
        rows = []
        for w, c, s, v in zip(weights, counts, sums, variances):
            # a variance of 0, which the conditional divides by, or one so small
            # that counts / v or sums / v overflows leaves no normal to draw from
            cond_mean, cond_var = mean_conditional(prior, c, s, v) if v else (0.0, 0.0)
            if not (cond_var > 0.0 and math.isfinite(cond_mean)):
                raise DegenerateStateError(
                    f"sweep {sweep}: the variance {v!r}, drawn for a component holding "
                    f"{c} point(s), leaves its mean conditional no finite mean and "
                    "positive variance")
            m = cond_mean + math.sqrt(cond_var) * gen.standard_normal()
            means.append(m)
            if rows is not None:
                row = _quadratic_row(w, m, v, centre, radius)
                if row is None:
                    rows = None
                else:
                    rows.append(row)
        coefficients = None if rows is None else np.array(rows)
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


def permute_draws(batch: ParamsBatch, perms) -> ParamsBatch:
    """Relabel state t of a batch by the gather row perms[t]: label i takes
    the values of label perms[t, i].  A chain's allocations follow their
    components, into an array of their stored dtype, one block of
    `model.KERNEL_BUDGET` labels at a time: only a block is gathered as
    intp, never the whole (T, n) array."""
    perms = np.asarray(perms, dtype=np.intp)
    columns = {name: np.take_along_axis(getattr(batch, name), perms, axis=1)
               for name in ("weights", "means", "variances")}
    if isinstance(batch, GibbsChain):
        inverse = np.argsort(perms, axis=1)
        allocs = batch.allocations
        columns["allocations"] = out = np.empty_like(allocs)
        edges = model._chunk_edges(len(batch), model.KERNEL_BUDGET // batch.n)
        for lo, hi in zip(edges[:-1], edges[1:]):
            out[lo:hi] = np.take_along_axis(inverse[lo:hi], allocs[lo:hi].astype(np.intp), 1)
    return replace(batch, **columns)


def permute_chain(chain: GibbsChain, rng) -> GibbsChain:
    """Relabel every draw by an independent, uniformly drawn label permutation.

    The draw is an index into the lexicographic order of S_k, decoded by
    `permutation_rows`.  Under the exchangeable priors of this package this
    has the law of the random permutation sampler, which relabels inside
    every sweep.
    """
    idx = as_generator(rng).integers(math.factorial(chain.k), size=len(chain))
    return permute_draws(chain, permutation_rows(idx, chain.k))


def select_pivot(chain: GibbsChain, data: Dataset, prior: PriorSpec) -> GibbsChain:
    """The stored draw with the highest joint posterior density, as a one-draw chain."""
    if len(chain) == 0:
        raise ValueError("cannot select a pivot from an empty chain")
    return chain[int(np.argmax(log_posterior_batch(data, prior, chain)))]


def export_chain_csv(chain: GibbsChain, data: Dataset, prior: PriorSpec, path) -> None:
    """One row per draw: weights, means, variances, [beta,] z hash, log posterior."""
    logpost = log_posterior_batch(data, prior, chain)
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
