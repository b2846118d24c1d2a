"""Log-domain arithmetic, label permutations and log-density kernels.

Everything downstream (mixture densities, importance weights, cluster
contributions) is accumulated in log space; probabilities are only
exponentiated after a max-shift, and the shifted exponents are floored at
`EXP_FLOOR` first.  A term below the floor is at most e^-700 (about
1e-304) times the largest, far below half an ulp of the shifted sum, which
is at least 1, so the floor leaves every sum's bits unchanged; it keeps
`np.exp` off its slow path for inputs whose results underflow or are
subnormal, which far-away draws of the block-density kernel hit by the
million (results below e^-708 are subnormal and cost about 100 times a
normal one).  The log-density kernels are exact and
normalized, since the evidence identities this package implements
require normalized conditionals.  Two come in an in-place pair, as hot
loops need them: `log_sum_exp_into` and `normal_logpdf_into` write into
the caller's buffer, and `log_sum_exp` and `normal_logpdf` are their
allocating wrappers.  `normal_logpdf_into` is the one place the normal
log-density is written; the Gibbs allocation step, the likelihood and the
prior all call it (the block-density kernel alone folds the normal factor
into its closed form).  A label permutation is a (k,) gather
row.  `permutation_rows` decodes rows of the lexicographic order of S_k
from their indices, so only `permutation_matrix`, which lists all k! of
them, is bounded by the enumeration cap.  log Gamma, for the normalising
constants of the Dirichlet, inverse-gamma and gamma densities, comes from
`math.lgamma` (`log_gamma` calls it once per distinct argument) rather than
from scipy, so that the package loads on numpy alone.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

# Shifted exponents are raised to this before `np.exp` (see the module
# docstring); e^-700 is about 1e-304, still a normal float.
EXP_FLOOR = -700.0

# Enumerating S_k beyond this is refused (k! blow-up).
MAX_ENUMERATED_COMPONENTS = 8


class PermutationCapacityError(ValueError):
    """Raised when a full S_k enumeration would be factorially too large."""


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) computed with a max-shift.

    Returns -inf iff every entry is -inf.  Empty input is a usage error.
    """
    values = np.array(values, dtype=float, ndmin=1)  # a copy, which the reduce overwrites
    if values.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    out = log_sum_exp_into(values, axis)
    return float(out) if axis is None else out


def log_sum_exp_into(values: np.ndarray, axis=None) -> np.ndarray:
    """`log_sum_exp` of a float array of one or more dimensions, computed in
    `values`, which it overwrites.

    It takes no temporaries of the size of `values`, so hot loops reduce
    in their own buffers.  The shifted exponents are floored at `EXP_FLOOR`,
    which changes no bit of the result; a slice that is all -inf, whose
    floored sum is not 0, is set to -inf after the log.
    """
    shift = np.max(values, axis=axis, keepdims=True)
    empty = shift == -np.inf
    np.copyto(shift, 0.0, where=~np.isfinite(shift))
    values -= shift
    np.maximum(values, EXP_FLOOR, out=values)
    np.exp(values, out=values)
    out = np.sum(values, axis=axis, keepdims=True)
    np.log(out, out=out)
    out += shift
    np.copyto(out, -np.inf, where=empty)
    return np.squeeze(out, axis=axis)


def permutation_rows(index, k: int) -> np.ndarray:
    """Rows `index` (integers in [0, k!)) of the lexicographic order of S_k, as
    an (len(index), k) array.

    Each row is decoded place by place from the factorial number system,
    O(k^2) per row whatever k! is.  A row is a gather: relabelling a
    component-indexed array by `row` gives label i the values of label
    row[i], and an allocation vector `z` follows as argsort(row)[z].
    """
    index = np.asarray(index, dtype=np.int64).reshape(-1)
    n = index.size
    unused = np.tile(np.arange(k, dtype=np.intp), (n, 1))  # labels not yet placed, in order
    rows = np.empty((n, k), dtype=np.intp)
    for place in range(k):
        left = k - place
        digit = index // math.factorial(left - 1) % left
        rows[:, place] = unused[np.arange(n), digit]
        unused = unused[np.arange(left) != digit[:, None]].reshape(n, left - 1)
    return rows


def permutation_matrix(k: int) -> np.ndarray:
    """The (k!, k) array of all label permutations, lexicographic, identity first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > MAX_ENUMERATED_COMPONENTS:
        raise PermutationCapacityError(
            f"enumerating S_{k} needs {math.factorial(k)} permutations "
            f"(> cap {MAX_ENUMERATED_COMPONENTS}!={math.factorial(MAX_ENUMERATED_COMPONENTS)})"
        )
    return permutation_rows(np.arange(math.factorial(k)), k)


def _lgamma(x: float) -> float:
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):  # a pole (0, -1, -2, ...) or x beyond 2.5e305
        return math.inf


def log_gamma(x):
    """log |Gamma(x)| elementwise, in the input's shape; a float for a scalar or
    0-d input.  A pole (a non-positive integer) gives +inf.

    `math.lgamma` runs once per distinct value: the arguments this package
    builds from allocation counts take at most n + 1 distinct values per array.
    """
    if np.ndim(x) == 0:
        return _lgamma(float(x))
    x = np.asarray(x, dtype=float)
    values, inverse = np.unique(x, return_inverse=True)
    table = np.array([_lgamma(v) for v in values.tolist()], dtype=float)
    return table[inverse].reshape(x.shape)


# ---------------------------------------------------------------------------
# Array log-density kernels.  These broadcast and are the workhorses for the
# vectorized proposal evaluations.
# ---------------------------------------------------------------------------

def normal_logpdf(x, mean, var):
    """log N(x; mean, var), broadcast over the three inputs: a float array, or
    a numpy float when all three are scalars."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(mean), np.shape(var)))
    # a subnormal variance overflows (x - mean)^2 / var to inf where x != mean,
    # and the density's limit there is 0
    with np.errstate(over="ignore"):
        normal_logpdf_into(out, x, mean, var)
    return out[()]


def normal_logpdf_into(out: np.ndarray, x, mean, var) -> np.ndarray:
    """`normal_logpdf` written into the float array `out`, which must have the
    broadcast shape of the inputs; returns `out`.

    It takes no temporary of the size of `out`, only log(var) in the shape
    of `var`, and it enters no `np.errstate`: a subnormal variance overflows
    (x - mean)^2 / var to +inf, whose warning the caller silences once for
    its whole step (entering an `errstate` costs about a microsecond).  An
    infinite variance gives -inf, the density's limit.
    """
    np.subtract(x, mean, out=out)
    np.multiply(out, out, out=out)
    np.divide(out, var, out=out)
    out += LOG_2PI + np.log(var)
    out *= -0.5
    return out


def inverse_gamma_logpdf(x, shape, scale):
    """IG(shape a, scale s): s^a/Gamma(a) x^(-a-1) exp(-s/x); 0 outside x>0."""
    x = np.asarray(x, dtype=float)
    # over: s / x of a subnormal x is inf, the density's limit there is 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = (
            shape * np.log(scale)
            - log_gamma(shape)
            - (shape + 1.0) * np.log(x)
            - scale / x
        )
    return np.where(x > 0, out, -np.inf)


def gamma_logpdf(x, shape, rate):
    """Gamma(shape a, rate b): b^a/Gamma(a) x^(a-1) exp(-b x); 0 outside x>0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            shape * np.log(rate)
            - log_gamma(shape)
            + (shape - 1.0) * np.log(x)
            - rate * x
        )
    return np.where(x > 0, out, -np.inf)


def dirichlet_logpdf(weights, concentration):
    """Dirichlet log-density; -inf off the simplex (1e-9 closure tolerance)."""
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    alpha = np.atleast_1d(np.asarray(concentration, dtype=float))
    if w.shape[-1] != alpha.shape[-1]:
        raise ValueError("weights/concentration length mismatch")
    const = log_gamma(alpha.sum(axis=-1)) - log_gamma(alpha).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(alpha == 1.0, 0.0, (alpha - 1.0) * np.log(w))
    out = const + terms.sum(axis=-1)
    on_simplex = (np.abs(w.sum(axis=-1) - 1.0) <= 1e-9) & np.all(w >= 0.0, axis=-1)
    return np.where(on_simplex, out, -np.inf)


# ---------------------------------------------------------------------------
# Reproducible splittable random streams.
# ---------------------------------------------------------------------------

def _code_key(key) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & 0xFFFFFFFFFFFFFFFF


class RngStream:
    """A counter-free splittable RNG: substreams are keyed, not sequential.

    Each (seed, key path) pair owns an independent numpy Generator, so
    replicates and estimator roles can run in any order, or concurrently,
    and still reproduce bit-identical draws.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self._seed = int(seed)
        self._path = tuple(_path)
        self._generator: np.random.Generator | None = None

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def path(self) -> tuple:
        return self._path

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            entropy = (self._seed,) + self._path
            self._generator = np.random.default_rng(np.random.SeedSequence(entropy))
        return self._generator

    def substream(self, *keys) -> "RngStream":
        return RngStream(self._seed, self._path + tuple(_code_key(k) for k in keys))

    def __repr__(self):
        return f"RngStream(seed={self._seed}, path={self._path})"


def as_generator(rng) -> np.random.Generator:
    """Coerce an RngStream, Generator or integer seed to a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator
    return np.random.default_rng(rng)
