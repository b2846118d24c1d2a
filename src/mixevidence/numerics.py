"""Log-domain arithmetic, permutation machinery and log-density kernels.

Everything downstream (mixture densities, importance weights, cluster
contributions) is accumulated in log space; probabilities are only
exponentiated after a max-shift.  The log-density kernels are exact and
normalized, since the evidence identities this package implements
require normalized conditionals.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import permutations as _iter_permutations

import numpy as np
from scipy.special import gammaln

LOG_2PI = math.log(2.0 * math.pi)

# Enumerating S_k beyond this is refused (k! blow-up); callers may override.
MAX_ENUMERATED_COMPONENTS = 8


class PermutationCapacityError(ValueError):
    """Raised when a full S_k enumeration would be factorially too large."""


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) computed with a max-shift.

    Returns -inf iff every entry is -inf.  Empty input is a usage error.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    shift = np.max(values, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(values - shift), axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def log_mean_exp(values, axis=None):
    """log of the arithmetic mean of exp(values), max-shifted."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("log_mean_exp of an empty collection")
    n = values.size if axis is None else values.shape[axis]
    return log_sum_exp(values, axis=axis) - math.log(n)


@dataclass(frozen=True)
class Permutation:
    """A permutation of component labels {0, ..., k-1}.

    ``mapping[i]`` is the source label whose parameters become label ``i``,
    so applying to a component-indexed array is a gather ``arr[mapping]``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        k = len(self.mapping)
        if sorted(self.mapping) != list(range(k)):
            raise ValueError(f"not a bijection on 0..{k - 1}: {self.mapping}")

    @property
    def k(self) -> int:
        return len(self.mapping)

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(k)))

    def is_identity(self) -> bool:
        return all(i == m for i, m in enumerate(self.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.k
        for new, old in enumerate(self.mapping):
            inv[old] = new
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if other.k != self.k:
            raise ValueError("size mismatch in permutation composition")
        return Permutation(tuple(other.mapping[m] for m in self.mapping))

    def apply_to_components(self, arr: np.ndarray) -> np.ndarray:
        """Reorder the last axis of a component-indexed array."""
        return np.asarray(arr)[..., list(self.mapping)]

    def apply_to_labels(self, labels: np.ndarray) -> np.ndarray:
        """Relabel an allocation vector consistently with the component gather."""
        inv = np.array(self.inverse().mapping)
        return inv[np.asarray(labels)]


def enumerate_permutations(k: int, max_k: int = MAX_ENUMERATED_COMPONENTS) -> list[Permutation]:
    """All k! label permutations, lexicographic, identity first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > max_k:
        raise PermutationCapacityError(
            f"enumerating S_{k} needs {math.factorial(k)} permutations "
            f"(> cap {max_k}!={math.factorial(max_k)}); raise max_k to force"
        )
    return [Permutation(p) for p in _iter_permutations(range(k))]


def permutation_matrix(k: int, max_k: int = MAX_ENUMERATED_COMPONENTS) -> np.ndarray:
    """The (k!, k) integer array of all mappings, lexicographic order."""
    return np.array([p.mapping for p in enumerate_permutations(k, max_k)], dtype=np.intp)


# ---------------------------------------------------------------------------
# Array log-density kernels.  These broadcast and are the workhorses for the
# vectorized proposal evaluations.
# ---------------------------------------------------------------------------

def normal_logpdf(x, mean, var):
    x, mean, var = np.broadcast_arrays(np.asarray(x, float), mean, var)
    return -0.5 * (LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def inverse_gamma_logpdf(x, shape, scale):
    """IG(shape a, scale s): s^a/Gamma(a) x^(-a-1) exp(-s/x); 0 outside x>0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            shape * np.log(scale)
            - gammaln(shape)
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
            - gammaln(shape)
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
    const = gammaln(alpha.sum(axis=-1)) - gammaln(alpha).sum(axis=-1)
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
