import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from mixevidence.model import Dataset, FixedPrior, HierarchicalPrior
from mixevidence.numerics import RngStream

from reference import MixtureParams

# Property tests draw the same examples on every run, with no example
# database carried between runs and no per-example deadline on a noisy host.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def small_normal_data() -> Dataset:
    rng = np.random.default_rng(1)
    return Dataset(rng.normal(0.0, 1.0, 60), name="n01")


@pytest.fixture(scope="session")
def tiny_two_group_data() -> Dataset:
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-2.0, 0.7, 4), rng.normal(3.0, 1.0, 4)])
    return Dataset(np.sort(x), name="tiny")


@pytest.fixture(scope="session")
def fixed_prior() -> FixedPrior:
    return FixedPrior(var_shape=2.0, var_scale=3.0)


@pytest.fixture(scope="session")
def hier_prior(small_normal_data) -> HierarchicalPrior:
    return HierarchicalPrior.from_data(small_normal_data)


@pytest.fixture()
def stream() -> RngStream:
    return RngStream(2024)


def random_params(k: int, rng, beta: bool = False) -> MixtureParams:
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    return MixtureParams(
        weights=gen.dirichlet(np.ones(k) * 2.0),
        means=gen.normal(0.0, 3.0, k),
        variances=gen.gamma(3.0, 1.0, k) + 0.2,
        beta=float(gen.gamma(2.0, 1.0) + 0.5) if beta else None,
    )


def assert_same_bits(got, expected):
    """Equal shapes and equal bits, except that any NaN matches any NaN."""
    got, expected = np.asarray(got, float), np.asarray(expected, float)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))


def traced_peak(call):
    """`call()` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
