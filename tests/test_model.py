import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

from mixevidence import model
from mixevidence.datasets import builtin_dataset
from mixevidence.gibbs import GibbsConfig, run_gibbs
from mixevidence.model import (
    ConditioningSet,
    Dataset,
    FixedPrior,
    HierarchicalPrior,
    ParamsBatch,
    beta_conditional,
    log_likelihood_batch,
    log_prior_batch,
    mean_conditional,
    variance_conditional,
)
from mixevidence.numerics import (
    RngStream,
    inverse_gamma_logpdf,
    log_sum_exp,
    normal_logpdf,
    permutation_matrix,
)

import reference
from conftest import assert_same_bits, random_params, traced_peak
from reference import (
    Allocation,
    MixtureParams,
    SufficientStats,
    allocation_conditional,
    allocation_log_probs,
    beta_prior,
    from_params,
    full_conditionals,
    log_block_density,
    log_likelihood,
    log_pdf,
    log_prior,
    permute_labels,
    permute_params,
    sample_block,
)


# the draws of a galaxy chain at benchmark size (k = 4, n = 82)
GALAXY_T = 10_000


class TestTypes:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureParams([0.5, 0.6], [0.0, 1.0], [1.0, 1.0])

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            MixtureParams([0.5, 0.5], [0.0, 1.0], [1.0, 0.0])

    def test_dataset_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, np.nan]))

    def test_sufficient_stats_recompute_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        z = rng.integers(0, 3, size=40)
        stats = SufficientStats.from_allocation(Dataset(x), Allocation(z), 3)
        assert stats.counts.sum() == 40
        for i in range(3):
            np.testing.assert_allclose(stats.sums[i], x[z == i].sum())
            np.testing.assert_allclose(stats.sums_sq[i], (x[z == i] ** 2).sum())
            centered = stats.centered_sq(np.full(3, 0.7))
            np.testing.assert_allclose(centered[i], ((x[z == i] - 0.7) ** 2).sum())


class TestParamsBatch:
    """A batch checks its own shapes, and indexing keeps its type."""

    @pytest.mark.parametrize("wide", ["weights", "means", "variances"])
    def test_component_arrays_must_share_one_shape(self, wide):
        arrays = {"weights": np.full((3, 2), 0.5), "means": np.zeros((3, 2)),
                  "variances": np.ones((3, 2))}
        arrays[wide] = np.ones((3, 3))
        with pytest.raises(ValueError, match=r"\(B, k\)"):
            ParamsBatch(**arrays)

    def test_three_dimensional_arrays_rejected(self):
        with pytest.raises(ValueError, match=r"\(B, k\)"):
            ParamsBatch(np.full((2, 3, 2), 0.5), np.zeros((2, 3, 2)), np.ones((2, 3, 2)))

    @pytest.mark.parametrize("betas", [[1.0], [1.0, 2.0], np.ones((3, 1))])
    def test_betas_must_have_one_entry_per_state(self, betas):
        with pytest.raises(ValueError, match="betas"):
            ParamsBatch(np.full((3, 2), 0.5), np.zeros((3, 2)), np.ones((3, 2)), betas)

    @pytest.mark.parametrize("rows", [1, np.int64(-1), slice(0, 2), np.array([2, 0])],
                             ids=["int", "np-int", "slice", "array"])
    def test_indexing_keeps_type_and_rows(self, rows):
        rng = np.random.default_rng(3)
        batch = ParamsBatch(rng.dirichlet(np.ones(2), 3), rng.normal(size=(3, 2)),
                            rng.gamma(2.0, size=(3, 2)), rng.gamma(2.0, size=3))
        out = batch[rows]
        assert type(out) is ParamsBatch
        picked = [rows] if isinstance(rows, (int, np.integer)) else rows
        for name in ("weights", "means", "variances", "betas"):
            np.testing.assert_array_equal(getattr(out, name), getattr(batch, name)[picked])
        assert len(out) == out.size == len(np.arange(3)[picked])


class TestLikelihood:
    def test_single_component_reduces_to_normal(self, small_normal_data):
        params = MixtureParams([1.0], [0.4], [1.3])
        expected = float(np.sum(normal_logpdf(small_normal_data.observations, 0.4, 1.3)))
        assert log_likelihood(small_normal_data, params) == pytest.approx(expected)

    def test_permutation_symmetry(self, small_normal_data):
        params = random_params(3, 11)
        base = log_likelihood(small_normal_data, params)
        for row in permutation_matrix(3):
            assert log_likelihood(small_normal_data, permute_params(params, row)) == pytest.approx(
                base, abs=1e-12
            )

    def test_equal_components_merge_identity(self, small_normal_data):
        two = MixtureParams([0.5, 0.5], [1.1, 1.1], [2.0, 2.0])
        one = MixtureParams([1.0], [1.1], [2.0])
        assert log_likelihood(small_normal_data, two) == pytest.approx(
            log_likelihood(small_normal_data, one), abs=1e-10
        )

    def test_batch_matches_scalar(self, small_normal_data):
        params = [random_params(2, seed) for seed in range(5)]
        batch = from_params(params)
        got = log_likelihood_batch(small_normal_data, batch)
        for b, p in enumerate(params):
            assert got[b] == pytest.approx(log_likelihood(small_normal_data, p))

    def test_batch_does_not_depend_on_blocks(self, small_normal_data, monkeypatch):
        rng = np.random.default_rng(31)
        batch = from_params([random_params(3, rng) for _ in range(7)])
        whole = log_likelihood_batch(small_normal_data, batch)
        monkeypatch.setattr(model, "KERNEL_BUDGET", 2 * 3 * small_normal_data.n)  # 2, 2, 3 states
        assert_same_bits(log_likelihood_batch(small_normal_data, batch), whole)

    def test_batch_memory_is_bounded(self):
        """10**4 galaxy states take under 3 MiB beyond their (B,) result: the
        blocks hold KERNEL_BUDGET (state, component, point) terms."""
        data, k = builtin_dataset("galaxy"), 4
        rng = np.random.default_rng(32)
        batch = ParamsBatch(rng.dirichlet(np.ones(k), GALAXY_T),
                            rng.normal(20.0, 5.0, (GALAXY_T, k)),
                            rng.gamma(3.0, 2.0, (GALAXY_T, k)) + 0.2)
        out, peak = traced_peak(lambda: log_likelihood_batch(data, batch))
        assert peak - out.nbytes < 3 * 2**20

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_subnormal_variance_takes_the_limit(self, small_normal_data, hier_prior,
                                                fixed_prior, hierarchical):
        prior = hier_prior if hierarchical else fixed_prior
        x = small_normal_data.observations
        batch = ParamsBatch([[0.5, 0.5]], [[-0.25, 0.5]], [[1e-320, 1.0]],
                            [1.5] if hierarchical else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loglik = log_likelihood_batch(small_normal_data, batch)
            logprior = log_prior_batch(batch, prior)
        # the collapsed component has density 0 at every observation off its mean,
        # and the variance prior has density 0 at a variance of 0
        assert not np.any(x == -0.25)
        np.testing.assert_allclose(loglik, np.sum(math.log(0.5) + normal_logpdf(x, 0.5, 1.0)),
                                   rtol=1e-12)
        assert np.isneginf(logprior[0])


    @pytest.mark.parametrize("weight,variance", [(0.0, 1.0), (0.5, np.inf)])
    def test_dropped_component_takes_the_limit(self, small_normal_data, weight, variance):
        """A zero weight or an infinite variance gives the component density 0 at
        every point, without a warning."""
        x = small_normal_data.observations
        batch = ParamsBatch([[weight, 1.0 - weight]], [[-0.25, 0.5]], [[variance, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loglik = log_likelihood_batch(small_normal_data, batch)
        expected = np.sum(math.log(1.0 - weight) + normal_logpdf(x, 0.5, 1.0))
        np.testing.assert_allclose(loglik, expected, rtol=1e-12)


class TestPrior:
    def test_exchangeability_exact(self, fixed_prior):
        params = random_params(3, 7)
        base = log_prior(params, fixed_prior)
        for row in permutation_matrix(3):
            assert log_prior(permute_params(params, row), fixed_prior) == pytest.approx(
                base, abs=1e-12
            )

    def test_flat_dirichlet_contribution_is_zero(self, fixed_prior):
        # k=2 Dirichlet(1,1) factor contributes log 1 = 0: the prior equals
        # the product of the mean and variance factors alone.
        params = MixtureParams([0.3, 0.7], [0.0, 1.0], [1.0, 2.0])
        manual = float(
            np.sum(normal_logpdf(params.means, 0.0, 100.0))
            + np.sum(inverse_gamma_logpdf(params.variances, 2.0, 3.0))
        )
        assert log_prior(params, fixed_prior) == pytest.approx(manual)

    def test_factors_against_quadrature(self, fixed_prior):
        # each univariate factor of the fixed prior (m0=0, s0=10, IG(2,3))
        # integrates to 1, so the joint prior of a k=1 model integrates to 1
        def joint(mu, var):
            p = MixtureParams([1.0], [mu], [var])
            return math.exp(log_prior(p, fixed_prior))

        total, _ = integrate.dblquad(
            joint, 1e-3, 400.0, -80.0, 80.0, epsabs=1e-9, epsrel=1e-7
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_hierarchical_prior_requires_beta(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        params = random_params(2, 3)
        with pytest.raises(ValueError):
            log_prior(params, prior)

    def test_hierarchical_prior_value(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        params = random_params(2, 3, beta=True)
        manual = float(
            np.sum(normal_logpdf(params.means, prior.center, prior.spread**2 / 4))
            + np.sum(inverse_gamma_logpdf(params.variances, 2.0, params.beta))
            + log_pdf(beta_prior(prior), params.beta)
        )
        assert log_prior(params, prior) == pytest.approx(manual)

    def test_hierarchical_constants_set_once(self):
        """`mean_var` and `beta_rate` are stored at construction with the bits of
        their formulas, and leave equality, hashing and repr to the four fields."""
        prior = HierarchicalPrior(center=1.5, spread=7.3, var_shape=2.5, beta_shape=0.3)
        assert prior.mean_var == 7.3**2 / 4.0 and prior.beta_rate == 10.0 / 7.3**2
        assert "mean_var" in vars(prior) and "beta_rate" in vars(prior)
        assert repr(prior) == ("HierarchicalPrior(center=1.5, spread=7.3, var_shape=2.5, "
                               "beta_shape=0.3)")
        twin = HierarchicalPrior(1.5, 7.3, 2.5, 0.3)
        assert prior == twin and hash(prior) == hash(twin)
        moved = dataclasses.replace(prior, spread=2.0)
        assert (moved.mean_var, moved.beta_rate) == (1.0, 2.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prior.mean_var = 1.0

    def test_batch_matches_scalar(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        params = [random_params(2, seed, beta=True) for seed in range(4)]
        batch = from_params(params)
        got = log_prior_batch(batch, prior)
        for b, p in enumerate(params):
            assert got[b] == pytest.approx(log_prior(p, prior))


class TestAllocationConditional:
    def test_equal_components_uniform(self, small_normal_data):
        params = MixtureParams([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        specs = allocation_conditional(small_normal_data, params)
        for spec in specs:
            np.testing.assert_allclose(spec.probabilities, [0.5, 0.5], atol=1e-12)

    def test_dominant_component(self):
        data = Dataset(np.array([0.0]))
        params = MixtureParams([0.5, 0.5], [0.0, 50.0], [0.01, 1.0])
        spec = allocation_conditional(data, params)[0]
        assert spec.probabilities[0] >= 1 - 1e-10

    def test_rows_normalized(self, small_normal_data):
        params = random_params(3, 2)
        log_probs, n_bad = allocation_log_probs(small_normal_data, params)
        assert n_bad == 0
        np.testing.assert_allclose(np.exp(log_probs).sum(axis=1), 1.0, atol=1e-12)

    def test_ratio_matches_densities(self):
        data = Dataset(np.array([1.3]))
        params = MixtureParams([0.4, 0.6], [0.0, 2.0], [1.0, 4.0])
        log_probs, _ = allocation_log_probs(data, params)
        num = math.log(0.4) + float(normal_logpdf(1.3, 0.0, 1.0))
        den = math.log(0.6) + float(normal_logpdf(1.3, 2.0, 4.0))
        assert log_probs[0, 0] - log_probs[0, 1] == pytest.approx(num - den, abs=1e-12)


class TestFullConditionals:
    def test_empty_components_recover_prior(self, small_normal_data, fixed_prior):
        k = 3
        params = random_params(k, 4)
        alloc = Allocation(np.zeros(small_normal_data.n, dtype=int))
        blocks = full_conditionals(small_normal_data, alloc, params, fixed_prior)
        # components 1 and 2 are empty: conditionals equal the prior
        for i in (1, 2):
            assert blocks.variances[i].shape == pytest.approx(fixed_prior.var_shape)
            assert blocks.means[i].mean == pytest.approx(fixed_prior.mean_loc)
            assert blocks.means[i].variance == pytest.approx(fixed_prior.mean_var)

    def test_all_empty_weights_flat(self, fixed_prior):
        data = Dataset(np.array([0.5]))
        params = random_params(3, 4)
        alloc = Allocation(np.array([0]))
        blocks = full_conditionals(data, alloc, params, fixed_prior)
        assert blocks.weights.concentration == (2.0, 1.0, 1.0)

    def test_flat_prior_limit_mean_conditional(self):
        data = Dataset(np.linspace(-1, 1, 50) + 2.0)
        prior = FixedPrior(mean_loc=0.0, mean_var=1e12, var_shape=2.0, var_scale=3.0)
        params = MixtureParams([1.0], [0.0], [1.0])
        alloc = Allocation(np.zeros(50, dtype=int))
        blocks = full_conditionals(data, alloc, params, prior)
        assert blocks.means[0].mean == pytest.approx(float(data.observations.mean()), abs=1e-9)

    def test_variance_conditional_formula(self, fixed_prior):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        data = Dataset(x)
        params = MixtureParams([0.5, 0.5], [0.3, -0.2], [1.0, 2.0])
        z = rng.integers(0, 2, 20)
        blocks = full_conditionals(data, Allocation(z), params, fixed_prior)
        for i in range(2):
            n_i = int((z == i).sum())
            assert blocks.variances[i].shape == pytest.approx(2.0 + n_i / 2.0)
            expected_scale = 3.0 + 0.5 * float(((x[z == i] - params.means[i]) ** 2).sum())
            assert blocks.variances[i].scale == pytest.approx(expected_scale)

    def test_hierarchical_beta_block(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        params = random_params(2, 8, beta=True)
        alloc = Allocation(np.zeros(small_normal_data.n, dtype=int))
        blocks = full_conditionals(small_normal_data, alloc, params, prior)
        assert blocks.beta.shape == pytest.approx(0.2 + 2.0 * 2)
        assert blocks.beta.rate == pytest.approx(
            prior.beta_rate + float(np.sum(1.0 / params.variances))
        )


class TestConditionalsOnFloats:
    """`gibbs.run_gibbs` calls the conditionals on one component's Python
    floats (counts as ints), `ConditioningSet` on arrays: each float result
    has the bits of its element of the array call, overflow and NaN included."""

    # every finite double, subnormals and values near the largest included
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    hyper = st.floats(1e-3, 1e3)
    priors = st.one_of(
        st.builds(FixedPrior, mean_loc=st.floats(-1e3, 1e3), mean_var=hyper,
                  var_shape=hyper, var_scale=hyper),
        st.builds(HierarchicalPrior, center=st.floats(-1e3, 1e3), spread=hyper,
                  var_shape=hyper),
    )
    components = st.lists(
        st.tuples(st.integers(0, 10**6), finite, finite, finite, positive),
        min_size=1, max_size=6,
    )

    @staticmethod
    def _columns(components):
        return [np.array(column, dtype=float) for column in zip(*components)]

    @given(priors, components, positive)
    def test_variance_conditional(self, prior, components, beta):
        beta = beta if prior.hierarchical else None
        counts, sums, sums_sq, means, _ = self._columns(components)
        with np.errstate(all="ignore"):
            shape, scale = variance_conditional(prior, counts, sums, sums_sq, means, beta)
        for i, (c, s, ss_, m, _) in enumerate(components):
            got = variance_conditional(prior, c, s, ss_, m, beta)
            assert_same_bits(got, (shape[i], scale[i]))

    @given(priors, components)
    def test_mean_conditional(self, prior, components):
        counts, sums, _, _, variances = self._columns(components)
        with np.errstate(all="ignore"):
            mean, var = mean_conditional(prior, counts, sums, variances)
        for i, (c, s, _, _, v) in enumerate(components):
            got = mean_conditional(prior, c, s, v)
            assert_same_bits(got, (mean[i], var[i]))

    @given(priors.filter(lambda prior: prior.hierarchical),
           st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=300))
    def test_beta_conditional(self, prior, variances):
        """The sweep's list of floats, whose reciprocals are added in `np.sum`'s
        order: left to right below eight, pairwise blocks from eight and halves
        above 128.  Variances of like size make the orders round apart."""
        with np.errstate(all="ignore"):
            expected = beta_conditional(prior, np.array(variances))
        assert_same_bits(beta_conditional(prior, variances), expected)


class TestBlockDensity:
    def test_integrates_to_one_k1(self, fixed_prior):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(0.5, 1.2, 25))
        given = (MixtureParams([1.0], [0.4], [1.5]), Allocation(np.zeros(25, dtype=int)))

        def density(mu, var):
            at = MixtureParams([1.0], [mu], [var])
            return math.exp(log_block_density(at, given, data, fixed_prior))

        total, _ = integrate.dblquad(
            density, 0.2, 8.0, -2.0, 3.0, epsabs=1e-10, epsrel=1e-8
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_equivariance_under_joint_permutation(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(9)
        k = 3
        at = random_params(k, rng)
        given_params = random_params(k, rng)
        given_alloc = Allocation(rng.integers(0, k, small_normal_data.n))
        base = log_block_density(at, (given_params, given_alloc), small_normal_data, fixed_prior)
        for row in permutation_matrix(k):
            moved = log_block_density(
                permute_params(at, row),
                (permute_params(given_params, row), permute_labels(given_alloc, row)),
                small_normal_data,
                fixed_prior,
            )
            assert moved == pytest.approx(base, abs=1e-12)

    def test_round_trip_sampling_support(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(4)
        given = (random_params(2, rng), Allocation(rng.integers(0, 2, small_normal_data.n)))
        for _ in range(25):
            draw = sample_block(given, small_normal_data, fixed_prior, rng)
            value = log_block_density(draw, given, small_normal_data, fixed_prior)
            assert np.isfinite(value) and value > -200.0

    def test_hierarchical_round_trip(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        rng = np.random.default_rng(6)
        given = (
            random_params(2, rng, beta=True),
            Allocation(rng.integers(0, 2, small_normal_data.n)),
        )
        draw = sample_block(given, small_normal_data, prior, rng)
        assert draw.beta is not None and draw.beta > 0
        assert np.isfinite(log_block_density(draw, given, small_normal_data, prior))


# rows of permutation_matrix(3) the kernel tests evaluate: the identity alone
# (3 component pairs), two rows (6 pairs) and all of S_3 (9 pairs)
ROW_SETS = {"identity": [0], "pair": [0, 3], "all": list(range(6))}

EPS = np.finfo(float).eps

# (k, rows of permutation_matrix(k)) for the scalar reference check: the sets
# above at k=3, and the identity and all 24 rows at k=4
SCALAR_ROW_SETS = {**{name: (3, rows) for name, rows in ROW_SETS.items()},
                   "k4_identity": (4, [0]), "k4_all": (4, list(range(24)))}


def chunk_budgets(cond, rows):
    """KERNEL_BUDGET values whose point chunks hold 2 and 3 points with all
    their rows at once, and 2 points (fewer is rounded up to 2) with at most
    two rows at once; the kernel sizes chunks as if J were at least 8."""
    pairs = {(i, int(c)) for row in rows for i, c in enumerate(row)}
    span = max(cond.J, 8)
    return [m * span * max(len(pairs), len(rows)) for m in (2, 3)] + [4 * span]


# The degenerate states of `degenerate_case`, one point each, in batch order
DEGENERATE_STATES = ["zero_weight", "tiny_weight", "min_subnormal_variance_at_mean",
                     "subnormal_variance", "infinite_variance", "nan_mean", "nan_weight"]

# log_pooled_density (rows 0 and 3 of S_3) and log_density_terms (those rows by
# the two draws) of the finite degenerate states, as the kernel that formed the
# precision and conditional mean per pair computed them (commit 29dccea); the
# other five states gave -inf everywhere, with no warning
DEGENERATE_FINITE = {
    False: {
        "zero_weight": ([-286.51162782395363, -1.4e+301],
                        [[-2.4e+301, -285.8184806433937], [-1.4e+301, -2.6000000000000003e+301]]),
        "tiny_weight": ([-286.51162782395363, -10075.676040071537],
                        [[-16782.299386341172, -285.8184806433937],
                         [-10074.982892890977, -18232.495020518167]]),
    },
    True: {
        "zero_weight": ([-285.01003094113497, -1.4e+301],
                        [[-2.4e+301, -284.316883760575], [-1.4e+301, -2.6000000000000003e+301]]),
        "tiny_weight": ([-285.01003094113497, -10072.64941498839],
                        [[-16779.27245768908, -284.316883760575],
                         [-10071.95626780783, -18230.99577370895]]),
    },
}


def degenerate_case(data, prior):
    """Two draws, the second leaving component 0 empty, and a batch of the
    `DEGENERATE_STATES` at k=3; the third state's mean 0 sits on draw 0's
    conditional mean s/n, which its subnormal variance makes exact."""
    k = 3
    rng = np.random.default_rng(27)
    allocs = rng.integers(0, k, (2, data.n))
    allocs[1] = rng.integers(1, k, data.n)
    cond = ConditioningSet.from_draws(data, prior, rng.normal(0.0, 3.0, (2, k)), allocs,
                                      [1.0, 2.0] if prior.hierarchical else None)
    at_mean = cond.sums[0, 0] / cond.counts[0, 0]
    base_w, base_mu, base_v = [0.2, 0.3, 0.5], [-1.0, 0.0, 1.0], [1.0, 1.0, 2.0]
    states = {
        "zero_weight": ([0.0, 0.5, 0.5], base_mu, base_v),
        "tiny_weight": ([1e-300, 0.5, 0.5], base_mu, base_v),
        "min_subnormal_variance_at_mean": (base_w, [at_mean, 0.0, 1.0], [5e-324, 1.0, 2.0]),
        "subnormal_variance": (base_w, base_mu, [1e-310, 1.0, 2.0]),
        "infinite_variance": (base_w, base_mu, [np.inf, 1.0, 2.0]),
        "nan_mean": (base_w, [np.nan, 0.0, 1.0], base_v),
        "nan_weight": ([np.nan, 0.3, 0.5], base_mu, base_v),
    }
    w, mu, v = (np.array([states[name][f] for name in DEGENERATE_STATES]) for f in range(3))
    betas = np.full(len(DEGENERATE_STATES), 1.5) if prior.hierarchical else None
    return cond, ParamsBatch(w, mu, v, betas)


def conditioning_set(data, prior, rng, k, J):
    """A set of J random draws; under the hierarchical prior they carry betas."""
    return ConditioningSet.from_draws(
        data, prior, rng.normal(0.0, 3.0, (J, k)), rng.integers(0, k, (J, data.n)),
        rng.gamma(2.0, 1.0, J) + 0.5 if prior.hierarchical else None,
    )


class TestConditioningSetEngine:
    """The vectorized engine must agree with the scalar reference exactly."""

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", sorted(SCALAR_ROW_SETS))
    def test_pooled_density_matches_scalar(self, small_normal_data, rows, hierarchical,
                                           monkeypatch):
        """Random points plus three that strain the closed-form mean factor: a
        variance of 1e-6, one of 1e6, and a mean on a draw's conditional mean."""
        rng = np.random.default_rng(12)
        k, row_indices = SCALAR_ROW_SETS[rows]
        J, B = 4, 5  # B=5 is not a multiple of the 2- or 3-point chunks
        if hierarchical:
            prior = HierarchicalPrior.from_data(small_normal_data)
        else:
            prior = FixedPrior(var_shape=2.0, var_scale=3.0)
        pairs = [
            (
                random_params(k, rng, beta=hierarchical),
                Allocation(rng.integers(0, k, small_normal_data.n)),
            )
            for _ in range(J)
        ]
        cond = ConditioningSet.from_draws(
            small_normal_data, prior, np.stack([p.means for p, _ in pairs]),
            np.stack([a.labels for _, a in pairs]),
            [p.beta for p, _ in pairs] if hierarchical else None,
        )
        points = [random_params(k, rng, beta=hierarchical) for _ in range(B)]
        small, large, on_mean = (random_params(k, rng, beta=hierarchical) for _ in range(3))
        small_v, large_v, on_mean_v = (np.array(p.variances) for p in (small, large, on_mean))
        small_v[0], large_v[-1] = 1e-6, 1e6
        # component 1 of draw 2 under the identity: mean = (p0 mu0 v + s) / (p0 v + n)
        mean, _ = mean_conditional(prior, cond.counts[2, 1], cond.sums[2, 1], on_mean_v[1])
        on_mean_mu = np.array(on_mean.means)
        on_mean_mu[1] = mean
        points += [MixtureParams(small.weights, small.means, small_v, small.beta),
                   MixtureParams(large.weights, large.means, large_v, large.beta),
                   MixtureParams(on_mean.weights, on_mean_mu, on_mean_v, on_mean.beta)]
        batch = from_params(points)
        perms = permutation_matrix(k)[row_indices]
        expected = np.empty((len(points), len(perms)))
        for b, theta in enumerate(points):
            for p, row in enumerate(perms):
                per_j = [
                    log_block_density(
                        theta,
                        (permute_params(pair[0], row), permute_labels(pair[1], row)),
                        small_normal_data,
                        prior,
                    )
                    for pair in pairs
                ]
                shift = max(per_j)
                expected[b, p] = shift + math.log(
                    sum(math.exp(v - shift) for v in per_j) / J
                )
        # the 1e-6 point's log densities are about -1e7, where 1e-9 is below one
        # ulp: it is held to a few ulps instead
        tiny = np.arange(len(points)) == B
        for budget in chunk_budgets(cond, perms):
            monkeypatch.setattr(model, "KERNEL_BUDGET", budget)
            got = cond.log_pooled_density(batch, perms)
            np.testing.assert_allclose(got[~tiny], expected[~tiny], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(got[tiny], expected[tiny], rtol=4 * EPS, atol=1e-9)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_point_density_does_not_depend_on_chunking(self, small_normal_data, hier_prior,
                                                       fixed_prior, hierarchical, monkeypatch):
        """Every chunk holds at least two points, so no product goes to BLAS's
        matrix-vector path and a point's log density has the same bits in any
        batch of two or more points, however the batch is chunked."""
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(22)
        k, J, N = 3, 7, 9
        cond = conditioning_set(small_normal_data, prior, rng, k, J)
        batch = ParamsBatch(rng.dirichlet(np.ones(k), N), rng.normal(0.0, 3.0, (N, k)),
                            rng.gamma(3.0, 1.0, (N, k)) + 0.2,
                            rng.gamma(2.0, 1.0, N) + 0.5 if hierarchical else None)
        perms = permutation_matrix(k)[ROW_SETS["pair"]]
        expected = cond.log_pooled_density(batch, perms)  # one chunk of all N points
        for points in (1, 2, 3, 4):
            monkeypatch.setattr(model, "KERNEL_BUDGET", points * J * 6)  # 6 pairs
            for B in range(2, N + 1):
                for lo in (0, N - B):
                    part = ParamsBatch(batch.weights[lo:lo + B], batch.means[lo:lo + B],
                                       batch.variances[lo:lo + B],
                                       None if batch.betas is None else batch.betas[lo:lo + B])
                    np.testing.assert_array_equal(cond.log_pooled_density(part, perms),
                                                  expected[lo:lo + B],
                                                  err_msg=f"{points}-point chunks, B={B}")

    def test_terms_match_scalar(self, small_normal_data, fixed_prior, monkeypatch):
        rng = np.random.default_rng(13)
        k, J, B = 2, 3, 5  # B=5 is not a multiple of the 2- or 3-point chunks
        pairs = [
            (random_params(k, rng), Allocation(rng.integers(0, k, small_normal_data.n)))
            for _ in range(J)
        ]
        cond = ConditioningSet.from_draws(small_normal_data, fixed_prior,
                                          np.stack([p.means for p, _ in pairs]),
                                          np.stack([a.labels for _, a in pairs]))
        points = [random_params(k, rng) for _ in range(B)]
        batch = from_params(points)
        identity = np.array([[0, 1]])
        for budget in chunk_budgets(cond, identity):
            monkeypatch.setattr(model, "KERNEL_BUDGET", budget)
            terms = cond.log_density_terms(batch, identity)
            for b, theta in enumerate(points):
                for j, pair in enumerate(pairs):
                    expected = log_block_density(theta, pair, small_normal_data, fixed_prior)
                    assert terms[b, 0, j] == pytest.approx(expected, abs=1e-10)

    def test_from_draws_matches_per_draw_bincount(self, small_normal_data, fixed_prior,
                                                  monkeypatch):
        rng = np.random.default_rng(17)
        k, J = 3, 8
        x = small_normal_data.observations
        means = rng.normal(0.0, 3.0, (J, k))
        allocs = rng.integers(0, k, (J, small_normal_data.n))
        allocs[2] = 1  # a draw with two empty components
        # J=8 spans three blocks of 3, 3 and 2 draws
        monkeypatch.setattr(model, "KERNEL_BUDGET", 3 * small_normal_data.n)
        cond = ConditioningSet.from_draws(small_normal_data, fixed_prior, means, allocs)
        counts = np.array([np.bincount(z, minlength=k) for z in allocs], dtype=float)
        sums = np.array([np.bincount(z, weights=x, minlength=k) for z in allocs])
        sums_sq = np.array([np.bincount(z, weights=x * x, minlength=k) for z in allocs])
        _, scale = variance_conditional(fixed_prior, counts, sums, sums_sq, means)
        np.testing.assert_array_equal(cond.counts, counts)
        np.testing.assert_array_equal(cond.sums, sums)
        np.testing.assert_array_equal(cond.ig_scale, scale)

    def test_from_draws_takes_labels_of_any_integer_dtype(self, small_normal_data,
                                                           fixed_prior):
        rng = np.random.default_rng(33)
        k, J = 3, 5
        means = rng.normal(0.0, 3.0, (J, k))
        allocs = rng.integers(0, k, (J, small_normal_data.n))
        expected = ConditioningSet.from_draws(small_normal_data, fixed_prior, means,
                                              allocs.astype(np.intp))
        for dtype in (np.int8, np.int16, np.int64):
            cond = ConditioningSet.from_draws(small_normal_data, fixed_prior, means,
                                              allocs.astype(dtype))
            for name in ("counts", "sums", "ig_shape", "ig_scale", "ig_const"):
                assert_same_bits(getattr(cond, name), getattr(expected, name))

    def test_from_draws_constants_match_scipy(self):
        """`ig_const`, log Gamma from `math.lgamma`, is within 1e-13 relative of
        its recomputation with scipy's gammaln on a galaxy chain."""
        data, k = builtin_dataset("galaxy"), 4
        prior = HierarchicalPrior.from_data(data)
        chain = run_gibbs(data, prior, k, GibbsConfig(iterations=600, burn_in=100), rng=11)
        cond = ConditioningSet.from_draws(data, prior, chain.means, chain.allocations,
                                          chain.betas)
        counts = cond.counts
        expected = (gammaln(k + counts.sum(axis=1)) - gammaln(1.0 + counts).sum(axis=1)
                    + np.sum(cond.ig_shape * np.log(cond.ig_scale) - gammaln(cond.ig_shape),
                             axis=1))
        np.testing.assert_allclose(cond.ig_const, expected, rtol=1e-13, atol=0)

    def test_from_draws_memory_is_bounded(self, hier_prior):
        """A galaxy-sized chain's statistics take under 3 MiB beyond the set
        they return: its int16 labels are cast to intp a block at a time."""
        data, k = builtin_dataset("galaxy"), 4
        rng = np.random.default_rng(34)
        means = rng.normal(20.0, 5.0, (GALAXY_T, k))
        allocs = rng.integers(0, k, (GALAXY_T, data.n)).astype(np.int16)
        betas = rng.gamma(2.0, 1.0, GALAXY_T) + 0.5
        cond, peak = traced_peak(lambda: ConditioningSet.from_draws(data, hier_prior, means,
                                                                     allocs, betas))
        kept = sum(getattr(cond, name).nbytes
                   for name in ("counts", "sums", "ig_shape", "ig_scale", "ig_const"))
        assert peak - kept < 3 * 2**20

    def test_from_draws_rejects_out_of_range_labels(self, small_normal_data, fixed_prior):
        allocs = np.zeros((2, small_normal_data.n), dtype=int)
        allocs[0, 5] = 2  # a label of a third component in a k=2 set
        with pytest.raises(ValueError, match="labels"):
            ConditioningSet.from_draws(small_normal_data, fixed_prior,
                                       np.zeros((2, 2)), allocs)

    def test_from_draws_rejects_allocations_of_other_draws(self, small_normal_data,
                                                           fixed_prior):
        """Allocations are one row of n labels per draw, not a longer or shorter list."""
        n = small_normal_data.n
        for allocs in (np.zeros((5, n), int), np.zeros((3, n - 1), int), np.zeros(n, int)):
            with pytest.raises(ValueError, match="allocs"):
                ConditioningSet.from_draws(small_normal_data, fixed_prior,
                                           np.zeros((3, 2)), allocs)

    def test_from_draws_rejects_betas_of_other_draws(self, small_normal_data, hier_prior):
        n = small_normal_data.n
        for betas in ([2.0], np.ones(4), np.ones((5, 1))):
            with pytest.raises(ValueError, match="betas"):
                ConditioningSet.from_draws(small_normal_data, hier_prior, np.zeros((5, 2)),
                                           np.zeros((5, n), int), betas)

    def test_evaluation_counter(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(14)
        k, J, B = 2, 5, 7
        cond = ConditioningSet.from_draws(small_normal_data, fixed_prior,
                                          rng.normal(0.0, 3.0, (J, k)),
                                          rng.integers(0, k, (J, small_normal_data.n)))
        batch = from_params([random_params(k, rng) for _ in range(B)])
        cond.log_pooled_density(batch, np.array([[0, 1], [1, 0]]))
        assert cond.evaluations == B * 2 * J

    def test_rejects_malformed_permutations(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(21)
        cond = conditioning_set(small_normal_data, fixed_prior, rng, 2, 3)
        batch = from_params([random_params(2, rng)])
        # [0, 2] would read component pair (1, 0) in place of (0, 2)
        for perms in ([[0, 2]], [[-1, 0]], [[0, 1, 2]]):
            with pytest.raises(ValueError, match="perms"):
                cond.log_pooled_density(batch, np.array(perms))
        assert cond.evaluations == 0

    @pytest.mark.parametrize("k, J, P, B, method", [
        pytest.param(4, 4000, 1, 2000, "log_pooled_density", id="4000-1"),
        pytest.param(4, 100, 24, 2000, "log_pooled_density", id="100-24"),
        pytest.param(5, 100, 120, 2000, "log_pooled_density", id="5-100-120"),
        pytest.param(4, 10_000, 1, 24, "log_density_terms", id="chib-10000-24")])
    def test_pooled_density_memory_is_bounded(self, small_normal_data, fixed_prior, k, J, P, B,
                                              method):
        # a bridge-shaped call (P=1, J=4000), a symmetrized one (all of S_4), one
        # with more rows than pairs (120 rows of S_5) and a Chib-shaped one (the
        # 24 relabellings of a state against 10**4 draws, un-pooled); the
        # temporaries are bounded by KERNEL_BUDGET per thread and the right
        # operands by P x J, not by B x J x k or B x P x J
        rng = np.random.default_rng(16)
        cond = conditioning_set(small_normal_data, fixed_prior, rng, k, J)
        if method == "log_density_terms":
            rows = permutation_matrix(k)[:B]
            batch = ParamsBatch(rng.dirichlet(np.ones(k))[rows], rng.normal(0.0, 3.0, k)[rows],
                                (rng.gamma(3.0, 1.0, k) + 0.2)[rows])
        else:
            batch = ParamsBatch(rng.dirichlet(np.ones(k), B), rng.normal(0.0, 3.0, (B, k)),
                                rng.gamma(3.0, 1.0, (B, k)) + 0.2)
        _, peak = traced_peak(lambda: getattr(cond, method)(batch, permutation_matrix(k)[:P]))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", ["identity", "all"])
    def test_zero_weight_on_empty_component_is_finite(self, small_normal_data, hier_prior,
                                                      fixed_prior, rows, hierarchical):
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(18)
        k = 3
        cond = ConditioningSet.from_draws(  # both draws leave component 0 empty
            small_normal_data, prior, rng.normal(0.0, 3.0, (2, k)),
            rng.integers(1, k, (2, small_normal_data.n)),
            None if not hierarchical else [1.0, 2.0],
        )
        perms = permutation_matrix(k)[ROW_SETS[rows]]
        means, variances = rng.normal(0.0, 3.0, (1, k)), rng.gamma(3.0, 1.0, (1, k))
        betas = np.array([1.5]) if hierarchical else None
        zero = ParamsBatch([[0.0, 0.5, 0.5]], means, variances, betas)
        tiny = ParamsBatch([[1e-300, 0.5, 0.5]], means, variances, betas)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cond.log_pooled_density(zero, perms)
            near = cond.log_pooled_density(tiny, perms)
        assert np.all(np.isfinite(got))
        # where label 0 meets the empty component, log w_0 is multiplied by a zero count
        keeps_zero = perms[:, 0] == 0
        np.testing.assert_array_equal(got[:, keeps_zero], near[:, keeps_zero])

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", ["identity", "all"])
    def test_overflowing_precision_at_matching_mean_is_neg_inf(
            self, small_normal_data, hier_prior, fixed_prior, rows, hierarchical):
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(19)
        k = 3
        cond = conditioning_set(small_normal_data, prior, rng, k, 1)
        # 1/v overflows, so the precision is inf, and the mean sits exactly on
        # the conditional mean s/n, so prec * (mu - mean)^2 is inf * 0
        means = (cond.sums / cond.counts)[0][None, :]
        variances = np.array([[5e-324, 1.0, 2.0]])
        batch = ParamsBatch([[0.2, 0.3, 0.5]], means, variances,
                            np.array([1.5]) if hierarchical else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cond.log_pooled_density(batch, permutation_matrix(k)[ROW_SETS[rows]])
            terms = cond.log_density_terms(batch, permutation_matrix(k)[ROW_SETS[rows]])
        assert np.all(np.isneginf(got))
        assert np.all(np.isneginf(terms))

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", ["identity", "all"])
    def test_subnormal_variance_raises_no_warning(self, small_normal_data, hier_prior,
                                                  fixed_prior, rows, hierarchical):
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(20)
        k = 3
        cond = conditioning_set(small_normal_data, prior, rng, k, 3)
        normal = ParamsBatch([[0.2, 0.3, 0.5]], [[-1.0, 0.0, 1.0]], [[1.0, 1.0, 2.0]],
                             np.array([1.5]) if hierarchical else None)
        subnormal = ParamsBatch([[0.2, 0.3, 0.5]], [[-1.0, 0.0, 1.0]], [[1e-310, 1.0, 2.0]],
                                np.array([1.5]) if hierarchical else None)
        perms = permutation_matrix(k)[ROW_SETS[rows]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.all(np.isfinite(cond.log_pooled_density(normal, perms)))
            # a variance collapsed to zero has no conditional density
            assert np.all(np.isneginf(cond.log_pooled_density(subnormal, perms)))

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", sorted(ROW_SETS))
    def test_results_do_not_depend_on_thread_count(self, small_normal_data, hier_prior,
                                                   fixed_prior, rows, hierarchical, monkeypatch):
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(24)
        k, J, B = 3, 5, 11  # 2- and 3-point chunks leave a 3-point tail
        cond = conditioning_set(small_normal_data, prior, rng, k, J)
        batch = ParamsBatch(rng.dirichlet(np.ones(k), B), rng.normal(0.0, 3.0, (B, k)),
                            rng.gamma(3.0, 1.0, (B, k)) + 0.2,
                            rng.gamma(2.0, 1.0, B) + 0.5 if hierarchical else None)
        perms = permutation_matrix(k)[ROW_SETS[rows]]
        for budget in chunk_budgets(cond, perms):
            monkeypatch.setattr(model, "KERNEL_BUDGET", budget)
            monkeypatch.setattr(model, "KERNEL_THREADS", 1)
            pooled = cond.log_pooled_density(batch, perms)
            terms = cond.log_density_terms(batch, perms)
            for threads in (1, 2, 3):
                monkeypatch.setattr(model, "KERNEL_THREADS", threads)
                np.testing.assert_array_equal(cond.log_pooled_density(batch, perms), pooled,
                                              err_msg=f"{threads} threads, budget {budget}")
                np.testing.assert_array_equal(cond.log_density_terms(batch, perms), terms,
                                              err_msg=f"{threads} threads, budget {budget}")

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_degenerate_states_in_threads(self, small_normal_data, hier_prior, fixed_prior,
                                          hierarchical, monkeypatch):
        """The three degenerate states above, each repeated over a batch whose
        2-point chunks three threads share: every thread takes the same limit
        without a warning (numpy's error state is per thread)."""
        prior = hier_prior if hierarchical else fixed_prior
        rng = np.random.default_rng(25)
        k, copies = 3, 12
        perms = permutation_matrix(k)

        def repeated(weights, means, variances):
            return ParamsBatch(np.tile(weights, (copies, 1)), np.tile(means, (copies, 1)),
                               np.tile(variances, (copies, 1)),
                               np.full(copies, 1.5) if hierarchical else None)

        empty = ConditioningSet.from_draws(  # both draws leave component 0 empty
            small_normal_data, prior, rng.normal(0.0, 3.0, (2, k)),
            rng.integers(1, k, (2, small_normal_data.n)),
            None if not hierarchical else [1.0, 2.0],
        )
        exact = conditioning_set(small_normal_data, prior, rng, k, 1)
        other = conditioning_set(small_normal_data, prior, rng, k, 3)
        cases = {
            "zero_weight": (empty, repeated([0.0, 0.5, 0.5], rng.normal(0.0, 3.0, k),
                                            rng.gamma(3.0, 1.0, k))),
            "overflowing_precision": (exact, repeated([0.2, 0.3, 0.5], exact.sums[0] / exact.counts[0],
                                                      [5e-324, 1.0, 2.0])),
            "subnormal_variance": (other, repeated([0.2, 0.3, 0.5], [-1.0, 0.0, 1.0],
                                                   [1e-310, 1.0, 2.0])),
        }
        monkeypatch.setattr(model, "KERNEL_THREADS", 3)
        got = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for name, (cond, batch) in cases.items():
                monkeypatch.setattr(model, "KERNEL_BUDGET", 2 * cond.J * k * k)
                got[name] = (cond.log_pooled_density(batch, perms),
                             cond.log_density_terms(batch, perms))
        for name, (pooled, terms) in got.items():
            # every copy has the bits of the first
            np.testing.assert_array_equal(pooled, np.broadcast_to(pooled[:1], pooled.shape))
            np.testing.assert_array_equal(terms, np.broadcast_to(terms[:1], terms.shape))
        assert np.all(np.isfinite(got["zero_weight"][0]))
        assert np.all(np.isneginf(got["overflowing_precision"][0]))
        assert np.all(np.isneginf(got["overflowing_precision"][1]))
        assert np.all(np.isneginf(got["subnormal_variance"][0]))

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_degenerate_inputs_keep_recorded_values(self, small_normal_data, hier_prior,
                                                    fixed_prior, hierarchical, monkeypatch):
        """Each degenerate state keeps the value the kernel gave it before the
        closed-form mean factor (`DEGENERATE_FINITE`), whole or in 2-point
        chunks on one or three threads, without a warning."""
        prior = hier_prior if hierarchical else fixed_prior
        cond, batch = degenerate_case(small_normal_data, prior)
        perms = permutation_matrix(3)[ROW_SETS["pair"]]
        pooled = np.full((batch.size, 2), -np.inf)
        terms = np.full((batch.size, 2, cond.J), -np.inf)
        for name, (row_values, term_values) in DEGENERATE_FINITE[hierarchical].items():
            pooled[DEGENERATE_STATES.index(name)] = row_values
            terms[DEGENERATE_STATES.index(name)] = term_values
        for budget in (model.KERNEL_BUDGET, 2 * 8 * 6):  # one chunk, 2-point chunks
            for threads in (1, 3):
                monkeypatch.setattr(model, "KERNEL_BUDGET", budget)
                monkeypatch.setattr(model, "KERNEL_THREADS", threads)
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got = (cond.log_pooled_density(batch, perms),
                           cond.log_density_terms(batch, perms))
                for values, expected in zip(got, (pooled, terms)):
                    finite = np.isfinite(expected)
                    np.testing.assert_array_equal(values[~finite], expected[~finite])
                    np.testing.assert_allclose(values[finite], expected[finite],
                                               rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("method", ["log_pooled_density", "log_density_terms"])
    def test_nan_guard_runs_only_where_a_block_holds_nan(self, small_normal_data, fixed_prior,
                                                         method, monkeypatch):
        """A NaN mean reaches the NaN guard, whose -inf is the state's value
        (NaN without it); a finite state does not reach it."""
        cond, batch = degenerate_case(small_normal_data, fixed_prior)
        perms = permutation_matrix(3)[ROW_SETS["pair"]]
        nan_mean = batch[[DEGENERATE_STATES.index("nan_mean")] * 2]
        finite = batch[[DEGENERATE_STATES.index("tiny_weight")] * 2]
        evaluate = getattr(cond, method)
        guard = model._nan_to_neg_inf
        calls = []

        def spy(values):
            calls.append(values.shape)
            guard(values)

        monkeypatch.setattr(model, "_nan_to_neg_inf", spy)
        assert np.all(np.isfinite(evaluate(finite, perms)))
        assert calls == []
        assert np.all(np.isneginf(evaluate(nan_mean, perms)))
        assert calls
        monkeypatch.setattr(model, "_nan_to_neg_inf", lambda values: None)
        assert np.all(np.isnan(evaluate(nan_mean, perms)))

    @pytest.mark.parametrize("hierarchical", [False, True])
    @pytest.mark.parametrize("rows", ["identity", "all"])
    def test_zero_variance_is_neg_inf(self, small_normal_data, hier_prior, fixed_prior, rows,
                                      hierarchical):
        """A variance of exactly 0 takes the limit of a vanishing one, -inf,
        without a warning, and leaves the other point of its batch finite."""
        prior = hier_prior if hierarchical else fixed_prior
        cond = conditioning_set(small_normal_data, prior, np.random.default_rng(28), 3, 3)
        batch = ParamsBatch([[0.2, 0.3, 0.5]] * 2, [[-1.0, 0.0, 1.0]] * 2,
                            [[1.0, 0.0, 2.0], [1.0, 1.0, 2.0]],
                            np.array([1.5, 1.5]) if hierarchical else None)
        perms = permutation_matrix(3)[ROW_SETS[rows]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pooled = cond.log_pooled_density(batch, perms)
            terms = cond.log_density_terms(batch, perms)
        assert np.all(np.isneginf(pooled[0])) and np.all(np.isneginf(terms[0]))
        assert np.all(np.isfinite(pooled[1])) and np.all(np.isfinite(terms[1]))

    def test_worker_exception_reaches_caller(self, small_normal_data, fixed_prior,
                                             monkeypatch):
        rng = np.random.default_rng(26)
        k, J, B = 3, 4, 20
        cond = conditioning_set(small_normal_data, fixed_prior, rng, k, J)
        batch = ParamsBatch(rng.dirichlet(np.ones(k), B), rng.normal(0.0, 3.0, (B, k)),
                            rng.gamma(3.0, 1.0, (B, k)) + 0.2)
        raised = threading.Event()
        log_sum_exp_into = model.log_sum_exp_into

        def reduce_fails_in_workers(values, axis=None):
            # the calling thread holds its chunk until a worker has failed, so
            # the workers surely take chunks
            if threading.current_thread() is threading.main_thread():
                raised.wait(timeout=30)
                return log_sum_exp_into(values, axis)
            raised.set()
            raise FloatingPointError("failed in a worker")

        monkeypatch.setattr(model, "log_sum_exp_into", reduce_fails_in_workers)
        monkeypatch.setattr(model, "KERNEL_BUDGET", 2 * J * k)  # 2-point chunks
        monkeypatch.setattr(model, "KERNEL_THREADS", 2)
        with pytest.raises(FloatingPointError, match="failed in a worker"):
            cond.log_pooled_density(batch, permutation_matrix(k)[:1])
        assert raised.is_set()

    @pytest.mark.parametrize("workload", ["d2", "galaxy"])
    def test_exp_floor_keeps_kernel_bits(self, workload, monkeypatch):
        """On a short chain's draws, whose far-apart pairs put shifted log
        densities below the floor, the pooled density has the bits of the
        kernel run with the unfloored reference reduce, at P=1 and P=k!."""
        if workload == "galaxy":
            data, k = builtin_dataset("galaxy"), 4
            prior = HierarchicalPrior.from_data(data)
        else:
            data, k = builtin_dataset("d2", rng=3), 3
            prior = FixedPrior(var_shape=2.0, var_scale=15.0)
        chain = run_gibbs(data, prior, k, GibbsConfig(iterations=900, burn_in=100), rng=7)
        draws = chain[::8]
        cond = ConditioningSet.from_draws(data, prior, draws.means, draws.allocations,
                                          draws.betas)
        batch = chain[3::8]
        for perms in (permutation_matrix(k)[:1], permutation_matrix(k)):
            terms = cond.log_density_terms(batch, perms)
            shifted = terms - terms.max(axis=-1, keepdims=True)
            assert np.any((shifted > -745.0) & (shifted < -700.0))
            assert np.any(shifted < -745.0)
            floored = cond.log_pooled_density(batch, perms)
            with monkeypatch.context() as patch:
                patch.setattr(model, "log_sum_exp_into", reference.log_sum_exp_into)
                expected = cond.log_pooled_density(batch, perms)
            assert_same_bits(floored, expected)

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_sample_follows_draw_indices(self, hierarchical):
        """Each draw of S_3 gives three groups of distinct sizes and far-apart
        centers to its own components, so a particle's weights and means
        show which draw it was drawn from."""
        rng = np.random.default_rng(16)
        centers, sizes = np.array([-100.0, 0.0, 100.0]), np.array([20, 60, 180])
        groups = np.repeat(np.arange(3), sizes)
        data = Dataset(centers[groups] + rng.normal(0.0, 1.0, groups.size))
        prior = (HierarchicalPrior.from_data(data) if hierarchical
                 else FixedPrior(var_shape=2.0, var_scale=3.0))
        perms = permutation_matrix(3)  # draw j gives group g to component perms[j, g]
        stored_means = np.empty((6, 3))
        np.put_along_axis(stored_means, perms, centers, axis=1)
        cond = ConditioningSet.from_draws(data, prior, stored_means, perms[:, groups],
                                          np.ones(6) if hierarchical else None)
        js = rng.integers(0, 6, 600)
        batch = cond.sample(js, RngStream(3))
        by_group = perms[js]  # (B, 3): the component each group went to
        np.testing.assert_array_less(
            np.abs(np.take_along_axis(batch.means, by_group, axis=1) - centers), 5.0)
        assert np.all(np.diff(np.take_along_axis(batch.weights, by_group, axis=1), axis=1) > 0)
        assert (batch.betas is not None) == hierarchical

    @pytest.mark.parametrize("bad", [-1, -3, 3, 7])
    def test_sample_rejects_indices_outside_the_draws(self, small_normal_data, fixed_prior,
                                                      bad):
        cond = conditioning_set(small_normal_data, fixed_prior, np.random.default_rng(15), 2, 3)
        with pytest.raises(ValueError, match=r"0\.\.2"):
            cond.sample(np.array([0, bad, 2]), RngStream(3))
        assert cond.sample(np.array([0, 2, 1]), RngStream(3)).size == 3


    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_sample_on_one_draw_is_grouped_reference(self, small_normal_data, hier_prior,
                                                     fixed_prior, hierarchical):
        """With a single distinct draw both samplers make the same generator
        calls in the same order, so the batches agree bit for bit; at k >= 8
        that needs the weights' sums taken left to right, as `dirichlet` does."""
        prior = hier_prior if hierarchical else fixed_prior
        for k in (3, 4, 8, 9):
            cond = conditioning_set(small_normal_data, prior, np.random.default_rng(20), k, 4)
            for js in (np.zeros(50, dtype=int), np.full(7, 2)):
                new = cond.sample(js, RngStream(21))
                old = reference.sample_grouped(cond, js, RngStream(21))
                for field in ("weights", "means", "variances", "betas"):
                    assert_same_bits(getattr(new, field), getattr(old, field))


def screen_case(data, prior, k, J, seed):
    """A set of J draws shaped like a label-switching posterior sample: the
    sorted points split into k groups, up to a fifth of the labels redrawn
    and each draw's labels permuted at random, with its means near the group
    means; and a batch of points drawn from the set's own block conditionals,
    some moved far from every draw, some with a zero weight, a subnormal or
    an infinite variance."""
    rng = np.random.default_rng(seed)
    x = data.observations
    n = x.size
    base = np.minimum(k * np.argsort(np.argsort(x)) // n, k - 1)
    allocs = np.tile(base, (J, 1))
    redrawn = rng.random((J, n)) < rng.uniform(0.0, 0.2, (J, 1))
    allocs[redrawn] = rng.integers(0, k, np.count_nonzero(redrawn))
    means = np.array([[x[base == i].mean() for i in range(k)]]) + rng.normal(0.0, 0.5, (J, k))
    relabel = np.argsort(rng.random((J, k)), axis=1)
    allocs = np.take_along_axis(relabel, allocs, axis=1)
    means = np.take_along_axis(means, np.argsort(relabel, axis=1), axis=1)
    betas = rng.gamma(2.0, 1.0, J) + 0.5 if prior.hierarchical else None
    cond = ConditioningSet.from_draws(data, prior, means, allocs, betas)
    batch = cond.sample(rng.integers(0, J, 24), rng)
    batch.means[:3] += 40.0                     # far from every draw
    batch.weights[3, 0] = 0.0
    batch.variances[4, -1] = 1e-310
    batch.variances[5, 0] = np.inf
    return cond, batch


class TestScreen:
    """Single-row calls of `log_pooled_density` screen their points
    (`ConditioningSet._screen`): the result is the dense one within rounding,
    a point's bits depend on the point alone, and the gain shows on the
    posteriors it is for."""

    @given(hierarchical=st.booleans(), k=st.integers(1, 4),
           J=st.sampled_from([113, 250, 1001, 2400, 4000]), seed=st.integers(0, 2**16))
    def test_screen_matches_dense_and_keeps_its_bits(self, galaxy, hierarchical, k, J, seed):
        data = galaxy
        prior = (HierarchicalPrior.from_data(data) if hierarchical
                 else FixedPrior(var_shape=2.0, var_scale=3.0))
        cond, batch = screen_case(data, prior, k, J, seed)
        perms = np.arange(k)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cond.log_pooled_density(batch, perms)
            dense = log_sum_exp(cond.log_density_terms(batch, perms), axis=-1) - math.log(J)
        assert cond.evaluations == 2 * batch.size * J
        finite = np.isfinite(dense)
        np.testing.assert_array_equal(got[~finite], dense[~finite])
        # a value near 0 is the difference of terms of tens of nats: it is
        # held to 1e-12 absolute
        np.testing.assert_allclose(got[finite], dense[finite], rtol=1e-12, atol=1e-12)
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            for budget, threads in ((J * 3, 1), (J * 5, 2), (model.KERNEL_BUDGET * 3, 2)):
                patch.setattr(model, "KERNEL_BUDGET", budget)
                patch.setattr(model, "KERNEL_THREADS", threads)
                rows = rng.permutation(batch.size)[:rng.integers(1, batch.size + 1)]
                assert_same_bits(cond.log_pooled_density(batch[rows], perms), got[rows])

    @pytest.fixture(scope="class")
    def galaxy(self):
        return builtin_dataset("galaxy")

    def test_screen_leaves_infinite_bounds_and_takes_the_others(self, galaxy):
        """The cases above run the screen: it leaves the subnormal and the
        infinite variance, whose bounds are not finite, to the dense kernel
        and takes at least half of the points drawn near the draws."""
        identity = np.arange(4)[None, :]
        for prior in (FixedPrior(var_shape=2.0, var_scale=3.0),
                      HierarchicalPrior.from_data(galaxy)):
            cond, batch = screen_case(galaxy, prior, 4, 2400, 5)
            cond.log_pooled_density(batch[4:6], identity)
            assert cond.screened == 0
            cond.log_pooled_density(batch[6:], identity)
            assert cond.screened >= 0.5 * (batch.size - 6)


class TestSampleLaw:
    """The one-pass sampler and the grouped reference loop draw from one law:
    two-sample KS tests on fixed draw indices, per component of the weights,
    means and variances, and on beta under the hierarchical prior."""

    PARTICLES = 20_000
    ALPHA = 1e-3

    @pytest.fixture(scope="class", params=["fixed", "hierarchical"])
    def samples(self, request, small_normal_data, fixed_prior, hier_prior):
        prior = hier_prior if request.param == "hierarchical" else fixed_prior
        rng = np.random.default_rng(17)
        # few draws with a near-empty component, so that each draw's law shows
        J, n = 6, small_normal_data.n
        cond = ConditioningSet.from_draws(
            small_normal_data, prior, rng.normal(0.0, 1.0, (J, 3)),
            rng.choice(3, (J, n), p=[0.05, 0.25, 0.7]),
            rng.gamma(2.0, 1.0, J) + 0.5 if prior.hierarchical else None)
        js = rng.integers(0, J, self.PARTICLES)
        return cond.sample(js, RngStream(18)), reference.sample_grouped(cond, js, RngStream(19))

    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    def test_components(self, samples, field):
        new, old = (getattr(batch, field) for batch in samples)
        for i in range(new.shape[1]):
            p = ss.ks_2samp(new[:, i], old[:, i]).pvalue
            assert p > self.ALPHA, f"{field}[{i}]: KS p = {p:.3g}"

    def test_beta(self, samples):
        new, old = (batch.betas for batch in samples)
        if new is None or old is None:  # the fixed prior: neither sampler draws beta
            assert new is None and old is None
        else:
            assert ss.ks_2samp(new, old).pvalue > self.ALPHA
