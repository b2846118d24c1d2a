import math

import numpy as np
import pytest
from scipy import integrate

from mixevidence.model import (
    Allocation,
    ConditioningSet,
    Dataset,
    FixedPrior,
    HierarchicalPrior,
    MixtureParams,
    ParamsBatch,
    log_likelihood,
    log_likelihood_batch,
    log_prior,
    log_prior_batch,
)
from mixevidence.numerics import (
    Permutation,
    RngStream,
    enumerate_permutations,
    inverse_gamma_logpdf,
    normal_logpdf,
)

from conftest import random_params
from reference import (
    SufficientStats,
    allocation_conditional,
    allocation_log_probs,
    beta_prior,
    full_conditionals,
    log_block_density,
    log_pdf,
    sample_block,
)


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

    def test_permuted_params(self):
        p = MixtureParams([0.2, 0.8], [0.0, 3.0], [1.0, 2.0])
        q = p.permuted(Permutation((1, 0)))
        np.testing.assert_array_equal(q.means, [3.0, 0.0])
        np.testing.assert_array_equal(q.weights, [0.8, 0.2])


class TestLikelihood:
    def test_single_component_reduces_to_normal(self, small_normal_data):
        params = MixtureParams([1.0], [0.4], [1.3])
        expected = float(np.sum(normal_logpdf(small_normal_data.observations, 0.4, 1.3)))
        assert log_likelihood(small_normal_data, params) == pytest.approx(expected)

    def test_permutation_symmetry(self, small_normal_data):
        params = random_params(3, 11)
        base = log_likelihood(small_normal_data, params)
        for sigma in enumerate_permutations(3):
            assert log_likelihood(small_normal_data, params.permuted(sigma)) == pytest.approx(
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
        batch = ParamsBatch.from_params(params)
        got = log_likelihood_batch(small_normal_data, batch)
        for b, p in enumerate(params):
            assert got[b] == pytest.approx(log_likelihood(small_normal_data, p))


class TestPrior:
    def test_exchangeability_exact(self, fixed_prior):
        params = random_params(3, 7)
        base = log_prior(params, fixed_prior)
        for sigma in enumerate_permutations(3):
            assert log_prior(params.permuted(sigma), fixed_prior) == pytest.approx(
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

    def test_batch_matches_scalar(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        params = [random_params(2, seed, beta=True) for seed in range(4)]
        batch = ParamsBatch.from_params(params)
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
        for sigma in enumerate_permutations(k):
            moved = log_block_density(
                at.permuted(sigma),
                (given_params.permuted(sigma), given_alloc.permuted(sigma)),
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


class TestConditioningSetEngine:
    """The vectorized engine must agree with the scalar reference exactly."""

    @pytest.mark.parametrize("hierarchical", [False, True])
    def test_pooled_density_matches_scalar(self, small_normal_data, hierarchical):
        rng = np.random.default_rng(12)
        k, J, B = 3, 4, 6
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
        cond = ConditioningSet.from_pairs(small_normal_data, prior, pairs)
        points = [random_params(k, rng, beta=hierarchical) for _ in range(B)]
        batch = ParamsBatch.from_params(points)
        perms = enumerate_permutations(k)
        rows = np.array([p.mapping for p in perms])
        got = cond.log_pooled_density(batch, rows, chunk=2)
        for b, theta in enumerate(points):
            for p, sigma in enumerate(perms):
                per_j = [
                    log_block_density(
                        theta,
                        (pair[0].permuted(sigma), pair[1].permuted(sigma)),
                        small_normal_data,
                        prior,
                    )
                    for pair in pairs
                ]
                shift = max(per_j)
                expected = shift + math.log(
                    sum(math.exp(v - shift) for v in per_j) / J
                )
                assert got[b, p] == pytest.approx(expected, abs=1e-9)

    def test_terms_match_scalar(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(13)
        k, J = 2, 3
        pairs = [
            (random_params(k, rng), Allocation(rng.integers(0, k, small_normal_data.n)))
            for _ in range(J)
        ]
        cond = ConditioningSet.from_pairs(small_normal_data, fixed_prior, pairs)
        theta = random_params(k, rng)
        batch = ParamsBatch.from_params([theta])
        terms = cond.log_density_terms(batch, np.array([[0, 1]]))
        for j, pair in enumerate(pairs):
            expected = log_block_density(theta, pair, small_normal_data, fixed_prior)
            assert terms[0, 0, j] == pytest.approx(expected, abs=1e-10)

    def test_evaluation_counter(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(14)
        k, J, B = 2, 5, 7
        pairs = [
            (random_params(k, rng), Allocation(rng.integers(0, k, small_normal_data.n)))
            for _ in range(J)
        ]
        cond = ConditioningSet.from_pairs(small_normal_data, fixed_prior, pairs)
        batch = ParamsBatch.from_params([random_params(k, rng) for _ in range(B)])
        cond.log_pooled_density(batch, np.array([[0, 1], [1, 0]]))
        assert cond.evaluations == B * 2 * J

    def test_sample_scatter_order(self, small_normal_data, fixed_prior):
        rng = np.random.default_rng(15)
        k, J = 2, 3
        pairs = [
            (random_params(k, rng), Allocation(rng.integers(0, k, small_normal_data.n)))
            for _ in range(J)
        ]
        cond = ConditioningSet.from_pairs(small_normal_data, fixed_prior, pairs)
        js = np.array([2, 0, 2, 1, 0])
        batch = cond.sample(js, RngStream(3))
        assert batch.size == 5
        # grouped generation must scatter back deterministically
        again = cond.sample(js, RngStream(3))
        np.testing.assert_array_equal(batch.means, again.means)
