import math

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mixevidence.numerics import (
    Permutation,
    PermutationCapacityError,
    RngStream,
    as_generator,
    enumerate_permutations,
    log_mean_exp,
    log_sum_exp,
    permutation_matrix,
)

from reference import Categorical, Dirichlet, Gamma, InverseGamma, Normal, log_pdf, sample


class TestLogSumExp:
    def test_two_ones(self):
        assert log_sum_exp([math.log(1.0), math.log(1.0)]) == pytest.approx(math.log(2.0))

    def test_absorbing_neg_inf(self):
        assert log_sum_exp([-np.inf, 0.0]) == pytest.approx(0.0)

    def test_extreme_shift(self):
        got = log_sum_exp([-1000.0, -1000.0, -1000.0])
        assert got == pytest.approx(-1000.0 + math.log(3.0), abs=1e-12)

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_axis(self):
        arr = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(log_sum_exp(arr, axis=1), np.log([3.0, 7.0]))

    @given(
        st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=30),
        st.floats(min_value=-500, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, xs, c):
        xs = np.array(xs)
        lhs = log_sum_exp(xs + c)
        rhs = log_sum_exp(xs) + c
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_log_mean_exp(self):
        assert log_mean_exp(np.log([1.0, 3.0])) == pytest.approx(math.log(2.0))


class TestPermutations:
    def test_k1(self):
        perms = enumerate_permutations(1)
        assert len(perms) == 1 and perms[0].is_identity()

    def test_k3_count_distinct(self):
        perms = enumerate_permutations(3)
        assert len(perms) == 6
        assert len({p.mapping for p in perms}) == 6
        assert perms[0].is_identity()

    def test_k6_factorial(self):
        assert len(enumerate_permutations(6)) == 720

    def test_lexicographic_order(self):
        perms = enumerate_permutations(3)
        mappings = [p.mapping for p in perms]
        assert mappings == sorted(mappings)

    def test_capacity_error_names_cost(self):
        with pytest.raises(PermutationCapacityError, match="362880"):
            enumerate_permutations(9)

    def test_invalid_mapping(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @given(st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_group_laws(self, k, data):
        perms = enumerate_permutations(k)
        a = data.draw(st.sampled_from(perms))
        b = data.draw(st.sampled_from(perms))
        c = data.draw(st.sampled_from(perms))
        # associativity, exactly
        assert a.compose(b).compose(c).mapping == a.compose(b.compose(c)).mapping
        # inverse undoes, exactly
        assert a.compose(a.inverse()).is_identity()
        assert a.inverse().compose(a).is_identity()

    def test_apply_matches_composition(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=4)
        a, b = Permutation((1, 0, 3, 2)), Permutation((2, 3, 1, 0))
        via_compose = a.compose(b).apply_to_components(arr)
        via_sequence = a.apply_to_components(b.apply_to_components(arr))
        np.testing.assert_array_equal(via_compose, via_sequence)

    def test_labels_and_components_consistent(self):
        # relabelling observations must track the component gather
        sigma = Permutation((2, 0, 1))
        values = np.array([10.0, 20.0, 30.0])
        labels = np.array([0, 1, 2, 2])
        moved = sigma.apply_to_components(values)
        relabelled = sigma.apply_to_labels(labels)
        np.testing.assert_array_equal(moved[relabelled], values[labels])

    def test_matrix(self):
        mat = permutation_matrix(3)
        assert mat.shape == (6, 3)
        np.testing.assert_array_equal(mat[0], [0, 1, 2])


class TestDistributions:
    def test_normal_logpdf_at_mode(self):
        assert log_pdf(Normal(0.0, 1.0), 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_flat_dirichlet_logpdf(self):
        # Dir(1,1,1) is flat with density Gamma(3) = 2 on the simplex
        spec = Dirichlet((1.0, 1.0, 1.0))
        for point in ([0.2, 0.3, 0.5], [0.6, 0.3, 0.1]):
            assert log_pdf(spec, point) == pytest.approx(math.log(2.0))

    def test_dirichlet_off_simplex(self):
        assert log_pdf(Dirichlet((1.0, 1.0)), [0.2, 0.3]) == -np.inf

    def test_out_of_support_is_neg_inf(self):
        assert log_pdf(InverseGamma(2.0, 3.0), -1.0) == -np.inf
        assert log_pdf(Gamma(2.0, 3.0), 0.0) == -np.inf

    @pytest.mark.parametrize(
        "spec",
        [InverseGamma(2.0, 3.0), InverseGamma(2.0, 15.0), Gamma(0.2, 10.0 / 7.0**2)],
    )
    def test_normalization_by_quadrature(self, spec):
        total, _ = integrate.quad(
            lambda x: math.exp(log_pdf(spec, x)), 0.0, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_normal_normalization_by_quadrature(self):
        spec = Normal(1.5, 4.0)
        total, _ = integrate.quad(lambda x: math.exp(log_pdf(spec, x)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "spec,scipy_dist",
        [
            (Normal(1.0, 4.0), ss.norm(1.0, 2.0)),
            (InverseGamma(2.0, 3.0), ss.invgamma(2.0, scale=3.0)),
            (Gamma(1.7, 2.5), ss.gamma(1.7, scale=1.0 / 2.5)),
        ],
    )
    def test_against_scipy(self, spec, scipy_dist):
        xs = np.linspace(0.05, 8.0, 23)
        np.testing.assert_allclose(log_pdf(spec, xs), scipy_dist.logpdf(xs), atol=1e-10)

    def test_dirichlet_against_scipy(self):
        alpha = np.array([2.0, 3.5, 1.2])
        point = np.array([0.3, 0.45, 0.25])
        expected = ss.dirichlet(alpha).logpdf(point)
        assert log_pdf(Dirichlet(tuple(alpha)), point) == pytest.approx(expected)

    def test_categorical(self):
        spec = Categorical((0.2, 0.8))
        assert log_pdf(spec, 1) == pytest.approx(math.log(0.8))
        with pytest.raises(ValueError):
            Categorical((0.5, 0.6))

    def test_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            InverseGamma(-1.0, 3.0)
        with pytest.raises(ValueError):
            Dirichlet((1.0, 0.0))


class TestSampling:
    def test_dirichlet_on_simplex(self, stream):
        draws = sample(Dirichlet((1.0, 1.0, 1.0)), stream, size=200)
        assert np.all(draws >= 0)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)

    def test_normal_law_of_large_numbers(self, stream):
        draws = sample(Normal(5.0, 4.0), stream.substream("lln"), size=1_000_000)
        assert abs(draws.mean() - 5.0) < 0.01

    def test_gamma_moments(self, stream):
        a, b, n = 3.0, 2.0, 200_000
        draws = sample(Gamma(a, b), stream.substream("gamma"), size=n)
        se = math.sqrt(a / b**2 / n)
        assert abs(draws.mean() - a / b) < 3 * se

    def test_inverse_gamma_moments(self, stream):
        a, s, n = 5.0, 3.0, 200_000
        draws = sample(InverseGamma(a, s), stream.substream("ig"), size=n)
        mean = s / (a - 1)
        var = s**2 / ((a - 1) ** 2 * (a - 2))
        assert abs(draws.mean() - mean) < 3 * math.sqrt(var / n)

    def test_reproducible_given_stream(self):
        a = sample(Normal(0.0, 1.0), RngStream(7).substream("x"), size=5)
        b = sample(Normal(0.0, 1.0), RngStream(7).substream("x"), size=5)
        np.testing.assert_array_equal(a, b)


class TestRngStream:
    def test_substreams_independent_of_order(self):
        root = RngStream(42)
        first = root.substream("a").generator.normal(size=3)
        other_root = RngStream(42)
        _ = other_root.substream("b").generator.normal(size=3)
        again = other_root.substream("a").generator.normal(size=3)
        np.testing.assert_array_equal(first, again)

    def test_distinct_keys_distinct_draws(self):
        root = RngStream(42)
        a = root.substream("a").generator.normal(size=4)
        b = root.substream("b").generator.normal(size=4)
        assert not np.allclose(a, b)

    def test_nested_paths(self):
        root = RngStream(9)
        x = root.substream("replicate", 3).substream("gibbs").generator.normal()
        y = RngStream(9).substream("replicate", 3, "gibbs").generator.normal()
        # same keys, one path built in two steps: must agree
        assert x == pytest.approx(y)

    def test_as_generator_accepts_int(self):
        gen = as_generator(5)
        assert isinstance(gen, np.random.Generator)
