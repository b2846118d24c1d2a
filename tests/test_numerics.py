import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaln

from mixevidence.gibbs import GibbsChain, permute_draws
from mixevidence.numerics import (
    EXP_FLOOR,
    PermutationCapacityError,
    RngStream,
    as_generator,
    log_gamma,
    log_sum_exp,
    log_sum_exp_into,
    normal_logpdf,
    normal_logpdf_into,
    permutation_matrix,
    permutation_rows,
)

import reference
from conftest import assert_same_bits
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


def straddling_values(rng, shape):
    """Values whose max-shifted exponents fall on both sides of the floor:
    a quarter in (-40, 0), half in (-760, -690), where exp's results go
    subnormal below -708 and to 0 below -745, and a quarter in (-1e5, -760);
    plus a random offset along the first axis."""
    u = rng.random(shape)
    values = np.where(u < 0.25, rng.uniform(-40.0, 0.0, shape),
                      np.where(u < 0.75, rng.uniform(-760.0, -690.0, shape),
                               rng.uniform(-1e5, -760.0, shape)))
    return values + rng.uniform(-1e3, 1e3, (shape[0],) + (1,) * (len(shape) - 1))


def assert_floor_keeps_bits(make, axis):
    """The floored reduce of `make()` has the bits of the reference reduce of
    another `make()`, which must give the same values in the same layout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = log_sum_exp_into(make(), axis)
    assert_same_bits(got, reference.log_sum_exp_into(make(), axis))


class TestExpFloor:
    """Flooring the shifted exponents at EXP_FLOOR changes no bit of any reduce."""

    @pytest.mark.parametrize("J", [1, 2, 7, 8, 9, 100, 1000, 10_000])
    def test_straddling_slices(self, J):
        rng = np.random.default_rng(J)
        base = straddling_values(rng, (max(4, 40_000 // J), J))
        shifted = base - base.max(axis=1, keepdims=True)
        if J >= 100:
            assert np.any((shifted > -745.0) & (shifted < EXP_FLOOR))
            assert np.any(shifted < -745.0)
        assert_floor_keeps_bits(base.copy, 1)
        assert_floor_keeps_bits(lambda: base.T.copy(), 0)

    def test_non_finite_slices(self):
        inf, nan = np.inf, np.nan
        base = np.array([
            [-inf, -inf, -inf, -inf],
            [inf, inf, inf, inf],
            [inf, -inf, -inf, -inf],
            [nan, nan, nan, nan],
            [nan, 0.0, -720.0, -800.0],
            [nan, -inf, -inf, -inf],
            [nan, inf, -inf, 0.0],
            [-inf, 0.0, -720.0, -1e6],
            [inf, 0.0, -720.0, -1e6],
            [-1e308, -inf, -inf, -inf],
            [1e308, 1e308, -inf, 0.0],
        ])
        assert_floor_keeps_bits(base.copy, 1)
        assert_floor_keeps_bits(lambda: base.T.copy(), 0)
        for row in base:
            assert_floor_keeps_bits(row.copy, None)
        assert log_sum_exp_into(base[:1].copy(), 1)[0] == -inf
        assert log_sum_exp([-inf, -inf]) == -inf

    @pytest.mark.parametrize("axis", [None, 0, 1, 2, -1, (0, 2)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_axes_and_layouts(self, axis, layout):
        base = straddling_values(np.random.default_rng(5), (12, 14, 300))
        base[3, :, 7] = -np.inf
        make = {"C": base.copy,
                "F": lambda: np.asfortranarray(base),
                "strided": lambda: base.copy()[::2, 1:, ::3]}[layout]
        assert make().flags.c_contiguous == (layout == "C")
        assert_floor_keeps_bits(make, axis)


class TestNormalLogpdfInto:
    """`normal_logpdf_into` is the package's one normal log-density, and
    `normal_logpdf` its allocating wrapper.  scipy's `norm.logpdf` is a
    check written apart from the formula, which `reference` shares."""

    # (x, mean, var) shapes: the Gibbs logits' (n, 1) column against (k,)
    # vectors, the likelihood's (B, k, 1) states against (n,) points, scalars
    LAYOUTS = {
        "column_by_components": ((60, 1), (4,), (4,)),
        "states_by_points": ((50,), (7, 4, 1), (7, 4, 1)),
        "scalars": ((), (), ()),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_wrapper_bits_and_scipy(self, layout):
        x_shape, mean_shape, var_shape = self.LAYOUTS[layout]
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 3.0, x_shape)
        mean = rng.normal(0.0, 3.0, mean_shape)
        var = rng.gamma(2.0, 1.0, var_shape) + 0.2  # log 2 pi v > 0: |log N| stays away from 0
        if layout == "scalars":
            x, mean, var = float(x), float(mean), float(var)
        out = np.full(np.broadcast_shapes(x_shape, mean_shape, var_shape), np.nan)
        assert normal_logpdf_into(out, x, mean, var) is out
        wrapped = normal_logpdf(x, mean, var)
        assert np.shape(wrapped) == out.shape
        assert isinstance(wrapped, np.floating if layout == "scalars" else np.ndarray)
        assert_same_bits(out, wrapped)
        np.testing.assert_allclose(out, ss.norm.logpdf(x, mean, np.sqrt(var)), rtol=1e-13, atol=0)

    def test_limits_without_warnings(self):
        x = np.array([-1.0, 0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            subnormal = normal_logpdf(x, 0.5, 1e-320)
            infinite = normal_logpdf(x, 0.5, np.inf)
        # a collapsed variance has density 0 off its mean and a finite log-density on it
        assert np.isneginf(subnormal[[0, 2]]).all()
        assert subnormal[1] == pytest.approx(-0.5 * (math.log(2 * math.pi) + math.log(1e-320)))
        assert np.isneginf(infinite).all()

    def test_into_leaves_the_errstate_to_its_caller(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            normal_logpdf_into(np.empty(3), [-1.0, 0.5, 2.0], 0.5, 1e-320)


class TestPermutations:
    def test_k1(self):
        np.testing.assert_array_equal(permutation_matrix(1), [[0]])

    def test_k3_count_distinct(self):
        mat = permutation_matrix(3)
        assert len(mat) == 6
        assert len({tuple(row) for row in mat}) == 6
        np.testing.assert_array_equal(mat[0], [0, 1, 2])

    def test_k6_factorial(self):
        assert len(permutation_matrix(6)) == 720

    def test_lexicographic_order(self):
        rows = [tuple(row) for row in permutation_matrix(3)]
        assert rows == sorted(rows)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_itertools_order(self, k):
        np.testing.assert_array_equal(permutation_rows(np.arange(math.factorial(k)), k),
                                      list(itertools.permutations(range(k))))
        np.testing.assert_array_equal(permutation_matrix(k),
                                      list(itertools.permutations(range(k))))

    @pytest.mark.parametrize("k", [9, 12, 20])
    def test_rows_beyond_the_enumeration_cap(self, k):
        last = math.factorial(k) - 1
        rows = permutation_rows([0, last, last // 3], k)
        np.testing.assert_array_equal(rows[0], np.arange(k))
        np.testing.assert_array_equal(rows[1], np.arange(k)[::-1])
        np.testing.assert_array_equal(np.sort(rows, axis=1), np.tile(np.arange(k), (3, 1)))

    def test_capacity_error_names_cost(self):
        with pytest.raises(PermutationCapacityError, match="362880"):
            permutation_matrix(9)

    def test_invalid_mapping(self):
        # no row is an invalid mapping: each is a bijection of 0..k-1
        for k in range(1, 6):
            mat = permutation_matrix(k)
            assert np.all(np.sort(mat, axis=1) == np.arange(k))

    def test_labels_and_components_consistent(self):
        # relabelling observations must track the component gather, for every row
        k = 3
        P = math.factorial(k)
        values = np.tile([10.0, 20.0, 30.0], (P, 1))
        labels = np.tile([0, 1, 2, 2], (P, 1)).astype(np.int16)
        chain = GibbsChain(weights=np.full((P, k), 1 / k), means=values,
                           variances=np.ones((P, k)), allocations=labels, betas=None)
        moved = permute_draws(chain, permutation_matrix(k))
        np.testing.assert_array_equal(moved.means, values[0][permutation_matrix(k)])
        np.testing.assert_array_equal(np.take_along_axis(moved.means, moved.allocations, 1),
                                      np.take_along_axis(values, labels, 1))

    def test_matrix(self):
        mat = permutation_matrix(3)
        assert mat.shape == (6, 3)
        np.testing.assert_array_equal(mat[0], [0, 1, 2])


# The arguments log Gamma meets: integer Dirichlet parameters 1 + count and
# k + n; half-integer inverse-gamma shapes a + count/2 for the prior shapes in
# use (2 for the fixed priors, 0.2 for beta's shape, which becomes 0.2 + 2k);
# and values below 1 and far above the sample sizes.
LOG_GAMMA_ARGUMENTS = st.one_of(
    st.integers(1, 500).map(float),
    st.builds(lambda a, m: a + m / 2, st.sampled_from([0.2, 1.0, 2.0]), st.integers(0, 400)),
    st.floats(1e-3, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-3, 1e6),
)


@st.composite
def log_gamma_inputs(draw):
    """A scalar, a 0-d array or a (B, k) array of `LOG_GAMMA_ARGUMENTS`."""
    form = draw(st.sampled_from(["scalar", "0-d", "array"]))
    if form == "scalar":
        return draw(LOG_GAMMA_ARGUMENTS)
    if form == "0-d":
        return np.array(draw(LOG_GAMMA_ARGUMENTS))
    B, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = draw(st.lists(LOG_GAMMA_ARGUMENTS, min_size=B * k, max_size=B * k))
    return np.array(values).reshape(B, k)


class TestLogGamma:
    @given(log_gamma_inputs())
    @settings(max_examples=300)
    def test_matches_scipy(self, x):
        """Within 1e-14 relative of scipy's gammaln, or 1e-14 absolute where
        |log Gamma| < 1 (near its roots at 1 and 2), in the input's shape."""
        got = log_gamma(x)
        expected = gammaln(x)
        if np.ndim(x) == 0:
            assert isinstance(got, float)
        else:
            assert got.shape == np.shape(x)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(np.abs(expected), 1.0))

    def test_poles_are_inf(self):
        for pole in (0, 0.0, -1.0, -7):
            assert log_gamma(pole) == math.inf
        got = log_gamma(np.array([[0.0, -1.0], [2.5, -3.0]]))
        np.testing.assert_array_equal(got, [[np.inf, np.inf], [math.lgamma(2.5), np.inf]])
        assert log_gamma(-2.5) == pytest.approx(float(gammaln(-2.5)), rel=1e-14)

    def test_repeated_values_share_one_result(self):
        x = np.array([[3.5, 1.0, 3.5], [1.0, 3.5, 61.0]])
        got = log_gamma(x)
        assert got[0, 0] == got[0, 2] == got[1, 1] == log_gamma(3.5)
        assert got[0, 1] == got[1, 0] == 0.0
        assert log_gamma(np.empty((0, 3))).shape == (0, 3)


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
