import csv
import itertools
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import gammaln

import mixevidence
from mixevidence import gibbs, model
from mixevidence.datasets import builtin_dataset
from mixevidence.gibbs import (
    QUADRATIC_BOUND,
    GibbsChain,
    GibbsConfig,
    _quadratic_row,
    _sample_allocation,
    chain_mean_stderr,
    export_chain_csv,
    integrated_autocorr_time,
    permute_chain,
    permute_draws,
    run_gibbs,
    select_pivot,
)
from mixevidence.harness import ExperimentConfig, parse_prior, resolve_dataset
from mixevidence.model import (
    Dataset,
    HierarchicalPrior,
    ParamsBatch,
    log_likelihood_batch,
    log_posterior_batch,
)
from mixevidence.numerics import (
    LOG_2PI,
    RngStream,
    normal_logpdf,
    permutation_matrix,
    permutation_rows,
)
from mixevidence.relabel import relabel_chain

from conftest import traced_peak
from oracle import log_marginal_group, posterior_moments_k1
from reference import (
    MixtureParams,
    allocation_log_probs,
    array_sweep_gibbs,
    log_likelihood,
    log_prior,
    scalar_draw,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, burn_in=2, thinning=0)

    def test_kept_count(self):
        assert GibbsConfig(iterations=100, burn_in=40).kept == 60
        assert GibbsConfig(iterations=100, burn_in=40, thinning=7).kept == 9


class TestRunGibbs:
    def test_bit_identical_reproducibility(self, small_normal_data, fixed_prior):
        cfg = GibbsConfig(iterations=300, burn_in=100)
        a = run_gibbs(small_normal_data, fixed_prior, 2, cfg, rng=5)
        b = run_gibbs(small_normal_data, fixed_prior, 2, cfg, rng=5)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.allocations, b.allocations)

    def test_draw_invariants(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 3,
            GibbsConfig(iterations=400, burn_in=100), rng=1,
        )
        np.testing.assert_allclose(chain.weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(chain.variances > 0)
        assert np.all((chain.allocations >= 0) & (chain.allocations < 3))

    def test_thinning_stride(self, small_normal_data, fixed_prior):
        cfg = GibbsConfig(iterations=400, burn_in=100, thinning=3)
        chain = run_gibbs(small_normal_data, fixed_prior, 2, cfg, rng=2)
        assert len(chain) == cfg.kept == 100

    def test_k1_moments_match_quadrature(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 1,
            GibbsConfig(iterations=6_000, burn_in=1_000), rng=3,
        )
        oracle = posterior_moments_k1(small_normal_data, fixed_prior)
        mu_draws = chain.means[:, 0]
        var_draws = chain.variances[:, 0]
        se_mu = chain_mean_stderr(mu_draws)
        se_var = chain_mean_stderr(var_draws)
        assert abs(mu_draws.mean() - oracle["mean_mu"]) < 3 * se_mu
        assert abs(var_draws.mean() - oracle["mean_var"]) < 3 * se_var

    def test_random_permutation_uniform_occupancy(self, small_normal_data, fixed_prior):
        k = 2
        chain = permute_chain(run_gibbs(
            small_normal_data, fixed_prior, k,
            GibbsConfig(iterations=4_000, burn_in=500), rng=4,
        ), RngStream(4))
        # forced symmetry: each label holds the smaller mean half the time
        frac = float(np.mean(np.argmin(chain.means, axis=1) == 0))
        se = math.sqrt(0.25 / len(chain)) * math.sqrt(integrated_autocorr_time(
            (np.argmin(chain.means, axis=1) == 0).astype(float)))
        assert abs(frac - 0.5) < max(4 * se, 0.05)

    def test_hierarchical_chain_carries_beta(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        chain = run_gibbs(
            small_normal_data, prior, 2, GibbsConfig(iterations=300, burn_in=50), rng=6
        )
        assert chain.betas is not None and np.all(chain.betas > 0)

    def test_gibbs_targets_exact_allocation_posterior(self, tiny_two_group_data, fixed_prior):
        """Co-clustering frequencies match brute-force allocation enumeration."""
        x = tiny_two_group_data.observations
        n, k = x.size, 2
        cache = {}

        def group(idx):
            if idx not in cache:
                cache[idx] = log_marginal_group(x[list(idx)], fixed_prior)
            return cache[idx]

        co_exact = np.zeros((n, n))
        terms = []
        allocs = []
        for z in itertools.product(range(k), repeat=n):
            za = np.asarray(z)
            lt = gammaln(k) - gammaln(n + k)
            for i in range(k):
                members = tuple(np.nonzero(za == i)[0])
                lt += gammaln(len(members) + 1.0) + group(members)
            terms.append(lt)
            allocs.append(za)
        shift = max(terms)
        weights = np.exp(np.array(terms) - shift)
        weights /= weights.sum()
        for w, za in zip(weights, allocs):
            co_exact += w * (za[:, None] == za[None, :])

        chain = run_gibbs(
            tiny_two_group_data, fixed_prior, k,
            GibbsConfig(iterations=40_000, burn_in=2_000),
            rng=RngStream(123).substream("g"),
        )
        Z = chain.allocations.astype(int)
        co_chain = np.mean(Z[:, :, None] == Z[:, None, :], axis=0)
        assert np.abs(co_chain - co_exact).max() < 0.02

    # CRC32 of each stored array, and the fallback count, taken on x86-64 with
    # numpy 2.4; a change of platform or numpy version may move them without a
    # fault in the sweep.  These are the three benchmark configurations.
    CHAIN_CRC32 = {
        ("d1", 2, "fixed:2,3"): {
            "weights": 2957425850, "means": 1200808921, "variances": 1646409825,
            "allocations": 1686113722, "allocation_fallbacks": 0,
        },
        ("d2", 3, "fixed:2,15"): {
            "weights": 4238791746, "means": 41178791, "variances": 2150847436,
            "allocations": 270726470, "allocation_fallbacks": 0,
        },
        ("galaxy", 4, "rg"): {
            "weights": 721176265, "means": 1022272567, "variances": 3976557876,
            "allocations": 1032478860, "betas": 1627510727, "allocation_fallbacks": 0,
        },
    }

    @pytest.mark.parametrize("dataset,k,prior", sorted(CHAIN_CRC32))
    def test_chain_checksum_pinned(self, dataset, k, prior):
        """The sweep's arithmetic and stream use are frozen: refactors keep chains bit-identical."""
        cfg = ExperimentConfig(dataset=dataset, k=k, prior=prior, estimators=(),
                               iterations=2_000, burn_in=500, seed=201)
        data = resolve_dataset(cfg)
        chain = run_gibbs(data, parse_prior(prior, data), k, cfg.gibbs_config(),
                          rng=RngStream(cfg.seed).substream("replicate", 0, "gibbs"))
        arrays = {"weights": chain.weights, "means": chain.means,
                  "variances": chain.variances, "allocations": chain.allocations,
                  "betas": chain.betas}
        got = {name: zlib.crc32(np.ascontiguousarray(a).tobytes())
               for name, a in arrays.items() if a is not None}
        got["allocation_fallbacks"] = chain.allocation_fallbacks
        assert got == self.CHAIN_CRC32[(dataset, k, prior)]

    # A variance shape of 0.005 makes `standard_gamma` return exact zeros, and
    # the sweep stores the variance scale / 0 as +inf (85 of the 4500 stored
    # variances).  Taken like CHAIN_CRC32, with warnings suppressed.
    DEGENERATE_CRC32 = {
        "weights": 3260142169, "means": 1795350266, "variances": 3445961036,
        "allocations": 2052219643, "allocation_fallbacks": 0, "infinite_variances": 85,
    }

    def test_degenerate_chain_checksum_pinned(self):
        """Zero variance gammas give the same infinite variances and the same chain."""
        cfg = ExperimentConfig(dataset="d1", k=3, prior="fixed:0.005,3", estimators=(),
                               iterations=2_000, burn_in=500, seed=201)
        data = resolve_dataset(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            chain = run_gibbs(data, parse_prior(cfg.prior, data), cfg.k, cfg.gibbs_config(),
                              rng=RngStream(cfg.seed).substream("replicate", 0, "gibbs"))
        got = {name: zlib.crc32(np.ascontiguousarray(getattr(chain, name)).tobytes())
               for name in ("weights", "means", "variances", "allocations")}
        got["allocation_fallbacks"] = chain.allocation_fallbacks
        got["infinite_variances"] = int(np.isinf(chain.variances).sum())
        assert got == self.DEGENERATE_CRC32


def _count_exact_steps(monkeypatch) -> list:
    """Count the sweeps that take `_sample_allocation`: one entry per call."""
    entered = []
    exact = gibbs._sample_allocation

    def counted(*args):
        entered.append(None)
        return exact(*args)

    monkeypatch.setattr(gibbs, "_sample_allocation", counted)
    return entered


class TestSweepMatchesArrayReference:
    """The float parameter step draws the bits of the array-form sweep.

    At k >= 8 `np.sum` adds pairwise, so a left-to-right sum of the beta
    rate moves the hierarchical chains there; `fixed:0.005,3` draws zero
    variance gammas, whose variances are +inf.
    """

    @pytest.fixture(scope="class")
    def galaxy(self):
        return builtin_dataset("galaxy")

    @pytest.mark.parametrize("thinning", [1, 3])
    @pytest.mark.parametrize("prior", ["fixed:2,3", "rg", "fixed:0.005,3"])
    @pytest.mark.parametrize("k", range(1, 11))
    def test_bit_identical(self, galaxy, k, prior, thinning):
        spec = parse_prior(prior, galaxy)
        cfg = GibbsConfig(iterations=300, burn_in=100, thinning=thinning)
        got = run_gibbs(galaxy, spec, k, cfg, rng=RngStream(7).substream(k, prior))
        want = array_sweep_gibbs(galaxy, spec, k, cfg, rng=RngStream(7).substream(k, prior))
        for name in ("weights", "means", "variances", "betas", "allocations"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert got.allocation_fallbacks == want.allocation_fallbacks

    @pytest.mark.parametrize("prior", ["fixed:2,3", "rg"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_shifted_data_bit_identical(self, monkeypatch, k, prior):
        """D1 moved by +1e4: the quadratic step centres the points on their
        range, so its logits keep their precision and the data-located `rg`
        chains take it on every sweep; under the fixed prior the means of
        empty components sit near 0, out of the bound's reach, and those
        states take the exact step."""
        d1 = builtin_dataset("d1")
        data = Dataset(d1.observations + 1e4, name="d1+1e4")
        spec = parse_prior(prior, data)
        cfg = GibbsConfig(iterations=1000, burn_in=100)
        entered = _count_exact_steps(monkeypatch)
        got = run_gibbs(data, spec, k, cfg, rng=RngStream(7).substream(k, prior))
        if prior == "rg":
            assert entered == []
        want = array_sweep_gibbs(data, spec, k, cfg, rng=RngStream(7).substream(k, prior))
        for name in ("weights", "means", "variances", "betas", "allocations"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert got.allocation_fallbacks == want.allocation_fallbacks


class TestQuadraticAllocation:
    """The quadratic allocation step: its coefficients, its gate, and the
    chains it draws."""

    @given(x=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=50),
           shift=st.sampled_from([0.0, 1e4]), hierarchical=st.booleans(),
           k=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_coefficients_match_the_density(self, x, shift, hierarchical, k, seed):
        """On every regular component of a chain's states, a + b x~ + c x~^2
        is log w + log N(x; mu, v) + LOG_2PI / 2 within 1e-9 nats."""
        data = Dataset(np.array(x) + shift)
        assume(not hierarchical or np.ptp(data.observations) > 0)  # its spread must be > 0
        prior = (HierarchicalPrior.from_data(data) if hierarchical
                 else model.FixedPrior(var_shape=2.0, var_scale=3.0))
        chain = run_gibbs(data, prior, k, GibbsConfig(iterations=20, burn_in=10), rng=seed)
        obs = data.observations
        centre = 0.5 * (float(obs.min()) + float(obs.max()))
        x_centred = obs - centre
        radius = float(np.abs(x_centred).max())
        for w, m, v in zip(chain.weights.ravel().tolist(), chain.means.ravel().tolist(),
                           chain.variances.ravel().tolist()):
            row = _quadratic_row(w, m, v, centre, radius)
            if row is None:
                continue
            a, b, c = row
            exact = math.log(w) + normal_logpdf(obs, m, v) + 0.5 * LOG_2PI
            np.testing.assert_allclose(a + b * x_centred + c * (x_centred * x_centred), exact,
                                       rtol=0, atol=1e-9)

    # weight, variance of a component with mean 0.5, on points within 1 of 0
    GATE_CASES = {
        "zero_weight": (0.0, 1.0),
        "subnormal_variance": (0.5, 1e-320),
        "infinite_variance": (0.5, math.inf),
        "variance_below_the_bound": (0.5, 2.25 / QUADRATIC_BOUND / 1.01),
    }

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_gate_sends_to_the_exact_step(self, case):
        weight, variance = self.GATE_CASES[case]
        assert _quadratic_row(weight, 0.5, variance, 0.0, 1.0) is None

    def test_gate_admits_the_bound(self):
        variance = 2.25 / QUADRATIC_BOUND
        assert (_quadratic_row(0.5, 0.5, variance, 0.0, 1.0)
                == model.allocation_conditional(0.5, 0.5, variance, 0.0))

    @pytest.mark.parametrize("prior", ["fixed:2,1e-320", "fixed:0.005,3"])
    def test_degenerate_chains_take_the_exact_step(self, monkeypatch, prior):
        """Subnormal variances (empty components under a tiny scale) and the
        infinite variances of zero gammas send their states to
        `_sample_allocation`: the chain and its fallback count are the
        array-form sweep's."""
        data = builtin_dataset("d1")
        spec = parse_prior(prior, data)
        cfg = GibbsConfig(iterations=300, burn_in=100)
        entered = _count_exact_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = run_gibbs(data, spec, 3, cfg, rng=1)
            exact_steps = len(entered)
            want = array_sweep_gibbs(data, spec, 3, cfg, rng=1)
        assert 0 < exact_steps < cfg.iterations - 1
        for name in ("weights", "means", "variances", "allocations"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.allocation_fallbacks == want.allocation_fallbacks

    @pytest.mark.parametrize("name,k,prior", [("d1", 2, "fixed:2,3"), ("d2", 3, "fixed:2,15"),
                                              ("galaxy", 4, "rg")])
    def test_benchmark_chains_never_take_the_exact_step(self, monkeypatch, name, k, prior):
        """Every sweep of the three benchmark configurations, at full length,
        takes the quadratic step."""
        def refuse(*args):
            raise AssertionError("a benchmark chain took the exact allocation step")

        monkeypatch.setattr(gibbs, "_sample_allocation", refuse)
        cfg = ExperimentConfig(dataset=name, k=k, prior=prior, estimators=(), seed=201)
        data = resolve_dataset(cfg)
        run_gibbs(data, parse_prior(prior, data), k, cfg.gibbs_config(),
                  rng=RngStream(cfg.seed).substream("replicate", 0, "gibbs"))


class TestAllocationFallback:
    """Degenerate states reach the nearest-mean fallback without a warning."""

    # weights, variances, whether every row falls back
    CASES = {
        # every (x - mu)^2 / v overflows: no row has a finite logit
        "subnormal_variances": ([0.5, 0.5], [1e-320, 1e-320], True),
        # log w_0 = -inf and component 1 overflows: no row has a finite logit
        "zero_weight": ([0.0, 1.0], [1.0, 1e-320], True),
        # one component ruled out in every row, the other finite
        "one_subnormal_variance": ([0.5, 0.5], [1e-320, 1.0], False),
        "one_zero_weight": ([0.0, 1.0], [1.0, 1.0], False),
        "one_infinite_variance": ([0.5, 0.5], [np.inf, 1.0], False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference(self, small_normal_data, case):
        weights, variances, falls_back = self.CASES[case]
        params = MixtureParams(weights, [-0.25, 0.5], variances)
        x = small_normal_data.observations
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z, n_fallback = _sample_allocation(x[:, None], params.weights, params.means,
                                               params.variances, np.random.default_rng(0),
                                               np.empty((x.size, 2)))
            log_probs, expected_fallbacks = allocation_log_probs(small_normal_data, params)
        assert n_fallback == expected_fallbacks == (x.size if falls_back else 0)
        # each row has one label of probability 1, which the draw must take
        np.testing.assert_array_equal(np.isfinite(log_probs).sum(axis=1), 1)
        np.testing.assert_array_equal(z, np.argmax(log_probs, axis=1))


class TestDegenerateVariance:
    """A variance draw whose mean conditional breaks down raises a typed error;
    the tiny and infinite variances that leave it valid are kept."""

    @pytest.fixture(scope="class")
    def galaxy(self):
        return builtin_dataset("galaxy")

    # a subnormal variance of an occupied component made the precision counts / v
    # inf and stored the mean inf / inf = NaN (200 of 2000 means); a variance of
    # 0 raised a bare ZeroDivisionError from counts / v
    @pytest.mark.parametrize("var_scale", [1e-320, 5e-324])
    def test_occupied_collapse_raises(self, galaxy, var_scale):
        prior = model.FixedPrior(var_shape=2.0, var_scale=var_scale)
        with pytest.raises(mixevidence.DegenerateStateError, match="sweep 17: the variance"):
            run_gibbs(galaxy, prior, 10, GibbsConfig(iterations=300, burn_in=100), rng=3)

    def test_empty_component_keeps_a_subnormal_variance(self):
        data = builtin_dataset("d1")
        prior = model.FixedPrior(var_shape=2.0, var_scale=1e-320)
        chain = run_gibbs(data, prior, 3, GibbsConfig(iterations=300, burn_in=100), rng=1)
        subnormal = (chain.variances > 0) & (chain.variances < np.finfo(float).tiny)
        counts = np.stack([np.bincount(z, minlength=3) for z in chain.allocations])
        assert subnormal.sum() == 200
        assert np.all(counts[subnormal] == 0)
        assert np.all(np.isfinite(chain.means)) and chain.allocation_fallbacks == 0

    def test_zero_gammas_keep_infinite_variances(self):
        cfg = ExperimentConfig(dataset="d1", k=3, prior="fixed:0.005,3", estimators=(),
                               iterations=600, burn_in=100, seed=201)
        data = resolve_dataset(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chain = run_gibbs(data, parse_prior(cfg.prior, data), cfg.k, cfg.gibbs_config(),
                              rng=RngStream(cfg.seed).substream("replicate", 0, "gibbs"))
        assert np.isinf(chain.variances).any()
        assert np.all(np.isfinite(chain.means))


class TestPermutationStep:
    @pytest.fixture(scope="class")
    def chain(self, small_normal_data, fixed_prior):
        return run_gibbs(small_normal_data, fixed_prior, 3,
                         GibbsConfig(iterations=300, burn_in=100), rng=13)

    def test_identity_leaves_draw(self, chain):
        same = permute_draws(chain, np.tile(np.arange(chain.k), (len(chain), 1)))
        for name in ("weights", "means", "variances", "allocations"):
            np.testing.assert_array_equal(getattr(same, name), getattr(chain, name))

    def test_plain_batch_takes_the_column_gather(self, chain):
        """On a plain batch the relabelling is the gather of its (k,) columns."""
        rows = permutation_rows(np.arange(len(chain)) % 6, chain.k)
        batch = ParamsBatch(chain.weights, chain.means, chain.variances)
        out = permute_draws(batch, rows)
        assert type(out) is ParamsBatch
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(
                getattr(out, name), np.take_along_axis(getattr(chain, name), rows, axis=1))
        # the chain's own relabelling moves the same columns and its allocations too
        moved = permute_draws(chain, rows)
        assert type(moved) is GibbsChain
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(moved, name), getattr(out, name))
        np.testing.assert_array_equal(
            np.take_along_axis(moved.means, moved.allocations.astype(np.intp), 1),
            np.take_along_axis(chain.means, chain.allocations.astype(np.intp), 1))

    def test_blocks_do_not_change_the_relabelling(self, chain, monkeypatch):
        rows = permutation_rows(np.arange(len(chain)) % math.factorial(chain.k), chain.k)
        whole = permute_draws(chain, rows)  # one block of all 200 draws
        monkeypatch.setattr(model, "KERNEL_BUDGET", 3 * chain.n)  # 3-draw blocks
        blocked = permute_draws(chain, rows)
        assert blocked.allocations.dtype == whole.allocations.dtype == chain.allocations.dtype
        np.testing.assert_array_equal(blocked.allocations, whole.allocations)

    @pytest.mark.parametrize("relabel", [lambda chain: permute_chain(chain, RngStream(36)),
                                         lambda chain: relabel_chain(chain, chain[0])],
                             ids=["permute_chain", "relabel_chain"])
    def test_relabelling_memory_is_bounded(self, relabel):
        """A galaxy-sized chain (T = 10**4, n = 82, int16 labels) is relabelled in
        under 3 MiB beyond the chain returned: no (T, n) intp copy is made."""
        rng = np.random.default_rng(35)
        T, k, n = 10_000, 4, 82
        chain = GibbsChain(weights=rng.dirichlet(np.ones(k), size=T),
                           means=rng.normal(size=(T, k)), variances=rng.gamma(2.0, size=(T, k)),
                           allocations=rng.integers(k, size=(T, n)).astype(np.int16))
        out, peak = traced_peak(lambda: relabel(chain))
        kept = sum(getattr(out, name).nbytes
                   for name in ("weights", "means", "variances", "allocations"))
        assert peak - kept < 3 * 2**20

    # CRC32 of the relabelled arrays of a fixed synthetic chain: the stream
    # permute_chain draws and the row each draw maps to are frozen.
    PERMUTE_CRC32 = {
        2: {"weights": 911254864, "means": 3354075279, "allocations": 909695759},
        3: {"weights": 1487068238, "means": 2966974753, "allocations": 880550484},
        4: {"weights": 1284043497, "means": 3961333321, "allocations": 553883597},
    }

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_permute_chain_pinned(self, k):
        rng = np.random.default_rng(k)
        T, n = 400, 25
        chain = GibbsChain(weights=rng.dirichlet(np.ones(k), size=T),
                           means=rng.normal(size=(T, k)), variances=rng.gamma(2.0, size=(T, k)),
                           allocations=rng.integers(k, size=(T, n)).astype(np.int16), betas=None)
        out = permute_chain(chain, RngStream(21).substream("permute"))
        got = {name: zlib.crc32(np.ascontiguousarray(getattr(out, name)).tobytes())
               for name in ("weights", "means", "allocations")}
        assert got == self.PERMUTE_CRC32[k]

    def test_log_likelihood_invariant(self, small_normal_data, chain):
        before = log_likelihood_batch(small_normal_data, chain)
        moved = permute_chain(chain, RngStream(9))
        np.testing.assert_allclose(log_likelihood_batch(small_normal_data, moved), before,
                                   rtol=0, atol=1e-12)

    def test_uniform_frequency(self):
        k, trials = 3, 30_000
        base = np.arange(k, dtype=float)
        chain = GibbsChain(weights=np.full((trials, k), 1 / k),
                           means=np.tile(base, (trials, 1)), variances=np.ones((trials, k)),
                           allocations=np.zeros((trials, 1), dtype=np.int16), betas=None)
        # the means of a draw relabelled by a row are the row itself
        applied = permute_chain(chain, RngStream(11)).means.astype(int)
        lookup = {tuple(row): p for p, row in enumerate(permutation_matrix(k))}
        counts = np.bincount([lookup[tuple(row)] for row in applied],
                             minlength=math.factorial(k))
        expected = trials / math.factorial(k)
        se = math.sqrt(trials * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - expected) < 4 * se)

    @pytest.mark.parametrize("k", [9, 10])
    def test_rows_decoded_beyond_enumeration_cap(self, k):
        """Past the cap on listing S_k, each draw still takes the decoded row of
        its uniform index, and its allocations follow its components."""
        T = 300
        chain = GibbsChain(weights=np.full((T, k), 1 / k),
                           means=np.tile(np.arange(k, dtype=float), (T, 1)),
                           variances=np.ones((T, k)),
                           allocations=np.tile(np.arange(k), (T, 2)).astype(np.int16),
                           betas=None)
        out = permute_chain(chain, RngStream(k))
        # the means of a draw relabelled by a row are the row itself
        idx = RngStream(k).generator.integers(math.factorial(k), size=T)
        np.testing.assert_array_equal(out.means, permutation_rows(idx, k))
        np.testing.assert_array_equal(np.sort(out.means, axis=1), chain.means)
        np.testing.assert_array_equal(np.take_along_axis(out.means, out.allocations, 1),
                                      np.take_along_axis(chain.means, chain.allocations, 1))

    def test_switch_flags_describe_own_draws(self, chain):
        """Derived chains flag the switches of their own means, not their parent's."""
        derived = {
            "permuted": permute_chain(chain, RngStream(12)),
            "relabelled": relabel_chain(permute_chain(chain, RngStream(12)), chain[0]),
            "indexed": chain[np.arange(0, len(chain), 3)],
        }
        for name, out in derived.items():
            low = np.argmin(out.means, axis=1)
            np.testing.assert_array_equal(out.switch_flags[1:], low[1:] != low[:-1], err_msg=name)
            assert not out.switch_flags[0]
        # a uniform relabelling switches the smallest-mean label on about 2/3 of draws
        assert derived["permuted"].switch_flags.mean() > 0.5

    def test_permute_chain_consistent(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=200, burn_in=50), rng=7,
        )
        permuted = permute_chain(chain, RngStream(8))
        # per-draw joint posterior is invariant under relabelling
        base = log_posterior_batch(small_normal_data, fixed_prior, chain)
        moved = log_posterior_batch(small_normal_data, fixed_prior, permuted)
        np.testing.assert_allclose(moved, base, atol=1e-9)
        # allocations stay consistent with their draw's component order
        t = 3
        p0, a0 = scalar_draw(chain, t)
        p1, a1 = scalar_draw(permuted, t)
        np.testing.assert_allclose(
            p0.means[a0.labels], p1.means[a1.labels], atol=1e-12
        )


class TestChainIndexing:
    """`chain[rows]` indexes every stored array alike and keeps the draw axis."""

    @pytest.fixture(scope="class")
    def chain(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        return run_gibbs(small_normal_data, prior, 3,
                         GibbsConfig(iterations=60, burn_in=40), rng=14)

    FIELDS = ("weights", "means", "variances", "allocations", "betas")

    @pytest.mark.parametrize("rows", [
        slice(2, 9, 3), slice(None), slice(5, 5), [4, 0, 4], np.array([19, 3]),
        np.arange(20) % 2 == 0,
    ], ids=["slice", "full-slice", "empty-slice", "list", "array", "mask"])
    def test_rows_match_per_array_indexing(self, chain, rows):
        out = chain[rows]
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(out, name), getattr(chain, name)[rows])
        assert out.k == chain.k
        assert out.allocation_fallbacks == chain.allocation_fallbacks

    @pytest.mark.parametrize("t", [0, 7, -1, np.int64(3)])
    def test_int_gives_one_draw_chain(self, chain, t):
        one = chain[t]
        assert len(one) == 1 and one.n == chain.n
        for name in self.FIELDS:
            np.testing.assert_array_equal(getattr(one, name), getattr(chain, name)[[t]])
        assert type(one) is GibbsChain
        # the same one-row states as a plain batch of the chain's states gives
        expected = ParamsBatch(chain.weights, chain.means, chain.variances, chain.betas)[t]
        assert type(expected) is ParamsBatch
        for name in ("weights", "means", "variances", "betas"):
            np.testing.assert_array_equal(getattr(one, name), getattr(expected, name))

    def test_int_out_of_range(self, chain):
        with pytest.raises(IndexError):
            chain[len(chain)]

    def test_fixed_prior_chain_keeps_no_betas(self, small_normal_data, fixed_prior):
        chain = run_gibbs(small_normal_data, fixed_prior, 2,
                          GibbsConfig(iterations=30, burn_in=20), rng=15)
        assert chain[3].betas is None and chain[2:5].betas is None


class TestChainShapes:
    """A chain's k and n come from its arrays, which it checks like a batch."""

    def test_k_is_the_arrays_width(self):
        T, n = 4, 6
        chain = GibbsChain(weights=np.full((T, 2), 0.5), means=np.zeros((T, 2)),
                           variances=np.ones((T, 2)),
                           allocations=np.zeros((T, n), dtype=np.int16))
        assert (chain.k, chain.n, len(chain)) == (2, n, T)
        with pytest.raises(TypeError, match="k"):
            GibbsChain(k=3, weights=chain.weights, means=chain.means,
                       variances=chain.variances, allocations=chain.allocations)

    def test_component_arrays_checked(self):
        T, n = 4, 6
        with pytest.raises(ValueError, match=r"\(B, k\)"):
            GibbsChain(weights=np.full((T, 2), 0.5), means=np.zeros((T, 3)),
                       variances=np.ones((T, 2)),
                       allocations=np.zeros((T, n), dtype=np.int16))

    @pytest.mark.parametrize("shape", [(5, 6), (3, 6), (6,)])
    def test_allocations_must_be_one_row_per_draw(self, shape):
        with pytest.raises(ValueError, match="allocations"):
            GibbsChain(weights=np.full((4, 2), 0.5), means=np.zeros((4, 2)),
                       variances=np.ones((4, 2)), allocations=np.zeros(shape, dtype=np.int16))


class TestSelectPivot:
    def test_single_draw_chain(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=51, burn_in=50), rng=9,
        )
        assert len(chain) == 1
        pivot = select_pivot(chain, small_normal_data, fixed_prior)
        assert len(pivot) == 1
        for name in ("weights", "means", "variances", "allocations"):
            np.testing.assert_array_equal(getattr(pivot, name), getattr(chain, name))

    def test_argmax_property(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=500, burn_in=100), rng=10,
        )
        params, _ = scalar_draw(select_pivot(chain, small_normal_data, fixed_prior))
        best = log_prior(params, fixed_prior) + log_likelihood(small_normal_data, params)
        lp = log_posterior_batch(small_normal_data, fixed_prior, chain)
        assert best == pytest.approx(lp.max())
        assert np.all(best >= lp - 1e-12)

    def test_pivot_beats_median(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=500, burn_in=100), rng=11,
        )
        lp = log_posterior_batch(small_normal_data, fixed_prior, chain)
        assert lp.max() >= np.median(lp)


class TestExport:
    def test_csv_round_trip_columns(self, tmp_path, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=120, burn_in=100), rng=12,
        )
        path = tmp_path / "chain.csv"
        export_chain_csv(chain, small_normal_data, fixed_prior, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(chain)
        got = np.array([float(r["mean_0"]) for r in rows])
        np.testing.assert_allclose(got, chain.means[:, 0])
        lp = log_posterior_batch(small_normal_data, fixed_prior, chain)
        np.testing.assert_allclose(
            [float(r["log_posterior"]) for r in rows], lp, rtol=1e-12
        )

    def test_autocorr_time_white_noise(self):
        x = np.random.default_rng(0).normal(size=4000)
        assert integrated_autocorr_time(x) < 1.6
