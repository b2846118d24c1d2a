import csv
import itertools
import math
import zlib

import numpy as np
import pytest
from scipy.special import gammaln

from mixevidence.gibbs import (
    GibbsChain,
    GibbsConfig,
    chain_log_posterior,
    chain_mean_stderr,
    export_chain_csv,
    integrated_autocorr_time,
    permute_chain,
    random_permutation_step,
    run_gibbs,
    select_pivot,
)
from mixevidence.harness import ExperimentConfig, parse_prior, resolve_dataset
from mixevidence.model import (
    Allocation,
    Dataset,
    FixedPrior,
    HierarchicalPrior,
    MixtureParams,
    log_likelihood,
    log_prior,
)
from mixevidence.numerics import RngStream, enumerate_permutations
from mixevidence.oracle import log_marginal_group, posterior_moments_k1

from conftest import random_params


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
        cfg = GibbsConfig(iterations=300, burn_in=100, seed=5)
        a = run_gibbs(small_normal_data, fixed_prior, 2, cfg)
        b = run_gibbs(small_normal_data, fixed_prior, 2, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.allocations, b.allocations)

    def test_draw_invariants(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 3,
            GibbsConfig(iterations=400, burn_in=100, seed=1),
        )
        np.testing.assert_allclose(chain.weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(chain.variances > 0)
        assert np.all((chain.allocations >= 0) & (chain.allocations < 3))

    def test_thinning_stride(self, small_normal_data, fixed_prior):
        cfg = GibbsConfig(iterations=400, burn_in=100, thinning=3, seed=2)
        chain = run_gibbs(small_normal_data, fixed_prior, 2, cfg)
        assert len(chain) == cfg.kept == 100

    def test_k1_moments_match_quadrature(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 1,
            GibbsConfig(iterations=6_000, burn_in=1_000, seed=3),
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
        chain = run_gibbs(
            small_normal_data, fixed_prior, k,
            GibbsConfig(iterations=4_000, burn_in=500, random_permutation=True, seed=4),
        )
        # forced symmetry: each label holds the smaller mean half the time
        frac = float(np.mean(np.argmin(chain.means, axis=1) == 0))
        se = math.sqrt(0.25 / len(chain)) * math.sqrt(integrated_autocorr_time(
            (np.argmin(chain.means, axis=1) == 0).astype(float)))
        assert abs(frac - 0.5) < max(4 * se, 0.05)

    def test_hierarchical_chain_carries_beta(self, small_normal_data):
        prior = HierarchicalPrior.from_data(small_normal_data)
        chain = run_gibbs(
            small_normal_data, prior, 2, GibbsConfig(iterations=300, burn_in=50, seed=6)
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
            GibbsConfig(iterations=40_000, burn_in=2_000, seed=0),
            rng=RngStream(123).substream("g"),
        )
        Z = chain.allocations.astype(int)
        co_chain = np.mean(Z[:, :, None] == Z[:, None, :], axis=0)
        assert np.abs(co_chain - co_exact).max() < 0.02

    # CRC32 of each stored array, taken on x86-64 with numpy 2.4; a change of
    # platform or numpy version may move them without a fault in the sweep.
    CHAIN_CRC32 = {
        ("d2", 3, "fixed:2,15"): {
            "weights": 4238791746, "means": 41178791, "variances": 2150847436,
            "allocations": 270726470,
        },
        ("galaxy", 4, "rg"): {
            "weights": 721176265, "means": 1022272567, "variances": 3976557876,
            "allocations": 1032478860, "betas": 1627510727,
        },
    }

    @pytest.mark.parametrize("dataset,k,prior", sorted(CHAIN_CRC32))
    def test_chain_checksum_pinned(self, dataset, k, prior):
        """The sweep's arithmetic and stream use are frozen: refactors keep chains bit-identical."""
        cfg = ExperimentConfig(dataset=dataset, k=k, prior=prior,
                               iterations=2_000, burn_in=500, seed=201)
        data = resolve_dataset(cfg)
        chain = run_gibbs(data, parse_prior(prior, data), k, cfg.gibbs_config(),
                          rng=RngStream(cfg.seed).substream("replicate", 0, "gibbs"))
        arrays = {"weights": chain.weights, "means": chain.means,
                  "variances": chain.variances, "allocations": chain.allocations,
                  "betas": chain.betas}
        got = {name: zlib.crc32(np.ascontiguousarray(a).tobytes())
               for name, a in arrays.items() if a is not None}
        assert got == self.CHAIN_CRC32[(dataset, k, prior)]


class TestPermutationStep:
    def test_identity_leaves_draw(self, small_normal_data):
        params = random_params(2, 0)
        alloc = Allocation(np.zeros(small_normal_data.n, dtype=int))
        # scan a stream until the identity permutation is drawn
        for attempt in range(50):
            gen = RngStream(attempt).generator
            probe = gen.integers(2)
            if probe == 0:  # identity is row 0 of the k=2 matrix
                out_p, out_a = random_permutation_step(
                    (params, alloc), RngStream(attempt)
                )
                np.testing.assert_array_equal(out_p.means, params.means)
                np.testing.assert_array_equal(out_a.labels, alloc.labels)
                return
        pytest.fail("no identity draw found in scan")

    def test_log_likelihood_invariant(self, small_normal_data):
        params = random_params(3, 1)
        alloc = Allocation(np.zeros(small_normal_data.n, dtype=int))
        before = log_likelihood(small_normal_data, params)
        out_p, _ = random_permutation_step((params, alloc), RngStream(9))
        assert log_likelihood(small_normal_data, out_p) == pytest.approx(before, abs=1e-12)

    def test_uniform_frequency(self):
        k = 3
        counts = np.zeros(math.factorial(k))
        params = random_params(k, 2)
        alloc = Allocation(np.array([0, 1, 2, 0]))
        gen = RngStream(11).generator
        perms = enumerate_permutations(k)
        lookup = {p.mapping: i for i, p in enumerate(perms)}
        trials = 30_000
        for _ in range(trials):
            out_p, _ = random_permutation_step((params, alloc), gen)
            key = tuple(int(np.nonzero(out_p.means == m)[0][0]) for m in params.means)
            counts[lookup[tuple(np.argsort(key))]] += 1
        expected = trials / math.factorial(k)
        se = math.sqrt(trials * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - expected) < 4 * se)

    def test_permute_chain_consistent(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=200, burn_in=50, seed=7),
        )
        permuted = permute_chain(chain, RngStream(8))
        # per-draw joint posterior is invariant under relabelling
        base = chain_log_posterior(chain, small_normal_data, fixed_prior)
        moved = chain_log_posterior(permuted, small_normal_data, fixed_prior)
        np.testing.assert_allclose(moved, base, atol=1e-9)
        # allocations stay consistent with their draw's component order
        t = 3
        p0, a0 = chain.draw(t)
        p1, a1 = permuted.draw(t)
        np.testing.assert_allclose(
            p0.means[a0.labels], p1.means[a1.labels], atol=1e-12
        )


class TestSelectPivot:
    def test_single_draw_chain(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=51, burn_in=50, seed=9),
        )
        assert len(chain) == 1
        params, alloc = select_pivot(chain, small_normal_data, fixed_prior)
        np.testing.assert_array_equal(params.means, chain.means[0])

    def test_argmax_property(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=500, burn_in=100, seed=10),
        )
        params, _ = select_pivot(chain, small_normal_data, fixed_prior)
        best = log_prior(params, fixed_prior) + log_likelihood(small_normal_data, params)
        lp = chain_log_posterior(chain, small_normal_data, fixed_prior)
        assert best == pytest.approx(lp.max())
        assert np.all(best >= lp - 1e-12)

    def test_pivot_beats_median(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=500, burn_in=100, seed=11),
        )
        lp = chain_log_posterior(chain, small_normal_data, fixed_prior)
        assert lp.max() >= np.median(lp)


class TestExport:
    def test_csv_round_trip_columns(self, tmp_path, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=120, burn_in=100, seed=12),
        )
        path = tmp_path / "chain.csv"
        export_chain_csv(chain, small_normal_data, fixed_prior, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(chain)
        got = np.array([float(r["mean_0"]) for r in rows])
        np.testing.assert_allclose(got, chain.means[:, 0])
        lp = chain_log_posterior(chain, small_normal_data, fixed_prior)
        np.testing.assert_allclose(
            [float(r["log_posterior"]) for r in rows], lp, rtol=1e-12
        )

    def test_autocorr_time_white_noise(self):
        x = np.random.default_rng(0).normal(size=4000)
        assert integrated_autocorr_time(x) < 1.6
