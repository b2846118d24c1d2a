import json
import math
import warnings

import numpy as np
import pytest

from mixevidence.estimators import (
    DEFAULT_TAU,
    EstimationFailureError,
    bridge_sampling,
    build_dual_proposal,
    build_permuted_mixture,
    build_plugin_proposal,
    chib,
    effective_sample_size,
    h_sigma,
    importance_estimate,
    log_weight_stderr,
    workload_gain,
)
from mixevidence.gibbs import GibbsConfig, permute_chain, run_gibbs, select_pivot
from mixevidence.model import (
    Allocation,
    Dataset,
    FixedPrior,
    MixtureParams,
    ParamsBatch,
)
from mixevidence.numerics import (
    Permutation,
    RngStream,
    enumerate_permutations,
    log_sum_exp,
)
from mixevidence.oracle import evidence_quadrature_k1
from mixevidence.relabel import relabel_chain

from conftest import random_params
from reference import log_block_density

# Frozen values from the enumeration/quadrature oracles (see test_oracle.py
# for the recomputation): tiny 4+4-point dataset, prior N(0,100) x IG(2,3).
TINY8_LOGE_K1 = -23.743705514875828
TINY8_LOGE_K2 = -21.488961929823493
# 2+2+2-point dataset, same prior, k=3
TINY6_LOGE_K3 = -19.10572494662443


@pytest.fixture(scope="module")
def tiny3_data() -> Dataset:
    rng = np.random.default_rng(21)
    x = np.sort(np.concatenate([
        rng.normal(-4.0, 0.6, 2), rng.normal(0.5, 0.8, 2), rng.normal(5.0, 0.7, 2),
    ]))
    return Dataset(x, "tiny3")


@pytest.fixture(scope="module")
def tiny_chain(tiny_two_group_data_module, fixed_prior_module):
    return run_gibbs(
        tiny_two_group_data_module, fixed_prior_module, 2,
        GibbsConfig(iterations=4_000, burn_in=1_000, seed=3),
        rng=RngStream(30).substream("gibbs"),
    )


@pytest.fixture(scope="module")
def tiny_two_group_data_module() -> Dataset:
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-2.0, 0.7, 4), rng.normal(3.0, 1.0, 4)])
    return Dataset(np.sort(x), name="tiny")


@pytest.fixture(scope="module")
def fixed_prior_module() -> FixedPrior:
    return FixedPrior(var_shape=2.0, var_scale=3.0)


class TestEffectiveSampleSize:
    def test_equal_weights(self):
        assert effective_sample_size(np.zeros(100)) == pytest.approx(100.0)

    def test_single_survivor(self):
        lw = np.full(50, -np.inf)
        lw[13] = -2.0
        assert effective_sample_size(lw) == pytest.approx(1.0)

    def test_hand_computed(self):
        # weights (1, 3): (1+3)^2 / (1+9) = 1.6
        assert effective_sample_size(np.log([1.0, 3.0])) == pytest.approx(1.6)

    def test_all_zero_rejected(self):
        with pytest.raises(EstimationFailureError):
            effective_sample_size(np.full(10, -np.inf))

    def test_shift_invariant(self):
        lw = np.random.default_rng(0).normal(size=200)
        assert effective_sample_size(lw) == pytest.approx(
            effective_sample_size(lw + 123.4)
        )

    def test_stderr_matches_direct_formula(self):
        lw = np.random.default_rng(1).normal(size=500)
        w = np.exp(lw)
        direct = w.std(ddof=1) / (w.mean() * math.sqrt(w.size))
        assert log_weight_stderr(lw) == pytest.approx(direct, rel=1e-9)


class TestWorkloadGain:
    @pytest.mark.parametrize(
        "M,T,A,k,expected",
        [
            (1_000, 10_000, 1, 2, 0.55),
            (1_000, 10_000, 1, 3, 0.25),
            (1_000, 10_000, 1.73, 2, 0.88),
            (1_000, 10_000, 2.18, 3, 0.43),
            (1_000, 10_000, 1.00, 3, 0.25),
            (1_000, 10_000, 2.10, 4, 0.18),
            (1_000, 10_000, 1.06, 3, 0.26),
            (1_000, 10_000, 13.34, 4, 0.60),
            (1_000, 10_000, 176.78, 6, 0.32),
        ],
    )
    def test_reference_values(self, M, T, A, k, expected):
        assert workload_gain(M, T, A, k) == pytest.approx(expected, abs=5e-3)

    def test_no_truncation_no_gain(self):
        assert workload_gain(1_000, 10_000, 6, 3) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            workload_gain(100, 10, 1, 2)
        with pytest.raises(ValueError):
            workload_gain(10, 100, 7, 3)


class TestProposals:
    def test_plugin_symmetry(self, tiny_two_group_data_module, fixed_prior_module,
                             tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        prop = build_plugin_proposal(tiny_two_group_data_module, fixed_prior_module, pivot)
        theta = random_params(2, 5)
        batch = ParamsBatch.from_params(
            [theta.permuted(s) for s in enumerate_permutations(2)]
        )
        values = prop.log_q(batch)
        np.testing.assert_allclose(values, values[0], atol=1e-12)

    def test_dual_proposal_symmetry(self, tiny_two_group_data_module,
                                    fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=20, rng=RngStream(4))
        theta = random_params(2, 6)
        batch = ParamsBatch.from_params(
            [theta.permuted(s) for s in enumerate_permutations(2)]
        )
        values = prop.log_q(batch)
        np.testing.assert_allclose(values, values[0], atol=1e-12)

    def test_h_sigma_equivariance(self, tiny_two_group_data_module,
                                  fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=10, rng=RngStream(5))
        theta = random_params(2, 7)
        for sigma in enumerate_permutations(2):
            lhs = h_sigma(prop, sigma, theta)
            rhs = h_sigma(prop, Permutation.identity(2),
                          theta.permuted(sigma.inverse()))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_q_is_average_of_clusters(self, tiny_two_group_data_module,
                                      fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=10, rng=RngStream(6))
        theta = random_params(2, 8)
        batch = ParamsBatch.from_params([theta])
        log_hs = [h_sigma(prop, s, theta) for s in enumerate_permutations(2)]
        expected = log_sum_exp(np.array(log_hs)) - math.log(2)
        assert prop.log_q(batch)[0] == pytest.approx(expected, abs=1e-12)

    def test_j1_dual_equals_plugin_density(self, tiny_two_group_data_module,
                                           fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        # force the J=1 subsample to be a known draw, then compare with the
        # plugin proposal built from that same draw
        dual = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=1, rng=RngStream(7))
        t = int(np.sort(RngStream(7).generator.choice(len(rel), size=1, replace=False))[0])
        plugin = build_plugin_proposal(
            tiny_two_group_data_module, fixed_prior_module, rel.draw(t)
        )
        batch = ParamsBatch.from_params([random_params(2, s) for s in range(4)])
        np.testing.assert_allclose(
            dual.log_q(batch), plugin.log_q(batch), atol=1e-12
        )

    def test_permuted_mixture_is_single_cluster(self, tiny_two_group_data_module,
                                                fixed_prior_module, tiny_chain):
        prop = build_permuted_mixture(tiny_chain, tiny_two_group_data_module,
                                      fixed_prior_module, J1=50, rng=RngStream(8))
        assert prop.n_clusters == 1
        assert prop.log_cluster_norm == 0.0
        batch = ParamsBatch.from_params([random_params(2, 11)])
        assert np.isfinite(prop.log_q(batch)[0])

    def test_j_larger_than_chain_rejected(self, tiny_two_group_data_module,
                                          fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        with pytest.raises(ValueError, match="exceeds"):
            build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                J=len(rel) + 1, rng=RngStream(9))

    def test_scalar_block_density_consistency(self, tiny_two_group_data_module,
                                              fixed_prior_module, tiny_chain):
        # h of a single-draw proposal equals the plain block density
        params, alloc = tiny_chain.draw(0)
        plugin = build_plugin_proposal(tiny_two_group_data_module, fixed_prior_module,
                                       (params, alloc))
        theta = random_params(2, 13)
        direct = log_block_density(theta, (params, alloc), tiny_two_group_data_module,
                                   fixed_prior_module)
        assert h_sigma(plugin, Permutation.identity(2), theta) == pytest.approx(
            direct, abs=1e-10
        )


class TestSeparatedClusterGap:
    def test_other_cluster_underflows(self):
        """With well-separated groups, the swapped cluster is negligible."""
        rng = np.random.default_rng(2)
        data = Dataset(np.sort(np.concatenate([
            rng.normal(-1.0, 1.0, 18), rng.normal(5.0, 2.0, 42),
        ])), "d1ish")
        prior = FixedPrior(var_shape=2.0, var_scale=3.0)
        chain = run_gibbs(data, prior, 2,
                          GibbsConfig(iterations=3_000, burn_in=1_000, seed=4),
                          rng=RngStream(44).substream("gibbs"))
        pivot = select_pivot(chain, data, prior)
        rel = relabel_chain(chain, pivot[0])
        prop = build_dual_proposal(rel, data, prior, J=50, rng=RngStream(10))
        batch = prop.sample(200, RngStream(11))
        log_h = prop.log_h(batch)
        gaps = log_h[:, 0] - log_h[:, 1]
        assert np.all(gaps > 180.0)


class TestImportanceEstimate:
    def test_k1_matches_quadrature(self, tiny_two_group_data_module, fixed_prior_module):
        chain = run_gibbs(tiny_two_group_data_module, fixed_prior_module, 1,
                          GibbsConfig(iterations=3_000, burn_in=1_000, seed=5),
                          rng=RngStream(50).substream("gibbs"))
        pivot = select_pivot(chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=50, rng=RngStream(12))
        est = importance_estimate(prop, 4_000, RngStream(13))
        assert est.log_evidence == pytest.approx(
            TINY8_LOGE_K1, abs=max(3 * est.se_log, 0.02)
        )

    def test_k2_matches_enumeration(self, tiny_two_group_data_module,
                                    fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=100, rng=RngStream(14))
        est = importance_estimate(prop, 6_000, RngStream(15))
        assert est.log_evidence == pytest.approx(
            TINY8_LOGE_K2, abs=max(3 * est.se_log, 0.03)
        )

    def test_k3_matches_enumeration(self, tiny3_data, fixed_prior_module):
        chain = run_gibbs(tiny3_data, fixed_prior_module, 3,
                          GibbsConfig(iterations=4_000, burn_in=1_000, seed=6),
                          rng=RngStream(60).substream("gibbs"))
        pivot = select_pivot(chain, tiny3_data, fixed_prior_module)
        rel = relabel_chain(chain, pivot[0])
        prop = build_dual_proposal(rel, tiny3_data, fixed_prior_module,
                                   J=100, rng=RngStream(16))
        est = importance_estimate(prop, 6_000, RngStream(17))
        assert est.log_evidence == pytest.approx(
            TINY6_LOGE_K3, abs=max(3 * est.se_log, 0.05)
        )

    def test_evaluation_count_full(self, tiny_two_group_data_module,
                                   fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=25, rng=RngStream(18))
        T = 500
        est = importance_estimate(prop, T, RngStream(19))
        assert est.density_evaluations == T * 25 * 2
        assert est.posterior_evaluations == T

    def test_evaluation_count_truncated(self, tiny_two_group_data_module,
                                        fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=25, rng=RngStream(18))
        T, M = 500, 100
        est = importance_estimate(prop, T, RngStream(19), truncated=True, M=M)
        A = est.report.A_size
        expected = M * 25 * 2 + (T - M) * 25 * A
        assert est.density_evaluations == expected
        # the spec's bookkeeping identity: (M + (T-M)|A|/k!) J k!
        assert expected == round((M + (T - M) * A / 2) * 25 * 2)

    def test_truncated_equals_full_with_shared_stream(
        self, tiny_two_group_data_module, fixed_prior_module, tiny_chain
    ):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=50, rng=RngStream(20))
        full = importance_estimate(prop, 2_000, RngStream(21))
        trunc = importance_estimate(prop, 2_000, RngStream(21), truncated=True, M=400)
        assert abs(full.log_evidence - trunc.log_evidence) < 1e-6
        assert abs(full.ess - trunc.ess) / full.ess < 1e-6

    def test_plugin_sampling_symmetrized(self, tiny_two_group_data_module,
                                         fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        prop = build_plugin_proposal(tiny_two_group_data_module, fixed_prior_module, pivot)
        batch = prop.sample(4_000, RngStream(22))
        # random relabelling puts the smaller mean in slot 0 about half the time
        frac = float(np.mean(np.argmin(batch.means, axis=1) == 0))
        assert abs(frac - 0.5) < 0.05

    def test_record_is_json_serializable(self, tiny_two_group_data_module,
                                         fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=10, rng=RngStream(23))
        est = importance_estimate(prop, 200, RngStream(24), truncated=True, M=50)
        payload = json.dumps(est.as_record())
        assert "log_evidence" in payload


class TestCalibration:
    def test_eta_rows_normalized(self, tiny_two_group_data_module, fixed_prior_module,
                                 tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=30, rng=RngStream(25))
        batch = prop.sample(300, RngStream(26))
        log_h = prop.log_h(batch)
        from mixevidence.estimators import _rank_contributions

        log_eta, eta_bar, order = _rank_contributions(log_h)
        np.testing.assert_allclose(np.exp(log_eta).sum(axis=1), 1.0, atol=1e-9)
        assert eta_bar.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(eta_bar[order]) <= 1e-15)

    def test_phi_trace_monotone_and_exact_zero(self, tiny_two_group_data_module,
                                               fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=30, rng=RngStream(25))
        report = importance_estimate(prop, 2_000, RngStream(27), truncated=True, M=300).report
        assert np.all(np.diff(report.phi_trace) <= 1e-18)
        assert report.phi_trace[-1] == 0.0
        assert 1 <= report.A_size <= 2
        assert report.delta == pytest.approx(
            workload_gain(300, 2_000, report.A_size, 2)
        )

    def test_tau_validation(self, tiny_two_group_data_module, fixed_prior_module,
                            tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=10, rng=RngStream(28))
        with pytest.raises(ValueError):
            importance_estimate(prop, 50, RngStream(29), truncated=True, M=50, tau=0.0)

    def test_huge_tau_keeps_one_cluster(self, tiny_two_group_data_module,
                                        fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        rel = relabel_chain(tiny_chain, pivot[0])
        prop = build_dual_proposal(rel, tiny_two_group_data_module, fixed_prior_module,
                                   J=10, rng=RngStream(28))
        report = importance_estimate(prop, 50, RngStream(29), truncated=True, M=50,
                                     tau=1.0).report
        assert report.A_size == 1


class TestChib:
    def test_k1_matches_quadrature(self, tiny_two_group_data_module, fixed_prior_module):
        chain = run_gibbs(tiny_two_group_data_module, fixed_prior_module, 1,
                          GibbsConfig(iterations=4_000, burn_in=1_000, seed=8),
                          rng=RngStream(80).substream("gibbs"))
        pivot = select_pivot(chain, tiny_two_group_data_module, fixed_prior_module)
        for mode in ("plain", "k_fact", "permutation_averaged"):
            est = chib(tiny_two_group_data_module, fixed_prior_module, chain, pivot, mode)
            assert est.log_evidence == pytest.approx(TINY8_LOGE_K1, abs=1e-3 + 3 * est.se_log)
            assert est.ess == est.n_particles == len(chain)

    def test_k2_perm_averaged_matches_enumeration(self, tiny_two_group_data_module,
                                                  fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        est = chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain, pivot,
                   "permutation_averaged")
        assert est.log_evidence == pytest.approx(
            TINY8_LOGE_K2, abs=max(3 * est.se_log, 0.05)
        )

    def test_invariant_to_global_chain_permutation(self, tiny_two_group_data_module,
                                                   fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        base = chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain, pivot,
                    "permutation_averaged")
        permuted = permute_chain(tiny_chain, RngStream(31))
        moved = chib(tiny_two_group_data_module, fixed_prior_module, permuted, pivot,
                     "permutation_averaged")
        assert moved.log_evidence == pytest.approx(base.log_evidence, abs=1e-10)

    def test_kfact_is_plain_plus_logk_factorial(self, tiny_two_group_data_module,
                                                fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        plain = chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain, pivot,
                     "plain")
        kfact = chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain, pivot,
                     "k_fact")
        assert kfact.log_evidence == pytest.approx(
            plain.log_evidence + math.log(2), abs=1e-12
        )

    def test_unsupported_pivot_raises(self, tiny_two_group_data_module,
                                      fixed_prior_module, tiny_chain):
        # a variance this small underflows every ordinate term to -inf
        bad = MixtureParams([0.5, 0.5], [0.0, 1.0], [1e-310, 1.0])
        alloc = Allocation(np.zeros(tiny_two_group_data_module.n, dtype=int))
        # the typed error, with no floating-point warning on the way
        with pytest.raises(EstimationFailureError, match="pivot"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain,
                 (bad, alloc), "plain")

    def test_unknown_mode_rejected(self, tiny_two_group_data_module,
                                   fixed_prior_module, tiny_chain):
        pivot = select_pivot(tiny_chain, tiny_two_group_data_module, fixed_prior_module)
        with pytest.raises(ValueError):
            chib(tiny_two_group_data_module, fixed_prior_module, tiny_chain, pivot,
                 "bogus")


class TestBridge:
    def test_k1_matches_quadrature_and_stabilizes(self, tiny_two_group_data_module,
                                                  fixed_prior_module):
        chain = run_gibbs(tiny_two_group_data_module, fixed_prior_module, 1,
                          GibbsConfig(iterations=4_000, burn_in=1_000, seed=9),
                          rng=RngStream(90).substream("gibbs"))
        prop = build_permuted_mixture(chain, tiny_two_group_data_module,
                                      fixed_prior_module, J1=300, rng=RngStream(32))
        est = bridge_sampling(tiny_two_group_data_module, fixed_prior_module, prop,
                              M1=2_000, M2=2_000, iterations=10, rng=RngStream(33),
                              posterior_chain=chain)
        assert est.log_evidence == pytest.approx(TINY8_LOGE_K1, abs=0.05)
        assert abs(est.trace[-1] - est.trace[-2]) < 1e-4
        assert len(est.trace) == 11

    def test_k2_matches_enumeration(self, tiny_two_group_data_module,
                                    fixed_prior_module, tiny_chain):
        permuted = permute_chain(tiny_chain, RngStream(34))
        prop = build_permuted_mixture(tiny_chain, tiny_two_group_data_module,
                                      fixed_prior_module, J1=400, rng=RngStream(35))
        est = bridge_sampling(tiny_two_group_data_module, fixed_prior_module, prop,
                              M1=2_000, M2=2_000, iterations=10, rng=RngStream(36),
                              posterior_chain=permuted)
        assert est.log_evidence == pytest.approx(TINY8_LOGE_K2, abs=0.08)

    def test_counting(self, tiny_two_group_data_module, fixed_prior_module, tiny_chain):
        prop = build_permuted_mixture(tiny_chain, tiny_two_group_data_module,
                                      fixed_prior_module, J1=100, rng=RngStream(37))
        est = bridge_sampling(tiny_two_group_data_module, fixed_prior_module, prop,
                              M1=500, M2=600, iterations=3, rng=RngStream(38),
                              posterior_chain=tiny_chain)
        assert est.density_evaluations == (500 + 600) * 100

    def test_m2_too_large_rejected(self, tiny_two_group_data_module,
                                   fixed_prior_module, tiny_chain):
        prop = build_permuted_mixture(tiny_chain, tiny_two_group_data_module,
                                      fixed_prior_module, J1=10, rng=RngStream(39))
        with pytest.raises(ValueError, match="M2"):
            bridge_sampling(tiny_two_group_data_module, fixed_prior_module, prop,
                            M1=10, M2=len(tiny_chain) + 1, iterations=2,
                            rng=RngStream(40), posterior_chain=tiny_chain)
