import math

import numpy as np
import pytest
from scipy import integrate

from mixevidence.model import Dataset, FixedPrior

from oracle import (
    evidence_enumeration,
    evidence_quadrature_k1,
    log_marginal_group,
    posterior_moments_k1,
)
from reference import MixtureParams, log_likelihood, log_prior
from test_estimators import TINY6_LOGE_K3, TINY8_LOGE_K1, TINY8_LOGE_K2


class TestQuadratureEvidence:
    def test_routes_agree(self, tiny_two_group_data, fixed_prior):
        """2-D adaptive quadrature vs the analytic-mean 1-D reduction."""
        two_d = evidence_quadrature_k1(tiny_two_group_data, fixed_prior)
        one_d = log_marginal_group(tiny_two_group_data.observations, fixed_prior)
        assert two_d == pytest.approx(one_d, abs=1e-5)

    def test_frozen_value(self, tiny_two_group_data, fixed_prior):
        assert evidence_quadrature_k1(tiny_two_group_data, fixed_prior) == pytest.approx(
            TINY8_LOGE_K1, abs=1e-6
        )

    def test_empty_group_contributes_nothing(self, fixed_prior):
        assert log_marginal_group(np.array([]), fixed_prior) == 0.0

    def test_single_point_group(self, fixed_prior):
        # one observation: E = int N(x; mu, var) dPrior, cross-checked by
        # direct 2-D quadrature over a generous window
        x0 = 1.7
        got = log_marginal_group(np.array([x0]), fixed_prior)

        def joint(var, mu):
            p = MixtureParams([1.0], [mu], [var])
            d = Dataset(np.array([x0]))
            return math.exp(log_prior(p, fixed_prior) + log_likelihood(d, p))

        ref, _ = integrate.dblquad(joint, -60, 60, 1e-4, 2e3,
                                   epsabs=1e-10, epsrel=1e-8)
        assert got == pytest.approx(math.log(ref), abs=1e-4)

    def test_posterior_moments_sane(self, small_normal_data, fixed_prior):
        mom = posterior_moments_k1(small_normal_data, fixed_prior)
        x = small_normal_data.observations
        assert mom["mean_mu"] == pytest.approx(float(x.mean()), abs=0.15)
        assert 0.5 < mom["mean_var"] < 2.0
        assert mom["var_mu"] > 0 and mom["var_var"] > 0

    def test_normalized_posterior_grid_consistency(self, small_normal_data, fixed_prior):
        """exp(log joint - log evidence) integrates to 1 on a fine grid."""
        log_e = evidence_quadrature_k1(small_normal_data, fixed_prior)
        mom = posterior_moments_k1(small_normal_data, fixed_prior)
        mu_grid = np.linspace(
            mom["mean_mu"] - 8 * math.sqrt(mom["var_mu"]),
            mom["mean_mu"] + 8 * math.sqrt(mom["var_mu"]),
            200,
        )
        var_grid = np.geomspace(
            max(mom["mean_var"] - 8 * math.sqrt(mom["var_var"]), 1e-3),
            mom["mean_var"] + 10 * math.sqrt(mom["var_var"]),
            200,
        )
        dens = np.empty((200, 200))
        for i, mu in enumerate(mu_grid):
            for j, var in enumerate(var_grid):
                p = MixtureParams([1.0], [mu], [var])
                dens[i, j] = math.exp(
                    log_prior(p, fixed_prior)
                    + log_likelihood(small_normal_data, p)
                    - log_e
                )
        total = integrate.simpson(integrate.simpson(dens, x=var_grid, axis=1), x=mu_grid)
        assert total == pytest.approx(1.0, abs=2e-6)


class TestEnumerationEvidence:
    def test_frozen_k2_value(self, tiny_two_group_data, fixed_prior):
        got = evidence_enumeration(tiny_two_group_data, fixed_prior, 2)
        assert got == pytest.approx(TINY8_LOGE_K2, abs=1e-6)

    def test_frozen_k3_value(self, fixed_prior):
        rng = np.random.default_rng(21)
        x = np.sort(np.concatenate([
            rng.normal(-4.0, 0.6, 2), rng.normal(0.5, 0.8, 2), rng.normal(5.0, 0.7, 2),
        ]))
        got = evidence_enumeration(Dataset(x, "tiny3"), fixed_prior, 3)
        assert got == pytest.approx(TINY6_LOGE_K3, abs=1e-6)

    def test_k1_reduces_to_quadrature(self, tiny_two_group_data, fixed_prior):
        got = evidence_enumeration(tiny_two_group_data, fixed_prior, 1)
        assert got == pytest.approx(TINY8_LOGE_K1, abs=1e-6)

    def test_size_guard(self, small_normal_data, fixed_prior):
        with pytest.raises(ValueError, match="terms"):
            evidence_enumeration(small_normal_data, fixed_prior, 3)
