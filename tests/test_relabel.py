import numpy as np
import pytest

from mixevidence.gibbs import GibbsChain, GibbsConfig, permute_chain, run_gibbs
from mixevidence.model import Dataset, FixedPrior, MixtureParams
from mixevidence.numerics import Permutation, RngStream, permutation_matrix
from mixevidence.relabel import alignment, reference_from_pivot, relabel_chain

from conftest import random_params


def _chain_from_arrays(weights, means, variances, n_obs=10) -> GibbsChain:
    T, k = means.shape
    return GibbsChain(
        k=k,
        weights=weights,
        means=means,
        variances=variances,
        allocations=np.zeros((T, n_obs), dtype=np.int16),
        betas=None,
        switch_flags=np.zeros(T, dtype=bool),
    )


@pytest.fixture()
def aligned_chain() -> GibbsChain:
    rng = np.random.default_rng(0)
    T, k = 50, 2
    means = np.stack([rng.normal(-1, 0.1, T), rng.normal(5, 0.1, T)], axis=1)
    variances = np.stack([rng.gamma(20, 0.05, T), rng.gamma(20, 0.2, T)], axis=1)
    weights = rng.dirichlet((30, 70), size=T)
    return _chain_from_arrays(weights, means, variances)


def _reference(chain: GibbsChain) -> MixtureParams:
    return chain.draw(0)[0]


class TestRelabelChain:
    def test_aligned_chain_gets_identities(self, aligned_chain):
        ref = _reference(aligned_chain)
        assert np.all(alignment(aligned_chain, ref) == 0)
        rel = relabel_chain(aligned_chain, ref)
        np.testing.assert_array_equal(rel.means, aligned_chain.means)

    def test_flipped_chain_recovered(self, aligned_chain):
        flipped = GibbsChain(
            k=2,
            weights=aligned_chain.weights[:, ::-1].copy(),
            means=aligned_chain.means[:, ::-1].copy(),
            variances=aligned_chain.variances[:, ::-1].copy(),
            allocations=(1 - aligned_chain.allocations).astype(np.int16),
            betas=None,
            switch_flags=aligned_chain.switch_flags,
        )
        ref = _reference(aligned_chain)
        assert np.all(alignment(flipped, ref) == 1)  # the swap is row 1 for k=2
        rel = relabel_chain(flipped, ref)
        np.testing.assert_allclose(rel.means, aligned_chain.means)
        np.testing.assert_array_equal(rel.allocations, aligned_chain.allocations)

    def test_recorded_permutation_reproduces_output(self, aligned_chain):
        mixed = permute_chain(aligned_chain, RngStream(1))
        ref = _reference(aligned_chain)
        rows = permutation_matrix(2)
        applied = alignment(mixed, ref)
        rel = relabel_chain(mixed, ref)
        for t in range(0, len(mixed), 7):
            sigma = Permutation(tuple(rows[applied[t]]))
            params, alloc = mixed.draw(t)
            out_params, out_alloc = rel.draw(t)
            np.testing.assert_array_equal(
                sigma.apply_to_components(params.means), out_params.means
            )
            np.testing.assert_array_equal(
                sigma.apply_to_labels(alloc.labels), out_alloc.labels
            )

    def test_idempotent(self, aligned_chain):
        mixed = permute_chain(aligned_chain, RngStream(2))
        ref = _reference(aligned_chain)
        once = relabel_chain(mixed, ref)
        assert np.all(alignment(once, ref) == 0)
        twice = relabel_chain(once, ref)
        np.testing.assert_array_equal(twice.means, once.means)

    def test_invariant_to_global_permutation(self, aligned_chain):
        """A global relabelling of the input must not change the output draws."""
        ref = _reference(aligned_chain)
        mixed = permute_chain(aligned_chain, RngStream(3))
        base = relabel_chain(mixed, ref)
        rows = permutation_matrix(2)
        flip = rows[1]
        globally_flipped = GibbsChain(
            k=2,
            weights=mixed.weights[:, flip].copy(),
            means=mixed.means[:, flip].copy(),
            variances=mixed.variances[:, flip].copy(),
            allocations=np.argsort(flip)[mixed.allocations.astype(np.intp)].astype(np.int16),
            betas=None,
            switch_flags=mixed.switch_flags,
        )
        again = relabel_chain(globally_flipped, ref)
        np.testing.assert_allclose(again.means, base.means, atol=1e-12)
        np.testing.assert_array_equal(again.allocations, base.allocations)

    def test_mismatched_reference_rejected(self, aligned_chain):
        with pytest.raises(ValueError):
            relabel_chain(aligned_chain, random_params(3, 0))

    def test_switching_chain_variance_shrinks(self):
        """On a naturally switching chain the aligned mean trace tightens."""
        rng = np.random.default_rng(7)
        data = Dataset(
            np.concatenate([rng.normal(-4, 1, 30), rng.normal(4, 1, 30)]), "sep"
        )
        prior = FixedPrior(var_shape=2.0, var_scale=15.0)
        chain = run_gibbs(
            data, prior, 2,
            GibbsConfig(iterations=4_000, burn_in=500, random_permutation=True, seed=4),
        )
        assert chain.switch_flags.sum() > 100  # permutation moves force switching
        ref = reference_from_pivot(chain, data, prior)
        rel = relabel_chain(chain, ref)
        for i in range(2):
            assert rel.means[:, i].std() < 0.8 * chain.means[:, i].std()


class TestReference:
    def test_single_draw(self, aligned_chain):
        one = aligned_chain.subset([0])
        data = Dataset(np.zeros(3) + 0.1)
        prior = FixedPrior()
        ref = reference_from_pivot(one, data, prior)
        np.testing.assert_array_equal(ref.means, one.means[0])

    def test_reference_is_chain_map(self, small_normal_data, fixed_prior):
        from mixevidence.gibbs import chain_log_posterior
        from mixevidence.model import log_likelihood, log_prior

        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=300, burn_in=100, seed=5),
        )
        ref = reference_from_pivot(chain, small_normal_data, fixed_prior)
        best = log_prior(ref, fixed_prior) + log_likelihood(small_normal_data, ref)
        assert best == pytest.approx(
            chain_log_posterior(chain, small_normal_data, fixed_prior).max()
        )
