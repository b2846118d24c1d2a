import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from mixevidence import model
from mixevidence.gibbs import GibbsChain, GibbsConfig, permute_chain, run_gibbs, select_pivot
from mixevidence.harness import ExperimentConfig, parse_prior, replicate_chains, resolve_dataset
from mixevidence.model import Dataset, FixedPrior, log_posterior_batch
from mixevidence.numerics import RngStream
from mixevidence.relabel import _assign, alignment, relabel_chain

from reference import (
    log_likelihood,
    log_prior,
    nearest_relabelling,
    permute_labels,
    permute_params,
    scalar_draw,
)


def _chain_from_arrays(weights, means, variances, n_obs=10) -> GibbsChain:
    T = means.shape[0]
    return GibbsChain(
        weights=weights,
        means=means,
        variances=variances,
        allocations=np.zeros((T, n_obs), dtype=np.int16),
        betas=None,
    )


@pytest.fixture()
def aligned_chain() -> GibbsChain:
    rng = np.random.default_rng(0)
    T, k = 50, 2
    means = np.stack([rng.normal(-1, 0.1, T), rng.normal(5, 0.1, T)], axis=1)
    variances = np.stack([rng.gamma(20, 0.05, T), rng.gamma(20, 0.2, T)], axis=1)
    weights = rng.dirichlet((30, 70), size=T)
    return _chain_from_arrays(weights, means, variances)


def _reference(chain: GibbsChain) -> GibbsChain:
    return chain[0]


class TestRelabelChain:
    def test_aligned_chain_gets_identities(self, aligned_chain):
        ref = _reference(aligned_chain)
        np.testing.assert_array_equal(alignment(aligned_chain, ref), [[0, 1]] * 50)
        rel = relabel_chain(aligned_chain, ref)
        np.testing.assert_array_equal(rel.means, aligned_chain.means)

    def test_flipped_chain_recovered(self, aligned_chain):
        flipped = GibbsChain(
            weights=aligned_chain.weights[:, ::-1].copy(),
            means=aligned_chain.means[:, ::-1].copy(),
            variances=aligned_chain.variances[:, ::-1].copy(),
            allocations=(1 - aligned_chain.allocations).astype(np.int16),
            betas=None,
        )
        ref = _reference(aligned_chain)
        np.testing.assert_array_equal(alignment(flipped, ref), [[1, 0]] * 50)
        rel = relabel_chain(flipped, ref)
        np.testing.assert_allclose(rel.means, aligned_chain.means)
        np.testing.assert_array_equal(rel.allocations, aligned_chain.allocations)

    def test_recorded_permutation_reproduces_output(self, aligned_chain):
        mixed = permute_chain(aligned_chain, RngStream(1))
        ref = _reference(aligned_chain)
        applied = alignment(mixed, ref)
        rel = relabel_chain(mixed, ref)
        for t in range(0, len(mixed), 7):
            row = applied[t]
            params, alloc = scalar_draw(mixed, t)
            out_params, out_alloc = scalar_draw(rel, t)
            np.testing.assert_array_equal(permute_params(params, row).means, out_params.means)
            np.testing.assert_array_equal(permute_labels(alloc, row).labels, out_alloc.labels)

    def test_idempotent(self, aligned_chain):
        mixed = permute_chain(aligned_chain, RngStream(2))
        ref = _reference(aligned_chain)
        once = relabel_chain(mixed, ref)
        np.testing.assert_array_equal(alignment(once, ref), [[0, 1]] * 50)
        twice = relabel_chain(once, ref)
        np.testing.assert_array_equal(twice.means, once.means)

    def test_invariant_to_global_permutation(self, aligned_chain):
        """A global relabelling of the input must not change the output draws."""
        ref = _reference(aligned_chain)
        mixed = permute_chain(aligned_chain, RngStream(3))
        base = relabel_chain(mixed, ref)
        flip = np.array([1, 0])
        globally_flipped = GibbsChain(
            weights=mixed.weights[:, flip].copy(),
            means=mixed.means[:, flip].copy(),
            variances=mixed.variances[:, flip].copy(),
            allocations=np.argsort(flip)[mixed.allocations.astype(np.intp)].astype(np.int16),
            betas=None,
        )
        again = relabel_chain(globally_flipped, ref)
        np.testing.assert_allclose(again.means, base.means, atol=1e-12)
        np.testing.assert_array_equal(again.allocations, base.allocations)

    def test_mismatched_reference_rejected(self, aligned_chain):
        wider = _chain_from_arrays(np.full((1, 3), 1 / 3), np.zeros((1, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="different number of components"):
            relabel_chain(aligned_chain, wider)
        with pytest.raises(ValueError, match="different number of components"):
            alignment(aligned_chain, wider)

    @pytest.mark.parametrize("draws", [0, 2])
    def test_reference_of_other_length_rejected(self, aligned_chain, draws):
        with pytest.raises(ValueError, match="one-draw chain"):
            alignment(aligned_chain, aligned_chain[:draws])
        with pytest.raises(ValueError, match="one-draw chain"):
            relabel_chain(aligned_chain, aligned_chain[:draws])

    def test_reference_indexing_forms_agree(self, aligned_chain):
        """chain[t], chain[[t]] and chain[t:t + 1] are the same reference."""
        mixed = permute_chain(aligned_chain, RngStream(5))
        np.testing.assert_array_equal(alignment(mixed, aligned_chain[7]),
                                      alignment(mixed, aligned_chain[[7]]))
        np.testing.assert_array_equal(alignment(mixed, aligned_chain[7]),
                                      alignment(mixed, aligned_chain[7:8]))

    def test_switching_chain_variance_shrinks(self):
        """On a naturally switching chain the aligned mean trace tightens."""
        rng = np.random.default_rng(7)
        data = Dataset(
            np.concatenate([rng.normal(-4, 1, 30), rng.normal(4, 1, 30)]), "sep"
        )
        prior = FixedPrior(var_shape=2.0, var_scale=15.0)
        chain = permute_chain(run_gibbs(
            data, prior, 2, GibbsConfig(iterations=4_000, burn_in=500), rng=4,
        ), RngStream(4))
        assert chain.switch_flags.sum() > 100  # permutation moves force switching
        rel = relabel_chain(chain, select_pivot(chain, data, prior))
        for i in range(2):
            assert rel.means[:, i].std() < 0.8 * chain.means[:, i].std()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_alignment_matches_exhaustive_search(k):
    """The alignment is the permutation of least distance over all of S_k."""
    rng = np.random.default_rng(40 + k)
    T = 300
    chain = _chain_from_arrays(rng.dirichlet(np.full(k, 2.0), size=T),
                               rng.normal(0.0, 3.0, (T, k)), rng.gamma(3.0, 1.0, (T, k)))
    for ref in (chain[0], chain[T // 2]):
        np.testing.assert_array_equal(alignment(chain, ref), nearest_relabelling(chain, ref))


@pytest.mark.parametrize("k", [9, 10])
def test_relabel_undoes_permute_beyond_enumeration_cap(k):
    """Past the cap on listing S_k, relabelling a randomly permuted aligned
    chain to one of its draws gives back the chain."""
    rng = np.random.default_rng(k)
    T = 200
    labels = np.arange(k)
    chain = GibbsChain(weights=rng.dirichlet(2_000.0 * (1 + labels), size=T),
                       means=10.0 * labels + rng.normal(0.0, 0.1, (T, k)),
                       variances=np.exp(0.3 * labels) * rng.gamma(2_500.0, 1 / 2_500, (T, k)),
                       allocations=rng.integers(k, size=(T, 15)).astype(np.int16), betas=None)
    mixed = permute_chain(chain, RngStream(k))
    assert np.mean(np.all(mixed.means == chain.means, axis=1)) < 0.01
    rel = relabel_chain(mixed, chain[0])
    for name in ("weights", "means", "variances", "allocations"):
        np.testing.assert_array_equal(getattr(rel, name), getattr(chain, name), err_msg=name)


@st.composite
def _costs(draw, integer):
    """A (T, k, k) cost at k = 1...8: real, or in {0, 1, 2}, where ties are common."""
    k = draw(st.integers(1, 8))
    shape = (draw(st.integers(1, 12)), k, k)
    if integer:
        return draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0])))
    return draw(arrays(np.float64, shape,
                       elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))


class TestAssignment:
    @given(cost=st.one_of(_costs(integer=False), _costs(integer=True)))
    def test_columns_equal_linear_sum_assignment(self, cost):
        """Row for row, the lockstep solver gives scipy's columns, ties included."""
        want = [linear_sum_assignment(pair_cost)[1] for pair_cost in cost]
        np.testing.assert_array_equal(_assign(cost), want)

    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_all_tied_costs_give_scipy_columns(self, k):
        cost = np.zeros((2, k, k))
        np.testing.assert_array_equal(_assign(cost),
                                      [linear_sum_assignment(c)[1] for c in cost])

    @pytest.fixture(scope="class", params=[("d2", 3, "fixed:2,15"), ("galaxy", 4, "rg")],
                    ids=["d2", "galaxy"])
    def gibbs_chains(self, request):
        """A benchmark config's Gibbs chain, its randomly relabelled copy and its pivot."""
        dataset, k, prior = request.param
        config = ExperimentConfig(dataset=dataset, k=k, prior=prior, estimators=(),
                                  iterations=2_000, burn_in=500, seed=201)
        data = resolve_dataset(config)
        prior_spec = parse_prior(prior, data)
        _, chain, permuted = replicate_chains(config, data, prior_spec, 0)
        return chain, permuted, select_pivot(chain, data, prior_spec)

    def test_gibbs_chains_match_exhaustive_search(self, gibbs_chains):
        chain, permuted, pivot = gibbs_chains
        for draws in (chain, permuted):
            np.testing.assert_array_equal(alignment(draws, pivot),
                                          nearest_relabelling(draws, pivot))

    def test_blocks_do_not_change_the_rows(self, gibbs_chains, monkeypatch):
        chain, permuted, pivot = gibbs_chains
        whole = alignment(permuted, pivot)
        monkeypatch.setattr(model, "KERNEL_BUDGET", 3 * chain.k ** 2)  # 3-draw blocks
        np.testing.assert_array_equal(alignment(permuted, pivot), whole)


class TestDegenerateDraws:
    """A chain that cannot be relabelled is a ValueError raised before the
    assignment, with no floating-point warning first."""

    def test_zero_variance_names_the_draws(self, aligned_chain):
        variances = aligned_chain.variances.copy()
        variances[[7, 19, 19, 30], [0, 0, 1, 1]] = 0.0
        chain = _chain_from_arrays(aligned_chain.weights, aligned_chain.means, variances)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="3 draws .* the first is draw 7"):
                alignment(chain, aligned_chain[0])
            with pytest.raises(ValueError, match="3 draws .* the first is draw 7"):
                relabel_chain(chain, aligned_chain[0])

    def test_non_finite_reference_rejected(self, aligned_chain):
        variances = aligned_chain.variances[:1].copy()
        variances[0, 1] = 0.0
        reference = _chain_from_arrays(aligned_chain.weights[:1], aligned_chain.means[:1],
                                       variances)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="reference has a non-finite"):
                alignment(aligned_chain, reference)

    def test_empty_chain_rejected(self, aligned_chain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cannot relabel an empty chain"):
                alignment(aligned_chain[:0], aligned_chain[0])
            with pytest.raises(ValueError, match="cannot relabel an empty chain"):
                relabel_chain(aligned_chain[:0], aligned_chain[0])


class TestReference:
    def test_single_draw(self, aligned_chain):
        one = aligned_chain[0]
        data = Dataset(np.zeros(3) + 0.1)
        prior = FixedPrior()
        ref = select_pivot(one, data, prior)
        assert len(ref) == 1
        np.testing.assert_array_equal(ref.means, one.means)

    def test_reference_is_chain_map(self, small_normal_data, fixed_prior):
        chain = run_gibbs(
            small_normal_data, fixed_prior, 2,
            GibbsConfig(iterations=300, burn_in=100), rng=5,
        )
        ref, _ = scalar_draw(select_pivot(chain, small_normal_data, fixed_prior))
        best = log_prior(ref, fixed_prior) + log_likelihood(small_normal_data, ref)
        assert best == pytest.approx(
            log_posterior_batch(small_normal_data, fixed_prior, chain).max()
        )
