"""Evidence estimation for univariate Gaussian mixture models.

A Gibbs sampler over the augmented mixture model feeds a family of
marginal-likelihood estimators: candidate-point (Chib-style) identities,
importance sampling with symmetrized Rao-Blackwell proposals built from
relabelled Gibbs draws, a truncated variant that skips numerically
negligible permutation clusters, and iterative bridge sampling.
"""

from .numerics import (
    Permutation,
    PermutationCapacityError,
    RngStream,
    enumerate_permutations,
    log_sum_exp,
)
from .model import (
    Allocation,
    Dataset,
    FixedPrior,
    HierarchicalPrior,
    MixtureParams,
    PriorSpec,
    log_likelihood,
    log_prior,
)
from .gibbs import (
    GibbsChain,
    GibbsConfig,
    permute_draws,
    random_permutation_step,
    run_gibbs,
    select_pivot,
)
from .relabel import alignment, reference_from_pivot, relabel_chain
from .estimators import (
    ContributionReport,
    DualProposal,
    EstimationFailureError,
    EvidenceEstimate,
    bridge_sampling,
    build_dual_proposal,
    build_permuted_mixture,
    build_plugin_proposal,
    chib,
    effective_sample_size,
    h_sigma,
    importance_estimate,
    workload_gain,
)
from .datasets import MixtureSpec, builtin_dataset, generate_dataset, load_dataset
from .harness import ExperimentConfig, RunRecord, run_experiment, summarize
from .oracle import evidence_quadrature_k1, posterior_moments_k1

__version__ = "0.1.0"
