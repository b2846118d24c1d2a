"""Evidence estimation for univariate Gaussian mixture models.

A Gibbs sampler over the augmented mixture model feeds a family of
marginal-likelihood estimators: candidate-point (Chib-style) identities,
importance sampling with symmetrized Rao-Blackwell proposals built from
relabelled Gibbs draws, a truncated variant that skips numerically
negligible permutation clusters, and iterative bridge sampling.  A label
permutation applied to draws is a (k,) gather row (`permutation_rows`
decodes one from its lexicographic index); only the permutation clusters
of the symmetrized proposals and of Chib's permutation average enumerate
all of S_k.  A parameter state is a row of a `ParamsBatch`, and every
density is evaluated on batches; a `GibbsChain` is the batch of stored
draws with their allocations, and the pivot, like any single draw, is a
one-draw chain.
"""

from .numerics import (
    PermutationCapacityError,
    RngStream,
    log_sum_exp,
    permutation_rows,
)
from .model import (
    Dataset,
    FixedPrior,
    HierarchicalPrior,
    PriorSpec,
)
from .gibbs import (
    DegenerateStateError,
    GibbsChain,
    GibbsConfig,
    permute_chain,
    permute_draws,
    run_gibbs,
    select_pivot,
)
from .relabel import alignment, relabel_chain
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
    importance_estimate,
    workload_gain,
)
from .datasets import MixtureSpec, builtin_dataset, generate_dataset, load_dataset
from .harness import ExperimentConfig, RunRecord, run_experiment, summarize

__version__ = "0.1.0"
