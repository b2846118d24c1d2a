"""Pivot-based relabelling of Gibbs output.

Label switching is removed by recentering: each draw is mapped by the
label permutation that brings it closest to a reference state in
standardized (mean, log variance, log weight) coordinates, searching all
k! permutations exactly.  `alignment` returns the per-draw permutations,
so the transform is reproducible and invertible.
"""

from __future__ import annotations

import numpy as np

from .gibbs import GibbsChain, permute_draws, select_pivot
from .model import Dataset, MixtureParams, PriorSpec
from .numerics import permutation_matrix

__all__ = ["alignment", "relabel_chain", "reference_from_pivot"]


def _coords(weights, means, variances) -> np.ndarray:
    logw = np.log(np.maximum(weights, 1e-300))
    return np.stack([means, np.log(variances), logw], axis=-1)


def alignment(chain: GibbsChain, reference: MixtureParams) -> np.ndarray:
    """Per draw, the row of permutation_matrix(k) that brings it closest to
    `reference`; ties pick the lexicographically first row."""
    k = chain.k
    if reference.k != k:
        raise ValueError("reference has a different number of components")
    rows = permutation_matrix(k)

    coords = _coords(chain.weights, chain.means, chain.variances)  # (T, k, 3)
    ref = _coords(reference.weights, reference.means, reference.variances)  # (k, 3)

    # Pooled per-coordinate scales; pooling over draws and components keeps
    # the metric invariant to any relabelling of the input chain.
    scales = coords.reshape(-1, 3).std(axis=0)
    scales[scales == 0] = 1.0
    coords = coords / scales
    ref = ref / scales

    dists = np.empty((len(chain), len(rows)))
    for p, row in enumerate(rows):
        dists[:, p] = np.sum((coords[:, row, :] - ref[None, :, :]) ** 2, axis=(1, 2))
    return np.argmin(dists, axis=1)


def relabel_chain(chain: GibbsChain, reference: MixtureParams) -> GibbsChain:
    """Every draw relabelled by its `alignment` to `reference`."""
    return permute_draws(chain, alignment(chain, reference))


def reference_from_pivot(chain: GibbsChain, data: Dataset, prior: PriorSpec) -> MixtureParams:
    """The recentering reference: the chain's highest-posterior draw."""
    params, _ = select_pivot(chain, data, prior)
    return params
