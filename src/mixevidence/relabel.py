"""Pivot-based relabelling of Gibbs output.

Label switching is removed by recentering: each draw is mapped by the
label permutation that brings it closest to a reference draw, a one-draw
chain (in the pipeline, the pivot `gibbs.select_pivot` returns), in
standardized (mean, log variance, log weight) coordinates.  The distance
is a sum over matched components, so the closest permutation is a linear
assignment on the k x k matrix of component-pair costs, solved exactly
without enumerating S_k.  `alignment` returns the per-draw gather rows, so
the transform is reproducible and invertible.  The assignment is scipy's,
imported on first use: `scipy.optimize` takes about half a second to load,
and nothing else that `import mixevidence` loads needs scipy, so a process
that never relabels never pays for it.
"""

from __future__ import annotations

import numpy as np

from .gibbs import GibbsChain, permute_draws

__all__ = ["alignment", "relabel_chain"]


def _coords(weights, means, variances) -> np.ndarray:
    logw = np.log(np.maximum(weights, 1e-300))
    return np.stack([means, np.log(variances), logw], axis=-1)


def alignment(chain: GibbsChain, reference: GibbsChain) -> np.ndarray:
    """Per draw, the (k,) gather row that brings it closest to the one draw
    of `reference`, as a (T, k) array.

    Row t minimizes the sum over labels i of cost[t, i, row[i]], the
    standardized squared distance between reference component i and
    component row[i] of draw t.  Ties follow `linear_sum_assignment`.
    """
    # on first use, not with the module: scipy.optimize takes about 0.5 s to import
    from scipy.optimize import linear_sum_assignment

    k = chain.k
    if reference.k != k:
        raise ValueError("reference has a different number of components")
    if len(reference) != 1:
        raise ValueError(f"reference must be a one-draw chain, not {len(reference)} draws")

    coords = _coords(chain.weights, chain.means, chain.variances)  # (T, k, 3)
    ref = _coords(reference.weights[0], reference.means[0], reference.variances[0])  # (k, 3)

    # Pooled per-coordinate scales; pooling over draws and components keeps
    # the metric invariant to any relabelling of the input chain.
    scales = coords.reshape(-1, 3).std(axis=0)
    scales[scales == 0] = 1.0
    coords = coords / scales
    ref = ref / scales

    # (T, i, c), summed per coordinate so that no (T, k, k, 3) temporary is made
    cost = np.zeros((len(chain), k, k))
    for d in range(3):
        cost += (coords[:, None, :, d] - ref[None, :, None, d]) ** 2
    rows = np.empty((len(chain), k), dtype=np.intp)
    for t, pair_cost in enumerate(cost):
        rows[t] = linear_sum_assignment(pair_cost)[1]
    return rows


def relabel_chain(chain: GibbsChain, reference: GibbsChain) -> GibbsChain:
    """Every draw relabelled by its `alignment` to `reference`."""
    return permute_draws(chain, alignment(chain, reference))
