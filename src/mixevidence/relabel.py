"""Pivot-based relabelling of Gibbs output.

Label switching is removed by recentering: each draw is mapped by the
label permutation that brings it closest to a reference draw, a one-draw
chain (in the pipeline, the pivot `gibbs.select_pivot` returns), in
standardized (mean, log variance, log weight) coordinates.  The distance
is a sum over matched components, so the closest permutation is a linear
assignment on the k x k matrix of component-pair costs, solved exactly
without enumerating S_k.  `alignment` returns the per-draw gather rows, so
the transform is reproducible and invertible.

The assignment is the shortest augmenting path algorithm (Crouse 2016,
IEEE TAES 52(4)) that scipy's `linear_sum_assignment` implements, run in
lockstep over every draw of a block in numpy.  Each draw takes k augmentations, one per reference
component, and each augmentation's Dijkstra scan takes at most k steps, so
the work is O(k^3) per draw and the state of a block is a few (draws, k)
arrays.  The scan order, the arithmetic and the choice among columns at
the same reduced cost are scipy's, so ties are broken as scipy breaks them
and the rows equal its rows.
"""

from __future__ import annotations

import numpy as np

from . import model
from .gibbs import GibbsChain, permute_draws

__all__ = ["alignment", "relabel_chain"]


def _coords(weights, means, variances) -> np.ndarray:
    logw = np.log(np.maximum(weights, 1e-300))
    with np.errstate(divide="ignore", invalid="ignore"):  # a bad variance is reported, not warned
        logv = np.log(variances)
    return np.stack([means, logv, logw], axis=-1)


def _assign(cost: np.ndarray) -> np.ndarray:
    """Per draw of a (B, k, k) cost, the column of each row in the assignment
    of least total cost, as a (B, k) array: `linear_sum_assignment`'s
    columns, ties included.  Costs must be finite.

    Augmentation `row` runs, in every draw at once, the Dijkstra scan from
    `row` to a free column over reduced costs cost - u - v.  The unvisited
    columns are `remaining[:, :left]`, which starts as k-1 ... 0 and loses a
    visited column by a swap with its last entry; among the columns at the
    least path cost the scan takes the last free one in that order, or else
    the first one.  A draw leaves the scan when it reaches a free column, so
    the arrays of the scan are indexed by the draws still in it.
    """
    B, k, _ = cost.shape
    draws = np.arange(B)
    u = np.zeros((B, k))
    v = np.zeros((B, k))
    col4row = np.full((B, k), -1, dtype=np.intp)
    row4col = np.full((B, k), -1, dtype=np.intp)
    path = np.empty((B, k), dtype=np.intp)
    for row in range(k):
        sp = np.full((B, k), np.inf)  # shortest path cost to each column
        seen_rows = np.zeros((B, k), dtype=bool)
        seen_cols = np.zeros((B, k), dtype=bool)
        remaining = np.tile(np.arange(k - 1, -1, -1), (B, 1))
        min_val = np.zeros(B)
        sink = np.empty(B, dtype=np.intp)
        act, i = draws, np.full(B, row)
        # `row` columns are taken, so a scan reaches a free one in row + 1 steps
        for left in range(k, k - row - 1, -1):
            seen_rows[act, i] = True
            # scipy's order of operations, so that path costs tie where scipy's do
            r = min_val[act, None] + cost[act, i] - u[act, i][:, None] - v[act]
            sp_act = sp[act]
            better = (r < sp_act) & ~seen_cols[act]
            sp[act] = sp_act = np.where(better, r, sp_act)
            path[act] = np.where(better, i[:, None], path[act])
            rem = remaining[act, :left]
            vals = np.take_along_axis(sp_act, rem, 1)
            lowest = vals.min(axis=1)
            at_min = vals == lowest[:, None]
            free = at_min & (np.take_along_axis(row4col[act], rem, 1) < 0)
            found = free.any(axis=1)
            index = np.where(found, left - 1 - free[:, ::-1].argmax(axis=1), at_min.argmax(axis=1))
            j = rem[np.arange(len(act)), index]
            min_val[act] = lowest
            seen_cols[act, j] = True
            remaining[act, index] = rem[:, left - 1]
            sink[act[found]] = j[found]
            act, i = act[~found], row4col[act[~found], j[~found]]
            if not len(act):
                break
        # dual update; the rows the scan reached besides `row` are assigned
        u[:, row] += min_val
        seen_rows[:, row] = False
        sp_rows = np.take_along_axis(sp, np.maximum(col4row, 0), 1)
        u = np.where(seen_rows, u + (min_val[:, None] - sp_rows), u)
        v = np.where(seen_cols, v - (min_val[:, None] - sp), v)
        # augment along the path back from the sink
        act, j = draws, sink
        while len(act):
            i = path[act, j]
            row4col[act, j] = i
            previous = col4row[act, i]
            col4row[act, i] = j
            keep = i != row
            act, j = act[keep], previous[keep]
    return col4row


def alignment(chain: GibbsChain, reference: GibbsChain) -> np.ndarray:
    """Per draw, the (k,) gather row that brings it closest to the one draw
    of `reference`, as a (T, k) array.

    Row t minimizes the sum over labels i of cost[t, i, row[i]], the
    standardized squared distance between reference component i and
    component row[i] of draw t.  Ties follow `linear_sum_assignment`.
    """
    k = chain.k
    if reference.k != k:
        raise ValueError("reference has a different number of components")
    if len(reference) != 1:
        raise ValueError(f"reference must be a one-draw chain, not {len(reference)} draws")
    if len(chain) == 0:
        raise ValueError("cannot relabel an empty chain")

    coords = _coords(chain.weights, chain.means, chain.variances)  # (T, k, 3)
    ref = _coords(reference.weights[0], reference.means[0], reference.variances[0])  # (k, 3)
    bad = ~np.isfinite(coords).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"cannot relabel: {int(bad.sum())} draws have a non-finite mean, "
                         f"log variance or weight, the first is draw {int(bad.argmax())}")
    if not np.isfinite(ref).all():
        raise ValueError("cannot relabel: the reference has a non-finite mean, log variance "
                         "or weight")

    # Pooled per-coordinate scales; pooling over draws and components keeps
    # the metric invariant to any relabelling of the input chain.
    scales = coords.reshape(-1, 3).std(axis=0)
    scales[scales == 0] = 1.0
    coords /= scales
    ref = ref / scales

    rows = np.empty((len(chain), k), dtype=np.intp)
    edges = model._chunk_edges(len(chain), model.KERNEL_BUDGET // (k * k))
    for lo, hi in zip(edges[:-1], edges[1:]):
        # (draws, i, c), summed per coordinate so that no (draws, k, k, 3) temporary is made
        cost = np.zeros((hi - lo, k, k))
        for d in range(3):
            cost += (coords[lo:hi, None, :, d] - ref[None, :, None, d]) ** 2
        rows[lo:hi] = _assign(cost)
    return rows


def relabel_chain(chain: GibbsChain, reference: GibbsChain) -> GibbsChain:
    """Every draw relabelled by its `alignment` to `reference`."""
    return permute_draws(chain, alignment(chain, reference))
