"""Evidence estimators for the mixture model.

Seven routes to the same integral: candidate-point identities evaluated at
a high-posterior pivot (with and without permutation averaging), plain
importance sampling from a symmetrized single-draw proposal, importance
sampling from a pooled proposal built on J relabelled Gibbs draws
symmetrized over all k! label permutations (full and truncated to the
contributing permutation clusters), a randomly-permuted mixture proposal,
and iterative bridge sampling.  A `GibbsChain` is a `ParamsBatch`, so the
densities take a chain, its subsamples and the pivot as they are.  The
pivot is a one-draw chain (`gibbs.select_pivot`), so the single-draw
proposal pools it exactly as the dual proposal pools its J draws.

All weight arithmetic is in log space.  Per-permutation cluster densities
h_sigma(theta) = (1/J) sum_j pi(theta | sigma(draw_j), x), one column of
`DualProposal.log_h` per row sigma of `permutation_matrix(k)`, are the
shared building block: the symmetrized proposal density is their average
over the permutation set.

Every proposal samples its identity cluster only.  A symmetrized q is
invariant under relabelling, and so is the target, so the weight
target / q of a relabelled particle equals that of the particle itself:
drawing from h_identity gives the same estimator as drawing from q.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .gibbs import GibbsChain, chain_mean_stderr, permute_chain, permute_draws
from .model import (
    ConditioningSet,
    Dataset,
    ParamsBatch,
    PriorSpec,
    log_posterior_batch,
)
from .numerics import as_generator, log_sum_exp, log_sum_exp_into, permutation_matrix

__all__ = [
    "DEFAULT_TAU",
    "EstimationFailureError",
    "ContributionReport",
    "EvidenceEstimate",
    "DualProposal",
    "build_plugin_proposal",
    "build_dual_proposal",
    "build_permuted_mixture",
    "chib",
    "importance_estimate",
    "workload_gain",
    "bridge_sampling",
    "effective_sample_size",
    "log_weight_stderr",
]

# Default threshold on the q-normalized mean absolute truncation error.
# The cut is conservative: a cluster far below double precision (~1e-16
# relative mass) cannot move the estimate, yet on D2 under IG(2,3)
# clusters sit at 1e-23 to 1e-38 and are kept, so |A| comes out 4-6 where
# 2-6 clusters reproduce the full estimate.  Under heavy label switching
# (D2 under IG(2,15)) every cluster carries >= 1e-5 and |A| = k! at any
# tau <= 1e-6.
DEFAULT_TAU = 1e-50


class EstimationFailureError(RuntimeError):
    """An estimator could not produce a finite value."""


def effective_sample_size(log_weights) -> float:
    """(sum w)^2 / sum w^2 on unnormalized weights, entirely in log space."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0 or not np.any(np.isfinite(lw)):
        raise EstimationFailureError("all importance weights are zero")
    return float(math.exp(2.0 * log_sum_exp(lw) - log_sum_exp(2.0 * lw)))


def log_weight_stderr(log_weights) -> float:
    """Delta-method standard error of log(mean weight) for iid particles."""
    lw = np.asarray(log_weights, dtype=float)
    t = lw.size
    if t < 2:
        return 0.0
    ess = effective_sample_size(lw)
    return math.sqrt(max(t / ess - 1.0, 0.0) / (t - 1))


@dataclass
class ContributionReport:
    """Ranked cluster contributions and the chosen truncation set.

    `eta_bar[i]` is the average relative contribution of the i-th ranked
    permutation cluster; `ordering` maps ranks to rows of the lexicographic
    permutation matrix.  `phi_trace[n-1]` is the mean absolute difference
    between the n-term truncation and the full proposal density, normalized
    per point by the full density (so one threshold works across datasets).
    Summing over points and over clusters commute, so it is the ranked tail
    phi_n = sum_{r > n} eta_bar_(r): monotone, and exactly 0 at n = k!.
    `A_size` is the first n with phi_n < tau and `phi_hat` is phi there.
    """

    eta_bar: np.ndarray
    ordering: np.ndarray
    A_size: int
    phi_hat: float
    phi_trace: np.ndarray
    delta: float
    M: int
    tau: float

    def as_dict(self) -> dict:
        return {
            "A_size": int(self.A_size),
            "phi_hat": float(self.phi_hat),
            "delta": float(self.delta),
            "M": int(self.M),
            "tau": float(self.tau),
            "eta_bar": [float(v) for v in self.eta_bar],
            "ordering": [int(v) for v in self.ordering],
        }


@dataclass
class EvidenceEstimate:
    """A log-evidence value with its importance diagnostics."""

    method: str
    k: int
    log_evidence: float
    log_weights: np.ndarray
    ess: float
    n_particles: int
    se_log: float
    report: ContributionReport | None = None
    trace: np.ndarray | None = None
    elapsed_seconds: float = 0.0
    posterior_evaluations: int = 0
    density_evaluations: int = 0

    @property
    def R(self) -> float:
        return self.ess / self.n_particles

    def as_record(self) -> dict:
        rec = {
            "method": self.method,
            "k": int(self.k),
            "log_evidence": float(self.log_evidence),
            "ess": float(self.ess),
            "R": float(self.R),
            "n_particles": int(self.n_particles),
            "se_log": float(self.se_log),
            "elapsed_seconds": float(self.elapsed_seconds),
            "posterior_evaluations": int(self.posterior_evaluations),
            "density_evaluations": int(self.density_evaluations),
        }
        if self.report is not None:
            rec.update(self.report.as_dict())
        return rec


# ---------------------------------------------------------------------------
# Proposals
# ---------------------------------------------------------------------------

@dataclass
class DualProposal:
    """A pooled block-conditional proposal over permutation clusters.

    q(theta) = (1/P) * sum over the P `perm_rows` of h_sigma(theta), where
    h_sigma pools the J conditioning draws.  Symmetrized proposals use all
    of S_k (P = k!); a proposal whose draws were randomly relabelled
    beforehand uses the identity row alone (P = 1).  `sample` draws from
    the identity cluster: with all of S_k, q and the target are both
    invariant under relabelling, so a relabelled particle would carry the
    same weight, and with the identity row alone h_identity is q.
    """

    data: Dataset
    prior: PriorSpec
    cond: ConditioningSet
    perm_rows: np.ndarray
    label: str

    @property
    def J(self) -> int:
        return self.cond.J

    @property
    def k(self) -> int:
        return self.cond.k

    @property
    def n_clusters(self) -> int:
        return self.perm_rows.shape[0]

    @property
    def log_cluster_norm(self) -> float:
        return math.log(self.n_clusters)

    def log_h(self, batch: ParamsBatch, subset=None) -> np.ndarray:
        """(B, P) log cluster densities, optionally restricted to ranked subset."""
        rows = self.perm_rows if subset is None else self.perm_rows[np.asarray(subset)]
        return self.cond.log_pooled_density(batch, rows)

    def log_q(self, batch: ParamsBatch, subset=None) -> np.ndarray:
        """Proposal log-density of a batch, truncated to the `subset` clusters if given."""
        return log_sum_exp(self.log_h(batch, subset), axis=1) - self.log_cluster_norm

    def sample(self, T: int, rng) -> ParamsBatch:
        gen = as_generator(rng)
        return self.cond.sample(gen.integers(0, self.J, size=T), gen)


def _subsample(chain: GibbsChain, size: int, name: str, gen) -> GibbsChain:
    """`size` distinct draws of the chain, in chain order."""
    if size < 1:
        raise ValueError(f"{name} must be >= 1")
    if size > len(chain):
        raise ValueError(f"{name}={size} exceeds chain length {len(chain)}")
    return chain[np.sort(gen.choice(len(chain), size=size, replace=False))]


def _conditioning_set(data: Dataset, prior: PriorSpec, draws: GibbsChain) -> ConditioningSet:
    return ConditioningSet.from_draws(data, prior, draws.means, draws.allocations, draws.betas)


def build_plugin_proposal(data: Dataset, prior: PriorSpec, pivot: GibbsChain) -> DualProposal:
    """The one draw of `pivot` symmetrized over all k! permutations."""
    return DualProposal(data, prior, _conditioning_set(data, prior, pivot),
                        permutation_matrix(pivot.k), "plugin_is")


def build_dual_proposal(chain: GibbsChain, data: Dataset, prior: PriorSpec,
                        J: int, rng) -> DualProposal:
    """Pool J draws of a relabelled chain and symmetrize over all k! permutations."""
    pooled = _subsample(chain, J, "J", as_generator(rng))
    return DualProposal(data, prior, _conditioning_set(data, prior, pooled),
                        permutation_matrix(chain.k), "sym_is")


def build_permuted_mixture(chain: GibbsChain, data: Dataset, prior: PriorSpec,
                           J1: int, rng) -> DualProposal:
    """Mixture of J1 conditionals whose hyperparameters are randomly relabelled."""
    gen = as_generator(rng)
    pooled = permute_chain(_subsample(chain, J1, "J1", gen), gen)
    return DualProposal(data, prior, _conditioning_set(data, prior, pooled),
                        np.arange(chain.k, dtype=np.intp)[None, :], "mixture_is")


# ---------------------------------------------------------------------------
# Candidate-point (Chib-style) estimators
# ---------------------------------------------------------------------------

def chib(data: Dataset, prior: PriorSpec, chain: GibbsChain,
         pivot: GibbsChain, mode: str) -> EvidenceEstimate:
    """Evidence via log pi(pivot) + log p(x|pivot) - log posterior ordinate.

    `pivot` is a one-draw chain.  The posterior ordinate is the pooled block
    density of the pivot over the whole chain; `mode` selects that ordinate
    with the estimate times k! (`k_fact`), or the ordinate averaged over all
    k! relabellings of the pivot (`permutation_averaged`, which needs no
    relabelling of the chain itself).
    """
    if mode not in ("k_fact", "permutation_averaged"):
        raise ValueError(f"unknown chib mode: {mode}")
    started = time.perf_counter()
    if len(pivot) != 1:
        raise ValueError(f"pivot must be a one-draw chain, not {len(pivot)} draws")
    k = pivot.k
    T = len(chain)
    if T == 0:
        raise ValueError("empty chain")
    cond = _conditioning_set(data, prior, chain)
    identity = np.arange(k, dtype=np.intp)[None, :]
    # the pivot's relabellings (permutation_averaged) or the pivot alone
    rows = permutation_matrix(k) if mode == "permutation_averaged" else identity
    batch = permute_draws(pivot[np.zeros(len(rows), np.intp)], rows)
    terms = cond.log_density_terms(batch, identity)[:, 0, :]        # (P, T)
    # per-draw series pooled over relabellings, for diagnostics
    per_draw = log_sum_exp(terms, axis=0) - math.log(len(rows))
    log_ordinate = log_sum_exp(per_draw) - math.log(T)

    if not np.isfinite(log_ordinate):
        raise EstimationFailureError(
            "posterior ordinate underflowed: the pivot is unsupported by the chain"
        )

    log_ev = log_posterior_batch(data, prior, pivot)[0] - log_ordinate
    if mode == "k_fact":
        log_ev += math.log(math.factorial(k))

    # Autocovariance-adjusted error of the ordinate average on the linear scale.
    shift = float(np.max(per_draw))
    r = np.exp(per_draw - shift)
    se = chain_mean_stderr(r) / float(np.mean(r)) if T > 1 else 0.0

    return EvidenceEstimate(
        method="chib_kfact" if mode == "k_fact" else "chib_perm",
        k=k,
        log_evidence=float(log_ev),
        log_weights=per_draw,
        ess=float(T),
        n_particles=T,
        se_log=float(se),
        elapsed_seconds=time.perf_counter() - started,
        posterior_evaluations=1,
        density_evaluations=int(cond.evaluations),
    )


# ---------------------------------------------------------------------------
# Importance sampling with pooled symmetrized proposals
# ---------------------------------------------------------------------------

def _build_report(log_h: np.ndarray, tau: float, T: int, k: int) -> ContributionReport:
    """Rank the clusters of M calibration points by mean contribution, cut at tau."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    M, P = log_h.shape
    log_eta = np.array(log_h)                      # the one (M, P) buffer
    log_norm = log_sum_exp_into(log_eta, axis=1)
    dead = int(np.count_nonzero(log_norm == -np.inf))
    if dead:
        raise EstimationFailureError(
            f"{dead} of {M} calibration points have zero proposal density in every cluster"
        )
    np.subtract(log_h, log_norm[:, None], out=log_eta)  # per-point log contributions
    log_eta_bar = log_sum_exp_into(log_eta, axis=0) - math.log(M)
    eta_bar = np.exp(log_eta_bar)
    order = np.argsort(-eta_bar, kind="stable")
    # phi_n = sum_{r > n} eta_bar_(r): log suffix sums of the ranked log eta_bar
    log_tail = np.logaddexp.accumulate(log_eta_bar[order][::-1])[::-1]
    phi = np.zeros(P)
    phi[:-1] = np.exp(log_tail[1:])
    A_size = int(np.argmax(phi < tau)) + 1         # phi is 0 < tau at n = k!
    return ContributionReport(
        eta_bar=eta_bar[order],
        ordering=order,
        A_size=A_size,
        phi_hat=float(phi[A_size - 1]),
        phi_trace=phi,
        delta=workload_gain(M, T, A_size, k),
        M=M,
        tau=tau,
    )


def importance_estimate(proposal: DualProposal, T: int, rng, truncated: bool = False,
                        M: int = 1_000, tau: float = DEFAULT_TAU) -> EvidenceEstimate:
    """Standard importance sampling estimate with T particles from the proposal.

    With `truncated=True` the first min(M, T) particles calibrate the
    contributing-cluster set (ranked by average relative contribution, cut
    where the remaining relative mass falls below tau) and every particle
    is then weighted with the truncated proposal density.  Particle
    generation consumes the stream identically in both modes, so runs with
    a shared stream are comparable point by point.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    started = time.perf_counter()
    gen = as_generator(rng)
    evals_before = proposal.cond.evaluations
    batch = proposal.sample(T, gen)
    report = None
    if truncated:
        M_eff = min(M, T)
        log_h_cal = proposal.log_h(batch[:M_eff])             # (M, P) full clusters
        report = _build_report(log_h_cal, tau, T, proposal.k)
        subset = report.ordering[: report.A_size]
        log_q = np.empty(T)
        log_q[:M_eff] = (
            log_sum_exp(log_h_cal[:, subset], axis=1) - proposal.log_cluster_norm
        )
        if T > M_eff:
            log_q[M_eff:] = proposal.log_q(batch[M_eff:], subset)
    else:
        log_q = proposal.log_q(batch)

    log_target = log_posterior_batch(proposal.data, proposal.prior, batch)
    log_w = log_target - log_q
    if not np.any(np.isfinite(log_w)):
        raise EstimationFailureError("importance estimation failed: all weights zero")
    log_ev = log_sum_exp(log_w) - math.log(T)
    method = proposal.label + ("_trunc" if truncated else "")
    return EvidenceEstimate(
        method=method,
        k=proposal.k,
        log_evidence=float(log_ev),
        log_weights=log_w,
        ess=effective_sample_size(log_w),
        n_particles=T,
        se_log=log_weight_stderr(log_w),
        report=report,
        elapsed_seconds=time.perf_counter() - started,
        posterior_evaluations=T,
        density_evaluations=int(proposal.cond.evaluations - evals_before),
    )


def workload_gain(M: int, T: int, A_size: float, k: int) -> float:
    """Fraction of cluster-density evaluations kept by a truncation.

    (M/T) (1 - |A|/k!) + |A|/k!  for M calibration points out of T total.
    """
    kfact = math.factorial(k)
    if not 1 <= A_size <= kfact:
        raise ValueError("A_size must lie in [1, k!]")
    if M > T:
        raise ValueError("M cannot exceed T")
    frac = A_size / kfact
    return (M / T) * (1.0 - frac) + frac


# ---------------------------------------------------------------------------
# Bridge sampling
# ---------------------------------------------------------------------------

def bridge_sampling(data: Dataset, prior: PriorSpec, proposal: DualProposal,
                    M1: int, M2: int, iterations: int, rng,
                    posterior_chain: GibbsChain) -> EvidenceEstimate:
    """Iterative two-sample bridge estimator of the evidence.

    M1 draws come from the proposal, M2 from the (randomly permuted)
    posterior chain; the optimal-bridge recursion is iterated from a plain
    importance-sampling initial value, all in log space.
    """
    if min(M1, M2) < 1 or iterations < 1:
        raise ValueError("M1, M2 and iterations must be >= 1")
    started = time.perf_counter()
    gen = as_generator(rng)
    evals_before = proposal.cond.evaluations

    q_batch = proposal.sample(M1, gen)
    lq1 = proposal.log_q(q_batch)
    lp1 = log_posterior_batch(data, prior, q_batch)

    post = _subsample(posterior_chain, M2, "M2", gen)
    lq2 = proposal.log_q(post)
    lp2 = log_posterior_batch(data, prior, post)

    log_m1, log_m2 = math.log(M1), math.log(M2)
    log_e = log_sum_exp(lp1 - lq1) - log_m1  # plain IS initial value
    trace = [log_e]
    for _ in range(iterations):
        num_terms = (lp1 - log_e) - np.logaddexp(log_m1 + lq1, log_m2 + (lp1 - log_e))
        den_terms = lq2 - np.logaddexp(log_m1 + lq2, log_m2 + (lp2 - log_e))
        if not (np.any(np.isfinite(num_terms)) and np.any(np.isfinite(den_terms))):
            raise EstimationFailureError(
                "bridge iteration degenerated: proposal and posterior "
                "supports do not overlap"
            )
        log_num = log_sum_exp(num_terms) - log_m1
        log_den = log_sum_exp(den_terms) - log_m2
        log_e = log_e + log_num - log_den
        trace.append(log_e)

    log_w = lp1 - lq1
    return EvidenceEstimate(
        method="bridge",
        k=proposal.k,
        log_evidence=float(log_e),
        log_weights=log_w,
        ess=effective_sample_size(log_w),
        n_particles=M1,
        se_log=log_weight_stderr(log_w),
        trace=np.array(trace),
        elapsed_seconds=time.perf_counter() - started,
        posterior_evaluations=M1 + M2,
        density_evaluations=int(proposal.cond.evaluations - evals_before),
    )
