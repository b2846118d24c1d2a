"""Deterministic quadrature references for the single-component model.

For k = 1 the evidence integral is two-dimensional, so adaptive quadrature
gives an essentially exact value against which every Monte Carlo estimator
can be validated.  This module deliberately works from the raw density
formulas and scipy.integrate only, independent of the sampling machinery
it is used to check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

from mixevidence.model import Dataset, FixedPrior
from mixevidence.numerics import inverse_gamma_logpdf, normal_logpdf


def _log_joint_k1(data: Dataset, prior: FixedPrior):
    x = data.observations

    def log_joint(mu: float, var: float) -> float:
        if var <= 0:
            return -np.inf
        loglik = float(np.sum(normal_logpdf(x, mu, var)))
        logpri = float(normal_logpdf(mu, prior.mean_loc, prior.mean_var)) + float(
            inverse_gamma_logpdf(var, prior.var_shape, prior.var_scale)
        )
        return loglik + logpri

    return log_joint


def _mode_and_windows(data: Dataset, prior: FixedPrior, width: float = 12.0):
    """Locate the joint mode in (mu, log var) and build integration windows."""
    x = data.observations
    log_joint = _log_joint_k1(data, prior)

    def neg(v):
        return -log_joint(v[0], math.exp(v[1]))

    start = np.array([float(np.mean(x)), math.log(float(np.var(x)) + 1e-6)])
    res = optimize.minimize(neg, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    mu0, t0 = res.x
    peak = -res.fun

    # Laplace curvature by central differences in (mu, t = log var).
    h = 1e-4
    d2mu = (neg([mu0 + h, t0]) + neg([mu0 - h, t0]) - 2 * res.fun) / h**2
    d2t = (neg([mu0, t0 + h]) + neg([mu0, t0 - h]) - 2 * res.fun) / h**2
    sd_mu = 1.0 / math.sqrt(max(d2mu, 1e-12))
    sd_t = 1.0 / math.sqrt(max(d2t, 1e-12))
    windows = (
        (mu0 - width * sd_mu, mu0 + width * sd_mu),
        (t0 - width * sd_t - 3.0, t0 + width * sd_t + 3.0),
    )
    return (mu0, t0), peak, windows


def _integrate_k1(data: Dataset, prior: FixedPrior, weight=None) -> tuple[float, float]:
    """Returns (log integral of weight * joint, log evidence shift used)."""
    log_joint = _log_joint_k1(data, prior)
    _, peak, ((mu_lo, mu_hi), (t_lo, t_hi)) = _mode_and_windows(data, prior)

    def integrand(t, mu):
        var = math.exp(t)
        val = math.exp(log_joint(mu, var) - peak) * var  # jacobian d(var) = var dt
        if weight is not None:
            val *= weight(mu, var)
        return val

    value, _ = integrate.dblquad(integrand, mu_lo, mu_hi, t_lo, t_hi,
                                 epsabs=1e-12, epsrel=1e-10)
    return value, peak


def evidence_quadrature_k1(data: Dataset, prior: FixedPrior) -> float:
    """log evidence of the k = 1 model by 2-D adaptive quadrature."""
    value, peak = _integrate_k1(data, prior)
    return math.log(value) + peak


def log_marginal_group(values, prior: FixedPrior) -> float:
    """log of the marginal density of one Gaussian group under the fixed prior.

    The mean integrates out analytically given the variance, leaving a 1-D
    adaptive quadrature over the variance.  Empty groups contribute 0.
    """
    x = np.asarray(values, dtype=float)
    m = x.size
    if m == 0:
        return 0.0
    xbar = float(np.mean(x))
    s_centered = float(np.sum((x - xbar) ** 2))

    def log_f(var: float) -> float:
        if var <= 0:
            return -np.inf
        out = float(inverse_gamma_logpdf(var, prior.var_shape, prior.var_scale))
        out += -0.5 * (m - 1) * math.log(2.0 * math.pi * var) - 0.5 * math.log(m)
        out += -s_centered / (2.0 * var)
        out += float(normal_logpdf(xbar, prior.mean_loc, prior.mean_var + var / m))
        return out

    # peak in log-variance, then quadrature with the jacobian var dt
    grid = np.exp(np.linspace(math.log(1e-4), math.log(1e6), 400))
    peak_arg = grid[int(np.argmax([log_f(v) for v in grid]))]
    res = optimize.minimize_scalar(
        lambda t: -log_f(math.exp(t)),
        bracket=(math.log(peak_arg) - 1.0, math.log(peak_arg), math.log(peak_arg) + 1.0),
    )
    t0, peak = res.x, -res.fun
    value, _ = integrate.quad(
        lambda t: math.exp(log_f(math.exp(t)) - peak) * math.exp(t),
        t0 - 40.0, t0 + 40.0, epsabs=1e-13, epsrel=1e-11, limit=400,
    )
    return math.log(value) + peak


def evidence_enumeration(data: Dataset, prior: FixedPrior, k: int,
                         max_terms: int = 600_000) -> float:
    """Exact log evidence for small n by summing over all k^n allocations.

    Each allocation contributes its Dirichlet-multinomial prior mass times
    the product of per-group marginals (quadrature-exact).  Only valid for
    the fixed prior, whose groups are a priori independent.
    """
    from itertools import product

    if prior.hierarchical:
        raise ValueError("enumeration oracle requires the fixed prior")
    x = data.observations
    n = x.size
    if k**n > max_terms:
        raise ValueError(f"enumeration needs k^n = {k**n} terms (> {max_terms})")

    group_logs: dict[tuple, float] = {}

    def group(idx: tuple) -> float:
        if idx not in group_logs:
            group_logs[idx] = log_marginal_group(x[list(idx)], prior)
        return group_logs[idx]

    terms = []
    for z in product(range(k), repeat=n):
        z_arr = np.asarray(z)
        logp = math.lgamma(k) - math.lgamma(n + k)
        for i in range(k):
            members = tuple(np.nonzero(z_arr == i)[0])
            logp += math.lgamma(len(members) + 1.0) + group(members)
        terms.append(logp)
    shift = max(terms)
    return shift + math.log(sum(math.exp(t - shift) for t in terms))


def posterior_moments_k1(data: Dataset, prior: FixedPrior) -> dict:
    """Posterior means and variances of mu and var by quadrature ratios."""
    z, peak = _integrate_k1(data, prior)
    moments = {}
    for name, fun in (
        ("mu", lambda m, v: m),
        ("mu2", lambda m, v: m * m),
        ("var", lambda m, v: v),
        ("var2", lambda m, v: v * v),
    ):
        val, _ = _integrate_k1(data, prior, weight=fun)
        moments[name] = val / z
    return {
        "mean_mu": moments["mu"],
        "var_mu": moments["mu2"] - moments["mu"] ** 2,
        "mean_var": moments["var"],
        "var_var": moments["var2"] - moments["var"] ** 2,
        "log_evidence": math.log(z) + peak,
    }
