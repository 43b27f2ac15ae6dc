"""Reference implementations the learning tests check the learners against.

They recompute from the whole observation log and run one scalar
Metropolis-Hastings chain at a time: slow, but simple enough to read off
the textbook formulas.  The package's learners keep running statistics
and advance every user's chain at once instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.special import gammaln

from edgebandit.learning import NIGParams, PriorSpec

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ObservationLog:
    """Noisy saving measurements for the current channel block."""

    samples: list[float] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.samples)

    def add(self, value: float) -> None:
        self.samples.append(float(value))


def log_of(*values) -> ObservationLog:
    log = ObservationLog()
    for v in values:
        log.add(v)
    return log


def mle_estimate(log: ObservationLog) -> float:
    """Sample mean of the observations; errors on an empty log."""
    if log.count == 0:
        raise ValueError("no observations")
    return float(np.mean(log.samples))


def nig_update(prior: NIGParams, log: ObservationLog, variant: str = "textbook") -> NIGParams:
    """Conjugate posterior from the block-start prior and the full log
    (two-pass mean and centred sum of squares)."""
    n = log.count
    if n == 0:
        return prior
    xs = np.asarray(log.samples, dtype=np.float64)
    xbar = float(xs.mean())
    ss = float(np.sum((xs - xbar) ** 2))
    lam_new = prior.lam + n
    mu_new = (prior.lam * prior.mu + n * xbar) / lam_new
    cross = (prior.lam * n / lam_new) * (xbar - prior.mu) ** 2 / 2.0
    if variant == "textbook":
        phi_new = prior.phi + 0.5 * ss + cross
    elif variant == "paper":
        phi_new = prior.phi + ss + cross
    else:
        raise ValueError(f"unknown nig variant {variant!r}")
    return NIGParams(lam=lam_new, mu=mu_new, phi=phi_new, nu=prior.nu + n / 2.0)


def _normal_logpdf(x, mean, var):
    return -0.5 * (LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


def true_prior_logpdf(saving: float, prior: PriorSpec) -> float:
    """Normalised log density of the true saving prior (gaussian: location
    and variance; laplace: location and diversity)."""
    if prior.kind == "gaussian":
        return float(_normal_logpdf(saving, prior.location, prior.scale))
    return -abs(saving - prior.location) / prior.scale - math.log(2.0 * prior.scale)


def nig_logpdf(saving: float, variance: float, params: NIGParams) -> float:
    """Log density of the normal-inverse-gamma at (saving, variance)."""
    if variance <= 0:
        return -math.inf
    nu, phi = params.nu, params.phi
    log_ig = nu * math.log(phi) - gammaln(nu) - (nu + 1.0) * math.log(variance) - phi / variance
    return float(_normal_logpdf(saving, params.mu, variance / params.lam) + log_ig)


def prior_swap_logdensity(
    theta: tuple[float, float],
    false_post: NIGParams,
    false_prior: NIGParams,
    true_prior: Union[PriorSpec, NIGParams],
) -> float:
    """Unnormalized log density of the swapped posterior at theta:
    log false_posterior + log true_prior - log false_prior, with -inf for a
    nonpositive variance."""
    saving, variance = theta
    if variance <= 0:
        return -math.inf
    out = nig_logpdf(saving, variance, false_post)
    if isinstance(true_prior, NIGParams):
        out += nig_logpdf(saving, variance, true_prior) - nig_logpdf(saving, variance, false_prior)
    else:
        # shared inverse-gamma variance prior cancels; only the saving
        # marginals differ between the true and false priors
        out += true_prior_logpdf(saving, true_prior)
        out -= float(_normal_logpdf(saving, false_prior.mu, variance / false_prior.lam))
    return out


def default_proposal_scale(post: NIGParams, factor: float = 1.0) -> tuple[float, float]:
    """Proposal steps sized to the posterior's marginal spreads."""
    return factor * math.sqrt(post.phi / (post.lam * post.nu)), factor / math.sqrt(post.nu)


def mh_chain(
    start: tuple[float, float],
    chain_len: int,
    proposal_scale: tuple[float, float],
    logdensity: Callable[[tuple[float, float]], float],
    rng: np.random.Generator,
    burn_in: int = 0,
) -> list[tuple[float, float]]:
    """Random-walk Metropolis-Hastings over (saving, variance).

    Steps are independent Gaussians on (saving, log variance), a symmetric
    proposal in that parameterization, so the acceptance ratio is the
    target ratio alone (with the log-variance Jacobian folded into the
    target).  Rejection keeps the previous sample.  Draws per step: two
    normals, then one uniform.
    """
    if chain_len < 1:
        raise ValueError("chain_len must be >= 1")
    saving, variance = float(start[0]), float(start[1])
    if variance <= 0:
        raise ValueError("start variance must be > 0")
    logvar = math.log(variance)
    s_sav, s_lv = proposal_scale

    def target(sav: float, lv: float) -> float:
        return logdensity((sav, math.exp(lv))) + lv

    cur = target(saving, logvar)
    out: list[tuple[float, float]] = []
    for step in range(burn_in + chain_len):
        prop_sav = saving + s_sav * rng.standard_normal()
        prop_lv = logvar + s_lv * rng.standard_normal()
        prop = target(prop_sav, prop_lv)
        if math.log(rng.random()) < prop - cur:
            saving, logvar, cur = prop_sav, prop_lv, prop
        if step >= burn_in:
            out.append((saving, math.exp(logvar)))
    return out
