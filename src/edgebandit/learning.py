"""Online estimation of unknown offloading energy savings.

Three learners feed the Whittle index when the true per-task saving is
hidden: a running-mean MLE, a conjugate normal-inverse-gamma posterior,
and a prior-swapping Metropolis-Hastings refinement for non-conjugate
(e.g. Laplace) priors.  Each learner is one object per episode that keeps
every user's state in arrays over the N users and is updated once per
slot, vectorised over the users that offloaded.  The state is a running
count, mean and centred sum of squares per user (Welford's recurrence),
so an update costs O(1) whatever the number of observations, and so does
a decision.

Observation model: each offload yields saving + Gaussian noise.  A user's
statistics (and chain state) reset whenever the channel block (and hence
the true saving) changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


__all__ = [
    "NoiseModel",
    "NIGParams",
    "PriorSpec",
    "observe",
    "nig_posterior",
    "nig_sample",
    "MleWhittleEstimator",
    "BayesWhittleEstimator",
    "PriorSwapWhittleEstimator",
]

LOG_2PI = math.log(2.0 * math.pi)
NIG_VARIANTS = ("textbook", "paper")


@dataclass(frozen=True)
class NoiseModel:
    """Hidden truth for one user's current channel block."""

    true_saving: float
    noise_var: float

    def __post_init__(self) -> None:
        if self.noise_var <= 0:
            raise ValueError("noise_var must be > 0")


def observe(noise: NoiseModel, rng: np.random.Generator) -> float:
    """One measurement of the energy saving after an actual offload."""
    return float(noise.true_saving + math.sqrt(noise.noise_var) * rng.standard_normal())


@dataclass(frozen=True)
class NIGParams:
    """Normal-inverse-gamma hyperparameters over (saving, noise variance).

    The variance follows an inverse gamma with shape ``nu`` and scale
    ``phi``; the saving is conditionally Gaussian with mean ``mu`` and
    variance ``variance / lam``.
    """

    lam: float
    mu: float
    phi: float
    nu: float

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.phi <= 0 or self.nu <= 0:
            raise ValueError("lam, phi, nu must be strictly positive")


def _check_variant(variant: str) -> None:
    if variant not in NIG_VARIANTS:
        raise ValueError(f"unknown nig variant {variant!r}")


def nig_posterior(
    prior: NIGParams, count, mean, m2, variant: str = "textbook"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conjugate posterior ``(lam, mu, phi, nu)`` from sufficient statistics.

    ``count``, ``mean`` and ``m2`` (the centred sum of squares) describe
    each user's observations since the block-start ``prior``; the result
    has their shape.  ``variant="textbook"`` halves ``m2`` in the scale
    update (the exact conjugate posterior; verified against grid
    quadrature).  ``variant="paper"`` leaves it unhalved.  A count of 0
    gives the prior exactly.
    """
    _check_variant(variant)
    n = np.asarray(count)
    lam = prior.lam + n
    mu = (prior.lam * prior.mu + n * mean) / lam
    cross = (prior.lam * n / lam) * (mean - prior.mu) ** 2 / 2.0
    ss = 0.5 * m2 if variant == "textbook" else m2
    phi = prior.phi + ss + cross
    nu = prior.nu + n / 2.0
    empty = n == 0
    return (
        np.where(empty, prior.lam, lam),
        np.where(empty, prior.mu, mu),
        np.where(empty, prior.phi, phi),
        np.where(empty, prior.nu, nu),
    )


def nig_sample(post: NIGParams, rng: np.random.Generator) -> tuple[float, float]:
    """Draw (variance, saving) from the joint posterior.

    Inverse-gamma via the reciprocal of a gamma draw, then the conditional
    Gaussian for the saving.
    """
    variance = float(1.0 / rng.gamma(shape=post.nu, scale=1.0 / post.phi))
    saving = float(post.mu + math.sqrt(variance / post.lam) * rng.standard_normal())
    return variance, saving


def _normal_logpdf(x, mean, var):
    return -0.5 * (LOG_2PI + np.log(var) + (x - mean) ** 2 / var)


@dataclass(frozen=True)
class PriorSpec:
    """Marginal prior over the energy saving.

    ``gaussian`` is the conjugate case (location = mean, scale = variance);
    ``laplace`` is the non-conjugate case handled by prior swapping
    (location, diversity).  The variance component keeps the same
    inverse-gamma prior as the conjugate model, so it cancels from the
    swap ratio.
    """

    kind: str
    location: float
    scale: float

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "laplace"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    def logpdf(self, saving) -> np.ndarray:
        if self.kind == "gaussian":
            return _normal_logpdf(saving, self.location, self.scale)
        return -np.abs(np.asarray(saving) - self.location) / self.scale - math.log(2.0 * self.scale)


# ---------------------------------------------------------------------------
# Learners over all users, as used by the simulation harness
# ---------------------------------------------------------------------------

INIT_PRIOR = NIGParams(lam=1.0, mu=1.0, phi=1.0, nu=1.0)
INIT_ESTIMATE = 1.0


class _UserStats:
    """Each user's observation count, mean and centred sum of squares.

    ``users`` arguments are index arrays (or boolean masks) over the users;
    ``None`` means every user.
    """

    def __init__(self, num_users: int):
        self.count = np.zeros(num_users, dtype=np.int64)
        self.mean = np.zeros(num_users)
        self.m2 = np.zeros(num_users)

    def reset(self, users: Optional[np.ndarray] = None) -> None:
        at = slice(None) if users is None else users
        self.count[at] = 0
        self.mean[at] = 0.0
        self.m2[at] = 0.0

    def _add(self, users: np.ndarray, observations: np.ndarray) -> None:
        """Welford's step for one new observation of each listed user
        (a user appears at most once)."""
        n = self.count[users] + 1
        delta = observations - self.mean[users]
        mean = self.mean[users] + delta / n
        self.count[users] = n
        self.mean[users] = mean
        self.m2[users] += delta * (observations - mean)


class MleWhittleEstimator(_UserStats):
    """Running means; a user without observations gets the initial guess."""

    def __init__(self, num_users: int, init_estimate: float = INIT_ESTIMATE):
        super().__init__(num_users)
        self.init_estimate = init_estimate

    def update(self, users: np.ndarray, observations: np.ndarray) -> None:
        self._add(users, observations)

    def estimate(self) -> np.ndarray:
        return np.where(self.count > 0, self.mean, self.init_estimate)


class BayesWhittleEstimator(_UserStats):
    """Conjugate posterior estimator.

    Each update refreshes the updated users' posteriors from the
    block-start prior and their statistics.  By default the ranking
    estimate is the posterior mean; ``mode="sample"`` draws a fresh
    posterior sample per updated user instead (Thompson style), in
    ascending user order, gamma then normal, from the given stream.  With
    a unit prior and measurement noise several times the true spread, the
    sampled estimate is dominated by draw noise and measurably
    underperforms even the plain running mean, so the mean is the
    production default.
    """

    def __init__(
        self,
        num_users: int,
        prior: NIGParams = INIT_PRIOR,
        init_estimate: float = INIT_ESTIMATE,
        variant: str = "textbook",
        mode: str = "mean",
    ):
        if mode not in ("mean", "sample"):
            raise ValueError(f"unknown estimate mode {mode!r}")
        _check_variant(variant)
        super().__init__(num_users)
        self.prior = prior
        self.init_estimate = init_estimate
        self.variant = variant
        self.mode = mode
        self._estimate = np.full(num_users, init_estimate)

    def reset(self, users: Optional[np.ndarray] = None) -> None:
        super().reset(users)
        self._estimate[slice(None) if users is None else users] = self.init_estimate

    def posterior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every user's ``(lam, mu, phi, nu)``."""
        return nig_posterior(self.prior, self.count, self.mean, self.m2, self.variant)

    def update(
        self, users: np.ndarray, observations: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> None:
        """Add one observation per listed user; ``users`` ascend, and
        ``rng`` is needed in sample mode."""
        self._add(users, observations)
        lam, mu, phi, nu = nig_posterior(
            self.prior, self.count[users], self.mean[users], self.m2[users], self.variant
        )
        if self.mode == "mean":
            self._estimate[users] = mu
            return
        for j, i in enumerate(users):
            post = NIGParams(lam=lam[j], mu=mu[j], phi=phi[j], nu=nu[j])
            _, self._estimate[i] = nig_sample(post, rng)

    def estimate(self) -> np.ndarray:
        return self._estimate


class PriorSwapWhittleEstimator(_UserStats):
    """Prior-swapping estimator for a non-conjugate true prior.

    Keeps the conjugate pseudo-posterior's statistics and, per user, the
    state (saving, log variance) of a Metropolis-Hastings chain on the
    swapped density, as the two rows of ``chain``.  The harness's MH
    kernel advances every chain by ``burn_in + chain_len`` steps per
    decision and leaves the mean of the last ``chain_len`` saving
    components in ``chain_mean``, which is the estimate.  Per-decision
    cost depends only on the chain length, never on the number of
    observations.
    """

    def __init__(
        self,
        num_users: int,
        true_prior: PriorSpec,
        false_prior: NIGParams = INIT_PRIOR,
        chain_len: int = 10,
        burn_in: int = 0,
        proposal_factor: float = 1.0,
        variant: str = "textbook",
        init_theta: tuple[float, float] = (INIT_ESTIMATE, 1.0),
    ):
        if chain_len < 1:
            raise ValueError("chain_len must be >= 1")
        if init_theta[1] <= 0:
            raise ValueError("initial variance must be > 0")
        _check_variant(variant)
        super().__init__(num_users)
        self.true_prior = true_prior
        self.false_prior = false_prior
        self.chain_len = chain_len
        self.burn_in = burn_in
        self.proposal_factor = proposal_factor
        self.variant = variant
        self.init_theta = init_theta
        # every user's chain state: row 0 the saving, row 1 the log variance
        self.chain = np.empty((2, num_users))
        self.chain[0] = init_theta[0]
        self.chain[1] = math.log(init_theta[1])
        self.chain_mean = np.full(num_users, float(init_theta[0]))

    def reset(self, users: Optional[np.ndarray] = None) -> None:
        super().reset(users)
        at = slice(None) if users is None else users
        self.chain_saving[at] = self.init_theta[0]
        self.chain_logvar[at] = math.log(self.init_theta[1])

    @property
    def chain_saving(self) -> np.ndarray:
        return self.chain[0]

    @property
    def chain_logvar(self) -> np.ndarray:
        return self.chain[1]

    def posterior(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every user's conjugate pseudo-posterior ``(lam, mu, phi, nu)``."""
        return nig_posterior(self.false_prior, self.count, self.mean, self.m2, self.variant)

    def update(self, users: np.ndarray, observations: np.ndarray) -> None:
        self._add(users, observations)

    def estimate(self) -> np.ndarray:
        return self.chain_mean
