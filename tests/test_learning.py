"""Estimators of the hidden energy saving: observation model, conjugate
posterior, posterior sampling, prior swapping, and the MH kernel.

The conjugate posterior is validated against a brute-force oracle: on a
(mean, variance) grid, prior density times likelihood product must match
the analytic posterior density up to one normalizing constant.  The same
oracle adjudicates between the two published forms of the scale update.
The learners keep running statistics over all users; property tests
check them against the log-based, one-user-at-a-time references in
``learning_oracles``.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from learning_oracles import (
    ObservationLog,
    default_proposal_scale,
    log_of,
    mh_chain,
    mle_estimate,
    nig_logpdf,
    nig_update,
    prior_swap_logdensity,
)

from edgebandit.dynamics import PenaltyFn
from edgebandit.learning import (
    INIT_ESTIMATE,
    INIT_PRIOR,
    BayesWhittleEstimator,
    MleWhittleEstimator,
    NIGParams,
    NoiseModel,
    PriorSpec,
    PriorSwapWhittleEstimator,
    nig_posterior,
    nig_sample,
    observe,
)
from edgebandit.whittle import whittle_index_array

LAPLACE = PriorSpec("laplace", 1.0, 0.2)


def rng(seed=0):
    return np.random.default_rng(seed)


def fed(learner, values, user=0):
    """The learner after one update per value, all for one user."""
    for x in values:
        learner.update(np.array([user]), np.array([float(x)]))
    return learner


def posterior_of(prior, values, variant="textbook"):
    lam, mu, phi, nu = fed(BayesWhittleEstimator(1, prior, variant=variant), values).posterior()
    return NIGParams(float(lam[0]), float(mu[0]), float(phi[0]), float(nu[0]))


class TestObserve:
    def test_vanishing_noise_recovers_truth(self):
        noise = NoiseModel(true_saving=2.5, noise_var=1e-20)
        assert observe(noise, rng()) == pytest.approx(2.5, abs=1e-9)

    def test_mean_matches_truth(self):
        noise = NoiseModel(true_saving=1.3, noise_var=0.8)
        r = rng(1)
        xs = np.array([observe(noise, r) for _ in range(10_000)])
        assert abs(xs.mean() - 1.3) < 4 * math.sqrt(0.8 / 10_000)

    def test_variance_matches_model(self):
        noise = NoiseModel(true_saving=0.0, noise_var=0.6)
        r = rng(2)
        xs = np.array([observe(noise, r) for _ in range(10_000)])
        assert xs.var() == pytest.approx(0.6, rel=0.1)

    def test_log_appending(self):
        # the learner's running statistics take the place of the log:
        # each observation fed to a user adds one to that user's count
        est = MleWhittleEstimator(2)
        est.update(np.array([0]), np.array([observe(NoiseModel(1.0, 0.5), rng())]))
        est.update(np.array([0]), np.array([observe(NoiseModel(1.0, 0.5), rng())]))
        assert est.count.tolist() == [2, 0]

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            NoiseModel(1.0, 0.0)


class TestMle:
    def test_mean(self):
        assert fed(MleWhittleEstimator(1), (3.0, 1.0)).estimate()[0] == pytest.approx(2.0)
        assert fed(MleWhittleEstimator(1), (5.0,)).estimate()[0] == pytest.approx(5.0)
        assert fed(MleWhittleEstimator(1), (1, 2, 3, 4)).estimate()[0] == pytest.approx(2.5)

    def test_users_are_independent(self):
        est = MleWhittleEstimator(3, init_estimate=-1.0)
        est.update(np.array([0, 2]), np.array([4.0, 6.0]))
        est.update(np.array([2]), np.array([8.0]))
        assert est.estimate().tolist() == [4.0, -1.0, 7.0]
        est.reset(np.array([2]))
        assert est.estimate().tolist() == [4.0, -1.0, -1.0]

    def test_empty_log_rejected(self):
        # the log-based reference must fail loudly rather than compare
        # the learners against the nan mean of no observations
        with pytest.raises(ValueError, match="no observations"):
            mle_estimate(ObservationLog())


class TestNigUpdate:
    def test_single_observation(self):
        post = posterior_of(NIGParams(1, 1, 1, 1), (2.0,))
        assert post.lam == pytest.approx(2.0)
        assert post.mu == pytest.approx(1.5)
        assert post.phi == pytest.approx(1.25)
        assert post.nu == pytest.approx(1.5)

    def test_two_observations(self):
        post = posterior_of(NIGParams(1, 1, 1, 1), (2.0, 2.0))
        assert post.lam == pytest.approx(3.0)
        assert post.mu == pytest.approx(5.0 / 3.0)
        assert post.phi == pytest.approx(4.0 / 3.0)
        assert post.nu == pytest.approx(2.0)

    def test_empty_log_returns_prior(self):
        prior = NIGParams(2.0, 0.1, 3.0, 1.5)
        got = nig_posterior(prior, np.array([0, 0]), np.array([0.0, 7.0]), np.array([0.0, 2.0]))
        for values, want in zip(got, (prior.lam, prior.mu, prior.phi, prior.nu)):
            assert values.tolist() == [want, want]

    def test_posterior_mean_is_convex_combination(self):
        r = rng(3)
        for _ in range(100):
            prior = NIGParams(
                lam=float(r.uniform(0.1, 5)),
                mu=float(r.normal()),
                phi=float(r.uniform(0.1, 5)),
                nu=float(r.uniform(0.1, 5)),
            )
            xs = r.normal(size=int(r.integers(1, 8)))
            post = posterior_of(prior, xs)
            w = prior.lam / (prior.lam + len(xs))
            expected = w * prior.mu + (1 - w) * xs.mean()
            assert post.mu == pytest.approx(expected, rel=1e-12)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            nig_posterior(INIT_PRIOR, 1, 1.0, 0.0, variant="other")
        with pytest.raises(ValueError):
            BayesWhittleEstimator(1, variant="other")


def _log_posterior_offsets(prior, samples, variant, n_grid=100):
    """Brute-force minus analytic log posterior over a grid.

    If the analytic update is the true posterior, the difference is a
    single normalizing constant; its spread over the grid bounds the
    pointwise relative density error.
    """
    post_ref = posterior_of(prior, samples, "textbook")
    post = posterior_of(prior, samples, variant)
    mean_sd = math.sqrt(post_ref.phi / (post_ref.lam * post_ref.nu))
    means = np.linspace(post_ref.mu - 8 * mean_sd, post_ref.mu + 8 * mean_sd, n_grid)
    v_scale = post_ref.phi / post_ref.nu
    variances = np.geomspace(v_scale / 50, v_scale * 50, n_grid)
    deltas = []
    for m in means:
        for v in variances:
            brute = nig_logpdf(m, v, prior) + np.sum(
                -0.5 * (math.log(2 * math.pi * v) + (np.asarray(samples) - m) ** 2 / v)
            )
            deltas.append(brute - nig_logpdf(m, v, post))
    deltas = np.asarray(deltas)
    return float(deltas.max() - deltas.min())


class TestPosteriorOracle:
    def test_textbook_variant_matches_brute_force(self):
        r = rng(5)
        for _ in range(10):
            prior = NIGParams(
                lam=float(r.uniform(0.2, 4)),
                mu=float(r.normal()),
                phi=float(r.uniform(0.2, 4)),
                nu=float(r.uniform(0.5, 4)),
            )
            samples = r.normal(size=int(r.integers(2, 6)))
            assert _log_posterior_offsets(prior, samples, "textbook") < 1e-6

    def test_printed_variant_is_not_the_posterior(self):
        # with a nonzero centered sum of squares the unhalved update
        # produces a different density shape, not just a constant offset
        samples = [0.2, 1.9, 1.1]
        spread = _log_posterior_offsets(INIT_PRIOR, samples, "paper")
        assert spread > 1e-2


# -- running statistics against the log-based references -------------------

_values = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def _histories(draw):
    """Random per-slot histories: each slot either feeds one observation to
    each of a set of users or resets some users (or all)."""
    n_users = draw(st.integers(1, 4))
    some_users = st.lists(st.integers(0, n_users - 1), min_size=1, max_size=n_users, unique=True)
    slots = []
    for _ in range(draw(st.integers(1, 25))):
        users = sorted(draw(some_users))
        if draw(st.integers(0, 5)) == 0:
            slots.append(("reset", None if draw(st.booleans()) else users, None))
        else:
            slots.append(("update", users, [draw(_values) for _ in users]))
    prior = NIGParams(
        lam=draw(st.floats(0.1, 5.0)),
        mu=draw(st.floats(-3.0, 3.0)),
        phi=draw(st.floats(0.1, 5.0)),
        nu=draw(st.floats(0.5, 5.0)),
    )
    return n_users, slots, prior


def _replay(n_users, slots, on_slot):
    """Per-user logs along a history; ``on_slot(kind, users, values, logs)``
    runs before each slot's logs change."""
    logs = [log_of() for _ in range(n_users)]
    for kind, users, values in slots:
        on_slot(kind, users, values, logs)
        if kind == "reset":
            for i in range(n_users) if users is None else users:
                logs[i] = log_of()
        else:
            for i, x in zip(users, values):
                logs[i].add(x)
    return logs


def _close(got, want, scale):
    """Equal within 1e-12 relative to the magnitude of the data behind it."""
    assert abs(got - want) <= 1e-12 * (abs(want) + scale)


class TestMatchesLogOracles:
    @settings(max_examples=150, deadline=None)
    @given(_histories(), st.sampled_from(["textbook", "paper"]))
    def test_statistics_match_log_references(self, history, variant):
        n_users, slots, prior = history
        mle = MleWhittleEstimator(n_users)
        bl = BayesWhittleEstimator(n_users, prior, variant=variant)
        ps = PriorSwapWhittleEstimator(n_users, LAPLACE, false_prior=prior, variant=variant)

        def check(logs):
            got_bl, got_ps = bl.posterior(), ps.posterior()
            for i, log in enumerate(logs):
                scale = 1.0 + sum(x * x for x in log.samples)
                want = nig_update(prior, log, variant)
                for got in (got_bl, got_ps):
                    assert got[0][i] == want.lam and got[3][i] == want.nu
                    _close(got[1][i], want.mu, math.sqrt(scale))
                    _close(got[2][i], want.phi, scale)
                if log.count:
                    _close(mle.estimate()[i], mle_estimate(log), math.sqrt(scale))
                    _close(bl.estimate()[i], want.mu, math.sqrt(scale))
                else:
                    assert mle.estimate()[i] == INIT_ESTIMATE == bl.estimate()[i]

        def apply(kind, users, values, logs):
            check(logs)
            for learner in (mle, bl, ps):
                if kind == "reset":
                    learner.reset(None if users is None else np.array(users))
                else:
                    learner.update(np.array(users), np.array(values))

        check(_replay(n_users, slots, apply))

    @settings(max_examples=100, deadline=None)
    @given(_histories(), st.sampled_from(["textbook", "paper"]), st.integers(0, 2**32 - 1))
    def test_sample_mode_draws_like_one_user_at_a_time(self, history, variant, seed):
        n_users, slots, prior = history
        bl = BayesWhittleEstimator(n_users, prior, variant=variant, mode="sample")
        r_batch, r_ref = rng(seed), rng(seed)
        want = np.full(n_users, INIT_ESTIMATE)

        def apply(kind, users, values, logs):
            if kind == "reset":
                bl.reset(None if users is None else np.array(users))
                want[slice(None) if users is None else users] = INIT_ESTIMATE
                return
            bl.update(np.array(users), np.array(values), r_batch)
            for i, x in zip(users, values):
                log = log_of(*logs[i].samples, x)
                _, want[i] = nig_sample(nig_update(prior, log, variant), r_ref)
            assert r_batch.bit_generator.state == r_ref.bit_generator.state
            np.testing.assert_allclose(bl.estimate(), want, rtol=1e-9, atol=1e-9)

        _replay(n_users, slots, apply)


class TestNigSample:
    def test_concentrates_at_mu_for_large_lam(self):
        post = NIGParams(lam=1e14, mu=0.7, phi=2.0, nu=3.0)
        _, saving = nig_sample(post, rng())
        assert saving == pytest.approx(0.7, abs=1e-5)

    def test_saving_mean(self):
        post = NIGParams(lam=2.0, mu=1.5, phi=1.25, nu=1.5)
        r = rng(6)
        draws = np.array([nig_sample(post, r)[1] for _ in range(100_000)])
        # marginal is a t centered at mu; se of the mean from its variance
        var = post.phi / (post.lam * post.nu) * (2 * post.nu / (2 * post.nu - 2))
        assert abs(draws.mean() - 1.5) < 4 * math.sqrt(var / draws.size)

    def test_variance_mean(self):
        post = NIGParams(lam=1.0, mu=0.0, phi=4.0, nu=3.0)
        r = rng(7)
        draws = np.array([nig_sample(post, r)[0] for _ in range(100_000)])
        se = math.sqrt(4.0 / draws.size)  # var of IG(3, 4) is 4
        assert abs(draws.mean() - 2.0) < 4 * se


class TestPriorSwapDensity:
    """The reference swapped density, and the kernel's target against it."""

    FALSE_PRIOR = NIGParams(1.0, 1.0, 1.0, 1.0)

    def false_post(self):
        return nig_update(self.FALSE_PRIOR, log_of(1.2, 0.8, 1.5))

    def test_identical_priors_cancel_exactly(self):
        post = self.false_post()
        for theta in ((1.0, 0.8), (0.3, 2.0), (-1.0, 0.1)):
            swapped = prior_swap_logdensity(theta, post, self.FALSE_PRIOR, self.FALSE_PRIOR)
            assert swapped == nig_logpdf(theta[0], theta[1], post)

    def test_finite_and_real_for_positive_variance(self):
        post = self.false_post()
        r = rng(8)
        for _ in range(100):
            theta = (float(r.normal()), float(r.uniform(0.01, 5)))
            val = prior_swap_logdensity(theta, post, self.FALSE_PRIOR, LAPLACE)
            assert math.isfinite(val)

    def test_nonpositive_variance_rejected(self):
        post = self.false_post()
        assert prior_swap_logdensity((1.0, 0.0), post, self.FALSE_PRIOR, LAPLACE) == -math.inf

    def test_pointwise_ratio_matches_symbolic_form(self):
        # independent evaluation: densities written out from scratch
        post = self.false_post()

        def direct(theta):
            e, v = theta
            lam, mu, phi, nu = post.lam, post.mu, post.phi, post.nu
            log_post = (
                -0.5 * math.log(2 * math.pi * v / lam)
                - lam * (e - mu) ** 2 / (2 * v)
                + nu * math.log(phi)
                - math.lgamma(nu)
                - (nu + 1) * math.log(v)
                - phi / v
            )
            log_true = -abs(e - 1.0) / 0.2 - math.log(0.4)
            lam0, mu0 = self.FALSE_PRIOR.lam, self.FALSE_PRIOR.mu
            log_false_sav = -0.5 * math.log(2 * math.pi * v / lam0) - lam0 * (e - mu0) ** 2 / (2 * v)
            return log_post + log_true - log_false_sav

        t1, t2 = (0.7, 0.9), (1.4, 2.2)
        got = prior_swap_logdensity(t1, post, self.FALSE_PRIOR, LAPLACE) - prior_swap_logdensity(
            t2, post, self.FALSE_PRIOR, LAPLACE
        )
        assert got == pytest.approx(direct(t1) - direct(t2), rel=1e-12)

    @pytest.mark.parametrize("true_prior", [LAPLACE, PriorSpec("gaussian", 0.5, 0.3)])
    @pytest.mark.parametrize("variant", ["textbook", "paper"])
    def test_kernel_target_matches_reference(self, true_prior, variant):
        # MH reads only differences of one user's target within a slot, and
        # the kernel drops each user's constants: pin its difference to a
        # fixed point against the reference's
        false_prior = NIGParams(1.5, 0.8, 2.0, 1.2)
        learner = PriorSwapWhittleEstimator(3, true_prior, false_prior=false_prior, variant=variant)
        logs = [log_of(), log_of(1.2, 0.8, 1.5), log_of(-0.4)]
        for i, log in enumerate(logs):
            fed(learner, log.samples, user=i)
        target = learner._target(learner.posterior()[3])
        posts = [nig_update(false_prior, log, variant) for log in logs]

        def reference(i, sav, lv):
            return prior_swap_logdensity((sav, math.exp(lv)), posts[i], false_prior, true_prior) + lv

        fixed = (0.9, 0.2)
        at_fixed = target(np.full(3, fixed[0]), np.full(3, fixed[1]))
        r = rng(16)
        for _ in range(20):
            sav, lv = r.normal(1.0, 1.5, 3), r.normal(0.0, 1.5, 3)
            got = target(sav, lv) - at_fixed
            for i in range(3):
                want, want_fixed = reference(i, sav[i], lv[i]), reference(i, *fixed)
                assert abs(got[i] - (want - want_fixed)) <= 1e-12 * max(abs(want), abs(want_fixed))

    @given(
        variant=st.sampled_from(["textbook", "paper"]),
        obs=st.lists(st.floats(-3.0, 3.0), max_size=6),
        sav=st.floats(-5.0, 5.0),
        false_prior=st.builds(
            NIGParams,
            lam=st.floats(0.1, 5.0),
            mu=st.floats(-2.0, 2.0),
            phi=st.floats(0.1, 5.0),
            nu=st.floats(0.5, 5.0),
        ),
    )
    @example(variant="textbook", obs=[], sav=3.0, false_prior=NIGParams(1.5, 0.8, 2.0, 1.2))
    @example(variant="paper", obs=[], sav=-4.0, false_prior=NIGParams(1.5, 0.8, 2.0, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_kernel_scale_is_the_expanded_form(self, variant, obs, sav, false_prior):
        # S(s) = lam (s - mu)^2 / 2 + phi - lam0 (s - mu0)^2 / 2 from the
        # conjugate posterior; the expanded form cancels, so its own rounding
        # is relative to its largest term
        learner = PriorSwapWhittleEstimator(1, LAPLACE, false_prior=false_prior, variant=variant)
        fed(learner, obs)
        got = learner._scale()(np.array([sav]))[0]
        lam, mu, phi, _ = (float(x[0]) for x in learner.posterior())
        terms = (0.5 * lam * (sav - mu) ** 2, phi, 0.5 * false_prior.lam * (sav - false_prior.mu) ** 2)
        assert got >= false_prior.phi
        assert abs(got - (terms[0] + terms[1] - terms[2])) <= 1e-12 * max(terms)


class TestMhKernel:
    """The reference scalar chain, and the learner's batch kernel against it."""

    def test_equal_density_always_accepts(self):
        # variance axis frozen so the transformed target really is flat
        # along every proposal: acceptance ratio 1, no rejections
        samples = mh_chain(
            (0.0, 1.0), 200, (0.5, 0.0), lambda th: 0.0 if th[1] > 0 else -math.inf, rng(9)
        )
        savings = [s for s, _ in samples]
        assert len(set(savings)) == len(savings)  # a rejection would repeat

    def test_rejection_keeps_previous_sample(self):
        # spiked target: any move away from the start is rejected
        def logdensity(theta):
            return 0.0 if abs(theta[0]) < 1e-12 else -1e9

        samples = mh_chain((0.0, 1.0), 50, (0.5, 0.0), logdensity, rng(10))
        assert all(s == 0.0 for s, _ in samples)

    def test_detailed_balance_flux(self):
        # product target N(0,1) x IG(3,4); bin the saving axis and compare
        # empirical transition fluxes between bins
        def logdensity(theta):
            e, v = theta
            if v <= 0:
                return -math.inf
            return -0.5 * e * e + 3 * math.log(4.0) - 4 * math.log(v) - 4.0 / v

        samples = mh_chain((0.0, 1.0), 120_000, (0.8, 0.6), logdensity, rng(11))
        edges = np.linspace(-2.5, 2.5, 9)
        bins = np.digitize([s for s, _ in samples], edges)
        flux = np.zeros((11, 11))
        for a, b in zip(bins, bins[1:]):
            flux[a, b] += 1
        for i in range(11):
            for j in range(i + 1, 11):
                total = flux[i, j] + flux[j, i]
                if total >= 100:
                    assert abs(flux[i, j] - flux[j, i]) <= 5 * math.sqrt(total)

    def test_chain_length_validation(self):
        with pytest.raises(ValueError):
            mh_chain((0.0, 1.0), 0, (0.1, 0.1), lambda t: 0.0, rng())
        with pytest.raises(ValueError):
            PriorSwapWhittleEstimator(1, LAPLACE, chain_len=0)

    def test_negative_burn_in_rejected(self):
        # burn_in + chain_len steps would be fewer than the chain_len averaged
        with pytest.raises(ValueError, match="burn_in"):
            PriorSwapWhittleEstimator(2, LAPLACE, chain_len=10, burn_in=-5)

    @pytest.mark.parametrize("burn_in", [0, 3])
    def test_batch_kernel_matches_scalar_reference(self, burn_in):
        # one user: the batch kernel consumes the policy stream exactly like
        # the scalar chain (two normals, then a uniform, per step)
        obs = (1.4, 0.9, 1.8, 1.1)
        learner = PriorSwapWhittleEstimator(1, LAPLACE, chain_len=7, burn_in=burn_in, proposal_factor=1.3)
        r_batch, r_ref = rng(17), rng(17)
        theta = (1.0, 1.0)
        for k, x in enumerate(obs):
            fed(learner, (x,))
            post = nig_update(INIT_PRIOR, log_of(*obs[: k + 1]))
            samples = mh_chain(
                theta,
                7,
                default_proposal_scale(post, 1.3),
                lambda th: prior_swap_logdensity(th, post, INIT_PRIOR, LAPLACE),
                r_ref,
                burn_in=burn_in,
            )
            theta = samples[-1]
            got = learner.refresh(r_batch)
            assert r_batch.bit_generator.state == r_ref.bit_generator.state
            assert got[0] == pytest.approx(np.mean([s for s, _ in samples]), rel=1e-9)
            assert learner.chain_saving[0] == pytest.approx(theta[0], rel=1e-9)
            assert math.exp(learner.chain_logvar[0]) == pytest.approx(theta[1], rel=1e-9)


def _quadrature_saving_mean(logdensity, e_lo, e_hi, n=400):
    """Posterior mean of the saving by brute-force integration over
    (saving, log variance)."""
    es = np.linspace(e_lo, e_hi, n)
    lvs = np.linspace(math.log(1e-3), math.log(50.0), n)
    ee, ll = np.meshgrid(es, lvs, indexing="ij")
    logp = np.empty_like(ee)
    for i in range(n):
        for j in range(n):
            logp[i, j] = logdensity((ee[i, j], math.exp(ll[i, j]))) + ll[i, j]
    logp -= logp.max()
    w = np.exp(logp)
    return float((ee * w).sum() / w.sum())


class TestMhEstimate:
    def test_matches_quadrature(self):
        false_prior = NIGParams(1.0, 1.0, 1.0, 1.0)
        obs = (1.4, 0.9, 1.8)
        post = nig_update(false_prior, log_of(*obs))
        truth = _quadrature_saving_mean(
            lambda th: prior_swap_logdensity(th, post, false_prior, LAPLACE), -4.0, 6.0
        )
        # 48 independent chains from (1.0, 1.0), one per user
        learner = PriorSwapWhittleEstimator(48, LAPLACE, false_prior, chain_len=4000, burn_in=200)
        users = np.arange(48)
        for x in obs:
            learner.update(users, np.full(48, x))
        estimates = learner.refresh(rng(12))
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - truth) <= 3 * se

    def test_cost_independent_of_observation_count(self):
        false_prior = NIGParams(1.0, 1.0, 1.0, 1.0)
        r = rng(13)

        def per_decision_cost(n_obs):
            learner = fed(PriorSwapWhittleEstimator(1, LAPLACE, false_prior), r.normal(1.0, 0.8, n_obs))
            times = []
            for _ in range(60):
                t0 = time.perf_counter()
                learner.refresh(r)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        small, large = per_decision_cost(10), per_decision_cost(10_000)
        assert large < 2.0 * small


class TestEstimators:
    def test_mle_falls_back_to_init(self):
        est = MleWhittleEstimator(1, init_estimate=1.0)
        assert est.estimate()[0] == 1.0
        fed(est, (3.0,))
        assert est.estimate()[0] == 3.0
        est.reset()
        assert est.estimate()[0] == 1.0

    def test_bayes_mean_mode_uses_posterior_mean(self):
        est = fed(BayesWhittleEstimator(1), (2.0,))
        assert est.estimate()[0] == pytest.approx(1.5)

    def test_bayes_sample_mode_draws(self):
        draws = set()
        for seed in range(5):
            est = BayesWhittleEstimator(1, mode="sample")
            est.update(np.array([0]), np.array([2.0]), rng(seed))
            draws.add(float(est.estimate()[0]))
        assert len(draws) == 5

    def test_reset_clears_posterior(self):
        est = BayesWhittleEstimator(2)
        est.update(np.array([0, 1]), np.array([5.0, 3.0]))
        est.reset(np.array([0]))
        lam, mu, phi, nu = est.posterior()
        prior = est.prior
        assert (lam[0], mu[0], phi[0], nu[0]) == (prior.lam, prior.mu, prior.phi, prior.nu)
        assert est.estimate().tolist() == [1.0, 2.0]
        assert lam[1] == 2.0

    def test_prior_swap_reset_restarts_chain(self):
        learner = fed(PriorSwapWhittleEstimator(2, LAPLACE, init_theta=(0.5, 2.0)), (1.6, 1.7))
        learner.refresh(rng(18))
        learner.reset(np.array([1]))
        assert learner.count.tolist() == [2, 0]
        assert learner.chain_saving[1] == 0.5 and learner.chain_logvar[1] == math.log(2.0)

    def test_prior_swap_reset_restarts_estimate(self):
        learner = fed(PriorSwapWhittleEstimator(2, LAPLACE, init_theta=(0.5, 2.0)), (1.6, 1.7))
        kept = learner.refresh(rng(18))[1]
        learner.reset(np.array([0]))
        assert learner.estimate().tolist() == [0.5, kept]

    def test_prior_swap_estimator_tracks_truth(self):
        learner = PriorSwapWhittleEstimator(1, LAPLACE, chain_len=200)
        r = rng(14)
        fed(learner, r.normal(1.6, 0.05, 40))
        values = [learner.refresh(r)[0] for _ in range(30)]
        assert learner.estimate()[0] == values[-1]
        assert np.mean(values) == pytest.approx(1.6, abs=0.1)


class TestLearnedIndex:
    PEN = PenaltyFn.experiment(0.5)

    def test_initial_estimate_feeds_index(self):
        est = MleWhittleEstimator(1)
        got = whittle_index_array(3, 5, est.estimate()[0], 4, 0.99, self.PEN)
        want = whittle_index_array(3, 5, 1.0, 4, 0.99, self.PEN)
        assert got == want

    def test_consistency_with_vanishing_noise(self):
        noise = NoiseModel(true_saving=2.2, noise_var=1e-12)
        r = rng(15)
        est = fed(MleWhittleEstimator(1), [observe(noise, r) for _ in range(50)])
        got = whittle_index_array(2, 7, est.estimate()[0], 4, 0.9, PenaltyFn.theory(1.0))
        want = whittle_index_array(2, 7, 2.2, 4, 0.9, PenaltyFn.theory(1.0))
        assert got == pytest.approx(want, abs=1e-5)

    def test_no_work_is_zero_regardless_of_estimate(self):
        assert whittle_index_array(5, 0, 123.4, 4, 0.99, self.PEN) == 0.0
