"""Acceptance suite: one test (or test group) per release criterion, each
printing a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Known honest failures, kept red with their assertions unchanged:
  * criterion 4's stlw-wi >= wi clause: the paired completion difference
    is -0.037pp over seeds 0-19 (16 seeds negative, 2 positive, 2 tied;
    -0.046pp with 17 negative under the earlier closed-form index): the
    dominance refinement completes 1.25 fewer of about 3350 tasks per
    episode than the plain index ranking (-3 to +2 per seed).  The index
    is not the cause.  The refinement keeps dominance edges only between
    flat-regime users (``policies._stlw_pops``), the package's own departure
    from the literal rule; whether that matches the paper's STLW rule
    cannot be settled without its text.
  * criterion 4's edf (59.3% vs 70 +/- 6) and greedy (50.5% vs 66 +/- 6)
    bands: neither policy reads the index, the bands are the paper's
    Fig. 6 values, and the preset's load calibration (offload-window
    sizes, task_size_load 0.65) was tuned so the index policy lands on
    its reference level.  The paper's exact EDF and greedy definitions
    are not in the repository, so the cause is undetermined.
"""

import math
import time

import numpy as np
import pytest
from learning_oracles import log_of, nig_logpdf, nig_update, prior_swap_logdensity
from scipy import stats
from whittle_oracles import CRITERION_1_PENALTIES

from edgebandit.config import ExperimentCell, SimConfig, apply_overrides, preset_cells
from edgebandit.dynamics import PenaltyFn
from edgebandit.harness import _PsblBatch, read_csv, run_experiment
from edgebandit.learning import (
    BayesWhittleEstimator,
    MleWhittleEstimator,
    NIGParams,
    PriorSpec,
    PriorSwapWhittleEstimator,
)
from edgebandit.whittle import SubsidizedArmMDP, indexability_check, subsidy_threshold_table, whittle_index_array

SEEDS = list(range(20))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def run_preset(name: str, compute_bound: bool = False, overrides: dict | None = None):
    cells = preset_cells(name)
    if overrides:
        cells = [
            ExperimentCell(name=c.name, config=apply_overrides(c.config, overrides))
            for c in cells
        ]
    result = run_experiment(cells, SEEDS, compute_bound=compute_bound)
    assert result.ok, result.failures
    return cells, result


def records_by(result, **match):
    out = [
        r
        for r in result.records
        if all(getattr(r, key) == val for key, val in match.items())
    ]
    assert out, f"no records matching {match}"
    return sorted(out, key=lambda r: r.seed)


# ---------------------------------------------------------------------------
# criterion 1: the index against the subsidy-threshold oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("esav", [-1.0, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("pen_name", list(CRITERION_1_PENALTIES))
def test_criterion_1_closed_form_vs_oracle(pen_name, esav):
    """The index the scheduler ranks by equals the subsidy-threshold oracle
    on every state of the grid, including a negative saving and the
    offset penalty, whose integer nonconvexity broke the three-regime
    closed form (off by up to 0.99 at e = -1 and up to 3.45 at the fig6
    alpha = 5).  Capacities 3 and 5 are the fig6 ones besides 2 and 10."""
    penalty = CRITERION_1_PENALTIES[pen_name]
    worst = 0.0
    worst_at = None
    n_bad = 0
    n_states = 0
    for k in (1, 2, 3, 4, 5, 10):
        for beta in (0.9, 0.99):
            mdp = SubsidizedArmMDP(
                horizon=10, max_backlog=30, capacity=k, discount=beta,
                penalty=penalty, e_saving=esav,
            )
            oracle = subsidy_threshold_table(mdp)
            taus, bs = np.nonzero(~np.isnan(oracle))
            closed = whittle_index_array(
                taus, bs, np.full(taus.shape, esav), np.full(taus.shape, k), beta, penalty
            )
            diffs = np.abs(closed - oracle[taus, bs])
            n_bad += int(np.sum(diffs > 1e-6))
            n_states += diffs.size
            i = int(np.argmax(diffs))
            if diffs[i] > worst:
                worst = float(diffs[i])
                worst_at = (k, beta, int(taus[i]), int(bs[i]))
    report(
        f"criterion 1 ({pen_name}, e_saving={esav})",
        worst <= 1e-6,
        f"{n_bad} of {n_states} states off; max |index - oracle| = {worst:.3g} "
        f"at (k, beta, tau, b) = {worst_at}",
    )


# ---------------------------------------------------------------------------
# criterion 2: indexability on random arms; the checker catches a fake
# ---------------------------------------------------------------------------


class _NonIndexableChain:
    """Three-decision chain with oscillating active rewards (-4, 5, 5):
    for large subsidies the two passive slots behind the active action at
    the first state outweigh one passive slot, so its passive set is not
    monotone."""

    def passive_set(self, delta: float) -> np.ndarray:
        v_y = max(delta, 5.0) * 1.9
        return np.array([delta >= -4.0 + 0.9 * v_y, delta >= 5.0, delta >= 5.0])


def test_criterion_2_indexability():
    rng = np.random.default_rng(0)
    t0 = time.time()
    bad = []
    for trial in range(50):
        alpha = float(rng.uniform(0.1, 5.0))
        penalty = PenaltyFn.experiment(alpha) if rng.random() < 0.5 else PenaltyFn.theory(alpha)
        mdp = SubsidizedArmMDP(
            horizon=int(rng.integers(3, 11)),
            max_backlog=int(rng.integers(5, 31)),
            capacity=int(rng.integers(1, 11)),
            discount=float(rng.uniform(0.85, 0.999)),
            penalty=penalty,
            e_saving=float(rng.uniform(-2.0, 3.0)),
        )
        width = 2.0 * (mdp.penalty(mdp.max_backlog) + abs(mdp.e_saving)) + 1.0
        if not indexability_check(mdp, np.linspace(-width, width, 200)):
            bad.append(trial)
    counterexample = indexability_check(_NonIndexableChain(), np.linspace(0.0, 10.0, 200))
    ok = not bad and not counterexample.indexable and counterexample.violation is not None
    report(
        "criterion 2",
        ok,
        f"50 random arms indexable (violations: {bad}); counterexample flagged "
        f"with violation {counterexample.violation} ({time.time()-t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: reward ordering and the relaxed bound on fig3a
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig3a():
    return run_preset("fig3a", compute_bound=True)


def test_criterion_3_bound_every_seed(fig3a):
    _, result = fig3a
    worst = math.inf
    bad = []
    for rec in records_by(result, policy="wi"):
        margin = rec.relaxed_bound - rec.discounted_reward
        worst = min(worst, margin)
        if margin < 0:
            bad.append((rec.num_users, rec.seed, margin))
    report(
        "criterion 3 (bound)",
        not bad,
        f"relaxed bound dominates the index policy on all 60 runs; "
        f"smallest margin {worst:.2f}" if not bad else f"violations: {bad}",
    )


def test_criterion_3_orderings(fig3a):
    _, result = fig3a
    lines = []
    ok = True
    for n in (60, 80, 100):
        wi = np.array([r.discounted_reward for r in records_by(result, policy="wi", num_users=n)])
        for base in ("edf", "lst", "greedy"):
            other = np.array(
                [r.discounted_reward for r in records_by(result, policy=base, num_users=n)]
            )
            diff = wi - other
            half = stats.t.ppf(0.975, len(diff) - 1) * diff.std(ddof=1) / math.sqrt(len(diff))
            lo = diff.mean() - half
            ok &= lo > 0
            lines.append(f"N={n} wi-{base}: CI low {lo:.1f}")
    report("criterion 3 (ordering)", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 4: completion ratios on fig6
# ---------------------------------------------------------------------------

BANDS = {"stlw-wi": 0.82, "wi": 0.80, "lst": 0.72, "edf": 0.70, "greedy": 0.66}


@pytest.fixture(scope="module")
def fig6():
    return run_preset("fig6")


def _completions(result, policy):
    return np.array([r.completion_ratio for r in records_by(result, policy=policy)])


def test_criterion_4_stlw_not_below_wi(fig6):
    """Expected red: -0.037pp, systematic across seeds (see the module
    docstring).  It does not come from the index, which matches the oracle
    (criterion 1); the flat-regime scoping of the dominance graph is the
    open question."""
    _, result = fig6
    diff = _completions(result, "stlw-wi") - _completions(result, "wi")
    report(
        "criterion 4 (stlw-wi >= wi)",
        diff.mean() >= 0,
        f"paired mean completion difference {100*diff.mean():+.3f}pp",
    )


def test_criterion_4_strict_orderings(fig6):
    _, result = fig6
    lines = []
    ok = True
    for hi, lo in (("wi", "lst"), ("lst", "edf"), ("edf", "greedy")):
        diff = _completions(result, hi) - _completions(result, lo)
        t = stats.ttest_rel(
            _completions(result, hi), _completions(result, lo), alternative="greater"
        )
        ok &= t.pvalue < 0.05
        lines.append(f"{hi}>{lo}: {100*diff.mean():+.1f}pp p={t.pvalue:.2g}")
    report("criterion 4 (strict orderings)", ok, "; ".join(lines))


@pytest.mark.parametrize("policy", ["stlw-wi", "wi", "lst", "edf", "greedy"])
def test_criterion_4_band(fig6, policy):
    """Expected red for edf (59.3%) and greedy (50.5%), cause undetermined
    (see the module docstring); the bands, the 6pp tolerance, the seeds
    and the preset stay as the paper gives them."""
    _, result = fig6
    mean = _completions(result, policy).mean()
    target = BANDS[policy]
    report(
        f"criterion 4 (band {policy})",
        abs(mean - target) <= 0.06,
        f"completion {100*mean:.1f}% vs reference {100*target:.0f}% +/- 6pp",
    )


def test_criterion_4_runtime(fig6):
    # the whole fig6 sweep reruns in well under a minute; one episode of
    # every cell is timed because the cells' episode times differ by ~2x
    cells, _ = fig6
    t0 = time.time()
    run_experiment(cells, SEEDS[:1])
    projected = (time.time() - t0) * len(SEEDS)
    report(
        "criterion 4 (runtime)",
        projected < 60,
        f"~{projected:.0f}s projected for the full sweep",
    )


# ---------------------------------------------------------------------------
# criterion 5: penalty-weight tradeoff on fig4
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig4():
    return run_preset("fig4")


def test_criterion_5_alpha_tradeoff(fig4):
    cells, result = fig4
    alphas = sorted({c.config.penalty_alpha for c in cells})
    comp = np.empty((len(SEEDS), len(alphas)))
    save = np.empty_like(comp)
    for j, a in enumerate(alphas):
        recs = records_by(result, alpha=a)
        comp[:, j] = [r.completion_ratio for r in recs]
        save[:, j] = [r.energy_saving for r in recs]
    comp_rho = [stats.spearmanr(alphas, row).statistic for row in comp]
    save_rho = [stats.spearmanr(alphas, row).statistic for row in save]
    n_up = sum(r > 0 for r in comp_rho)
    n_down = sum(r < 0 for r in save_rho)
    p_up = stats.binomtest(n_up, len(SEEDS), 0.5, alternative="greater").pvalue
    p_down = stats.binomtest(n_down, len(SEEDS), 0.5, alternative="greater").pvalue
    report(
        "criterion 5",
        p_up < 0.05 and p_down < 0.05,
        f"completion rank-corr > 0 on {n_up}/20 seeds (p={p_up:.2g}); "
        f"saving rank-corr < 0 on {n_down}/20 seeds (p={p_down:.2g})",
    )


# ---------------------------------------------------------------------------
# criterion 6: conjugate posterior against grid quadrature
# ---------------------------------------------------------------------------


def _posterior_offset_spread(prior, samples, n_grid=100):
    learner = BayesWhittleEstimator(1, prior)
    for x in samples:
        learner.update(np.array([0]), np.array([float(x)]))
    post = NIGParams(*(float(a[0]) for a in learner.posterior()))
    mean_sd = math.sqrt(post.phi / (post.lam * post.nu))
    means = np.linspace(post.mu - 8 * mean_sd, post.mu + 8 * mean_sd, n_grid)
    v_scale = post.phi / post.nu
    variances = np.geomspace(v_scale / 50, v_scale * 50, n_grid)
    xs = np.asarray(samples)
    spreads = []
    for m in means:
        for v in variances:
            brute = nig_logpdf(m, v, prior) - 0.5 * np.sum(
                math.log(2 * math.pi * v) + (xs - m) ** 2 / v
            )
            spreads.append(brute - nig_logpdf(m, v, post))
    spreads = np.asarray(spreads)
    return float(spreads.max() - spreads.min())


def test_criterion_6_nig_posterior_oracle():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        prior = NIGParams(
            lam=float(rng.uniform(0.2, 4)),
            mu=float(rng.normal()),
            phi=float(rng.uniform(0.2, 4)),
            nu=float(rng.uniform(0.5, 4)),
        )
        samples = rng.normal(rng.normal(), rng.uniform(0.3, 1.5), int(rng.integers(1, 6)))
        worst = max(worst, _posterior_offset_spread(prior, samples))
    report(
        "criterion 6",
        worst <= 1e-6,
        f"50 random logs: worst pointwise relative density error {worst:.2g} "
        f"on 100x100 grids ({time.time()-t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 7: learning orderings on fig7/fig8
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig7():
    return run_preset("fig7")


@pytest.fixture(scope="module")
def fig8():
    return run_preset("fig8")


def _rewards(result, policy, m):
    return np.array(
        [r.discounted_reward for r in records_by(result, policy=policy, num_servers=m)]
    )


def test_criterion_7_gaussian_orderings(fig7):
    _, result = fig7
    lines = []
    ok = True
    for m in (30, 50):
        d1 = _rewards(result, "wi", m) - _rewards(result, "bl-wi", m)
        d2 = _rewards(result, "bl-wi", m) - _rewards(result, "mle-wi", m)
        ok &= d1.mean() >= 0 and d2.mean() >= 0
        lines.append(f"M={m}: wi-bl {d1.mean():+.1f}, bl-mle {d2.mean():+.1f}")
    report("criterion 7 (gaussian orderings)", ok, "; ".join(lines))


def test_criterion_7_laplace_prior_swapping(fig8):
    _, result = fig8
    diffs = np.concatenate(
        [_rewards(result, "psbl-wi", m) - _rewards(result, "bl-wi", m) for m in (30, 50)]
    )
    report(
        "criterion 7 (psbl >= bl)",
        diffs.mean() >= 0,
        f"paired mean reward difference {diffs.mean():+.2f} over {diffs.size} runs",
    )


def test_criterion_7_gaps_shrink(fig7):
    # gaps are measured relative to the known-energy reward level: the
    # absolute scale roughly triples from M/N 0.3 to 0.5 because more
    # offloads accrue savings, which would swamp an absolute comparison
    _, result = fig7
    lines = []
    ok = True
    for learner in ("bl-wi", "mle-wi"):
        gaps = {}
        for m in (30, 50):
            wi = _rewards(result, "wi", m)
            gaps[m] = (wi - _rewards(result, learner, m)) / np.abs(wi)
        t = stats.ttest_rel(gaps[30], gaps[50], alternative="greater")
        ok &= t.pvalue < 0.05
        lines.append(
            f"{learner}: relative gap {gaps[30].mean():.3f} -> {gaps[50].mean():.3f} (p={t.pvalue:.2g})"
        )
    report("criterion 7 (gaps shrink)", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 8: MH estimate correctness and observation-count independence
# ---------------------------------------------------------------------------


def test_criterion_8_mh():
    false_prior = NIGParams(1.0, 1.0, 1.0, 1.0)
    obs = (1.4, 0.9, 1.8)
    post = nig_update(false_prior, log_of(*obs))
    laplace = PriorSpec("laplace", 1.0, 0.2)

    def logdensity(theta):
        return prior_swap_logdensity(theta, post, false_prior, laplace)

    # quadrature oracle over (saving, log variance)
    es = np.linspace(-4.0, 6.0, 400)
    lvs = np.linspace(math.log(1e-3), math.log(50.0), 400)
    ee, ll = np.meshgrid(es, lvs, indexing="ij")
    logp = np.empty_like(ee)
    for i in range(es.size):
        for j in range(lvs.size):
            logp[i, j] = logdensity((ee[i, j], math.exp(ll[i, j]))) + ll[i, j]
    w = np.exp(logp - logp.max())
    truth = float((ee * w).sum() / w.sum())

    # 48 independent chains from (1.0, 1.0), one per user, on the batch kernel
    rng = np.random.default_rng(2)
    chains = PriorSwapWhittleEstimator(48, laplace, false_prior, chain_len=4000, burn_in=200)
    for x in obs:
        chains.update(np.arange(48), np.full(48, x))
    estimates = _PsblBatch(chains).refresh(rng)
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)
    mc_ok = abs(estimates.mean() - truth) <= 3 * se

    def one_user(learner, n_obs):
        for x in rng.normal(1.0, 0.8, n_obs):
            learner.update(np.array([0]), np.array([float(x)]))
        return learner

    def median_time(call, repeats=60):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def per_decision_cost(n_obs):
        batch = _PsblBatch(one_user(PriorSwapWhittleEstimator(1, laplace, false_prior), n_obs))
        return median_time(lambda: batch.refresh(rng))

    def per_update_cost(make, n_obs):
        learner = one_user(make(), n_obs)
        return median_time(lambda: learner.update(np.array([0]), np.array([1.0])))

    ratio = per_decision_cost(10_000) / per_decision_cost(10)
    learners = {
        "psbl": lambda: PriorSwapWhittleEstimator(1, laplace, false_prior),
        "bl": lambda: BayesWhittleEstimator(1, false_prior),
        "mle": lambda: MleWhittleEstimator(1),
    }
    update_ratios = {
        name: per_update_cost(make, 10_000) / per_update_cost(make, 10) for name, make in learners.items()
    }
    report(
        "criterion 8",
        mc_ok and ratio < 2.0 and max(update_ratios.values()) < 2.0,
        f"chain mean {estimates.mean():.4f} vs quadrature {truth:.4f} "
        f"(3 SE = {3*se:.4f}); cost ratio gamma 1e4 vs 10 = {ratio:.2f}x; update cost ratio "
        + ", ".join(f"{name} {r:.2f}x" for name, r in update_ratios.items()),
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    from edgebandit.cli import main

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        code = main(["simulate", "--preset", "fig4", "--seeds", "2", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    report(
        "criterion 9",
        outs[0] == outs[1],
        f"two runs of the fig4 preset wrote identical {len(outs[0])}-byte files",
    )
