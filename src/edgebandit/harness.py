"""Experiment orchestration: scenario generation, episode execution, sweeps
over experiment grids, and CSV output.

Randomness discipline: every run derives independent substreams from
``(master_seed, seed)`` - one per user for task arrivals, one per user for
fading/saving draws, one per user for measurement noise, plus a single
policy stream (posterior sampling, MH proposals).  Task timelines are
action-independent, so two policies replayed on the same seed face
identical arrivals, workloads, deadlines, and channel draws; learning
policies cannot perturb the environment they are measured on.

Each (scenario, seed) timeline - every arrival slot, duration, size and
true saving, and every user's measurement noise - is therefore drawn
once, as arrays, before the slot loop reads it.  Observation k of user i
reads draw k of its noise stream, whatever task or fading block it falls
in.  The last user profiles drawn are kept with their timeline, so the
cells of one seed that differ only in policy-side fields (policy,
estimator, servers, penalty, discount, learner settings) share them;
:func:`run_experiment` runs its episodes seed by seed for that reason.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.special import gammaln

from . import mec
from .config import ConfigError, ExperimentCell, SimConfig
from .dynamics import TaskGenerator, reward, step
# ``observe`` stays importable as ``harness.observe``, a name the benchmark
# tracer hooks; the episode reads its noise from the timeline instead
from .learning import (
    BayesWhittleEstimator,
    MleWhittleEstimator,
    PriorSpec,
    PriorSwapWhittleEstimator,
    observe,  # noqa: F401
)
from .policies import PolicyKind, select, slot_keys
from .whittle import ArmChain, relaxed_upper_bound, whittle_index_array

__all__ = [
    "RunRecord",
    "EpisodeInfo",
    "Scenario",
    "build_scenario",
    "build_arm_chains",
    "run_episode",
    "run_experiment",
    "ExperimentResult",
    "CellSummary",
    "emit_csv",
    "read_csv",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one episode."""

    policy: str
    num_users: int
    num_servers: int
    alpha: float
    seed: int
    discounted_reward: float
    completion_ratio: float
    energy_saving: float
    relaxed_bound: Optional[float] = None


@dataclass(frozen=True)
class EpisodeInfo:
    """Bookkeeping facts about one episode, for tests and metadata."""

    deadline_tasks: int
    completed_tasks: int
    violated_tasks: int
    max_abs_slot_reward: float
    reward_tail_bound: float


@dataclass(frozen=True)
class Scenario:
    """Per-seed static world: user profiles and derived constants."""

    profiles: tuple[mec.UserProfile, ...]
    env: mec.ChannelEnvironment
    capacities: np.ndarray
    e_locals: np.ndarray
    noise_vars: np.ndarray


def _stream(master_seed: int, seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, seed, *key])))


def build_scenario(cfg: SimConfig, seed: int) -> Scenario:
    """Draw user profiles for one run and validate the whole configuration.

    Every validation failure is collected so the error lists all problems
    at once, before any slot executes.  An invalid channel environment
    ends the checks there, because the per-user checks compute with it.

    The profiles read only the fields of the timeline's key, so the last
    scenario that validated is kept, with read-only arrays, and returned
    again for a config with the same key once the config's own checks,
    which cover the policy-side fields too, pass.
    """
    errors = cfg.validation_errors()
    key = _timeline_key(cfg, seed)
    if not errors and key in _last_drawn:
        return _last_drawn[key].scenario
    rng = _stream(cfg.master_seed, seed, 0)
    env = mec.ChannelEnvironment(
        pathloss_const=mec.db_to_linear(cfg.pathloss_const_db),
        ref_distance=cfg.ref_distance,
        pathloss_exp=cfg.pathloss_exp,
        noise_density=mec.dbm_to_watts(cfg.noise_density_dbm),
        server_freq=cfg.server_freq,
    )
    try:
        env.validate()
    except ValueError as exc:
        raise ConfigError("; ".join([*errors, str(exc)])) from exc

    profiles = []
    capacities = np.zeros(cfg.num_users, dtype=np.int64)
    e_locals = np.zeros(cfg.num_users)
    noise_vars = np.zeros(cfg.num_users)
    for i in range(cfg.num_users):
        distance = rng.uniform(cfg.distance_low, cfg.distance_high)
        tx_dbm = rng.uniform(cfg.tx_power_low_dbm, cfg.tx_power_high_dbm)
        cpu = cfg.cpu_freq_choices[rng.integers(len(cfg.cpu_freq_choices))]
        cycles = cfg.cycles_per_bit_choices[rng.integers(len(cfg.cycles_per_bit_choices))]
        bits = cfg.subtask_bits_choices[rng.integers(len(cfg.subtask_bits_choices))]
        noise_vars[i] = rng.uniform(cfg.noise_var_low, cfg.noise_var_high)
        profile = mec.UserProfile(
            user_id=i,
            cpu_freq=cpu,
            cycles_per_bit=cycles,
            subtask_bits=bits,
            tx_power=mec.dbm_to_watts(tx_dbm),
            bandwidth=cfg.bandwidth,
            distance=distance,
            power_coeff=cfg.power_coeff,
        )
        profiles.append(profile)
        try:
            profile.validate(ref_distance=cfg.ref_distance)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        try:
            capacities[i] = mec.offload_capacity(profile, env)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        e_locals[i] = mec.local_energy_per_subtask(profile, cfg.energy_model)
        if cfg.energy_truth == "channel":
            # transmit time at unit fading must fit in the slot
            gain = mec.channel_gain(env, distance)
            rate = mec.transmission_rate(profile, gain, env)
            if rate <= 0:
                errors.append(f"user {i}: zero-rate channel at unit fading")
            else:
                tx_time = mec.offload_energy(profile, rate, int(capacities[i])).tx_time
                if tx_time > cfg.slot_length:
                    errors.append(
                        f"user {i}: nominal transmit time {tx_time:.3g}s exceeds "
                        f"slot length {cfg.slot_length:.3g}s"
                    )
    if errors:
        raise ConfigError("; ".join(errors))
    for arr in (capacities, e_locals, noise_vars):
        arr.flags.writeable = False
    scn = Scenario(
        profiles=tuple(profiles),
        env=env,
        capacities=capacities,
        e_locals=e_locals,
        noise_vars=noise_vars,
    )
    _last_drawn.clear()
    _last_drawn[key] = _Drawn(scn)
    return scn


def _true_prior_spec(cfg: SimConfig) -> PriorSpec:
    if cfg.energy_truth == "laplace":
        return PriorSpec(kind="laplace", location=cfg.truth_location, scale=cfg.truth_spread)
    return PriorSpec(kind="gaussian", location=cfg.truth_location, scale=cfg.truth_spread)


def _size_window(cfg: SimConfig, capacity: int, duration: int) -> tuple[int, int]:
    """Inclusive size range for one drawn duration under the config's rule."""
    if cfg.task_size_rule == "uniform":
        return 1, cfg.max_task_size
    hi = min(cfg.max_task_size, capacity * duration)
    if cfg.task_size_rule == "server-feasible":
        return 1, hi
    # offload-window: needs offloading (cannot finish locally) and sized in
    # the top part of the feasible window set by task_size_load
    lo = min(hi, max(duration + 1, math.ceil(cfg.task_size_load * hi)))
    return lo, hi


def _task_generator(cfg: SimConfig, capacity: int) -> TaskGenerator:
    size_dist = None
    if cfg.task_size_rule != "uniform":

        def size_dist(rng: np.random.Generator, duration: int) -> int:
            lo, hi = _size_window(cfg, capacity, duration)
            return int(rng.integers(lo, hi + 1))

    return TaskGenerator(
        arrival_prob=cfg.arrival_prob,
        max_duration=cfg.max_task_duration,
        max_task_size=cfg.max_task_size,
        size_dist=size_dist,
    )


def _draw_saving(cfg: SimConfig, scn: Scenario, rng: np.random.Generator, i: int) -> float:
    """One draw of user ``i``'s true per-block energy saving from its fading stream."""
    if cfg.energy_truth == "channel":
        kappa = rng.exponential(1.0)
        profile = scn.profiles[i]
        gain = mec.channel_gain(scn.env, profile.distance, kappa)
        rate = mec.transmission_rate(profile, gain, scn.env)
        e_off = mec.offload_energy(profile, rate, int(scn.capacities[i])).energy
        return mec.energy_saving(float(scn.e_locals[i]), e_off, int(scn.capacities[i]))
    if cfg.energy_truth == "gaussian":
        return float(rng.normal(cfg.truth_location, math.sqrt(cfg.truth_spread)))
    return float(rng.laplace(cfg.truth_location, cfg.truth_spread))


class _Timeline(NamedTuple):
    """The action-independent draws of one (scenario, seed), as read-only arrays.

    The arrivals at the end of slot t are rows ``starts[t]:starts[t+1]`` of
    ``user``, ``duration`` and ``size``, users ascending.  ``saving`` holds
    the true saving of each arrival or, when ``fading_period_slots > 0``,
    one row of every user's saving per fading block.  Row i of ``noise``
    is the first ``horizon`` standard normals of user i's noise stream: a
    user measures at most once per slot, and its k-th measurement reads
    column k.
    """

    starts: np.ndarray
    user: np.ndarray
    duration: np.ndarray
    size: np.ndarray
    saving: np.ndarray
    noise: np.ndarray


def _draw_timeline(cfg: SimConfig, scn: Scenario, seed: int) -> _Timeline:
    """Walk each user's task and fading streams once, with the calls and in
    the order of a slot-by-slot episode.

    A user is checked for an arrival at the end of every slot it ends idle;
    the countdown runs whatever the policy does, so after an arrival of
    duration d the next check is d slots later.
    """
    horizon, period = cfg.horizon, cfg.fading_period_slots
    events: list[tuple[int, int, int, int]] = []  # (slot, user, duration, size)
    savings: list[float] = []
    noise = np.empty((cfg.num_users, horizon))
    for i in range(cfg.num_users):
        noise[i] = _stream(cfg.master_seed, seed, 3, i).standard_normal(horizon)
        tasks = _stream(cfg.master_seed, seed, 1, i)
        fading = _stream(cfg.master_seed, seed, 2, i)
        gen = _task_generator(cfg, int(scn.capacities[i]))
        t = 0
        while t < horizon:
            if gen.maybe_arrival(tasks):
                duration, size = gen.draw(tasks)
                events.append((t, i, duration, size))
                if period == 0:
                    savings.append(_draw_saving(cfg, scn, fading, i))
                t += duration
            else:
                t += 1
        if period > 0:
            savings.extend(_draw_saving(cfg, scn, fading, i) for _ in range(0, horizon, period))
    cols = np.array(events, dtype=np.int64).reshape(-1, 4)
    order = np.argsort(cols[:, 0], kind="stable")  # by slot, then user
    saving = np.array(savings)
    if period == 0:
        saving = saving[order]
    else:
        saving = saving.reshape(cfg.num_users, -1).T.copy()
    slot, user, duration, size = cols[order].T.copy()
    starts = np.searchsorted(slot, np.arange(horizon + 1))
    timeline = _Timeline(starts, user, duration, size, saving, noise)
    for arr in timeline:
        arr.flags.writeable = False
    return timeline


# fields that neither the scenario nor the timeline reads; every other
# field, including any added later, stays in the timeline's key
_POLICY_SIDE_FIELDS = (
    "policy",
    "estimator",
    "num_servers",
    "penalty",
    "penalty_alpha",
    "discount",
    "mh_samples",
    "mh_burn_in",
    "mh_proposal_factor",
    "nig_variant",
    "bl_estimate",
    "estimate_trace_path",
    "bound_esav_samples",
    "replications",
)
_DEFAULTS = SimConfig()


def _timeline_key(cfg: SimConfig, seed: int) -> tuple[SimConfig, int]:
    return dataclasses.replace(cfg, **{f: getattr(_DEFAULTS, f) for f in _POLICY_SIDE_FIELDS}), seed


@dataclass
class _Drawn:
    """The scenario of one timeline key and, once an episode needs it, the
    timeline drawn from it."""

    scenario: Scenario
    timeline: Optional[_Timeline] = None


_last_drawn: dict = {}  # at most one entry, {_timeline_key: _Drawn}


def _shared_timeline(cfg: SimConfig, seed: int) -> _Timeline:
    """The timeline of (cfg, seed), drawn on first use from the scenario
    that :func:`build_scenario` kept for the same key."""
    drawn = _last_drawn[_timeline_key(cfg, seed)]
    if drawn.timeline is None:
        drawn.timeline = _draw_timeline(cfg, drawn.scenario, seed)
    return drawn.timeline


class _PsblBatch:
    """The Metropolis-Hastings kernel of the prior-swapping learner.

    Advances every user's chain in lockstep, reading and writing the
    learner's arrays.  Chains are independent across users, so one
    vectorised sweep per slot is exact; proposals come from the shared
    policy stream.  Steps are independent Gaussians on (saving, log
    variance), a symmetric proposal, so the acceptance ratio is the target
    ratio alone, with the log-variance Jacobian folded into the target.
    Rejection keeps the previous state.
    """

    def __init__(self, learner: PriorSwapWhittleEstimator):
        self.learner = learner

    def _target(self, lam, mu, phi, nu):
        """Log target at (saving, log variance): the swapped density, whose
        shared inverse-gamma variance prior cancels, plus the Jacobian.  The
        posterior is fixed within a slot, so its constants are folded once."""
        fp = self.learner.false_prior
        const = 0.5 * (np.log(lam) - math.log(fp.lam)) + nu * np.log(phi) - gammaln(nu)
        half_lam, half_fp_lam = 0.5 * lam, 0.5 * fp.lam
        true_logpdf = self.learner.true_prior.logpdf

        def target(sav, logvar):
            scale = half_lam * (sav - mu) ** 2 + phi - half_fp_lam * (sav - fp.mu) ** 2
            return const - nu * logvar - scale * np.exp(-logvar) + true_logpdf(sav)

        return target

    def refresh(self, rng: np.random.Generator) -> np.ndarray:
        ps = self.learner
        lam, mu, phi, nu = ps.posterior()
        target = self._target(lam, mu, phi, nu)
        n = lam.size
        # proposal scales of (saving, log variance), one row each like the state
        pf = ps.proposal_factor
        scales = np.stack((pf * np.sqrt(phi / (lam * nu)), pf / np.sqrt(nu)))

        state = ps.chain
        cur = target(*state)
        total = np.zeros(n)
        for step in range(ps.burn_in + ps.chain_len):
            # one call draws every saving proposal, then every log-variance one
            prop = state + scales * rng.standard_normal((2, n))
            cand = target(*prop)
            accept = np.log(rng.random(n)) < cand - cur
            state = np.where(accept, prop, state)
            cur = np.where(accept, cand, cur)
            if step >= ps.burn_in:
                total += state[0]
        ps.chain = state
        ps.chain_mean = total / ps.chain_len
        return ps.chain_mean


def _learner(cfg: SimConfig, n: int):
    """The episode's learner over all n users, or None for known savings."""
    if cfg.estimator == "mle":
        return MleWhittleEstimator(n)
    if cfg.estimator == "bl":
        return BayesWhittleEstimator(n, variant=cfg.nig_variant, mode=cfg.bl_estimate)
    if cfg.estimator == "psbl":
        return PriorSwapWhittleEstimator(
            n,
            true_prior=_true_prior_spec(cfg),
            chain_len=cfg.mh_samples,
            burn_in=cfg.mh_burn_in,
            proposal_factor=cfg.mh_proposal_factor,
            variant=cfg.nig_variant,
        )
    return None


def _run_episode_full(cfg: SimConfig, seed: int) -> tuple[RunRecord, EpisodeInfo]:
    scn = build_scenario(cfg, seed)
    kind = PolicyKind.parse(cfg.policy)
    penalty = cfg.penalty_fn()
    n, m, horizon, beta = cfg.num_users, cfg.num_servers, cfg.horizon, cfg.discount
    caps = scn.capacities

    timeline = _shared_timeline(cfg, seed)
    period = cfg.fading_period_slots
    policy_rng = _stream(cfg.master_seed, seed, 4)

    learner = _learner(cfg, n)
    psbl = _PsblBatch(learner) if cfg.estimator == "psbl" else None
    noise_sd = np.sqrt(scn.noise_vars)
    # each user's measurements so far; its noise stream runs on across
    # tasks and fading blocks, so this never resets
    n_obs = np.zeros(n, dtype=np.int64)

    tau = np.zeros(n, dtype=np.int64)
    backlog = np.zeros(n, dtype=np.int64)
    # only the index policies rank by the index and only greedy by the
    # gain; the others get zeros
    index_policy = kind in (PolicyKind.WI, PolicyKind.STLW_WI)
    wi = np.zeros(n)
    gain = np.zeros(n)
    # 0 until a user's first task (or its first fading block) sets it
    esav_true = np.zeros(n)

    discounted = 0.0
    realized_saving = 0.0
    deadline_tasks = 0
    completed_tasks = 0
    max_abs_slot_reward = 0.0
    trace_lines: Optional[list[str]] = None
    if cfg.estimate_trace_path and learner is not None:
        trace_lines = ["slot,user,estimate,true_saving"]

    for t in range(horizon):
        if period > 0 and t % period == 0:
            # block savings exist from the start, even before the first task
            esav_true = timeline.saving[t // period]
            if learner is not None and t > 0:
                learner.reset()

        believed = esav_true
        if learner is not None:
            if psbl is not None:
                psbl.refresh(policy_rng)
            believed = learner.estimate()
            if trace_lines is not None:
                trace_lines.extend(
                    f"{t},{i},{believed[i]:.17g},{esav_true[i]:.17g}" for i in range(n)
                )
        esav_ranking = np.where(tau > 0, believed, 0.0)

        if index_policy:
            wi = whittle_index_array(tau, backlog, esav_ranking, caps, beta, penalty)
        if kind is PolicyKind.GREEDY:
            # the immediate advantage of acting: reward(s, 1) - reward(s, 0)
            gain = reward(tau, backlog, 1, esav_ranking, caps, penalty)
            gain -= reward(tau, backlog, 0, esav_ranking, caps, penalty)
        action = select(kind, slot_keys(tau, backlog, caps, wi, gain), m)
        sel = np.zeros(n, dtype=np.int64)
        sel[list(action.selected)] = 1

        # rewards use the true savings regardless of what the policy knows
        slot = step(tau, backlog, sel, esav_true, caps, penalty)
        slot_reward = float(slot.reward.sum())
        discounted += beta**t * slot_reward
        max_abs_slot_reward = max(max_abs_slot_reward, abs(slot_reward))
        offloading = (sel == 1) & (backlog > 0)
        realized_saving += float(esav_true[offloading].sum())

        ended = tau == 1
        deadline_tasks += int(ended.sum())
        completed_tasks += int((ended & (slot.leftover == 0)).sum())

        if learner is not None:
            users = np.nonzero(offloading)[0]
            if users.size:
                obs = esav_true[users] + noise_sd[users] * timeline.noise[users, n_obs[users]]
                n_obs[users] += 1
                if cfg.estimator == "bl":
                    learner.update(users, obs, policy_rng)
                else:
                    learner.update(users, obs)

        tau, backlog = slot.tau, slot.backlog
        rows = slice(timeline.starts[t], timeline.starts[t + 1])
        arrived = timeline.user[rows]
        if arrived.size:
            tau[arrived] = timeline.duration[rows]
            backlog[arrived] = timeline.size[rows]
            if period == 0:
                esav_true[arrived] = timeline.saving[rows]
                if learner is not None:
                    learner.reset(arrived)

    if trace_lines is not None:
        trace_path = Path(cfg.estimate_trace_path.format(seed=seed))
        trace_path.write_text("\n".join(trace_lines) + "\n", encoding="utf-8")

    ratio = completed_tasks / deadline_tasks if deadline_tasks else 0.0
    record = RunRecord(
        policy=cfg.policy_label(),
        num_users=n,
        num_servers=m,
        alpha=cfg.penalty_alpha,
        seed=seed,
        discounted_reward=discounted,
        completion_ratio=ratio,
        energy_saving=realized_saving,
    )
    tail = (
        max_abs_slot_reward * beta**horizon / (1.0 - beta) if beta < 1.0 else math.inf
    )
    info = EpisodeInfo(
        deadline_tasks=deadline_tasks,
        completed_tasks=completed_tasks,
        violated_tasks=deadline_tasks - completed_tasks,
        max_abs_slot_reward=max_abs_slot_reward,
        reward_tail_bound=tail,
    )
    return record, info


def run_episode(cfg: SimConfig, seed: int) -> RunRecord:
    """Run one episode; deterministic given (cfg, seed)."""
    record, _ = _run_episode_full(cfg, seed)
    return record


# ---------------------------------------------------------------------------
# Relaxed bound construction
# ---------------------------------------------------------------------------


def _esav_quantile_samples(cfg: SimConfig, scn: Scenario, i: int) -> np.ndarray:
    """Equiprobable per-task saving values for the bound's arm chain."""
    n_q = cfg.bound_esav_samples
    q = (np.arange(n_q) + 0.5) / n_q
    if cfg.energy_truth == "channel":
        kappa = -np.log1p(-q)
        profile = scn.profiles[i]
        base_gain = mec.channel_gain(scn.env, profile.distance)
        noise_power = scn.env.noise_density * profile.bandwidth
        rate = profile.bandwidth * np.log2(1.0 + profile.tx_power * kappa * base_gain / noise_power)
        cap = int(scn.capacities[i])
        e_off = cap * profile.subtask_bits / rate * profile.tx_power
        return cap * float(scn.e_locals[i]) - e_off
    if cfg.energy_truth == "gaussian":
        from scipy.stats import norm

        return norm.ppf(q, loc=cfg.truth_location, scale=math.sqrt(cfg.truth_spread))
    # laplace quantile function
    return cfg.truth_location - cfg.truth_spread * np.sign(q - 0.5) * np.log1p(-2.0 * np.abs(q - 0.5))


def _size_matrix(cfg: SimConfig, capacity: int) -> np.ndarray:
    """P(size | duration) rows matching the task generator's rule."""
    out = np.zeros((cfg.max_task_duration, cfg.max_task_size))
    for d in range(1, cfg.max_task_duration + 1):
        lo, hi = _size_window(cfg, capacity, d)
        out[d - 1, lo - 1 : hi] = 1.0 / (hi - lo + 1)
    return out


def build_arm_chains(cfg: SimConfig, seed: int) -> list[ArmChain]:
    """Per-user decoupled chains matching the scenario of (cfg, seed).

    The arrival law and each capacity's size table are one read-only array
    shared by the arms that have them.
    """
    scn = build_scenario(cfg, seed)
    penalty = cfg.penalty_fn()
    dur = np.full(cfg.max_task_duration, 1.0 / cfg.max_task_duration)
    sizes = {k: _size_matrix(cfg, k) for k in np.unique(scn.capacities).tolist()}
    for table in (dur, *sizes.values()):
        table.setflags(write=False)
    return [
        ArmChain(
            capacity=int(scn.capacities[i]),
            penalty=penalty,
            arrival_prob=cfg.arrival_prob,
            duration_probs=dur,
            size_probs=sizes[int(scn.capacities[i])],
            esav_values=_esav_quantile_samples(cfg, scn, i),
        )
        for i in range(cfg.num_users)
    ]


def compute_relaxed_bound(cfg: SimConfig, seed: int, horizon: Optional[int] = -1) -> float:
    """Relaxed bound for the scenario of (cfg, seed).

    By default the bound matches the run's finite horizon so it dominates
    the truncated rewards in the records; pass ``horizon=None`` for the
    stationary infinite-horizon value.
    """
    chains = build_arm_chains(cfg, seed)
    if horizon == -1:
        horizon = cfg.horizon
    return relaxed_upper_bound(chains, cfg.num_servers, cfg.discount, horizon=horizon)


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSummary:
    """Mean and normal-approximation 95% CI per metric for one cell."""

    cell: str
    n_runs: int
    reward_mean: float
    reward_ci: float
    completion_mean: float
    completion_ci: float
    saving_mean: float
    saving_ci: float


@dataclass
class ExperimentResult:
    records: list[RunRecord]
    summaries: list[CellSummary]
    failures: list[tuple[str, int, str]]
    metadata: dict

    @property
    def ok(self) -> bool:
        return not self.failures


def _mean_ci(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, half


def _task(args: tuple[str, SimConfig, int]) -> Union[tuple[RunRecord, EpisodeInfo], float, Exception]:
    """One episode or one relaxed bound; failures come back as the exception."""
    kind, cfg, seed = args
    try:
        if kind == "bound":
            return compute_relaxed_bound(cfg, seed)
        return _run_episode_full(cfg, seed)
    except Exception as exc:  # noqa: BLE001 - failures isolate per cell-seed
        return exc


def _bound_key(cfg: SimConfig, seed: int) -> tuple[SimConfig, int]:
    # the bound depends on the scenario only, not on the policy
    return dataclasses.replace(cfg, policy="wi", estimator="known"), seed


def run_experiment(
    cells: Sequence[ExperimentCell],
    seeds: Sequence[int],
    compute_bound: bool = False,
    jobs: int = 1,
) -> ExperimentResult:
    """Run every (cell, seed) pair and aggregate.

    Failures are isolated per cell-seed and reported, never silently
    dropped.  The relaxed bound, when requested, is computed once per
    scenario (it does not depend on the policy), in the same worker pool
    as the episodes, and attached to every record of that scenario.
    """
    if not cells:
        raise ValueError("empty experiment grid")
    records: list[RunRecord] = []
    failures: list[tuple[str, int, str]] = []
    metadata: dict = {"seeds": list(seeds), "tail_bound": {}}

    # episodes run seed by seed, so consecutive ones (in a worker's chunk
    # too) share the seed's timeline; results are filed cell by cell
    work = [("episode", cell.config, s) for s in seeds for cell in cells]
    n_episodes = len(work)
    bound_tasks: dict = {}
    if compute_bound:
        for _, cfg, s in work:
            bound_tasks.setdefault(_bound_key(cfg, s), ("bound", cfg, s))
    work += bound_tasks.values()
    if jobs > 1:
        with Pool(jobs) as pool:
            outcomes = pool.map(_task, work)
    else:
        outcomes = [_task(w) for w in work]
    bounds = dict(zip(bound_tasks, outcomes[n_episodes:]))

    # records are matched to their cell by index: cells may share every
    # field a record carries (policy, N, M, alpha) and differ elsewhere
    summaries = []
    for i, cell in enumerate(cells):
        first = len(records)
        for s, outcome in zip(seeds, outcomes[i:n_episodes:len(cells)]):
            if isinstance(outcome, Exception):
                failures.append((cell.name, s, f"{type(outcome).__name__}: {outcome}"))
                continue
            record, info = outcome
            if compute_bound:
                bound = bounds[_bound_key(cell.config, s)]
                if isinstance(bound, Exception):
                    failures.append((cell.name, s, f"relaxed bound: {type(bound).__name__}: {bound}"))
                    continue
                record = dataclasses.replace(record, relaxed_bound=bound)
            records.append(record)
            prev = metadata["tail_bound"].get(cell.name, 0.0)
            metadata["tail_bound"][cell.name] = max(prev, info.reward_tail_bound)

        cell_records = records[first:]
        if not cell_records:
            continue
        rm, rc = _mean_ci([r.discounted_reward for r in cell_records])
        cm, cc = _mean_ci([r.completion_ratio for r in cell_records])
        sm, sc = _mean_ci([r.energy_saving for r in cell_records])
        summaries.append(
            CellSummary(
                cell=cell.name,
                n_runs=len(cell_records),
                reward_mean=rm,
                reward_ci=rc,
                completion_mean=cm,
                completion_ci=cc,
                saving_mean=sm,
                saving_ci=sc,
            )
        )
    return ExperimentResult(records=records, summaries=summaries, failures=failures, metadata=metadata)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "policy",
    "N",
    "M",
    "alpha",
    "seed",
    "discounted_reward",
    "completion_ratio",
    "energy_saving",
    "relaxed_bound",
)


def _fmt(x: float) -> str:
    # 17 significant digits: exact float round-trip
    return format(x, ".17g")


def emit_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    """Write records as UTF-8 CSV with a stable column order.

    Errors on an empty record list before creating any file; I/O failures
    carry the path in the message.
    """
    if not records:
        raise ValueError(f"no records to write to {path}")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                (
                    r.policy,
                    str(r.num_users),
                    str(r.num_servers),
                    _fmt(r.alpha),
                    str(r.seed),
                    _fmt(r.discounted_reward),
                    _fmt(r.completion_ratio),
                    _fmt(r.energy_saving),
                    "" if r.relaxed_bound is None else _fmt(r.relaxed_bound),
                )
            )
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[RunRecord]:
    """Parse a CSV produced by :func:`emit_csv` back into records."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unrecognized header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        out.append(
            RunRecord(
                policy=parts[0],
                num_users=int(parts[1]),
                num_servers=int(parts[2]),
                alpha=float(parts[3]),
                seed=int(parts[4]),
                discounted_reward=float(parts[5]),
                completion_ratio=float(parts[6]),
                energy_saving=float(parts[7]),
                relaxed_bound=float(parts[8]) if parts[8] else None,
            )
        )
    return out
