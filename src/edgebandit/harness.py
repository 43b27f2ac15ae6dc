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
true saving - is therefore drawn once, as arrays, before the slot loop
reads it, and so is every user's measurement noise, once the first
episode with a learner needs it.  Observation k of user i reads draw k of
its noise stream, whatever task or fading block it falls in.  The task
streams are read raw: every user's arrival checks, durations and sizes are
drawn in lockstep from its PCG64 outputs, which reproduce numpy's scalar
``random()`` and ``integers()`` calls bit for bit, and each user's savings
take one vector call on its fading stream.  The last
scenario drawn is kept with its timeline and noise, so the
cells of one seed that differ only in policy-side fields (policy,
estimator, servers, penalty, discount, learner settings) share them;
:func:`run_experiment` runs its episodes seed by seed for that reason.

:func:`run_experiment` imports ``multiprocessing`` only to run more than
one job, so importing the package loads numpy and its own modules only.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import mec
from .config import ConfigError, ExperimentCell, SimConfig
from .dynamics import reward, step
# ``observe`` stays importable as ``harness.observe``, a name the benchmark
# tracer hooks; the episode reads its measurement noise from _draw_noise instead
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
    """Per-seed static world: the channel environment and read-only
    per-user arrays drawn from the scenario stream."""

    env: mec.ChannelEnvironment
    capacities: np.ndarray
    e_locals: np.ndarray
    noise_vars: np.ndarray
    path_ratios: np.ndarray  # (ref_distance / distance) ** pathloss_exp
    tx_powers: np.ndarray  # watts
    subtask_bits: np.ndarray


def _stream(master_seed: int, seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([master_seed, seed, *key])))


def build_scenario(cfg: SimConfig, seed: int) -> Scenario:
    """Draw the users of one run and validate the whole configuration.

    Every validation failure is collected so the error lists all problems
    at once, before any slot executes.  An invalid channel environment
    ends the checks there, because the per-user checks compute with it.
    Under channel truth every valid user's transmit time at unit fading
    must fit in the slot.

    The users read only the fields of the timeline's key, so the last
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

    n = cfg.num_users
    capacities = np.zeros(n, dtype=np.int64)
    e_locals, noise_vars, path_ratios, tx_powers, subtask_bits = np.zeros((5, n))
    for i in range(n):
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
        try:
            profile.validate(ref_distance=cfg.ref_distance)
            capacities[i] = mec.offload_capacity(profile, env)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        e_locals[i] = mec.local_energy_per_subtask(profile, cfg.energy_model)
        path_ratios[i] = (env.ref_distance / distance) ** env.pathloss_exp
        tx_powers[i] = profile.tx_power
        subtask_bits[i] = bits
    for arr in (capacities, e_locals, noise_vars, path_ratios, tx_powers, subtask_bits):
        arr.flags.writeable = False
    scn = Scenario(env, capacities, e_locals, noise_vars, path_ratios, tx_powers, subtask_bits)
    if cfg.energy_truth == "channel":
        errors += _unit_fading_errors(cfg, scn, np.flatnonzero(capacities))  # the valid users
    if errors:
        raise ConfigError("; ".join(errors))
    _last_drawn.clear()
    _last_drawn[key] = _Drawn(scn)
    return scn


def _offload(
    cfg: SimConfig, scn: Scenario, users: np.ndarray, fading: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The saving and transmit time of one offload by each listed user at
    the fading power gain beside it, as two arrays.

    The one channel-saving formula of the package outside mec's scalar
    functions, with their float operations in their order and ``math.log2``
    per value, where ``np.log2`` can differ in the last bit.  Raises
    ValueError on a zero-rate channel.
    """
    env, cap, tx_power = scn.env, scn.capacities[users], scn.tx_powers[users]
    gain = fading * env.pathloss_const * scn.path_ratios[users]
    snr = 1.0 + tx_power * gain / (env.noise_density * cfg.bandwidth)
    rate = cfg.bandwidth * np.fromiter(map(math.log2, snr.tolist()), dtype=np.float64, count=snr.size)
    if (rate <= 0).any():
        raise ValueError("zero-rate channel")
    tx_time = cap * scn.subtask_bits[users] / rate
    return cap * scn.e_locals[users] - tx_time * tx_power, tx_time


def _unit_fading_errors(cfg: SimConfig, scn: Scenario, users: np.ndarray) -> list[str]:
    """Each listed user's transmit time at unit fading must fit in the slot."""
    try:
        _, tx_time = _offload(cfg, scn, users, np.ones(users.size))
    except ValueError:  # some rate is zero: find whose, one user at a time
        if users.size == 1:
            return [f"user {users[0]}: zero-rate channel at unit fading"]
        return [e for i in users for e in _unit_fading_errors(cfg, scn, np.array([i]))]
    return [
        f"user {i}: nominal transmit time {t:.3g}s exceeds slot length {cfg.slot_length:.3g}s"
        for i, t in zip(users.tolist(), tx_time.tolist())
        if t > cfg.slot_length
    ]


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


class _Timeline(NamedTuple):
    """The action-independent draws of one (scenario, seed), as read-only arrays.

    The arrivals at the end of slot t are rows ``starts[t]:starts[t+1]`` of
    ``user``, ``duration`` and ``size``, users ascending.  ``saving`` holds
    the true saving of each arrival or, when ``fading_period_slots > 0``,
    one row of every user's saving per fading block.
    """

    starts: np.ndarray
    user: np.ndarray
    duration: np.ndarray
    size: np.ndarray
    saving: np.ndarray


class _RawDraws:
    """numpy's scalar ``Generator.random()`` and ``Generator.integers(lo, hi + 1)``
    on many PCG64 streams at once, made bit for bit from their raw outputs.

    Each call advances the streams listed in ``users`` (distinct indices)
    by one call each.  Raw outputs are read ``width`` at a time into the
    stream's row of a buffer, and a row is refilled before any read that
    would run past its end.  ``random()`` is ``(raw >> 11) * 2**-53`` and
    takes one raw.  ``integers`` over a range ``r = hi - lo`` takes nothing
    when r is 0, and otherwise runs Lemire's multiply-and-reject on 32-bit
    draws: a 32-bit draw is the low half of a fresh raw, and the stream
    keeps the high half for its next 32-bit draw, across calls and past any
    ``random()``, as numpy's PCG64 does.
    """

    def __init__(self, bitgens: Sequence[np.random.BitGenerator], width: int = 64):
        self.bitgens = bitgens
        self.width = width
        self.buf = np.empty((len(bitgens), width), dtype=np.uint64)
        self.pos = np.full(len(bitgens), width)  # every row starts spent
        self.half = np.zeros(len(bitgens), dtype=np.uint64)
        self.has_half = np.zeros(len(bitgens), dtype=bool)

    def _raw(self, users: np.ndarray) -> np.ndarray:
        pos = self.pos[users]
        spent = pos == self.width
        for i in users[spent].tolist():
            self.buf[i] = self.bitgens[i].random_raw(self.width)
        pos[spent] = 0
        self.pos[users] = pos + 1
        return self.buf[users, pos]

    def random(self, users: np.ndarray) -> np.ndarray:
        return (self._raw(users) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def _uint32(self, users: np.ndarray) -> np.ndarray:
        has = self.has_half[users]
        out = np.empty(users.size, dtype=np.uint64)
        out[has] = self.half[users[has]]
        fresh = users[~has]
        raw = self._raw(fresh)
        out[~has] = raw & np.uint64(0xFFFFFFFF)
        self.half[fresh] = raw >> np.uint64(32)
        self.has_half[users] = ~has
        return out

    def integers(self, users: np.ndarray, lo: np.ndarray, r: np.ndarray) -> np.ndarray:
        """One ``integers(lo, lo + r + 1)`` per listed stream; ``lo`` and
        ``r`` are int64 arrays aligned with ``users``."""
        if (r >= 0xFFFFFFFF).any():
            raise ValueError("integer ranges of 2**32 - 1 or more are not reproduced")
        out = lo.copy()
        (drawn,) = r.nonzero()
        users, excl = users[drawn], r[drawn].astype(np.uint64) + np.uint64(1)
        threshold = (np.uint64(1 << 32) - excl) % excl
        m = self._uint32(users) * excl
        (redo,) = (m & np.uint64(0xFFFFFFFF) < threshold).nonzero()
        while redo.size:
            m[redo] = self._uint32(users[redo]) * excl[redo]
            redo = redo[m[redo] & np.uint64(0xFFFFFFFF) < threshold[redo]]
        out[drawn] += (m >> np.uint64(32)).astype(np.int64)
        return out


def _size_windows(cfg: SimConfig, capacities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every user's size windows as (N, D) arrays of lows and widths
    ``hi - lo``; column d - 1 holds the window of duration d."""
    durations = range(1, cfg.max_task_duration + 1)
    caps = capacities.tolist()
    by_cap = {k: [_size_window(cfg, k, d) for d in durations] for k in set(caps)}
    windows = np.array([by_cap[k] for k in caps], dtype=np.int64)
    lo, hi = windows[..., 0], windows[..., 1]
    return lo, hi - lo


def _draw_savings(cfg: SimConfig, scn: Scenario, seed: int, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[i]`` true savings of each user i's fading stream,
    concatenated user by user.

    One vector call per user returns the values of as many scalar calls;
    a channel saving is :func:`_offload` at the drawn fading.
    """
    draws = []
    for i, k in enumerate(counts.tolist()):
        if k:
            rng = _stream(cfg.master_seed, seed, 2, i)
            if cfg.energy_truth == "channel":
                draws.append(rng.exponential(1.0, k))
            elif cfg.energy_truth == "gaussian":
                draws.append(rng.normal(cfg.truth_location, math.sqrt(cfg.truth_spread), k))
            else:
                draws.append(rng.laplace(cfg.truth_location, cfg.truth_spread, k))
    values = np.concatenate(draws) if draws else np.empty(0)
    if cfg.energy_truth != "channel":
        return values
    return _offload(cfg, scn, np.arange(cfg.num_users).repeat(counts), values)[0]


def _draw_timeline(cfg: SimConfig, scn: Scenario, seed: int) -> _Timeline:
    """Draw every arrival and saving from each user's task and fading
    streams, with the values and in the order of a slot-by-slot episode.

    A user is checked for an arrival at the end of every slot it ends idle;
    the countdown runs whatever the policy does, so after an arrival of
    duration d the next check is d slots later.  The walk advances every
    user that has not reached the horizon by one check per step, reading
    the task streams raw through :class:`_RawDraws`.
    """
    n, horizon, period = cfg.num_users, cfg.horizon, cfg.fading_period_slots
    draws = _RawDraws([_stream(cfg.master_seed, seed, 1, i).bit_generator for i in range(n)])
    size_lo, size_r = _size_windows(cfg, scn.capacities)
    users = np.arange(n)
    t = np.zeros(n, dtype=np.int64)
    found = []  # per step: (slot, user, duration, size) of its arrivals
    while users.size:
        hit = draws.random(users) < cfg.arrival_prob
        who = users[hit]
        duration = draws.integers(
            who, np.ones(who.size, dtype=np.int64), np.full(who.size, cfg.max_task_duration - 1)
        )
        size = draws.integers(who, size_lo[who, duration - 1], size_r[who, duration - 1])
        found.append((t[hit], who, duration, size))
        t[hit] += duration
        t[~hit] += 1
        left = t < horizon
        users, t = users[left], t[left]
    slot, user, duration, size = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((user, slot))  # by slot, then user
    if period == 0:
        counts = np.bincount(user, minlength=n)
        saving = np.empty(slot.size)
        saving[np.lexsort((slot, user))] = _draw_savings(cfg, scn, seed, counts)  # user by user
        saving = saving[order]
    else:
        blocks = len(range(0, horizon, period))
        saving = _draw_savings(cfg, scn, seed, np.full(n, blocks)).reshape(n, blocks).T.copy()
    slot, user, duration, size = (col[order] for col in (slot, user, duration, size))
    starts = np.searchsorted(slot, np.arange(horizon + 1))
    timeline = _Timeline(starts, user, duration, size, saving)
    for arr in timeline:
        arr.flags.writeable = False
    return timeline


def _draw_noise(cfg: SimConfig, seed: int) -> np.ndarray:
    """Read-only (N, T) measurement noise: row i is the first ``horizon``
    standard normals of user i's noise stream.  A user measures at most
    once per slot, and its k-th measurement reads column k."""
    noise = np.empty((cfg.num_users, cfg.horizon))
    for i in range(cfg.num_users):
        noise[i] = _stream(cfg.master_seed, seed, 3, i).standard_normal(cfg.horizon)
    noise.flags.writeable = False
    return noise


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
    """The scenario of one timeline key and, once an episode needs them, the
    timeline drawn from it and the measurement noise (learners only)."""

    scenario: Scenario
    timeline: Optional[_Timeline] = None
    noise: Optional[np.ndarray] = None


_last_drawn: dict = {}  # at most one entry, {_timeline_key: _Drawn}


def _shared_timeline(cfg: SimConfig, seed: int) -> _Timeline:
    """The timeline of (cfg, seed), drawn on first use from the scenario
    that :func:`build_scenario` kept for the same key."""
    drawn = _last_drawn[_timeline_key(cfg, seed)]
    if drawn.timeline is None:
        drawn.timeline = _draw_timeline(cfg, drawn.scenario, seed)
    return drawn.timeline


def _shared_noise(cfg: SimConfig, seed: int) -> np.ndarray:
    """The measurement noise of (cfg, seed), drawn on the first episode
    that has a learner and kept beside the timeline."""
    drawn = _last_drawn[_timeline_key(cfg, seed)]
    if drawn.noise is None:
        drawn.noise = _draw_noise(cfg, seed)
    return drawn.noise


class _PsblBatch:
    """The Metropolis-Hastings kernel of the prior-swapping learner.

    Advances every user's chain in lockstep, reading and writing the
    learner's arrays.  Chains are independent across users, so one
    vectorised sweep per slot is exact; proposals come from the shared
    policy stream.  Steps are independent Gaussians on (saving, log
    variance), a symmetric proposal, so MH reads only the difference of
    one user's target at two points of a slot; rejection keeps the state.
    Each user's constants drop from the target (the normalisers of the
    conjugate posterior and both priors), leaving, with the log-variance
    Jacobian, t(s, v) = k(s) - nu v - S(s) exp(-v): k the true prior's log
    kernel, S(s) = phi0 + ss + n (s - xbar)^2 / 2 (ss = m2 / 2, or m2 under
    the paper variant) = lam (s - mu)^2 / 2 + phi - lam0 (s - mu0)^2 / 2 >= phi0.
    """

    def __init__(self, learner: PriorSwapWhittleEstimator):
        self.learner = learner

    def _scale(self):
        """S(s) for every user, from the statistics as they are now."""
        ps = self.learner
        base = ps.false_prior.phi + (0.5 * ps.m2 if ps.variant == "textbook" else ps.m2)
        half_n, xbar = 0.5 * ps.count, ps.mean
        return lambda sav: base + half_n * (sav - xbar) ** 2

    def _target(self, nu):
        """The log target at (saving, log variance) for posterior shape ``nu``."""
        prior, scale = self.learner.true_prior, self._scale()

        def target(sav, logvar):
            d = sav - prior.location
            kernel = np.abs(d) / -prior.scale if prior.kind == "laplace" else d * d / (-2.0 * prior.scale)
            return kernel - nu * logvar - scale(sav) * np.exp(-logvar)

        return target

    def refresh(self, rng: np.random.Generator) -> np.ndarray:
        ps = self.learner
        lam, _, phi, nu = ps.posterior()
        target = self._target(nu)
        steps, n = ps.burn_in + ps.chain_len, lam.size
        # proposal scales of (saving, log variance), one row each like the state
        pf = ps.proposal_factor
        scales = np.stack((pf * np.sqrt(phi / (lam * nu)), pf / np.sqrt(nu)))
        # each step draws every saving proposal, then every log-variance one, then every uniform
        jumps, log_u = np.empty((steps, 2, n)), np.empty((steps, n))
        for step in range(steps):
            rng.standard_normal(out=jumps[step])
            rng.random(out=log_u[step])
        jumps *= scales
        np.log(log_u, out=log_u)

        state = ps.chain
        cur = target(*state)
        total = np.zeros(n)
        for step in range(steps):
            prop = state + jumps[step]
            cand = target(*prop)
            accept = log_u[step] < cand - cur
            np.copyto(state, prop, where=accept)
            np.copyto(cur, cand, where=accept)
            if step >= ps.burn_in:
                total += state[0]
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
    starts = timeline.starts.tolist()
    period = cfg.fading_period_slots
    policy_rng = _stream(cfg.master_seed, seed, 4)

    learner = _learner(cfg, n)
    psbl = _PsblBatch(learner) if cfg.estimator == "psbl" else None
    noise = _shared_noise(cfg, seed) if learner is not None else None
    noise_sd = np.sqrt(scn.noise_vars)
    # each user's measurements so far; its noise stream runs on across
    # tasks and fading blocks, so this never resets
    n_obs = np.zeros(n, dtype=np.int64)

    tau = np.zeros(n, dtype=np.int64)
    backlog = np.zeros(n, dtype=np.int64)
    # only the index policies rank by the index and only greedy by the
    # gain, both from the believed savings; the others keep zeros
    index_policy = kind in (PolicyKind.WI, PolicyKind.STLW_WI)
    reads_saving = index_policy or kind is PolicyKind.GREEDY
    # one key array serves every slot: its user and capacity columns are
    # constant, and each slot rewrites the rest in place, so a caller of
    # select that keeps the keys past its slot must copy them
    keys = slot_keys(tau, backlog, caps, 0.0, 0.0)
    fields = keys.view(np.ndarray)
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

        fields["tau"] = tau
        fields["backlog"] = backlog
        if reads_saving:
            esav_ranking = np.where(tau > 0, believed, 0.0)
        if index_policy:
            fields["wi"] = whittle_index_array(tau, backlog, esav_ranking, caps, beta, penalty)
        if kind is PolicyKind.GREEDY:
            # the immediate advantage of acting: reward(s, 1) - reward(s, 0)
            gain = reward(tau, backlog, 1, esav_ranking, caps, penalty)
            gain -= reward(tau, backlog, 0, esav_ranking, caps, penalty)
            fields["gain"] = gain
        action = select(kind, keys, m)
        sel = np.zeros(n, dtype=np.int64)
        sel[np.fromiter(action.selected, np.int64, m)] = 1

        # rewards use the true savings regardless of what the policy knows
        slot = step(tau, backlog, sel, esav_true, caps, penalty)
        slot_reward = float(slot.reward.sum())
        discounted += beta**t * slot_reward
        max_abs_slot_reward = max(max_abs_slot_reward, abs(slot_reward))
        offloading = (sel == 1) & (backlog > 0)
        realized_saving += float(esav_true[offloading].sum())

        ended = tau == 1
        deadline_tasks += int(np.count_nonzero(ended))
        completed_tasks += int(np.count_nonzero(ended & (slot.leftover == 0)))

        if learner is not None:
            users = np.nonzero(offloading)[0]
            if users.size:
                obs = esav_true[users] + noise_sd[users] * noise[users, n_obs[users]]
                n_obs[users] += 1
                if cfg.estimator == "bl":
                    learner.update(users, obs, policy_rng)
                else:
                    learner.update(users, obs)

        tau, backlog = slot.tau, slot.backlog
        rows = slice(starts[t], starts[t + 1])
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


def _esav_quantile_samples(cfg: SimConfig, scn: Scenario) -> np.ndarray:
    """Every user's equiprobable per-task saving values for the bound's arm
    chains, as an (N, K) array: the savings at the K midpoint quantiles."""
    n, n_q = cfg.num_users, cfg.bound_esav_samples
    q = (np.arange(n_q) + 0.5) / n_q
    if cfg.energy_truth == "channel":
        kappa = -np.log1p(-q)  # unit-mean exponential fading
        return _offload(cfg, scn, np.arange(n).repeat(n_q), np.tile(kappa, n))[0].reshape(n, n_q)
    if cfg.energy_truth == "gaussian":
        inv_cdf = NormalDist(cfg.truth_location, math.sqrt(cfg.truth_spread)).inv_cdf
        values = np.array([inv_cdf(p) for p in q.tolist()])
    else:  # laplace quantile function
        values = cfg.truth_location - cfg.truth_spread * np.sign(q - 0.5) * np.log1p(-2.0 * np.abs(q - 0.5))
    return np.broadcast_to(values, (n, n_q))


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
    esav = _esav_quantile_samples(cfg, scn)
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
            esav_values=esav[i],
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
        from multiprocessing import Pool

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
