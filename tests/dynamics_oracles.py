"""Reference implementation of the arm dynamics, for tests only.

This is the per-user-object form that the array step in
``edgebandit.dynamics`` replaced: a frozen ``TaskState`` per user, a scalar
reward and transition, and a system step that loops over the users and
reports one event per expired deadline.  Tests check the array step and
the simulation harness against it.  :func:`replay_timeline` and
:func:`replay_noise` are the slot-by-slot form of the episode's
action-independent draws, which the harness now makes once per (scenario,
seed).
:func:`task_generator` and :func:`draw_saving` are the per-user, per-call
draws that the replay makes and that the harness now reproduces from the
raw streams.  :func:`draw_profiles` is the scenario stream drawn call by
call into one ``mec.UserProfile`` per user, which the harness now keeps
as per-user arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from edgebandit import mec
from edgebandit.config import SimConfig
from edgebandit.dynamics import ActionVector, PenaltyFn, TaskGenerator
from edgebandit.harness import Scenario, _size_window, _stream


@dataclass(frozen=True, order=True)
class TaskState:
    """Arm state: remaining slots to deadline and unfinished subtasks."""

    tau: int
    backlog: int

    def __post_init__(self) -> None:
        if self.tau < 0 or self.backlog < 0:
            raise ValueError(f"negative state component: ({self.tau}, {self.backlog})")
        if self.tau == 0 and self.backlog != 0:
            raise ValueError("tau == 0 requires backlog == 0 (idle state)")

    @property
    def idle(self) -> bool:
        return self.tau == 0


IDLE = TaskState(0, 0)


@dataclass(frozen=True)
class TaskSpec:
    """One generated task: size, arrival slot, and deadline slot."""

    total_subtasks: int
    arrival_slot: int
    deadline_slot: int

    @property
    def duration(self) -> int:
        return self.deadline_slot - self.arrival_slot + 1


def generate_task(gen: TaskGenerator, rng: np.random.Generator, current_slot: int) -> TaskSpec:
    """Draw a new task arriving at ``current_slot``."""
    duration, size = gen.draw(rng)
    return TaskSpec(
        total_subtasks=size,
        arrival_slot=current_slot,
        deadline_slot=current_slot + duration - 1,
    )


def transition(
    state: TaskState,
    action: int,
    capacity: int,
    gen: TaskGenerator,
    rng: np.random.Generator,
) -> TaskState:
    """One-slot state update for a single arm.

    While a task has at least two slots left, the deadline counter drops by
    one and the backlog drops by ``capacity`` (selected) or 1 (not selected),
    clamped at zero.  When the deadline expires (tau <= 1), a fresh task
    arrives with the generator's arrival probability, else the arm idles.
    """
    if state.tau >= 2:
        drain = capacity if action else 1
        return TaskState(state.tau - 1, max(state.backlog - drain, 0))
    # tau <= 1: current task (if any) is removed at the end of this slot
    if gen.maybe_arrival(rng):
        spec = generate_task(gen, rng, current_slot=0)
        # tau at arrival equals the drawn duration
        return TaskState(spec.duration, spec.total_subtasks)
    return IDLE


def reward(
    state: TaskState,
    action: int,
    e_saving: float,
    capacity: int,
    penalty: PenaltyFn,
) -> float:
    """Per-slot reward: energy saving when offloading, minus the penalty on
    subtasks left unfinished at the deadline."""
    if state.backlog > 0 and state.tau > 1:
        return e_saving * action
    if state.backlog > 0 and state.tau == 1:
        leftover = max(state.backlog - capacity * action - (1 - action), 0)
        return e_saving * action - penalty(leftover)
    return 0.0


@dataclass(frozen=True)
class SystemState:
    """Joint state of all users at one slot."""

    per_user: tuple[TaskState, ...]
    slot: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError("slot must be nonnegative")


@dataclass(frozen=True)
class CompletionEvent:
    """Deadline expiry outcome for one user's task."""

    user: int
    slot: int
    completed: bool
    leftover: int


@dataclass
class StepWorld:
    """Everything :func:`step_system` needs about the environment."""

    capacities: Sequence[int]
    e_savings: Sequence[float]
    gens: Sequence[TaskGenerator]
    rngs: Sequence[np.random.Generator]
    penalty: PenaltyFn
    num_servers: int


def step_system(
    state: SystemState,
    action: ActionVector,
    world: StepWorld,
) -> tuple[SystemState, np.ndarray, list[CompletionEvent]]:
    """Advance every arm one slot.

    Returns the next system state, the per-user reward vector, and a
    completion/violation event for each task whose deadline expired this
    slot.  Raises ValueError if the action does not select exactly the
    configured number of servers.
    """
    n = len(state.per_user)
    if len(action.selected) != world.num_servers:
        raise ValueError(
            f"action selects {len(action.selected)} users, expected {world.num_servers}"
        )
    if any(u < 0 or u >= n for u in action.selected):
        raise ValueError("action contains out-of-range user index")

    rewards = np.zeros(n)
    events: list[CompletionEvent] = []
    nxt: list[TaskState] = []
    for i, s in enumerate(state.per_user):
        u = 1 if i in action.selected else 0
        k = world.capacities[i]
        rewards[i] = reward(s, u, world.e_savings[i], k, world.penalty)
        if s.tau == 1:
            leftover = max(s.backlog - k * u - (1 - u), 0)
            events.append(
                CompletionEvent(user=i, slot=state.slot, completed=leftover == 0, leftover=leftover)
            )
        nxt.append(transition(s, u, k, world.gens[i], world.rngs[i]))
    return SystemState(per_user=tuple(nxt), slot=state.slot + 1), rewards, events


def task_generator(cfg: SimConfig, capacity: int) -> TaskGenerator:
    """User's task generator: sizes drawn from the config's size window."""
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


def draw_profiles(cfg: SimConfig, seed: int) -> tuple[list[mec.UserProfile], list[float]]:
    """Every user's profile and measurement-noise variance, drawn call by
    call from the scenario stream in the harness's order."""
    rng = _stream(cfg.master_seed, seed, 0)
    profiles, noise_vars = [], []
    for i in range(cfg.num_users):
        distance = rng.uniform(cfg.distance_low, cfg.distance_high)
        tx_dbm = rng.uniform(cfg.tx_power_low_dbm, cfg.tx_power_high_dbm)
        cpu = cfg.cpu_freq_choices[rng.integers(len(cfg.cpu_freq_choices))]
        cycles = cfg.cycles_per_bit_choices[rng.integers(len(cfg.cycles_per_bit_choices))]
        bits = cfg.subtask_bits_choices[rng.integers(len(cfg.subtask_bits_choices))]
        noise_vars.append(rng.uniform(cfg.noise_var_low, cfg.noise_var_high))
        profiles.append(
            mec.UserProfile(
                user_id=i,
                cpu_freq=cpu,
                cycles_per_bit=cycles,
                subtask_bits=bits,
                tx_power=mec.dbm_to_watts(tx_dbm),
                bandwidth=cfg.bandwidth,
                distance=distance,
                power_coeff=cfg.power_coeff,
            )
        )
    return profiles, noise_vars


def channel_saving(
    cfg: SimConfig, env: mec.ChannelEnvironment, profile: mec.UserProfile, fading: float
) -> float:
    """The user's saving for one offload at the given fading, through mec's scalar chain."""
    capacity = mec.offload_capacity(profile, env)
    gain = mec.channel_gain(env, profile.distance, fading)
    rate = mec.transmission_rate(profile, gain, env)
    e_off = mec.offload_energy(profile, rate, capacity).energy
    return mec.energy_saving(mec.local_energy_per_subtask(profile, cfg.energy_model), e_off, capacity)


def draw_saving(
    cfg: SimConfig, env: mec.ChannelEnvironment, profile: mec.UserProfile, rng: np.random.Generator
) -> float:
    """One draw of a user's true per-block energy saving from its fading stream."""
    if cfg.energy_truth == "channel":
        return channel_saving(cfg, env, profile, rng.exponential(1.0))
    if cfg.energy_truth == "gaussian":
        return float(rng.normal(cfg.truth_location, math.sqrt(cfg.truth_spread)))
    return float(rng.laplace(cfg.truth_location, cfg.truth_spread))


def replay_timeline(cfg: SimConfig, scn: Scenario, seed: int) -> tuple[list, list]:
    """The arrival and saving draws of one episode, made slot by slot.

    At the start of every fading block each user draws its block saving;
    at the end of every slot each user that ends it idle is checked for an
    arrival, which draws the task and, with per-task fading, its saving.
    Returns ``(events, blocks)``: one ``(slot, user, duration, size,
    saving)`` per arrival in slot order, users ascending (saving None under
    block fading), and one list of every user's saving per fading block.
    """
    n, period = cfg.num_users, cfg.fading_period_slots
    task_rngs = [_stream(cfg.master_seed, seed, 1, i) for i in range(n)]
    fading_rngs = [_stream(cfg.master_seed, seed, 2, i) for i in range(n)]
    gens = [task_generator(cfg, int(k)) for k in scn.capacities]
    profiles, _ = draw_profiles(cfg, seed)
    tau = [0] * n
    events: list = []
    blocks: list = []
    for t in range(cfg.horizon):
        if period > 0 and t % period == 0:
            blocks.append([draw_saving(cfg, scn.env, profiles[i], fading_rngs[i]) for i in range(n)])
        for i in range(n):
            # the deadline countdown runs whatever the action
            tau[i] = max(tau[i] - 1, 0)
            if tau[i] == 0 and gens[i].maybe_arrival(task_rngs[i]):
                tau[i], size = gens[i].draw(task_rngs[i])
                saving = draw_saving(cfg, scn.env, profiles[i], fading_rngs[i]) if period == 0 else None
                events.append((t, i, tau[i], size, saving))
    return events, blocks


def replay_noise(cfg: SimConfig, seed: int, user: int, k: int) -> list[float]:
    """The first ``k`` measurement-noise draws of ``user``, one scalar
    ``standard_normal`` call per measurement, as each offload once drew them."""
    rng = _stream(cfg.master_seed, seed, 3, user)
    return [rng.standard_normal() for _ in range(k)]
