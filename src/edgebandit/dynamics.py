"""Per-arm task state, stochastic task generation, transitions, and reward.

The arm state is ``(tau, backlog)``: slots remaining until the current
task's deadline and its unfinished subtasks.  The idle state is exactly
``(0, 0)``.  State evolves every slot whether or not the user is selected
(the user always processes one subtask locally; the server processes
``capacity`` subtasks when selected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "TaskState",
    "IDLE",
    "TaskSpec",
    "PenaltyFn",
    "SystemState",
    "ActionVector",
    "TaskGenerator",
    "CompletionEvent",
    "StepWorld",
    "transition",
    "generate_task",
    "reward",
    "step_system",
]


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
    task_id: int

    @property
    def duration(self) -> int:
        return self.deadline_slot - self.arrival_slot + 1


@dataclass(frozen=True)
class PenaltyFn:
    """Deadline-violation penalty F(x) = (base + quad_coeff * x^2) for x > 0.

    F(0) = 0 always.  ``theory(alpha)`` is the pure-quadratic form
    alpha * x^2; ``experiment(alpha)`` is the offset form alpha + 0.1 x^2.
    """

    base: float
    quad_coeff: float

    def __post_init__(self) -> None:
        if self.base < 0 or self.quad_coeff < 0:
            raise ValueError("penalty coefficients must be nonnegative")

    @classmethod
    def theory(cls, alpha: float) -> "PenaltyFn":
        return cls(base=0.0, quad_coeff=alpha)

    @classmethod
    def experiment(cls, alpha: float) -> "PenaltyFn":
        return cls(base=alpha, quad_coeff=0.1)

    def __call__(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return self.base + self.quad_coeff * x * x

    def values(self, x) -> np.ndarray:
        """F evaluated elementwise on an array, with the same float operations
        as the scalar call."""
        xf = np.asarray(x, dtype=np.float64)
        return np.where(xf > 0, self.base + self.quad_coeff * xf * xf, 0.0)

    def table(self, x_max: int) -> np.ndarray:
        """F evaluated on 0..x_max (vectorized helper for the solvers)."""
        return self.values(np.arange(x_max + 1))


@dataclass(frozen=True)
class SystemState:
    """Joint state of all users at one slot."""

    per_user: tuple[TaskState, ...]
    slot: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError("slot must be nonnegative")


@dataclass(frozen=True)
class ActionVector:
    """Set of user indices selected for offloading this slot."""

    selected: frozenset[int]

    @classmethod
    def of(cls, indices: Sequence[int]) -> "ActionVector":
        return cls(selected=frozenset(int(i) for i in indices))

    def __contains__(self, user: int) -> bool:
        return user in self.selected


@dataclass
class TaskGenerator:
    """Draws arrival events and new task specs for one user.

    Default distributions are uniform over {1..max_duration} slots and
    {1..max_task_size} subtasks; both are pluggable.  ``duration_dist``
    takes the RNG; ``size_dist`` takes the RNG and the drawn duration, so
    sizes may be conditioned on how long the task lives.
    """

    arrival_prob: float
    max_duration: int
    max_task_size: int
    duration_dist: Optional[Callable[[np.random.Generator], int]] = None
    size_dist: Optional[Callable[[np.random.Generator, int], int]] = None
    _next_task_id: int = field(default=0, repr=False)

    def maybe_arrival(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.arrival_prob)

    def draw(self, rng: np.random.Generator, current_slot: int) -> TaskSpec:
        if self.duration_dist is not None:
            duration = int(self.duration_dist(rng))
        else:
            duration = int(rng.integers(1, self.max_duration + 1))
        if self.size_dist is not None:
            size = int(self.size_dist(rng, duration))
        else:
            size = int(rng.integers(1, self.max_task_size + 1))
        spec = TaskSpec(
            total_subtasks=size,
            arrival_slot=current_slot,
            deadline_slot=current_slot + duration - 1,
            task_id=self._next_task_id,
        )
        self._next_task_id += 1
        return spec


def generate_task(gen: TaskGenerator, rng: np.random.Generator, current_slot: int) -> TaskSpec:
    """Draw a new task arriving at ``current_slot``."""
    return gen.draw(rng, current_slot)


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
        spec = gen.draw(rng, current_slot=0)
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
