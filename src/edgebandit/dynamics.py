"""Per-arm task state, the deadline penalty, stochastic task generation,
and the one-slot reward and state update over every user at once.

The arm state is ``(tau, backlog)``: slots remaining until the current
task's deadline and its unfinished subtasks.  The idle state is exactly
``(0, 0)``.  State evolves every slot whether or not the user is selected
(the user always processes one subtask locally; the server processes
``capacity`` subtasks when selected).  Per-user states live in arrays;
:func:`step` advances them all one slot, and the caller draws the next
task of every user it leaves at ``(0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "PenaltyFn",
    "ActionVector",
    "TaskGenerator",
    "SlotStep",
    "reward",
    "step",
]


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
class ActionVector:
    """Set of user indices selected for offloading this slot."""

    selected: frozenset[int]

    @classmethod
    def of(cls, indices: Sequence[int]) -> "ActionVector":
        """The set of ``indices``, a sequence or an integer array, as
        Python ints: one ``tolist`` converts them all at once."""
        return cls(selected=frozenset(np.asarray(indices, dtype=np.int64).tolist()))

    def __contains__(self, user: int) -> bool:
        return user in self.selected


@dataclass
class TaskGenerator:
    """Draws arrival events and new tasks for one user.

    Durations are uniform over {1..max_duration} slots.  Sizes are uniform
    over {1..max_task_size} subtasks unless ``size_dist`` is set; it takes
    the RNG and the drawn duration, so sizes may be conditioned on how long
    the task lives.
    """

    arrival_prob: float
    max_duration: int
    max_task_size: int
    size_dist: Optional[Callable[[np.random.Generator, int], int]] = None

    def maybe_arrival(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.arrival_prob)

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        """A new task's ``(duration, size)``: its tau at arrival and its backlog."""
        duration = int(rng.integers(1, self.max_duration + 1))
        if self.size_dist is not None:
            size = int(self.size_dist(rng, duration))
        else:
            size = int(rng.integers(1, self.max_task_size + 1))
        return duration, size


def _leftover(backlog, action, capacity):
    # subtasks still unfinished after this slot's service
    return np.maximum(backlog - capacity * action - (1 - action), 0)


def _reward(tau, backlog, action, e_saving, leftover, penalty: PenaltyFn) -> np.ndarray:
    # the reward formula, given this slot's leftover
    earned = e_saving * action
    return np.where(
        backlog > 0,
        np.where(tau > 1, earned, earned - penalty.values(leftover)),
        0.0,
    )


def reward(tau, backlog, action, e_saving, capacity, penalty: PenaltyFn) -> np.ndarray:
    """Per-slot reward of every user: the energy saving when offloading,
    minus the penalty on subtasks left unfinished at the deadline.

    Arguments are per-user arrays (or scalars, which broadcast); ``action``
    is 1 where the user offloads and 0 where it does not.  Greedy's gain
    calls this for both actions; :func:`step` computes the same rewards
    from the leftover it already holds.
    """
    return _reward(tau, backlog, action, e_saving, _leftover(backlog, action, capacity), penalty)


class SlotStep(NamedTuple):
    """One slot of every arm: rewards, leftovers and the next states."""

    reward: np.ndarray
    leftover: np.ndarray  # unfinished after this slot; the deadline charges it where tau was 1
    tau: np.ndarray
    backlog: np.ndarray


def step(tau, backlog, action, e_saving, capacity, penalty: PenaltyFn) -> SlotStep:
    """Advance every arm one slot, before arrivals.

    While a task has at least two slots left, the deadline counter drops by
    one and the backlog drops by ``capacity`` (selected) or 1 (not selected),
    clamped at zero.  Every other user (its deadline expires now, or it is
    idle) comes out at ``(0, 0)``; the caller then draws its next task.

    The leftover is computed once and serves both the next backlog and the
    reward, which equals :func:`reward` on the same arguments bit for bit.
    """
    leftover = _leftover(backlog, action, capacity)
    running = tau >= 2
    return SlotStep(
        _reward(tau, backlog, action, e_saving, leftover, penalty),
        leftover,
        (tau - 1) * running,
        leftover * running,
    )
