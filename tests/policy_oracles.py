"""Reference implementations of the selection policies, for tests only.

These are the per-user-object forms the array selection in
``edgebandit.policies`` replaced: frozen ``UserKeys`` with rational slack,
a Python ``sorted`` with a per-key tuple, and the STLW dominance graph
with a full heap-based Kahn sort.  Tests check the array form against them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from dynamics_oracles import TaskState

from edgebandit.policies import PolicyKind, slot_keys


def slack_time(state: TaskState, capacity: int) -> Fraction:
    """Exact slack tau - backlog/capacity in slots.

    Kept rational so dominance comparisons between users never suffer float
    rounding.  Raises ValueError for the idle state.
    """
    if state.idle:
        raise ValueError("no task")
    return Fraction(state.tau) - Fraction(state.backlog, capacity)


@dataclass(frozen=True)
class UserKeys:
    """Per-user ranking keys for one slot.

    ``slack`` is exact (rational) and None for idle users; ``tau`` is None
    for idle users.  ``greedy_gain`` is the immediate advantage of acting,
    reward(s, 1) - reward(s, 0).  ``capacity`` is the user's per-slot
    offload capacity, used to classify states (a task is a lost cause once
    backlog exceeds capacity * tau).
    """

    user: int
    idle: bool
    tau: Optional[int]
    backlog: int
    slack: Optional[Fraction]
    wi: float
    greedy_gain: float
    capacity: int = 1

    @property
    def has_work(self) -> bool:
        return not self.idle and self.backlog > 0

    @property
    def lost_cause(self) -> bool:
        """True when the deadline cannot be met even with service every slot."""
        return self.has_work and self.backlog > self.capacity * self.tau

    @property
    def index_flat(self) -> bool:
        """True in the comfortable regime of one spare slot or more.

        There a nonnegative saving's index equals the saving and carries no
        urgency information; a negative saving's index lies between the
        saving and 0 (saving / (1 + discount) at tau = 2, backlog = 2 with
        capacity >= 2), because finishing early is then worth a subsidy.
        """
        return self.has_work and self.backlog <= self.capacity * (self.tau - 1) + 1


def as_slot_keys(keys: Sequence[UserKeys]) -> np.recarray:
    """The array form of a list of keys whose users are 0..N-1 in order."""
    assert [k.user for k in keys] == list(range(len(keys)))
    return slot_keys(
        [0 if k.idle else k.tau for k in keys],
        [k.backlog for k in keys],
        [k.capacity for k in keys],
        [k.wi for k in keys],
        [k.greedy_gain for k in keys],
    )


@dataclass
class PriorityDag:
    """Dominance DAG over users holding a task.

    ``edge[m, n]`` means user (row) m dominates user (column) n: no longer
    slack and no more backlog, at least one strictly smaller.  The relation
    is a strict partial order, so the graph is acyclic by construction.
    """

    users: np.ndarray  # user indices, aligned with matrix rows
    wi: np.ndarray
    edge: np.ndarray  # bool (n, n)
    indegree: np.ndarray

    def edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.edge)
        return [(int(self.users[r]), int(self.users[c])) for r, c in zip(rows, cols)]


def build_stlw_dag(keys: Sequence[UserKeys], scope_flat_index: bool = True) -> PriorityDag:
    """Pairwise dominance graph for the active users in ``keys``.

    Slack comparisons are exact: tau - backlog/capacity is compared via
    integer cross-multiplication, never floats.  With ``scope_flat_index``
    (the scheduler's rule) edges are kept only between users in the
    flat-index regime; ``scope_flat_index=False`` gives the unrestricted
    relation.
    """
    active = [k for k in keys if not k.idle]
    n = len(active)
    users = np.array([k.user for k in active], dtype=np.int64)
    wi = np.array([k.wi for k in active], dtype=np.float64)
    if n == 0:
        return PriorityDag(users=users, wi=wi, edge=np.zeros((0, 0), bool), indegree=np.zeros(0, np.int64))

    num = np.array([k.slack.numerator for k in active], dtype=np.int64)
    den = np.array([k.slack.denominator for k in active], dtype=np.int64)
    backlog = np.array([k.backlog for k in active], dtype=np.int64)

    # slack_m <= slack_n  <=>  num_m * den_n <= num_n * den_m (denominators > 0)
    cross_m = num[:, None] * den[None, :]
    cross_n = num[None, :] * den[:, None]
    slack_le = cross_m <= cross_n
    slack_lt = cross_m < cross_n
    b_le = backlog[:, None] <= backlog[None, :]
    b_lt = backlog[:, None] < backlog[None, :]
    edge = slack_le & b_le & (slack_lt | b_lt)
    if scope_flat_index:
        flat = np.array([k.index_flat for k in active], dtype=bool)
        edge = edge & flat[:, None] & flat[None, :]
    else:
        # a user with nothing left to offload never takes priority
        edge = edge & (backlog[:, None] > 0)
    np.fill_diagonal(edge, False)
    return PriorityDag(users=users, wi=wi, edge=edge, indegree=edge.sum(axis=0).astype(np.int64))


def kahn_topo_sort(dag: PriorityDag) -> list[int]:
    """Topological order, always popping the zero-indegree vertex with the
    largest index value (ties: smallest user id).

    Raises RuntimeError if vertices remain with positive indegree, which
    would mean the dominance relation was not a partial order.
    """
    n = len(dag.users)
    indegree = dag.indegree.copy()
    heap = [(-dag.wi[v], int(dag.users[v]), v) for v in range(n) if indegree[v] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, user, v = heapq.heappop(heap)
        order.append(user)
        for w in np.nonzero(dag.edge[v])[0]:
            indegree[w] -= 1
            if indegree[w] == 0:
                heapq.heappush(heap, (-dag.wi[w], int(dag.users[w]), int(w)))
    if len(order) != n:
        raise RuntimeError("dominance relation not a partial order (cycle found)")
    return order


def ranked(keys: Sequence[UserKeys], kind: PolicyKind) -> list[int]:
    """Full priority order for one slot under the given policy."""
    if kind is PolicyKind.STLW_WI:
        workers = [k for k in keys if k.has_work]
        order = kahn_topo_sort(build_stlw_dag(workers))
        order.extend(sorted(k.user for k in keys if not k.idle and k.backlog == 0))
        order.extend(sorted(k.user for k in keys if k.idle))
        return order

    guard_lost = kind is PolicyKind.LST

    def sort_key(k: UserKeys):
        if kind is PolicyKind.EDF:
            crit = k.tau if not k.idle else None
        elif kind is PolicyKind.LST:
            crit = k.slack if not k.idle else None
        elif kind is PolicyKind.GREEDY:
            crit = -k.greedy_gain
        elif kind is PolicyKind.WI:
            crit = -k.wi
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(kind)
        if k.idle:
            return (4, 0, k.user)
        if k.backlog == 0:
            return (3, 0, k.user)
        if guard_lost and k.lost_cause:
            return (1, crit, k.user)
        return (0, crit, k.user)

    return [k.user for k in sorted(keys, key=sort_key)]
