"""M-of-N selection policies: index ranking, slack/workload dominance
ordering, and the classical deadline heuristics.

One slot's keys arrive as a record array with one record per user
(:func:`slot_keys`).  Every policy ranks with one ``np.lexsort`` on
(class, criterion, user id).  The classes are: users with work (0); under
least slack only, lost causes (1), whose deadline cannot be met even with
service every slot; users holding a task with no backlog left (3); idle
users (4).  Users with nothing to offload gain nothing from a server slot,
so they rank after every user with work under all criteria.  Least slack
ranks lost causes after every task that can still finish: sorting negative
slack first would funnel all capacity into unsalvageable tasks the moment
the system is loaded.  Earliest-deadline stays classic (deadline proximity
only, overload degradation and all), and the index policies need no guard
because the index prices lost causes.

The criteria are the Whittle index (wi, largest first), the deadline (edf),
the slack tau - backlog/capacity (lst), the immediate gain (greedy) and the
STLW pop order (stlw-wi).  Slack is exact: it is ranked as the integer
slack x lcm(capacities).  STLW pops users in the dominance order of the
flat-index users (see :func:`_stlw_pops`) and stops after M pops.

Selections are deterministic: every tie breaks toward the smaller user id.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum

import numpy as np

from .dynamics import ActionVector

__all__ = ["PolicyKind", "slot_keys", "ranked", "select"]


class PolicyKind(Enum):
    """Selection rule used by the scheduler each slot."""

    WI = "wi"
    STLW_WI = "stlw-wi"
    EDF = "edf"
    LST = "lst"
    GREEDY = "greedy"

    @classmethod
    def parse(cls, name: str) -> "PolicyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown policy {name!r}; expected one of: {valid}") from None


KEY_DTYPE = np.dtype(
    [
        ("user", np.int64),
        ("tau", np.int64),
        ("backlog", np.int64),
        ("capacity", np.int64),
        ("wi", np.float64),
        ("gain", np.float64),
    ]
)


def slot_keys(tau, backlog, capacity, wi, gain) -> np.recarray:
    """One slot's ranking keys: record i holds user i's state and scores.

    ``tau`` is 0 for idle users (whose backlog is 0).  ``wi`` is the
    user's index and ``gain`` the immediate advantage of acting,
    reward(s, 1) - reward(s, 0).  ``capacity`` is the user's per-slot
    offload capacity.

    The ``user`` and ``capacity`` columns do not change within an episode,
    so a caller may build the array once and, each slot, write the other
    four fields through ``keys.view(np.ndarray)``.  Anything that keeps the
    keys of one slot must then copy them.
    """
    keys = np.empty(len(tau), KEY_DTYPE)
    keys["user"] = np.arange(len(tau))
    keys["tau"] = tau
    keys["backlog"] = backlog
    keys["capacity"] = capacity
    keys["wi"] = wi
    keys["gain"] = gain
    return keys.view(np.recarray)


def _slack_key(tau: np.ndarray, backlog: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Slack tau - backlog/capacity times the lcm of the capacities: exact integers."""
    lcm = math.lcm(*np.unique(capacity).tolist())
    if lcm > 2**31:  # tau * lcm might overflow int64; Python integers stay exact
        tau, backlog, capacity = (a.astype(object) for a in (tau, backlog, capacity))
    return tau * lcm - backlog * (lcm // capacity)


def _stlw_pops(keys: np.ndarray, slack: np.ndarray, work: np.ndarray, num_servers: int) -> np.ndarray:
    """Rows of the first ``num_servers`` users with work (all, if fewer) in STLW order.

    STLW is a topological order of the dominance graph that always pops
    the available user with the largest index (ties: smaller user id).  User
    m dominates user n when m has no more slack and no more backlog, at
    least one strictly less.  Edges are kept only between users in the
    flat-index regime, backlog <= capacity * (tau - 1) + 1: there the index
    of a nonnegative saving equals the saving and carries no urgency, which
    is the gap the rule exists to close.  Applied to every user, the rule
    lets finished tasks and lost causes (least slack of all) capture server
    slots, and low-index dominators drag their high-index victims below the
    cut; both measurably collapse completion under load.

    When no user among the first ``num_servers`` priority positions has a
    dominator, those users are available from the start and every user
    freed later sits below them, so the heap would pop exactly them, in
    priority order; the walk is skipped.
    """
    w = np.flatnonzero(work)
    w = w[np.lexsort((keys["user"][w], -keys["wi"][w]))]  # the pop priority
    tau, backlog, capacity = keys["tau"][w], keys["backlog"][w], keys["capacity"][w]
    flat = np.flatnonzero(backlog <= capacity * (tau - 1) + 1)
    s, b = slack[w[flat]], backlog[flat]
    no_more = (s[:, None] <= s) & (b[:, None] <= b)
    edge = no_more & ~no_more.T
    indegree = np.zeros(w.size, np.int64)
    indegree[flat] = edge.sum(axis=0)
    if not indegree[:num_servers].any():
        return w[:num_servers]
    # successors in pop-priority positions; a heap of positions pops the
    # available user of largest index first
    succ = np.zeros((w.size, w.size), bool)
    succ[np.ix_(flat, flat)] = edge
    dominates = succ.any(axis=1).tolist()
    heap = np.flatnonzero(indegree == 0).tolist()
    order = []
    while heap and len(order) < num_servers:
        v = heapq.heappop(heap)
        order.append(v)
        if dominates[v]:
            indegree -= succ[v]
            for u in np.flatnonzero(succ[v] & (indegree == 0)).tolist():
                heapq.heappush(heap, u)
    return w[order]


def ranked(kind: PolicyKind, keys: np.ndarray, num_servers: int) -> np.ndarray:
    """The ``num_servers`` highest-priority users of one slot, in priority order."""
    keys = np.asarray(keys)  # plain field reads, without recarray attribute lookup
    if num_servers > keys.size:
        raise ValueError("cannot select more users than exist")
    tau, backlog, capacity = keys["tau"], keys["backlog"], keys["capacity"]
    holding = tau > 0
    work = holding & (backlog > 0)
    cls = 4 - holding - 3 * work  # 0 with work, 3 holding an emptied task, 4 idle
    if kind is PolicyKind.WI:
        crit = -keys["wi"]
    elif kind is PolicyKind.GREEDY:
        crit = -keys["gain"]
    elif kind is PolicyKind.EDF:
        crit = tau
    elif kind is PolicyKind.LST:
        crit = _slack_key(tau, backlog, capacity)
        cls[work & (backlog > capacity * tau)] = 1
    elif kind is PolicyKind.STLW_WI:
        pops = _stlw_pops(keys, _slack_key(tau, backlog, capacity), work, num_servers)
        crit = np.full(keys.size, pops.size)
        crit[pops] = np.arange(pops.size)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(kind)
    user = keys["user"]
    order = np.lexsort((user, np.where(work, crit, 0), cls))
    return user[order[:num_servers]]


def select(kind: PolicyKind, keys: np.ndarray, num_servers: int) -> ActionVector:
    """Pick exactly ``num_servers`` users to offload this slot."""
    return ActionVector.of(ranked(kind, keys, num_servers))
