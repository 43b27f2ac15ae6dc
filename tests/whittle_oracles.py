"""Reference implementations of the Whittle solvers, for tests only.

A scalar subsidy-threshold bisection (one state at a time, independent of
the lockstep search in ``subsidy_threshold_table``) and a plain value
iteration over an arm chain's joint recurrent state space, independent of
the backward induction and renewal recursion behind the relaxed bound.

Beside them sits the per-call kernel of the relaxed bound: a backward
induction with fancy-index successor gathers and ``np.where`` selects,
and a ``chain_terms_reference`` that regroups and restacks the arms at
every subsidy.  It performs the same float operations as the kernel in
``edgebandit.whittle``, so the two must agree exactly, not approximately.
Its finite-horizon step applies a horizon map that it builds itself, by
running the arrival-mixture recursion ``finite_chain_values_reference``
on unit inputs; the recursion also stands alone as the oracle of the
kernel's map.

Last, ``relaxed_upper_bound_reference`` is the bound's earlier dual
search: a bisection on the sign of the subgradient down to a relative
bracket width, on the same dual evaluations as ``relaxed_upper_bound``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from dynamics_oracles import TaskState

from edgebandit.dynamics import PenaltyFn
from edgebandit.whittle import (
    THRESHOLD_TOL,
    ArmChain,
    SubsidizedArmMDP,
    _arm_groups,
    _bracket,
    _group_terms,
    _solve_arm,
)

VALUE_ITER_TOL = 1e-10


def subsidy_threshold(
    mdp: SubsidizedArmMDP,
    state: TaskState,
    tol: float = THRESHOLD_TOL,
) -> float:
    """Least subsidy at which the passive action is optimal at ``state``.

    Binary search on the oracle's action preference; this is the
    brute-force definition of the index, independent of its computation.
    """
    if state.tau > mdp.horizon or state.backlog > mdp.max_backlog:
        raise ValueError("state outside the MDP bounds")
    hi = _bracket(mdp.penalty, mdp.max_backlog, abs(mdp.e_saving))
    lo = -hi

    def passive_at(delta: float) -> bool:
        p, _ = _solve_arm(mdp, np.array([delta]))
        return bool(p[0, state.tau, state.backlog])

    if passive_at(lo) or not passive_at(hi):
        raise RuntimeError(
            f"threshold bracket failure at state {state}: "
            f"passive({lo})={passive_at(lo)}, passive({hi})={passive_at(hi)}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passive_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def arm_chain_value_reference(
    chain: ArmChain,
    delta: float,
    beta: float,
    tol: float = VALUE_ITER_TOL,
    max_iter: int = 200_000,
) -> float:
    """Plain value iteration over the joint recurrent chain (slow reference).

    State space is idle plus (tau, backlog, saving-sample); used to verify
    the closed-form renewal solution.  Raises RuntimeError if the sup-norm
    residual fails to reach ``tol``.
    """
    tau_max, b_max = chain.size_probs.shape
    es = np.asarray(chain.esav_values, dtype=np.float64)
    n_e = es.size
    q = chain.arrival_prob
    fpen = chain.penalty.table(b_max)
    b = np.arange(b_max + 1)
    has_work = b > 0
    idx_passive = np.maximum(b - 1, 0)
    idx_active = np.maximum(b - chain.capacity, 0)

    v = np.zeros((tau_max + 1, n_e, b_max + 1))  # v[0] reused for the idle row
    v_idle = 0.0
    for _ in range(max_iter):
        # expected value at the next slot after a deadline or while idle
        arrival_value = 0.0
        for d_idx in range(tau_max):
            arrival_value += chain.duration_probs[d_idx] * (
                v[d_idx + 1, :, 1:] @ chain.size_probs[d_idx]
            ).mean()
        cont = q * arrival_value + (1.0 - q) * v_idle
        new_idle = max(delta + beta * cont, beta * cont)
        new_v = np.zeros_like(v)
        for tau in range(1, tau_max + 1):
            if tau == 1:
                q0 = delta - np.where(has_work, fpen[idx_passive], 0.0) + beta * cont
                q1 = np.where(has_work, es[:, None] - fpen[idx_active], 0.0) + beta * cont
                q0 = np.broadcast_to(q0, (n_e, b_max + 1))
            else:
                q0 = delta + beta * v[tau - 1][:, idx_passive]
                q1 = np.where(has_work, es[:, None], 0.0) + beta * v[tau - 1][:, idx_active]
            new_v[tau] = np.maximum(q0, q1)
        resid = max(abs(new_idle - v_idle), float(np.max(np.abs(new_v[1:] - v[1:]))))
        v, v_idle = new_v, new_idle
        if resid < tol:
            return v_idle
    raise RuntimeError(f"value iteration did not converge below {tol}")


def induction_reference(
    delta,
    e,
    capacity: int,
    fpen: np.ndarray,
    levels: int,
    beta: float,
    with_deadline: bool = True,
    force_active: bool = False,
    derivative: bool = True,
):
    """Backward induction of the subsidized arm within one task, yielding
    ``(passive, value, derivative)`` for tau = 1..``levels`` with backlog
    leading; successors are fancy-index row gathers and each level selects
    with ``np.where``.  Ties resolve to the passive action."""
    b = np.arange(fpen.size)
    has_work = (b > 0)[:, None]
    idx_passive = np.maximum(b - 1, 0)
    idx_active = np.maximum(b - capacity, 0)
    shape = np.broadcast_shapes(has_work.shape, np.shape(delta), np.shape(e))
    e_work = np.where(has_work, e, 0.0)
    v = np.zeros(shape)
    dv = np.zeros(shape) if derivative else None
    for level in range(1, levels + 1):
        if with_deadline and level == 1:
            q0 = delta - np.where(has_work, fpen[idx_passive, None], 0.0)
            q1 = e_work - np.where(has_work, fpen[idx_active, None], 0.0)
            dq0, dq1 = 1.0, 0.0
        else:
            q0 = delta + beta * v[idx_passive]
            q1 = e_work + beta * v[idx_active]
            if derivative:
                dq0 = 1.0 + beta * dv[idx_passive]
                dq1 = beta * dv[idx_active]
        passive = np.zeros(shape, dtype=bool) if force_active else q0 >= q1
        v = np.where(passive, q0, q1)
        if derivative:
            dv = np.where(passive, dq0, dq1)
        yield passive, v, dv


def solve_arm_reference(mdp: SubsidizedArmMDP, subsidies) -> tuple[np.ndarray, np.ndarray]:
    """``(passive, values)`` of shape (subsidies, horizon+1, max_backlog+1)
    from :func:`induction_reference`."""
    d = np.asarray(subsidies, dtype=np.float64)
    shape = (mdp.horizon + 1, mdp.max_backlog + 1, d.size)
    passive = np.empty(shape, dtype=bool)
    values = np.empty(shape)
    passive[0] = d >= 0.0
    values[0] = np.maximum(d, 0.0)
    levels = induction_reference(
        d, mdp.e_saving, mdp.capacity, mdp.penalty.table(mdp.max_backlog), mdp.horizon, mdp.discount,
        derivative=False,
    )
    for tau, (p, v, _) in enumerate(levels, start=1):
        passive[tau] = p
        values[tau] = v
    return passive.transpose(2, 0, 1), values.transpose(2, 0, 1)


def level_means_reference(
    esav: np.ndarray,
    capacity: int,
    penalty: PenaltyFn,
    size_probs: np.ndarray,
    delta: float,
    beta: float,
    with_deadline: bool,
    force_active: bool = False,
) -> np.ndarray:
    """Arm-summed expected task values at arrival and their derivatives,
    shape (2, L), for a group of arms stacked as rows of ``esav``."""
    n_levels, b_max = size_probs.shape
    levels = induction_reference(
        delta, np.asarray(esav, dtype=np.float64).ravel(), capacity, penalty.table(b_max),
        n_levels, beta, with_deadline, force_active,
    )
    out = np.zeros((2, n_levels))
    for level, (_, v, dv) in enumerate(levels):
        out[0, level] = size_probs[level] @ v[1:].sum(axis=1)
        out[1, level] = size_probs[level] @ dv[1:].sum(axis=1)
    return out / esav.shape[1]


def finite_chain_values_reference(
    gbar: np.ndarray,
    hbar: np.ndarray,
    idle_gain: np.ndarray,
    dur_probs: np.ndarray,
    arrival_prob: float,
    beta: float,
    horizon: int,
) -> np.ndarray:
    """Exact T-slot values from the empty start: the arrival-mixture
    recursion over the remaining reward slots."""
    n_levels = gbar.shape[1]
    q = arrival_prob
    beta_pow = beta ** np.arange(n_levels + 1)
    tail_prob = np.concatenate([np.cumsum(dur_probs[::-1])[::-1], [0.0]])
    weights = dur_probs * beta_pow[1:]
    gsum_full = gbar @ dur_probs
    gsum_part = np.cumsum(gbar * dur_probs, axis=1)

    c_hist = np.zeros((horizon, gbar.shape[0]))
    for r in range(1, horizon):
        idle_value = idle_gain + beta * c_hist[r - 1]
        if r >= n_levels:
            window = c_hist[r - n_levels : r][::-1]
            task_value = gsum_full + weights @ window
        else:
            window = c_hist[:r][::-1]
            task_value = gsum_part[:, r - 1] + weights[:r] @ window
            task_value = task_value + tail_prob[r] * hbar[:, r - 1]
        c_hist[r] = (1.0 - q) * idle_value + q * task_value
    return idle_gain + beta * c_hist[horizon - 1]


def horizon_map_reference(dur_probs: np.ndarray, arrival_prob: float, beta: float, horizon: int) -> np.ndarray:
    """Coefficients of :func:`finite_chain_values_reference` on (idle gain,
    gbar columns, hbar columns), shape (2L,), from its unit inputs."""
    n_levels = len(dur_probs)
    unit = np.eye(2 * n_levels)
    return finite_chain_values_reference(
        unit[:, 1 : n_levels + 1], unit[:, n_levels + 1 :], unit[:, 0], dur_probs, arrival_prob, beta, horizon
    )


def arm_groups_reference(arms: Sequence[ArmChain]) -> dict:
    """Arms keyed by everything but their saving samples, in first-seen order."""
    groups: dict = {}
    for a in arms:
        key = (
            a.arrival_prob,
            a.duration_probs.tobytes(),
            a.capacity,
            a.penalty,
            a.size_probs.tobytes(),
            len(a.esav_values),
        )
        groups.setdefault(key, []).append(a)
    return groups


def chain_terms_reference(
    arms: Sequence[ArmChain],
    delta: float,
    beta: float,
    horizon: Optional[int],
    force_active: bool = False,
) -> np.ndarray:
    """``array([value, derivative])`` summed over arms at subsidy ``delta``,
    grouping and stacking the arms anew at every call.  ``force_active``
    acts everywhere and earns no idle gain: the always-active value, which
    the bound must return at M = N."""
    if force_active:
        idle_gain = np.zeros(2)
    else:
        idle_gain = np.array([max(delta, 0.0), 1.0 if delta > 0.0 else 0.0])
    laws: dict = {}  # arrival law -> [prototype arm, arms, gbar sum, hbar sum]
    for key, members in arm_groups_reference(arms).items():
        proto = members[0]
        esav = np.stack([a.esav_values for a in members])
        law = laws.setdefault(key[:2], [proto, 0, 0.0, 0.0])
        law[1] += len(members)
        args = (esav, proto.capacity, proto.penalty, proto.size_probs, delta, beta)
        law[2] = law[2] + level_means_reference(*args, True, force_active)
        if horizon is not None:  # the truncated tables' last level is never read
            args = (esav, proto.capacity, proto.penalty, proto.size_probs[:-1], delta, beta)
            law[3] = law[3] + level_means_reference(*args, False, force_active)

    total = np.zeros(2)
    for proto, n_arms, gbar, hbar in laws.values():
        q, dur = proto.arrival_prob, proto.duration_probs
        idle = n_arms * idle_gain
        if horizon is None:
            phi = float(dur @ beta ** np.arange(1, len(dur) + 1))
            denom = 1.0 - (1.0 - q) * beta - q * phi
            cont = ((1.0 - q) * idle + q * (gbar @ dur)) / denom
            total += idle + beta * cont
        else:
            c = horizon_map_reference(dur, q, beta, horizon)
            n_levels = len(dur)
            total += c[0] * idle + gbar @ c[1 : n_levels + 1] + hbar @ c[n_levels + 1 :]
    return total


def relaxed_upper_bound_reference(
    arms: Sequence[ArmChain],
    num_servers: int,
    discount: float,
    horizon: Optional[int] = None,
    refine_tol: float = 1e-6,
) -> float:
    """``relaxed_upper_bound`` by bisection on the sign of the subgradient,
    for ``0 <= num_servers < len(arms)``.

    Starts from the bracket where every arm is always active or always
    passive, stops once the bracket is within ``refine_tol`` relative or
    the subgradient is 0, then evaluates once more where the tangents at
    the bracket's ends meet.  Returns the least dual value evaluated.
    """
    n = len(arms)
    if horizon is None:
        slope = (n - num_servers) / (1.0 - discount)
    else:
        slope = (n - num_servers) * (1.0 - discount**horizon) / (1.0 - discount)

    width = max(
        _bracket(a.penalty, a.size_probs.shape[1], float(np.max(np.abs(a.esav_values))))
        for a in arms
    )
    laws = _arm_groups(arms, discount, horizon)

    def dual(delta: float) -> tuple[float, float]:
        value, passive_time = _group_terms(laws, delta, discount)
        return float(value) - slope * delta, float(passive_time) - slope

    left, right = -width, width
    lo = hi = None  # (delta, g, g') at the bracket ends once evaluated
    best = float("inf")
    while True:
        delta = 0.5 * (left + right)
        g, grad = dual(delta)
        best = min(best, g)
        if grad == 0.0:
            return best
        if grad > 0.0:
            right, hi = delta, (delta, g, grad)
        else:
            left, lo = delta, (delta, g, grad)
        if right - left <= refine_tol * (1.0 + abs(delta)):
            break
    if lo is not None and hi is not None:
        # g is piecewise linear: with one kink left in the bracket, the
        # tangents at its ends meet exactly there
        (d0, g0, s0), (d1, g1, s1) = lo, hi
        kink = (g1 - g0 + s0 * d0 - s1 * d1) / (s0 - s1)
        best = min(best, dual(min(max(kink, d0), d1))[0])
    return best
