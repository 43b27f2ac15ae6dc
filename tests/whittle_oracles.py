"""Reference implementations of the Whittle solvers, for tests only.

A scalar subsidy-threshold bisection (one state at a time, independent of
the lockstep search in ``subsidy_threshold_table``) and a plain value
iteration over an arm chain's joint recurrent state space, independent of
the backward induction and renewal recursion behind the relaxed bound.
"""

from __future__ import annotations

import numpy as np
from dynamics_oracles import TaskState

from edgebandit.whittle import THRESHOLD_TOL, ArmChain, SubsidizedArmMDP, _bracket, _solve_arm

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
