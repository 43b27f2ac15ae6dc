"""Whittle index machinery: the exact index, subsidized-arm oracle,
indexability, and the Lagrangian-relaxed performance upper bound.

The exact index is a lookup in tables built on first use for each set of
capacities, table extents, discount and penalty (:func:`_index_tables`).
Within a task each first action is worth the best of its one-block
schedules, lines in the subsidy and the saving (:func:`_schedule_lines`),
and the index is where the passive-now envelope first reaches the
active-now one (:func:`_crossing`).  For a saving e >= 0 the index is e
plus its value at 0, read from the tables.  For e < 0 below that shift a
call solves the crossing from the state's lines, which the tables hold
side by side per flat state index.

The index is cross-checked against an independent oracle: a finite
subsidized single-arm MDP solved by exact backward induction, with the
index recovered as the least subsidy making the passive action optimal
(binary search on the indifference point).  The index never calls the
oracle and the oracle never looks at the index, so agreement between the
two is evidence, not tautology.

One within-task backward induction, :func:`_induction`, serves both the
oracle and the indexability check (a batch of subsidies on its trailing
axis) and the relaxed bound (one subsidy, a group of arms' saving samples
on its trailing axis).  Each level multiplies the previous values by the
discount once, reads the passive (b-1) and active (b-capacity) successor
rows as slices clamped at the empty row, takes the value as the maximum
of the two actions and selects the derivative in place.  The terms that
do not depend on the subsidy (the saving on rows with work and the
deadline level) are built once: per call for the oracle, and per bound
for the relaxed bound, which groups and stacks its arms once
(:func:`_arm_groups`) and evaluates every subsidy of its dual search on
those groups.  Each arrival law also carries its horizon map: the
finite-horizon value is linear in the idle gain and the task values at
arrival, so the T-slot recursion (:func:`_finite_chain_values`) runs once
per law and bound, on unit inputs, and each dual evaluation applies the
resulting 2L coefficients.  The groups run their inductions in turn in
one workspace, allocated once per bound for the largest group.  The
bound's horizon-truncated tables stop one level short of the deadline
tables, because the finite-horizon recursion never reads their last
level.  Each group also carries, per level and for both table lengths,
its reach: the last backlog row a task can occupy there (:func:`_reach`).
The bound's inductions compute only the rows within reach, and one sum
per level reduces the value and derivative rows over the arms together
(:func:`_level_means`).  Rows beyond the reach have probability 0 in the
level's sizes, so the values keep their bits.

The bound's values are checked against an independent value iteration
over the joint recurrent chain, kept with the scalar threshold search in
``tests/whittle_oracles.py``; the per-call kernel it replaced (fancy-index
gathers, ``np.where`` selects, arms regrouped at every subsidy, a horizon
map built from its own recursion) is kept there too, and the two must
agree bit for bit.

The bound minimizes its convex, piecewise-linear dual over the subsidy by
a one-dimensional cutting-plane search (Kelley 1960).  The tangents at the
two ends of the bracket give the next subsidy to evaluate, with a
bisection step when two such steps fail to halve the bracket.  Their
crossing is also a lower bound on the minimum, so the search stops once
the least dual value evaluated is within ``REFINE_TOL`` relative of it,
with the crossing's own rounding counted against that gap.  With as many
servers as arms (M = N) the subsidy term vanishes, and at the left end
every arm is always active, so the subgradient there is exactly 0: the
search returns the always-active value with no special case.  With no
server (M = 0) the right end's subgradient is 0 up to rounding, but the
dual there is a large value minus nearly as much, so the search goes on
toward where the dual turns flat.  The sign bisection this
search replaced is kept in ``tests/whittle_oracles.py`` as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import PenaltyFn

__all__ = [
    "SubsidizedArmMDP",
    "whittle_index_array",
    "subsidy_threshold_table",
    "IndexabilityReport",
    "indexability_check",
    "ArmChain",
    "relaxed_upper_bound",
]

# Bisection tolerance for the subsidy threshold; two orders tighter than the
# 1e-6 index-vs-oracle equivalence assertions.
THRESHOLD_TOL = 1e-9

# Relative gap at which the bound's cutting-plane search stops.
REFINE_TOL = 1e-12

# Each dual value is the arms' value minus slope * delta, and the tangents'
# crossing adds subgradient * delta terms; both are trusted only to this many
# ulps of the largest such term at the bracket's ends.  Far from the minimum
# those terms dwarf a bound near 0, and their rounding alone can pass for a
# gap below REFINE_TOL.
_EPS = float(np.finfo(float).eps)
_CROSSING_ULPS = 8.0


# Least table extents: the default task limits (10 slots, 30 subtasks), so
# the maxima that grow over an episode's first slots reuse one table.
_MIN_TAU, _MIN_BACKLOG = 10, 32


def _cover(x: int, least: int, step: int) -> int:
    """Table extent covering ``x``: ``least``, or ``x`` rounded up to ``step``."""
    return max(least, step * -(-x // step))


def _schedule_lines(
    capacities: np.ndarray, tau_max: int, b_max: int, discount: float, penalty: PenaltyFn
) -> tuple[np.ndarray, int]:
    """Every one-block schedule of every state on the grid (capacity, tau,
    backlog), as a line ``slope * delta + weight * e_saving + offset``.

    A block schedule is active exactly on slots ``[first, last)`` of the
    ``tau`` remaining ones.  Its slope is the discounted count of passive
    slots, its weight that of active slots that still have backlog, and its
    offset the discounted deadline penalty on the leftover.  Returns
    ``(lines, n_active)``: ``lines`` of shape (3, capacity, tau, b, line),
    the first axis being (slope, weight, offset), holds the ``n_active``
    active-now blocks and then the passive-now ones.  Active-now blocks
    start now; passive-now blocks start later or never (the empty block).
    A block that would outlast the deadline is replaced by one that fits
    on the same side (always active; never active), which changes no
    envelope.
    """
    first, last = np.triu_indices(tau_max + 1, 1)  # 0 <= first < last <= tau_max
    now = first == 0
    t = np.arange(tau_max + 1)[:, None, None]
    b = np.arange(b_max + 1)[None, :, None]
    csum = np.concatenate([[0.0], np.cumsum(discount ** np.arange(tau_max, dtype=np.float64))])
    fpen = penalty.table(b_max)
    n_active = int(now.sum())
    lines = np.empty((3, capacities.size, tau_max + 1, b_max + 1, first.size + 1))
    sides = (first[now], last[now], True), (np.append(first[~now], 0), np.append(last[~now], 0), False)
    for r, k in enumerate(capacities.tolist()):  # one capacity at a time keeps the temporaries small
        for (i, j, stay_active), side in zip(sides, (lines[:, r, ..., :n_active], lines[:, r, ..., n_active:])):
            fits = j <= t
            i = np.where(fits, i, 0)
            j = np.where(fits, j, t if stay_active else 0)
            busy = np.minimum(j - i, -(-np.maximum(b - i, 0) // k))
            side[0] = csum[t] - (csum[j] - csum[i])
            side[1] = csum[i + busy] - csum[i]
            side[2] = -discount ** np.maximum(t - 1.0, 0.0) * fpen[np.maximum(b - t - (k - 1) * (j - i), 0)]
    return lines, n_active


def _crossing(lines: np.ndarray, n_active: int, e_saving: np.ndarray) -> np.ndarray:
    """Least subsidy at which the passive-now envelope reaches the active-now
    one, per row: ``lines`` of shape (3, row, line) holds the (slope,
    weight, offset) of a row's ``n_active`` active-now lines and then of
    its passive-now ones, as entries of ``_schedule_lines``.

    Each passive-now line reaches every active-now line on an interval of
    subsidies (empty, bounded or a half-line); the answer is the least left
    end of a nonempty interval.  The pair axes are (row, active, passive).
    Two schedules can have equal slopes (equal discounted passive time, exact
    for some discounts or after rounding): such a pair bounds the subsidy
    from below by +inf (never), by -inf or, when the lines coincide, not at
    all (nan, which fmax skips).
    """
    slope, weight, offset = lines
    r = weight * e_saving[:, None] + offset
    ds = slope[:, None, n_active:] - slope[:, :n_active, None]
    up = ds >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # the passive line is at least the active one iff ds * delta >= ra - rp
        cross = (r[:, :n_active, None] - r[:, None, n_active:]) / ds
    lo = np.fmax.reduce(np.where(up, cross, -np.inf), axis=1)
    hi = np.where(up, np.inf, cross).min(axis=1)
    return np.where(lo <= hi, lo, np.inf).min(axis=1)


class _IndexTables(NamedTuple):
    """See :func:`_index_tables`."""

    row: np.ndarray
    stride: int
    work_zero_cut: np.ndarray
    n_active: int
    lines: np.ndarray


# room for every penalty of one preset's seed: fig4's seven cells differ
# only in penalty_alpha, and each table is ~2 MB at the paper's sizes
@functools.lru_cache(maxsize=8)
def _index_tables(
    capacities: tuple[int, ...], tau_max: int, b_max: int, discount: float, penalty: PenaltyFn
) -> _IndexTables:
    """Exact-index tables on the grid (capacity, tau, backlog), built on the
    first call with each key.

    States are flat: state ``row[k] + tau * stride + backlog`` has capacity
    k.  Per state, ``work_zero_cut`` holds 1 if it has work (else 0), the
    index at saving 0 and the cut below.  For a saving e >= 0 the index of
    a state with work is e plus the index at 0: below delta = e acting now
    beats waiting, and from delta = e on no best schedule is active on an
    emptied slot, so every competing line gains e per non-passive slot and
    the crossing moves by exactly e.

    For e < 0 with e + zero <= 0, which is e <= the cut (-inf on the states
    without work), :func:`_crossing` solves the index from ``lines[:, s]``:
    the (slope, weight, offset) of state s's ``n_active`` active-now
    schedule lines and then of its passive-now ones.
    """
    ks = np.array(capacities)
    lines, n_active = _schedule_lines(ks, tau_max, b_max, discount, penalty)
    zero = np.zeros((ks.size, tau_max + 1, b_max + 1))
    no_saving = np.zeros(b_max)
    for r in range(ks.size):  # one (capacity, tau) row at a time keeps the pairs small
        for t in range(1, tau_max + 1):
            zero[r, t, 1:] = _crossing(lines[:, r, t, 1:], n_active, no_saving)
    row = np.zeros(ks[-1] + 1, dtype=np.int64)
    row[ks] = np.arange(ks.size) * zero[0].size
    # e + zero <= 0 exactly when e <= -zero, and e < 0 when e <= -(least subnormal)
    cut = np.minimum(-zero, -np.nextafter(0.0, 1.0))
    cut[:, 0, :] = cut[:, :, 0] = -np.inf
    work = np.broadcast_to(np.arange(b_max + 1) > 0, zero.shape)
    tables = _IndexTables(
        row=row,
        stride=b_max + 1,
        work_zero_cut=np.stack([work.ravel(), zero.ravel(), cut.ravel()]),
        n_active=n_active,
        lines=lines.reshape(3, zero.size, -1),
    )
    for table in tables:
        if isinstance(table, np.ndarray):
            table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=4)
def _first_states(
    capacity: bytes, tau_max: int, b_max: int, discount: float, penalty: PenaltyFn
) -> tuple[_IndexTables, np.ndarray]:
    """The index tables for a capacity array, given by its bytes, and each
    user's first state in them.  Arrays with the same capacities share the
    tables."""
    k = np.frombuffer(capacity, dtype=np.int64)
    tables = _index_tables(tuple(np.bincount(k).nonzero()[0].tolist()), tau_max, b_max, discount, penalty)
    return tables, tables.row[k]


# the dtypes whittle_index_array computes in: tau, backlog, saving, capacity
_DTYPES = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.float64), np.dtype(np.int64))


def whittle_index_array(
    tau: np.ndarray,
    backlog: np.ndarray,
    e_saving: np.ndarray,
    capacity: np.ndarray,
    discount: float,
    penalty: PenaltyFn,
) -> np.ndarray:
    """Exact Whittle index over per-user state arrays.

    The index of a state is the least subsidy for staying passive at which
    passivity is optimal; it is 0 without work.  Within a task the arm is
    deterministic, so each first action is worth the best of finitely many
    schedules, each affine in the subsidy, and a best schedule is active on
    one contiguous block of slots.  The index is the least subsidy at which
    the upper envelope of the blocks that start later (or never) reaches
    that of the blocks that start now.  No convexity of the penalty and no
    sign of the saving is assumed.

    For a saving e >= 0 the index is e plus a cached table, which is 0
    while a spare slot remains (backlog <= capacity*(tau-1) + 1) and prices
    the avoidable deadline penalty beyond that; for a convex penalty it is
    the three-regime closed form (flat, urgent, hopeless).  A negative
    saving whose e plus the table is not positive gives an index between e
    and 0, where finishing early itself earns subsidy; such states are
    solved per state from the cached schedule lines.  The shift by e needs
    discount < 1, which ``SubsidizedArmMDP`` and ``SimConfig`` require:
    with discount 1 schedules could tie on a whole interval of subsidies,
    whose least point can lie below e plus the table.

    Savings must be finite.  One-dimensional arrays of the computing dtypes
    and one shape are used as they are; anything else is broadcast and
    flattened first, and the result takes the broadcast shape.
    """
    try:
        ready = (tau.dtype, backlog.dtype, e_saving.dtype, capacity.dtype) == _DTYPES and (
            tau.ndim == 1 and tau.shape == backlog.shape == e_saving.shape == capacity.shape
        )
    except AttributeError:  # not arrays
        ready = False
    if not ready:
        arrays = np.broadcast_arrays(
            *(np.asarray(a, dtype=d) for a, d in zip((tau, backlog, e_saving, capacity), _DTYPES))
        )
        flat = whittle_index_array(*(a.ravel() for a in arrays), discount, penalty)
        return flat.reshape(arrays[0].shape)
    if tau.size == 0:
        return np.zeros(0)
    tables, first = _first_states(
        capacity.tobytes(),
        _cover(int(tau.max()), _MIN_TAU, 2),
        _cover(int(backlog.max()), _MIN_BACKLOG, 8),
        float(discount),
        penalty,
    )
    state = first + tau * tables.stride + backlog
    work, zero, cut = tables.work_zero_cut.take(state, axis=1)
    out = e_saving * work + zero  # 0 without work, e plus zero with it
    # with e < 0, at subsidies >= 0 no best schedule acts on an emptied slot
    # either, so there passivity is optimal exactly from e + zero on; when
    # that is positive it is the index, otherwise it is solved from the lines
    neg = (e_saving <= cut).nonzero()
    if neg[0].size:
        out[neg] = _crossing(tables.lines.take(state[neg], axis=1), tables.n_active, e_saving[neg])
    return out


@dataclass(frozen=True)
class SubsidizedArmMDP:
    """Finite single-arm MDP with a per-slot subsidy for staying passive.

    Episodic: the task currently in flight is followed by a terminal
    continuation of value zero, because the expected value of future task
    arrivals is identical under both actions and cancels in every
    indifference comparison the oracle performs.
    """

    horizon: int
    max_backlog: int
    capacity: int
    discount: float
    penalty: PenaltyFn
    e_saving: float

    def __post_init__(self) -> None:
        if self.horizon < 0 or self.max_backlog < 0:
            raise ValueError("state-space bounds must be nonnegative")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")

    def valid_mask(self) -> np.ndarray:
        """Boolean (horizon+1, max_backlog+1) mask of reachable states."""
        mask = np.ones((self.horizon + 1, self.max_backlog + 1), dtype=bool)
        mask[0, 1:] = False  # tau == 0 implies backlog == 0
        return mask


def _work_terms(e, capacity: int, fpen: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The subsidy-free terms of :func:`_induction` for saving ``e``.

    Returns ``(e_work, deadline)``: the saving on rows with backlog (0 on
    the empty row), backlog leading, and the deadline level's terms
    ``(passive penalty, active value)``, the penalty on the leftover after
    one passive slot and the saving less the penalty after one active one.
    ``fpen`` is the penalty on 0..b_max.
    """
    b = np.arange(fpen.size)
    has_work = (b > 0)[:, None]
    e_work = np.where(has_work, e, 0.0)
    pen_passive = np.where(has_work, fpen[np.maximum(b - 1, 0), None], 0.0)
    q_active = e_work - np.where(has_work, fpen[np.maximum(b - capacity, 0), None], 0.0)
    return e_work, (pen_passive, q_active)


# float arrays of an _induction workspace: the value and derivative rows,
# their discounted copies, q0, q1 and dq0
_WORK_ROWS = 7


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for :func:`_induction` over up to ``size`` elements: its float
    arrays, one per row, and the passive mask."""
    return np.empty((_WORK_ROWS, size)), np.empty(size, dtype=bool)


def _induction(
    delta,
    e_work: np.ndarray,
    capacity: int,
    levels: int,
    beta: float,
    deadline: Optional[tuple[np.ndarray, np.ndarray]] = None,
    derivative: bool = True,
    work: Optional[tuple[np.ndarray, np.ndarray]] = None,
    reach: Optional[Sequence[int]] = None,
):
    """Backward induction of the subsidized arm within one task.

    Yields ``(passive, value, derivative)`` for tau = 1..``levels``, each of
    shape (backlog, X): backlog leads, so the passive successor (b-1) and
    the active one (b-capacity), clamped at the empty row, are row slices,
    and the subsidy ``delta`` and the saving in ``e_work`` broadcast over
    the trailing axis X.  ``e_work`` and ``deadline`` come from
    :func:`_work_terms`.  The continuation after the last slot is zero.
    With ``deadline`` the first level charges the non-completion penalty;
    without it the task is cut off before its deadline.  Ties resolve to
    the passive action, matching the infimum in the index definition.  The
    derivative in the subsidy is the discounted number of passive slots
    under the actions picked: each value is a max of functions affine in
    the subsidy, so it is a subgradient at a kink.  Without ``derivative``
    it is not carried, and None is yielded for it.

    With ``reach``, level l computes and yields only rows 0..``reach[l-1]``,
    the rows some task can occupy there (:func:`_reach`); the rows a level
    reads from the one before stay within that level's reach, so every
    row computed has the bits of the full induction.  Without it every
    row is computed.

    Every level is computed in ``work``, a :func:`_workspace` at least as
    large as one level (one is allocated when it is None): the arrays
    yielded are views into it, which the next level overwrites.
    """
    shape = np.broadcast_shapes(e_work.shape, np.shape(delta))
    rows, size = shape[0], math.prod(shape)
    k = min(capacity, rows - 1)  # rows 0..k have the empty row as active successor
    e_row = e_work[-1]  # the saving, on every row with work
    floats, mask = _workspace(size) if work is None else work
    v, dv, bv, bdv, q0, q1, dq0 = (row[:size].reshape(shape) for row in floats)
    passive = mask[:size].reshape(shape)
    if deadline is None:  # the first level reads the zero continuation
        v.fill(0.0)
        dv.fill(0.0)
    for level in range(1, levels + 1):
        first = deadline is not None and level == 1
        r = rows if reach is None else reach[level - 1] + 1  # rows computed
        a = min(k + 1, r)  # of them, those whose active successor is the empty row
        m = max(r - 1, 1)  # rows of the previous level read
        if first:
            pen_passive, q_active = deadline
            np.subtract(delta, pen_passive[:r], out=q0[:r])
            np.copyto(q1[:r], q_active[:r])
        else:
            np.multiply(v[:m], beta, out=bv[:m])
            np.add(delta, bv[:1], out=q0[:1])
            np.add(delta, bv[: r - 1], out=q0[1:r])
            np.add(e_work[:a], bv[:1], out=q1[:a])
            np.add(e_row, bv[1 : r - a + 1], out=q1[a:r])
        np.greater_equal(q0[:r], q1[:r], out=passive[:r])
        np.maximum(q0[:r], q1[:r], out=v[:r])
        if derivative:
            if first:  # one passive slot or none, then the deadline
                np.copyto(dv[:r], passive[:r])
            else:
                np.multiply(dv[:m], beta, out=bdv[:m])
                np.add(1.0, bdv[:1], out=dq0[:1])
                np.add(1.0, bdv[: r - 1], out=dq0[1:r])
                dv[:a] = bdv[:1]
                dv[a:r] = bdv[1 : r - a + 1]
                np.copyto(dv[:r], dq0[:r], where=passive[:r])
        yield passive[:r], v[:r], dv[:r] if derivative else None


def _solve_arm(mdp: SubsidizedArmMDP, subsidies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact backward induction of the subsidized arm for a batch of subsidies.

    Returns ``(passive, values)`` arrays of shape
    ``(len(subsidies), horizon+1, max_backlog+1)``.
    """
    d = np.asarray(subsidies, dtype=np.float64)
    # filled as (tau, backlog, subsidy), returned as a transposed view
    shape = (mdp.horizon + 1, mdp.max_backlog + 1, d.size)
    passive = np.empty(shape, dtype=bool)
    values = np.empty(shape)
    # tau = 0: one-shot comparison at the idle state (subsidy vs nothing)
    passive[0] = d >= 0.0
    values[0] = np.maximum(d, 0.0)
    e_work, deadline = _work_terms(mdp.e_saving, mdp.capacity, mdp.penalty.table(mdp.max_backlog))
    levels = _induction(d, e_work, mdp.capacity, mdp.horizon, mdp.discount, deadline, derivative=False)
    for tau, (p, v, _) in enumerate(levels, start=1):
        passive[tau] = p
        values[tau] = v
    return passive.transpose(2, 0, 1), values.transpose(2, 0, 1)


def _bracket(penalty: PenaltyFn, b_max: int, max_abs_e: float) -> float:
    """Half-width of a subsidy interval holding every threshold.

    Thresholds are bounded by the largest reachable penalty plus |saving|;
    the +1 keeps degenerate all-zero configurations searchable.
    """
    return 2.0 * (penalty(b_max) + max_abs_e) + 1.0


def subsidy_threshold_table(
    mdp: SubsidizedArmMDP,
    tol: float = THRESHOLD_TOL,
) -> np.ndarray:
    """Subsidy thresholds for every valid state at once.

    Runs all binary searches in lockstep, solving the arm for the whole
    vector of per-state midpoints in a single batched induction per step.
    Returns an array of shape (horizon+1, max_backlog+1); invalid states
    hold NaN.
    """
    tau_max, b_max = mdp.horizon, mdp.max_backlog
    valid = mdp.valid_mask()
    taus, bs = np.nonzero(valid)
    n = taus.size
    width = _bracket(mdp.penalty, b_max, abs(mdp.e_saving))
    lo = np.full(n, -width)
    hi = np.full(n, width)

    p, _ = _solve_arm(mdp, np.array([-width, width]))
    if p[0][valid].any() or not p[1][valid].all():
        raise RuntimeError("threshold bracket failure on the state grid")

    steps = int(math.ceil(math.log2(max(2.0 * width / tol, 2.0))))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        passive, _ = _solve_arm(mdp, mid)
        hit = passive[np.arange(n), taus, bs]
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid)
    out = np.full((tau_max + 1, b_max + 1), np.nan)
    out[taus, bs] = 0.5 * (lo + hi)
    return out


@dataclass(frozen=True)
class IndexabilityReport:
    """Outcome of the passive-set monotonicity check."""

    indexable: bool
    empty_at_min: bool
    full_at_max: bool
    violation: Optional[tuple[float, float, tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.indexable


def indexability_check(arm, subsidy_grid: Sequence[float]) -> IndexabilityReport:
    """Check that passive sets expand monotonically from empty to everything.

    ``arm`` is either a :class:`SubsidizedArmMDP` (solved in one batch) or
    any object exposing ``passive_set(subsidy) -> boolean mask`` over a
    fixed state indexing.  The grid must be strictly increasing.
    """
    grid = np.asarray(list(subsidy_grid), dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty subsidy grid")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("subsidy grid must be strictly increasing")

    if isinstance(arm, SubsidizedArmMDP):
        passive, _ = _solve_arm(arm, grid)
        valid = arm.valid_mask()
        masks = passive[:, valid]
        state_ids = [tuple(s) for s in np.argwhere(valid)]
    else:
        masks = np.stack([np.asarray(arm.passive_set(d), dtype=bool).ravel() for d in grid])
        state_ids = [(i,) for i in range(masks.shape[1])]

    violation = None
    for j in range(masks.shape[0] - 1):
        lost = masks[j] & ~masks[j + 1]
        if lost.any():
            violation = (float(grid[j]), float(grid[j + 1]), state_ids[int(np.argmax(lost))])
            break
    empty = not masks[0].any()
    full = bool(masks[-1].all())
    if grid.size == 1:
        # monotonicity is vacuous and the endpoint conditions (which assume
        # a grid spanning the threshold bracket) do not apply
        return IndexabilityReport(indexable=True, empty_at_min=empty, full_at_max=full)
    return IndexabilityReport(
        indexable=violation is None and empty and full,
        empty_at_min=empty,
        full_at_max=full,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Lagrangian-relaxed upper bound over the full recurrent chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmChain:
    """Single-arm chain with task arrivals, used for the relaxed bound.

    ``esav_values`` are equiprobable samples of the per-task energy saving,
    one drawn at each arrival and held to the deadline.  Under block fading
    (``fading_period_slots > 0``) the simulated saving also changes within
    a task; this per-task model is not shown to bound that system.
    ``duration_probs[d-1]`` is the arrival distribution over 1..D slots and
    ``size_probs[d-1, s-1]`` the size distribution conditional on duration d.
    """

    capacity: int
    penalty: PenaltyFn
    arrival_prob: float
    duration_probs: np.ndarray
    size_probs: np.ndarray
    esav_values: np.ndarray

    def __post_init__(self) -> None:
        if self.size_probs.ndim != 2 or self.size_probs.shape[0] != len(self.duration_probs):
            raise ValueError("size_probs must be (durations, sizes), conditional on duration")


@dataclass(frozen=True)
class _ArmGroup:
    """Arms sharing everything but their saving samples, stacked for one
    :func:`_induction` per subsidy and variant."""

    capacity: int
    size_probs: np.ndarray  # (L, B) size distribution conditional on duration
    n_samples: int  # saving samples per arm
    e_work: np.ndarray  # (B + 1, arms * samples), from _work_terms
    deadline: tuple[np.ndarray, np.ndarray]
    reach: dict  # level count (L, L - 1) -> _reach of the first that many size rows


def _reach(size_probs: np.ndarray) -> tuple[int, ...]:
    """The last backlog row that a task can occupy at each level l = 1..L of
    an induction whose level d reads the sizes ``size_probs[d-1]``.

    A d-level task starts at most at row Bmax(d), the largest size with
    nonzero probability (0 if none has), and loses at least one subtask
    per slot, so at level l <= d it is at most at row Bmax(d) - (d - l).
    The reach of level l is the largest of these over d >= l, which is at
    least Bmax(l) and at most B.
    """
    n_levels, b_max = size_probs.shape
    largest = np.where(size_probs > 0, np.arange(1, b_max + 1), 0).max(axis=1, initial=0)  # Bmax(d)
    level = np.arange(1, n_levels + 1)
    return tuple((np.maximum.accumulate((largest - level)[::-1])[::-1] + level).tolist())


@dataclass(frozen=True)
class _ArrivalLaw:
    """The groups of arms sharing one arrival law, with the law's
    subsidy-free coefficients: the renewal denominator and the horizon
    map."""

    arrival_prob: float
    dur_probs: np.ndarray
    n_arms: int
    groups: tuple[_ArmGroup, ...]
    renewal_denom: float
    horizon_map: Optional[np.ndarray]  # (2L,) from _horizon_map; None for the renewal value


def _arm_groups(arms: Sequence[ArmChain], beta: float, horizon: Optional[int] = None) -> list[_ArrivalLaw]:
    """Group and stack the arms once, for every subsidy of a bound.

    Arms that differ only in their saving samples share one group, and
    groups sharing the arrival law share one law; both keep the order in
    which their first arm appears.  With a ``horizon`` each law carries
    its horizon map for that many slots; without one, the renewal value.
    """
    by_law: dict = {}  # arrival law -> group key -> arms
    for a in arms:
        law_key = (a.arrival_prob, a.duration_probs.tobytes())
        group_key = (a.capacity, a.penalty, a.size_probs.tobytes(), len(a.esav_values))
        by_law.setdefault(law_key, {}).setdefault(group_key, []).append(a)

    laws = []
    for members in by_law.values():
        proto = next(iter(members.values()))[0]
        q, dur = proto.arrival_prob, proto.duration_probs
        groups = []
        for group in members.values():
            first = group[0]
            esav = np.stack([a.esav_values for a in group]).astype(np.float64, copy=False)
            e_work, deadline = _work_terms(
                esav.ravel(), first.capacity, first.penalty.table(first.size_probs.shape[1])
            )
            n_levels = len(first.size_probs)
            reach = {n: _reach(first.size_probs[:n]) for n in (n_levels, n_levels - 1)}
            groups.append(_ArmGroup(first.capacity, first.size_probs, esav.shape[1], e_work, deadline, reach))
        phi = float(dur @ beta ** np.arange(1, len(dur) + 1))
        laws.append(
            _ArrivalLaw(
                arrival_prob=q,
                dur_probs=dur,
                n_arms=sum(len(group) for group in members.values()),
                groups=tuple(groups),
                renewal_denom=1.0 - (1.0 - q) * beta - q * phi,
                horizon_map=None if horizon is None else _horizon_map(dur, q, beta, horizon),
            )
        )
    return laws


def _level_means(
    group: _ArmGroup,
    delta: float,
    beta: float,
    n_levels: int,
    with_deadline: bool,
    work: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Arm-summed expected within-task values at arrival and their
    derivatives in the subsidy, one column per task length.

    One :func:`_induction` at one subsidy over a group of arms, in ``work``
    when given, on the rows each level can reach.  Returns
    shape (2, ``n_levels``): out[0, d-1] = sum_a E_{B|d, e}[value of a
    d-level task] and out[1, d-1] its derivative, the expected discounted
    number of passive slots.

    The value and derivative rows are adjacent in the workspace, so one
    sum per level reduces both over the arms; each is then dotted with the
    level's full size row, on which the rows beyond the reach have
    probability 0 and sum to 0.
    """
    if work is None:
        work = _workspace(group.e_work.size)
    rows, cols = group.e_work.shape
    both = work[0][:2, : rows * cols].reshape(2, rows, cols)  # v and dv of _induction
    levels = _induction(
        delta, group.e_work, group.capacity, n_levels, beta,
        group.deadline if with_deadline else None, work=work, reach=group.reach[n_levels],
    )
    sums = np.zeros((2, rows - 1))
    filled = 0  # rows of sums holding a level's sums
    out = np.zeros((2, n_levels))
    for level, (_, v, _) in enumerate(levels):
        r = len(v) - 1  # rows with work computed at this level
        np.sum(both[:, 1 : r + 1], axis=-1, out=sums[:, :r])
        if r < filled:
            sums[:, r:filled] = 0.0
        filled = r
        probs = group.size_probs[level]
        out[0, level] = probs @ sums[0]
        out[1, level] = probs @ sums[1]
    return out / group.n_samples


def _finite_chain_values(
    gbar: np.ndarray,  # (R, L) deadline-inside task values at arrival
    hbar: np.ndarray,  # (R, L-1) horizon-truncated task values at arrival
    idle_gain: np.ndarray,  # (R,)
    dur_probs: np.ndarray,
    arrival_prob: float,
    beta: float,
    horizon: int,
) -> np.ndarray:
    """Exact T-slot values from the empty start, shape (R,).

    C(r) is the value entering a slot with r reward slots left in the
    arrival-mixture state; tasks longer than the remaining horizon never
    reach their deadline and use the truncated tables, read only for
    r < L.  The value is linear in (idle gain, gbar, hbar), so each row may
    hold a sum over arms, a derivative or a unit input.
    """
    n_levels = gbar.shape[1]
    q = arrival_prob
    tail_prob = np.concatenate([np.cumsum(dur_probs[::-1])[::-1], [0.0]])  # P(duration >= d)
    weights = dur_probs * beta ** np.arange(1, n_levels + 1)  # admission-discounted
    gsum_full = gbar @ dur_probs  # (R,): arrival value with zero continuation
    gsum_part = np.cumsum(gbar * dur_probs, axis=1)  # partial sums

    c_hist = np.zeros((horizon, gbar.shape[0]))  # c_hist[r] = C(r)
    for r in range(1, horizon):
        idle_value = idle_gain + beta * c_hist[r - 1]
        if r >= n_levels:
            window = c_hist[r - n_levels : r][::-1]  # C(r-1) .. C(r-n_levels)
            task_value = gsum_full + weights @ window
        else:
            window = c_hist[:r][::-1]
            task_value = gsum_part[:, r - 1] + weights[:r] @ window
            task_value = task_value + tail_prob[r] * hbar[:, r - 1]
        c_hist[r] = (1.0 - q) * idle_value + q * task_value
    return idle_gain + beta * c_hist[horizon - 1]


def _horizon_map(dur_probs: np.ndarray, arrival_prob: float, beta: float, horizon: int) -> np.ndarray:
    """The T-slot value's coefficients on (idle gain, gbar, hbar), shape (2L,).

    :func:`_finite_chain_values` run once on the 2L unit inputs: the idle
    gain, the L ``gbar`` columns and the L-1 ``hbar`` columns.
    """
    n_levels = len(dur_probs)
    unit = np.eye(2 * n_levels)
    return _finite_chain_values(
        unit[:, 1 : n_levels + 1], unit[:, n_levels + 1 :], unit[:, 0], dur_probs, arrival_prob, beta, horizon
    )


def _group_terms(
    laws: Sequence[_ArrivalLaw],
    delta: float,
    beta: float,
    work: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Sum over the grouped arms of the value at subsidy ``delta`` and its
    derivative, as ``array([value, derivative])``.

    The renewal and finite-horizon values are linear in (idle gain, task
    values), with coefficients set by the arrival law, so the groups of a
    law are summed first, derivatives go through the same map as values,
    and the finite-horizon value is the law's horizon map applied to them.
    The truncated tables stop one level short of the deadline tables: the
    horizon recursion never reads their last level.  Every group's
    induction runs in ``work`` when it is given.
    """
    idle_gain = np.array([max(delta, 0.0), 1.0 if delta > 0.0 else 0.0])
    total = np.zeros(2)
    for law in laws:
        n_levels = len(law.dur_probs)
        c = law.horizon_map
        gbar = hbar = 0.0
        for group in law.groups:
            gbar = gbar + _level_means(group, delta, beta, n_levels, True, work)
            if c is not None:
                hbar = hbar + _level_means(group, delta, beta, n_levels - 1, False, work)
        idle = law.n_arms * idle_gain
        if c is None:
            q = law.arrival_prob
            cont = ((1.0 - q) * idle + q * (gbar @ law.dur_probs)) / law.renewal_denom
            total += idle + beta * cont
        else:
            total += c[0] * idle + gbar @ c[1 : n_levels + 1] + hbar @ c[n_levels + 1 :]
    return total


def relaxed_upper_bound(
    arms: Sequence[ArmChain],
    num_servers: int,
    discount: float,
    horizon: Optional[int] = None,
) -> float:
    """Upper bound on any feasible policy's expected discounted reward.

    Minimizes the dual ``g(delta) = sum_i V_i(delta) - delta * (N - M) * S``
    over the subsidy, where S is the discounted horizon length
    (``1/(1-beta)`` or its ``horizon``-slot truncation).  g is convex and
    piecewise linear (a sum of maxima of affine functions minus an affine
    term), and the value induction also returns a subgradient: the
    expected discounted passive time summed over arms, minus the slope.

    The search is a one-dimensional cutting-plane method (Kelley 1960).  It
    evaluates both ends of a bracket where every arm is always active
    (subgradient ``-slope``) or always passive (``M * S``); a subgradient
    ``>= 0`` at the left end puts the minimum there.  At M = 0 the right
    end's subgradient rounds to either sign of 0 and is taken as 0: g is
    flat there, but computed as ``N * S * width`` minus nearly as much,
    so the search goes on toward where the flat part starts.  Otherwise
    the next subsidy is where the tangents at the bracket's ends cross,
    kept strictly inside the bracket, and the new point replaces the end
    whose subgradient has its sign.  When two tangent steps in a row fail
    to halve the bracket, a bisection step follows.  No g in the
    bracket lies below the crossing's height on the tangents, so the search
    stops once the least g evaluated is within ``REFINE_TOL * (1 + |g|)``
    of it, after adding a few ulps of the largest term the crossing is
    computed from (far from the minimum those terms can dwarf a bound near
    0): the result is then within that gap of the best bound this
    relaxation gives.  It also stops at a zero subgradient (a minimizer)
    and when the bracket can no longer shrink in floating point.  At M = N
    the left end is one: the slope is 0 and every arm is always active
    there, so g there is the always-active value.

    The least g evaluated is returned; by weak duality every g(delta) is an
    upper bound, whatever the search accuracy.  With ``horizon`` set, the
    value functions account for episode truncation exactly, so the bound
    dominates finite-run rewards even when per-slot rewards are negative.
    """
    n = len(arms)
    if n == 0:
        raise ValueError("no arms")
    if num_servers > n:
        raise ValueError("more servers than arms")
    if num_servers < 0:
        raise ValueError("negative number of servers")
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be None or at least 1")
    if not 0.0 < discount < 1.0:
        raise ValueError("bound requires discount in (0, 1)")
    if horizon is None:
        slope = (n - num_servers) / (1.0 - discount)
    else:
        slope = (n - num_servers) * (1.0 - discount**horizon) / (1.0 - discount)

    width = max(
        _bracket(a.penalty, a.size_probs.shape[1], float(np.max(np.abs(a.esav_values))))
        for a in arms
    )
    laws = _arm_groups(arms, discount, horizon)
    work = _workspace(max(group.e_work.size for law in laws for group in law.groups))

    def dual(delta: float) -> tuple[float, float, float]:
        value, passive_time = _group_terms(laws, delta, discount, work)
        return delta, float(value) - slope * delta, float(passive_time) - slope

    lo, hi = dual(-width), dual(width)  # (delta, g, g') at the bracket's ends
    # every arm is always passive at the right end, where g' is M * S: at
    # M = 0 it is 0 up to rounding and g is flat from some subsidy on, but
    # g there is N * S * width minus nearly as much, so the search goes on
    # toward where the flat part starts
    hi = (hi[0], hi[1], max(hi[2], 0.0))
    best = min(lo[1], hi[1])
    # tangent steps since the bracket last halved, and its width then
    steps, halved_at = 0, hi[0] - lo[0]
    # a zero subgradient lands in ``lo`` and ends the loop: it is a minimizer
    while lo[2] < 0.0 <= hi[2]:
        (d0, g0, s0), (d1, g1, s1) = lo, hi
        kink = (g1 - g0 + s0 * d0 - s1 * d1) / (s0 - s1)
        # the tangents' crossing is a lower bound on g over the bracket, but
        # only to a few ulps of the largest term it is computed from
        rounding = _CROSSING_ULPS * _EPS * max(
            abs(g0) + (slope - s0) * abs(d0), abs(g1) + (slope + s1) * abs(d1)
        )
        if best - (g0 + s0 * (kink - d0)) + rounding <= REFINE_TOL * (1.0 + abs(best)):
            break
        tangent = steps < 2 and d0 < kink < d1
        delta = kink if tangent else 0.5 * (d0 + d1)
        if not d0 < delta < d1:
            break
        point = dual(delta)
        best = min(best, point[1])
        if point[2] > 0.0:
            hi = point
        else:
            lo = point
        steps += 1
        if not tangent or hi[0] - lo[0] <= 0.5 * halved_at:
            steps, halved_at = 0, hi[0] - lo[0]
    return best
