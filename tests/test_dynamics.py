"""Arm-state dynamics: transitions, rewards, slack, and the system step.

The scalar transitions and the system step are the reference forms in
``dynamics_oracles``; the array step the harness runs is checked against
them on random slots.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from dynamics_oracles import (
    IDLE,
    StepWorld,
    SystemState,
    TaskState,
    generate_task,
    reward,
    step_system,
    transition,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from policy_oracles import slack_time

from edgebandit import dynamics
from edgebandit.dynamics import ActionVector, PenaltyFn, TaskGenerator


def rng(seed=0):
    return np.random.default_rng(seed)


def gen(q=0.7, dur=10, size=30):
    return TaskGenerator(arrival_prob=q, max_duration=dur, max_task_size=size)


class TestTaskState:
    def test_idle_is_zero_zero(self):
        assert IDLE.tau == 0 and IDLE.backlog == 0 and IDLE.idle

    def test_zero_tau_requires_zero_backlog(self):
        with pytest.raises(ValueError):
            TaskState(0, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TaskState(-1, 0)
        with pytest.raises(ValueError):
            TaskState(2, -1)


class TestPenaltyFn:
    def test_zero_at_zero(self):
        for pen in (PenaltyFn.theory(3.0), PenaltyFn.experiment(3.0)):
            assert pen(0) == 0.0
            assert pen(-2) == 0.0

    def test_presets(self):
        assert PenaltyFn.theory(2.0)(3) == pytest.approx(18.0)
        assert PenaltyFn.experiment(2.0)(3) == pytest.approx(2.0 + 0.9)

    def test_nondecreasing(self):
        pen = PenaltyFn.experiment(0.5)
        vals = [pen(x) for x in range(20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_table_matches_calls(self):
        pen = PenaltyFn.experiment(1.5)
        np.testing.assert_allclose(pen.table(10), [pen(x) for x in range(11)])

    @pytest.mark.parametrize("alpha", [0.001, 0.5, 1.5, 5.0])
    def test_values_match_calls_bit_for_bit(self, alpha):
        x = np.arange(61)
        for pen in (PenaltyFn.theory(alpha), PenaltyFn.experiment(alpha)):
            want = np.array([pen(int(v)) for v in x])
            assert pen.values(x).tobytes() == want.tobytes()
            assert pen.table(60).tobytes() == want.tobytes()

    @given(
        st.sampled_from([PenaltyFn.theory, PenaltyFn.experiment]),
        st.floats(0.0, 10.0),
        st.lists(st.integers(0, 200), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_reads_values_bit_for_bit(self, form, alpha, leftovers):
        pen = form(alpha)
        x = np.array(leftovers, dtype=np.int64)
        assert pen.at(x).tobytes() == pen.values(x).tobytes()
        table = pen._table
        assert not table.flags.writeable
        last = table.size - 1
        ends = np.array([0, last])
        assert pen.at(ends).tobytes() == pen.values(ends).tobytes()
        assert pen.at(np.int64(last)) == pen.values(last)
        assert pen._table is table  # kept with the penalty while it covers the leftovers
        # beyond the table's last entry: rebuilt larger, never clipped
        beyond = np.array([last + 1, 3 * last + 5])
        assert pen.at(beyond).tobytes() == pen.values(beyond).tobytes()
        assert pen._table.size > 3 * last + 5
        assert pen._table[: table.size].tobytes() == table.tobytes()

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PenaltyFn(base=-1.0, quad_coeff=0.0)


class TestTransition:
    def test_offload_drains_capacity(self):
        out = transition(TaskState(3, 10), 1, 4, gen(), rng())
        assert out == TaskState(2, 6)

    def test_local_drains_one_clamped(self):
        out = transition(TaskState(2, 1), 0, 4, gen(), rng())
        assert out == TaskState(1, 0)

    def test_no_arrival_goes_idle(self):
        out = transition(TaskState(1, 3), 0, 4, gen(q=0.0), rng())
        assert out == IDLE

    def test_arrival_uses_drawn_duration_and_size(self):
        out = transition(TaskState(1, 3), 1, 4, gen(q=1.0, dur=1, size=1), rng())
        assert out == TaskState(1, 1)

    def test_restlessness_tau_decrements_regardless_of_action(self):
        for u in (0, 1):
            assert transition(TaskState(5, 8), u, 4, gen(), rng()).tau == 4

    def test_backlog_never_increases_within_task(self):
        state = TaskState(9, 20)
        r = rng(3)
        g = gen(q=0.0)
        while state.tau >= 2:
            nxt = transition(state, int(r.random() < 0.5), 3, g, r)
            assert nxt.backlog <= state.backlog
            state = nxt


class TestGenerateTask:
    def test_bounds_always_hold(self):
        g = gen(dur=10, size=30)
        r = rng(1)
        for _ in range(1000):
            spec = generate_task(g, r, current_slot=5)
            assert 1 <= spec.duration <= 10
            assert 1 <= spec.total_subtasks <= 30
            assert spec.deadline_slot == spec.arrival_slot + spec.duration - 1

    def test_degenerate_support(self):
        spec = generate_task(gen(dur=1, size=1), rng(), 0)
        assert spec.duration == 1 and spec.total_subtasks == 1

    def test_law_of_large_numbers(self):
        g = gen(dur=10, size=30)
        r = rng(7)
        n = 100_000
        durs = np.array([generate_task(g, r, 0).duration for _ in range(n)])
        # U{1..10}: mean 5.5, sd sqrt(99/12)
        sd_mean = np.sqrt(99 / 12) / np.sqrt(n)
        assert abs(durs.mean() - 5.5) < 3 * sd_mean

    def test_conditional_size_distribution(self):
        g = TaskGenerator(
            arrival_prob=1.0,
            max_duration=10,
            max_task_size=30,
            size_dist=lambda r, d: int(r.integers(1, 2 * d + 1)),
        )
        r = rng(5)
        for _ in range(500):
            spec = generate_task(g, r, 0)
            assert spec.total_subtasks <= 2 * spec.duration


class TestReward:
    PEN = PenaltyFn(base=0.0, quad_coeff=0.1)

    def test_running_task_pays_saving_when_selected(self):
        assert reward(TaskState(5, 8), 1, 2.0, 4, self.PEN) == pytest.approx(2.0)
        assert reward(TaskState(5, 8), 0, 2.0, 4, self.PEN) == 0.0

    def test_deadline_slot_charges_leftover(self):
        # leftover (5 - 4)^+ = 1, penalty 0.1
        assert reward(TaskState(1, 5), 1, 2.0, 4, self.PEN) == pytest.approx(1.9)

    def test_idle_is_zero(self):
        assert reward(IDLE, 0, 2.0, 4, self.PEN) == 0.0
        assert reward(IDLE, 1, 2.0, 4, self.PEN) == 0.0

    def test_passive_reward_never_positive(self):
        pen = PenaltyFn.experiment(0.5)
        r = rng(11)
        for _ in range(200):
            tau = int(r.integers(1, 10))
            b = int(r.integers(0, 30))
            state = TaskState(tau, b)
            assert reward(state, 0, float(r.uniform(-1, 3)), 4, pen) <= 0.0

    def test_active_reward_lower_bound(self):
        pen = PenaltyFn.experiment(0.5)
        r = rng(12)
        for _ in range(200):
            tau = int(r.integers(1, 10))
            b = int(r.integers(1, 30))
            e = float(r.uniform(-1, 3))
            assert reward(TaskState(tau, b), 1, e, 4, pen) >= e - pen(b)


class TestSlackTime:
    def test_exact_rational(self):
        assert slack_time(TaskState(5, 8), 4) == Fraction(3)

    def test_zero_backlog(self):
        assert slack_time(TaskState(3, 0), 4) == Fraction(3)

    def test_boundary(self):
        assert slack_time(TaskState(2, 8), 4) == Fraction(0)

    def test_idle_rejected(self):
        with pytest.raises(ValueError, match="no task"):
            slack_time(IDLE, 4)

    def test_no_float_rounding(self):
        assert slack_time(TaskState(3, 1), 3) == Fraction(8, 3)


def world(n, caps, e_savings, q=0.0, num_servers=1, penalty=None, seed=0):
    return StepWorld(
        capacities=caps,
        e_savings=e_savings,
        gens=[gen(q=q) for _ in range(n)],
        rngs=[np.random.default_rng([seed, i]) for i in range(n)],
        penalty=penalty or PenaltyFn.experiment(0.5),
        num_servers=num_servers,
    )


class TestStepSystem:
    def test_single_arm_completion(self):
        state = SystemState(per_user=(TaskState(1, 4),), slot=0)
        w = world(1, [4], [2.5])
        nxt, rewards, events = step_system(state, ActionVector.of([0]), w)
        assert rewards[0] == pytest.approx(2.5)
        assert len(events) == 1 and events[0].completed and events[0].leftover == 0
        assert nxt.per_user[0] == IDLE and nxt.slot == 1

    def test_all_idle_zero_rewards(self):
        state = SystemState(per_user=(IDLE, IDLE, IDLE), slot=0)
        w = world(3, [4, 4, 4], [1.0, 1.0, 1.0], num_servers=2)
        _, rewards, events = step_system(state, ActionVector.of([0, 1]), w)
        assert np.all(rewards == 0.0) and events == []

    def test_action_semantics(self):
        state = SystemState(per_user=(TaskState(5, 10), TaskState(5, 10)), slot=0)
        w = world(2, [4, 4], [1.0, 1.0])
        nxt, _, _ = step_system(state, ActionVector.of([0]), w)
        assert nxt.per_user[0].backlog == 6  # server drained 4
        assert nxt.per_user[1].backlog == 9  # local drained 1

    def test_malformed_action_rejected(self):
        state = SystemState(per_user=(IDLE, IDLE), slot=0)
        w = world(2, [4, 4], [1.0, 1.0], num_servers=1)
        with pytest.raises(ValueError):
            step_system(state, ActionVector.of([0, 1]), w)
        with pytest.raises(ValueError):
            step_system(state, ActionVector.of([5]), w)

    def test_zero_arrivals_total_reward_zero(self):
        state = SystemState(per_user=(IDLE, IDLE), slot=0)
        w = world(2, [4, 4], [1.0, 1.0], q=0.0, num_servers=1)
        total = 0.0
        for _ in range(50):
            state, rewards, _ = step_system(state, ActionVector.of([0]), w)
            total += rewards.sum()
        assert total == 0.0

    def test_bit_reproducible(self):
        def run(seed):
            state = SystemState(per_user=(IDLE,) * 4, slot=0)
            w = world(4, [4] * 4, [1.0] * 4, q=0.7, num_servers=2, seed=seed)
            log = []
            for _ in range(40):
                state, rewards, _ = step_system(state, ActionVector.of([0, 1]), w)
                log.append((state.per_user, rewards.tobytes()))
            return log

        assert run(9) == run(9)

    def test_completion_and_violation_counts(self):
        state = SystemState(per_user=(TaskState(1, 2), TaskState(1, 9)), slot=0)
        w = world(2, [4, 4], [1.0, 1.0], num_servers=1)
        _, _, events = step_system(state, ActionVector.of([0]), w)
        assert len(events) == 2
        done = {e.user: e.completed for e in events}
        assert done[0] is True and done[1] is False


class TestActionVector:
    def test_of_list_array_and_empty(self):
        users = [3, 0, 7]
        for indices in (users, np.array(users, dtype=np.int64)):
            selected = ActionVector.of(indices).selected
            assert selected == frozenset(users)
            assert all(type(u) is int for u in selected)
        for empty in ([], np.zeros(0, dtype=np.int64)):
            assert ActionVector.of(empty).selected == frozenset()


@st.composite
def slots(draw):
    """One random slot: N users in valid states, M of them selected."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    taus = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    backlogs = [draw(st.integers(0, 30)) if t else 0 for t in taus]
    caps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    savings = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    selected = draw(st.permutations(range(n)))[:m]
    form = draw(st.sampled_from([PenaltyFn.theory, PenaltyFn.experiment]))
    penalty = form(draw(st.floats(0.0, 10.0)))
    arrival_probs = draw(st.lists(st.sampled_from([0.0, 0.7, 1.0]), min_size=n, max_size=n))
    gens = [TaskGenerator(arrival_prob=q, max_duration=10, max_task_size=30) for q in arrival_probs]
    rngs = [np.random.default_rng([draw(st.integers(0, 2**32 - 1)), i]) for i in range(n)]
    return taus, backlogs, caps, savings, selected, penalty, gens, rngs


class TestArrayStep:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10),
                st.integers(0, 30),
                st.integers(1, 5),
                st.integers(0, 1),
                st.one_of(st.sampled_from([-0.0, 0.0, -2.5]), st.floats(-3.0, 3.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([PenaltyFn.theory, PenaltyFn.experiment]),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_step_shares_reward_and_leftover(self, users, form, alpha):
        """The step's one leftover gives the bytes of reward and _leftover."""
        tau, backlog, caps, action = (np.array(col, dtype=np.int64) for col in list(zip(*users))[:4])
        saving = np.array([u[4] for u in users])
        penalty = form(alpha)
        out = dynamics.step(tau, backlog, action, saving, caps, penalty)
        expected = dynamics.reward(tau, backlog, action, saving, caps, penalty)
        assert out.reward.tobytes() == expected.tobytes()
        assert out.leftover.tobytes() == dynamics._leftover(backlog, action, caps).tobytes()

    @given(slots())
    @settings(max_examples=300, deadline=None)
    def test_array_step_matches_oracle(self, slot):
        taus, backlogs, caps, savings, selected, penalty, gens, rngs = slot
        n, m = len(taus), len(selected)
        state = SystemState(tuple(TaskState(t, b) for t, b in zip(taus, backlogs)), slot=0)
        world = StepWorld(caps, savings, gens, copy.deepcopy(rngs), penalty, num_servers=m)
        nxt, rewards, events = step_system(state, ActionVector.of(selected), world)

        action = np.zeros(n, dtype=np.int64)
        action[selected] = 1
        tau = np.array(taus, dtype=np.int64)
        backlog = np.array(backlogs, dtype=np.int64)
        out = dynamics.step(tau, backlog, action, np.array(savings), np.array(caps), penalty)
        assert out.reward.tobytes() == rewards.tobytes()
        ended = np.flatnonzero(tau == 1)
        assert [(e.user, e.completed, e.leftover) for e in events] == [
            (i, out.leftover[i] == 0, out.leftover[i]) for i in ended.tolist()
        ]
        # the next task of every user the step left at (0, 0), as the harness draws it
        for i in np.flatnonzero(out.tau == 0):
            if gens[i].maybe_arrival(rngs[i]):
                out.tau[i], out.backlog[i] = gens[i].draw(rngs[i])
        assert nxt.per_user == tuple(map(TaskState, out.tau.tolist(), out.backlog.tolist()))
