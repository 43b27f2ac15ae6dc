"""The Whittle index vs the subsidized-arm oracle, indexability, and the
relaxed bound.

The oracle (backward induction + bisection on the indifference subsidy)
never evaluates the index and the index never calls the oracle, so grid
agreement between the two is a real check, not a tautology.
"""

import dataclasses

import numpy as np
import pytest
from dynamics_oracles import TaskState
from hypothesis import example, given, settings
from hypothesis import strategies as st
from whittle_oracles import (
    CRITERION_1_PENALTIES,
    arm_chain_value_reference,
    arm_groups_reference,
    chain_terms_reference,
    finite_chain_values_reference,
    index_reference,
    level_means_reference,
    relaxed_upper_bound_reference,
    solve_arm_reference,
    subsidy_threshold,
)

from edgebandit import whittle
from edgebandit.dynamics import PenaltyFn
from edgebandit.whittle import (
    ArmChain,
    SubsidizedArmMDP,
    _arm_groups,
    _group_terms,
    _index_tables,
    _level_means,
    _solve_arm,
    _workspace,
    indexability_check,
    relaxed_upper_bound,
    subsidy_threshold_table,
    whittle_index_array,
)

THEORY1 = PenaltyFn.theory(1.0)


def _chain_terms(arms, delta, beta, horizon):
    """The bound kernel's ``[value, derivative]`` with ``arms`` grouped for
    this one subsidy."""
    return _group_terms(_arm_groups(arms, beta, horizon), delta, beta)


def mdp(**kw) -> SubsidizedArmMDP:
    base = dict(
        horizon=6,
        max_backlog=16,
        capacity=4,
        discount=0.9,
        penalty=THEORY1,
        e_saving=1.0,
    )
    base.update(kw)
    return SubsidizedArmMDP(**base)


def wi(tau, b, e=1.0, k=4, beta=0.9, penalty=THEORY1):
    return float(whittle_index_array(tau, b, e, k, beta, penalty))


class TestClosedForm:
    def test_no_work_is_zero(self):
        for tau in (0, 1, 7):
            assert wi(tau, 0) == 0.0

    def test_deadline_slot_single_subtask(self):
        assert wi(1, 1, e=2.5) == pytest.approx(2.5)

    def test_must_serve_branch(self):
        assert wi(2, 7, e=1.0, k=4, beta=0.9) == pytest.approx(4.6, rel=1e-12)

    def test_unsalvageable_branch(self):
        assert wi(2, 9, e=1.0, k=4, beta=0.9) == pytest.approx(14.5, rel=1e-12)

    def test_branches_partition_all_valid_states(self):
        # every state with work lands in exactly one of the three working
        # regimes; b == 0 short-circuits to the first branch
        pen = PenaltyFn.experiment(0.5)
        for tau in range(0, 11):
            for b in range(0, 31):
                if tau == 0 and b > 0:
                    continue
                for k in (1, 2, 4, 10):
                    if b >= 1:
                        regimes = [
                            1 <= b <= (tau - 1) * k + 1,
                            k * tau - k + 2 <= b <= k * tau,
                            b >= k * tau + 1,
                        ]
                        assert sum(regimes) == 1
                    wi(tau, b, k=k, penalty=pen)  # never raises

    def test_seam_between_flat_and_urgent(self):
        # adjacent states across the regime boundary differ by the
        # discounted one-subtask penalty
        for tau in (2, 3, 5):
            for k in (2, 4):
                b_flat = k * tau - k + 1
                b_urgent = b_flat + 1
                gap = wi(tau, b_urgent, k=k) - wi(tau, b_flat, k=k)
                assert gap == pytest.approx(0.9 ** (tau - 1) * THEORY1(1), rel=1e-12)

    def test_monotone_in_backlog_for_convex_penalty(self):
        for k in (1, 2, 4, 10):
            for tau in range(1, 8):
                vals = [wi(tau, b, k=k) for b in range(0, 25)]
                assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))

    def test_array_matches_scalar(self):
        pen = PenaltyFn.experiment(2.0)
        rng = np.random.default_rng(0)
        taus = rng.integers(1, 10, 200)
        bs = rng.integers(0, 30, 200)
        es = rng.uniform(-1, 3, 200)
        ks = rng.integers(1, 10, 200)
        batch = whittle_index_array(taus, bs, es, ks, 0.95, pen)
        scalar = [
            wi(int(t), int(b), float(e), int(k), 0.95, pen)
            for t, b, e, k in zip(taus, bs, es, ks)
        ]
        np.testing.assert_allclose(batch, scalar, rtol=1e-13)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            mdp(capacity=0)
        with pytest.raises(ValueError):
            mdp(discount=0.0)

    def test_discount_one_rejected(self):
        with pytest.raises(ValueError, match=r"discount must lie in \(0, 1\)"):
            mdp(discount=1.0)


@st.composite
def index_cases(draw):
    """States of random capacity sets under a random discount and penalty,
    with savings of either sign and penalty coefficients from 0 up,
    subnormal ones included."""
    caps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 40))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)  # noqa: E731
    kind = draw(st.sampled_from([PenaltyFn.theory, PenaltyFn.experiment]))
    return dict(
        tau=np.array(draw(column(st.integers(1, 10)))),
        backlog=np.array(draw(column(st.integers(0, 32)))),
        e_saving=np.array(draw(column(st.floats(-1e3, 1e3)))),
        capacity=np.array(draw(column(st.sampled_from(caps)))),
        discount=draw(st.floats(0.05, 0.999)),
        penalty=kind(draw(st.floats(0.0, 20.0))),
    )


class TestIndexLookup:
    """The table lookup against the per-call kernel it replaced, which
    solves every state from all of its schedule lines."""

    @given(index_cases())
    @settings(max_examples=50, deadline=None)
    @example(  # subnormal penalty offsets
        dict(
            tau=np.array([5]),
            backlog=np.array([12]),
            e_saving=np.array([-1.0]),
            capacity=np.array([6]),
            discount=0.328125,
            penalty=PenaltyFn.theory(5e-324),
        )
    )
    @example(  # a subnormal saving, next to the breakpoint at 0
        dict(
            tau=np.arange(1, 11),
            backlog=np.full(10, 12),
            e_saving=np.full(10, -5e-324),
            capacity=np.full(10, 2),
            discount=0.99,
            penalty=PenaltyFn.experiment(5.0),
        )
    )
    def test_equals_full_crossing(self, case):
        np.testing.assert_array_equal(whittle_index_array(**case), index_reference(**case))

    @pytest.mark.parametrize("pen_name", list(CRITERION_1_PENALTIES))
    def test_equals_full_crossing_on_criterion_1_grid(self, pen_name):
        # every state of tau <= 10, backlog <= 30, at savings from -1e4 to 1
        # and next to the cut e = -zero, where the lookup turns from the
        # shift to the crossing
        penalty = CRITERION_1_PENALTIES[pen_name]
        tau, b = (a.ravel() for a in np.meshgrid(np.arange(1, 11), np.arange(31), indexing="ij"))
        for k in (1, 2, 3, 4, 5, 10):
            for beta in (0.9, 0.99):
                cut = -index_reference(tau, b, 0.0, k, beta, penalty)
                e = np.concatenate(
                    [
                        np.broadcast_to(np.concatenate([-np.logspace(-8, 4, 25), [0.0, 1.0]])[:, None], (27, cut.size)),
                        [np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)],
                    ]
                )
                got = whittle_index_array(tau, b, e, k, beta, penalty)
                np.testing.assert_array_equal(got, index_reference(tau, b, e, k, beta, penalty))

    def test_tables_built_once_per_capacity_set_and_read_only(self):
        pen = PenaltyFn.experiment(0.7)
        _index_tables.cache_clear()
        for capacity in ([2, 3], [3, 2], [3, 3, 2]):
            k = np.array(capacity)
            whittle_index_array(np.full(k.shape, 4), np.full(k.shape, 6), np.full(k.shape, -0.5), k, 0.93, pen)
        assert _index_tables.cache_info().misses == 1
        for table in _index_tables((2, 3), 10, 32, 0.93, pen):
            if isinstance(table, np.ndarray):
                assert not table.flags.writeable


class TestSingleArmValueIteration:
    def test_huge_subsidy_passive_everywhere(self):
        passive, _ = _solve_arm(mdp(), [1e6])
        actions = ~passive[0]
        assert np.all(actions == 0)

    def test_negative_subsidy_active_where_saving_positive(self):
        m = mdp(e_saving=1.0)
        passive, _ = _solve_arm(m, [-5.0])
        actions = ~passive[0]
        for tau in range(2, m.horizon + 1):
            for b in range(1, m.max_backlog + 1):
                assert actions[tau, b] == 1

    def test_exact_tie_resolves_passive(self):
        m = mdp(e_saving=1.0)
        passive, _ = _solve_arm(m, [1.0])
        actions = ~passive[0]
        assert actions[1, 1] == 0


class TestSubsidyThreshold:
    def test_zero_for_empty_states(self):
        m = mdp()
        for tau in (0, 1, 4):
            assert subsidy_threshold(m, TaskState(tau, 0)) == pytest.approx(0.0, abs=1e-8)

    def test_deadline_slot_formula(self):
        # at one slot to deadline with 1 < b <= k the indifference point is
        # saving + penalty(b - 1)
        m = mdp(e_saving=1.7)
        for b in range(2, m.capacity + 1):
            got = subsidy_threshold(m, TaskState(1, b))
            assert got == pytest.approx(1.7 + THEORY1(b - 1), abs=1e-7)

    def test_table_matches_scalar(self):
        m = mdp(horizon=4, max_backlog=8)
        table = subsidy_threshold_table(m)
        for tau in range(0, 5):
            for b in range(0, 9):
                if tau == 0 and b > 0:
                    continue
                assert table[tau, b] == pytest.approx(
                    subsidy_threshold(m, TaskState(tau, b)), abs=1e-7
                )

    @pytest.mark.parametrize("k", [2, 4])
    def test_oracle_equals_closed_form_nonnegative_saving(self, k):
        m = mdp(horizon=6, max_backlog=20, capacity=k, discount=0.95, e_saving=1.7)
        table = subsidy_threshold_table(m)
        taus, bs = np.nonzero(~np.isnan(table))
        closed = whittle_index_array(
            taus, bs, np.full(taus.shape, 1.7), np.full(taus.shape, k), 0.95, THEORY1
        )
        np.testing.assert_allclose(closed, table[taus, bs], atol=1e-6)

    def test_negative_saving_diverges_from_closed_form(self):
        # With a negative saving, holding backlog hurts future value, so the
        # true indifference point at (2, 2) is saving / (1 + beta): solve
        # delta + beta*max(delta, e) = e + beta*max(delta, 0) by hand.  The
        # three-regime closed form returned the saving itself there, because
        # its derivation orders the indifference cases assuming saving >= 0;
        # the index must give the hand-derived value.
        e, beta = -1.0, 0.9
        m = mdp(e_saving=e, discount=beta, capacity=4)
        got = subsidy_threshold(m, TaskState(2, 2))
        assert got == pytest.approx(e / (1 + beta), abs=1e-7)
        assert wi(2, 2, e=e, beta=beta) == pytest.approx(e / (1 + beta), abs=1e-12)

    def test_offset_penalty_seam_diverges_from_closed_form(self):
        # With the offset penalty a + c*x^2 and capacity 2, the state
        # (2, 4) sits where the closed form's derivation breaks: the
        # candidate threshold carries the full offset a while the
        # downstream thresholds only see penalty differences, inverting
        # the case ordering.  Solving the indifference by hand with
        # (1, 3) passive and (1, 2) active gives
        # delta* = e + beta * F(2) / (1 + beta), where the closed form gave
        # e + beta * F(1); the index must give the hand-derived value.
        pen = PenaltyFn.experiment(0.5)
        e, beta = 1.5, 0.99
        m = mdp(e_saving=e, discount=beta, capacity=2, penalty=pen, horizon=4, max_backlog=10)
        got = subsidy_threshold(m, TaskState(2, 4))
        assert got == pytest.approx(e + beta * pen(2) / (1 + beta), abs=1e-7)
        index = wi(2, 4, e=e, k=2, beta=beta, penalty=pen)
        assert index == pytest.approx(e + beta * pen(2) / (1 + beta), abs=1e-12)

    def test_out_of_bounds_state_rejected(self):
        with pytest.raises(ValueError):
            subsidy_threshold(mdp(horizon=3), TaskState(5, 1))


class _NonIndexableChain:
    """Deterministic three-decision chain whose passive set is not monotone.

    States X -> Y -> Y2 -> end with active rewards (-4, 5, 5) and discount
    0.9; passivity at X ends the episode.  For large subsidies the two
    downstream passive slots reachable only through the active action at X
    outweigh a single passive slot, so X re-enters the active set:
    passive at X holds exactly for subsidy in [4.55, 40/7.1].
    """

    beta = 0.9

    def passive_set(self, delta: float) -> np.ndarray:
        v_y2 = max(delta, 5.0)
        v_y = max(delta, 5.0) + self.beta * v_y2
        x_passive = delta >= -4.0 + self.beta * v_y
        return np.array([x_passive, delta >= 5.0, delta >= 5.0])


class TestIndexability:
    def test_valid_arm_is_indexable(self):
        m = mdp(penalty=PenaltyFn.experiment(0.5), e_saving=1.3)
        width = 2.0 * (m.penalty(m.max_backlog) + abs(m.e_saving)) + 1.0
        report = indexability_check(m, np.linspace(-width, width, 200))
        assert report.indexable and report.empty_at_min and report.full_at_max

    def test_single_point_grid_trivially_true(self):
        assert indexability_check(mdp(), [0.5]).indexable

    def test_counterexample_detected(self):
        report = indexability_check(_NonIndexableChain(), np.linspace(0.0, 10.0, 200))
        assert not report.indexable
        assert report.violation is not None
        lo, hi, state = report.violation
        assert lo < 40.0 / 7.1 < hi  # the subsidy where X leaves the passive set
        assert state == (0,)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            indexability_check(mdp(), [1.0, 0.5])

    def test_negative_saving_still_indexable(self):
        m = mdp(e_saving=-1.0, penalty=PenaltyFn.experiment(1.0))
        width = 2.0 * (m.penalty(m.max_backlog) + 1.0) + 1.0
        assert indexability_check(m, np.linspace(-width, width, 200)).indexable


def small_chain(q=0.6, k=2):
    size = np.zeros((3, 5))
    for d in range(1, 4):
        top = min(5, k * d)
        size[d - 1, :top] = 1.0 / top
    return ArmChain(
        capacity=k,
        penalty=PenaltyFn.experiment(0.5),
        arrival_prob=q,
        duration_probs=np.full(3, 1 / 3),
        size_probs=size,
        esav_values=np.array([-0.5, 0.3, 1.2]),
    )


@st.composite
def random_chains(draw):
    """A small random arm chain: up to 4 task lengths, 6 sizes, 3 savings."""
    n_levels = draw(st.integers(1, 4))
    b_max = draw(st.integers(1, 6))
    weight = st.floats(0.01, 1.0)
    size = np.array(draw(st.lists(weight, min_size=n_levels * b_max, max_size=n_levels * b_max)))
    size = size.reshape(n_levels, b_max)
    dur = np.array(draw(st.lists(weight, min_size=n_levels, max_size=n_levels)))
    return ArmChain(
        capacity=draw(st.integers(1, 3)),
        penalty=PenaltyFn.experiment(draw(st.floats(0.0, 2.0))),
        arrival_prob=draw(st.floats(0.0, 1.0)),
        duration_probs=dur / dur.sum(),
        size_probs=size / size.sum(axis=1, keepdims=True),
        esav_values=np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))),
    )


class TestArmChainValue:
    @given(
        random_chains(),
        st.floats(-4.0, 4.0),
        st.floats(0.5, 0.98),
        st.sampled_from([None, 1, 3, 25]),
    )
    @settings(max_examples=80, deadline=None)
    def test_derivative_between_one_sided_differences(self, chain, delta, beta, horizon):
        # the value is convex in the subsidy, so any subgradient lies between
        # the one-sided difference quotients
        h = 1e-4
        value, derivative = _chain_terms([chain], delta, beta, horizon)
        assert value == _chain_terms([chain], delta, beta, horizon)[0]
        left = (value - _chain_terms([chain], delta - h, beta, horizon)[0]) / h
        right = (_chain_terms([chain], delta + h, beta, horizon)[0] - value) / h
        slack = 1e-6 * (1.0 + abs(left) + abs(right))
        assert left - slack <= derivative <= right + slack

    @pytest.mark.parametrize("delta", [-2.0, -0.3, 0.0, 0.7, 3.0])
    def test_renewal_matches_value_iteration(self, delta):
        chain = small_chain()
        exact = _chain_terms([chain], delta, 0.95, None)[0]
        reference = arm_chain_value_reference(chain, delta, 0.95)
        assert exact == pytest.approx(reference, abs=5e-8)

    def test_finite_horizon_converges_to_renewal(self):
        chain = small_chain()
        inf_val = _chain_terms([chain], 0.7, 0.95, None)[0]
        vals = [_chain_terms([chain], 0.7, 0.95, t)[0] for t in (50, 400, 3200)]
        errs = [abs(v - inf_val) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_idle_forever_with_no_arrivals(self):
        chain = small_chain(q=0.0)
        # never any task: value is max(delta, 0) per slot, discounted
        assert _chain_terms([chain], 0.4, 0.9, None)[0] == pytest.approx(0.4 / 0.1, rel=1e-9)
        assert _chain_terms([chain], -0.4, 0.9, None)[0] == pytest.approx(0.0, abs=1e-12)


class TestRelaxedBound:
    def test_all_servers_forces_active_value(self):
        # M = N: the search stops at the left end, whose subgradient is 0
        chains = [small_chain(), small_chain(k=3)]
        bound = relaxed_upper_bound(chains, num_servers=2, discount=0.95)
        assert bound == chain_terms_reference(chains, 0.0, 0.95, None, True)[0]

    def test_single_idle_arm_no_server(self):
        # V = max(delta, 0)/(1-beta); inf over delta of V - delta/(1-beta) is 0
        bound = relaxed_upper_bound([small_chain(q=0.0)], num_servers=0, discount=0.9)
        assert bound == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("horizon", [None, 40])
    @pytest.mark.parametrize("loaded", [False, True])
    def test_matches_dense_grid_minimum(self, horizon, loaded):
        # unloaded: the dual's minimizer is the idle kink at 0; loaded (every
        # slot brings work worth serving): an interior kink near 1.7
        if loaded:
            chains = [
                dataclasses.replace(small_chain(q=q, k=k), esav_values=np.array([0.4, 1.1, 2.0]))
                for q, k in ((1.0, 1), (1.0, 2), (0.8, 1), (1.0, 3))
            ]
        else:
            chains = [small_chain(), small_chain(k=3)]
        beta = 0.95
        bound = relaxed_upper_bound(chains, 1, beta, horizon=horizon)
        discounted_slots = (1.0 if horizon is None else 1.0 - beta**horizon) / (1.0 - beta)
        slope = (len(chains) - 1) * discounted_slots

        def dual(grid):
            return np.array([_chain_terms(chains, d, beta, horizon)[0] for d in grid]) - slope * grid

        coarse = np.linspace(-10.0, 10.0, 401)
        i = int(np.argmin(dual(coarse)))
        assert 0 < i < coarse.size - 1  # the minimizer lies inside the coarse grid
        grid_min = float(dual(np.linspace(coarse[i - 1], coarse[i + 1], 2001)).min())
        assert bound == pytest.approx(grid_min, rel=1e-6)
        # not above the grid minimum, up to the rounding of the grid points
        assert bound <= grid_min + 1e-12 * abs(grid_min)

    def test_dominates_passive_and_active_static_policies(self):
        chains = [small_chain(), small_chain(k=3), small_chain(q=0.3)]
        bound = relaxed_upper_bound(chains, 1, 0.95)
        always_active = chain_terms_reference(chains, 0.0, 0.95, None, True)[0]
        assert bound >= always_active - 1e-9

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            relaxed_upper_bound([small_chain()], 1, 1.0)

    @pytest.mark.parametrize("num_servers,horizon", [(-1, 12), (-1, None), (1, 0), (1, -3)])
    def test_bad_servers_or_horizon_rejected(self, num_servers, horizon, monkeypatch):
        calls = []
        monkeypatch.setattr(whittle, "_group_terms", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            relaxed_upper_bound([small_chain(), small_chain(k=3)], num_servers, 0.95, horizon=horizon)
        assert calls == []  # rejected before any dual evaluation


# savings and subsidies on a coarse grid as well as anywhere, so that the
# passive and active values tie often
EXACT_TIES = st.integers(-4, 4).map(lambda x: x / 2.0)
PENALTIES = st.builds(
    lambda form, alpha: getattr(PenaltyFn, form)(alpha),
    st.sampled_from(["theory", "experiment"]),
    st.sampled_from([0.0, 0.5, 1.0, 5.0]),
)


@st.composite
def random_arm_sets(draw):
    """1-6 arms on one grid of task lengths and sizes, drawn from one or two
    arrival laws, two penalties and a size table per capacity, so that
    some arms share a group and some groups share a law."""
    n_levels = draw(st.integers(1, 4))
    b_max = draw(st.integers(1, 8))
    weight = st.floats(0.01, 1.0)

    def distribution(shape):
        w = np.array(draw(st.lists(weight, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))))
        w = w.reshape(shape)
        return w / w.sum(axis=-1, keepdims=True)

    laws = [(draw(st.floats(0.0, 1.0)), distribution(n_levels)) for _ in range(draw(st.integers(1, 2)))]
    penalties = [draw(PENALTIES), draw(PENALTIES)]
    sizes: dict = {}
    arms = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, 4))
        if k not in sizes:
            sizes[k] = distribution((n_levels, b_max))
        q, dur = draw(st.sampled_from(laws))
        saving = st.one_of(st.floats(-2.0, 2.0), EXACT_TIES)
        arms.append(
            ArmChain(
                capacity=k,
                penalty=draw(st.sampled_from(penalties)),
                arrival_prob=q,
                duration_probs=dur,
                size_probs=sizes[k],
                esav_values=np.array(draw(st.lists(saving, min_size=1, max_size=3))),
            )
        )
    return arms


class TestKernelMatchesReference:
    """The bound's kernel against the per-call reference in
    ``whittle_oracles``: the same float operations, so equal bits."""

    @given(
        random_arm_sets(),
        st.lists(st.one_of(st.floats(-4.0, 4.0), EXACT_TIES), min_size=1, max_size=3),
        st.floats(0.5, 0.98),
        st.sampled_from([None, 1, 3, 25]),
    )
    @settings(max_examples=150, deadline=None)
    def test_chain_terms_equal_reference(self, arms, deltas, beta, horizon):
        laws = _arm_groups(arms, beta, horizon)
        assert sum(len(law.groups) for law in laws) == len(arm_groups_reference(arms))
        for delta in deltas:  # the prebuilt groups serve every subsidy unchanged
            expected = chain_terms_reference(arms, delta, beta, horizon)
            assert list(_chain_terms(arms, delta, beta, horizon)) == list(expected)
            assert list(_group_terms(laws, delta, beta)) == list(expected)

    @given(random_arm_sets(), st.floats(0.5, 0.98), st.sampled_from([None, 1, 3, 25]))
    @settings(max_examples=150, deadline=None)
    def test_all_servers_bound_equals_always_active(self, arms, beta, horizon):
        # the search has no M = N case: the left end's subgradient is 0
        # there, and its dual value is the always-active value, bit for bit
        expected = chain_terms_reference(arms, 0.0, beta, horizon, True)[0]
        assert relaxed_upper_bound(arms, len(arms), beta, horizon) == expected

    @given(
        st.integers(0, 6),
        st.integers(0, 12),
        st.integers(1, 5),
        st.floats(0.5, 0.98),
        PENALTIES,
        st.one_of(st.floats(-2.0, 2.0), EXACT_TIES),
        st.lists(st.one_of(st.floats(-5.0, 5.0), EXACT_TIES), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_solve_arm_equal_reference(self, horizon, b_max, k, beta, penalty, e, subsidies):
        m = SubsidizedArmMDP(horizon, b_max, k, beta, penalty, e)
        passive, values = _solve_arm(m, subsidies)
        ref_passive, ref_values = solve_arm_reference(m, subsidies)
        assert np.array_equal(passive, ref_passive)
        assert np.array_equal(values, ref_values)


class TestHorizonMapAndWorkspace:
    """The per-law horizon map against the recursion it is built from, and
    groups of arms taking turns on one induction workspace."""

    @given(
        random_arm_sets(),
        st.floats(0.5, 0.98),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_map_matches_recursion(self, arms, beta, horizon, seed):
        rng = np.random.default_rng(seed)
        for law in _arm_groups(arms, beta, horizon):
            n_levels = len(law.dur_probs)
            idle = rng.uniform(-2.0, 2.0, 2)
            gbar = rng.uniform(-2.0, 2.0, (2, n_levels))
            hbar = rng.uniform(-2.0, 2.0, (2, n_levels - 1))
            c = law.horizon_map
            mapped = c[0] * idle + gbar @ c[1 : n_levels + 1] + hbar @ c[n_levels + 1 :]
            ref = finite_chain_values_reference(gbar, hbar, idle, law.dur_probs, law.arrival_prob, beta, horizon)
            if horizon == 1:
                assert np.array_equal(mapped, ref)
            else:
                assert np.all(np.abs(mapped - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_recursion_runs_once_per_law(self, monkeypatch):
        calls, evaluations = [], []
        recursion, group_terms = whittle._finite_chain_values, whittle._group_terms

        def counted(*args):
            calls.append(args)
            return recursion(*args)

        def evaluated(*args):
            evaluations.append(args)
            return group_terms(*args)

        monkeypatch.setattr(whittle, "_finite_chain_values", counted)
        monkeypatch.setattr(whittle, "_group_terms", evaluated)
        chains = [small_chain(), small_chain(k=3), small_chain(q=0.3), small_chain(q=0.3, k=1)]
        relaxed_upper_bound(chains, 1, 0.95, horizon=40)
        assert len(calls) == 2  # two arrival laws
        assert len(evaluations) > 2

    def test_wider_group_then_narrower_on_one_workspace(self):
        wide = [
            dataclasses.replace(small_chain(k=1), esav_values=np.array([e, 0.5, -1.0]))
            for e in (-0.7, 0.2, 1.4, 2.0)
        ]
        narrow = [dataclasses.replace(small_chain(k=3), esav_values=np.array([0.3, -0.2]))]
        (law,) = _arm_groups(wide + narrow, 0.9, 12)
        assert [g.e_work.shape[1] for g in law.groups] == [12, 2]
        work = _workspace(law.groups[0].e_work.size)
        for delta in (-0.4, 1.1):
            for group, members in zip(law.groups, (wide, narrow)):
                esav = np.stack([a.esav_values for a in members])
                proto = members[0]
                for with_deadline in (True, False):
                    got = _level_means(group, delta, 0.9, 3, with_deadline, work)
                    ref = level_means_reference(
                        esav, proto.capacity, proto.penalty, proto.size_probs, delta, 0.9, with_deadline
                    )
                    assert np.array_equal(got, ref)


@st.composite
def windowed_arms(draw):
    """Arms of one capacity (1 or 2) whose d-slot tasks have sizes in a
    window lo..min(B, capacity * d), so that low levels cannot reach the
    top backlog rows."""
    n_levels = draw(st.integers(3, 6))
    k = draw(st.integers(1, 2))
    b_max = draw(st.integers(k * n_levels, k * n_levels + 3))
    size = np.zeros((n_levels, b_max))
    for d in range(1, n_levels + 1):
        hi = min(b_max, k * d)
        lo = draw(st.integers(1, hi))
        size[d - 1, lo - 1 : hi] = 1.0 / (hi - lo + 1)
    penalty = draw(PENALTIES)
    saving = st.one_of(st.floats(-2.0, 2.0), EXACT_TIES)
    n_samples = draw(st.integers(1, 3))
    return [
        ArmChain(
            capacity=k,
            penalty=penalty,
            arrival_prob=0.7,
            duration_probs=np.full(n_levels, 1.0 / n_levels),
            size_probs=size,
            esav_values=np.array(draw(st.lists(saving, min_size=n_samples, max_size=n_samples))),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestReach:
    """The bound's inductions run only the backlog rows a task can reach:
    the same bits as the full induction, on fewer rows."""

    @given(
        windowed_arms(),
        st.lists(st.one_of(st.floats(-4.0, 4.0), EXACT_TIES), min_size=1, max_size=3),
        st.floats(0.5, 0.98),
    )
    @settings(max_examples=150, deadline=None)
    def test_trimmed_level_means_equal_untrimmed_reference(self, arms, deltas, beta):
        (law,) = _arm_groups(arms, beta, 12)
        (group,) = law.groups
        n_levels, b_max = group.size_probs.shape
        assert group.reach[n_levels][0] < b_max  # the first level is trimmed
        esav = np.stack([a.esav_values for a in arms])
        proto = arms[0]
        work = _workspace(group.e_work.size)
        for delta in deltas:
            for levels, with_deadline in ((n_levels, True), (n_levels - 1, False)):
                got = _level_means(group, delta, beta, levels, with_deadline, work)
                ref = level_means_reference(
                    esav, proto.capacity, proto.penalty, proto.size_probs[:levels], delta, beta, with_deadline
                )
                assert got.tobytes() == ref.tobytes()

    def test_reach_of_a_hand_computed_group(self, monkeypatch):
        # capacity 2, durations 1..10, a d-slot task has 1..2d subtasks: it
        # reaches row 2d - (d - l) = d + l at level l, so level l reaches
        # row 10 + l, or 9 + l when the truncated tables stop at 9 levels
        size = np.zeros((10, 30))
        for d in range(1, 11):
            size[d - 1, : 2 * d] = 1.0 / (2 * d)
        arm = ArmChain(2, PenaltyFn.experiment(5.0), 0.7, np.full(10, 0.1), size, np.array([0.3, -0.1]))
        (law,) = _arm_groups([arm], 0.99, 200)
        (group,) = law.groups
        assert group.reach == {10: tuple(range(11, 21)), 9: tuple(range(10, 19))}

        rows = []
        induction = whittle._induction

        def counted(*args, **kwargs):
            for passive, v, dv in induction(*args, **kwargs):
                assert passive.shape == v.shape == dv.shape
                rows.append(len(v))
                yield passive, v, dv

        monkeypatch.setattr(whittle, "_induction", counted)
        _group_terms([law], 0.2, 0.99)
        assert rows == list(range(12, 22)) + list(range(11, 20))


class TestSearchMatchesBisection:
    """The cutting-plane search against the sign bisection it replaced, on
    the same dual evaluations."""

    @staticmethod
    def assert_close(bound, reference):
        # never looser than the bisection beyond the search's own
        # certificate, and within the bisection's tolerance of it
        assert bound <= reference + 1e-12 * (1.0 + abs(reference))
        assert abs(bound - reference) <= 1e-6 * (1.0 + abs(reference))

    @given(
        random_arm_sets(),
        st.data(),
        st.floats(0.5, 0.98),
        st.sampled_from([None, 1, 3, 25]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, arms, data, beta, horizon):
        num_servers = data.draw(st.integers(0, len(arms) - 1))
        self.assert_close(
            relaxed_upper_bound(arms, num_servers, beta, horizon=horizon),
            relaxed_upper_bound_reference(arms, num_servers, beta, horizon=horizon),
        )

    def test_minimum_at_rounded_bracket_end(self):
        # with no server the passive end's subgradient n*S - n*S rounds to
        # -2.2e-16 here: the minimum is at that end, not between the ends
        arm = ArmChain(
            capacity=1,
            penalty=PenaltyFn.theory(0.0),
            arrival_prob=1.0,
            duration_probs=np.array([2 / 3, 1 / 3]),
            size_probs=np.ones((2, 1)),
            esav_values=np.array([0.0]),
        )
        bound = relaxed_upper_bound([arm], 0, 0.5)
        self.assert_close(bound, relaxed_upper_bound_reference([arm], 0, 0.5))
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_crossing_rounding_not_taken_for_convergence(self):
        # with no arrivals g is 0 at delta = 0 and ~1e4 at the bracket's
        # ends; the first crossing, rounded at that scale, lands ~4e-14
        # off 0 where g is ~1.2e-12, and its gap to the rounded crossing
        # once passed for REFINE_TOL
        arms = [
            ArmChain(
                capacity=1,
                penalty=PenaltyFn.theory(5.0),
                arrival_prob=0.0,
                duration_probs=np.full(3, 1 / 3),
                size_probs=np.full((3, 8), 0.125),
                esav_values=np.array([e]),
            )
            for e in (0.0, 0.0, 0.14443053977819575)
        ]
        bound = relaxed_upper_bound(arms, 1, 0.9375)
        self.assert_close(bound, relaxed_upper_bound_reference(arms, 1, 0.9375))

    def test_no_server_flat_right_end(self):
        # at M = 0 the right end's subgradient is exactly 0 here, and g
        # there is 4160 minus 4160.009..., ~1.3e-12 above g where it turns
        # flat
        size_probs = np.array([[1 / 8] * 8, [1 / 8] * 8, [2 / 15] * 7 + [1 / 15]])
        arms = [
            ArmChain(
                capacity=1,
                penalty=PenaltyFn.theory(alpha),
                arrival_prob=2.0**-14,
                duration_probs=np.array([0.25, 0.25, 0.5]),
                size_probs=size_probs,
                esav_values=np.array([0.0]),
            )
            for alpha in (0.0, 0.5)
        ]
        bound = relaxed_upper_bound(arms, 0, 0.96875)
        self.assert_close(bound, relaxed_upper_bound_reference(arms, 0, 0.96875))
