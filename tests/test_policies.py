"""Selection policies: ranking rules, dominance graph, topological sort.

Tests build keys as the reference ``UserKeys`` of ``policy_oracles`` and
select through the array form; the dominance-graph tests check the
reference graph and sort, and ``TestMatchesOracle`` ties the two together.
"""

import heapq
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from policy_oracles import (
    PriorityDag,
    UserKeys,
    as_slot_keys,
    build_stlw_dag,
    kahn_topo_sort,
    ranked,
)

from edgebandit import policies
from edgebandit.policies import PolicyKind


def select(kind, keys, num_servers):
    """The production selection on the array form of ``keys``."""
    return policies.select(kind, as_slot_keys(keys), num_servers)


def worker(user, tau, backlog, capacity, wi=0.0, gain=0.0):
    return UserKeys(
        user=user,
        idle=False,
        tau=tau,
        backlog=backlog,
        slack=Fraction(tau * capacity - backlog, capacity),
        wi=wi,
        greedy_gain=gain,
        capacity=capacity,
    )


def idler(user):
    return UserKeys(
        user=user, idle=True, tau=None, backlog=0, slack=None, wi=0.0, greedy_gain=0.0
    )


def dag_key(user, slack, backlog, wi):
    """Key with the requested integer slack, inside the flat-index class
    where the dominance rule applies.  Capacity equals backlog, so
    tau = slack + 1 exactly and backlog <= capacity*(tau-1)+1 for slack >= 1.
    """
    capacity = backlog
    tau = slack + 1
    k = UserKeys(
        user=user,
        idle=False,
        tau=tau,
        backlog=backlog,
        slack=Fraction(slack),
        wi=wi,
        greedy_gain=0.0,
        capacity=capacity,
    )
    assert k.index_flat
    return k


class TestPolicyKind:
    def test_parse(self):
        assert PolicyKind.parse("stlw-wi") is PolicyKind.STLW_WI
        assert PolicyKind.parse(" WI ") is PolicyKind.WI

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyKind.parse("fifo")


class TestSelect:
    def test_everyone_selected_when_servers_match_users(self):
        keys = [worker(0, 3, 5, 2, wi=0.2), worker(1, 1, 9, 2, wi=0.9), idler(2)]
        for kind in PolicyKind:
            assert select(kind, keys, 3).selected == frozenset({0, 1, 2})

    def test_wi_argmax(self):
        keys = [worker(i, 5, 4, 2, wi=w) for i, w in enumerate((0.5, 0.9, 0.7))]
        assert select(PolicyKind.WI, keys, 1).selected == {1}

    def test_tie_breaks_to_smaller_index(self):
        keys = [worker(0, 5, 4, 2, wi=0.7), worker(1, 5, 4, 2, wi=0.7)]
        assert select(PolicyKind.WI, keys, 1).selected == {0}

    def test_edf_smallest_deadline(self):
        keys = [worker(0, 7, 4, 2), worker(1, 2, 4, 2), worker(2, 5, 4, 2), idler(3)]
        assert select(PolicyKind.EDF, keys, 2).selected == {1, 2}

    def test_lst_smallest_slack(self):
        keys = [worker(0, 5, 2, 2), worker(1, 5, 8, 2), worker(2, 5, 5, 2)]
        # slacks: 4, 1, 2.5
        assert select(PolicyKind.LST, keys, 2).selected == {1, 2}

    def test_lst_lost_causes_rank_after_savable(self):
        doomed = worker(0, 2, 9, 2)  # needs 9 > 4 service slots
        tight = worker(1, 5, 9, 2)
        assert doomed.lost_cause and not tight.lost_cause
        assert select(PolicyKind.LST, [doomed, tight], 1).selected == {1}

    def test_edf_stays_classic_on_lost_causes(self):
        doomed = worker(0, 2, 9, 2)
        later = worker(1, 5, 9, 2)
        assert select(PolicyKind.EDF, [doomed, later], 1).selected == {0}

    def test_greedy_largest_gain(self):
        keys = [worker(i, 5, 9, 2, gain=g) for i, g in enumerate((0.1, 0.4, 0.2))]
        assert select(PolicyKind.GREEDY, keys, 1).selected == {1}

    def test_idle_users_rank_last(self):
        keys = [idler(0), worker(1, 9, 1, 2, wi=-0.5, gain=-0.5), idler(2)]
        for kind in (PolicyKind.WI, PolicyKind.GREEDY, PolicyKind.EDF, PolicyKind.LST):
            assert select(kind, keys, 1).selected == {1}

    def test_finished_tasks_rank_after_workers_before_idle(self):
        keys = [idler(0), worker(1, 4, 0, 2, wi=0.0), worker(2, 9, 3, 2, wi=-0.2)]
        assert select(PolicyKind.WI, keys, 1).selected == {2}
        assert select(PolicyKind.WI, keys, 2).selected == {1, 2}

    def test_cardinality_and_uniqueness(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            m = int(rng.integers(1, n + 1))
            keys = []
            for i in range(n):
                if rng.random() < 0.2:
                    keys.append(idler(i))
                else:
                    k = int(rng.integers(1, 5))
                    keys.append(
                        worker(
                            i,
                            int(rng.integers(1, 9)),
                            int(rng.integers(0, 20)),
                            k,
                            wi=float(rng.normal()),
                            gain=float(rng.normal()),
                        )
                    )
            for kind in PolicyKind:
                act = select(kind, keys, m)
                assert len(act.selected) == m

    def test_purity(self):
        keys = [worker(i, 5, 7, 3, wi=float(i)) for i in range(6)]
        a = select(PolicyKind.STLW_WI, keys, 3)
        b = select(PolicyKind.STLW_WI, keys, 3)
        assert a == b

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        keys = [
            worker(i, int(rng.integers(2, 8)), int(rng.integers(1, 12)), 3,
                   wi=float(rng.uniform(0.1, 2.0)))
            for i in range(10)
        ]
        scaled = [
            UserKeys(
                user=k.user, idle=k.idle, tau=k.tau, backlog=k.backlog,
                slack=k.slack, wi=k.wi * 37.5, greedy_gain=k.greedy_gain,
                capacity=k.capacity,
            )
            for k in keys
        ]
        for kind in (PolicyKind.WI, PolicyKind.STLW_WI):
            assert select(kind, keys, 4) == select(kind, scaled, 4)

    def test_too_many_servers_rejected(self):
        with pytest.raises(ValueError):
            select(PolicyKind.WI, [idler(0)], 2)


class TestSlackKey:
    """The integer slack key against exact fractions."""

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 10),
                    st.integers(0, 60),
                    st.one_of(st.integers(1, 12), st.sampled_from([997, 1009, 1013, 65521, 2**31 - 1])),
                ),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_slack_key_is_exact_with_cached_lcm(self, slots):
        # capacity sets alternate, and each is rewritten into one array in
        # place: the cached lcm must follow the content, not the array
        capacity = None
        for users in slots + slots[::-1]:
            tau, backlog, caps = (np.array(col, dtype=np.int64) for col in zip(*users))
            if capacity is None or capacity.size != caps.size:
                capacity = caps
            else:
                capacity[:] = caps
            lcm = math.lcm(*caps.tolist())
            exact = [t * lcm - b * (lcm // k) for t, b, k in users]
            assert all(Fraction(s, lcm) == Fraction(t) - Fraction(b, k) for s, (t, b, k) in zip(exact, users))
            assert policies._slack_key(tau, backlog, capacity).tolist() == exact


class TestBuildStlwDag:
    def test_strict_dominance_pair(self):
        a = dag_key(0, slack=1, backlog=2, wi=0.5)
        b = dag_key(1, slack=2, backlog=3, wi=0.9)
        dag = build_stlw_dag([a, b])
        assert dag.edges() == [(0, 1)]
        assert list(dag.indegree) == [0, 1]

    def test_incomparable_pair(self):
        a = dag_key(0, slack=1, backlog=6, wi=0.5)
        b = dag_key(1, slack=2, backlog=5, wi=0.9)
        assert build_stlw_dag([a, b]).edges() == []

    def test_equal_keys_no_edge(self):
        a = dag_key(0, slack=2, backlog=3, wi=0.5)
        b = dag_key(1, slack=2, backlog=3, wi=0.9)
        assert build_stlw_dag([a, b]).edges() == []

    def test_exact_rational_slack_comparison(self):
        # 4/3 and 8/6 are the same slack through different capacities; the
        # cross-multiplied comparison must treat them as exactly equal, so
        # dominance hinges on the strict backlog inequality alone
        a = UserKeys(0, False, 2, 2, Fraction(4, 3), 0.1, 0.0, capacity=3)
        b = UserKeys(1, False, 2, 4, Fraction(8, 6), 0.1, 0.0, capacity=6)
        assert a.index_flat and b.index_flat
        dag = build_stlw_dag([a, b])
        assert dag.edges() == [(0, 1)]

    def test_unscoped_relation_matches_definition(self):
        # flat user: k=2, tau=3, b=5 -> slack 1/2; urgent user: k=12,
        # tau=2, b=17 -> slack 7/12.  The raw relation has the flat user
        # dominating (less slack, less backlog); the scheduler's scoped
        # graph drops that cross-class edge.
        flat = UserKeys(0, False, 3, 5, Fraction(1, 2), 0.01, 0.0, capacity=2)
        urgent = UserKeys(1, False, 2, 17, Fraction(7, 12), 5.0, 0.0, capacity=12)
        assert flat.index_flat and not urgent.index_flat and not urgent.lost_cause
        assert build_stlw_dag([flat, urgent]).edges() == []
        assert build_stlw_dag([flat, urgent], scope_flat_index=False).edges() == [(0, 1)]

    def test_finished_tasks_never_dominate(self):
        done = worker(0, 5, 0, 2, wi=0.0)
        busy = worker(1, 5, 6, 2, wi=0.3)
        for scoped in (True, False):
            assert (0, 1) not in build_stlw_dag([done, busy], scope_flat_index=scoped).edges()


class TestKahnTopoSort:
    def test_hand_trace(self):
        # zero-indegree set {A, C}; C pops first on the larger index, then
        # A, which unlocks B
        a = dag_key(0, slack=1, backlog=2, wi=0.5)
        b = dag_key(1, slack=2, backlog=3, wi=0.9)
        c = dag_key(2, slack=3, backlog=1, wi=0.7)
        dag = build_stlw_dag([a, b, c])
        assert dag.edges() == [(0, 1)]
        assert kahn_topo_sort(dag) == [2, 0, 1]

    def test_no_edges_degenerates_to_index_order(self):
        keys = [dag_key(i, slack=2, backlog=3, wi=w) for i, w in enumerate((0.2, 0.8, 0.5))]
        dag = build_stlw_dag(keys)
        assert dag.edges() == []
        assert kahn_topo_sort(dag) == [1, 2, 0]

    def test_chain_overrides_index(self):
        users = np.array([0, 1, 2])
        wi = np.array([0.1, 0.9, 0.8])
        edge = np.zeros((3, 3), bool)
        edge[0, 1] = edge[1, 2] = True
        dag = PriorityDag(users=users, wi=wi, edge=edge, indegree=edge.sum(0).astype(np.int64))
        assert kahn_topo_sort(dag) == [0, 1, 2]

    def test_cycle_detected(self):
        users = np.array([0, 1])
        edge = np.array([[False, True], [True, False]])
        dag = PriorityDag(
            users=users, wi=np.array([0.5, 0.4]), edge=edge,
            indegree=edge.sum(0).astype(np.int64),
        )
        with pytest.raises(RuntimeError, match="not a partial order"):
            kahn_topo_sort(dag)


class TestStlwSelection:
    def test_dominance_respected_in_cut(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            keys = []
            for i in range(n):
                k = int(rng.integers(2, 5))
                tau = int(rng.integers(1, 8))
                b = int(rng.integers(0, k * tau + 4))
                keys.append(worker(i, tau, b, k, wi=float(rng.uniform(0, 2))))
            m = int(rng.integers(1, n + 1))
            chosen = select(PolicyKind.STLW_WI, keys, m).selected
            dag = build_stlw_dag([k for k in keys if k.has_work])
            for src, dst in dag.edges():
                if dst in chosen:
                    assert src in chosen

    def test_no_edges_matches_wi_selection(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            # same slack and backlog everywhere: no strict dominance possible
            keys = [
                worker(i, 4, 5, 2, wi=float(rng.uniform(-1, 2))) for i in range(n)
            ]
            if rng.random() < 0.5:
                keys[-1] = idler(n - 1)
            m = int(rng.integers(1, n + 1))
            assert (
                select(PolicyKind.STLW_WI, keys, m).selected
                == select(PolicyKind.WI, keys, m).selected
            )

    # priority (index) order 0, 1, 2, 3; the one dominance edge is 3 -> 2
    SLOT = [
        dag_key(0, slack=1, backlog=5, wi=3.0),
        dag_key(1, slack=5, backlog=1, wi=2.0),
        dag_key(2, slack=4, backlog=4, wi=1.0),
        dag_key(3, slack=3, backlog=3, wi=0.5),
    ]

    def _ranked_counting_pops(self, monkeypatch, m):
        pops = []

        def heappop(heap):
            pops.append(heap[0])
            return heapq.heappop(heap)

        spy = SimpleNamespace(heappop=heappop, heappush=heapq.heappush)
        monkeypatch.setattr(policies, "heapq", spy)
        got = policies.ranked(PolicyKind.STLW_WI, as_slot_keys(self.SLOT), m).tolist()
        return got, pops

    def test_dominated_only_below_cut_is_priority_prefix(self, monkeypatch):
        assert build_stlw_dag(self.SLOT).edges() == [(3, 2)]
        got, pops = self._ranked_counting_pops(monkeypatch, 2)
        assert got == [0, 1] == ranked(self.SLOT, PolicyKind.STLW_WI)[:2]
        assert pops == []  # no heap walk

    def test_dominated_inside_cut_walks_the_heap(self, monkeypatch):
        got, pops = self._ranked_counting_pops(monkeypatch, 3)
        assert got == [0, 1, 3] == ranked(self.SLOT, PolicyKind.STLW_WI)[:3]
        assert pops == [0, 1, 3]  # priority positions, here the user ids


@st.composite
def slot_states(draw):
    """Random slots: idle users, zero-backlog tasks, lost causes, and tied or
    negative indices and gains drawn from small value sets."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    scores = st.sampled_from([-1.5, -0.25, -0.0, 0.0, 0.25, 0.5, 2.0])
    keys = []
    for i in range(n):
        if draw(st.integers(0, 4)) == 0:
            keys.append(idler(i))
            continue
        k = draw(st.integers(1, 5))
        tau = draw(st.integers(1, 8))
        b = draw(st.integers(0, k * tau + 4))
        keys.append(worker(i, tau, b, k, wi=draw(scores), gain=draw(scores)))
    return keys, m


class TestMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(slot_states())
    def test_array_selection_is_oracle_prefix(self, state):
        keys, m = state
        arrays = as_slot_keys(keys)
        for kind in PolicyKind:
            got = policies.ranked(kind, arrays, m).tolist()
            assert len(got) == m and len(set(got)) == m
            assert all(0 <= u < len(keys) for u in got)
            assert got == ranked(keys, kind)[:m], kind
            assert policies.select(kind, arrays, m).selected == frozenset(got)

    @settings(max_examples=200, deadline=None)
    @given(slot_states(), st.data())
    def test_each_ranking_reads_only_its_own_fields(self, state, data):
        keys, m = state
        arrays = as_slot_keys(keys)
        before = {kind: policies.ranked(kind, arrays, m).tolist() for kind in PolicyKind}
        readers = {"gain": {PolicyKind.GREEDY}, "wi": {PolicyKind.WI, PolicyKind.STLW_WI}}
        values = st.lists(st.floats(-10.0, 10.0), min_size=len(keys), max_size=len(keys))
        for field, kinds in readers.items():
            other = arrays.copy()
            other[field] = data.draw(values, label=field)
            for kind in PolicyKind:
                if kind not in kinds:
                    assert policies.ranked(kind, other, m).tolist() == before[kind], (field, kind)

    def test_exact_slack_beyond_int64_lcm(self):
        # capacities whose lcm exceeds 2**31 take the Python-integer path
        caps = [29, 31, 37, 41, 43, 47, 53]
        keys = [worker(i, 9 - i, 5 + 3 * i, k) for i, k in enumerate(caps)]
        for kind in (PolicyKind.LST, PolicyKind.STLW_WI):
            got = policies.ranked(kind, as_slot_keys(keys), 4).tolist()
            assert got == ranked(keys, kind)[:4]
