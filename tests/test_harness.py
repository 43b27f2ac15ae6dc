"""Harness tests: scenario validation, episode determinism, paired
randomness, the episode against the reference dynamics, the raw-stream
draws against numpy's scalar calls, the shared task timeline and
measurement noise against a slot-by-slot replay, experiment sweeps, and
CSV round-trips."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from dynamics_oracles import (
    IDLE,
    StepWorld,
    SystemState,
    TaskState,
    channel_saving,
    draw_profiles,
    replay_noise,
    replay_timeline,
    step_system,
    task_generator,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from whittle_oracles import arm_groups_reference

from edgebandit import harness, mec
from edgebandit.config import (
    PRESETS,
    ConfigError,
    ExperimentCell,
    SimConfig,
    apply_overrides,
    parse_config_file,
    preset_cells,
)
from edgebandit.harness import (
    RunRecord,
    _RawDraws,
    _draw_noise,
    _draw_timeline,
    _run_episode_full,
    _size_matrix,
    _stream,
    build_arm_chains,
    build_scenario,
    compute_relaxed_bound,
    emit_csv,
    read_csv,
    run_episode,
    run_experiment,
)
from edgebandit.learning import (
    BayesWhittleEstimator,
    MleWhittleEstimator,
    NoiseModel,
    PriorSwapWhittleEstimator,
    observe,
)
from edgebandit.whittle import _arm_groups

FAST = {
    "num_users": 12,
    "num_servers": 4,
    "horizon": 60,
    "energy_model": "quadratic",
    "slot_length": 0.01,
    "task_size_rule": "offload-window",
}


USER_ARRAYS = ("capacities", "e_locals", "noise_vars", "path_ratios", "tx_powers", "subtask_bits")


def cfg(**kw) -> SimConfig:
    return apply_overrides(SimConfig(), {**FAST, **kw})


class TestScenario:
    def test_deterministic_profiles(self):
        a = build_scenario(cfg(), 3)
        harness._last_drawn.clear()
        b = build_scenario(cfg(), 3)
        assert a is not b
        for field in USER_ARRAYS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field), strict=True)

    def test_profiles_vary_by_seed(self):
        a = build_scenario(cfg(), 0)
        b = build_scenario(cfg(), 1)
        for field in ("noise_vars", "path_ratios", "tx_powers"):
            assert not np.array_equal(getattr(a, field), getattr(b, field)), field

    @pytest.mark.parametrize("preset,seed", [("fig6", 0), ("fig6", 1), ("fig3a", 0), ("fig4", 2)])
    def test_user_arrays_match_profile_replay(self, preset, seed):
        # the scenario stream drawn call by call into profiles, pushed through mec
        c = preset_cells(preset)[0].config
        scn = build_scenario(c, seed)
        profiles, noise_vars = draw_profiles(c, seed)
        expected = {
            "capacities": [mec.offload_capacity(p, scn.env) for p in profiles],
            "e_locals": [mec.local_energy_per_subtask(p, c.energy_model) for p in profiles],
            "noise_vars": noise_vars,
            "tx_powers": [p.tx_power for p in profiles],
            "subtask_bits": [p.subtask_bits for p in profiles],
        }
        for field, values in expected.items():
            arr = getattr(scn, field)
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, np.array(values, dtype=arr.dtype), strict=True)
        # channel_gain at unit fading is pathloss_const times the ratio, exactly
        gains = [mec.channel_gain(scn.env, p.distance) for p in profiles]
        np.testing.assert_array_equal(scn.env.pathloss_const * scn.path_ratios, gains, strict=True)

    def test_validation_collects_all_errors(self):
        bad = dataclasses.replace(cfg(), num_servers=99, discount=0.0, policy="rr")
        with pytest.raises(ConfigError) as err:
            build_scenario(bad, 0)
        msg = str(err.value)
        assert "num_servers" in msg and "discount" in msg and "policy" in msg

    def test_arrival_prob_error_reported_once(self):
        # the arrival probability is one config field, not a per-user one
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg(num_users=5, arrival_prob=1.5), 0)
        assert str(err.value).count("arrival_prob") == 1

    def test_discount_one_rejected(self):
        # the index's saving shift and the bound both need discount < 1
        assert "discount must lie in (0, 1)" in cfg(discount=1.0).validation_errors()
        with pytest.raises(ConfigError, match="discount"):
            build_scenario(cfg(discount=1.0), 0)
        assert cfg(discount=0.999).validation_errors() == []

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("ref_distance", {"ref_distance": -1.0}),
            # a negative base to a fractional power is complex in Python
            ("ref_distance", {"ref_distance": -1.0, "pathloss_exp": 2.5}),
            ("server_freq", {"server_freq": 0.0}),
        ],
        ids=["ref_distance", "ref_distance-fractional-exponent", "server_freq"],
    )
    def test_channel_environment_validated(self, field, overrides):
        with pytest.raises(ConfigError, match=field):
            build_scenario(cfg(**overrides), 0)

    @pytest.mark.parametrize(
        "field,overrides",
        [
            # a negative burn-in shortens the chain below the samples it averages
            ("mh_burn_in", {"estimator": "psbl", "mh_burn_in": -5}),
            # a zero proposal scale never moves the chain
            ("mh_proposal_factor", {"estimator": "psbl", "mh_proposal_factor": 0.0}),
            ("mh_proposal_factor", {"estimator": "psbl", "mh_proposal_factor": -1.0}),
            ("bound_esav_samples", {"bound_esav_samples": 0}),
            ("truth_spread", {"energy_truth": "gaussian", "truth_spread": -1.0}),
            ("truth_spread", {"energy_truth": "laplace", "truth_spread": -1.0}),
            # psbl reads it as its true prior's scale under channel truth too
            ("truth_spread", {"estimator": "psbl", "truth_spread": -1.0}),
        ],
        ids=["mh_burn_in", "mh_proposal_factor-zero", "mh_proposal_factor-negative", "bound_esav_samples",
             "truth_spread-gaussian", "truth_spread-laplace", "truth_spread-psbl-channel"],
    )
    def test_learner_and_bound_settings_validated(self, field, overrides):
        c = cfg(**overrides)
        assert [e for e in c.validation_errors() if field in e]
        with pytest.raises(ConfigError, match=field):
            build_scenario(c, 0)

    def test_bound_sample_count_rejected_before_the_bound(self):
        # without the check numpy fails on an empty saving table mid-bound
        with pytest.raises(ConfigError, match="bound_esav_samples"):
            compute_relaxed_bound(cfg(bound_esav_samples=0), 0)

    @pytest.mark.parametrize("truth", ["gaussian", "laplace"])
    def test_zero_spread_rejected_before_any_slot_or_bound(self, truth, monkeypatch):
        # a zero scale made the bound NaN through norm.ppf(q, scale=0) and
        # failed psbl cells mid-episode in the laplace prior's scale check
        def ran(*args, **kwargs):
            raise AssertionError("ran past validation")

        monkeypatch.setattr(harness, "step", ran)
        monkeypatch.setattr(harness, "relaxed_upper_bound", ran)
        c = cfg(energy_truth=truth, estimator="psbl", truth_spread=0.0)
        with pytest.raises(ConfigError, match="truth_spread must be > 0"):
            run_episode(c, 0)
        with pytest.raises(ConfigError, match="truth_spread must be > 0"):
            compute_relaxed_bound(c, 0)

    def test_spread_unchecked_under_channel_truth(self):
        # the channel model draws savings from fading and never reads it
        assert cfg(truth_spread=-1.0).validation_errors() == []

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_valid(self, preset):
        for cell in preset_cells(preset):
            assert cell.config.validation_errors() == []

    def test_slot_length_violation_is_config_error(self):
        with pytest.raises(ConfigError, match="transmit time"):
            build_scenario(cfg(slot_length=1e-6), 0)

    def test_zero_rate_at_unit_fading_reported_per_user(self):
        # at -400 dBm the SNR rounds to 1, so no user has any rate
        c = cfg(num_users=3, num_servers=1, tx_power_low_dbm=-400.0, tx_power_high_dbm=-400.0)
        with pytest.raises(ConfigError) as err:
            build_scenario(c, 0)
        assert str(err.value) == "; ".join(f"user {i}: zero-rate channel at unit fading" for i in range(3))

    def test_zero_rate_offload_raises(self):
        # the timeline and the bound both compute their savings through _offload
        c = cfg()
        scn = build_scenario(c, 0)
        users = np.arange(c.num_users)
        with pytest.raises(ValueError, match="^zero-rate channel$"):
            harness._offload(c, scn, users, np.zeros(users.size))

    def test_defaults_run(self):
        rec = run_episode(SimConfig(), 0)
        assert rec.num_users == 100 and rec.policy == "wi"


class TestEpisode:
    def test_bit_identical_rerun(self):
        c = cfg()
        assert run_episode(c, 5) == run_episode(c, 5)

    def test_no_arrivals_zero_metrics(self):
        rec = run_episode(cfg(arrival_prob=0.0), 0)
        assert rec.discounted_reward == 0.0
        assert rec.completion_ratio == 0.0
        assert rec.energy_saving == 0.0

    def test_policy_cannot_perturb_environment(self):
        # same seed, different policies: identical task timelines, so the
        # number of deadline events matches exactly
        infos = {}
        for policy in ("wi", "edf", "lst", "greedy", "stlw-wi"):
            _, info = _run_episode_full(cfg(policy=policy), 7)
            infos[policy] = info.deadline_tasks
        assert len(set(infos.values())) == 1

    def test_events_partition_deadlines(self):
        _, info = _run_episode_full(cfg(), 2)
        assert info.completed_tasks + info.violated_tasks == info.deadline_tasks
        assert info.deadline_tasks > 0

    def test_saturated_service_completes_everything(self):
        # one server per user and savings always positive: every task is
        # served at full rate every slot, and the offload-window rule makes
        # every task schedulable, so nothing can miss its deadline
        c = cfg(
            num_users=6,
            num_servers=6,
            energy_truth="gaussian",
            truth_location=5.0,
            truth_spread=1e-6,
        )
        rec, info = _run_episode_full(c, 1)
        assert info.deadline_tasks > 0
        assert rec.completion_ratio == 1.0

    def test_learning_episode_runs_all_estimators(self):
        for est in ("mle", "bl", "psbl"):
            c = cfg(estimator=est, energy_truth="gaussian", fading_period_slots=20)
            rec = run_episode(c, 0)
            assert rec.policy == f"{est}-wi"

    def test_estimate_trace_dump(self, tmp_path):
        path = tmp_path / "trace-{seed}.csv"
        c = cfg(
            estimator="bl",
            energy_truth="gaussian",
            fading_period_slots=20,
            estimate_trace_path=str(path),
        )
        run_episode(c, 3)
        out = tmp_path / "trace-3.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == "slot,user,estimate,true_saving"
        assert len(lines) == 1 + c.horizon * c.num_users
        slot, user, est, truth = lines[1].split(",")
        assert (slot, user) == ("0", "0")
        float(est), float(truth)

    def test_common_random_numbers_reduce_variance(self):
        seeds = range(12)
        wi = np.array([run_episode(cfg(policy="wi"), s).discounted_reward for s in seeds])
        edf = np.array([run_episode(cfg(policy="edf"), s).discounted_reward for s in seeds])
        paired_var = np.var(wi - edf, ddof=1)
        unpaired_var = np.var(wi, ddof=1) + np.var(edf, ddof=1)
        assert paired_var < unpaired_var

    def test_tail_bound_reported(self):
        _, info = _run_episode_full(cfg(), 0)
        expected = info.max_abs_slot_reward * 0.99**60 / 0.01
        assert info.reward_tail_bound == pytest.approx(expected)


def record_episode(c: SimConfig, seed: int):
    """Run one episode, recording each slot's (tau, backlog, action) at the
    harness's call to ``select``, and check at each call that the reused key
    array keeps its constant columns."""
    slots = []
    real = harness.select
    caps = build_scenario(c, seed).capacities

    def recording(kind, keys, num_servers):
        assert isinstance(keys, np.recarray)
        np.testing.assert_array_equal(keys.user, np.arange(c.num_users), strict=True)
        np.testing.assert_array_equal(keys.capacity, caps, strict=True)
        action = real(kind, keys, num_servers)
        slots.append((keys.tau.copy(), keys.backlog.copy(), action))
        return action

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "select", recording)
        _, info = _run_episode_full(c, seed)
    return slots, info


def replay_events(c: SimConfig, seed: int, slots) -> list:
    """Step the reference dynamics along the recorded actions, on fresh
    copies of the episode's task streams; check the recorded state at every
    slot and return the deadline events."""
    caps = build_scenario(c, seed).capacities
    n = c.num_users
    world = StepWorld(
        capacities=caps.tolist(),
        e_savings=[0.0] * n,  # states and events do not depend on the savings
        gens=[task_generator(c, int(k)) for k in caps],
        rngs=[_stream(c.master_seed, seed, 1, i) for i in range(n)],
        penalty=c.penalty_fn(),
        num_servers=c.num_servers,
    )
    state = SystemState((IDLE,) * n, slot=0)
    events = []
    for tau, backlog, action in slots:
        assert state.per_user == tuple(map(TaskState, tau.tolist(), backlog.tolist()))
        state, _, slot_events = step_system(state, action, world)
        events += slot_events
    return events


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 12))
    return cfg(
        num_users=n,
        num_servers=draw(st.integers(1, n)),
        horizon=draw(st.integers(1, 30)),
        policy=draw(st.sampled_from(["wi", "stlw-wi", "edf", "lst", "greedy"])),
        estimator=draw(st.sampled_from(["known", "mle", "bl", "psbl"])),
        penalty=draw(st.sampled_from(["experiment", "theory"])),
        penalty_alpha=draw(st.sampled_from([0.001, 0.5, 5.0])),
        arrival_prob=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        task_size_rule=draw(st.sampled_from(["uniform", "server-feasible", "offload-window"])),
        fading_period_slots=draw(st.sampled_from([0, 5])),
    )


class TestEpisodeReplay:
    @pytest.mark.parametrize("policy", ["wi", "stlw-wi", "edf", "lst", "greedy"])
    def test_reference_dynamics_replay_episode(self, policy):
        c = cfg(policy=policy)
        slots, info = record_episode(c, 4)
        assert len(slots) == c.horizon
        assert len(replay_events(c, 4, slots)) == info.deadline_tasks > 0

    @given(small_configs(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_episode_properties(self, c, seed):
        slots, info = record_episode(c, seed)
        for _, _, action in slots:
            # a set of M in-range users: M distinct users
            assert len(action.selected) == c.num_servers
            assert all(0 <= u < c.num_users for u in action.selected)
        events = replay_events(c, seed, slots)
        assert info.deadline_tasks == sum(int((tau == 1).sum()) for tau, _, _ in slots)
        assert info.deadline_tasks == len(events)
        assert info.completed_tasks == sum(e.completed for e in events)


def record_observations(c: SimConfig, seed: int) -> list:
    """Run one episode, recording ``(slot, users, observations)`` at every
    learner update; the slot is counted at the harness's calls to ``select``."""
    calls = []
    slots = []
    real_select = harness.select

    def counting(kind, keys, num_servers):
        slots.append(None)
        return real_select(kind, keys, num_servers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "select", counting)
        for cls in (MleWhittleEstimator, BayesWhittleEstimator, PriorSwapWhittleEstimator):

            def recording(self, users, observations, *rest, real=cls.update):
                calls.append((len(slots) - 1, users.copy(), observations.copy()))
                return real(self, users, observations, *rest)

            mp.setattr(cls, "update", recording)
        _run_episode_full(c, seed)
    return calls


def true_savings(c: SimConfig, scn, seed: int) -> np.ndarray:
    """Every user's true saving in every slot, from the slot-by-slot replay;
    with per-task fading a saving holds from the slot after its arrival."""
    events, blocks = replay_timeline(c, scn, seed)
    period = c.fading_period_slots
    out = np.zeros((c.horizon, c.num_users))
    if period:
        for t in range(c.horizon):
            out[t] = blocks[t // period]
        return out
    for t, i, _, _, saving in events:  # in slot order: a later task overrides
        out[t + 1 :, i] = saving
    return out


def assert_observations_replay(c: SimConfig, seed: int) -> int:
    """Check every recorded observation against ``observe`` on fresh noise
    streams, drawn in update order with users ascending, and return how
    many there were."""
    scn = build_scenario(c, seed)
    truth = true_savings(c, scn, seed)
    rngs = [_stream(c.master_seed, seed, 3, i) for i in range(c.num_users)]
    count = 0
    for t, users, obs in record_observations(c, seed):
        assert users.tolist() == sorted(set(users.tolist()))
        expected = [
            observe(NoiseModel(float(truth[t, i]), float(scn.noise_vars[i])), rngs[i]) for i in users
        ]
        assert obs.tolist() == expected
        count += len(expected)
    return count


LEARNERS = [("mle", "mean"), ("bl", "mean"), ("bl", "sample"), ("psbl", "mean")]


class TestObservationReplay:
    @pytest.mark.parametrize("fading", [0, 5])
    @pytest.mark.parametrize("estimator,bl_estimate", LEARNERS)
    def test_observations_match_scalar_draws(self, estimator, bl_estimate, fading):
        c = cfg(estimator=estimator, bl_estimate=bl_estimate, fading_period_slots=fading)
        assert assert_observations_replay(c, 6) > 0

    @given(small_configs(), st.sampled_from(LEARNERS), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_observations_match_scalar_draws_on_random_configs(self, c, learner, seed):
        estimator, bl_estimate = learner
        c = dataclasses.replace(c, estimator=estimator, bl_estimate=bl_estimate)
        assert_observations_replay(c, seed)


def timeline_events(timeline) -> list:
    """The timeline's arrivals as ``(slot, user, duration, size)`` rows."""
    starts = timeline.starts
    return [
        (t, int(timeline.user[r]), int(timeline.duration[r]), int(timeline.size[r]))
        for t in range(starts.size - 1)
        for r in range(starts[t], starts[t + 1])
    ]


def assert_timelines_equal(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y, strict=True)


# a value other than the default for every field the timeline key drops
POLICY_SIDE = {
    "policy": "edf",
    "estimator": "psbl",
    "num_servers": 2,
    "penalty": "theory",
    "penalty_alpha": 3.0,
    "discount": 0.9,
    "mh_samples": 3,
    "mh_burn_in": 2,
    "mh_proposal_factor": 0.5,
    "nig_variant": "paper",
    "bl_estimate": "sample",
    "estimate_trace_path": "trace-{seed}.csv",
    "bound_esav_samples": 4,
    "replications": 3,
}


def scalar_pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class CountingBits:
    """A PCG64 that counts how often its raw outputs are read."""

    def __init__(self, seed: int):
        self.bits = np.random.PCG64(seed)
        self.reads = 0

    def random_raw(self, size):
        self.reads += 1
        return self.bits.random_raw(size)


# 0 takes no draw; 2**31 + 7 rejects about half of its 32-bit draws
RANGES = [0, 1, 9, 2**31 + 7, 2**32 - 2]


def one(x: int) -> np.ndarray:
    return np.array([x], dtype=np.int64)


class TestRawDraws:
    """The raw-stream draws against numpy's scalar calls on PCG64."""

    @given(
        n=st.integers(1, 4),
        width=st.sampled_from([1, 2, 3, 64]),
        calls=st.lists(
            st.tuples(
                st.sampled_from([None, *RANGES]),  # None: random()
                st.integers(-3, 3),
                st.lists(st.booleans(), min_size=4, max_size=4),
            ),
            max_size=80,
        ),
        seed=st.integers(0, 1000),
    )
    @example(n=1, width=1, calls=[(2**31 + 7, 0, [True] * 4)] * 6, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_calls_match_generator(self, n, width, calls, seed):
        gens = [scalar_pcg(seed * 10 + i) for i in range(n)]
        draws = _RawDraws([np.random.PCG64(seed * 10 + i) for i in range(n)], width=width)
        for r, lo, mask in calls:
            users = np.flatnonzero(mask[:n])
            if r is None:
                expected = [gens[i].random() for i in users]
                got = draws.random(users)
            else:
                expected = [gens[i].integers(lo, lo + r + 1) for i in users]
                got = draws.integers(users, np.full(users.size, lo), np.full(users.size, r))
            assert got.tolist() == expected

    def test_empty_range_takes_nothing(self):
        draws = _RawDraws([np.random.PCG64(5)])
        users = one(0)
        draws.integers(users, one(1), one(9))  # holds the high half
        pos, half = draws.pos.copy(), draws.half.copy()
        assert draws.integers(users, one(4), one(0)).tolist() == [4]
        np.testing.assert_array_equal(draws.pos, pos)
        np.testing.assert_array_equal(draws.half, half)
        assert draws.has_half[0]

    def test_high_half_carried_across_calls_and_past_random(self):
        gen = scalar_pcg(11)
        first_raw = int(np.random.PCG64(11).random_raw())
        draws = _RawDraws([np.random.PCG64(11)])
        users = one(0)
        assert draws.integers(users, one(1), one(9)).tolist() == [gen.integers(1, 11)]
        assert draws.random(users).tolist() == [gen.random()]
        pos = draws.pos.copy()
        # Lemire on the high half of the first raw, read without a new raw
        carried = draws.integers(users, one(1), one(9)).tolist()
        assert carried == [gen.integers(1, 11)] == [1 + ((first_raw >> 32) * 10 >> 32)]
        np.testing.assert_array_equal(draws.pos, pos)
        assert not draws.has_half[0]
        assert draws.integers(users, one(0), one(2**31 + 7)).tolist() == [gen.integers(0, 2**31 + 8)]

    @pytest.mark.parametrize("width", [1, 64])
    def test_refill_inside_rejection_run(self, width):
        """Frequent rejection: a call often needs more than one 32-bit draw,
        and with one raw per refill its second fresh raw is a refill inside
        the rejection loop.  The 64-wide buffer runs out several times."""
        bits = [CountingBits(seed) for seed in range(3)]
        gens = [scalar_pcg(seed) for seed in range(3)]
        draws = _RawDraws(bits, width=width)
        users = np.arange(3)
        refills_inside = 0
        for _ in range(300):
            before = [b.reads for b in bits]
            got = draws.integers(users, np.zeros(3, dtype=np.int64), np.full(3, 2**31 + 7))
            assert got.tolist() == [g.integers(0, 2**31 + 8) for g in gens]
            refills_inside += sum(b.reads - r >= 2 for b, r in zip(bits, before))
        if width == 1:
            assert refills_inside > 0
        else:
            assert min(b.reads for b in bits) >= 4

    def test_wide_ranges_raise(self):
        draws = _RawDraws([np.random.PCG64(0)])
        with pytest.raises(ValueError, match="2\\*\\*32 - 1"):
            draws.integers(one(0), one(0), one(2**32 - 1))


class TestTimeline:
    @given(
        n=st.integers(1, 6),
        horizon=st.integers(1, 100),
        truth=st.sampled_from(["channel", "gaussian", "laplace"]),
        size_rule=st.sampled_from(["uniform", "server-feasible", "offload-window"]),
        max_size=st.sampled_from([30, 1]),  # 1: every window holds a single size
        max_duration=st.sampled_from([1, 3, 10]),  # 1: no duration draw
        fading=st.sampled_from([0, 5]),
        arrival_prob=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 1000),
    )
    @example(
        n=3, horizon=1, truth="channel", size_rule="uniform",
        max_size=30, max_duration=10, fading=0, arrival_prob=1.0, seed=0,
    )
    @example(
        n=3, horizon=1, truth="gaussian", size_rule="uniform",
        max_size=30, max_duration=10, fading=5, arrival_prob=0.3, seed=0,
    )
    @example(  # D = 1: no duration draw
        n=4, horizon=40, truth="channel", size_rule="offload-window",
        max_size=30, max_duration=1, fading=0, arrival_prob=0.3, seed=1,
    )
    @example(  # D = 3
        n=4, horizon=40, truth="laplace", size_rule="server-feasible",
        max_size=30, max_duration=3, fading=5, arrival_prob=0.3, seed=2,
    )
    @example(  # no size draw: the duration draw's high half carries to the next task
        n=4, horizon=40, truth="channel", size_rule="offload-window",
        max_size=1, max_duration=3, fading=0, arrival_prob=1.0, seed=3,
    )
    @example(  # over 64 raw outputs per user: the buffer is refilled
        n=5, horizon=100, truth="channel", size_rule="offload-window",
        max_size=30, max_duration=3, fading=0, arrival_prob=1.0, seed=4,
    )
    @example(  # D = 10 at the longest horizon
        n=5, horizon=100, truth="gaussian", size_rule="uniform",
        max_size=30, max_duration=10, fading=5, arrival_prob=1.0, seed=5,
    )
    @example(
        n=5, horizon=100, truth="laplace", size_rule="uniform",
        max_size=30, max_duration=1, fading=5, arrival_prob=1.0, seed=6,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_slot_by_slot_replay(
        self, n, horizon, truth, size_rule, max_size, max_duration, fading, arrival_prob, seed
    ):
        c = cfg(
            num_users=n,
            num_servers=1,
            horizon=horizon,
            energy_truth=truth,
            task_size_rule=size_rule,
            max_task_size=max_size,
            max_task_duration=max_duration,
            fading_period_slots=fading,
            arrival_prob=arrival_prob,
        )
        scn = build_scenario(c, seed)
        timeline = _draw_timeline(c, scn, seed)
        events, blocks = replay_timeline(c, scn, seed)
        assert timeline_events(timeline) == [e[:4] for e in events]
        savings = blocks if fading else [e[4] for e in events]
        np.testing.assert_array_equal(timeline.saving, np.array(savings, dtype=float), strict=True)

    @given(
        n=st.integers(1, 6),
        horizon=st.integers(1, 25),
        master_seed=st.integers(0, 5),
        seed=st.integers(0, 1000),
        k=st.integers(0, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_noise_matches_scalar_draws(self, n, horizon, master_seed, seed, k):
        c = cfg(num_users=n, num_servers=1, horizon=horizon, master_seed=master_seed)
        noise = _draw_noise(c, seed)
        assert noise.shape == (n, horizon)
        k = min(k, horizon)
        for i in range(n):
            expected = replay_noise(c, seed, i, k)
            np.testing.assert_array_equal(noise[i, :k], expected, strict=True)

    def test_noise_drawn_only_for_learners(self, monkeypatch):
        c = cfg()
        harness._last_drawn.clear()

        def no_draw(*args):
            raise AssertionError("a known-saving cell drew the noise")

        monkeypatch.setattr(harness, "_draw_noise", no_draw)
        for p in ("wi", "edf"):
            run_episode(dataclasses.replace(c, policy=p), 5)
        (drawn,) = harness._last_drawn.values()
        assert drawn.noise is None
        monkeypatch.setattr(harness, "_draw_noise", _draw_noise)
        run_episode(dataclasses.replace(c, estimator="mle"), 5)
        assert not drawn.noise.flags.writeable
        np.testing.assert_array_equal(drawn.noise, _draw_noise(c, 5), strict=True)

    def test_policy_side_fields_leave_timeline_equal(self):
        assert set(POLICY_SIDE) == set(harness._POLICY_SIDE_FIELDS)
        c = cfg()
        base = _draw_timeline(c, build_scenario(c, 3), 3)
        for field, value in POLICY_SIDE.items():
            other = dataclasses.replace(c, **{field: value})
            assert getattr(other, field) != getattr(c, field)
            assert harness._timeline_key(other, 3) == harness._timeline_key(c, 3)
            assert_timelines_equal(_draw_timeline(other, build_scenario(other, 3), 3), base)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arrival_prob", 0.3),
            ("num_users", 5),
            ("master_seed", 7),
            ("fading_period_slots", 5),
            ("truth_spread", 0.2),
            ("horizon", 20),
        ],
    )
    def test_scenario_fields_change_key(self, field, value):
        c = cfg()
        other = dataclasses.replace(c, **{field: value})
        assert harness._timeline_key(other, 3) != harness._timeline_key(c, 3)

    def test_seed_changes_key(self):
        assert harness._timeline_key(cfg(), 3) != harness._timeline_key(cfg(), 4)

    def test_warm_cache_matches_cold(self, monkeypatch):
        c = cfg(estimator="mle")
        cold = {}
        for p in ("wi", "edf"):
            harness._last_drawn.clear()
            cold[p] = run_episode(dataclasses.replace(c, policy=p), 5)
        (drawn,) = harness._last_drawn.values()
        timeline = drawn.timeline
        for arr in timeline:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            timeline.duration[0] = 1

        def no_draw(*args):
            raise AssertionError("the timeline was drawn again")

        monkeypatch.setattr(harness, "_draw_timeline", no_draw)
        for p, record in cold.items():
            assert run_episode(dataclasses.replace(c, policy=p), 5) == record

    def test_scenario_drawn_once_per_key(self, monkeypatch):
        c = cfg(estimator="mle")
        cold = {}
        for m in (3, 4):
            harness._last_drawn.clear()
            cold[m] = run_episode(dataclasses.replace(c, num_servers=m), 5)
        scn = build_scenario(c, 5)
        for arr in (scn.capacities, scn.e_locals, scn.noise_vars):
            assert not arr.flags.writeable

        def no_draw(*args):
            raise AssertionError("the profiles were drawn again")

        monkeypatch.setattr(harness.mec, "offload_capacity", no_draw)
        monkeypatch.setattr(harness, "_draw_timeline", no_draw)
        assert build_scenario(dataclasses.replace(c, policy="edf", penalty_alpha=2.0), 5) is scn
        for m, record in cold.items():
            assert run_episode(dataclasses.replace(c, num_servers=m), 5) == record

    def test_cached_scenario_still_validates_policy_side_fields(self):
        c = cfg()
        build_scenario(c, 5)
        with pytest.raises(ConfigError, match="num_servers"):
            build_scenario(dataclasses.replace(c, num_servers=c.num_users + 1), 5)
        with pytest.raises(ConfigError, match="mh_burn_in"):
            build_scenario(dataclasses.replace(c, mh_burn_in=-1), 5)

    def test_invalid_scenario_not_kept(self):
        c = cfg(slot_length=1e-6)
        for _ in range(2):
            with pytest.raises(ConfigError, match="transmit time"):
                build_scenario(c, 5)
        assert harness._timeline_key(c, 5) not in harness._last_drawn


class TestRelaxedBoundIntegration:
    def test_bound_dominates_mean_rewards(self):
        # the bound caps the expected reward; at this tiny scale a single
        # realization can fluctuate past it, so compare seed averages
        c = cfg()
        seeds = range(8)
        bounds = np.array([compute_relaxed_bound(c, s) for s in seeds])
        for policy in ("wi", "edf", "lst", "greedy"):
            rewards = np.array(
                [run_episode(dataclasses.replace(c, policy=policy), s).discounted_reward for s in seeds]
            )
            assert rewards.mean() <= bounds.mean()

    def test_infinite_horizon_variant_exposed(self):
        c = cfg()
        finite = compute_relaxed_bound(c, 0)
        infinite = compute_relaxed_bound(c, 0, horizon=None)
        assert finite != infinite

    @pytest.mark.parametrize("preset", ["fig3a", "fig6", "fig8"])
    def test_size_tables_shared_per_capacity(self, preset):
        c = preset_cells(preset)[0].config
        chains = build_arm_chains(c, 0)
        tables = {id(a.size_probs): a.size_probs for a in chains}
        capacities = sorted({a.capacity for a in chains})
        assert len(tables) == len(capacities) > 1
        for k in capacities:
            shared = {id(a.size_probs) for a in chains if a.capacity == k}
            assert len(shared) == 1
            table = tables[shared.pop()]
            assert not table.flags.writeable
            assert np.array_equal(table, _size_matrix(c, k))

    @pytest.mark.parametrize("preset", ["fig3a", "fig6", "fig8"])
    def test_arm_groups_match_reference_grouping(self, preset):
        for cell in preset_cells(preset):
            chains = build_arm_chains(cell.config, 0)
            laws = _arm_groups(chains, cell.config.discount)
            reference = arm_groups_reference(chains)
            assert [g.e_work.shape[1] // g.n_samples for law in laws for g in law.groups] == [
                len(members) for members in reference.values()
            ]

    @pytest.mark.parametrize("preset,seed", [("fig6", 0), ("fig6", 1), ("fig3a", 0), ("fig3a", 1)])
    def test_channel_points_are_mecs_chain(self, preset, seed):
        # one saving formula: the bound's points are the timeline's savings
        # at the fading quantiles, bit for bit
        c = preset_cells(preset)[0].config
        chains = build_arm_chains(c, seed)
        n_q = c.bound_esav_samples
        kappa = -np.log1p(-(np.arange(n_q) + 0.5) / n_q)
        env = build_scenario(c, seed).env
        profiles, _ = draw_profiles(c, seed)
        for chain, profile in zip(chains, profiles, strict=True):
            expected = [channel_saving(c, env, profile, k) for k in kappa.tolist()]
            np.testing.assert_array_equal(chain.esav_values, expected, strict=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"truth_location": 0.0, "truth_spread": 1.0},
            {"truth_location": -3.5, "truth_spread": 7.25, "bound_esav_samples": 33},
        ],
        ids=["fig7", "standard", "shifted-33"],
    )
    def test_gaussian_points_near_scipy(self, overrides):
        # the standard library's inverse CDF stands in for scipy's norm.ppf:
        # within 2 ulps on fig7's points, and elsewhere within a few ulps of
        # the terms of loc + scale * z, which cancel when z is near -loc / scale
        stats = pytest.importorskip("scipy.stats")
        c = apply_overrides(preset_cells("fig7")[0].config, overrides)
        n_q, loc, scale = c.bound_esav_samples, c.truth_location, np.sqrt(c.truth_spread)
        z = stats.norm.ppf((np.arange(n_q) + 0.5) / n_q)
        expected = stats.norm.ppf((np.arange(n_q) + 0.5) / n_q, loc=loc, scale=scale)
        chains = build_arm_chains(c, 0)
        points = chains[0].esav_values
        if not overrides:
            np.testing.assert_array_max_ulp(points, expected, maxulp=2)
        assert (np.abs(points - expected) <= 4 * np.spacing(abs(loc) + scale * np.abs(z))).all()
        for chain in chains:
            np.testing.assert_array_equal(chain.esav_values, points, strict=True)


class TestRunExperiment:
    def cells(self):
        return [
            ExperimentCell(name="wi", config=cfg(policy="wi")),
            ExperimentCell(name="edf", config=cfg(policy="edf")),
        ]

    def test_records_and_summaries(self):
        result = run_experiment(self.cells(), seeds=[0, 1, 2])
        assert len(result.records) == 6
        assert {s.cell for s in result.summaries} == {"wi", "edf"}
        assert result.ok

    def test_cells_differing_only_in_arrivals_stay_apart(self):
        # the records of these cells carry identical (policy, N, M, alpha)
        base = preset_cells("fig6", policy_filter="wi")[0]
        cells = [
            ExperimentCell(name=f"{base.name}-q{q}", config=dataclasses.replace(base.config, arrival_prob=q))
            for q in (base.config.arrival_prob, base.config.arrival_prob / 2)
        ]
        result = run_experiment(cells, seeds=[0, 1])
        assert [s.cell for s in result.summaries] == [c.name for c in cells]
        assert [s.n_runs for s in result.summaries] == [2, 2]
        for cell, summary in zip(cells, result.summaries):
            rewards = [run_episode(cell.config, seed).discounted_reward for seed in (0, 1)]
            assert summary.reward_mean == pytest.approx(np.mean(rewards), rel=1e-12)
        assert result.summaries[0].reward_mean != result.summaries[1].reward_mean

    def test_failures_isolated_per_cell(self):
        bad = ExperimentCell(name="bad", config=dataclasses.replace(cfg(), num_servers=50))
        result = run_experiment([self.cells()[0], bad], seeds=[0, 1])
        assert len(result.records) == 2  # the good cell still ran
        assert len(result.failures) == 2
        assert not result.ok
        assert result.failures[0][0] == "bad"

    def test_bound_attached_to_all_cell_records(self):
        result = run_experiment(self.cells(), seeds=[0], compute_bound=True)
        assert all(r.relaxed_bound is not None for r in result.records)
        # same scenario, same bound under both policies
        assert result.records[0].relaxed_bound == result.records[1].relaxed_bound

    def test_bounds_in_worker_pool_match_serial(self):
        cell = self.cells()[:1]
        serial = run_experiment(cell, seeds=[0, 1], compute_bound=True, jobs=1)
        pooled = run_experiment(cell, seeds=[0, 1], compute_bound=True, jobs=2)
        assert pooled.records == serial.records
        assert all(r.relaxed_bound is not None for r in serial.records)
        assert serial.records[0].relaxed_bound != serial.records[1].relaxed_bound

    def test_episodes_in_worker_pool_match_serial(self, tmp_path):
        small = {"num_users": 8, "num_servers": 3, "horizon": 12}
        cells = [
            ExperimentCell(c.name, apply_overrides(c.config, small))
            for preset in ("fig6", "fig8")
            for c in preset_cells(preset)
        ]
        outputs = []
        for jobs in (1, 2):
            result = run_experiment(cells, seeds=[0, 1], compute_bound=True, jobs=jobs)
            assert result.ok, result.failures
            path = tmp_path / f"jobs{jobs}.csv"
            emit_csv(result.records, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    @given(
        small_configs(),
        st.lists(
            st.tuples(
                st.sampled_from(["wi", "stlw-wi", "edf", "lst", "greedy"]),
                st.sampled_from(["known", "mle", "bl", "psbl"]),
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(0, 1000), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_experiments_in_worker_pool_match_serial(self, base, labels, seeds):
        # every example starts a worker pool, hence the few examples
        cells = [
            ExperimentCell(f"c{j}", dataclasses.replace(base, policy=p, estimator=e))
            for j, (p, e) in enumerate(labels)
        ]
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            for jobs in (2, 1):
                result = run_experiment(cells, seeds=seeds, jobs=jobs)
                assert result.ok, result.failures
                path = Path(tmp) / f"jobs{jobs}.csv"
                emit_csv(result.records, path)
                outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_experiment([], seeds=[0])

    def test_metadata_tail_bounds(self):
        result = run_experiment(self.cells(), seeds=[0])
        assert set(result.metadata["tail_bound"]) == {"wi", "edf"}


class TestCsv:
    def records(self):
        return [
            RunRecord("wi", 100, 30, 0.5, 0, -12.5, 0.875, 1.0e-3, 4.25),
            RunRecord("edf", 100, 30, 0.5, 1, -0.1234567890123456789, 0.0, -2.0, None),
        ]

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        recs = self.records()
        emit_csv(recs, path)
        assert read_csv(path) == recs

    def test_line_count(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.records(), path)
        assert len(path.read_text().splitlines()) == 3

    def test_empty_records_rejected_before_creating_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(ValueError):
            emit_csv([], path)
        assert not path.exists()

    def test_io_failure_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="missing-dir"):
            emit_csv(self.records(), tmp_path / "missing-dir" / "x.csv")

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # comment line
            num_users = 24
            policy = stlw-wi            # trailing comment
            discount = 0.95
            cpu_freq_choices = 2e8, 4e8
            """
        )
        overrides = parse_config_file(path)
        c = apply_overrides(SimConfig(), overrides)
        assert c.num_users == 24
        assert c.policy == "stlw-wi"
        assert c.discount == 0.95
        assert c.cpu_freq_choices == (2e8, 4e8)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("num_users\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)


class TestPresets:
    def test_all_presets_build(self):
        for name in ("fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7", "fig8"):
            cells = preset_cells(name)
            assert cells
            for cell in cells:
                cell.config.validate()

    def test_policy_filter(self):
        cells = preset_cells("fig6", policy_filter="stlw-wi")
        assert len(cells) == 1 and cells[0].config.policy == "stlw-wi"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset_cells("fig99")

    def test_policy_filter_miss_rejected(self):
        with pytest.raises(ConfigError):
            preset_cells("fig6", policy_filter="psbl-wi")
