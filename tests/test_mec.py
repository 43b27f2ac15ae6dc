"""Physical-model tests: energies, channel, rate, capacity.

Expected values marked "recomputed" were frozen from 50-digit mpmath
evaluations of the same formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebandit.mec import (
    ChannelEnvironment,
    UserProfile,
    channel_gain,
    db_to_linear,
    dbm_to_watts,
    energy_saving,
    local_energy_per_subtask,
    offload_capacity,
    offload_energy,
    transmission_rate,
)


def profile(**kw) -> UserProfile:
    base = dict(
        user_id=0,
        cpu_freq=1e9,
        cycles_per_bit=1e5,
        subtask_bits=100.0,
        tx_power=0.1,
        bandwidth=1e6,
        distance=100.0,
        power_coeff=1e-28,
    )
    base.update(kw)
    return UserProfile(**base)


def env(**kw) -> ChannelEnvironment:
    base = dict(
        pathloss_const=1e-4,
        ref_distance=1.0,
        pathloss_exp=4.0,
        noise_density=3.981e-21,
        server_freq=2e9,
    )
    base.update(kw)
    return ChannelEnvironment(**base)


class TestConversions:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
        # -174 dBm/Hz thermal noise density, recomputed at high precision
        assert dbm_to_watts(-174.0) == pytest.approx(3.9810717055349725e-21, rel=1e-12)

    def test_db_to_linear(self):
        assert db_to_linear(-40.0) == pytest.approx(1e-4, rel=1e-12)
        assert db_to_linear(0.0) == 1.0


class TestLocalEnergy:
    def test_reference_point(self):
        p = profile(power_coeff=1e-28, cpu_freq=1e9, cycles_per_bit=1e5, subtask_bits=100)
        assert local_energy_per_subtask(p) == pytest.approx(1e-12, rel=1e-12)

    def test_zero_workload(self):
        assert local_energy_per_subtask(profile(subtask_bits=0)) == 0.0

    def test_second_point(self):
        p = profile(power_coeff=1e-28, cpu_freq=2e8, cycles_per_bit=2e5, subtask_bits=150)
        assert local_energy_per_subtask(p) == pytest.approx(6e-13, rel=1e-12)

    def test_quadratic_variant_scales_by_frequency(self):
        p = profile(cpu_freq=2e8)
        assert local_energy_per_subtask(p, "quadratic") == pytest.approx(
            local_energy_per_subtask(p, "eq1") * 2e8, rel=1e-12
        )

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            local_energy_per_subtask(profile(), "cubic")


class TestOffloadCapacity:
    def test_exact_division(self):
        assert offload_capacity(profile(cpu_freq=1e9), env(server_freq=2e9)) == 2

    def test_float_pitfall(self):
        # 2e9 / 0.4e9 in floats is 4.999...; the exact rational answer is 5
        assert offload_capacity(profile(cpu_freq=0.4e9), env(server_freq=2e9)) == 5

    def test_rational_floor(self):
        assert offload_capacity(profile(cpu_freq=0.3e9), env(server_freq=2e9)) == 6

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            offload_capacity(profile(cpu_freq=3e9), env(server_freq=2e9))

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_floor_bounds(self, us, ui):
        # k * U_i <= U_s < (k+1) * U_i whenever k >= 1
        us_hz, ui_hz = us * 1e8, ui * 1e8
        if us_hz < ui_hz:
            return
        k = offload_capacity(profile(cpu_freq=ui_hz), env(server_freq=us_hz))
        assert k * ui >= 1 and k * ui <= us < (k + 1) * ui


class TestChannelGain:
    def test_reference_distance(self):
        assert channel_gain(env(), 1.0) == pytest.approx(1e-4, rel=1e-12)

    def test_pathloss(self):
        assert channel_gain(env(), 100.0) == pytest.approx(1e-12, rel=1e-12)

    def test_fading_scales(self):
        assert channel_gain(env(), 10.0, 2.0) == pytest.approx(2e-8, rel=1e-12)

    @given(st.floats(1.0, 1e4), st.floats(1.0, 1e4))
    @settings(max_examples=50)
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert channel_gain(env(), lo) >= channel_gain(env(), hi)


class TestTransmissionRate:
    def test_zero_power(self):
        assert transmission_rate(profile(tx_power=0.0), 1e-12, env()) == 0.0

    def test_reference_point(self):
        # SNR = 25.119..., rate recomputed at high precision
        rate = transmission_rate(profile(tx_power=0.1, bandwidth=1e6), 1e-12, env())
        assert rate == pytest.approx(4707045.25334654, rel=1e-12)

    def test_unit_snr(self):
        # P * h == N0 * W makes the rate exactly the bandwidth
        e = env(noise_density=1e-15)
        rate = transmission_rate(profile(tx_power=1.0, bandwidth=1e6), 1e-9, e)
        assert rate == pytest.approx(1e6, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50)
    def test_monotone_in_power(self, p1, p2):
        lo, hi = sorted((p1, p2))
        r_lo = transmission_rate(profile(tx_power=lo), 1e-12, env())
        r_hi = transmission_rate(profile(tx_power=hi), 1e-12, env())
        assert r_lo <= r_hi

    @given(st.floats(1e-14, 1e-10), st.floats(1e-14, 1e-10))
    @settings(max_examples=50)
    def test_monotone_in_gain(self, g1, g2):
        lo, hi = sorted((g1, g2))
        p = profile()
        assert transmission_rate(p, lo, env()) <= transmission_rate(p, hi, env())


class TestOffloadEnergy:
    def test_reference_point(self):
        out = offload_energy(profile(subtask_bits=100, tx_power=0.1), 4e6, 4)
        assert out.tx_time == pytest.approx(1e-4, rel=1e-12)
        assert out.energy == pytest.approx(1e-5, rel=1e-12)

    def test_zero_power(self):
        assert offload_energy(profile(tx_power=0.0), 4e6, 4).energy == 0.0

    def test_unit_second(self):
        out = offload_energy(profile(subtask_bits=5e5, tx_power=1.0), 5e5, 1)
        assert out.tx_time == pytest.approx(1.0, rel=1e-12)
        assert out.energy == pytest.approx(1.0, rel=1e-12)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="zero-rate channel"):
            offload_energy(profile(), 0.0, 4)


class TestEnergySaving:
    def test_break_even(self):
        assert energy_saving(1e-12, 4e-12, 4) == 0.0

    def test_arithmetic(self):
        assert energy_saving(2.0, 3.0, 4) == pytest.approx(5.0)

    def test_negative_preserved(self):
        assert energy_saving(1.0, 10.0, 4) == pytest.approx(-6.0)

    @given(st.floats(0.0, 10.0), st.integers(1, 10))
    @settings(max_examples=50)
    def test_sign_change_exactly_at_break_even(self, e_local, k):
        pivot = k * e_local
        assert energy_saving(e_local, pivot, k) == 0.0
        assert energy_saving(e_local, pivot + 1e-9, k) < 0
        assert energy_saving(e_local, max(pivot - 1e-9, 0.0), k) >= 0


class TestEnergyFigures:
    def test_identity_exact(self):
        assert energy_saving(e_local=1.25e-3, e_offload=3.7e-3, capacity=4) == 4 * 1.25e-3 - 3.7e-3


class TestProfileValidation:
    def test_valid_profile_passes(self):
        profile().validate(ref_distance=1.0)

    def test_bad_fields_listed(self):
        with pytest.raises(ValueError):
            profile(cpu_freq=0.0).validate()
        with pytest.raises(ValueError):
            profile(distance=0.5).validate(ref_distance=1.0)
