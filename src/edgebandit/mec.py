"""Static physical model: per-user energy, channel, rate, and offload capacity.

All functions are pure and operate in SI units (watts, hertz, joules,
meters, seconds).  dBm / dB inputs are converted where the scenario is
drawn, via :func:`dbm_to_watts` / :func:`db_to_linear`; nothing below this
layer sees logarithmic units.  The functions assume settings that
``SimConfig`` validation has accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "UserProfile",
    "ChannelEnvironment",
    "OffloadEnergy",
    "dbm_to_watts",
    "db_to_linear",
    "local_energy_per_subtask",
    "offload_capacity",
    "channel_gain",
    "transmission_rate",
    "offload_energy",
    "energy_saving",
]


def dbm_to_watts(p_dbm: float) -> float:
    """P[W] = 10^((P_dBm - 30) / 10)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class UserProfile:
    """Static per-user physical parameters.

    Frequencies in Hz, power in watts, distance in meters.  ``power_coeff``
    is the chip-architecture energy coefficient of the local CPU.  The
    harness keeps the drawn users as arrays; a profile is one user's row
    for the scalar functions below.
    """

    user_id: int
    cpu_freq: float
    cycles_per_bit: float
    subtask_bits: float
    tx_power: float
    bandwidth: float
    distance: float
    power_coeff: float


@dataclass(frozen=True)
class ChannelEnvironment:
    """Shared channel and server parameters.

    The small-scale fading is not part of the environment: the harness
    draws a unit-mean exponential power gain per channel block and passes
    it to :func:`channel_gain`.
    """

    pathloss_const: float
    ref_distance: float
    pathloss_exp: float
    noise_density: float
    server_freq: float


class OffloadEnergy(NamedTuple):
    """Uplink energy cost plus the transmit time used for slot validation."""

    energy: float
    tx_time: float


def local_energy_per_subtask(power_coeff, cpu_freq, cycles_per_bit, subtask_bits, model: str):
    """Energy to process one subtask locally, for numbers or elementwise
    for arrays.

    ``model="eq1"`` uses coeff * freq * cycles_per_bit * bits; ``"quadratic"``
    squares the CPU frequency (the dynamic-power form coeff * freq^2 for the
    cycles_per_bit * bits / freq execution cycles).
    """
    if model == "eq1":
        return power_coeff * cpu_freq * cycles_per_bit * subtask_bits
    if model == "quadratic":
        return power_coeff * cpu_freq**2 * cycles_per_bit * subtask_bits
    raise ValueError(f"unknown energy model {model!r}")


def offload_capacity(cpu_freq: float, server_freq: float) -> int:
    """Subtasks the server completes per slot: floor(server_freq / cpu_freq).

    Computed with exact rational arithmetic on the Hz values so that e.g.
    2 GHz / 0.4 GHz is exactly 5 (float division would give 4.999...).
    """
    if cpu_freq <= 0:
        raise ValueError("cpu_freq must be > 0")
    k = int(Fraction(server_freq) / Fraction(cpu_freq))
    if k < 1:
        raise ValueError(f"cpu_freq {cpu_freq} exceeds server_freq {server_freq}; offloading cannot help")
    return k


def channel_gain(env: ChannelEnvironment, distance: float, fading: float = 1.0) -> float:
    """Block-fading channel power gain at the given distance.

    ``fading`` is the block's fading power gain; the default 1.0 is the
    nominal (unit-fading) gain.
    """
    return fading * env.pathloss_const * (env.ref_distance / distance) ** env.pathloss_exp


def transmission_rate(profile: UserProfile, gain: float, env: ChannelEnvironment) -> float:
    """Shannon rate in bits/s over the user's sub-channel."""
    noise_power = env.noise_density * profile.bandwidth
    return profile.bandwidth * math.log2(1.0 + profile.tx_power * gain / noise_power)


def offload_energy(profile: UserProfile, rate: float, capacity: int) -> OffloadEnergy:
    """Uplink energy for one offload of ``capacity`` subtasks.

    Raises ValueError on a zero-rate channel (offloading impossible).
    """
    if rate <= 0:
        raise ValueError("zero-rate channel")
    tx_time = capacity * profile.subtask_bits / rate
    return OffloadEnergy(energy=tx_time * profile.tx_power, tx_time=tx_time)


def energy_saving(e_local: float, e_offload: float, capacity: int) -> float:
    """Joules saved by offloading ``capacity`` subtasks instead of running
    them locally.  May be negative on a bad channel; never clamped."""
    return capacity * e_local - e_offload
