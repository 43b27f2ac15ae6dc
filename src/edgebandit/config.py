"""Experiment configuration: defaults, flat key-value config files, and the
named experiment presets.

The defaults reproduce the reference parameterization: 200-slot horizon,
discount 0.99, users uniformly placed 100-300 m from the base station,
unit-mean exponential block fading, -174 dBm/Hz noise, -40 dB pathloss
constant at 1 m, pathloss exponent 4, 1 MHz sub-channels, 20-25 dBm
transmit power, CPU frequencies 0.2-1 GHz against a 2 GHz server, arrival
probability 0.7, and tasks bounded by 10 slots / 30 subtasks.

Local energy uses the quadratic CPU form, so that offloading typically
saves energy (the linear-frequency form makes every saving negative, which
collapses the energy half of the tradeoff), and a slot lasts 10 ms, which
comfortably covers nominal (unit-fading) transmit times.  With these
defaults ``SimConfig()`` runs as it is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from .dynamics import PenaltyFn
from .policies import PolicyKind

__all__ = [
    "SimConfig",
    "ConfigError",
    "ExperimentCell",
    "parse_config_file",
    "apply_overrides",
    "preset_cells",
    "PRESETS",
]


class ConfigError(ValueError):
    """Invalid configuration; raised before any simulation slot runs."""


@dataclass(frozen=True)
class SimConfig:
    """Flat experiment configuration.  All physical values are SI."""

    num_users: int = 100
    num_servers: int = 30
    horizon: int = 200
    discount: float = 0.99
    penalty: str = "experiment"  # experiment: alpha + 0.1 x^2 | theory: alpha x^2
    penalty_alpha: float = 0.5
    policy: str = "wi"  # wi | stlw-wi | edf | lst | greedy
    estimator: str = "known"  # known | mle | bl | psbl
    energy_model: str = "quadratic"  # eq1 | quadratic
    energy_truth: str = "channel"  # channel | gaussian | laplace
    truth_location: float = 1.0
    truth_spread: float = 0.1  # variance (gaussian) or diversity (laplace)
    noise_var_low: float = 0.5
    noise_var_high: float = 1.0
    distance_low: float = 100.0
    distance_high: float = 300.0
    noise_density_dbm: float = -174.0
    pathloss_const_db: float = -40.0
    ref_distance: float = 1.0
    pathloss_exp: float = 4.0
    bandwidth: float = 1.0e6
    tx_power_low_dbm: float = 20.0
    tx_power_high_dbm: float = 25.0
    power_coeff: float = 1.0e-28
    cpu_freq_choices: tuple[float, ...] = (0.2e9, 0.4e9, 0.6e9, 0.8e9, 1.0e9)
    cycles_per_bit_choices: tuple[float, ...] = (1e5, 2e5, 3e5, 4e5, 5e5)
    server_freq: float = 2.0e9
    arrival_prob: float = 0.7
    max_task_duration: int = 10
    max_task_size: int = 30
    # uniform: sizes U{1..max}.  server-feasible: U{1..min(max, capacity*duration)},
    # i.e. every task could finish if offloaded in all of its slots.
    # offload-window: sizes in the top task_size_load fraction of the feasible
    # window, never finishable locally alone (at least duration+1 subtasks).
    task_size_rule: str = "uniform"
    task_size_load: float = 0.65
    subtask_bits_choices: tuple[float, ...] = (100.0, 150.0, 200.0)
    slot_length: float = 0.01
    fading_period_slots: int = 0  # 0: redraw per task; > 0: every that many slots
    master_seed: int = 0
    replications: int = 20
    mh_samples: int = 10
    mh_burn_in: int = 0
    # unit-scale proposals mix the short chains well; smaller factors leave
    # the 10-sample estimate dominated by autocorrelation
    mh_proposal_factor: float = 1.0
    nig_variant: str = "textbook"  # textbook | paper
    bl_estimate: str = "mean"  # mean | sample (posterior draw per update)
    # when set and an estimator is active, each episode dumps
    # slot,user,estimate,true_saving rows to this path ({seed} expands)
    estimate_trace_path: str = ""
    # per-task saving quantile samples for the bound; truncating the
    # deep-fade tail only loosens the bound (safe direction), and 16
    # samples sit within ~0.03% of the 128-sample value
    bound_esav_samples: int = 16

    def penalty_fn(self) -> PenaltyFn:
        if self.penalty == "experiment":
            return PenaltyFn.experiment(self.penalty_alpha)
        if self.penalty == "theory":
            return PenaltyFn.theory(self.penalty_alpha)
        raise ConfigError(f"unknown penalty preset {self.penalty!r}")

    def validation_errors(self) -> list[str]:
        errs = []
        if self.num_users < 1:
            errs.append("num_users must be >= 1")
        if not 1 <= self.num_servers <= self.num_users:
            errs.append("num_servers must satisfy 1 <= M <= N")
        if self.horizon < 1:
            errs.append("horizon must be >= 1")
        if not 0.0 < self.discount < 1.0:
            errs.append("discount must lie in (0, 1)")
        if self.penalty not in ("experiment", "theory"):
            errs.append(f"unknown penalty preset {self.penalty!r}")
        if self.penalty_alpha < 0:
            errs.append("penalty_alpha must be >= 0")
        if self.policy not in {p.value for p in PolicyKind}:
            errs.append(f"unknown policy {self.policy!r}")
        if self.estimator not in ("known", "mle", "bl", "psbl"):
            errs.append(f"unknown estimator {self.estimator!r}")
        if self.energy_model not in ("eq1", "quadratic"):
            errs.append(f"unknown energy_model {self.energy_model!r}")
        if self.energy_truth not in ("channel", "gaussian", "laplace"):
            errs.append(f"unknown energy_truth {self.energy_truth!r}")
        if self.nig_variant not in ("textbook", "paper"):
            errs.append(f"unknown nig_variant {self.nig_variant!r}")
        if self.bl_estimate not in ("mean", "sample"):
            errs.append(f"unknown bl_estimate {self.bl_estimate!r}")
        if not 0.0 <= self.arrival_prob <= 1.0:
            errs.append("arrival_prob must lie in [0, 1]")
        if self.max_task_duration < 1 or self.max_task_size < 1:
            errs.append("task bounds must be >= 1")
        if self.task_size_rule not in ("uniform", "server-feasible", "offload-window"):
            errs.append(f"unknown task_size_rule {self.task_size_rule!r}")
        if not 0.0 <= self.task_size_load <= 1.0:
            errs.append("task_size_load must lie in [0, 1]")
        if self.slot_length <= 0:
            errs.append("slot_length must be > 0")
        if self.fading_period_slots < 0:
            errs.append("fading_period_slots must be >= 0")
        if self.energy_truth in ("gaussian", "laplace") and self.truth_spread <= 0:
            errs.append("truth_spread must be > 0 under gaussian or laplace truth")
        if self.mh_samples < 1:
            errs.append("mh_samples must be >= 1")
        if self.mh_burn_in < 0:
            errs.append("mh_burn_in must be >= 0")
        if self.mh_proposal_factor <= 0:
            errs.append("mh_proposal_factor must be > 0")
        if self.bound_esav_samples < 1:
            errs.append("bound_esav_samples must be >= 1")
        if self.noise_var_low <= 0 or self.noise_var_high < self.noise_var_low:
            errs.append("noise variance range must be positive and ordered")
        return errs

    def validate(self) -> None:
        errs = self.validation_errors()
        if errs:
            raise ConfigError("; ".join(errs))

    def policy_label(self) -> str:
        """Human-facing name combining selection rule and estimator."""
        if self.estimator == "known":
            return self.policy
        return f"{self.estimator}-{self.policy}"


@dataclass(frozen=True)
class ExperimentCell:
    """One point of an experiment grid."""

    name: str
    config: SimConfig


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}


def _parse_value(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    default = getattr(SimConfig(), name)
    raw = raw.strip()
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    return raw


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file into an override dict.

    Blank lines and ``#`` comments are ignored.  Tuple-valued keys take
    comma- or space-separated numbers.
    """
    overrides: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        overrides[key] = _parse_value(key, raw)
    return overrides


def apply_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    for key in overrides:
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    return dataclasses.replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

# The presets keep the default energy form and slot length.  Tasks are
# drawn from the offload-window rule: too big to finish locally, small
# enough to finish if offloaded every slot (like a 15-subtask / 6-slot /
# k=4 task), with the load factor calibrated so the index policy's
# completion ratio sits near its reference level at M/N = 0.45.
_KNOWN_ENERGY = {
    "task_size_rule": "offload-window",
    "estimator": "known",
}

_LEARNING_COMMON = {
    "task_size_rule": "offload-window",
    "fading_period_slots": 20,
    "num_users": 100,
    "policy": "wi",
}


def _cells(
    base: SimConfig,
    name: str,
    sweeps: Sequence[dict],
) -> list[ExperimentCell]:
    out = []
    for sweep in sweeps:
        cfg = apply_overrides(base, sweep)
        label = "{}[N={},M={},alpha={:g},{}]".format(
            name, cfg.num_users, cfg.num_servers, cfg.penalty_alpha, cfg.policy_label()
        )
        out.append(ExperimentCell(name=label, config=cfg))
    return out


def _fig3(base: SimConfig, ratio: float, name: str) -> list[ExperimentCell]:
    base = apply_overrides(base, {**_KNOWN_ENERGY, "penalty_alpha": 0.5})
    sweeps = [
        {"num_users": n, "num_servers": round(ratio * n), "policy": p}
        for n in (60, 80, 100)
        for p in ("wi", "edf", "lst", "greedy")
    ]
    return _cells(base, name, sweeps)


def _fig4(base: SimConfig) -> list[ExperimentCell]:
    # server-feasible sizes keep the system lightly loaded so the penalty
    # weight trades selection quality, not offload throughput: larger alpha
    # then raises completion and costs savings monotonically
    base = apply_overrides(
        base,
        {
            **_KNOWN_ENERGY,
            "num_users": 100,
            "num_servers": 30,
            "policy": "wi",
            "task_size_rule": "server-feasible",
        },
    )
    sweeps = [{"penalty_alpha": a} for a in (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0)]
    return _cells(base, "fig4", sweeps)


def _fig5(base: SimConfig) -> list[ExperimentCell]:
    base = apply_overrides(
        base,
        {**_KNOWN_ENERGY, "num_users": 100, "num_servers": 30, "penalty_alpha": 0.001},
    )
    return _cells(base, "fig5", [{"policy": p} for p in ("wi", "edf", "lst", "greedy")])


def _fig6(base: SimConfig) -> list[ExperimentCell]:
    base = apply_overrides(
        base,
        {**_KNOWN_ENERGY, "num_users": 100, "num_servers": 45, "penalty_alpha": 5.0},
    )
    policies = ("stlw-wi", "wi", "lst", "edf", "greedy")
    return _cells(base, "fig6", [{"policy": p} for p in policies])


def _fig7(base: SimConfig) -> list[ExperimentCell]:
    base = apply_overrides(
        base,
        {
            **_LEARNING_COMMON,
            "energy_truth": "gaussian",
            "truth_location": 1.0,
            "truth_spread": 0.1,
            "penalty_alpha": 0.5,
        },
    )
    sweeps = [
        {"num_servers": m, "estimator": est}
        for m in (30, 50)
        for est in ("known", "bl", "mle")
    ]
    return _cells(base, "fig7", sweeps)


def _fig8(base: SimConfig) -> list[ExperimentCell]:
    base = apply_overrides(
        base,
        {
            **_LEARNING_COMMON,
            "energy_truth": "laplace",
            "truth_location": 1.0,
            "truth_spread": 0.2,
            "penalty_alpha": 0.5,
        },
    )
    sweeps = [
        {"num_servers": m, "estimator": est}
        for m in (30, 50)
        for est in ("known", "psbl", "bl", "mle")
    ]
    return _cells(base, "fig8", sweeps)


PRESETS: dict[str, Callable[[SimConfig], list[ExperimentCell]]] = {
    "fig3a": lambda base: _fig3(base, 0.3, "fig3a"),
    "fig3b": lambda base: _fig3(base, 0.5, "fig3b"),
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def preset_cells(
    name: str,
    base: Optional[SimConfig] = None,
    policy_filter: Optional[str] = None,
) -> list[ExperimentCell]:
    """Cells of a named preset, optionally restricted to one policy label."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    cells = PRESETS[name](base if base is not None else SimConfig())
    if policy_filter is not None:
        cells = [c for c in cells if c.config.policy_label() == policy_filter]
        if not cells:
            raise ConfigError(f"policy {policy_filter!r} not present in preset {name!r}")
    return cells
