"""The benchmark's named workloads and the cells each one runs.

A workload is the list of experiment cells of a preset, plus whether each
seed also computes the finite-horizon relaxed bound.  ``size="smoke"``
shrinks every workload to a handful of users and slots so the whole
runner can be exercised in seconds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    preset: str
    bound: bool = False


WORKLOADS = {
    # the five fig6 cells plus one bound per seed: `simulate --preset fig6 --bound`
    "fig6-bound": Workload(preset="fig6", bound=True),
    # the eight learning cells; the only workload where estimators do work
    "fig8-learning": Workload(preset="fig8"),
}

SMOKE_OVERRIDES = {"num_users": 8, "num_servers": 3, "horizon": 12}


def build_cells(name: str, size: str = "paper") -> list:
    """Cells of workload ``name`` at the paper size or the smoke size."""
    from edgebandit import config  # the caller puts the checkout's src/ on the path first

    overrides = SMOKE_OVERRIDES if size == "smoke" else {}
    out = []
    for c in config.preset_cells(WORKLOADS[name].preset):
        cfg = config.apply_overrides(c.config, overrides)
        label = f"{name}[N={cfg.num_users},M={cfg.num_servers},{cfg.policy_label()}]"
        out.append(config.ExperimentCell(name=label, config=cfg))
    return out


def episode_seeds(workload_seed: int) -> Iterator[int]:
    """Episode seeds of one run: ``workload_seed * 1000 + k`` for k = 0, 1, ..."""
    return itertools.count(workload_seed * 1000)
