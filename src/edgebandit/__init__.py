"""Whittle-index task offloading for large-scale edge computing.

Core pieces: the physical energy/channel model (:mod:`edgebandit.mec`),
the arm dynamics as one array step over every user
(:mod:`edgebandit.dynamics`), the Whittle index with its independent MDP
oracle and the relaxed performance bound (:mod:`edgebandit.whittle`), the
selection policies (:mod:`edgebandit.policies`), online estimators of
unknown savings (:mod:`edgebandit.learning`), and the experiment harness
(:mod:`edgebandit.harness`).
"""

from .config import ConfigError, ExperimentCell, SimConfig, preset_cells
from .dynamics import ActionVector, PenaltyFn, TaskGenerator
from .harness import (
    RunRecord,
    build_scenario,
    emit_csv,
    read_csv,
    run_episode,
    run_experiment,
)
from .learning import NIGParams, PriorSpec, nig_posterior, nig_sample
from .mec import ChannelEnvironment, UserProfile
from .policies import PolicyKind, select, slot_keys
from .whittle import (
    ArmChain,
    SubsidizedArmMDP,
    indexability_check,
    relaxed_upper_bound,
    whittle_index_array,
)

__version__ = "0.1.0"
