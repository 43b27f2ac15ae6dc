"""Span tracing for the benchmark's traced run.

Timers are installed from outside the package: each hook replaces one name
that the harness (or a class it uses) looks up at call time, and restores
it afterwards.  Every span records its name, start, end, parent span and
benchmark operation id in flat arrays that stay in memory until the run
writes them out.  A hook whose target no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

# (span name, module of edgebandit, attribute path looked up at call time)
HOOKS = (
    ("harness.build_scenario", "harness", "build_scenario"),
    ("harness.build_arm_chains", "harness", "build_arm_chains"),
    ("whittle.index", "harness", "whittle_index_array"),
    ("whittle.bound", "harness", "relaxed_upper_bound"),
    ("policies.select", "harness", "select"),
    ("learning.observe", "harness", "observe"),
    ("learning.refresh", "harness", "_PsblBatch.refresh"),
    ("mec.channel_gain", "mec", "channel_gain"),
    ("mec.transmission_rate", "mec", "transmission_rate"),
    ("mec.offload_energy", "mec", "offload_energy"),
    ("mec.energy_saving", "mec", "energy_saving"),
    ("dynamics.maybe_arrival", "dynamics", "TaskGenerator.maybe_arrival"),
    ("dynamics.draw", "dynamics", "TaskGenerator.draw"),
    ("learning.update", "learning", "MleWhittleEstimator.update"),
    ("learning.update", "learning", "BayesWhittleEstimator.update"),
    ("learning.update", "learning", "PriorSwapWhittleEstimator.update"),
    ("learning.estimate", "learning", "MleWhittleEstimator.estimate"),
    ("learning.estimate", "learning", "BayesWhittleEstimator.estimate"),
    ("learning.estimate", "learning", "PriorSwapWhittleEstimator.estimate"),
)

MEC_SPANS = ("mec.channel_gain", "mec.transmission_rate", "mec.offload_energy", "mec.energy_saving")


class Tracer:
    """In-memory span store plus the counters read at hook boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.selected = 0
        self.selected_useful = 0
        self.select_inspect_failed = False
        self.arm_stats: list[tuple[int, int, int]] = []  # (op id, arms, arm groups)
        self.absent: list[str] = []
        self.installed_spans: set[str] = set()
        self.last_op_seconds = 0.0

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def wrap(self, name: str, fn: Callable, inspect: Optional[Callable] = None) -> Callable:
        code = self.code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if inspect is not None:
                inspect(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str) -> Iterator[None]:
        """Root span of one benchmark operation; its duration lands in ``last_op_seconds``."""
        self.op_id = op_id
        idx = self._open(self.code(name))
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1
            self.last_op_seconds = self.end[idx] - self.start[idx]

    # -- inspections at hook boundaries --------------------------------

    def _inspect_select(self, args, action) -> None:
        try:
            backlog = {k.user: k.backlog for k in args[1]}
            useful = sum(1 for u in action.selected if backlog[u] > 0)
            total = len(action.selected)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.select_inspect_failed = True
            return
        self.selected += total
        self.selected_useful += useful

    def _inspect_arm_chains(self, args, chains) -> None:
        groups = {(c.capacity, c.size_probs.tobytes()) for c in chains}
        self.arm_stats.append((self.op_id, len(chains), len(groups)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }


def _resolve(module, path: str):
    """(owner, attribute) for a dotted path, or None when it no longer exists."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in vars(owner):
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Install every hook that still has a target; restore all on exit."""
    inspections = {
        "policies.select": tracer._inspect_select,
        "harness.build_arm_chains": tracer._inspect_arm_chains,
    }
    restore = []
    absent = []
    spans = set()
    try:
        for span, module_name, path in HOOKS:
            try:
                module = importlib.import_module(f"edgebandit.{module_name}")
            except ModuleNotFoundError:
                module = None
            target = None if module is None else _resolve(module, path)
            if target is None:
                absent.append(f"{module_name}.{path}")
                continue
            owner, attr = target
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(span, original, inspections.get(span)))
            restore.append((owner, attr, original))
            spans.add(span)
        tracer.absent = absent
        tracer.installed_spans = spans
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(arrs: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = arrs["end"] - arrs["start"]
    parent = arrs["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def _layer_of(span: str) -> str:
    # the benchmark's root spans wrap harness entry points
    return "harness" if span.startswith("op.") else span.split(".", 1)[0]


# span names each per-layer metric reads; the metric is absent without them
_NEEDS = {
    "harness.build_scenario_calls": ("harness.build_scenario",),
    "harness.build_scenario_ms": ("harness.build_scenario",),
    "harness.build_arm_chains_ms": ("harness.build_arm_chains",),
    "mec.calls_per_episode": MEC_SPANS,
    "mec.ms_per_episode": MEC_SPANS,
    "dynamics.arrival_checks_per_episode": ("dynamics.maybe_arrival",),
    "dynamics.task_draws_per_episode": ("dynamics.draw",),
    "dynamics.ms_per_episode": ("dynamics.maybe_arrival", "dynamics.draw"),
    "whittle.index_calls_per_episode": ("whittle.index",),
    "whittle.index_us_per_call": ("whittle.index",),
    "whittle.bound_s": ("whittle.bound",),
    "whittle.bound_arms": ("harness.build_arm_chains",),
    "whittle.bound_arm_groups": ("harness.build_arm_chains",),
    "policies.select_calls_per_episode": ("policies.select",),
    "policies.select_us_per_call": ("policies.select",),
    "policies.useful_selection_ratio": ("policies.select",),
    "learning.update_calls_per_episode": ("learning.update",),
    "learning.update_us_per_call": ("learning.update",),
    "learning.estimate_calls_per_episode": ("learning.estimate",),
    "learning.refresh_ms_per_episode": ("learning.refresh",),
    "learning.observe_calls_per_episode": ("learning.observe",),
}


def layer_metrics(tracer: Tracer, episodes: dict[int, str], n_seeds: int) -> tuple[dict, list[dict]]:
    """Per-layer metrics and the per-layer self-time table of a traced run.

    ``episodes`` maps each traced episode's operation id to its policy
    label.  Per-episode figures average over those episodes and per-seed
    figures (calls, bound and CSV costs) over the ``n_seeds`` traced seeds.
    A metric whose hooks are all absent maps to ``"absent"``.
    """
    arrs = tracer.arrays()
    code = {n: i for i, n in enumerate(arrs["names"].tolist())}
    name, op, parent = arrs["name"], arrs["op"], arrs["parent"]
    dur = arrs["end"] - arrs["start"]
    selft = self_times(arrs)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    in_ep = np.isin(op, list(episodes))
    n_ep = max(len(episodes), 1)
    n_seeds = max(n_seeds, 1)

    def is_(*spans: str) -> np.ndarray:
        return np.isin(name, [code[s] for s in spans if s in code])

    def per_ep(mask: np.ndarray) -> float:
        return float(mask.sum()) / n_ep

    def ms(mask: np.ndarray) -> float:
        return 1e3 * float(dur[mask].sum())

    def us_per_call(mask: np.ndarray) -> float:
        return 1e6 * float(dur[mask].mean()) if mask.any() else 0.0

    mec_ep = is_(*MEC_SPANS) & in_ep & (parent_name != code.get("harness.build_scenario", -1))
    dyn = is_("dynamics.maybe_arrival", "dynamics.draw") & in_ep
    m = {
        "harness.self_ms_per_episode": (1e3 * float(selft[is_("op.episode")].sum()) / n_ep, "ms"),
        "harness.build_scenario_calls": (float(is_("harness.build_scenario").sum()) / n_seeds, "count"),
        "harness.build_scenario_ms": (us_per_call(is_("harness.build_scenario")) / 1e3, "ms"),
        "harness.build_arm_chains_ms": (ms(is_("harness.build_arm_chains")) / n_seeds, "ms"),
        "harness.emit_csv_ms": (ms(is_("op.emit_csv")) / n_seeds, "ms"),
        "mec.calls_per_episode": (per_ep(mec_ep), "count"),
        "mec.ms_per_episode": (ms(mec_ep) / n_ep, "ms"),
        "dynamics.arrival_checks_per_episode": (per_ep(is_("dynamics.maybe_arrival") & in_ep), "count"),
        "dynamics.task_draws_per_episode": (per_ep(is_("dynamics.draw") & in_ep), "count"),
        "dynamics.ms_per_episode": (ms(dyn) / n_ep, "ms"),
        "whittle.index_calls_per_episode": (per_ep(is_("whittle.index") & in_ep), "count"),
        "whittle.index_us_per_call": (us_per_call(is_("whittle.index") & in_ep), "us"),
        "whittle.bound_s": (ms(is_("whittle.bound")) / 1e3 / n_seeds, "s"),
        "whittle.bound_arms": (sum(a for _, a, _ in tracer.arm_stats) / n_seeds, "count"),
        "whittle.bound_arm_groups": (sum(g for _, _, g in tracer.arm_stats) / n_seeds, "count"),
        "policies.select_calls_per_episode": (per_ep(is_("policies.select") & in_ep), "count"),
        "policies.useful_selection_ratio": (
            tracer.selected_useful / tracer.selected if tracer.selected else 0.0,
            "ratio",
        ),
        "learning.update_calls_per_episode": (per_ep(is_("learning.update") & in_ep), "count"),
        "learning.estimate_calls_per_episode": (per_ep(is_("learning.estimate") & in_ep), "count"),
        "learning.refresh_ms_per_episode": (ms(is_("learning.refresh") & in_ep) / n_ep, "ms"),
        "learning.observe_calls_per_episode": (per_ep(is_("learning.observe") & in_ep), "count"),
    }
    labels = sorted(set(episodes.values()))
    label_of_op = np.full(max(op.max(initial=0), max(episodes, default=0)) + 2, -1)  # id -1 reads the last slot
    for i, label in episodes.items():
        label_of_op[i] = labels.index(label)
    span_label = label_of_op[op]
    for j, label in enumerate(labels):
        of_label = span_label == j
        m[f"policies.select_us_per_call.{label}"] = (us_per_call(is_("policies.select") & of_label), "us")
        updates = is_("learning.update") & of_label
        if updates.any():
            m[f"learning.update_us_per_call.{label}"] = (us_per_call(updates), "us")

    def absent(metric: str) -> bool:
        base = metric if metric in _NEEDS else metric.rsplit(".", 1)[0]
        needs = _NEEDS.get(base, ())
        if needs and not any(s in tracer.installed_spans for s in needs):
            return True
        return base == "policies.useful_selection_ratio" and tracer.select_inspect_failed

    metrics = {k: ("absent" if absent(k) else v) for k, v in m.items()}

    roots = parent < 0
    total_root = float(dur[roots].sum()) or 1.0
    table = []
    for layer in sorted({_layer_of(n) for n in code}):
        mask = np.isin(name, [c for n, c in code.items() if _layer_of(n) == layer])
        table.append(
            {
                "layer": layer,
                "spans": int(mask.sum()),
                "self_ms": 1e3 * float(selft[mask].sum()),
                "share": float(selft[mask].sum()) / total_root,
            }
        )
    return metrics, table
