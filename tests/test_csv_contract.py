"""The behaviour contract: byte-identical CSV output at fixed seeds.

Each digest is the sha256 of the CSV that ``emit_csv`` writes for one
preset's records.  A change that alters any digest changes what the
simulator reports, and must say so.  Small cases run every preset at
N=8, M=3, T=12 for seeds 0 and 1; bound cases are small cases with the
relaxed upper bound in every record, down to its last bit; full cases run
fig6 and fig8 at the paper size for seed 0; one more small case runs
fig8's prior-swapping cell off its preset, through the MH kernel's
gaussian-truth and paper-variant paths.  The relaxed bound is also
pinned on its own at the paper size, where a group of arms sharing a
capacity holds dozens of arms; there the dual search's evaluations are
also counted against the sign bisection it replaced, and the induction
plans a bound builds are counted against its arm groups.  The index-vs-oracle
grid that ``verify-index`` writes is pinned the same way, so the subsidy
threshold oracle is held to its exact bits too.
"""

import hashlib

import pytest
import whittle_oracles
from whittle_oracles import relaxed_upper_bound_reference

from edgebandit import harness, whittle
from edgebandit.cli import main
from edgebandit.config import ExperimentCell, apply_overrides, preset_cells
from edgebandit.harness import build_arm_chains, compute_relaxed_bound, emit_csv, run_experiment

SMALL = {"num_users": 8, "num_servers": 3, "horizon": 12}

DIGESTS = {
    ("fig3a", "small"): "80ca1fb41423ccee44d4682f71bd75213fe935a1409755460a5542a5108f6108",
    ("fig3b", "small"): "80ca1fb41423ccee44d4682f71bd75213fe935a1409755460a5542a5108f6108",
    ("fig4", "small"): "d65d2654b2735230d06d1d09035e8654e274eec0fd47ed20aaac19e25a023c6d",
    ("fig5", "small"): "6fd81ac65ac8477e8e74e698ccfabbbe96857462d68ed039399e129d1d7f38f8",
    ("fig6", "small"): "907e6f2085d0e8e854677d9167d4544048744679ba08abc09439c49f3be64187",
    ("fig7", "small"): "8da18a705c35b8c7a47b840b451ceb88b701a0ffa9c34f9eb7761d91b78435c4",
    ("fig8", "small"): "f78871a366e9ddfc43649884ff313448b465064d9123b01e415faa41ed99bd3e",
    ("fig6", "full"): "528d7151b0e6c8abdae6e487822daac1fea3bcc7771c28ec9f1f50a073380e9c",
    ("fig8", "full"): "7970bc06d99914b178128273f96dd33ffde8d94001c704bbfd724428ce7b0f49",
    ("fig3a", "bound"): "c119d02e36719be701358379b756acbc74d5c5731ee9ae27134982c5804658c9",
    ("fig6", "bound"): "80069224242b3d1a58e402316ac6634f1405b36c82df2ddb3803c0be19d86b4e",
}

# compute_relaxed_bound at the paper size: (preset, seed, horizon) -> repr;
# horizon -1 is the run's own horizon
BOUNDS = {
    ("fig6", 0, -1): "-1523.9474763851877",
    ("fig6", 1, -1): "-1726.2129328826231",
    ("fig6", 0, None): "-1810.8826557446846",
    ("fig3a", 0, -1): "-772.7812440281746",  # the N=60 cell
}

# fig8's psbl-wi cell at the small size off its preset: gaussian truth, the
# paper variant, burn-in, a narrower proposal and per-arrival resets
PSBL_OFF_PRESET = {
    **SMALL,
    "energy_truth": "gaussian",
    "nig_variant": "paper",
    "mh_burn_in": 2,
    "mh_proposal_factor": 0.5,
    "fading_period_slots": 0,
}
PSBL_OFF_PRESET_DIGEST = "b841b617561ea5705a4ea3617bf072a64b2e66199e9a2ca3544984485ee2f617"

# verify-index --penalty experiment --alpha 5 --capacity 2 --e-saving -1
VERIFY_INDEX_DIGEST = "cdea1a301f4d1af45f11c562478f3818dadbe56a44824c2b7742b472de3616ac"


def csv_digest(cells, seeds, path, compute_bound=False) -> str:
    result = run_experiment(cells, seeds, compute_bound=compute_bound)
    assert result.ok, result.failures
    emit_csv(result.records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("preset,size", list(DIGESTS), ids=[f"{p}-{s}" for p, s in DIGESTS])
def test_csv_digest(preset, size, tmp_path):
    overrides, seeds = ({}, [0]) if size == "full" else (SMALL, [0, 1])
    cells = [ExperimentCell(c.name, apply_overrides(c.config, overrides)) for c in preset_cells(preset)]
    digest = csv_digest(cells, seeds, tmp_path / "out.csv", compute_bound=size == "bound")
    assert digest == DIGESTS[preset, size]


def test_psbl_off_preset_digest(tmp_path):
    cell = preset_cells("fig8", policy_filter="psbl-wi")[0]
    cells = [ExperimentCell(cell.name, apply_overrides(cell.config, PSBL_OFF_PRESET))]
    assert csv_digest(cells, [0, 1], tmp_path / "out.csv") == PSBL_OFF_PRESET_DIGEST


def test_verify_index_digest(tmp_path):
    path = tmp_path / "grid.csv"
    args = ["--penalty", "experiment", "--alpha", "5", "--capacity", "2", "--e-saving", "-1"]
    assert main(["verify-index", *args, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_INDEX_DIGEST


@pytest.mark.parametrize("preset,seed,horizon", list(BOUNDS), ids=[f"{p}-{s}-{h}" for p, s, h in BOUNDS])
def test_bound_at_paper_size(preset, seed, horizon):
    config = preset_cells(preset)[0].config
    assert compute_relaxed_bound(config, seed, horizon=horizon) == float(BOUNDS[preset, seed, horizon])


@pytest.mark.parametrize("preset,seed,horizon", list(BOUNDS), ids=[f"{p}-{s}-{h}" for p, s, h in BOUNDS])
def test_bound_evaluations_below_bisection(preset, seed, horizon, monkeypatch):
    # dual evaluations counted, not timed: the cutting-plane search needs
    # fewer than the sign bisection on the same arms
    config = preset_cells(preset)[0].config
    calls = []
    group_terms = whittle._group_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return group_terms(*args, **kwargs)

    monkeypatch.setattr(whittle, "_group_terms", counted)
    monkeypatch.setattr(whittle_oracles, "_group_terms", counted)
    counts = []
    for search in (whittle.relaxed_upper_bound, relaxed_upper_bound_reference):
        monkeypatch.setattr(harness, "relaxed_upper_bound", search)
        calls.clear()
        compute_relaxed_bound(config, seed, horizon=horizon)
        counts.append(len(calls))
    assert 0 < counts[0] < counts[1], counts


@pytest.mark.parametrize("preset,seed,horizon", list(BOUNDS), ids=[f"{p}-{s}-{h}" for p, s, h in BOUNDS])
def test_bound_plans_built_once_per_group(preset, seed, horizon, monkeypatch):
    # plans counted, not timed: each arm group's deadline induction and,
    # with a horizon, its truncated one are planned once per bound and
    # run at every dual evaluation
    config = preset_cells(preset)[0].config
    calls = {"_plan": 0, "_group_terms": 0}
    for name in calls:
        original = getattr(whittle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(whittle, name, counted)
    compute_relaxed_bound(config, seed, horizon=horizon)
    laws = whittle._arm_groups(build_arm_chains(config, seed), config.discount)
    groups = sum(len(law.groups) for law in laws)
    assert calls["_group_terms"] > 2
    assert calls["_plan"] == groups * (1 if horizon is None else 2), (calls, groups)
