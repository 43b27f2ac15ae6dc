"""What a fresh interpreter loads: no scipy at all, and multiprocessing
only where a run first needs it.

``import edgebandit`` loads numpy and the package's own modules, and no
run loads scipy: not the learners, prior swapping's Metropolis-Hastings
kernel included, and not a gaussian-truth bound, whose quantiles come
from the standard library.  ``multiprocessing`` arrives with a sweep of
more than one job.  The checks run in a subprocess, since this test
process may already hold either.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}

def note(stage):
    loaded[stage] = {
        pkg: sorted(m for m in sys.modules if m == pkg or m.startswith(pkg + "."))
        for pkg in ("scipy", "multiprocessing")
    }

import edgebandit
from edgebandit import config, harness

note("import")
smoke = {"num_users": 8, "num_servers": 3, "horizon": 12}
fig6 = config.apply_overrides(config.preset_cells("fig6", policy_filter="wi")[0].config, smoke)
harness.run_episode(fig6, 0)
note("fig6 wi episode")
harness.compute_relaxed_bound(fig6, 0)
note("relaxed bound")
harness.run_experiment([config.ExperimentCell("wi", fig6)], [0, 1], jobs=1)
note("run_experiment jobs=1")
psbl = next(c.config for c in config.preset_cells("fig8") if c.config.estimator == "psbl")
psbl = config.apply_overrides(psbl, smoke)
harness.run_episode(psbl, 0)
note("fig8 psbl episode")
fig7 = config.apply_overrides(config.preset_cells("fig7")[0].config, smoke)
harness.compute_relaxed_bound(fig7, 0)
note("gaussian-truth bound")
print(json.dumps(loaded))
"""


def test_scipy_and_pool_load_only_where_needed():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert list(loaded) == [
        "import",
        "fig6 wi episode",
        "relaxed bound",
        "run_experiment jobs=1",
        "fig8 psbl episode",
        "gaussian-truth bound",
    ]
    for stage, modules in loaded.items():
        assert modules["scipy"] == [], stage
    assert loaded["run_experiment jobs=1"]["multiprocessing"] == []
