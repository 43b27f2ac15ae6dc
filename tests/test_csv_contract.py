"""The behaviour contract: byte-identical CSV output at fixed seeds.

Each digest is the sha256 of the CSV that ``emit_csv`` writes for one
preset's records (no relaxed bound).  A change that alters any digest
changes what the simulator reports, and must say so.  Small cases run
every preset at N=8, M=3, T=12 for seeds 0 and 1; full cases run fig6
and fig8 at the paper size for seed 0.
"""

import hashlib

import pytest

from edgebandit.config import ExperimentCell, apply_overrides, preset_cells
from edgebandit.harness import emit_csv, run_experiment

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
}


@pytest.mark.parametrize("preset,size", list(DIGESTS), ids=[f"{p}-{s}" for p, s in DIGESTS])
def test_csv_digest(preset, size, tmp_path):
    overrides, seeds = (SMALL, [0, 1]) if size == "small" else ({}, [0])
    cells = [ExperimentCell(c.name, apply_overrides(c.config, overrides)) for c in preset_cells(preset)]
    result = run_experiment(cells, seeds)
    assert result.ok, result.failures
    path = tmp_path / "out.csv"
    emit_csv(result.records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[preset, size]
