"""Command-line interface smoke tests (in-process)."""

from pathlib import Path

import pytest

from edgebandit.cli import main
from edgebandit.config import PRESETS
from edgebandit.harness import read_csv


def test_simulate_custom_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "num_users = 10\n"
        "num_servers = 3\n"
        "horizon = 40\n"
        "energy_model = quadratic\n"
        "slot_length = 0.01\n"
        "task_size_rule = offload-window\n"
    )
    out = tmp_path / "records.csv"
    code = main(["simulate", "--config", str(cfg), "--seeds", "2", "--out", str(out)])
    assert code == 0
    records = read_csv(out)
    assert len(records) == 2
    assert {r.seed for r in records} == {0, 1}


def test_simulate_policy_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "num_users = 8\nnum_servers = 2\nhorizon = 30\n"
        "energy_model = quadratic\nslot_length = 0.01\n"
    )
    out = tmp_path / "records.csv"
    code = main(
        ["simulate", "--config", str(cfg), "--policy", "edf", "--seeds", "1", "--out", str(out)]
    )
    assert code == 0
    assert read_csv(out)[0].policy == "edf"


def test_simulate_defaults(tmp_path):
    out = tmp_path / "records.csv"
    assert main(["simulate", "--seeds", "1", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 1


def test_simulate_invalid_config_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_servers = 9999\n")
    assert main(["simulate", "--config", str(cfg), "--seeds", "1"]) == 2


def test_simulate_negative_laplace_spread_exits_2(tmp_path, capsys):
    # rejected as configuration, not as a cell failing mid-episode
    cfg = tmp_path / "run.cfg"
    cfg.write_text("energy_truth = laplace\nestimator = psbl\ntruth_spread = -1\nnum_users = 8\nnum_servers = 3\n")
    assert main(["simulate", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path / "o.csv")]) == 2
    assert "truth_spread" in capsys.readouterr().err


def test_simulate_psbl_negative_spread_under_channel_truth_exits_2(tmp_path, capsys):
    # psbl reads truth_spread as its true prior's scale under channel truth too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("estimator = psbl\ntruth_spread = -1\nnum_users = 8\nnum_servers = 3\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 2
    assert "truth_spread must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("truth", ["gaussian", "laplace"])
def test_simulate_zero_spread_exits_2(tmp_path, capsys, truth):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"energy_truth = {truth}\nestimator = psbl\ntruth_spread = 0\nnum_users = 8\nnum_servers = 3\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--seeds", "1", "--bound", "--out", str(out)]) == 2
    assert "truth_spread must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_preset_invalid_setting_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mh_burn_in = -1\n")
    out = tmp_path / "o.csv"
    assert main(["simulate", "--preset", "fig8", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 2
    assert "mh_burn_in" in capsys.readouterr().err
    assert not out.exists()


def test_verify_index_grid(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "verify-index",
            "--tau-max", "4",
            "--b-max", "10",
            "--capacity", "2",
            "--e-saving", "1.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,backlog,closed_form,oracle,abs_difference"
    assert len(lines) == 1 + 1 + 4 * 11  # header + (0,0) + tau 1..4 x b 0..10


def test_verify_index_rejects_discount_one(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["verify-index", "--tau-max", "3", "--b-max", "5", "--discount", "1", "--out", str(out)])
    assert code != 0
    assert "discount must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_check_indexability(capsys):
    code = main(["check-indexability", "--configs", "5", "--grid-points", "60", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "5/5 configurations indexable" in out


def test_preset_choices_are_the_presets(tmp_path):
    # zero seeds parse and build each preset's cells without running any
    out = tmp_path / "records.csv"
    for name in PRESETS:
        assert main(["simulate", "--preset", name, "--seeds", "0", "--out", str(out)]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--preset", "fig9", "--seeds", "0", "--out", str(out)])
    assert exit_info.value.code == 2
