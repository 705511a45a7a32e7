"""The ETTh1-shaped synthetic CSV, and a run of the paper's context on it."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cvpe.cli import main
from cvpe.data import load_csv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import ett_like  # noqa: E402


def test_the_full_file_has_ett_h1s_layout_and_the_same_bytes_every_time(tmp_path):
    first = ett_like.write_csv(tmp_path / "a.csv")
    second = ett_like.write_csv(tmp_path / "b.csv")
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"
    assert lines[1].startswith("2016-07-01 00:00:00,")
    assert lines[-1].startswith("2018-06-26 19:00:00,")
    series = load_csv(first)
    assert series.values.shape == (7, 17_420)
    assert series.channel_names[-1] == "OT"
    assert np.ptp(series.values, axis=1).min() > 1.0


@pytest.mark.parametrize("where", ["data/ETTh1.csv", "ETTh1.csv"])
def test_it_refuses_the_real_files_name(tmp_path, where, capsys):
    # criterion 9 runs on data/ETTh1.csv when it exists; nothing synthetic
    # may take its place
    target = tmp_path / where
    target.parent.mkdir(parents=True, exist_ok=True)
    assert ett_like.main([str(target)]) == 1
    assert "ETTh1.csv" in capsys.readouterr().err
    assert not target.exists()


def test_experiment_runs_the_papers_context_on_a_cut_down_csv(tmp_path, capsys):
    # configs/etth1_smoke.json's model, context 256 and horizon 96 on the
    # first 1,400 hourly rows, one epoch: load_csv and 30-patch windows end
    # to end
    lines = ett_like.write_csv(tmp_path / "ett_like.csv").read_text().splitlines(keepends=True)
    csv = tmp_path / "cut.csv"
    csv.write_text("".join(lines[:1_401]))
    raw = json.loads((ROOT / "configs" / "etth1_smoke.json").read_text())
    raw["dataset"]["path"] = str(csv)
    raw["split"] = {"boundaries": [600, 1000, 1400]}
    raw["train"]["epochs"] = 1
    config = tmp_path / "run.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--jobs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    cells = json.loads((out / "report.json").read_text())["cells"]
    assert [(c["variant"], c["horizon"], c["status"]) for c in cells] == [
        ("vanilla", 96, "ok"), ("cvpe", 96, "ok")
    ]
    assert all(np.isfinite(c["mse"]) and c["epochs_run"] == 1 for c in cells)
