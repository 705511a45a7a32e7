"""The bar by which the grid comparison tool accepts a change's report."""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import grid_diff  # noqa: E402


def _cell(variant, seed, mse, mae, best_epoch=3, epochs_run=9):
    history = [{"epoch": e, "train_mse": 2.0 / (e + 1), "val_mse": 3.0 / (e + 1)}
               for e in range(epochs_run)]
    return {"variant": variant, "horizon": 8, "seed": seed, "status": "ok",
            "mse": mse, "mae": mae, "best_epoch": best_epoch, "epochs_run": epochs_run,
            "window_order_digest": f"digest{seed}", "history": history}


REPORT = {"cells": [_cell("vanilla", 0, 3.7598, 1.51), _cell("cvpe", 0, 3.8215, 1.53),
                    _cell("vanilla", 1, 3.7175, 1.49), _cell("cvpe", 1, 3.9308, 1.55)]}


def _changed(edit):
    report = copy.deepcopy(REPORT)
    edit(report["cells"])
    return report


def test_identical_reports_pass_with_no_difference():
    diffs, problems = grid_diff.compare_reports(REPORT, copy.deepcopy(REPORT))
    assert problems == []
    assert sorted(diffs) == sorted((c["variant"], 8, c["seed"]) for c in REPORT["cells"])
    assert set(diffs.values()) == {0.0}


def test_a_move_below_the_bar_passes_and_is_reported():
    change = _changed(lambda cells: cells[1].update(mse=cells[1]["mse"] * (1 + 1e-12)))
    diffs, problems = grid_diff.compare_reports(REPORT, change)
    assert problems == []
    assert diffs[("cvpe", 8, 0)] == pytest.approx(1e-12, rel=1e-3)


@pytest.mark.parametrize("field", ["mse", "mae"])
def test_a_move_above_the_bar_fails_naming_cell_and_field(field):
    change = _changed(lambda cells: cells[2].update({field: cells[2][field] * (1 + 1e-9)}))
    _, problems = grid_diff.compare_reports(REPORT, change)
    assert len(problems) == 1
    assert problems[0].startswith(f"cell ('vanilla', 8, 1): {field} ")


def test_a_flipped_best_epoch_fails():
    change = _changed(lambda cells: cells[0].update(best_epoch=4))
    _, problems = grid_diff.compare_reports(REPORT, change)
    assert problems == ["cell ('vanilla', 8, 0): best_epoch 3 -> 4"]


def test_a_changed_error_text_fails():
    def fail(stage):
        return lambda cells: cells[1].update(
            status="failed", error=f"NumericError: non-finite value in stage '{stage}'")
    parent = _changed(fail("reprogramming"))
    _, problems = grid_diff.compare_reports(parent, _changed(fail("backbone")))
    assert problems == ["cell ('cvpe', 8, 0): error "
                        "\"NumericError: non-finite value in stage 'reprogramming'\" -> "
                        "\"NumericError: non-finite value in stage 'backbone'\""]
    assert grid_diff.compare_reports(parent, copy.deepcopy(parent))[1] == []


def test_a_missing_cell_fails():
    change = _changed(lambda cells: cells.pop(3))
    diffs, problems = grid_diff.compare_reports(REPORT, change)
    assert problems == ["cell ('cvpe', 8, 1) only in the parent report"]
    assert len(diffs) == 3


@pytest.mark.parametrize("field", ["train_mse", "val_mse"])
def test_a_history_move_above_the_bar_fails_naming_cell_epoch_and_field(field):
    change = _changed(lambda cells: cells[3]["history"][5].update(
        {field: cells[3]["history"][5][field] * (1 + 1e-8)}))
    diffs, problems = grid_diff.compare_reports(REPORT, change)
    assert len(problems) == 1
    assert problems[0].startswith(f"cell ('cvpe', 8, 1): epoch 5 {field} ")
    assert diffs[("cvpe", 8, 1)] == pytest.approx(1e-8, rel=1e-3)


def test_a_history_move_below_the_bar_passes_and_is_reported():
    change = _changed(lambda cells: cells[0]["history"][2].update(
        val_mse=cells[0]["history"][2]["val_mse"] * (1 + 1e-14)))
    diffs, problems = grid_diff.compare_reports(REPORT, change)
    assert problems == []
    assert 0.0 < diffs[("vanilla", 8, 0)] < 1e-13


def test_a_file_only_one_run_wrote_fails():
    parent = ["config.json", "loss_cvpe_h8_seed0.csv", "report.json", "report.txt"]
    change = ["report.txt", "report.json", "config.json", "loss_cvpe_h8_seed1.csv"]
    assert grid_diff.compare_file_names(parent, change) == [
        "file loss_cvpe_h8_seed0.csv only in the parent run",
        "file loss_cvpe_h8_seed1.csv only in the change run",
    ]
    assert grid_diff.compare_file_names(parent, parent[::-1]) == []
