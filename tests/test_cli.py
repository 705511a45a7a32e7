"""Command line entry points, exit codes, and output files."""

import argparse
import concurrent.futures
import json
import os
import struct
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import flip_gradient, tiny_raw_config

from cvpe import cli, evaluation
from cvpe.cli import main
from cvpe.config import parse_config
from cvpe.model import build_model, save_checkpoint

SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env():
    """This environment, with the repository's ``src`` first on the path of
    a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def config_file(tmp_path):
    def write(**overrides):
        raw = tiny_raw_config(**overrides)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        return str(path)

    return write


class TestArgumentHandling:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "prepare" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main([]) == 1
        assert main(["prepare"]) == 1  # missing --config

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["prepare", "--config", str(tmp_path / "none.json")])
        assert code == 1
        assert "no such config" in capsys.readouterr().err

    def test_invalid_config_lists_every_field(self, tmp_path, capsys):
        raw = tiny_raw_config()
        raw["model"]["dim"] = 30  # not divisible by heads=2? it is; force both errors
        raw["model"]["heads"] = 7
        raw["horizons"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["prepare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "model.dim 30 must be divisible by model.heads 7" in err
        assert "horizons must be non-empty" in err

    def test_each_subcommand_takes_exactly_these_options(self):
        # each option has a caller outside the tests: a bundled config's
        # cell, the README or the benchmark; a new one needs such a caller too
        (subcommands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: [o for a in p._actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings]
            for name, p in subcommands.choices.items()
        }
        assert options == {
            "prepare": ["--config"],
            "train": ["--config", "--variant", "--horizon", "--seed", "--out", "--overwrite"],
            "evaluate": ["--config", "--checkpoint"],
            "gradcheck": ["--config", "--variant", "--horizon", "--seed"],
            "experiment": ["--config", "--out", "--overwrite", "--jobs"],
        }


class TestPrepare:
    def test_reports_dataset_split_and_correlations(self, config_file, capsys):
        assert main(["prepare", "--config", config_file()]) == 0
        out = capsys.readouterr().out
        assert "synthetic(n=3, T=400, coupling=0.8, lag=2, noise=0.05, seed=0)" in out
        assert "channels (3): ch0, ch1, OT" in out
        assert "split lengths: train=280 val=40 test=80" in out
        assert "windows @ horizon 3: train=254 val=14 test=54" in out
        assert "train-segment correlation with OT:" in out
        assert "lagged driver mean vs OT (lag 2):" in out

    @pytest.mark.parametrize("header, target, reason", [
        ("a,b", lambda i: i % 7, "no channel named 'OT'"),
        ("a,OT", lambda i: 1, "target channel 'OT' is constant"),
    ], ids=["no_target", "constant_target"])
    def test_data_the_experiment_runs_prepares_without_correlations(
        self, tmp_path, capsys, header, target, reason
    ):
        # the model needs no target that varies, so neither does prepare
        csv = tmp_path / "data.csv"
        rows = "".join(f"t{i},{i % 5},{target(i)}\n" for i in range(300))
        csv.write_text(f"date,{header}\n{rows}")
        raw = tiny_raw_config(dataset={"kind": "csv", "path": str(csv)}, variants=["cvpe"])
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        assert main(["prepare", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "windows @ horizon 3: train=184 val=4 test=34" in out
        assert out.endswith(f"correlations with OT skipped: {reason}\n")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


    def test_a_constant_channel_is_named_in_a_plain_line(self, tmp_path):
        csv = tmp_path / "data.csv"
        rows = "".join(f"t{i},1.0,{i % 7}\n" for i in range(200))
        csv.write_text(f"date,a,OT\n{rows}")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(tiny_raw_config(dataset={"kind": "csv", "path": str(csv)})))
        # a fresh interpreter, so a warning would reach stderr as a user sees it
        done = subprocess.run([sys.executable, "-m", "cvpe", "prepare", "--config", str(path)],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Warning" not in done.stderr
        assert done.stdout.endswith(
            "train-segment correlation with OT:\n"
            "  a            constant on the training segment, not ranked\n"
        )


class TestGradcheck:
    def test_passes_on_healthy_gradients(self, config_file, capsys):
        code = main(["gradcheck", "--config", config_file(), "--variant", "cvpe"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gradient check PASS" in out

    def test_injected_fault_is_caught(self, config_file, capsys, monkeypatch):
        flip_gradient(monkeypatch, "head.b")
        code = main(["gradcheck", "--config", config_file()])
        out = capsys.readouterr().out
        assert code == 3
        assert "gradient check FAIL" in out
        assert f"{'head.b':<28} max_rel_err=1.000e+00" in out

    def test_named_fault_target(self, config_file, capsys, monkeypatch):
        flip_gradient(monkeypatch, "patch_proj.w")
        code = main(["gradcheck", "--config", config_file()])
        out = capsys.readouterr().out
        assert code == 3
        assert "gradient check FAIL" in out
        assert f"{'patch_proj.w':<28} max_rel_err=1.000e+00" in out


class TestTrainAndEvaluate:
    def test_train_writes_checkpoint_and_curve(self, config_file, tmp_path, capsys):
        outdir = tmp_path / "cell"
        code = main(["train", "--config", config_file(), "--out", str(outdir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trained vanilla (horizon 3, seed 0)" in out
        assert "window order digest:" in out
        ckpt = outdir / "model_vanilla_h3_seed0.npz"
        curve = outdir / "loss_vanilla_h3_seed0.csv"
        assert ckpt.exists() and curve.exists()
        lines = curve.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        for line in lines[1:]:
            epoch, train_mse, val_mse = line.split(",")
            float(train_mse), float(val_mse)

        code = main(["train", "--config", config_file(), "--out", str(outdir)])
        assert code == 1
        assert "already exists" in capsys.readouterr().err
        assert (
            main(
                ["train", "--config", config_file(), "--out", str(outdir), "--overwrite"]
            )
            == 0
        )

    def test_train_writes_the_same_loss_curve_bytes_as_the_experiment(self, config_file, tmp_path, capsys):
        cfg = config_file()
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "cell")]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
        name = "loss_vanilla_h3_seed0.csv"
        assert (tmp_path / "cell" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes()

    def test_evaluate_prints_the_experiment_cell_scores(self, config_file, tmp_path, capsys):
        cfg = config_file()
        cell_dir = str(tmp_path / "cell")
        assert main(["train", "--config", cfg, "--variant", "cvpe", "--out", cell_dir]) == 0
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "grid")]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "cell" / "model_cvpe_h3_seed0.npz"
        assert main(["evaluate", "--config", cfg, "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out.splitlines()
        payload = json.loads((tmp_path / "grid" / "report.json").read_text())
        (cell,) = [c for c in payload["cells"] if c["variant"] == "cvpe"]
        assert f"test mse: {cell['mse']:.6f}" in out
        assert f"test mae: {cell['mae']:.6f}" in out

    def test_evaluate_scores_a_checkpoint(self, config_file, tmp_path, capsys):
        outdir = tmp_path / "cell"
        assert main(["train", "--config", config_file(), "--out", str(outdir)]) == 0
        capsys.readouterr()
        ckpt = outdir / "model_vanilla_h3_seed0.npz"
        code = main(["evaluate", "--config", config_file(), "--checkpoint", str(ckpt)])
        out = capsys.readouterr().out
        assert code == 0
        assert "variant: vanilla  horizon: 3" in out
        assert "test mse:" in out and "test mae:" in out

    def test_evaluate_rejects_context_mismatch(self, config_file, tmp_path, capsys):
        outdir = tmp_path / "cell"
        assert main(["train", "--config", config_file(), "--out", str(outdir)]) == 0
        ckpt = outdir / "model_vanilla_h3_seed0.npz"
        other = config_file(context=30)
        assert main(["evaluate", "--config", other, "--checkpoint", str(ckpt)]) == 1
        assert "context" in capsys.readouterr().err

    def test_variant_must_be_configured(self, config_file, capsys):
        cfg = config_file(variants=["cvpe"])
        code = main(["train", "--config", cfg, "--variant", "vanilla", "--out", "x"])
        assert code == 1
        assert "not in configured variants" in capsys.readouterr().err

    def test_paired_variants_report_equal_digests(self, config_file, tmp_path, capsys):
        digests = {}
        for variant in ("vanilla", "cvpe"):
            outdir = tmp_path / variant
            assert (
                main(
                    [
                        "train",
                        "--config",
                        config_file(),
                        "--variant",
                        variant,
                        "--out",
                        str(outdir),
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("window order digest:"))
            digests[variant] = line.split(":", 1)[1].strip()
        assert digests["vanilla"] == digests["cvpe"]


class TestExperiment:
    def test_writes_report_files_and_table(self, config_file, tmp_path, capsys):
        outdir = tmp_path / "exp"
        code = main(["experiment", "--config", config_file(), "--out", str(outdir)])
        out = capsys.readouterr().out
        assert code == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "config.json",
            "loss_cvpe_h3_seed0.csv",
            "loss_vanilla_h3_seed0.csv",
            "report.json",
            "report.txt",
        ]
        assert "cross-variate vs vanilla mean MSE improvement" in out
        assert f"report written to {outdir}" in out
        payload = json.loads((outdir / "report.json").read_text())
        assert {c["variant"] for c in payload["cells"]} == {"vanilla", "cvpe"}

    def test_refuses_to_clobber_then_overwrites(self, config_file, tmp_path, capsys):
        outdir = tmp_path / "exp"
        assert main(["experiment", "--config", config_file(), "--out", str(outdir)]) == 0
        capsys.readouterr()
        assert main(["experiment", "--config", config_file(), "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {outdir / 'config.json'} already exists; pass --overwrite to replace\n"
        )
        assert (
            main(
                [
                    "experiment",
                    "--config",
                    config_file(),
                    "--out",
                    str(outdir),
                    "--overwrite",
                ]
            )
            == 0
        )

    def test_output_dir_env_override_and_flag_priority(
        self, config_file, tmp_path, monkeypatch, capsys
    ):
        # the outputs go to --out, else to runs/<config file name>; no
        # config key or environment variable chooses the directory
        cfg = config_file(variants=["vanilla"], train={"epochs": 1, "batch_size": 16})
        envdir = tmp_path / "envout"
        monkeypatch.setenv("CVPE_OUTPUT_DIR", str(envdir))
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "--config", cfg]) == 0
        assert (tmp_path / "runs" / "run" / "report.json").exists()
        flagdir = tmp_path / "flagout"
        assert main(["experiment", "--config", cfg, "--out", str(flagdir)]) == 0
        assert (flagdir / "report.json").exists()
        assert not envdir.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_grid_exits_two(self, config_file, tmp_path, capsys):
        cfg = config_file(train={"epochs": 2, "batch_size": 16, "lr": 1e150})
        outdir = tmp_path / "boom"
        with np.errstate(all="ignore"):
            code = main(["experiment", "--config", cfg, "--out", str(outdir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cell failed" in captured.err
        # the report still lands on disk for post-mortems
        assert (outdir / "report.json").exists()

    def test_validation_divergence_exits_two(self, config_file, tmp_path, capsys, monkeypatch):
        real = evaluation.prepare_segments

        def blown(config):
            # the last step is only a target; its squared error overflows
            train_s, val_s, test_s = real(config)
            values = val_s.values.copy()
            values[:, -1] = 1e200
            return train_s, replace(val_s, values=values), test_s

        monkeypatch.setattr(evaluation, "prepare_segments", blown)
        with np.errstate(over="ignore"):
            code = main(["experiment", "--config", config_file(), "--out", str(tmp_path / "val")])
        assert code == 2
        assert "non-finite validation loss at epoch 0" in capsys.readouterr().err

    def test_parallel_grid_writes_the_same_bytes_as_serial(self, config_file, tmp_path, capsys):
        cfg = config_file(seeds=[0, 1])
        dirs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, outdir in dirs.items():
            assert main(["experiment", "--config", cfg, "--out", str(outdir), "--jobs", str(jobs)]) == 0
        names = sorted(p.name for p in dirs[1].iterdir())
        assert names == sorted(p.name for p in dirs[2].iterdir())
        assert len(names) == 7  # config, two reports, four loss curves
        for name in names:
            assert (dirs[1] / name).read_bytes() == (dirs[2] / name).read_bytes(), name


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool started, in order; the
    pools run their cells in this process, so no worker is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # run_experiment imports the pool where it starts it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_train_and_experiment_write_into_runs_and_the_config_file_name(tmp_path, monkeypatch, capsys):
    # as configs/synthetic_ab.json writes into runs/synthetic_ab, under the
    # working directory
    cfg = tmp_path / "configs" / "grid.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps(tiny_raw_config(variants=["vanilla"], train={"epochs": 1, "batch_size": 16})))
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    # the experiment replaces the cell's loss curve
    assert main(["experiment", "--config", str(cfg), "--overwrite"]) == 0
    out = capsys.readouterr().out
    assert f"checkpoint: {Path('runs', 'grid', 'model_vanilla_h3_seed0.npz')}\n" in out
    assert out.endswith(f"report written to {Path('runs', 'grid')}\n")
    assert sorted(p.name for p in (tmp_path / "runs" / "grid").iterdir()) == [
        "config.json", "loss_vanilla_h3_seed0.csv", "model_vanilla_h3_seed0.npz", "report.json", "report.txt",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["configs", "runs"]


def test_pool_never_starts_more_workers_than_cells(pool_sizes):
    config = parse_config(tiny_raw_config())  # one horizon, one seed, two variants
    report = evaluation.run_experiment(config, jobs=500)
    assert [r.status for r in report.rows] == ["ok", "ok"]
    assert pool_sizes == [2]


def test_a_data_error_in_a_parallel_grid_starts_no_pool(tmp_path, pool_sizes):
    config = parse_config(json.loads(_csv_config(tmp_path, "oops")))
    with pytest.raises(ValueError, match="non-numeric value 'oops'"):
        evaluation.run_experiment(config, jobs=2)
    assert pool_sizes == []


def test_importing_the_cli_loads_no_process_pool():
    # only a --jobs run starts a pool; a fresh interpreter shows what loads
    code = "import sys, cvpe.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert done.stdout.strip() == "False", done.stderr


def _die(*args):
    os._exit(9)


def test_dead_worker_exits_two_with_one_line(config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(evaluation, "run_cell", _die)
    outdir = tmp_path / "dead"
    code = main(["experiment", "--config", config_file(), "--out", str(outdir), "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("runtime failure: ")
    assert err.count("\n") == 1
    assert not outdir.exists()


def _checkpoint(tmp_path, entry=None, edit=None, raw=None):
    """A saved model's path, without the archive entry ``entry``, with the
    structure that ``edit`` returns for the saved one, or with the bytes
    ``raw`` as its structure."""
    path = tmp_path / "model.npz"
    save_checkpoint(path, build_model(parse_config(tiny_raw_config()), "vanilla", 3, 0))
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files if k != entry}
    if edit:
        struct = edit(json.loads(arrays["__structure__"].tobytes().decode()))
        arrays["__structure__"] = np.frombuffer(json.dumps(struct).encode(), dtype=np.uint8)
    if raw is not None:
        arrays["__structure__"] = np.frombuffer(raw, dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return str(path)


def _flipped_member(tmp_path, member, at):
    """A saved model's path with one bit flipped in the stored bytes of the
    archive member ``member``: ``at`` bytes into them, or from their end if
    negative.  Only the member's CRC tells the archive that anything moved."""
    path = Path(_checkpoint(tmp_path))
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    data = bytearray(path.read_bytes())
    # the local header is 30 bytes plus the name and extra field lengths it stores
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + at % info.compress_size] ^= 0x01
    path.write_bytes(bytes(data))
    return str(path)


def _rewritten_member(tmp_path, member, edit):
    """A saved model's path whose archive member ``member`` holds the bytes
    ``edit`` returns for its own, stored with a matching CRC."""
    path = Path(_checkpoint(tmp_path))
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    members[member] = edit(members[member])
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return str(path)


def _csv_config(tmp_path, cell):
    csv = tmp_path / "data.csv"
    rows = "".join(f"t{i},{i},1\n" for i in range(50))
    csv.write_text(f"date,a,OT\n{rows}t50,{cell},1\n")
    return json.dumps(tiny_raw_config(dataset={"kind": "csv", "path": str(csv)}))


def _not_an_archive(tmp_path, content):
    path = tmp_path / "model.npz"
    if content == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        path.write_text(content)
    return str(path)


def _gradcheck_tiny():
    # its 200 steps split 140/20/40: too short a validation segment for one
    # window, although the training segment holds one
    return (Path(__file__).resolve().parent.parent / "configs" / "gradcheck_tiny.json").read_text()


def _with_hidden(hidden):
    raw = tiny_raw_config()
    raw["model"]["backbone"]["hidden"] = hidden
    return json.dumps(raw)


def _with(section, key, value):
    # json.dumps writes a non-finite float as NaN or Infinity, as json reads them
    raw = tiny_raw_config()
    raw[section][key] = value
    return json.dumps(raw)


def _with_protocol(protocol):
    return json.dumps(tiny_raw_config(split={"protocol": protocol}))


def _out_holding(tmp_path, name):
    """An output directory in which ``name``, a file the command writes, is
    a directory."""
    (tmp_path / "out" / name).mkdir(parents=True)
    return str(tmp_path / "out")


def _never(*args, **kwargs):
    raise AssertionError("trained although an output file is a directory")


# every file ``cvpe experiment`` writes for tiny_raw_config's grid
_EXPERIMENT_FILES = [
    "config.json", "report.json", "report.txt", "loss_vanilla_h3_seed0.csv", "loss_cvpe_h3_seed0.csv",
]


@pytest.mark.parametrize("name", _EXPERIMENT_FILES)
def test_experiment_checks_its_output_files_before_training(name, config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _never)
    out = _out_holding(tmp_path, name)
    assert main(["experiment", "--config", config_file(), "--overwrite", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{Path(out) / name}'\n"
    assert [p.name for p in Path(out).iterdir()] == [name]


@pytest.mark.parametrize("name", _EXPERIMENT_FILES)
def test_experiment_refuses_any_one_of_its_files_without_overwrite(name, config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _never)
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_text("kept")
    assert main(["experiment", "--config", config_file(), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out / name} already exists; pass --overwrite to replace\n"
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text() == "kept"


def test_experiment_runs_beside_files_it_does_not_write(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    others = ["model_vanilla_h3_seed0.npz", "loss_vanilla_h3_seed1.csv", "notes.txt"]
    for name in others:
        (out / name).write_text("kept")
    assert main(["experiment", "--config", config_file(), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*_EXPERIMENT_FILES, *others])
    assert all((out / name).read_text() == "kept" for name in others)


def test_train_refuses_an_existing_loss_curve_without_overwrite(config_file, tmp_path, capsys, monkeypatch):
    # an experiment's curve of the same cell, which a 1-epoch cell would replace
    monkeypatch.setattr(cli, "train_cell", _never)
    out = tmp_path / "out"
    out.mkdir()
    curve = out / "loss_vanilla_h3_seed0.csv"
    curve.write_text("kept")
    argv = ["train", "--config", config_file(), "--variant", "vanilla", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {curve} already exists; pass --overwrite to replace\n"
    assert [p.name for p in out.iterdir()] == [curve.name]
    assert curve.read_text() == "kept"


def test_an_empty_memory_error_is_reported_as_out_of_memory(config_file, capsys, monkeypatch):
    # Python's own MemoryError, as a huge layer count meets it, has no message
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_model", exhausted)
    assert main(["gradcheck", "--config", config_file()]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("name", ["model_vanilla_h3_seed0.npz", "loss_vanilla_h3_seed0.csv"])
def test_train_checks_its_output_files_before_training(name, config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "train_cell", _never)
    out = _out_holding(tmp_path, name)
    argv = ["train", "--config", config_file(), "--variant", "vanilla", "--overwrite", "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: '{Path(out) / name}'\n"
    assert [p.name for p in Path(out).iterdir()] == [name]


def _under_a_file(tmp_path):
    (tmp_path / "file").touch()
    return str(tmp_path / "file" / "sub")


# case: (builder of (config text or bytes, subcommand and flags), text stderr
# must show)
_GOOD = json.dumps(tiny_raw_config())
_INPUT_FAILURES = {
    "bad_json": (lambda t: ("{not json", ["prepare"]), "not valid JSON"),
    "binary_config": (lambda t: (b"\xff\xfe\x00{", ["prepare"]), "can't decode"),
    "nan_csv_cell": (lambda t: (_csv_config(t, "nan"), ["prepare"]), "non-finite value 'nan'"),
    "text_csv_cell": (lambda t: (_csv_config(t, "oops"), ["prepare"]), "'oops'"),
    "csv_field_over_the_size_limit": (
        lambda t: (_csv_config(t, "1" * 200_000), ["prepare"]),
        "error: field larger than field limit (131072) (row 51)"),
    # nesting too deep for the JSON parser
    "config_nested_too_deep": (
        lambda t: ("[" * 10_000, ["prepare"]), "config is not valid JSON: maximum recursion depth"),
    # sizes over a 47-bit address space, which numpy refuses up front
    "dataset_length_unallocatable": (
        lambda t: (_with("dataset", "length", 10**15), ["prepare"]), "error: Unable to allocate"),
    "model_dim_unallocatable": (
        lambda t: (_with("model", "dim", 2 * 10**13), ["gradcheck"]), "error: Unable to allocate"),
    # the whole (epochs, windows) schedule is allocated before the first draw
    "train_epochs_unallocatable": (
        lambda t: (_with("train", "epochs", 10**12), ["train", "--out", "new/out"]),
        "error: Unable to allocate 1.80 PiB for an array with shape (1000000000000, 254)"),
    "jobs_zero": (lambda t: (_GOOD, ["experiment", "--jobs", "0"]), "jobs must be positive"),
    "gradcheck_batch_zero": (
        lambda t: (_GOOD, ["gradcheck", "--batch", "0"]), "unrecognized arguments: --batch 0"),
    # numpy's "expected non-negative integer" would name neither the flag nor the value
    "train_seed_not_configured": (
        lambda t: (_GOOD, ["train", "--seed", "-1", "--out", "new/out"]),
        "invalid configuration: seed -1 not in configured seeds (0,)\n"),
    "lr_nan": (
        lambda t: (_with("train", "lr", float("nan")), ["experiment", "--out", "new/out"]),
        "train.lr must be finite"),
    "lr_infinity": (
        lambda t: (_with("train", "lr", float("inf")), ["experiment", "--out", "new/out"]),
        "train.lr must be finite"),
    "noise_std_infinity": (
        lambda t: (_with("dataset", "noise_std", float("inf")), ["experiment", "--out", "new/out"]),
        "dataset.noise_std must be finite"),
    # a split is a protocol name or {"boundaries": [...]}, whatever a
    # "protocol" key holds
    "split_protocol_is_a_list": (
        lambda t: (_with_protocol(["x"]), ["prepare"]), "unknown field 'split.protocol'"),
    "split_protocol_is_an_object": (
        lambda t: (_with_protocol({"x": 1}), ["prepare"]), "unknown field 'split.protocol'"),
    # the output directory is --out, else runs/<config file name>
    "output_dir_key": (
        lambda t: (json.dumps(tiny_raw_config(output_dir="runs/x")), ["experiment"]),
        "invalid configuration: unknown field 'output_dir'\n"),
    # the test segment's end is given, not taken from the series
    "split_two_boundaries": (
        lambda t: (json.dumps(tiny_raw_config(split={"boundaries": [280, 320]})), ["prepare"]),
        "invalid configuration: split.boundaries must be a list of 3 integers\n"),
    "target_select_top_k_and_split_protocol_keys": (
        lambda t: (json.dumps(tiny_raw_config(
            target="OT", select_top_k=1, split={"protocol": "ratio_70_10_20"})), ["prepare"]),
        "invalid configuration: unknown field 'target'; unknown field 'select_top_k'; "
        "unknown field 'split.protocol'; missing required field 'split.boundaries'\n"),
    "backbone_hidden_zero": (
        lambda t: (_with_hidden(0), ["gradcheck"]), "model.backbone.hidden must be positive"),
    "backbone_hidden_negative": (
        lambda t: (_with_hidden(-3), ["gradcheck"]), "model.backbone.hidden must be positive"),
    "checkpoint_is_a_directory": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", str(t)]), "is a directory"),
    "checkpoint_without_structure": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _checkpoint(t, entry="__structure__")]),
        "no __structure__"),
    "checkpoint_is_an_npy_array": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _not_an_archive(t, "npy")]),
        "not a saved .npz archive"),
    "checkpoint_is_text": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _not_an_archive(t, "weights")]),
        "not a saved .npz archive"),
    "checkpoint_structure_lacks_a_field": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint",
                           _checkpoint(t, edit=lambda s: {k: s[k] for k in s if k != "context"})]),
        "lacks field 'context'"),
    "checkpoint_structure_is_a_list": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _checkpoint(t, edit=list)]),
        "structure is not a JSON object"),
    "checkpoint_structure_field_is_text": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint",
                           _checkpoint(t, edit=lambda s: {**s, "context": "abc"})]),
        "field 'context' must be int"),
    "checkpoint_structure_is_not_json": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _checkpoint(t, raw=b"{oops")]),
        "model.npz: unreadable __structure__"),
    "checkpoint_structure_nested_too_deep": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _checkpoint(t, raw=b"[" * 100_000)]),
        "model.npz: unreadable __structure__ entry: maximum recursion depth"),
    "checkpoint_structure_is_not_utf8": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _checkpoint(t, raw=b"\xff\xfe")]),
        "model.npz: unreadable __structure__"),
    "checkpoint_structure_hidden_is_zero": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint",
                           _checkpoint(t, edit=lambda s: {**s, "backbone_hidden": 0})]),
        "hidden must be positive"),
    "checkpoint_structure_field_is_null": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint",
                           _checkpoint(t, edit=lambda s: {**s, "heads": None})]),
        "field 'heads' must be int"),
    # np.load reads only the zip directory; a member is checked as it is read
    "checkpoint_parameter_fails_its_crc": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _flipped_member(t, "patch_proj.w.npy", -1)]),
        "model.npz: unreadable entry 'patch_proj.w': Bad CRC-32"),
    # an unclosed bracket in the .npy header, which numpy's header parser
    # meets as a tokenize.TokenError
    "checkpoint_parameter_header_is_corrupt": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _rewritten_member(
            t, "head.w.npy", lambda b: b.replace(b"), }", b"(, }", 1))]),
        "model.npz: unreadable entry 'head.w': ('EOF in multi-line statement'"),
    "checkpoint_structure_fails_its_crc": (
        lambda t: (_GOOD, ["evaluate", "--checkpoint", _flipped_member(t, "__structure__.npy", -1)]),
        "model.npz: unreadable entry '__structure__': Bad CRC-32"),
    "experiment_out_under_a_file": (
        lambda t: (_GOOD, ["experiment", "--out", _under_a_file(t)]), "cannot use"),
    "train_out_under_a_file": (
        lambda t: (_GOOD, ["train", "--out", _under_a_file(t)]), "cannot use"),
    # the data error comes after the output directory was made
    "experiment_nan_csv_cell_new_out": (
        lambda t: (_csv_config(t, "nan"), ["experiment", "--out", "new/out"]),
        "non-finite value 'nan'"),
    "experiment_validation_segment_too_short": (
        lambda t: (_gradcheck_tiny(), ["experiment", "--out", "new/out"]),
        "error: validation segment of 20 steps too short for context 28 plus horizon 4"),
    # the data is read before the pool starts its workers
    "experiment_nan_csv_cell_jobs_2": (
        lambda t: (_csv_config(t, "nan"), ["experiment", "--out", "new/out", "--jobs", "2"]),
        "non-finite value 'nan'"),
    "train_nan_csv_cell_new_out": (
        lambda t: (_csv_config(t, "nan"), ["train", "--out", "new/out"]),
        "non-finite value 'nan'"),
    # a file a command reads or writes that is a directory: the last
    # --config given is the one argparse keeps
    "config_is_a_directory": (
        lambda t: (_GOOD, ["prepare", "--config", str(t)]), "error: [Errno 21] Is a directory"),
    "csv_path_is_a_directory": (
        lambda t: (json.dumps(tiny_raw_config(dataset={"kind": "csv", "path": str(t)})), ["prepare"]),
        "error: [Errno 21] Is a directory"),
    "train_overwrite_checkpoint_is_a_directory": (
        lambda t: (_GOOD, ["train", "--variant", "vanilla", "--overwrite",
                           "--out", _out_holding(t, "model_vanilla_h3_seed0.npz")]),
        "error: [Errno 21] Is a directory"),
    "experiment_overwrite_loss_curve_is_a_directory": (
        lambda t: (_GOOD, ["experiment", "--overwrite", "--out", _out_holding(t, "loss_cvpe_h3_seed0.csv")]),
        "error: [Errno 21] Is a directory"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_FAILURES))
def test_input_problems_exit_one_without_a_traceback(case, tmp_path):
    # a fresh interpreter, so a traceback would reach stderr as a user sees it
    build, expected = _INPUT_FAILURES[case]
    text, argv = build(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    done = subprocess.run(
        [sys.executable, "-m", "cvpe", argv[0], "--config", str(cfg), *argv[1:]],
        capture_output=True, text=True, env=_src_env(), cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert expected in done.stderr, done.stderr
    # a failed command leaves no output directory of its own making behind
    assert not (tmp_path / "new").exists()
