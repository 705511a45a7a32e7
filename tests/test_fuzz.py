"""Seeded corruption fuzz of the command line: corrupt checkpoints through
``evaluate``, corrupt CSV files through ``prepare`` and mutated configs
through ``prepare``.

Every case must come back from ``main`` as exit 0 or 1 without raising, and
an exit 1 must say why in exactly one line of stderr.  Exit 0 is allowed: a
flip can land in bytes nothing reads (a zip local header's CRC, a CSV
digit), and a mutated config can still be valid.
"""

import copy
import json

import numpy as np
import pytest
from conftest import tiny_raw_config

from cvpe.cli import main
from cvpe.config import parse_config
from cvpe.model import build_model, save_checkpoint

JUNK = (None, -1, 0, 2.5, "x", "", [], [1], {}, {"x": 1}, True, float("nan"), float("inf"), 1e308)

# the tiny config on a shorter series
TINY = tiny_raw_config()
TINY["dataset"]["length"] = 200


def corruptions(data: bytes, n: int, seed: int):
    """``n`` seeded corruptions of ``data``, cycling through a one-bit flip,
    a truncation and an 8-byte overwrite; yields (label, bytes)."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        kind = ("flip", "truncate", "overwrite")[i % 3]
        buf = bytearray(data)
        if kind == "flip":
            at = int(rng.integers(len(buf)))
            buf[at] ^= 1 << int(rng.integers(8))
        elif kind == "truncate":
            at = int(rng.integers(len(buf)))
            del buf[at:]
        else:
            at = int(rng.integers(len(buf) - 8))
            buf[at:at + 8] = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
        yield f"{kind}@{at}", bytes(buf)


def mutations(raw: dict, n: int, seed: int):
    """``n`` seeded mutations of a config: a key deleted, set to junk, or an
    unknown key added, at any depth; yields (label, config)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        out = copy.deepcopy(raw)
        # a random path into the nested sections
        node, path = out, []
        while True:
            key = list(node)[int(rng.integers(len(node)))]
            path.append(key)
            if isinstance(node[key], dict) and rng.random() < 0.6:
                node = node[key]
                continue
            break
        kind = ("delete", "junk", "unknown")[int(rng.integers(3))]
        if kind == "delete":
            del node[key]
        elif kind == "junk":
            node[key] = JUNK[int(rng.integers(len(JUNK)))]
        else:
            node[f"{key}_extra"] = 1
        yield f"{kind} {'.'.join(path)}", out


def run_main(capsys, argv):
    """``main``'s exit code and stderr lines, failing on anything it raises."""
    capsys.readouterr()
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # any escape is the failure
        pytest.fail(f"{argv}: main raised {type(exc).__name__}: {exc}")
    return code, capsys.readouterr().err.splitlines()


def check(label, code, err):
    assert code in (0, 1), f"{label}: exit {code}: {err}"
    if code == 1:
        assert len(err) == 1, f"{label}: {len(err)} stderr lines: {err}"


def test_tiny_config_evaluates_its_own_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY))
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, build_model(parse_config(TINY), "cvpe", 3, 0))
    assert run_main(capsys, ["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt)]) == (0, [])


def test_corrupt_checkpoints_exit_one_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY))
    good = tmp_path / "good.npz"
    save_checkpoint(good, build_model(parse_config(TINY), "cvpe", 3, 0))
    bad = tmp_path / "bad.npz"
    codes = []
    for label, data in corruptions(good.read_bytes(), 150, seed=0):
        bad.write_bytes(data)
        code, err = run_main(capsys, ["evaluate", "--config", str(cfg), "--checkpoint", str(bad)])
        check(label, code, err)
        codes.append(code)
    # nearly every corruption is caught (140 of these 150): zip members carry
    # a CRC, and only flips in bytes nothing reads, such as a local header's
    # copy of the CRC, exit 0
    assert codes.count(1) >= 130


def test_corrupt_csv_files_exit_zero_or_one(tmp_path, capsys):
    rng = np.random.default_rng(1)
    csv = tmp_path / "data.csv"
    rows = "".join(f"t{i},{a:.6f},{b:.6f},{c:.6f}\n" for i, (a, b, c) in enumerate(rng.normal(size=(80, 3))))
    good = f"date,a,b,OT\n{rows}".encode()
    raw = {**TINY, "dataset": {"kind": "csv", "path": str(csv)}}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(raw))
    csv.write_bytes(good)
    assert run_main(capsys, ["prepare", "--config", str(cfg)])[0] == 0
    codes = []
    for label, data in corruptions(good, 90, seed=2):
        csv.write_bytes(data)
        code, err = run_main(capsys, ["prepare", "--config", str(cfg)])
        check(label, code, err)
        codes.append(code)
    assert 1 in codes


def test_mutated_configs_exit_zero_or_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    codes = []
    for label, raw in mutations(TINY, 90, seed=3):
        cfg.write_text(json.dumps(raw))
        code, err = run_main(capsys, ["prepare", "--config", str(cfg)])
        check(label, code, err)
        codes.append(code)
    assert 0 in codes and 1 in codes
