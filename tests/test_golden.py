"""CLI outputs stay byte-identical to the committed golden files.

The files under ``data/golden`` were written by ``stlab verify``,
``stlab solve``, ``stlab kernel`` and ``stlab study`` on the configs stored
beside them.  They pin every digit of the deterministic outputs, among them
the per-level hopf trace extrema, the schedule diagnostics of a saturating,
signed solve and the row layout of the kernel table.
"""

import glob
import json
import os

import pytest

from stlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


@pytest.mark.parametrize("command,name", [
    ("verify", "verify_disk"),
    ("solve", "solve_square"),
    ("kernel", "kernel_disk"),
    ("study", "study_interval"),
])
def test_cli_outputs_match_golden(tmp_path, command, name):
    out = tmp_path / command
    assert main([command, "--config", os.path.join(GOLDEN, f"{name}.cfg"), "--out", str(out)]) == 0
    expected_dir = os.path.join(GOLDEN, command)
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected_dir))
    for fname in sorted(os.listdir(expected_dir)):
        with open(os.path.join(expected_dir, fname), "rb") as fh:
            expected = fh.read()
        assert (out / fname).read_bytes() == expected, fname


def test_check_order_leaves_outputs_unchanged(tmp_path, monkeypatch):
    # the inequality suite and hopf share the base grid's operators; a walk
    # level takes the same path whichever check factored its operator first
    outs = []
    for order in ("inequalities,hopf", "hopf,inequalities"):
        monkeypatch.setenv("STL_CHECKS", order)
        outs.append(tmp_path / order.replace(",", "-"))
        assert main(["verify", "--config", os.path.join(GOLDEN, "verify_disk.cfg"),
                     "--out", str(outs[-1])]) == 0
    for fname in ("hopf.csv", "inequalities.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(GOLDEN, "*", "*.json"))),
                         ids=os.path.basename)
def test_golden_json_is_strict(path):
    with open(path, encoding="utf-8") as fh:
        json.load(fh, parse_constant=_reject_constant)
