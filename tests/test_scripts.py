"""The scripts under scripts/, each run as a fresh process."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_interpolation_sweep_smoke():
    proc = _run_script(
        "interpolation_sweep.py", "--n", "2", "--seeds", "1", "--steps", "2"
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["eps", "mean", "overlap", "mean", "fidelity"]
    assert len(rows) == 2


def test_interpolation_sweep_rejects_n_above_cap():
    proc = _run_script("interpolation_sweep.py", "--n", "5")
    assert proc.returncode == 2
    assert "--n must be in 1..4" in proc.stderr


@pytest.mark.parametrize(
    "flag, value, message",
    [("--seeds", "0", "--seeds must be >= 1"), ("--steps", "-1", "--steps must be >= 1")],
)
def test_interpolation_sweep_rejects_empty_sweeps(flag, value, message):
    proc = _run_script("interpolation_sweep.py", "--n", "2", flag, value)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_relations_report_rejects_negative_seed():
    proc = _run_script("relations_report.py", "--seed", "-1")
    assert proc.returncode == 2
    assert "--seed must be >= 0" in proc.stderr
