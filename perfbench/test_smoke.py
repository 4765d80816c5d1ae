"""Smoke test of the benchmark: every workload at reduced size, untraced and
traced, through the same command line the full benchmark uses.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from workloads import KNOWN_DEFECTS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_names_are_unique_and_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    details, result = json.loads(details_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    metrics = result["metrics"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in expected}
    assert all(NAME.fullmatch(name) for name in metrics)
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())

    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], details["failures"]
    assert details["failures"] == {}
    assert set(details["known_defects"]) <= KNOWN_DEFECTS
    if trace:
        assert details["traced_digest"] == details["digest"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
