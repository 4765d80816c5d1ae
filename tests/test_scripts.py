"""The scripts under scripts/, each run as a fresh process."""

import importlib.util
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_synthetic_runs():
    end_to_end = [
        {"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
    parent = [
        {"items_per_s": 100.0 + i, "peak_rss_mb": 60.0 + i / 10, "setup_s": 0.10}
        for i in range(10)
    ]
    change = [
        {"items_per_s": 120.0 + i, "peak_rss_mb": 63.5 + i / 10, "setup_s": 0.10}
        for i in range(10)
    ]
    change[3]["items_per_s"] = 99.0  # one lost pair still allows the claim
    bench = _bench_pairs()
    rows = {r["name"]: r for r in bench.summarize(end_to_end, parent, change)}
    rate, rss, setup = rows["items_per_s"], rows["peak_rss_mb"], rows["setup_s"]
    assert rate["parent"] == (102.25, 104.5, 106.75)
    assert (rate["wins"], rate["pairs"]) == (9, 10)
    assert rate["claim_holds"] and rate["within_bound"]
    # 3.5 MB worse on a 60.45 MB median: +5.8 %, past the 5 % bound
    assert rss["wins"] == 0 and not rss["claim_holds"] and not rss["within_bound"]
    # ties win nothing and claim nothing, but stay within the bound
    assert setup["wins"] == 0 and not setup["claim_holds"] and setup["within_bound"]
    change[4]["items_per_s"] = 98.0  # 8 of 10 wins: too few to claim
    rows = bench.summarize(end_to_end[:1], parent, change)
    assert rows[0]["wins"] == 8 and not rows[0]["claim_holds"]
    text = bench.format_summary(rows)
    assert "items_per_s" in text and " 8/10" in text
    # held outputs: peak_rss_mb = 60 + 0.024 passes over every run, so the
    # fit reads 0.024 * 1024 KB a pass and 50 extra passes 1.2 MB
    passes = {"parent": [300 + 2 * i for i in range(10)], "change": [350 + 2 * i for i in range(10)]}
    rss = {side: [60 + 0.024 * p for p in v] for side, v in passes.items()}
    medians, kb, extra = bench.held_outputs(passes, rss)
    assert medians == {"parent": 309, "change": 359}
    assert kb == pytest.approx(24.576) and extra == pytest.approx(1.2)
    text = bench.format_held_outputs(medians, kb, extra)
    assert "parent median 309, change median 359" in text
    assert "24.6 KB a pass" in text and "+1.20 MB" in text
    same = {side: [300] * 10 for side in passes}
    medians, kb, extra = bench.held_outputs(same, rss)
    assert kb is None and "not fitted" in bench.format_held_outputs(medians, kb, extra)


def test_bench_pairs_refuses_bytecode(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    proc = _run_script(
        "bench_pairs.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "extraction", "--seed", "1",
    )
    assert proc.returncode == 2
    assert "holds a __pycache__" in proc.stderr
