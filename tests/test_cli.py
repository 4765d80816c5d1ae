"""End-to-end command-line runs, exercised in process through main()."""

import json
import math
import os
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stab_lab import cli, clifford, witness
from stab_lab.cli import EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from stab_lab.states import FamilySpec, dump_state_json, haar_unit, make_state


def run(args):
    return main(args)


@pytest.fixture
def t_state_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(dump_state_json(make_state(FamilySpec("t_tensor", 1))))
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_charfn_csv_structure(t_state_file, tmp_path):
    out = tmp_path / "table.csv"
    assert run(["charfn", "--state", t_state_file, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "y_bits,alpha_bits,f_value"
    rows = {
        (r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
        for r in lines[3:]
    }
    assert len(rows) == 4
    assert np.isclose(rows[("0", "0")], 1.0)
    assert np.isclose(rows[("1", "0")], 0.5)
    # the run sidecar carries the timestamp, the artifact does not
    assert os.path.exists(str(out) + ".run.json")
    assert "written_at" not in out.read_text()


def test_reruns_are_byte_identical(t_state_file, tmp_path):
    out = tmp_path / "a.json"
    args = ["measures", "--state", t_state_file, "--out", str(out)]
    assert run(args) == EXIT_OK
    first = out.read_bytes()
    assert run(args) == EXIT_OK
    assert out.read_bytes() == first


def test_measures_payload_values(t_state_file, tmp_path):
    out = tmp_path / "m.json"
    assert run(["measures", "--state", t_state_file, "--out", str(out)]) == EXIT_OK
    doc = _read_json(out)
    assert doc["config"]["command"] == "measures"
    rep = doc["report"]
    assert rep["rank"] == 2
    assert np.isclose(rep["gowers3_pow8"], 0.75, atol=1e-10)
    assert np.isclose(rep["fidelity"], math.cos(math.pi / 8) ** 2, atol=1e-10)


def test_gowers_family_input(tmp_path):
    out = tmp_path / "g.json"
    code = run(
        ["gowers", "--family", "t_tensor", "--n", "2", "--out", str(out), "--direct"]
    )
    assert code == EXIT_OK
    doc = _read_json(out)
    assert np.isclose(doc["gowers3_pow8"], 0.5625, atol=1e-10)
    assert np.isclose(doc["direct_pow2d"], 0.5625, atol=1e-9)


def test_rank_and_fidelity_commands(t_state_file, tmp_path):
    out = tmp_path / "r.json"
    assert run(["rank", "--state", t_state_file, "--out", str(out)]) == EXIT_OK
    assert _read_json(out)["rank"] == 2
    out2 = tmp_path / "f.json"
    assert run(["fidelity", "--state", t_state_file, "--out", str(out2)]) == EXIT_OK
    doc = _read_json(out2)
    assert np.isclose(doc["fidelity"], math.cos(math.pi / 8) ** 2, atol=1e-10)
    assert doc["witness"]["n"] == 1


def test_gram_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(
        ["gram-scan", "--k", "2", "--nmax", "2", "--out", str(out)]
    ) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[2] == "k,n,min_lambda,witness,exhaustive,samples"
    row21 = next(r for r in lines[3:] if r.startswith("2,1,"))
    assert np.isclose(float(row21.split(",")[2]), 1 - 1 / math.sqrt(2))


def test_gram_scan_csv_body_k3_nmax2(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["gram-scan", "--k", "3", "--nmax", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[2:] == [
        "k,n,min_lambda,witness,exhaustive,samples",
        "1,1,1.0,0,1,0",
        "2,1,0.2928932188134524,0 2,1,0",
        "3,1,,,1,0",
        "1,2,1.0,0,1,0",
        "2,2,0.2928932188134522,28 36,1,0",
        "3,2,0.13397459621556088,1 44 53,1,0",
    ]


def test_gram_scan_sampled_k_above_state_count(tmp_path):
    # n = 1 has 6 stabilizer states, so k = 7 draws no subset; k = 3..6
    # exceed 2^n and draw subsets that are all singular
    out = tmp_path / "scan.csv"
    assert run(
        ["gram-scan", "--k", "7", "--nmax", "1", "--mode", "sampled",
         "--trials", "5", "--out", str(out)]
    ) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[-2:] == ["6,1,,,0,5", "7,1,,,0,0"]


def test_extract_stabilizer_trace(t_state_file, tmp_path):
    out = tmp_path / "x.json"
    assert run(
        ["extract-stabilizer", "--state", t_state_file, "--out", str(out)]
    ) == EXIT_OK
    doc = _read_json(out)
    assert 0.7286 <= doc["overlap"] <= 0.85356
    trace = doc["trace"]
    vals = trace["stage_values"]
    assert list(vals) == ["affine", "linear", "symmetric", "zero_diagonal"]
    assert len(set(vals.values())) == 1
    assert "map_search_exhaustive" not in trace
    assert trace["final_overlap"] == doc["overlap"]
    assert trace["theoretical_floor_log10"] < -1000


def test_stage_law_failure_exits_3_and_writes_nothing(monkeypatch, capsys, tmp_path):
    def broken(l, t):
        raise witness.PipelineError("zero-diagonal monotonicity failed: 0 < 1")

    cases = [
        # a stage law fails
        ((witness, "zero_diagonal_map", broken), ["--family", "t_tensor", "--n", "2"]),
        # balance exhausts its tries: a basis state is far from balanced
        ((clifford, "BALANCE_TRIES", 0), ["--family", "basis", "--n", "3"]),
    ]
    out = tmp_path / "x.json"
    for patch, state_flags in cases:
        with monkeypatch.context() as m:
            m.setattr(*patch)
            argv = ["extract-stabilizer", *state_flags, "--out", str(out)]
            assert run(argv) == EXIT_INVARIANT
        assert "internal-consistency failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_bell_sim_csv(t_state_file, tmp_path):
    out = tmp_path / "shots.csv"
    assert run(
        ["bell-sim", "--state", t_state_file, "--shots", "50", "--out", str(out)]
    ) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[2] == "y_bits,alpha_bits,same_bit"
    assert len(lines) == 3 + 50
    for row in lines[3:]:
        y, alpha, bit = row.split(",")
        assert set(y) <= {"0", "1"} and set(alpha) <= {"0", "1"}
        assert bit in ("0", "1")


def test_tolerant_test_command(t_state_file, tmp_path):
    out = tmp_path / "d.json"
    code = run(
        [
            "tolerant-test", "--state", t_state_file,
            "--eps1", "0.9", "--eps2", "0.3",
            "--shots", "2000", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    decision = _read_json(out)["decision"]
    assert decision["verdict"] in ("close", "far")
    assert np.isclose(decision["threshold"], 0.9**8 / 2)


def test_tolerant_test_bad_eps_order_exits_2(t_state_file):
    assert run(
        ["tolerant-test", "--state", t_state_file, "--eps1", "0.2", "--eps2", "0.8"]
    ) == EXIT_USAGE


def test_missing_state_file_exits_2(tmp_path):
    assert run(["measures", "--state", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_missing_required_flag_exits_2(t_state_file):
    assert run(["rank-vs-haar", "--state", t_state_file]) == EXIT_USAGE


def test_calibrate_then_rank_vs_haar(tmp_path):
    thresholds = tmp_path / "thr.json"
    code = run(
        [
            "calibrate", "--n", "2", "--k", "1",
            "--corpus-size", "10", "--shots", "300",
            "--out", str(thresholds),
        ]
    )
    assert code == EXIT_OK
    entries = _read_json(thresholds)["entries"]
    assert len(entries) == 1 and entries[0]["n"] == 2 and entries[0]["k"] == 1
    # merge a second row into the same file
    code = run(
        [
            "calibrate", "--n", "1", "--k", "1",
            "--corpus-size", "10", "--shots", "300",
            "--merge-into", str(thresholds), "--out", str(thresholds),
        ]
    )
    assert code == EXIT_OK
    entries = _read_json(thresholds)["entries"]
    assert [(e["n"], e["k"]) for e in entries] == [(1, 1), (2, 1)]
    # use the calibrated file on a stabilizer-family state
    out = tmp_path / "dec.json"
    code = run(
        [
            "rank-vs-haar", "--family", "basis", "--n", "2", "--k", "1",
            "--thresholds", str(thresholds),
            "--shots", "500", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert _read_json(out)["decision"]["verdict"] == "close"


def test_relations_command(tmp_path):
    out = tmp_path / "rel.json"
    assert run(["relations", "--out", str(out)]) == EXIT_OK
    report = _read_json(out)["report"]
    assert report["checks"]["rank1_is_stabilizer"]
    assert len(report["rows"]) == 16


def test_doubling_command(t_state_file, tmp_path):
    out = tmp_path / "dbl.json"
    assert run(
        ["doubling", "--state", t_state_file, "--delta", "0.05", "--out", str(out)]
    ) == EXIT_OK
    doc = _read_json(out)
    assert doc["subset_size"] >= 1
    assert 0 < doc["additive_energy"] <= 1


def test_stdout_emission(capsys, t_state_file):
    assert run(["rank", "--state", t_state_file]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 2


def test_seed_env_default(monkeypatch, tmp_path, t_state_file):
    monkeypatch.setenv("STABLAB_SEED", "41")
    out = tmp_path / "s.json"
    argv = ["extract-stabilizer", "--family", "t_tensor", "--n", "1", "--out", str(out)]
    assert run(argv) == EXIT_OK
    assert _read_json(out)["config"]["seed"] == 41


def test_bad_seed_env_exits_2(monkeypatch):
    monkeypatch.setenv("STABLAB_SEED", "abc")
    assert run(["relations"]) == EXIT_USAGE
    monkeypatch.setenv("STABLAB_SEED", "-1")
    assert run(["extract-stabilizer", "--family", "uniform", "--n", "4"]) == EXIT_USAGE
    # a command without --seed never reads it
    assert run(["rank", "--family", "t_tensor", "--n", "1"]) == EXIT_OK


def test_version_computed_once_per_process(monkeypatch, tmp_path):
    """A run that dirties the tree (calibrate rewriting a tracked thresholds
    file) still records the version its code was loaded at."""
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        stdout = "abc1234\n" if len(calls) == 1 else "abc1234-dirty\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    cli.version_string.cache_clear()
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    try:
        for out in outs:
            argv = ["fidelity", "--family", "t_tensor", "--n", "1", "--out", str(out)]
            assert run(argv) == EXIT_OK
    finally:
        cli.version_string.cache_clear()
    assert len(calls) == 1
    assert [_read_json(out)["version"] for out in outs] == ["abc1234", "abc1234"]


# Each subcommand's full config header (all but "out"), so that no flag's
# default goes missing from the artifacts; an input the command does not take
# is null.
CONFIG_HEADERS = [
    (
        ["charfn", "--family", "t_tensor", "--n", "1"],
        {"command": "charfn", "state_file": None, "family": "t_tensor", "n": 1, "x0": 0,
         "family_seed": 0, "seed": None, "shots": None, "extra": {}},
    ),
    (
        ["gowers", "--family", "t_tensor", "--n", "2"],
        {"command": "gowers", "state_file": None, "family": "t_tensor", "n": 2, "x0": 0,
         "family_seed": 0, "seed": None, "shots": None,
         "extra": {"degree": 3, "direct": False}},
    ),
    (
        ["measures", "--family", "t_tensor", "--n", "1"],
        {"command": "measures", "state_file": None, "family": "t_tensor", "n": 1,
         "x0": 0, "family_seed": 0, "seed": None, "shots": None, "extra": {}},
    ),
    (
        ["rank", "--family", "t_tensor", "--n", "1"],
        {"command": "rank", "state_file": None, "family": "t_tensor", "n": 1, "x0": 0,
         "family_seed": 0, "seed": None, "shots": None, "extra": {"delta": 0.0}},
    ),
    (
        ["fidelity", "--family", "t_tensor", "--n", "1"],
        {"command": "fidelity", "state_file": None, "family": "t_tensor", "n": 1,
         "x0": 0, "family_seed": 0, "seed": None, "shots": None, "extra": {}},
    ),
    (
        ["gram-scan", "--k", "1", "--nmax", "1"],
        {"command": "gram-scan", "state_file": None, "family": None, "n": None,
         "x0": None, "family_seed": None, "seed": 0, "shots": None,
         "extra": {"k": 1, "mode": "exhaustive", "nmax": 1, "trials": 2000}},
    ),
    (
        ["extract-stabilizer", "--family", "t_tensor", "--n", "1"],
        {"command": "extract-stabilizer", "state_file": None, "family": "t_tensor",
         "n": 1, "x0": 0, "family_seed": 0, "seed": 0, "shots": None, "extra": {}},
    ),
    (
        ["bell-sim", "--family", "t_tensor", "--n", "1", "--shots", "5"],
        {"command": "bell-sim", "state_file": None, "family": "t_tensor", "n": 1,
         "x0": 0, "family_seed": 0, "seed": 0, "shots": 5, "extra": {}},
    ),
    (
        ["tolerant-test", "--family", "t_tensor", "--n", "1", "--eps1", "0.9",
         "--eps2", "0.3", "--shots", "100"],
        {"command": "tolerant-test", "state_file": None, "family": "t_tensor", "n": 1,
         "x0": 0, "family_seed": 0, "seed": 0, "shots": 100,
         "extra": {"eps1": 0.9, "eps2": 0.3}},
    ),
    (
        ["rank-vs-haar", "--family", "basis", "--n", "2", "--k", "1",
         "--thresholds", "thr.json", "--shots", "100"],
        {"command": "rank-vs-haar", "state_file": None, "family": "basis", "n": 2,
         "x0": 0, "family_seed": 0, "seed": 0, "shots": 100,
         "extra": {"k": 1, "thresholds": "thr.json"}},
    ),
    (
        ["calibrate", "--n", "1", "--k", "1", "--corpus-size", "2", "--shots", "10"],
        {"command": "calibrate", "state_file": None, "family": None, "n": 1,
         "x0": None, "family_seed": None, "seed": 0, "shots": 10,
         "extra": {"corpus_size": 2, "k": 1}},
    ),
    (
        ["relations"],
        {"command": "relations", "state_file": None, "family": None, "n": None,
         "x0": None, "family_seed": None, "seed": 0, "shots": None, "extra": {}},
    ),
    (
        ["doubling", "--family", "t_tensor", "--n", "1"],
        {"command": "doubling", "state_file": None, "family": "t_tensor", "n": 1,
         "x0": 0, "family_seed": 0, "seed": 0, "shots": None, "extra": {"delta": 0.05}},
    ),
]


@pytest.mark.parametrize(
    "argv, config", CONFIG_HEADERS, ids=[argv[0] for argv, _ in CONFIG_HEADERS]
)
def test_config_header_per_command(tmp_path, monkeypatch, argv, config):
    monkeypatch.delenv("STABLAB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    entries = [{"n": 2, "k": 1, "threshold": 0.5}]
    (tmp_path / "thr.json").write_text(json.dumps({"entries": entries}))
    assert run(argv + ["--out", "a"]) == EXIT_OK
    text = (tmp_path / "a").read_text()
    if argv[0] in ("charfn", "bell-sim", "gram-scan"):
        header = json.loads(text.splitlines()[1].removeprefix("# config="))
    else:
        header = json.loads(text)["config"]
    assert header.pop("out") == "a"
    assert header == config


def test_artifacts_follow_umask(tmp_path):
    out = tmp_path / "a.csv"
    old = os.umask(0o022)
    try:
        code = run(["charfn", "--family", "t_tensor", "--n", "1", "--out", str(out)])
    finally:
        os.umask(old)
    assert code == EXIT_OK
    assert out.stat().st_mode & 0o777 == 0o644
    assert os.stat(str(out) + ".run.json").st_mode & 0o777 == 0o644


@pytest.mark.parametrize(
    "argv",
    [
        ["extract-stabilizer", "--family", "basis", "--n", "2", "--x0", "9"],
        ["gowers", "--family", "interpolate", "--n", "2", "--eps", "0.5"],
        ["gowers", "--family", "stabilizer", "--n", "2"],
        ["measures", "--family", "haar", "--n", "0"],
        ["charfn", "--family", "haar", "--n", "7"],
        ["bell-sim", "--family", "haar", "--n", "2", "--shots", "10000001"],
        ["calibrate", "--n", "2", "--k", "0", "--corpus-size", "2"],
        ["calibrate", "--n", "2", "--k", "1", "--corpus-size", "0"],
        ["relations", "--seed", "-1"],
        ["tolerant-test", "--family", "haar", "--n", "2", "--eps1", "0.9",
         "--eps2", "0.3", "--threshold", "nan"],
        ["tolerant-test", "--family", "haar", "--n", "2", "--eps1=inf",
         "--eps2", "0.3"],
        ["doubling", "--family", "haar", "--n", "2", "--delta", "nan"],
        ["rank", "--family", "haar", "--n", "2", "--delta", "nan"],
        ["gowers", "--family", "haar", "--n", "2", "--eps=-inf"],
        ["gram-scan", "--k", "2", "--nmax", "1", "--mode", "sampled", "--trials", "-5"],
        ["gram-scan", "--k", "2", "--nmax", "1", "--mode", "sampled", "--trials", "0"],
        ["gram-scan", "--k", "2", "--nmax", "1", "--mode", "sampled",
         "--trials", "100001"],
        ["gram-scan", "--k", "0", "--nmax", "1"],
        ["gram-scan", "--k", "2", "--nmax", "0"],
        ["gowers", "--family", "haar", "--n", "5", "--direct"],
        ["charfn", "--family", "t_tensor", "--n", "1", "--shots", "5"],
        ["measures", "--family", "t_tensor", "--n", "1", "--seed", "3"],
        ["rank", "--state", "F", "--family", "haar", "--n", "2"],
        ["fidelity", "--state", "F", "--n", "2"],
        ["rank", "--state", "F", "--x0", "5"],
        ["rank", "--state", "F", "--family-seed", "7"],
        ["gram-scan", "--k", "2", "--nmax", "5", "--mode", "sampled"],
        ["gram-scan", "--k", "9", "--nmax", "2", "--mode", "sampled"],
        ["extract-stabilizer", "--family", "uniform", "--n", "4", "--seed", "-1"],
        ["extract-stabilizer", "--family", "haar", "--n", "4", "--family-seed", "0",
         "--seed", "-1"],
        ["extract-stabilizer", "--family", "uniform", "--n", "2",
         "--family-seed", "-1"],
    ],
)
def test_bad_arguments_exit_2(argv, t_state_file):
    # "F" stands for a valid state file
    assert run([t_state_file if a == "F" else a for a in argv]) == EXIT_USAGE


@pytest.mark.parametrize("delta", ["10", "1e200", "1.7976931348623157e308"])
def test_rank_huge_delta_exits_0(tmp_path, delta):
    # delta^2 overflows a float above about 1.3e154; any delta >= 1 covers
    # the unit state with the first stabilizer alone
    out = tmp_path / "rank.json"
    argv = ["rank", "--family", "haar", "--n", "2", "--delta", delta]
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    doc = _read_json(out)
    assert (doc["rank"], doc["witness"]) == (1, [0])


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_state_file_exits_2(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 1, "amplitudes": [[{bad}, 0.0], [0.0, 0.0]]}}')
    assert run(["gowers", "--state", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("bad", ["1.5", "true", '"2"'])
def test_non_integer_qubit_count_exits_2(tmp_path, capsys, bad):
    # four amplitudes, so only the type of n is wrong
    amps = [[0.5, 0.0]] * 4
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": {bad}, "amplitudes": {json.dumps(amps)}}}')
    assert run(["measures", "--state", str(path)]) == EXIT_USAGE
    assert "qubit count must be a JSON integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The exit-code contract on generated input


CONTRACT_COMMANDS = (
    "charfn", "gowers", "measures", "fidelity", "bell-sim", "tolerant-test",
    "extract-stabilizer",
)
# relations has no input but --seed; a run takes a few tenths of a second
MORE_CONTRACT_COMMANDS = (
    "rank", "doubling", "rank-vs-haar", "gram-scan", "calibrate", "relations",
)
STATE_COMMANDS = CONTRACT_COMMANDS + ("rank", "doubling", "rank-vs-haar")
GOOD_FAMILIES = ("basis", "uniform", "haar", "t_tensor")
BAD_FAMILIES = ("stabilizer", "interpolate", "bogus")
BAD_STATE_FILES = ("nan", "wrong_length", "huge_n")
NON_FINITE = ("nan", "inf", "-inf")
BAD_THRESHOLDS_FILES = (
    "list", "no_entries", "no_k", "nan", "inf", "string", "list_n", "not_json",
    "missing",
)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _state_file_text(kind, n, seed):
    if kind == "huge_n":
        return json.dumps({"n": 10**12, "amplitudes": [[1.0, 0.0]]})
    vec = haar_unit(n, np.random.default_rng(seed)) if 0 <= n <= 8 else np.ones(1)
    amps = [[float(a.real), float(a.imag)] for a in vec]
    if kind == "nan":
        amps[0][0] = float("nan")
    elif kind == "wrong_length":
        amps.append([0.0, 0.0])
    return json.dumps({"n": n, "amplitudes": amps})


def _thresholds_file_text(kind, n, k, threshold):
    """A thresholds file holding one (n, k) entry, or a malformed one
    (None: no file at all)."""
    entry = {"n": n, "k": k, "threshold": threshold}
    if kind == "missing":
        return None
    if kind == "not_json":
        return '{"entries": ['
    if kind == "list":
        return json.dumps([entry])
    if kind == "no_entries":
        return json.dumps({"rows": [entry]})
    if kind == "no_k":
        del entry["k"]
    elif kind in ("nan", "inf"):
        entry["threshold"] = float(kind)
    elif kind == "string":
        entry["threshold"] = str(threshold)
    elif kind == "list_n":
        entry["n"] = [n]
    return json.dumps({"entries": [entry]})


@pytest.mark.parametrize("kind", BAD_THRESHOLDS_FILES)
def test_malformed_thresholds_file_exits_2(tmp_path, kind):
    path = tmp_path / "thresholds.json"
    text = _thresholds_file_text(kind, 2, 1, 0.5)
    if text is not None:
        path.write_text(text)
    assert run(["rank-vs-haar", "--family", "haar", "--n", "2", "--k", "1",
                "--thresholds", str(path)]) == EXIT_USAGE
    if text is not None:  # --merge-into may name a file not yet written
        assert run(["calibrate", "--n", "1", "--k", "1", "--corpus-size", "1",
                    "--shots", "10", "--merge-into", str(path)]) == EXIT_USAGE


def _float_flag(draw, name, lo, hi, in_range):
    """--name=value, from [lo, hi] in range, else from [lo, hi], a wider
    range, or nan and +-inf."""
    kind = 0 if in_range else draw(st.integers(0, 2))
    if kind == 2:
        value = draw(st.sampled_from(NON_FINITE))
    else:
        value = repr(draw(st.floats(lo - kind, hi + kind)))
    return [f"--{name}={value}"]


@st.composite
def contract_argv(draw, commands):
    """argv for one command, the state file text it reads and the thresholds
    file text it reads (each None when unused).

    A quarter of the cases draw every value from its valid range, so that
    successful runs and their output are exercised. A quarter keep the state
    and the sizes valid but draw the float flags and the thresholds file
    from wider sets (nan, +-inf, out of range, malformed files). The other
    half draw everything from the wider ranges (n in [-1, 8], x0 in
    [-1, 2^n], shots in [0, 1000], bad families, malformed state files).
    --seed and --shots go only to the commands whose table entry has them.
    Sizes stay small: gram-scan has --nmax <= 2 and calibrate a corpus of at
    most 3. rank and measures do reach n = 3, where a rank miss scans all
    582k pairs in a few hundredths of a second."""
    mode = draw(st.sampled_from(["valid", "bad_flags", "wild", "wild"]))
    in_range, flags_in_range = mode != "wild", mode == "valid"
    command = draw(st.sampled_from(commands))
    n_max = {"rank": 3, "calibrate": 4}.get(command, 6)
    n = draw(st.integers(1, n_max) if in_range else st.integers(-1, 8))
    flags = cli._COMMANDS[command][2]
    argv = [command]
    if "--shots" in flags:
        argv += ["--shots", str(draw(st.integers(1 if in_range else 0, 1000)))]
    if "--seed" in flags:
        argv += ["--seed", str(draw(st.integers(0 if in_range else -1, 3)))]
    text = thresholds = None
    if command in STATE_COMMANDS:
        families = GOOD_FAMILIES if in_range else GOOD_FAMILIES + BAD_FAMILIES
        sources = ("family", "valid") + (() if in_range else BAD_STATE_FILES)
        source = draw(st.sampled_from(sources))
        if source == "family":
            if in_range:
                x0 = draw(st.integers(0, (1 << n) - 1))
            else:
                x0 = draw(st.integers(-1, 1 << max(n, 0)))
            argv += ["--family", draw(st.sampled_from(families)), "--n", str(n),
                     "--x0", str(x0), "--family-seed", str(draw(st.integers(0, 3)))]
        else:
            argv += ["--state", "STATE_FILE"]
            text = _state_file_text(source, n, draw(st.integers(0, 3)))
    if command == "gowers":
        degree = draw(st.integers(1, 3) if in_range else st.integers(0, 4))
        argv += ["--degree", str(degree)]
        argv += ["--direct"] if draw(st.booleans()) else []
    if command == "tolerant-test":
        if flags_in_range:
            eps2, eps1 = sorted([draw(st.floats(0.01, 1.0)) for _ in range(2)])
            argv += [f"--eps1={eps1!r}", f"--eps2={eps2!r}"]
        else:
            argv += _float_flag(draw, "eps1", 0.01, 1.0, flags_in_range)
            argv += _float_flag(draw, "eps2", 0.01, 1.0, flags_in_range)
        if draw(st.booleans()):
            argv += _float_flag(draw, "threshold", -1.0, 1.0, flags_in_range)
    if command in ("rank", "doubling") and draw(st.booleans()):
        argv += _float_flag(draw, "delta", 0.01, 0.5, flags_in_range)
    k = draw(st.integers(1, 3) if in_range else st.integers(-1, 8))
    if command in ("rank-vs-haar", "calibrate"):
        kinds = ("valid",) + (() if flags_in_range else BAD_THRESHOLDS_FILES)
        thresholds = _thresholds_file_text(
            draw(st.sampled_from(kinds)), n, k, draw(st.floats(-1.0, 1.0))
        )
    if command == "rank-vs-haar":
        argv += ["--k", str(k), "--thresholds", "THRESHOLDS_FILE"]
    if command == "calibrate":
        corpus = draw(st.integers(1 if in_range else -1, 3))
        argv += ["--n", str(n), "--k", str(k), "--corpus-size", str(corpus)]
        if draw(st.booleans()):
            argv += ["--merge-into", "THRESHOLDS_FILE"]
    if command == "gram-scan":
        argv += ["--k", str(k), "--nmax",
                 str(draw(st.integers(1 if in_range else -1, 2))),
                 "--mode", draw(st.sampled_from(["exhaustive", "sampled"])),
                 "--trials", str(draw(st.integers(1 if in_range else -1, 50)))]
    return argv, text, thresholds


def _check_csv(command, body):
    lines = body.splitlines()
    _strict_json(lines[1].removeprefix("# config="))
    for row in lines[3:]:
        if command == "gram-scan":
            lam = row.split(",")[2]
            assert lam == "" or math.isfinite(float(lam))
        else:
            assert all(math.isfinite(float(v)) for v in row.split(","))


def _check_contract(work, case):
    argv, text, thresholds = case
    state_file, thresholds_file = work / "state.json", work / "thresholds.json"
    out = work / "out"
    if text is not None:
        state_file.write_text(text)
    if thresholds is not None:
        thresholds_file.write_text(thresholds)
    names = {"STATE_FILE": str(state_file), "THRESHOLDS_FILE": str(thresholds_file)}
    argv = [names.get(a, a) for a in argv]
    code = main(argv + ["--out", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT)
    if code != EXIT_OK:
        return
    body = out.read_text()
    if argv[0] in ("charfn", "bell-sim", "gram-scan"):
        _check_csv(argv[0], body)
    else:
        _strict_json(body)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=contract_argv(CONTRACT_COMMANDS))
def test_cli_contract_on_generated_input(tmp_path_factory, case):
    _check_contract(tmp_path_factory.mktemp("contract"), case)


@pytest.mark.parametrize("command", CONTRACT_COMMANDS + MORE_CONTRACT_COMMANDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_contract_per_command(tmp_path_factory, command, data):
    case = data.draw(contract_argv((command,)))
    _check_contract(tmp_path_factory.mktemp("contract"), case)
