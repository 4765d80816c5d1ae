"""End-to-end command-line runs, exercised in process through main()."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    args = ["measures", "--state", t_state_file, "--seed", "3", "--out", str(out)]
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


def test_extract_stabilizer_trace(t_state_file, tmp_path):
    out = tmp_path / "x.json"
    assert run(
        ["extract-stabilizer", "--state", t_state_file, "--out", str(out)]
    ) == EXIT_OK
    doc = _read_json(out)
    assert 0.7286 <= doc["overlap"] <= 0.85356
    trace = doc["trace"]
    assert trace["map_search_exhaustive"] is True
    assert trace["final_overlap"] == doc["overlap"]
    assert trace["theoretical_floor_log10"] < -1000


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
    assert run(["measures", "--state", t_state_file, "--out", str(out)]) == EXIT_OK
    assert _read_json(out)["config"]["seed"] == 41


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
    ],
)
def test_bad_arguments_exit_2(argv):
    assert run(argv) == EXIT_USAGE


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_state_file_exits_2(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 1, "amplitudes": [[{bad}, 0.0], [0.0, 0.0]]}}')
    assert run(["gowers", "--state", str(path)]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# The exit-code contract on generated input


CONTRACT_COMMANDS = (
    "charfn", "gowers", "measures", "fidelity", "bell-sim", "tolerant-test",
    "extract-stabilizer",
)
GOOD_FAMILIES = ("basis", "uniform", "haar", "t_tensor")
BAD_FAMILIES = ("stabilizer", "interpolate", "bogus")
BAD_STATE_FILES = ("nan", "wrong_length", "huge_n")


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


@st.composite
def contract_argv(draw):
    """argv for one command and the state file text it reads (or None).

    Half the cases draw every value from its valid range, so that successful
    runs and their JSON are exercised; the rest draw from the wider ranges
    (n in [-1, 8], x0 in [-1, 2^n], shots in [0, 1000], bad families and
    malformed state files)."""
    in_range = draw(st.booleans())
    command = draw(st.sampled_from(CONTRACT_COMMANDS))
    n = draw(st.integers(1, 6) if in_range else st.integers(-1, 8))
    families = GOOD_FAMILIES if in_range else GOOD_FAMILIES + BAD_FAMILIES
    sources = ("family", "valid") + (() if in_range else BAD_STATE_FILES)
    source = draw(st.sampled_from(sources))
    if source == "family":
        if in_range:
            x0 = draw(st.integers(0, (1 << n) - 1))
        else:
            x0 = draw(st.integers(-1, 1 << max(n, 0)))
        state = ["--family", draw(st.sampled_from(families)), "--n", str(n),
                 "--x0", str(x0), "--family-seed", str(draw(st.integers(0, 3)))]
        text = None
    else:
        state = ["--state", "STATE_FILE"]
        text = _state_file_text(source, n, draw(st.integers(0, 3)))
    shots = draw(st.integers(1 if in_range else 0, 1000))
    argv = [command, *state, "--shots", str(shots)]
    if command == "gowers":
        degree = draw(st.integers(1, 3) if in_range else st.integers(0, 4))
        argv += ["--degree", str(degree)]
        argv += ["--direct"] if draw(st.booleans()) else []
    if command == "tolerant-test":
        eps = st.floats(0.01, 1.0) if in_range else st.floats(-0.5, 1.5)
        eps1, eps2 = draw(eps), draw(eps)
        if in_range:
            eps1, eps2 = max(eps1, eps2), min(eps1, eps2)
        argv += [f"--eps1={eps1!r}", f"--eps2={eps2!r}"]
    return argv, text


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=contract_argv())
def test_cli_contract_on_generated_input(tmp_path_factory, case):
    argv, text = case
    work = tmp_path_factory.mktemp("contract")
    state_file, out = work / "state.json", work / "out"
    if text is not None:
        state_file.write_text(text)
    argv = [str(state_file) if a == "STATE_FILE" else a for a in argv]
    code = main(argv + ["--out", str(out)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVARIANT)
    if code != EXIT_OK:
        return
    body = out.read_text()
    if argv[0] in ("charfn", "bell-sim"):
        lines = body.splitlines()
        _strict_json(lines[1].removeprefix("# config="))
        for row in lines[3:]:
            assert all(math.isfinite(float(v)) for v in row.split(","))
    else:
        _strict_json(body)
