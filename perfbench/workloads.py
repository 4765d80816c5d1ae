"""Workload corpora, items and oracle checks for the stab-lab benchmark.

A workload is one pass: a list of items in a fixed order that depends only
on the seed. The benchmark repeats the pass, timing each item, and checks the
outputs afterwards. Every item carries three callables:

    call()        the timed work; returns the program's output
    check(out)    names of the oracle checks the output fails (untimed)
    canon(out)    a canonical string of the output, for the digest

Items call the library through module attributes (`measures.gowers3`), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from stab_lab import charfn, clifford, gf2, measures, states, tester, witness

SHOTS = 10_000
SAMPLING_TOL = 5 / math.sqrt(SHOTS)  # five standard errors of R-hat
EXACT_TOL = 1e-9
RESIDUAL_TOL = 1e-6

# Defects listed in ROADMAP item 5 that the inputs hit. They are counted and
# reported by name, and do not make a run incorrect.
KNOWN_DEFECTS = frozenset({"measures_rank_lower_bound"})

CLI_COMMANDS = (
    "charfn",
    "gowers",
    "measures",
    "extract-stabilizer",
    "bell-sim",
    "tolerant-test",
    "rank-vs-haar",
    "gram-scan",
)


@dataclass
class Item:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    canon: Callable[[object], str]


@dataclass
class Corpus:
    items: list
    cli: Optional["CliRunner"] = None


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


def _haar(n: int, rng: np.random.Generator) -> states.StateVector:
    return states.StateVector.from_unit(states.haar_unit(n, rng))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# sampling: the tester path


def _tester_item(kind, state, rng, thresholds) -> Item:
    seed = _seed(rng)
    rank_seed = _seed(rng)

    def call():
        out = [tester.tolerant_test(state, 0.9, 0.3, SHOTS, seed)]
        if state.n == 4:
            out.append(tester.rank_vs_haar_test(state, 2, SHOTS, rank_seed, thresholds))
        return out

    def check(decisions):
        exact = charfn.exact_R(state.normalized())
        bad = []
        for d in decisions:
            if abs(d.statistic - exact) > SAMPLING_TOL:
                bad.append("r_hat_vs_exact")
            if d.verdict != ("close" if d.statistic >= d.threshold else "far"):
                bad.append("verdict_threshold")
        return bad

    return Item(kind, call, check, lambda ds: _dumps([dataclasses.asdict(d) for d in ds]))


def _calibrate_item(corpus_size: int, rng) -> Item:
    seed = _seed(rng)

    def call():
        return tester.calibrate(4, 2, seed=seed, corpus_size=corpus_size, shots=SHOTS)

    def check(result):
        # Regenerate calibrate's seeded corpus and compare each class median
        # of R-hat with the median of the exact R: every R-hat lies within
        # SAMPLING_TOL of its exact value, so the medians do too.
        crng = np.random.default_rng(seed)
        low, haar = [], []
        for _ in range(corpus_size):
            low.append(charfn.exact_R(measures.random_low_rank_state(4, 2, crng)))
            crng.integers(0, 2**63)
            haar.append(charfn.exact_R(_haar(4, crng)))
            crng.integers(0, 2**63)
        bad = []
        if abs(result["median_low_rank"] - float(np.median(low))) > SAMPLING_TOL:
            bad.append("calibrate_low_rank_median")
        if abs(result["median_haar"] - float(np.median(haar))) > SAMPLING_TOL:
            bad.append("calibrate_haar_median")
        if not result["median_haar"] < result["threshold"] < result["median_low_rank"]:
            bad.append("calibrate_threshold_order")
        return bad

    return Item("calibrate.n4.k2", call, check, _dumps)


def load_thresholds(root: str) -> dict:
    with open(os.path.join(root, "data", "thresholds.json")) as fh:
        data = json.load(fh)
    return {(e["n"], e["k"]): e["threshold"] for e in data["entries"]}


def sampling(seed: int, small: bool, root: str, run_dir: str) -> Corpus:
    """Haar and t_tensor states at n = 3..6 and rank-1/rank-2 combinations
    at n = 4 through `tolerant_test` (plus `rank_vs_haar_test` at n = 4),
    and one `calibrate(n=4, k=2)`."""
    rng = np.random.default_rng(seed)
    thresholds = load_thresholds(root)
    # One test on a Haar state takes about as long at n = 3 and 5, and twice
    # that at n = 6; items at n = 4 run two tests. Most items are at n = 3 or
    # 5, which puts the median item well inside that class; the 12 items at
    # n = 4 and the 4 Haar states at n = 6, with the calibrate item above
    # them, put the tail inside the class of those.
    haar_per_n = {n: 1 for n in range(3, 7)} if small else {3: 16, 4: 6, 5: 16, 6: 4}
    items = []
    for n, count in haar_per_n.items():
        t = states.make_state(states.FamilySpec("t_tensor", n))
        items.append(_tester_item(f"tolerant.t_tensor.n{n}", t, rng, thresholds))
        for _ in range(count):
            items.append(_tester_item(f"tolerant.haar.n{n}", _haar(n, rng), rng, thresholds))
    for k, count in ((1, 2), (2, 3)):
        for _ in range(1 if small else count):
            state = measures.random_low_rank_state(4, k, rng)
            items.append(_tester_item(f"tolerant.rank{k}.n4", state, rng, thresholds))
    # A corpus of 20 keeps the one calibrate item from outweighing the rest.
    items.append(_calibrate_item(8 if small else 20, rng))
    order = rng.permutation(len(items))
    return Corpus([items[i] for i in order])


# ---------------------------------------------------------------------------
# extraction: the witness pipeline


def _random_stabilizer(n: int, rng) -> clifford.StabilizerState:
    """Seeded stabilizer state with a support of random dimension, built
    without the enumeration table."""
    m = int(rng.integers(0, n + 1))
    sub = gf2.Subspace(n, ())
    while sub.dim < m:
        sub = gf2.Subspace.from_vectors(n, sub.basis + (int(rng.integers(1, 1 << n)),))
    offset = sub.reduce(int(rng.integers(0, 1 << n)))
    ell = int(rng.integers(0, 1 << m)) if m else 0
    rows = tuple(
        int(rng.integers(0, 1 << m)) & ~((1 << i) - 1) for i in range(m)
    )
    return clifford.StabilizerState(n, offset, sub.basis, ell, rows)


def _extraction_item(kind, state, rng) -> Item:
    seed = _seed(rng)

    def call():
        return witness.extract_stabilizer(state, seed=seed)

    def check(out):
        wit, overlap, trace = out
        recomputed = clifford.stabilizer_to_statevector(wit).overlap_sq(state)
        bad = []
        if recomputed < trace.nu * trace.correlation**2 - EXACT_TOL:
            bad.append("overlap_floor")
        if abs(recomputed - overlap) > EXACT_TOL:
            bad.append("overlap_reported")
        if state.n <= 4:
            fid, _ = measures.stabilizer_fidelity(state)
            if recomputed > fid + EXACT_TOL:
                bad.append("overlap_le_fidelity")
        return bad

    def canon(out):
        wit, overlap, trace = out
        return _dumps(
            {
                "witness": wit.to_json(),
                "overlap": overlap,
                "which_part": trace.which_part,
                "balance_gates": len(trace.balance_circuit.gates),
                "stage_values": trace.stage_values,
                "exhaustive": trace.map_search_exhaustive,
            }
        )

    return Item(kind, call, check, canon)


# Items per (n, input kind) in one pass. The exhaustive search at n = 4 scans
# the same 2^20 maps for every input, so those items cost nearly the same on
# every seed; the hill climb's cost at n = 5 and 6 depends on the input and
# the seed, from about that of an n = 4 item up to twice it. Sorted by cost, a
# pass is the 5 items at n = 3, the 9 at n = 4 mixed with the 2 at n = 5, and
# the 4 at n = 6, so that the median item (10th and 11th of 20) and the tail
# item (10th) both fall inside the band of n = 4 items. Every input kind
# appears at n = 3 and 4. The smoke pass keeps the n = 3 items and one Haar
# state on each map-search path.
EXTRACTION_MIX = {
    3: {"t_tensor": 1, "haar": 1, "interpolate0.1": 1, "interpolate0.5": 1, "counterexample": 1},
    4: {"t_tensor": 1, "haar": 4, "interpolate0.1": 2, "interpolate0.5": 1, "counterexample": 1},
    5: {"haar": 1, "interpolate0.5": 1},
    6: {"t_tensor": 1, "haar": 1, "interpolate0.1": 1, "counterexample": 1},
}
EXTRACTION_SMOKE_MIX = {3: EXTRACTION_MIX[3], 4: {"haar": 1}, 5: {"haar": 1}}


def _extraction_input(kind: str, n: int, rng) -> states.StateVector:
    if kind == "t_tensor":
        return states.make_state(states.FamilySpec("t_tensor", n))
    if kind == "haar":
        return _haar(n, rng)
    if kind == "counterexample":
        return measures.counterexample_state(n, _seed(rng))
    eps = float(kind.removeprefix("interpolate"))
    spec = states.FamilySpec(
        "interpolate", n, seed=_seed(rng), eps=eps, stab=_random_stabilizer(n, rng)
    )
    return states.make_state(spec)


def extraction(seed: int, small: bool, root: str, run_dir: str) -> Corpus:
    """`extract_stabilizer` at n = 3..6 on t_tensor, Haar, stabilizer->Haar
    interpolation (eps 0.1 and 0.5, anchors of random support dimension) and
    `counterexample_state` inputs."""
    rng = np.random.default_rng(seed)
    items = []
    for n, kinds in (EXTRACTION_SMOKE_MIX if small else EXTRACTION_MIX).items():
        for kind, count in kinds.items():
            for _ in range(count):
                state = _extraction_input(kind, n, rng)
                items.append(_extraction_item(f"extract.{kind}.n{n}", state, rng))
    order = rng.permutation(len(items))
    return Corpus([items[i] for i in order])


# ---------------------------------------------------------------------------
# exact_measures: the exhaustive searches


def _unrank_pair(rank: int, M: int) -> tuple[int, int]:
    """The rank-th pair (a < b) in itertools.combinations(range(M), 2) order."""
    a = 0
    while rank >= M - 1 - a:
        rank -= M - 1 - a
        a += 1
    return a, a + 1 + rank


def _rank_item(kind, state) -> Item:
    expect_hit = "rank2" in kind

    def call():
        return measures.stabilizer_rank(state)

    def check(out):
        rank, wit = out
        if wit is None:
            return ["rank_missed_low_rank_input"] if expect_hit else []
        S = clifford.stabilizer_unit_matrix(state.n)[list(wit)]
        v = state.unit()
        coef, *_ = np.linalg.lstsq(S.T, v, rcond=None)
        bad = []
        if np.linalg.norm(S.T @ coef - v) > RESIDUAL_TOL:
            bad.append("rank_residual")
        if expect_hit and rank > 2:
            bad.append("rank_above_construction")
        return bad

    def canon(out):
        rank, wit = out
        return _dumps([list(rank) if isinstance(rank, tuple) else rank, wit and list(wit)])

    return Item(kind, call, check, canon)


def _fidelity_item(state) -> Item:
    def check(out):
        fid, wit = out
        ov = clifford.stabilizer_to_statevector(wit).overlap_sq(state)
        return [] if abs(ov - fid) <= EXACT_TOL else ["fidelity_witness"]

    return Item(
        f"fidelity.n{state.n}",
        lambda: measures.stabilizer_fidelity(state),
        check,
        lambda out: _dumps([out[0], out[1].to_json()]),
    )


def _gowers_item(state) -> Item:
    def check(value):
        if state.n > 3:
            return []
        direct = measures.gowers_norm_direct(state, 3)
        return [] if abs(value - direct) <= EXACT_TOL else ["gowers3_direct"]

    return Item(f"gowers3.n{state.n}", lambda: measures.gowers3(state), check, repr)


def _lambda_scan_item() -> Item:
    def check(rows):
        bad = []
        for row in rows:
            if row.k < 2 or row.witness is None:
                continue
            S = clifford.stabilizer_unit_matrix(row.n)[list(row.witness)]
            lam = np.linalg.eigvalsh(S.conj() @ S.T)[0]
            if abs(lam - row.min_lambda) > EXACT_TOL:
                bad.append("lambda_witness")
        return bad

    return Item(
        "lambda_star_scan.k3.n2",
        lambda: measures.lambda_star_scan(3, 2),
        check,
        lambda rows: _dumps([dataclasses.asdict(r) for r in rows]),
    )


def exact_measures(seed: int, small: bool, root: str, run_dir: str) -> Corpus:
    """Exhaustive fidelity and `gowers3` at n = 1..4, `stabilizer_rank` on
    Haar states (n = 3 misses at r <= 2 and scans every pair) and on rank-2
    combinations (hits), and one `lambda_star_scan(3, 2)`."""
    rng = np.random.default_rng(seed)
    # The rank scans carry this workload. Sorted by cost, a pass is 16 cheap
    # fidelity and gowers3 items, 10 rank-2 hits at n = 2, the lambda scan,
    # 9 Haar states at n = 2 (rank 4; each scans the same subsets) and the
    # three n = 3 scans. The median item is in the middle of the n = 2 hits
    # and the tail is the second lightest n = 2 Haar state, both inside a
    # class of equal cost rather than on the step between two classes.
    items = []
    for n in range(1, 5):
        count = 1 if small else 2
        items += [_fidelity_item(_haar(n, rng)) for _ in range(count)]
        items += [_gowers_item(_haar(n, rng)) for _ in range(count)]
    items += [_rank_item("rank.haar.n2", _haar(2, rng)) for _ in range(1 if small else 9)]
    for _ in range(1 if small else 10):
        items.append(_rank_item("rank.rank2.n2", measures.random_low_rank_state(2, 2, rng)))
    if not small:
        items.append(_rank_item("rank.haar.n3", _haar(3, rng)))
        # The scan stops at the first spanning pair, so a hit's cost is its
        # pair's place in lexicographic order. Put the n = 3 pairs at fixed
        # places early in the order, so the work in a pass barely depends on
        # the seed, and the pass stays short.
        S = clifford.stabilizer_unit_matrix(3)
        M = len(S)
        pairs = M * (M - 1) // 2
        for frac in (0.2, 0.4):
            place = int((frac + rng.uniform(-0.005, 0.005)) * pairs)
            a, b = _unrank_pair(place, M)
            coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vec = coef @ S[[a, b]]
            state = states.StateVector.from_unit(vec / np.linalg.norm(vec))
            items.append(_rank_item("rank.rank2.n3", state))
    items.append(_lambda_scan_item())
    order = rng.permutation(len(items))
    return Corpus([items[i] for i in order])


# ---------------------------------------------------------------------------
# cli_cold: the README's commands as fresh processes


class CliRunner:
    """Runs stab-lab commands as fresh processes, untraced (`python -m
    stab_lab.cli`) or traced (`perfbench/child.py cli`), and collects the
    spans the traced ones write."""

    def __init__(self, root: str, run_dir: str):
        self.root = root
        self.run_dir = run_dir
        self.traced = False
        self.span_files: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(self, argv: list[str], out: str) -> tuple[int, str, str]:
        if self.traced:
            spans = os.path.join(self.run_dir, f"spans{len(self.span_files)}.json")
            self.span_files.append(spans)
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "child.py"), "cli", spans]
        else:
            cmd = [sys.executable, "-m", "stab_lab.cli"]
        if os.path.exists(out):
            os.unlink(out)
        proc = subprocess.run(
            cmd + argv + ["--out", out],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        text = ""
        if os.path.exists(out):
            with open(out) as fh:
                text = fh.read()
        return proc.returncode, text, proc.stderr

    def collect(self) -> list[dict]:
        out = []
        for path in self.span_files:
            with open(path) as fh:
                out.append(json.load(fh))
        self.span_files.clear()
        return out


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def _strict_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def _csv_body(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# ")]


def _canon_artifact(out, runner: CliRunner) -> str:
    """The artifact without what depends on where the program runs: the
    version string (git describe, or the installed version) and the paths."""
    code, text, _ = out
    text = text.replace(runner.run_dir, "<run>").replace(runner.root, "<root>")
    if text.startswith("# version="):
        return f"{code}\n" + text.split("\n", 1)[1]
    try:
        payload = _strict_json(text)
    except ValueError:
        return f"{code}\n{text}"
    payload.pop("version", None)
    return f"{code}\n" + _dumps(payload)


def _cli_item(name, argv, runner, out, verify) -> Item:
    """verify(artifact text) returns the names of the failed value checks."""

    def check(result):
        code, text, err = result
        if code != 0:
            return ["exit_code"]
        try:
            return verify(text)
        except ValueError:  # includes json.JSONDecodeError and NaN
            return ["strict_json"]
        except (KeyError, IndexError, TypeError):
            return ["artifact_format"]

    return Item(
        f"cli.{name}",
        lambda: runner.run(argv, out),
        check,
        lambda result: _canon_artifact(result, runner),
    )


def cli_cold(seed: int, small: bool, root: str, run_dir: str) -> Corpus:
    """The README's commands, one fresh process each, writing artifacts."""
    rng = np.random.default_rng(seed)
    runner = CliRunner(root, run_dir)
    thresholds_path = os.path.join(root, "data", "thresholds.json")
    fam_seed = [str(_seed(rng)) for _ in range(4)]
    run_seed = [str(_seed(rng)) for _ in range(4)]
    phi_text = states.dump_state_json(_haar(3, rng))
    phi_path = os.path.join(run_dir, "phi.json")
    with open(phi_path, "w") as fh:
        fh.write(phi_text)

    def family(kind, n, s="0"):
        return ["--family", kind, "--n", str(n), "--family-seed", s]

    def spec_state(kind, n, s):
        return states.make_state(states.FamilySpec(kind, n, seed=int(s))).normalized()

    def v_charfn(text):
        t = charfn.char_function(spec_state("t_tensor", 1, "0"))
        want = charfn.char_table_csv(t).splitlines()
        return [] if _csv_body(text) == want else ["cli_vs_library"]

    def v_gowers(text):
        p = _strict_json(text)
        state = spec_state("t_tensor", 2, "0")
        ok = p["gowers3_pow8"] == measures.gowers3(state) and p[
            "direct_pow2d"
        ] == measures.gowers_norm_direct(state, 3)
        return [] if ok else ["cli_vs_library"]

    def v_measures(text):
        report = _strict_json(text)["report"]
        want = measures.measure_report(spec_state("haar", 4, fam_seed[0])).to_dict()
        bad = [] if report == want else ["cli_vs_library"]
        rank = report["rank"]
        lower = rank[0] if isinstance(rank, list) else rank
        if report["fidelity"] < 1 - EXACT_TOL and lower < 2:
            bad.append("measures_rank_lower_bound")
        return bad

    def v_extract(text):
        p = _strict_json(text)
        wit, overlap, _ = witness.extract_stabilizer(
            spec_state("haar", 4, fam_seed[1]), seed=int(run_seed[0])
        )
        ok = p["overlap"] == overlap and p["witness"] == json.loads(wit.to_json())
        return [] if ok else ["cli_vs_library"]

    def v_bell(text):
        rows = _csv_body(text)[1:]
        same = sum(int(r.rsplit(",", 1)[1]) for r in rows)
        r_hat = 2.0 * same / SHOTS - 1.0
        want = tester.estimate_R(spec_state("haar", 3, fam_seed[2]), SHOTS, int(run_seed[1]))
        return [] if len(rows) == SHOTS and r_hat == want else ["cli_vs_library"]

    def v_tolerant(text):
        d = _strict_json(text)["decision"]
        phi = states.load_state_json(phi_text).normalized()
        want = tester.tolerant_test(phi, 0.9, 0.3, SHOTS, int(run_seed[2]))
        return [] if d == dataclasses.asdict(want) else ["cli_vs_library"]

    def v_rank_vs_haar(text):
        d = _strict_json(text)["decision"]
        want = tester.rank_vs_haar_test(
            spec_state("haar", 4, fam_seed[3]),
            2,
            SHOTS,
            int(run_seed[3]),
            load_thresholds(root),
        )
        return [] if d == dataclasses.asdict(want) else ["cli_vs_library"]

    def v_gram(text):
        rows = [r.split(",") for r in _csv_body(text)[1:]]
        want = measures.lambda_star_scan(3, 2)
        got = [
            (float(lam) if lam else math.inf, tuple(map(int, wit.split())) if wit else None)
            for _, _, lam, wit, _, _ in rows
        ]
        ok = got == [(w.min_lambda, w.witness) for w in want]
        return [] if ok else ["cli_vs_library"]

    commands = [
        ("charfn", ["charfn"] + family("t_tensor", 1), v_charfn),
        ("gowers", ["gowers"] + family("t_tensor", 2) + ["--direct"], v_gowers),
        ("measures", ["measures"] + family("haar", 4, fam_seed[0]), v_measures),
        (
            "extract-stabilizer",
            ["extract-stabilizer"] + family("haar", 4, fam_seed[1]) + ["--seed", run_seed[0]],
            v_extract,
        ),
        (
            "bell-sim",
            ["bell-sim"] + family("haar", 3, fam_seed[2]) + ["--seed", run_seed[1]],
            v_bell,
        ),
        (
            "tolerant-test",
            ["tolerant-test", "--state", phi_path, "--eps1", "0.9", "--eps2", "0.3",
             "--seed", run_seed[2]],
            v_tolerant,
        ),
        (
            "rank-vs-haar",
            ["rank-vs-haar"] + family("haar", 4, fam_seed[3])
            + ["--k", "2", "--thresholds", thresholds_path, "--seed", run_seed[3]],
            v_rank_vs_haar,
        ),
        ("gram-scan", ["gram-scan", "--k", "3", "--nmax", "2"], v_gram),
    ]
    if tuple(name for name, _, _ in commands) != CLI_COMMANDS:
        raise RuntimeError("cli_cold commands and CLI_COMMANDS disagree")
    items = [
        _cli_item(name, argv, runner, os.path.join(run_dir, f"{name}.out"), verify)
        for name, argv, verify in commands
    ]
    return Corpus(items, cli=runner)


BUILDERS = {
    "sampling": sampling,
    "extraction": extraction,
    "exact_measures": exact_measures,
    "cli_cold": cli_cold,
}
