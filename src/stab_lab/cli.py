"""Command-line front end.

Every subcommand reads a state (from a JSON file or a named family), runs one
experiment, and writes a JSON or CSV artifact that embeds the version string
and the full configuration, so any output file is reproducible from its own
header. Primary outputs are written atomically and contain no timestamps
(byte-identical reruns); wall-clock metadata goes to a `<out>.run.json`
sidecar.

Exit codes: 0 success, 2 validation/usage error, 3 internal-consistency
failure (a checked identity or contract was violated).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

# One BLAS thread unless the environment says otherwise, set before numpy
# loads: every product here is small (n <= 6), and OpenBLAS's default
# threads only add CPU time, and on a busy host they stall some products.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import charfn, clifford, measures, states, tester, witness  # noqa: E402
from .gf2 import doubling_stats, symp_pack  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3

_VALIDATION_ERRORS = (
    states.StateFormatError,
    measures.MeasureError,
    tester.TesterError,
    clifford.GateError,
    ValueError,
    OSError,
)
_INVARIANT_ERRORS = (witness.PipelineError, charfn.TableError, clifford.BalanceError)


@functools.lru_cache(maxsize=None)
def version_string() -> str:
    """Computed once per process, so a run that rewrites a tracked file
    (calibrate --out data/thresholds.json) still records the loaded code."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return "v" + version("stab-lab")
    except Exception:
        return "unknown"


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's inputs; null in the header for a flag the command lacks."""

    command: str
    state_file: Optional[str] = None
    family: Optional[str] = None
    n: Optional[int] = None
    x0: Optional[int] = None
    family_seed: Optional[int] = None
    seed: Optional[int] = None
    shots: Optional[int] = None
    out: Optional[str] = None
    extra: dict = dataclasses.field(default_factory=dict)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file and a rename. The file gets the mode a
    plain open() would give it (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stab-lab-")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: ExperimentConfig, payload: dict, csv_body: Optional[str] = None):
    """Write (or print) the artifact with version + config embedded."""
    header = {"version": version_string(), "config": dataclasses.asdict(config)}
    if csv_body is not None:
        text = (
            f"# version={header['version']}\n"
            f"# config={json.dumps(header['config'], sort_keys=True)}\n"
            + csv_body
        )
    else:
        text = json.dumps({**header, **payload}, indent=2, sort_keys=True) + "\n"
    if config.out:
        _atomic_write(config.out, text)
        _atomic_write(
            config.out + ".run.json",
            json.dumps({"written_at": time.time(), "out": config.out}) + "\n",
        )
    else:
        sys.stdout.write(text)


def _load_state(config: ExperimentConfig):
    if config.state_file:
        # the header would record inputs the state never used
        if config.family or (config.n, config.x0, config.family_seed) != (None,) * 3:
            raise states.StateFormatError(
                "--state excludes --family, --n, --x0 and --family-seed"
            )
        with open(config.state_file) as fh:
            return states.load_state_json(fh.read())
    if config.family:
        if config.n is None:
            raise states.StateFormatError("--n is required with --family")
        spec = states.FamilySpec(kind=config.family, n=config.n, x0=config.x0 or 0,
                                 seed=config.family_seed or 0)
        return states.make_state(spec)
    raise states.StateFormatError("provide --state or --family")


# ---------------------------------------------------------------------------
# Subcommand bodies: each gets the config and, for the commands that read
# one, the loaded and normalized state (None otherwise).


def _cmd_charfn(config: ExperimentConfig, state):
    _emit(config, {}, csv_body=charfn.char_table_csv(charfn.char_function(state)))


def _cmd_gowers(config: ExperimentConfig, state):
    degree = config.extra["degree"]
    payload = {"gowers3_pow8": measures.gowers3(state)}
    if degree != 3 or config.extra["direct"]:
        payload["direct_pow2d"] = measures.gowers_norm_direct(state, degree)
        payload["degree"] = degree
    _emit(config, payload)


def _cmd_measures(config: ExperimentConfig, state):
    _emit(config, {"report": measures.measure_report(state).to_dict()})


def _cmd_rank(config: ExperimentConfig, state):
    delta = config.extra["delta"]
    rank, wit = measures.stabilizer_rank(state, delta)
    rank = list(rank) if isinstance(rank, tuple) else rank
    _emit(config, {"rank": rank, "witness": list(wit) if wit else None, "delta": delta})


def _cmd_fidelity(config: ExperimentConfig, state):
    fid, wit = measures.stabilizer_fidelity(state)
    _emit(config, {"fidelity": fid, "witness": json.loads(wit.to_json())})


def _cmd_gram_scan(config: ExperimentConfig, _):
    rows = measures.lambda_star_scan(
        k_max=config.extra["k"],
        n_max=config.extra["nmax"],
        mode=config.extra["mode"],
        trials=config.extra["trials"],
        seed=config.seed,
    )
    lines = ["k,n,min_lambda,witness,exhaustive,samples"]
    for r in rows:
        lam = "" if r.min_lambda == float("inf") else repr(r.min_lambda)
        wit = "" if r.witness is None else " ".join(map(str, r.witness))
        lines.append(f"{r.k},{r.n},{lam},{wit},{int(r.exhaustive)},{r.samples}")
    _emit(config, {}, csv_body="\n".join(lines) + "\n")


def _cmd_extract_stabilizer(config: ExperimentConfig, state):
    wit, overlap, trace = witness.extract_stabilizer(state, seed=config.seed)
    payload = {
        "witness": json.loads(wit.to_json()),
        "overlap": overlap,
        "trace": {
            "n": trace.n,
            "gamma": trace.gamma,
            "nu": trace.nu,
            "which_part": trace.which_part,
            "balance_gates": [list(g) for g in trace.balance_circuit.gates],
            "stage_values": trace.stage_values,
            "q_upper_rows": list(trace.q_poly.upper_rows),
            "q_alpha": trace.q_poly.alpha,
            "correlation": trace.correlation,
            "final_overlap": trace.final_overlap,
            "theoretical_floor_log10": trace.theoretical_floor_log10,
        },
    }
    _emit(config, payload)


def _cmd_bell_sim(config: ExperimentConfig, state):
    zs, same = tester.bell_difference_sample(state, config.shots, config.seed)
    n = state.n
    bits = [format(x, f"0{n}b") for x in range(state.N)]
    lines = ["y_bits,alpha_bits,same_bit"]
    lines += (
        f"{bits[z >> n]},{bits[z & (state.N - 1)]},{int(s)}"
        for z, s in zip(zs.tolist(), same.tolist())
    )
    _emit(config, {}, csv_body="\n".join(lines) + "\n")


def _cmd_tolerant_test(config: ExperimentConfig, state):
    decision = tester.tolerant_test(
        state,
        eps1=config.extra["eps1"],
        eps2=config.extra["eps2"],
        shots=config.shots,
        seed=config.seed,
        threshold=config.extra.get("threshold"),
    )
    _emit(config, {"decision": dataclasses.asdict(decision)})


def _valid_entry(e) -> bool:
    if not isinstance(e, dict):
        return False
    n, k, threshold = e.get("n"), e.get("k"), e.get("threshold")
    return type(n) is int and type(k) is int and (
        type(threshold) is int
        or (type(threshold) is float and math.isfinite(threshold))
    )


def _load_thresholds(path: str) -> list:
    """The entries of a thresholds file; each must carry integer n and k and
    a finite threshold."""
    with open(path) as fh:
        data = json.load(fh)
    entries = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not all(map(_valid_entry, entries)):
        raise ValueError(
            f"{path}: expected an 'entries' list of objects with integer n "
            "and k and a finite threshold"
        )
    return entries


def _cmd_rank_vs_haar(config: ExperimentConfig, state):
    thresholds = {
        (e["n"], e["k"]): e["threshold"]
        for e in _load_thresholds(config.extra["thresholds"])
    }
    decision = tester.rank_vs_haar_test(
        state,
        k=config.extra["k"],
        shots=config.shots,
        seed=config.seed,
        thresholds=thresholds,
    )
    _emit(config, {"decision": dataclasses.asdict(decision)})


def _cmd_calibrate(config: ExperimentConfig, _):
    result = tester.calibrate(
        n=config.n,
        k=config.extra["k"],
        seed=config.seed,
        corpus_size=config.extra["corpus_size"],
        shots=config.shots,
    )
    entries = []
    existing = config.extra.get("merge_into")
    if existing and os.path.exists(existing):
        entries = [
            e for e in _load_thresholds(existing)
            if (e["n"], e["k"]) != (result["n"], result["k"])
        ]
    entries.append(result)
    entries.sort(key=lambda e: (e["n"], e["k"]))
    _emit(config, {"entries": entries})


def _cmd_relations(config: ExperimentConfig, _):
    specs = measures.relations_corpus(config.seed)
    _emit(config, {"report": measures.relations_experiment(specs, seed=config.seed)})


def _cmd_doubling(config: ExperimentConfig, state):
    """Additive structure of a zeta-graph subset of the balanced table."""
    delta = config.extra["delta"]
    tilde, nu, which = witness.split_real(state)
    circuit, balanced = clifford.balance(tilde, seed=config.seed)
    t = charfn.char_function(balanced)
    zs = witness.sample_zeta(t, delta, seed=config.seed)
    S = [
        symp_pack(state.n, y, zs.zeta[y])
        for y in range(t.N)
        if t.f[y, zs.zeta[y]] >= delta
    ]
    payload = {"delta": delta, "L_value": zs.L_value, "subset_size": len(S)}
    if S:
        energy, ratio = doubling_stats(state.n, S)
        payload.update({"additive_energy": energy, "sumset_ratio": ratio})
    _emit(config, payload)


# ---------------------------------------------------------------------------
# The command table


def _finite_float(text: str) -> float:
    """argparse type for float flags: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed and --family-seed: a negative seed is a usage
    error for every state family, not only for those that hand it to numpy."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


_STATE_FLAGS = {
    "--state": dict(help="state JSON file"),
    # interpolate needs a stabilizer anchor, which no flag gives
    "--family": dict(choices=("basis", "uniform", "haar", "t_tensor")),
    "--n": dict(type=int, help="qubit count for --family"),
    "--x0": dict(type=int, help="basis index for --family basis (default 0)"),
    "--family-seed": dict(type=_seed, help="seed for --family haar (default 0)"),
}
# build_parser gives --seed its default, STABLAB_SEED.
_SEED = {"--seed": dict(type=_seed)}
_SAMPLED = {**_SEED, "--shots": dict(type=int, default=10_000)}

# name -> (body, reads a state, {flag: add_argument keywords}), in --help order;
# all take --out. Values go to ExperimentConfig.extra unless a field or None.
_COMMANDS = {
    "charfn": (_cmd_charfn, True, {}),
    "measures": (_cmd_measures, True, {}),
    "rank": (_cmd_rank, True, {"--delta": dict(type=_finite_float, default=0.0)}),
    "fidelity": (_cmd_fidelity, True, {}),
    "extract-stabilizer": (_cmd_extract_stabilizer, True, _SEED),
    "bell-sim": (_cmd_bell_sim, True, _SAMPLED),
    "doubling": (_cmd_doubling, True, {
        **_SEED,
        "--delta": dict(type=_finite_float, default=0.05),
    }),
    "gowers": (_cmd_gowers, True, {
        "--degree": dict(type=int, default=3),
        "--direct": dict(action="store_true", help="also run brute force"),
    }),
    "gram-scan": (_cmd_gram_scan, False, {
        **_SEED,
        "--k": dict(type=int, required=True),
        "--nmax": dict(type=int, required=True),
        "--mode": dict(choices=("exhaustive", "sampled"), default="exhaustive"),
        "--trials": dict(type=int, default=2000),
    }),
    "tolerant-test": (_cmd_tolerant_test, True, {
        **_SAMPLED,
        "--eps1": dict(type=_finite_float, required=True),
        "--eps2": dict(type=_finite_float, required=True),
        "--threshold": dict(type=_finite_float, default=None),
    }),
    "rank-vs-haar": (_cmd_rank_vs_haar, True, {
        **_SAMPLED,
        "--k": dict(type=int, required=True),
        "--thresholds": dict(required=True, help="thresholds JSON file"),
    }),
    "calibrate": (_cmd_calibrate, False, {
        **_SAMPLED,
        "--n": dict(type=int, required=True),
        "--k": dict(type=int, required=True),
        "--corpus-size": dict(type=int, default=100),
        "--merge-into": dict(help="existing thresholds file to update"),
    }),
    "relations": (_cmd_relations, False, _SEED),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stab-lab",
        description="Desk-scale stabilizer complexity experiments",
    )
    # a string default goes through type=_seed, so a bad value is a usage error
    default_seed = os.environ.get("STABLAB_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads_state, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--out", help="output file (stdout if omitted)")
        for flag, kwargs in {**(_STATE_FLAGS if reads_state else {}), **flags}.items():
            p.add_argument(flag, **kwargs)
        if "--seed" in flags:
            p.set_defaults(seed=default_seed)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig fields from their flags (--state fills
    state_file); every other flag that was given goes to extra."""
    values = dict(vars(args))
    values["state_file"] = values.pop("state", None)
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    fixed = {name: values.pop(name) for name in names if name in values}
    extra = {k: v for k, v in values.items() if v is not None}
    return ExperimentConfig(**fixed, extra=extra)


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = _config_from_args(args)
    body, reads_state, _ = _COMMANDS[config.command]
    try:
        state = _load_state(config).normalized() if reads_state else None
        if reads_state:  # the header records the family defaults
            config = dataclasses.replace(
                config, x0=config.x0 or 0, family_seed=config.family_seed or 0
            )
        body(config, state)
    except _INVARIANT_ERRORS as exc:
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
