#!/usr/bin/env python3
"""Regenerate tests/golden_digests.json, the sha256 digests of the artifacts
that the README's thirteen commands write at fixed seeds and small n.

Each command runs in process through stab_lab.cli.main, in a temporary
directory, with fixed relative --out and state-file names, so that the
configuration each artifact embeds is the same on every machine. The version
(the JSON "version" field, the CSV "# version=" line) is masked before
hashing; everything else must be byte-identical. The table records numpy's
version and BLAS build beside the digests, since a different build may round
differently. tests/test_cli.py::test_readme_commands_match_golden_digests
reruns the commands and compares.

A change that moves a digest regenerates the table and names the command and
the reason in CHANGES.md.

Usage: python scripts/golden_digests.py [--out tests/golden_digests.json]
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import shutil
import sys
import tempfile

import numpy as np

from stab_lab import cli, states

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden_digests.json"
THRESHOLDS = ROOT / "data" / "thresholds.json"
STATE_FILE = "phi.json"
STATE_SPEC = states.FamilySpec("haar", 3, seed=7)

# name -> argv, in run order: calibrate merges into the copy of
# data/thresholds.json that rank-vs-haar then reads
COMMANDS = {
    "charfn": ["charfn", "--family", "t_tensor", "--n", "1", "--out", "charfn.csv"],
    "gowers": ["gowers", "--family", "t_tensor", "--n", "2", "--direct",
               "--out", "gowers.json"],
    "measures": ["measures", "--state", STATE_FILE, "--out", "measures.json"],
    "rank": ["rank", "--family", "t_tensor", "--n", "2", "--delta", "0.3",
             "--out", "rank.json"],
    "fidelity": ["fidelity", "--state", STATE_FILE, "--out", "fidelity.json"],
    "extract-stabilizer": ["extract-stabilizer", "--state", STATE_FILE,
                           "--seed", "3", "--out", "extract.json"],
    "bell-sim": ["bell-sim", "--family", "haar", "--n", "3", "--shots", "10000",
                 "--seed", "5", "--out", "bell.csv"],
    "tolerant-test": ["tolerant-test", "--state", STATE_FILE, "--eps1", "0.9",
                      "--eps2", "0.3", "--seed", "11", "--out", "tolerant.json"],
    "calibrate": ["calibrate", "--n", "2", "--k", "2", "--corpus-size", "8",
                  "--shots", "2000", "--seed", "13",
                  "--merge-into", "thresholds.json", "--out", "thresholds.json"],
    "rank-vs-haar": ["rank-vs-haar", "--family", "haar", "--n", "4", "--k", "2",
                     "--thresholds", "thresholds.json", "--seed", "17",
                     "--out", "rank_vs_haar.json"],
    "gram-scan": ["gram-scan", "--k", "3", "--nmax", "2", "--seed", "0",
                  "--out", "gram.csv"],
    "relations": ["relations", "--seed", "0", "--out", "relations.json"],
    "doubling": ["doubling", "--family", "haar", "--n", "3", "--delta", "0.05",
                 "--seed", "19", "--out", "doubling.json"],
}


def build_info() -> dict:
    """numpy's version and its BLAS build, as the table records them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def mask_version(text: str) -> str:
    """The artifact with its version masked: the first line of a CSV, the
    top-level "version" field of a JSON object. Raises ValueError if the
    artifact embeds no version."""
    if text.startswith("# version="):
        return "# version=<masked>\n" + text.split("\n", 1)[1]
    masked, count = re.subn(
        r'^(  "version": )"[^"\n]*"', r'\1"<masked>"', text, count=1, flags=re.M
    )
    if count != 1:
        raise ValueError("artifact embeds no version")
    return masked


def run_commands(workdir) -> dict:
    """Run every command in workdir, which must be empty, and return
    {name: sha256 of the masked artifact}; a nonzero exit code is recorded
    in place of the digest."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with open(STATE_FILE, "w") as fh:
            fh.write(states.dump_state_json(states.make_state(STATE_SPEC)))
        shutil.copyfile(THRESHOLDS, "thresholds.json")
        digests = {}
        for name, argv in COMMANDS.items():
            code = cli.main(argv)
            if code != 0:
                digests[name] = f"exit {code}"
                continue
            with open(argv[argv.index("--out") + 1]) as fh:
                text = mask_version(fh.read())
            digests[name] = hashlib.sha256(text.encode()).hexdigest()
        return digests
    finally:
        os.chdir(cwd)


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(TABLE))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(tmp)
    bad = [name for name, d in digests.items() if d.startswith("exit")]
    if bad:
        print(f"commands failed: {', '.join(bad)}", file=sys.stderr)
        return 1
    table = {**build_info(), "digests": digests}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(table, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
