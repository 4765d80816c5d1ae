#!/usr/bin/env python3
"""Sweep the stabilizer -> Haar interpolation and report how the extraction
pipeline's recovered overlap and the exhaustive stabilizer fidelity degrade
with the interpolation strength.

Usage: python scripts/interpolation_sweep.py [--n 3] [--seeds 8] [--steps 6]
"""

import argparse
import sys

import numpy as np

from stab_lab.clifford import TABLE_MAX_N, enumerate_stabilizers
from stab_lab.measures import stabilizer_fidelity
from stab_lab.states import FamilySpec, make_state
from stab_lab.witness import extract_stabilizer


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help=f"qubits, 1..{TABLE_MAX_N}")
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--steps", type=int, default=6)
    args = parser.parse_args(argv)
    if not 1 <= args.n <= TABLE_MAX_N:
        parser.error(f"--n must be in 1..{TABLE_MAX_N} (the exhaustive fidelity's cap)")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    # a real anchor, so the pipeline can reach overlap 1 at eps = 0
    anchor = next(
        s
        for s in enumerate_stabilizers(args.n)
        if s.ell == 0 and len(s.basis) == args.n and any(s.q_upper)
    )
    print(f"{'eps':>6}{'mean overlap':>14}{'mean fidelity':>15}")
    for eps in np.linspace(0.0, 1.0, args.steps):
        overlaps, fids = [], []
        for seed in range(args.seeds):
            state = make_state(
                FamilySpec(
                    "interpolate", args.n, seed=seed, eps=float(eps), stab=anchor
                )
            )
            overlaps.append(extract_stabilizer(state, seed=0)[1])
            fids.append(stabilizer_fidelity(state)[0])
        print(f"{eps:>6.2f}{np.mean(overlaps):>14.4f}{np.mean(fids):>15.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
