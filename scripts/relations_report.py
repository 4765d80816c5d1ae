#!/usr/bin/env python3
"""Print the complexity-measure relations table for the standard small-state
corpus: rank, 1 - gowers3, 1 - fidelity per state, plus the consistency
checks (rank-1 states are stabilizers; the counterexample family keeps its
fidelity floor while the rank proxy degrades).

Usage: python scripts/relations_report.py [--seed 0] [--out report.json]
"""

import argparse
import json
import sys

from stab_lab.measures import relations_corpus, relations_experiment


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON output file (stdout if omitted)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    report = relations_experiment(relations_corpus(args.seed), seed=args.seed)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    else:
        header = f"{'family':<12}{'n':>3}{'rank':>8}{'1-gowers3':>12}{'1-F':>10}"
        print(header)
        print("-" * len(header))
        for row in report["rows"]:
            rank = row["rank"]
            rank_str = str(rank) if not isinstance(rank, list) else f"{rank[0]}-{rank[1]}"
            print(
                f"{row['kind']:<12}{row['n']:>3}{rank_str:>8}"
                f"{row['one_minus_gowers3']:>12.6f}{row['one_minus_fidelity']:>10.6f}"
            )
        print("checks:", json.dumps(report["checks"]))
    return 0


if __name__ == "__main__":
    sys.exit(run())
