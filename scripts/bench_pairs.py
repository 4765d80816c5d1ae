#!/usr/bin/env python3
"""Run the benchmark in two checkouts as alternating pairs and summarize them
against BENCHMARK.json.

Usage: python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W
           --seed S [--pairs 10]

Each pair runs `python3 perfbench/run.py --trace 0` for the workload once in
each checkout, at the `run_seconds` of the change's BENCHMARK.json, one after
the other; the side that goes first alternates from pair to pair. The runs
write no bytecode, and the script refuses to start while either checkout's
`src/` holds a `__pycache__`: bytecode valid on one side only skews
`setup_s` and the peak RSS.

For each end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, whether a claimed gain would hold (the change wins
at least 9 of 10 pairs, and the medians differ in its favour by more than the
parent's interquartile spread) and whether the change stays within the
metric's bound (its median no worse than the parent's by more than that
fraction). It also says whether the output digests agree and how many items
failed. Each run's metrics go to stderr as it ends.

The benchmark holds every pass's outputs until a run ends, so a side that
makes more passes in the same run time reads a higher peak_rss_mb for that
alone. The script reads each run's pass count from its details line, prints
each side's median, and fits peak_rss_mb against passes over all the runs:
the slope is the memory held per pass, in KB (peak_rss_mb is ru_maxrss /
1024), and slope times the difference of the median pass counts is the part
of the change in peak_rss_mb that the extra passes explain.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

CLAIM_WINS = 0.9  # share of pairs a claimed gain must win


def _quartiles(values):
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(end_to_end, parent, change):
    """One row per end-to-end metric of BENCHMARK.json (`end_to_end`, a list
    of {"name", "better", "bound"}), from paired runs: parent[i] and
    change[i] are the metric values {name: value} of pair i."""
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        p_q, c_q = _quartiles(p), _quartiles(c)
        gain = sign * (c_q[1] - p_q[1])  # > 0 when the change is better
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        rows.append(
            {
                "name": name,
                "parent": p_q,
                "change": c_q,
                "wins": wins,
                "pairs": len(p),
                "ratio": c_q[1] / p_q[1] if p_q[1] else float("nan"),
                "claim_holds": wins >= CLAIM_WINS * len(p) and gain > p_q[2] - p_q[0],
                "within_bound": -gain <= metric["bound"] * abs(p_q[1]),
            }
        )
    return rows


def format_summary(rows):
    lines = [
        f"{'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}"
        f" {'ratio':>7} {'wins':>6}  claim  bound"
    ]
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        lines.append(
            f"{r['name']:<12} {p:>30} {c:>30} {r['ratio']:>7.4f}"
            f" {r['wins']:>3}/{r['pairs']:<2}  {'yes' if r['claim_holds'] else 'no':<5}"
            f"  {'ok' if r['within_bound'] else 'BROKEN'}"
        )
    return "\n".join(lines)


def held_outputs(passes, rss_mb):
    """From per-side lists of pass counts and of peak_rss_mb ({"parent": [...],
    "change": [...]}, one entry per run): each side's median passes, the
    least-squares slope of peak_rss_mb against passes over all runs in KB a
    pass (None when every run made as many passes), and the MB that slope
    gives the change's extra median passes."""
    medians = {side: statistics.median(v) for side, v in passes.items()}
    x = passes["parent"] + passes["change"]
    y = rss_mb["parent"] + rss_mb["change"]
    if len(set(x)) < 2:
        return medians, None, None
    slope = statistics.linear_regression(x, y).slope  # MB a pass
    return medians, slope * 1024, slope * (medians["change"] - medians["parent"])


def format_held_outputs(medians, kb_per_pass, extra_mb):
    line = f"passes: parent median {medians['parent']:g}, change median {medians['change']:g}"
    if kb_per_pass is None:
        return line + "; peak_rss_mb not fitted: every run made as many passes"
    return (
        f"{line}\npeak_rss_mb against passes over all runs: {kb_per_pass:.1f} KB a pass;"
        f" the change's extra passes account for {extra_mb:+.2f} MB"
    )


def _run(tree, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {tree}:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, details["digest"], result["failed"], details["passes"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", default=10, type=int)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
        if any((tree / "src").rglob("__pycache__")):
            parser.error(f"{tree / 'src'} holds a __pycache__; remove it first")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    passes = {"parent": [], "change": []}
    digests = set()
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, digest, fails, count = _run(
                trees[side], args.workload, args.seed, bench["run_seconds"]
            )
            runs[side].append(values)
            passes[side].append(count)
            digests.add(digest)
            failed[side] += fails
            print(f"pair {i + 1} {side}: {json.dumps(values)} passes {count}",
                  file=sys.stderr, flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {bench['run_seconds']} s")
    print(format_summary(summarize(bench["end_to_end"], runs["parent"], runs["change"])))
    rss = {side: [run["peak_rss_mb"] for run in v] for side, v in runs.items()}
    print(format_held_outputs(*held_outputs(passes, rss)))
    print(f"digests {'equal' if len(digests) == 1 else 'DIFFER'}; failed items: "
          f"parent {failed['parent']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
