"""stab-lab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's `src/`. The
workloads (see workloads.py and BENCHMARK.json) run as a closed loop: one
client in this process, items in a fixed seeded order, the next item only
after the previous one returns. BLAS and OpenMP are pinned to one thread,
here and in every process this starts. The process, and every process it
starts, is pinned to the CPU that was idlest at start: on a shared host the
vCPUs differ in speed from moment to moment, so the reference runs must share
a core with the work they scale.

`--trace 0` reports the end-to-end metrics. Times are CPU time, so that
other processes sharing the core do not count: an item's time is the CPU
time of this thread plus that of the processes the item ran, and equals its
wall time on an idle host. They are then in reference units (see speed.py):
each is divided by the host's speed at the moment it was measured, taken from
a fixed reference run between items, so that the drift of a shared host
cancels. The raw CPU and wall times are in the details.
    setup_s      median over fresh processes of the CPU time from process
                 start to "ready": interpreter, imports and the lazy caches
                 the items would fill; each scaled like an item, by the
                 reference runs just before and after it
    items_per_s  items of one pass over the time the pass takes, each item's
                 time being its median over the passes of the run
    item_p50_s   median over the items of a pass of each item's median time
    item_tail_s  the same at the highest percentile with ten items beyond it
                 (the slowest item when a pass has ten items or fewer)
    peak_rss_mb  peak resident memory of the process that did the work
                 (for in-process workloads this includes the reference's
                 16 MB of arrays)
`--trace 1` runs one pass untraced and then the same pass with spans.Tracer
installed, and reports the per-layer metrics: calls and self time per public
function, search counters, each module's share of the traced wall time, and
the tracing overhead. Its times are raw.

An untraced run repeats whole passes for --seconds, at least MIN_PASSES of
them. `--smoke` runs a reduced corpus once, for the smoke test.

Outputs are checked against oracles after the timed phase. The last line of
stdout is the result; the line before it gives the machine, the versions, the
output digest, the raw times and every failed check by name.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Before numpy is first imported; child processes inherit the environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sampling", "extraction", "exact_measures", "cli_cold")

MIN_PASSES = 2
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _pin_to_idlest_cpu() -> int:
    """Pin this process to the usable CPU that was idle longest over 0.2 s."""
    cpus = sorted(os.sched_getaffinity(0))

    def idle_ticks() -> dict:
        ticks = {}
        with open("/proc/stat") as fh:
            for line in fh:
                name, *fields = line.split()
                if name[3:].isdigit() and name.startswith("cpu"):
                    ticks[int(name[3:])] = int(fields[3]) + int(fields[4])  # idle + iowait
        return ticks

    try:
        before = idle_ticks()
        time.sleep(0.2)
        after = idle_ticks()
        cpu = max(cpus, key=lambda c: after.get(c, 0) - before.get(c, 0))
    except (OSError, ValueError, IndexError):
        cpu = cpus[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _context(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stab_lab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _probe_setup(workload: str, repeats: int, track) -> tuple[list, list]:
    """CPU seconds from process start to "ready" of fresh setup processes,
    and the wall-clock span of each, with reference runs before and after
    each one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", workload]
    times, spans = [], []
    for _ in range(repeats):
        track.sample(speed.WARMUP_RUNS)
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        spans.append((t0, time.perf_counter()))
        word, _, value = out.stdout.strip().partition(" ")
        if word != "ready" or out.returncode != 0:
            raise RuntimeError(f"setup process for {workload} failed ({out.returncode})")
        times.append(float(value))
    track.sample(speed.WARMUP_RUNS)
    return times, spans


def _cpu_s() -> float:
    """CPU time of this thread and of every child process waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def _run_passes(items: list, seconds: float, min_passes: int, track=None):
    """Whole passes over the items, at least min_passes, and more while the
    next pass, as long as the last one, would end within `seconds`. With a
    SpeedTrack, the reference runs between items.
    Returns (latencies, spans, outputs, errors), one entry per item run in
    pass order; a latency is the CPU time of the item's call (see _cpu_s),
    a span the wall-clock (start, end) of it."""
    latencies, spans, outputs, errors = [], [], [], []
    deadline = time.perf_counter() + seconds
    passes, pass_s = 0, 0.0
    while passes < min_passes or time.perf_counter() + pass_s <= deadline:
        pass_start = time.perf_counter()
        for item in items:
            if track is not None:
                track.sample_if_due()
            t0, cpu = time.perf_counter(), _cpu_s()
            try:
                out, err = item.call(), None
            except Exception as exc:  # an item that raises is a failed item
                out, err = None, f"raised:{type(exc).__name__}"
            cpu, t1 = _cpu_s() - cpu, time.perf_counter()
            latencies.append(cpu)
            spans.append((t0, t1))
            outputs.append(out)
            errors.append(err)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    if track is not None:
        track.sample(speed.WARMUP_RUNS)  # so that the last items have runs after them
    return latencies, spans, outputs, errors


def _per_item(values: list, n_items: int) -> list:
    """Each item's median over the passes, in pass order."""
    return [statistics.median(values[j::n_items]) for j in range(n_items)]


def _check(items: list, outputs: list, errors: list) -> tuple[list, list]:
    """Failed check names per output, and the canonical output per item.
    The oracle runs on an item's first output; later passes of the same item
    must reproduce it exactly."""
    canon: list = [None] * len(items)
    first: list = [None] * len(items)
    names = []
    for i, (out, err) in enumerate(zip(outputs, errors)):
        j = i % len(items)
        item = items[j]
        if err:
            names.append([err])
            continue
        text = item.canon(out)
        if first[j] is None:
            try:
                first[j] = list(item.check(out))
            except Exception as exc:  # a check that cannot run fails the item
                first[j] = [f"check_raised:{type(exc).__name__}"]
            canon[j] = text
        names.append(first[j] + ([] if text == canon[j] else ["repeat_mismatch"]))
    return names, canon, first


def _check_traced(items: list, outputs: list, errors: list, canon: list, first: list):
    """A traced output must equal the untraced one; it then shares its checks."""
    names, traced_canon = [], [None] * len(items)
    for i, (out, err) in enumerate(zip(outputs, errors)):
        j = i % len(items)
        if err:
            names.append([err])
            continue
        text = items[j].canon(out)
        if traced_canon[j] is None:
            traced_canon[j] = text
        names.append(list(first[j] or []) if text == canon[j] else ["trace_output_mismatch"])
    return names, traced_canon


def _digest(canon: list) -> str:
    return hashlib.sha256("\n".join(c or "<error>" for c in canon).encode()).hexdigest()


def _tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND items
    above it; the maximum when there are too few items."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def _merge_children(snapshots: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "counters": {}}
    for snap in snapshots:
        for key in merged:
            for name, value in snap[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import stab_lab

    if SRC.resolve() not in Path(stab_lab.__file__).resolve().parents:
        raise RuntimeError(f"stab_lab was imported from {stab_lab.__file__}, not {SRC}")
    import child
    import spans
    import workloads

    track = speed.SpeedTrack()
    track.sample(speed.WARMUP_RUNS)
    setup_raw, setup_probe_spans = (
        ([], []) if trace else _probe_setup(workload, 1 if smoke else SETUP_REPEATS, track)
    )

    # This process pays the same set-up; traced, it gives the setup.* spans.
    child.import_modules(workload)
    tracer = spans.Tracer()
    setup_spans = {"wall_s": 0.0, "self_s": {}}
    if trace:
        tracer.install()
    t0 = time.perf_counter()
    child.fill_caches(workload)
    if trace:
        setup_spans = {"wall_s": time.perf_counter() - t0, "self_s": dict(tracer.self_s)}
        tracer.uninstall()
        tracer.reset()

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=scratch)
    try:
        # numpy seeds must be non-negative; this leaves those unchanged.
        corpus = workloads.BUILDERS[workload](seed % 2**64, smoke, str(ROOT), run_dir)
        items = corpus.items
        if smoke or trace:
            latencies, item_spans, outputs, errors = _run_passes(items, 0, 1)
        else:
            latencies, item_spans, outputs, errors = _run_passes(items, seconds, MIN_PASSES, track)
        # The traced run's times are wall-clock, as the tracer's spans are.
        wall = sum(t1 - t0 for t0, t1 in item_spans)
        who = resource.RUSAGE_CHILDREN if corpus.cli else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        traced = None
        if trace:
            if corpus.cli:
                corpus.cli.traced = True
            else:
                tracer.install([workloads])
            try:
                traced = _run_passes(items, 0, 1)
            finally:
                tracer.uninstall()
            child_spans = corpus.cli.collect() if corpus.cli else []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    names, canon, first = _check(items, outputs, errors)
    details = {"digest": _digest(canon)}
    if traced is not None:
        traced_names, traced_canon = _check_traced(items, traced[2], traced[3], canon, first)
        details["traced_digest"] = _digest(traced_canon)
        names += traced_names

    failures: dict[str, int] = {}
    failed = known = 0
    for item_names in names:
        for name in item_names:
            failures[name] = failures.get(name, 0) + 1
        failed += any(n not in workloads.KNOWN_DEFECTS for n in item_names)
        known += any(n in workloads.KNOWN_DEFECTS for n in item_names)
    attempted = len(names)

    n_items = len(items)
    raw_items = _per_item(latencies, n_items)
    scaled = [lat * track.scale(t0, t1) for lat, (t0, t1) in zip(latencies, item_spans)]
    scaled_items = _per_item(scaled, n_items)
    tail_value, tail_pct = _tail(scaled_items)
    by_kind: dict[str, list] = {}
    for item, value in zip(items, scaled_items):
        by_kind.setdefault(item.kind, []).append(value)
    details.update(
        {
            "workload": workload,
            "passes": len(latencies) // n_items,
            "items_per_pass": n_items,
            "timed_items": len(latencies),
            "timed_wall_s": wall,
            "timed_cpu_s": sum(latencies),
            "item_tail": {"percentile": tail_pct, "items": n_items, "value_s": tail_value},
            "kinds": {k: {"items": len(v), "p50_s": statistics.median(v)} for k, v in by_kind.items()},
            "reference": {
                "ref_s": speed.REF_S,
                "runs": len(track.durations),
                "median_s": track.median_s(),
            },
            "failures": {k: v for k, v in failures.items() if k not in workloads.KNOWN_DEFECTS},
            "known_defects": {k: v for k, v in failures.items() if k in workloads.KNOWN_DEFECTS},
        }
    )
    if trace:
        t_lat = traced[0]
        t_wall = sum(t1 - t0 for t0, t1 in traced[1])
        if corpus.cli:
            phase = _merge_children(child_spans)
            import_s = statistics.median(s["import_s"] for s in child_spans) if child_spans else 0.0
        else:
            phase = tracer.snapshot()
            import_s = 0.0
        details["traced_wall_s"] = t_wall
        values = spans.layer_metrics(
            phase, setup_spans, t_wall, len(t_lat), import_s, workloads.CLI_COMMANDS
        )
        values["trace_overhead_frac"] = (t_wall / wall - 1.0, "frac")
        values["failed_frac"] = (failed / attempted, "frac")
        values["known_defect_frac"] = (known / attempted, "frac")
    else:
        setup_scaled = [t * track.scale(*span) for t, span in zip(setup_raw, setup_probe_spans)]
        details["setup_samples_s"] = setup_scaled
        wall_items = _per_item([t1 - t0 for t0, t1 in item_spans], n_items)
        details["raw"] = {
            "setup_s": statistics.median(setup_raw),
            "setup_samples_s": setup_raw,
            "items_per_s": n_items / sum(raw_items),
            "item_p50_s": statistics.median(raw_items),
            "item_tail_s": _tail(raw_items)[0],
        }
        details["wall"] = {
            "items_per_s": n_items / sum(wall_items),
            "item_p50_s": statistics.median(wall_items),
            "item_tail_s": _tail(wall_items)[0],
        }
        values = {
            "setup_s": statistics.median(setup_scaled),
            "items_per_s": n_items / sum(scaled_items),
            "item_p50_s": statistics.median(scaled_items),
            "item_tail_s": tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        values = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced corpus, one pass, one set-up probe"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not (SRC / "stab_lab" / "__init__.py").is_file():
        return _fail(f"no stab-lab sources under {SRC}; run from a full checkout")
    cpus_usable = len(os.sched_getaffinity(0))
    cpu = _pin_to_idlest_cpu()
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    details["context"] = dict(_context(args.seed), cpus_usable=cpus_usable, pinned_cpu=cpu)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
