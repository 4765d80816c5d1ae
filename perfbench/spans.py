"""Span tracer that wraps stab-lab's public functions from outside.

`Tracer.install()` replaces each function in TARGETS with a wrapper in every
namespace that binds it (the defining module, and any module that imported
it by name, such as `witness.char_function`), so calls made inside the
package are traced as well. `uninstall()` puts the originals back, which
leaves untraced runs free of any wrapper cost.

Each wrapper records one span: the call count and the self time (span time
minus the time of the traced spans it caused). A few wrappers also keep the
search counters the benchmark reports per layer.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans, grouped by layer.
TARGETS = (
    ("stab_lab.states", "fwht"),
    ("stab_lab.gf2", "nullspace"),
    ("stab_lab.gf2", "linmap_from_images"),
    ("stab_lab.gf2", "all_subspaces"),
    ("stab_lab.clifford", "enumerate_stabilizers"),
    ("stab_lab.clifford", "stabilizer_unit_matrix"),
    ("stab_lab.clifford", "balance"),
    ("stab_lab.clifford", "apply_clifford"),
    ("stab_lab.clifford", "random_real_clifford"),
    ("stab_lab.clifford", "stabilizer_from_statevector"),
    ("stab_lab.charfn", "char_function"),
    ("stab_lab.charfn", "bell_diff_distribution"),
    ("stab_lab.measures", "stabilizer_rank"),
    ("stab_lab.measures", "stabilizer_fidelity"),
    ("stab_lab.measures", "gowers3"),
    ("stab_lab.measures", "lambda_star_scan"),
    ("stab_lab.measures", "random_low_rank_state"),
    ("stab_lab.witness", "best_affine_map"),
    ("stab_lab.witness", "symmetrize_map"),
    ("stab_lab.witness", "split_real"),
    ("stab_lab.witness", "extract_quadratic"),
    ("stab_lab.witness", "extract_stabilizer"),
    ("stab_lab.tester", "bell_difference_sample"),
    ("stab_lab.tester", "estimate_R"),
    ("stab_lab.tester", "calibrate"),
    ("stab_lab.cli", "version_string"),
    ("stab_lab.cli", "main"),
)

MODULES = tuple(dict.fromkeys(modname.split(".")[-1] for modname, _ in TARGETS))


def _span_name(base: str, args: tuple, kwargs: dict) -> str:
    """Span name; the map search and the CLI entry point are split by case."""
    if base == "witness.best_affine_map":
        table = args[0] if args else kwargs["t"]
        exhaustive = table.n <= sys.modules["stab_lab.witness"].EXHAUSTIVE_MAX_N
        return base + (".exhaustive" if exhaustive else ".hill_climb")
    if base == "cli.main":
        argv = args[0] if args else kwargs.get("argv")
        return f"{base}.{argv[0]}" if argv else base
    return base


def rank_subsets_scanned(n: int, result) -> int:
    """Subsets `stabilizer_rank` examines in lexicographic order: every
    smaller subset size, plus the r-subsets up to and including the witness
    on a hit; on a miss, every subset below the returned lower bound."""
    from stab_lab.clifford import expected_stabilizer_count

    M = expected_stabilizer_count(n)
    rank, wit = result
    if wit is None:
        return sum(math.comb(M, r) for r in range(1, rank[0]))
    count = sum(math.comb(M, r) for r in range(1, rank))
    prev = -1
    for i, c in enumerate(wit):
        for x in range(prev + 1, c):
            count += math.comb(M - 1 - x, rank - 1 - i)
        prev = c
    return count + 1


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, time of traced children]
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def _count(self, base: str, name: str, args: tuple, kwargs: dict, result) -> None:
        if base == "clifford.apply_clifford":
            if any(frame[0] == "clifford.balance" for frame in self._stack):
                self.counters["clifford.balance.tries"] += 1
        elif name == "witness.best_affine_map.exhaustive":
            n = result[0].linear.n
            self.counters["witness.best_affine_map.maps_scanned"] += 2 ** (n * n + n)
        elif base == "measures.stabilizer_rank":
            state = args[0] if args else kwargs["state"]
            self.counters["measures.stabilizer_rank.subsets_scanned"] += (
                rank_subsets_scanned(state.n, result)
            )
            self.counters["measures.stabilizer_rank.hits"] += result[1] is not None
        elif base == "tester.bell_difference_sample":
            shots = args[1] if len(args) > 1 else kwargs["shots"]
            self.counters["tester.shots"] += shots

    def _wrap(self, base: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _span_name(base, args, kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            self._count(base, name, args, kwargs, result)
            return result

        return wrapper

    def install(self, extra_namespaces=()) -> None:
        """Wrap every loaded target in every stab_lab module (and in the given
        extra modules) that binds it."""
        wrappers = {}
        for modname, fname in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, self._wrap(f"{modname.split('.')[-1]}.{fname}", fn))
        namespaces = [
            m for name, m in sys.modules.items() if name.startswith("stab_lab")
        ] + list(extra_namespaces)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


SETUP_SPANS = ("gf2.all_subspaces", "clifford.enumerate_stabilizers", "clifford.stabilizer_unit_matrix")


def span_names(cli_commands) -> list[str]:
    names = []
    for modname, fname in TARGETS:
        base = f"{modname.split('.')[-1]}.{fname}"
        if fname == "best_affine_map":
            names += [base + ".exhaustive", base + ".hill_climb"]
        elif fname == "main":
            names += [f"{base}.{cmd}" for cmd in cli_commands]
        else:
            names.append(base)
    return names


def layer_metrics(
    phase: dict, setup: dict, traced_wall: float, items: int, import_s: float, cli_commands
) -> dict:
    """name -> (value, unit) from a traced items phase (a snapshot) and the
    traced set-up phase ({"wall_s", "self_s"}). Spans a workload never
    reaches read 0."""
    calls, self_s, counters = phase["calls"], phase["self_s"], phase["counters"]
    m = {}
    for name in span_names(cli_commands):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    rank_calls = calls.get("measures.stabilizer_rank", 0)
    rank_hits = counters.get("measures.stabilizer_rank.hits", 0)
    for name in (
        "clifford.balance.tries",
        "measures.stabilizer_rank.subsets_scanned",
        "witness.best_affine_map.maps_scanned",
        "tester.shots",
    ):
        m[name] = (counters.get(name, 0), "count")
    m["charfn.char_function.calls_per_item"] = (calls.get("charfn.char_function", 0) / items, "1/item")
    m["measures.stabilizer_rank.hit_frac"] = (rank_hits / rank_calls if rank_calls else 0.0, "frac")
    m["cli.import_s"] = (import_s, "s")
    for module in MODULES:
        busy = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        m[f"{module}.share"] = (busy / traced_wall, "frac")
    m["setup.traced_s"] = (setup["wall_s"], "s")
    for name in SETUP_SPANS:
        m[f"setup.{name}.self_s"] = (setup["self_s"].get(name, 0.0), "s")
    return m
