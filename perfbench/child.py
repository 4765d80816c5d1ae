"""Fresh-process helpers for the benchmark; `run.py` starts them.

    python3 perfbench/child.py setup <workload>
        Imports what the workload uses and fills the lazy caches its items
        would fill, then prints "ready <s>", s being the CPU time the process
        has used since it started: the workload's set-up time.

    python3 perfbench/child.py cli <spans.json> <stab-lab arguments...>
        Runs one stab-lab command with the tracer installed and writes the
        import time, spans and counters to spans.json. Exits with the
        command's exit code.

Both expect `src` of the checkout on PYTHONPATH.
"""

from __future__ import annotations

import importlib
import sys
import time

# Workload -> (modules its items use, stabilizer tables filled for n = 1..k).
SETUP = {
    "sampling": (("stab_lab.tester", "stab_lab.measures"), 4),
    "extraction": (("stab_lab.witness",), 0),
    "exact_measures": (("stab_lab.measures",), 4),
    "cli_cold": (("stab_lab.cli",), 0),
}


def import_modules(workload: str) -> None:
    for name in SETUP[workload][0]:
        importlib.import_module(name)


def fill_caches(workload: str) -> None:
    tables = SETUP[workload][1]
    if tables:
        clifford = sys.modules["stab_lab.clifford"]
        for n in range(1, tables + 1):
            clifford.stabilizer_unit_matrix(n)


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    import json

    start = time.perf_counter()
    cli = importlib.import_module("stab_lab.cli")
    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, **tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        import_modules(sys.argv[2])
        fill_caches(sys.argv[2])
        print(f"ready {time.process_time()!r}", flush=True)
    elif mode == "cli":
        sys.exit(_traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
