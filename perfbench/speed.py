"""Host-speed reference for the benchmark.

On a shared host, the speed of interpreted Python swings by up to 2x, over
seconds to minutes, as other tenants load the cores, which swamps any change
to the program. The benchmark therefore runs a fixed reference, which never
touches stab_lab, between items, and states each time it
measures in reference units: the time divided by the median duration of the
reference runs near it, times REF_S, the reference's duration on the
reference machine (2-vCPU Xeon, Python 3.11, uncontended). A change to the
program moves a normalized time as it moves the raw one; a change of host
speed moves the item and the reference alike, and cancels.

Contention slows interpreted bytecode and memory traffic by different
factors, and the items mix the two in different shares: the Bell sampling
loop is mostly bytecode, the exhaustive map search and process start
(imports, page faults) mostly memory. The reference does about as much of
each: a compromise that tracks neither kind exactly, and neither far off.

Durations here, like the item times in run.py, are CPU time: time.thread_time
of this thread, which stops while the kernel runs another process on the
core. Slices lost to other processes on the same kernel therefore never
count, and the reference cancels what remains, the slowdown of the core
itself when other tenants of the host load it. On an idle host CPU time
equals wall time.

The raw times go into the details line beside the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.003
EVERY_S = 0.1  # one reference run per this much wall time, between items
BURST = 10  # at most this many reference runs between two items
WINDOW_S = 1.0  # reference runs this close to a timed span set its scale
WARMUP_RUNS = 20


class _Node:
    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key


def _mix(node: _Node, k: int) -> int:
    return node.key ^ k


_BLOCK = np.arange(1 << 20, dtype=np.float64)  # 8 MB


def reference_work() -> float:
    """About 3 ms uncontended: half object creation, attribute reads, calls
    and small integer and tuple work, the kind of bytecode stab_lab's loops
    run; half a fresh 8 MB array copied and read with a stride, the kind of
    memory traffic its array code and a process start make."""
    nodes = [_Node(i) for i in range(2000)]
    acc = 0
    for k in range(6):
        for node in nodes:
            acc += _mix(node, k) & 3
    keys = tuple(range(500))
    acc += sum(hash(keys[i : i + 4]) & 1 for i in range(400))
    return acc + float(_BLOCK[::-1].copy()[::7].sum())


class SpeedTrack:
    """Reference runs over one benchmark run, and the scale they give a span."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each reference run
        self.durations: list[float] = []
        self._last = -float("inf")

    def sample(self, runs: int = 1) -> None:
        for _ in range(runs):
            start, cpu = time.perf_counter(), time.thread_time()
            reference_work()
            cpu, end = time.thread_time() - cpu, time.perf_counter()
            self.times.append((start + end) / 2)
            self.durations.append(cpu)
        self._last = end

    def sample_if_due(self) -> None:
        """One reference run per EVERY_S since the last, so that a long item
        has as many runs near it as a run of short ones."""
        due = int((time.perf_counter() - self._last) / EVERY_S)
        if due:
            self.sample(min(due, BURST))

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median reference duration within WINDOW_S of the
        span [start, end]; over all of them if none is that close."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REF_S / statistics.median(self.durations[lo:hi] or self.durations)

    def median_s(self) -> float:
        return statistics.median(self.durations)
