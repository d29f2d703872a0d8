"""Host-speed calibration of the end-to-end times.

The benchmark's host is shared, and the speed at which it runs the same
Python code swings by a quarter or more over seconds to minutes.  Medians
within a run cannot remove a swing that lasts longer than the run.  So
every timed cell (serial workloads) or batch (pool workloads) is paired
with one pass of a fixed pure-Python reference loop, run just before it on
the same CPU, and its host time is reported at the reference speed::

    calibrated_s = host_s * NOMINAL_S / reference_s()

The loop imports nothing from ``src/``: a change to the simulator moves a
calibrated time exactly as it would move the host time on a steady host.
Its mix follows the simulator's hot path: a heap of pending events,
generator processes resumed with ``send``, ``__slots__`` objects, a packed
context struct and dict counters.  Thousands of processes give it a working
set of a few megabytes, as a cell has: a loop that fits in the first-level
caches misses the slowdown a busy neighbour causes through the shared ones.
"""

from __future__ import annotations

import heapq
import os
import statistics
import struct
import time
from typing import Iterable, Optional

#: Seconds one :func:`reference_s` pass takes at the reference speed, near
#: its median on a shared 2-vCPU cloud VM; only the scale of calibrated
#: times depends on it.
NOMINAL_S = 0.020

_STEPS = 4000
_PROCS = 3000
_PACK = struct.Struct("<QQIi").pack


class _Event:
    __slots__ = ("due", "proc")

    def __init__(self, due: int, proc) -> None:
        self.due = due
        self.proc = proc


def _process(pid: int, counts: dict):
    now = 0
    while True:
        step = yield now
        now += step
        ctx = _PACK(now, pid, step & 0xFFFF, -1)
        key = (pid, ctx[8] & 7)
        counts[key] = counts.get(key, 0) + 1


def _reference_loop() -> int:
    counts: dict = {}
    procs = [_process(pid, counts) for pid in range(_PROCS)]
    heap = []
    for pid, proc in enumerate(procs):
        next(proc)
        heapq.heappush(heap, (pid * 37 % 101, pid, _Event(0, proc)))
    state = 12345
    for seq in range(_PROCS, _PROCS + _STEPS):
        now, _, event = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        step = 1 + state % 5000
        event.proc.send(step)
        heapq.heappush(heap, (now + step, seq, _Event(now + step, event.proc)))
    return len(counts)


def reference_s(cpu: Optional[int] = None) -> float:
    """Host seconds of one reference pass, on ``cpu`` if given."""
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, allowed)


def scale(references: Iterable[float]) -> float:
    """The factor from host seconds to seconds at the reference speed."""
    return NOMINAL_S / statistics.median(references)
