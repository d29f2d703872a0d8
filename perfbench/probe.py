"""Set-up probe: one fresh interpreter running a workload's first cell.

Prints the host ``time.monotonic()`` at which the first cell's simulation
starts (the first ``Environment.run`` call in each process, pool workers
included), one line per process.  ``perfbench/drive.py`` subtracts the
moment it spawned this process, so the difference covers interpreter
start, ``import repro``, pool start-up where the workload uses one, and
the first cell's kernel boot, app build, program verification and
translation.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED CPU``; the probe runs
pinned to ``CPU`` until a pool, if the workload uses one, starts.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    name, seed, cpu = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repro.analysis.executor import execute_cell, run_cells
    from repro.sim.engine import Environment

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    run = Environment.run
    started = []

    def first_run(self, *args, **kwargs):
        if not started:
            started.append(True)
            os.write(1, f"{time.monotonic()!r}\n".encode())
            if workload.jobs == 1:
                os._exit(0)  # a serial probe has no workers to wait for
        return run(self, *args, **kwargs)

    Environment.run = first_run
    specs = workload.cells(seed, 0, workload.jobs)
    if workload.jobs > 1:
        os.sched_setaffinity(0, allowed)  # the pool spreads over every CPU
        run_cells(specs, jobs=workload.jobs)
    else:
        execute_cell(specs[0])


if __name__ == "__main__":
    main()
