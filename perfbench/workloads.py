"""The benchmark's three workloads.

Each workload is a closed loop over cells: the next cell starts when the
previous one finishes (serial workloads) or when a pool worker frees up
(``jobs > 1``).  Inside a cell the simulated client is open-loop at the
cell's offered RPS.  A workload is an endless, seed-determined sequence of
:class:`~repro.analysis.executor.ExperimentSpec` cells, built with default
tiers only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro import ExperimentSpec, NetemConfig, get_workload, workload_keys
from repro.core.config import ControlConfig, CorrelateConfig, ExportConfig

#: Offered load of the sweep grid, as multiples of each app's failure RPS.
SWEEP_LEVELS = tuple(0.3 + 0.9 * i / 11 for i in range(12))

#: Cells per sweep grid: nine apps x twelve levels.
SWEEP_CELLS = len(workload_keys()) * len(SWEEP_LEVELS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: 1 runs cells serially in-process; more fans them out via ``run_cells``.
    jobs: int
    #: Cells per timed chunk (per ``run_cells`` batch when pooled); rates
    #: are medians over chunks, so a burst of host noise moves one chunk.
    chunk: int
    #: Cells every run completes, even past ``--seconds`` (a multiple of
    #: ``chunk``).  The first ``min_cells`` cells are the accuracy set, and
    #: the tail percentile is the highest one with ten cells beyond it in a
    #: run this small.
    min_cells: int
    #: ``cell(seed, index)``: the closed loop's ``index``-th cell.
    cell: Callable[[int, int], ExperimentSpec]
    #: Positions of the cells the traced run times, serially in-process.
    traced: Tuple[int, ...]

    @property
    def tail_pct(self) -> float:
        return 100.0 * (1.0 - 10.0 / self.min_cells)

    def cells(self, seed: int, start: int, count: int) -> List[ExperimentSpec]:
        return [self.cell(seed, index) for index in range(start, start + count)]


def _cell_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


def _vm_long(seed: int, index: int) -> ExperimentSpec:
    rps = 0.7 * get_workload("data-caching").paper_fail_rps
    return ExperimentSpec(
        "data-caching", rps, requests=2000, seed=_cell_seed(seed, index), monitor_mode="vm"
    )


@functools.lru_cache(maxsize=4)
def _sweep_grid(seed: int) -> Tuple[ExperimentSpec, ...]:
    return tuple(
        ExperimentSpec(
            key,
            level * get_workload(key).paper_fail_rps,
            requests=100,
            seed=seed,
            monitor_mode="vm",
        )
        for key in workload_keys()
        for level in SWEEP_LEVELS
    )


def _sweep_short(seed: int, index: int) -> ExperimentSpec:
    # The same grid, repeated: one untimed in-process replay then gives
    # the simulated syscall count of every timed cell.
    return _sweep_grid(seed)[index % SWEEP_CELLS]


#: The window consumers stream-windowed cells rotate through.
STREAM_STAGES = (
    ("export", {"export": ExportConfig()}),
    ("correlate", {"correlate": CorrelateConfig()}),
    ("control", {"control": ControlConfig(policy="shed")}),
)


def _stream_windowed(seed: int, index: int) -> ExperimentSpec:
    impaired = NetemConfig.paper_impaired()
    rps = 0.7 * get_workload("triton-grpc").paper_fail_rps
    _, stage = STREAM_STAGES[index % len(STREAM_STAGES)]
    # 150 requests at 14.7 RPS is about ten simulated seconds: about a
    # hundred 100 ms windows per cell, fixed across runs.
    return ExperimentSpec(
        "triton-grpc",
        rps,
        requests=150,
        seed=_cell_seed(seed, index),
        monitor_mode="stream",
        cpus=2,
        client_to_server=impaired,
        server_to_client=impaired,
        **stage,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vm-long",
            why="serial data-caching cells at 0.7x failure RPS: per-syscall engine, "
            "tracepoint, ctx-pack and probe path dominate",
            jobs=1,
            chunk=1,
            min_cells=40,
            cell=_vm_long,
            traced=(0, 1, 2, 3),
        ),
        Workload(
            name="sweep-short",
            why="nine-app 0.3x-1.2x load-sweep grid of short cells on a 2-worker pool: "
            "kernel boot, app build, verify, translation and pool IPC dominate",
            jobs=2,
            chunk=SWEEP_CELLS,
            min_cells=SWEEP_CELLS,
            cell=_sweep_short,
            traced=tuple(range(0, SWEEP_CELLS, 4)),
        ),
        Workload(
            name="stream-windowed",
            why="triton-grpc perf-stream cells over impaired netem rotating export, "
            "correlate and shed control on 100 ms windows: drain, window merge, net",
            jobs=1,
            chunk=15,
            min_cells=120,
            cell=_stream_windowed,
            traced=(0, 1, 2, 3, 4, 5),
        ),
    )
}
