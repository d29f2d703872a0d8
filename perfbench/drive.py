"""Closed-loop drivers, set-up probes, correctness checks and the traced pass.

Everything here reads host time (what the simulator costs to run), never
simulated time, except where a name says ``sim``.  The closed loops and the
set-up probes report host time at the reference speed of
:mod:`perfbench.calibrate`; the traced pass reports plain host time.  The
drivers call only ``execute_cell`` and ``run_cells(specs, jobs=...)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.executor import ExperimentSpec, LevelResult, execute_cell, run_cells

from . import calibrate
from .layers import LAYERS, LayerTracer, translation_counters
from .workloads import Workload

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).resolve().parent / "probe.py"


#: The ``LevelResult`` fields the metrics read; a cell keeps only these
#: and a digest, so results do not pile up in the process that forks workers.
KEPT_FIELDS = (
    "achieved_rps",
    "rps_obsv",
    "lost_records",
    "rejected",
    "abandoned",
    "sim_duration_ns",
)


@dataclass
class Cell:
    """One executed cell: its host time, result digest and what the checks found.

    ``host_s`` and ``cpu_s`` are at the reference speed when the cell was
    run calibrated, plain host seconds otherwise.
    """

    spec: ExperimentSpec
    host_s: Optional[float]
    #: SHA-256 prefix of the cell's ``LevelResult``; ``"-"`` when it has none.
    digest: str = "-"
    fields: Dict[str, float] = field(default_factory=dict)
    syscalls: Optional[int] = None
    problems: List[str] = field(default_factory=list)
    #: Host CPU seconds of this process while the cell ran (serial cells).
    cpu_s: float = 0.0
    #: The calibration factor applied to ``host_s`` and ``cpu_s``.
    scale: float = 1.0

    @classmethod
    def of(
        cls,
        spec: ExperimentSpec,
        host_s: Optional[float],
        result: LevelResult,
        syscalls: Optional[int] = None,
    ) -> "Cell":
        payload = result.to_dict()
        encoded = json.dumps(payload, sort_keys=True, default=str).encode()
        return cls(
            spec,
            host_s,
            hashlib.sha256(encoded).hexdigest()[:16],
            {name: payload[name] for name in KEPT_FIELDS},
            syscalls,
            check_result(spec, result),
        )


@dataclass
class Chunk:
    """A run of consecutive cells, ``cells[start:end]``, and its host cost
    at the reference speed."""

    start: int
    end: int
    wall_s: float
    cpu_s: float


@dataclass
class Loop:
    """One closed loop over cells and the host resources it used."""

    cells: List[Cell]
    chunks: List[Chunk]
    wall_s: float
    parent_cpu_s: float
    worker_cpu_s: float
    #: The larger ``ru_maxrss`` of this process and of its reaped workers.
    peak_rss_kb: int
    retried: int = 0
    failed: int = 0
    translation: Dict[str, int] = field(default_factory=dict)


def tracing_active() -> Optional[str]:
    """Why timing now would be wrong, or ``None``."""
    import tracemalloc

    if sys.gettrace() is not None:
        return "a trace function is set (sys.gettrace)"
    if sys.getprofile() is not None:
        return "a profile function is set (sys.getprofile)"
    if tracemalloc.is_tracing():
        return "tracemalloc is tracing"
    return None


def check_result(spec: ExperimentSpec, result: LevelResult) -> List[str]:
    """Per-cell invariants: every request accounted, confidence a
    probability, no NaN or inf in a numeric field."""
    problems = []
    requests = sum(count for _, count in spec.phases) if spec.phases else spec.requests
    accounted = result.completed + result.abandoned + result.rejected
    if accounted != requests:
        problems.append(f"completed+abandoned+rejected={accounted} != requests={requests}")
    if not 0.0 <= result.confidence <= 1.0:
        problems.append(f"confidence {result.confidence} outside [0, 1]")
    for name, value in result.to_dict().items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            problems.append(f"{name} is not finite")
    return problems


def cpus() -> List[int]:
    """The CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))


def run_cell(spec: ExperimentSpec, cpu: Optional[int] = None, calibrated: bool = False) -> Cell:
    """Execute one cell in-process, timing it and counting its syscalls.

    With ``cpu``, the cell runs pinned to that CPU.  Serial loops rotate
    cells over every CPU: virtual CPUs of one host can differ in speed by
    a quarter, and the scheduler tends to keep a serial process on one of
    them for a whole run.  With ``calibrated``, a reference pass on the
    same CPU just before the cell sets its calibration factor.
    """
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    kernels = []
    try:
        scale = calibrate.scale([calibrate.reference_s()]) if calibrated else 1.0
        cpu_start = _cpu(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            result = execute_cell(spec, setup=lambda handles: kernels.append(handles.kernel))
        except Exception as error:  # noqa: BLE001 - printed and counted as failed
            traceback.print_exc()
            return Cell(spec, time.perf_counter() - start, problems=[f"raised {error!r}"])
        host_s = time.perf_counter() - start
        cpu_s = _cpu(resource.RUSAGE_SELF) - cpu_start
    finally:
        os.sched_setaffinity(0, allowed)
    cell = Cell.of(spec, host_s * scale, result, kernels[0].tracepoints.sys_enter.fired)
    cell.cpu_s, cell.scale = cpu_s * scale, scale
    return cell


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _Usage:
    """Wall time and CPU time of this process and of its reaped children."""

    def __init__(self) -> None:
        self.wall = time.perf_counter()
        self.parent = _cpu(resource.RUSAGE_SELF)
        self.children = _cpu(resource.RUSAGE_CHILDREN)

    def since(self) -> tuple:
        """``(wall, parent CPU, children CPU)`` seconds since creation."""
        return (
            time.perf_counter() - self.wall,
            _cpu(resource.RUSAGE_SELF) - self.parent,
            _cpu(resource.RUSAGE_CHILDREN) - self.children,
        )


def _chunked(workload: Workload, seed: int, seconds: float, min_cells: int, run_chunk) -> Loop:
    """Run chunks of ``workload.chunk`` cells until ``seconds`` have passed
    and ``min_cells`` cells are done; ``run_chunk(specs)`` returns the
    chunk's cells and its wall and CPU seconds at the reference speed."""
    usage = _Usage()
    cells: List[Cell] = []
    chunks: List[Chunk] = []
    while len(cells) < min_cells or usage.since()[0] < seconds:
        start = len(cells)
        part, wall_s, cpu_s = run_chunk(workload.cells(seed, start, workload.chunk))
        cells.extend(part)
        chunks.append(Chunk(start, len(cells), wall_s, cpu_s))
    wall_s, parent_s, children_s = usage.since()
    return Loop(
        cells=cells,
        chunks=chunks,
        wall_s=wall_s,
        parent_cpu_s=parent_s,
        worker_cpu_s=children_s,
        peak_rss_kb=max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ),
    )


def serial_loop(workload: Workload, seed: int, seconds: float, min_cells: int) -> Loop:
    """Run cells one after another, in-process, rotating over the CPUs,
    each calibrated on its own CPU."""
    rotation = itertools.cycle(cpus())

    def run_chunk(specs: List[ExperimentSpec]):
        cells = [run_cell(spec, next(rotation), calibrated=True) for spec in specs]
        return cells, sum(c.host_s for c in cells), sum(c.cpu_s for c in cells)

    return _chunked(workload, seed, seconds, min_cells, run_chunk)


def pool_loop(workload: Workload, seed: int, seconds: float, min_cells: int) -> Loop:
    """Run each chunk as one ``run_cells`` batch across ``workload.jobs`` workers.

    The pool dispatches in batch order as workers free up, so the cell at
    position ``j >= jobs`` starts when the ``(j - jobs + 1)``-th cell of
    its batch completes; a cell's host time runs from there to its own
    completion, pool start-up and IPC included.  Each batch is calibrated
    by reference passes on every CPU just before and just after it.
    """
    retried = failed = 0
    translation: Dict[str, int] = {}
    rotation = cpus()

    def references() -> List[float]:
        return [calibrate.reference_s(cpu) for cpu in rotation]

    def run_batch(specs: List[ExperimentSpec]):
        nonlocal retried, failed
        done: Dict[int, float] = {}
        before = references()
        usage = _Usage()

        def progress(event) -> None:
            done[event.index] = time.perf_counter() - usage.wall

        results, stats = run_cells(specs, jobs=workload.jobs, progress=progress)
        wall_s, parent_s, children_s = usage.since()
        scale = calibrate.scale(before + references())
        order = sorted(done.values())
        cells = []
        for index, (spec, result) in enumerate(zip(specs, results)):
            if result is None:
                cells.append(Cell(spec, None, problems=["no result from the pool"]))
                continue
            started = order[index - workload.jobs] if index >= workload.jobs else 0.0
            cell = Cell.of(spec, (done[index] - started) * scale, result)
            cell.scale = scale
            cells.append(cell)
        retried += stats.retried
        failed += stats.failed
        for error in stats.errors:
            print(f"pool error: {error}", file=sys.stderr)
        for key, value in (stats.translation or {}).items():
            translation[key] = translation.get(key, 0) + value
        return cells, wall_s * scale, (parent_s + children_s) * scale

    loop = _chunked(workload, seed, seconds, min_cells, run_batch)
    loop.retried, loop.failed, loop.translation = retried, failed, translation
    return loop


def end_to_end(workload: Workload, loop: Loop) -> Dict[str, tuple]:
    """The end-to-end metrics of an untraced loop, except ``setup_s``.

    Times are at the reference speed.  Rates are medians over the loop's
    chunks; cell times are over all cells; ``peak_rss_mb`` is the larger
    ``ru_maxrss`` of this process and of its workers.
    """
    cells = loop.cells
    host = [cell.host_s for cell in cells if cell.host_s is not None]

    def per_chunk(measure) -> float:
        return statistics.median(
            measure(chunk, cells[chunk.start : chunk.end]) for chunk in loop.chunks
        )

    return {
        "cells_per_s": (per_chunk(lambda chunk, part: len(part) / chunk.wall_s), "cells/s"),
        "cell_p50_s": (statistics.median(host), "s"),
        "cell_tail_s": (nearest_rank(host, workload.tail_pct), "s"),
        "sim_syscalls_per_s": (
            per_chunk(lambda chunk, part: sum(c.syscalls or 0 for c in part) / chunk.wall_s),
            "syscalls/s",
        ),
        "cpu_ms_per_kreq": (
            per_chunk(lambda chunk, part: chunk.cpu_s * 1e6 / sum(c.spec.requests for c in part)),
            "ms",
        ),
        "peak_rss_mb": (loop.peak_rss_kb / 1024, "MB"),
    }


def closed_loop(workload: Workload, seed: int, seconds: float, min_cells: int) -> Loop:
    driver = pool_loop if workload.jobs > 1 else serial_loop
    return driver(workload, seed, seconds, min_cells)


def replay_syscalls(workload: Workload, loop: Loop) -> None:
    """Fill in syscall counts of pooled cells from one untimed in-process
    replay of a batch; a replayed result that differs from the pooled one
    is a problem on the pooled cell."""
    replay = [run_cell(cell.spec) for cell in loop.cells[: workload.min_cells]]
    for position, cell in enumerate(loop.cells):
        twin = replay[position % len(replay)]
        cell.syscalls = twin.syscalls
        if twin.digest != cell.digest:
            cell.problems.append(f"pooled result differs from in-process ({cell.spec.label()})")


def identity_problems(cell: Cell) -> List[str]:
    """Re-run one cell on the reference eBPF and sim tiers: same result."""
    reference = run_cell(cell.spec.replace(vm_tier="reference", sim_tier="reference"))
    if reference.digest != cell.digest:
        return [f"reference tiers differ from default tiers on {cell.spec.label()}"]
    return reference.problems


def setup_times(workload: Workload, seed: int, count: int, scratch: Path) -> List[float]:
    """Seconds from spawning a fresh interpreter to the first cell's
    simulation start, with empty caches, ``count`` times, rotating the
    probes over the CPUs like the serial cells.  Each probe is calibrated
    by three reference passes on its CPU just before it."""
    times = []
    rotation = cpus()
    for index in range(count):
        env = dict(os.environ, REPRO_CODE_CACHE=tempfile.mkdtemp(dir=scratch))
        cpu = rotation[index % len(rotation)]
        scale = calibrate.scale([calibrate.reference_s(cpu) for _ in range(3)])
        start = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(PROBE), workload.name, str(seed), str(cpu)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        times.append((min(float(line) for line in probe.stdout.split()) - start) * scale)
    return times


def nearest_rank(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def rps_obsv_rel_err(cells: List[Cell]) -> float:
    """Median over cells of |RPS_obsv - achieved RPS| / achieved RPS (Eq. 1)."""
    return statistics.median(
        abs(c.fields["rps_obsv"] - c.fields["achieved_rps"]) / c.fields["achieved_rps"]
        for c in cells
        if c.fields and c.fields["achieved_rps"] > 0
    )


@dataclass
class Traced:
    """What the traced run measured; see :func:`traced_run`."""

    metrics: Dict[str, tuple]
    cells: List[Cell]
    absent: List[str]
    passes: int


def traced_run(workload: Workload, seed: int, seconds: float) -> Traced:
    """Per-layer metrics from serial in-process passes over ``workload.traced``.

    Each pass runs the cells untraced, then traced, so ``trace.overhead_ratio``
    compares the same cells; passes repeat until ``seconds`` have passed.
    Pool workloads first run one untraced batch for the executor metrics.
    """
    pooled = closed_loop(workload, seed, 0.0, workload.min_cells) if workload.jobs > 1 else None
    specs = [workload.cell(seed, index) for index in workload.traced]
    tracer = LayerTracer()
    rotation = cpus()
    cells: List[Cell] = []
    traces = []
    untraced_s = untraced_cpu_s = 0.0
    counts = {key: 0 for key in ("probe_runs", "insns", "translations", "lookups")}
    missing = set()
    for spec in specs:  # warm-up: lazy imports and first-use costs stay out of the ratio
        run_cell(spec)
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        usage = _Usage()
        plain = [run_cell(spec, rotation[i % len(rotation)]) for i, spec in enumerate(specs)]
        untraced_s += sum(cell.host_s for cell in plain)
        untraced_cpu_s += usage.since()[1]
        with tracer:
            for i, (spec, twin) in enumerate(zip(specs, plain)):
                cpu = rotation[i % len(rotation)]
                cell, trace = tracer.cell(lambda: run_cell(spec, cpu))
                if cell.digest != twin.digest:
                    cell.problems.append(f"tracing changed the result of {spec.label()}")
                cells.append(cell)
                traces.append(trace)
                for bpf in trace.bpfs:
                    for key, attr in (("probe_runs", "invocations"), ("insns", "insns_executed")):
                        if hasattr(bpf, attr):
                            counts[key] += sum(getattr(bpf, attr).values())
                        else:
                            missing.add(f"ebpf.{key}:repro.ebpf.bcc.BPF.{attr}")
                if trace.bpfs:
                    before = trace.translation_before
                    after = translation_counters(trace.bpfs[-1])
                    if before is None or after is None:
                        missing.add("ebpf.translations:repro.ebpf.bcc.BPF.translation_stats")
                    else:
                        counts["translations"] += after["translations"] - before["translations"]
                        counts["lookups"] += (
                            after["hits"] + after["misses"] - before["hits"] - before["misses"]
                        )

    n = len(cells)
    traced_s = sum(trace.total_s for trace in traces)
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        self_s = sum(trace.self_s.get(layer, 0.0) for trace in traces)
        metrics[f"{layer}_s"] = (self_s / n, "s")
        metrics[f"{layer}_share"] = (self_s / traced_s, "ratio")
    unattributed_s = sum(trace.unattributed_s for trace in traces)
    metrics["trace.unattributed_s"] = (unattributed_s / n, "s")
    metrics["trace.unattributed_share"] = (unattributed_s / traced_s, "ratio")
    metrics["trace.cell_s"] = (traced_s / n, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")

    def calls(name: str) -> float:
        return sum(trace.calls.get(name, 0) for trace in traces) / n

    results = [cell.fields for cell in cells if cell.fields]
    if pooled is not None:
        lookups = pooled.translation.get("hits", 0) + pooled.translation.get("misses", 0)
        translations = pooled.translation.get("translations", 0)
        per_cell = len(pooled.cells)
    else:
        lookups, translations, per_cell = counts["lookups"], counts["translations"], n
    metrics.update(
        {
            "ebpf.translations": (translations / per_cell, "count"),
            "ebpf.code_cache_hit_ratio": (1 - translations / lookups if lookups else 0.0, "ratio"),
            "ebpf.probe_runs": (counts["probe_runs"] / n, "count"),
            "ebpf.insns": (counts["insns"] / n, "count"),
            "kernel.syscalls": (sum(cell.syscalls or 0 for cell in cells) / n, "count"),
            "net.messages": (calls("net.send"), "count"),
            "core.windows": (calls("core.windows"), "count"),
            "core.lost_records": (sum(r["lost_records"] for r in results) / n, "count"),
            "export.bytes_rendered": (sum(t.rendered_bytes for t in traces) / n, "bytes"),
            "loadgen.rejected": (sum(r["rejected"] for r in results) / n, "count"),
            "loadgen.abandoned": (sum(r["abandoned"] for r in results) / n, "count"),
            "sim.duration_s": (sum(r["sim_duration_ns"] for r in results) / 1e9 / n, "sim_s"),
            "rps_obsv_rel_err": (rps_obsv_rel_err(cells), "ratio"),
        }
    )
    if pooled is not None:
        metrics.update(
            {
                "executor.parent_cpu_s": (pooled.parent_cpu_s / len(pooled.cells), "s"),
                "executor.worker_busy_ratio": (
                    pooled.worker_cpu_s / (workload.jobs * pooled.wall_s),
                    "ratio",
                ),
                "executor.retried": (pooled.retried, "count"),
                "executor.failed": (pooled.failed, "count"),
            }
        )
        cells = pooled.cells + cells
    else:
        metrics.update(
            {
                "executor.parent_cpu_s": (untraced_cpu_s / n, "s"),
                "executor.worker_busy_ratio": (0.0, "ratio"),
                "executor.retried": (0, "count"),
                "executor.failed": (0, "count"),
            }
        )
    return Traced(metrics, cells, tracer.absent + sorted(missing), passes)
