"""The repository benchmark: host cost of running the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload vm-long --seed 1317 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload untraced;
``--trace 1`` measures the per-layer metrics in a separate traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every correctness check passed.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 10

#: End-to-end metrics printed in the record but given no bound: one is 0 on
#: every good run, the other varies from seed to seed by more than any bound.
UNBOUNDED = ("failed_ratio", "rps_obsv_rel_err")


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")


def _untraced(workload, seed: int, seconds: float, scratch: Path):
    from perfbench import drive

    loop = drive.closed_loop(workload, seed, seconds, workload.min_cells)
    if workload.jobs > 1:
        drive.replay_syscalls(workload, loop)
    identity = drive.identity_problems(loop.cells[0])
    setups = drive.setup_times(workload, seed, SETUP_PROBES, scratch)

    metrics = {"setup_s": (statistics.median(setups), "s"), **drive.end_to_end(workload, loop)}
    cells = loop.cells
    failed = sum(1 for cell in cells if cell.problems) + (1 if identity else 0)
    attempted = len(cells) + 1
    accuracy_set = cells[: workload.min_cells]
    record = {
        "workload": workload.name,
        "seed": seed,
        "cells": len(cells),
        "chunks": len(loop.chunks),
        "wall_s": loop.wall_s,
        "calibration_scale": statistics.median(cell.scale for cell in cells),
        "tail_percentile": workload.tail_pct,
        "tail_samples": sum(1 for cell in cells if cell.host_s is not None),
        "failed_ratio": failed / attempted,
        "rps_obsv_rel_err": drive.rps_obsv_rel_err(accuracy_set),
        "accuracy_cells": len(accuracy_set),
        "digest": _digest(accuracy_set),
        "setup_samples_s": setups,
        "executor_retried": loop.retried,
        "executor_failed": loop.failed,
    }
    problems = [p for cell in cells for p in cell.problems] + identity
    return metrics, record, attempted, failed, problems


def _traced(workload, seed: int, seconds: float):
    from perfbench import drive

    traced = drive.traced_run(workload, seed, seconds)
    failed = sum(1 for cell in traced.cells if cell.problems)
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced_cells": len(workload.traced),
        "passes": traced.passes,
        "absent_layers": traced.absent,
        "digest": _digest(traced.cells),
    }
    problems = [p for cell in traced.cells for p in cell.problems]
    return traced.metrics, record, len(traced.cells), failed, problems


def _digest(cells) -> str:
    joined = ",".join(cell.digest for cell in cells)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1317)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.drive import tracing_active
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    reason = tracing_active()
    if reason is not None:
        print(f"error: refusing to time while {reason}", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    # Every run compiles into its own empty code cache, never results/.codecache.
    os.environ["REPRO_CODE_CACHE"] = str(scratch / "codecache")
    try:
        if args.trace:
            measured = _traced(workload, args.seed, args.seconds)
        else:
            measured = _untraced(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()
    metrics, record, attempted, failed, problems = measured

    mode = "traced per-layer" if args.trace else "untraced end-to-end"
    print(f"{workload.name} ({mode}, seed {args.seed}): {workload.why}")
    _print_metrics(metrics)
    if not args.trace:
        print("  not bounded (see perfbench/README.md):")
        _print_metrics({name: (record[name], "ratio") for name in UNBOUNDED})
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
