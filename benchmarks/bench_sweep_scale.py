"""Fleet-scale sweep benchmark: translation bound + streaming sharded executor.

Measures the two resources the fleet-scale executor work targets and
asserts both stayed won:

* **Translation bound** — every pool worker keeps one encoding-keyed
  translation cache, so it translates each distinct eBPF program at most
  once: a fleet of any size may translate at most ``jobs`` x the number
  of distinct programs its grid attaches.  The distinct count is
  measured, not assumed (one in-process cell per workload against an
  empty cache), and the fleet starts from an empty cache as well (the
  parent's is cleared before the pool forks).  Translation counters are
  deterministic where wall time on a loaded CI box is not, so they are
  the gated quantity; wall time and throughput are recorded alongside.

* **Parent-memory flatness** — results stream to a JSONL spill instead
  of accumulating in the parent.  The benchmark runs a 50-cell batch
  first, snapshots the parent's ``ru_maxrss`` watermark, then runs the
  1000-cell fleet; the final watermark must stay within 1.3x of the
  50-cell watermark.  (``ru_maxrss`` is monotone, so ordering the small
  batch first is what makes the ratio meaningful.)

A shard identity check rides along: ``--shard 1/2`` union ``--shard
2/2`` of the base grid must be bit-identical to the unsharded run.
Parent heap peaks come from a separate ``tracemalloc`` pass over the
base grid after every timed phase: forked workers inherit the tracer
and slow down about tenfold, so it never runs inside a timed region.

``--smoke`` shrinks the grid for CI and writes
``results/bench_sweep_smoke.json``; the full run writes the committed
baseline ``BENCH_sweep.json`` at the repo root.  Exit code is non-zero
when any gate fails, so CI can run this directly.
"""

import argparse
import json
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

from repro import __version__
from repro.analysis import ExperimentSpec, execute_cell, run_cells
from repro.ebpf import clear_translation_cache, translation_cache_stats

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cheap workloads so the benchmark times the executor, not the apps.
WORKLOADS = ("silo", "xapian")

RSS_CEILING = 1.3


def _grid(cells: int, requests: int):
    """``cells`` distinct specs: WORKLOADS x distinct offered-RPS levels.

    ``monitor_mode="vm"`` so every cell actually loads, translates, and
    runs eBPF programs — the native monitor would never touch the
    translation path this benchmark exists to measure.
    """
    levels = [600.0 + 4.0 * i for i in range(cells // len(WORKLOADS))]
    return ExperimentSpec.grid(WORKLOADS, levels, requests=requests,
                               monitor_mode="vm")


def _dicts(results):
    return [r.to_dict() if r is not None else None for r in results]


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(specs, *, jobs, work_dir, tag):
    """One pooled batch from an empty translation cache, spilled."""
    clear_translation_cache()
    t0 = time.perf_counter()
    sink, stats = run_cells(specs, jobs=jobs,
                            spill=work_dir / f"spill-{tag}.jsonl")
    wall = time.perf_counter() - t0
    return sink, stats, wall


def _distinct_programs(requests: int) -> int:
    """Programs the grid attaches: one in-process cell per workload
    against an empty cache translates each of them exactly once."""
    clear_translation_cache()
    for spec in _grid(len(WORKLOADS), requests):
        execute_cell(spec)
    distinct = translation_cache_stats()["translations"]
    clear_translation_cache()
    return distinct


def _shard_identity(specs, baseline, *, jobs, work_dir) -> dict:
    union = [None] * len(specs)
    for i in (1, 2):
        sink, _ = run_cells(specs, jobs=jobs, shard=f"{i}/2",
                            spill=work_dir / f"spill-shard{i}.jsonl")
        for pos, result in sink.iter_results():
            union[pos] = result
    return {"cells": len(specs), "identical": _dicts(union) == baseline}


def _heap_peak_kb(specs, *, jobs, work_dir) -> int:
    """Parent heap peak over one untimed batch, traced by tracemalloc."""
    tracemalloc.start()
    try:
        run_cells(specs, jobs=jobs, spill=work_dir / "spill-heap.jsonl")
        return tracemalloc.get_traced_memory()[1] // 1024
    finally:
        tracemalloc.stop()


def _phase(stats, wall: float) -> dict:
    return {"wall_s": round(wall, 3),
            "cells_per_s": round(stats.computed / wall, 2) if wall else None,
            "spilled": stats.spilled,
            "translation": stats.translation}


def run_benchmark(cells: int, base_cells: int, requests: int, jobs: int,
                  smoke: bool) -> dict:
    work_dir = REPO_ROOT / "results" / ".bench-sweep"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    try:
        # Phase 1 — the small batch, FIRST (ru_maxrss is monotone).
        print(f"base:  {base_cells} cells x {requests} requests "
              f"(jobs={jobs}, spill on)")
        base_specs = _grid(base_cells, requests)
        base_sink, base_stats, base_wall = _run(
            base_specs, jobs=jobs, work_dir=work_dir, tag="base")
        base_rss_kb = _rss_kb()
        baseline = _dicts(base_sink.materialize())

        # Phase 2 — the fleet.
        specs = _grid(cells, requests)
        print(f"fleet: {len(specs)} cells")
        _, fleet_stats, fleet_wall = _run(specs, jobs=jobs,
                                          work_dir=work_dir, tag="fleet")
        full_rss_kb = _rss_kb()

        # Untimed checks and measurements.
        print("shard: 1/2 union 2/2 vs the unsharded base run")
        shard = _shard_identity(base_specs, baseline, jobs=jobs,
                                work_dir=work_dir)
        distinct = _distinct_programs(requests)
        print(f"heap:  tracemalloc pass over the {base_cells}-cell grid")
        heap_kb = _heap_peak_kb(base_specs, jobs=jobs, work_dir=work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    return {
        "benchmark": "bench_sweep_scale",
        "version": __version__,
        "smoke": smoke,
        "cells": cells,
        "base_cells": base_cells,
        "requests": requests,
        "jobs": jobs,
        "distinct_programs": distinct,
        "base": _phase(base_stats, base_wall),
        "fleet": _phase(fleet_stats, fleet_wall),
        "shard": shard,
        "rss": {"base_kb": base_rss_kb, "full_kb": full_rss_kb,
                "ratio": round(full_rss_kb / base_rss_kb, 4)},
        "heap": {"base_peak_kb": heap_kb},
        "limits": {"rss_ceiling": RSS_CEILING},
    }


def gate(record: dict, println=print) -> int:
    """Judge the record against its gates; returns the failure count."""
    failures = 0

    translations = record["fleet"]["translation"]["translations"]
    bound = record["jobs"] * record["distinct_programs"]
    verdict = "FAIL" if translations > bound else "ok"
    println(f"{verdict:>4} fleet translations: {translations} "
            f"(bound {record['jobs']} jobs x {record['distinct_programs']} "
            f"distinct programs = {bound})")
    failures += translations > bound

    ratio = record["rss"]["ratio"]
    verdict = "FAIL" if ratio > RSS_CEILING else "ok"
    println(f"{verdict:>4} peak RSS {record['rss']['full_kb']}KB after "
            f"{record['cells']}-cell fleet = {ratio:.3f}x the "
            f"{record['base_cells']}-cell watermark "
            f"(ceiling {RSS_CEILING}x)")
    failures += ratio > RSS_CEILING

    identical = record["shard"]["identical"]
    verdict = "ok" if identical else "FAIL"
    println(f"{verdict:>4} shard 1/2 union 2/2 bit-identical to unsharded "
            f"({record['shard']['cells']} cells)")
    failures += not identical

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small grid for CI; writes results/bench_sweep_smoke.json")
    parser.add_argument("--cells", type=int, default=None,
                        help="fleet size (default 1000, smoke 120)")
    parser.add_argument("--base-cells", type=int, default=None,
                        help="RSS-watermark batch size (default 50, smoke 20)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per cell (default 60, smoke 30)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    args = parser.parse_args(argv)

    cells = args.cells or (120 if args.smoke else 1000)
    base_cells = args.base_cells or (20 if args.smoke else 50)
    requests = args.requests or (30 if args.smoke else 60)

    record = run_benchmark(cells, base_cells, requests, args.jobs, args.smoke)

    if args.smoke:
        out = REPO_ROOT / "results" / "bench_sweep_smoke.json"
        out.parent.mkdir(exist_ok=True)
    else:
        out = REPO_ROOT / "BENCH_sweep.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    failures = gate(record)
    if failures:
        print(f"{failures} sweep-scale gate(s) failed", file=sys.stderr)
        return 1
    print("sweep-scale gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
