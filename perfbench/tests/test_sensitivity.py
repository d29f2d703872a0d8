"""Sensitivity self-test: a fixed delay injected into one layer must show
in that layer's traced metric and in the end-to-end metric predicted for
it, on the predicted workload, and leave ``vm-long`` within its bounds.

Run from the repository root (takes about two minutes)::

    python3 -m pytest perfbench/tests -q
"""

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import pytest
from repro.ebpf.bcc import BPF
from repro.export.exporter import PrometheusExporter

from perfbench import drive
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in BENCHMARK["end_to_end"]}
SEED = 1317


def _worsening(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if LOWER_IS_BETTER[name] else -change


def _measure(workload) -> dict:
    loop = drive.closed_loop(workload, SEED, 0.0, workload.chunk)
    assert all(not cell.problems for cell in loop.cells)
    return {key: value for key, (value, _) in drive.end_to_end(workload, loop).items()}


def _delay(monkeypatch, owner, name: str, seconds: float) -> None:
    """Make every call of ``owner.name`` busy-wait ``seconds`` first."""
    original = getattr(owner, name)

    def slowed(*args, **kwargs):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, slowed)


def _paired(name: str, chunk: int, rounds: int, owner, attr: str, delay: float):
    """Median end-to-end metrics without and with the delay, measured in
    alternating chunks so that drifting host speed hits both sides."""
    workload = replace(WORKLOADS[name], chunk=chunk)
    base, slow = [], []
    for _ in range(rounds):
        base.append(_measure(workload))
        with pytest.MonkeyPatch.context() as patch:
            _delay(patch, owner, attr, delay)
            slow.append(_measure(workload))
    return tuple(
        {key: statistics.median(run[key] for run in runs) for key in runs[0]}
        for runs in (base, slow)
    )


def _layer(name: str, metric: str, owner=None, attr: str = "", delay: float = 0.0) -> float:
    with pytest.MonkeyPatch.context() as patch:
        if owner is not None:
            _delay(patch, owner, attr, delay)
        traced = drive.traced_run(WORKLOADS[name], SEED, 0.0)
    assert traced.absent == []
    return traced.metrics[metric][0]


def _assert_within_bounds(base: dict, new: dict) -> None:
    for name, bound in BOUNDS.items():
        if name in base:
            assert _worsening(name, base[name], new[name]) <= bound, (name, base, new)


@pytest.fixture(autouse=True)
def _isolated_code_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path / "codecache"))


def test_attach_delay_moves_translate_and_sweep_throughput():
    delay = 0.010
    target = (BPF, "attach_tracepoint", delay)
    base, slow = _paired("sweep-short", WORKLOADS["sweep-short"].chunk, 3, *target)
    assert _worsening("cells_per_s", base["cells_per_s"], slow["cells_per_s"]) > BOUNDS[
        "cells_per_s"
    ]
    # At least two programs attach per cell.
    layer = "ebpf.translate_s"
    assert _layer("sweep-short", layer, *target) > _layer("sweep-short", layer) + 2 * delay
    _assert_within_bounds(*_paired("vm-long", 2, 4, *target))


def test_render_delay_moves_render_and_stream_tail():
    delay = 0.002
    target = (PrometheusExporter, "render", delay)
    base, slow = _paired("stream-windowed", 15, 3, *target)
    assert _worsening("cell_tail_s", base["cell_tail_s"], slow["cell_tail_s"]) > BOUNDS[
        "cell_tail_s"
    ]
    # Export cells render once per 100 ms window, about a hundred times a
    # cell, and export is one cell in three.
    layer = "export.render_s"
    assert _layer("stream-windowed", layer, *target) > _layer("stream-windowed", layer) + 20 * delay
    _assert_within_bounds(*_paired("vm-long", 2, 4, *target))
