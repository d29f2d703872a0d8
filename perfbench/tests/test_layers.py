"""The traced run's accounting: self times plus the remainder are the cell."""

from repro import ExperimentSpec

from perfbench import layers
from perfbench.drive import run_cell


def _small_cell() -> ExperimentSpec:
    return ExperimentSpec("silo", 600, requests=60, monitor_mode="vm")


def test_self_times_and_remainder_add_up_to_the_cell():
    with layers.LayerTracer() as tracer:
        cell, trace = tracer.cell(lambda: run_cell(_small_cell()))
    assert not cell.problems
    assert tracer.absent == []
    assert trace.total_s > 0
    accounted = sum(trace.self_s.values()) + trace.unattributed_s
    assert abs(accounted - trace.total_s) < 1e-9
    assert 0 <= trace.unattributed_s < trace.total_s
    for layer in ("kernel.boot", "workloads.build", "ebpf.translate", "sim.run_self"):
        assert trace.calls[layer] >= 1, layer
    assert trace.bpfs and trace.translation_before is not None


def test_tracing_leaves_results_and_functions_unchanged():
    from repro.kernel.tracepoints import TracepointBus

    original = TracepointBus.fire_enter
    plain = run_cell(_small_cell())
    with layers.LayerTracer() as tracer:
        traced, _ = tracer.cell(lambda: run_cell(_small_cell()))
        assert TracepointBus.fire_enter is not original
    assert TracepointBus.fire_enter is original
    assert traced.digest == plain.digest


def test_missing_function_is_an_absent_layer(monkeypatch):
    spans = layers.SPANS + (
        ("gone.layer", "repro.core.monitor", "RequestMetricsMonitor.no_such_method"),
        ("gone.module", "repro.no_such_module", "Thing.method"),
    )
    monkeypatch.setattr(layers, "SPANS", spans)
    with layers.LayerTracer() as tracer:
        cell, trace = tracer.cell(lambda: run_cell(_small_cell()))
    assert not cell.problems
    assert [entry.split(":")[0] for entry in tracer.absent] == ["gone.layer", "gone.module"]
    assert "gone.layer" not in trace.self_s
