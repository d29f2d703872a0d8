"""The monitor's window bus: export, correlation and control share one loop.

Every windowed consumer subscribes to ``RequestMetricsMonitor``'s single
simulated-time loop, so any combination may run in one cell.  Adding a
consumer must not change what another one sees: each consumer's payload in
a combined cell equals the payload it produces alone (alongside the
controller, when the controller is in the mix — it is the only consumer
that acts on the simulation).
"""

from functools import lru_cache
from itertools import combinations

import pytest

from repro.analysis.executor import ExperimentSpec, execute_cell
from repro.core import CollectorConfig, ExportConfig, MetricsSnapshot, RequestMetricsMonitor
from repro.core.config import ControlConfig, CorrelateConfig
from repro.kernel import Kernel, MachineSpec
from repro.net import Message
from repro.sim import MSEC, Environment, SeedSequence

CONSUMERS = {
    "export": {"export": ExportConfig(window_ns=100 * MSEC)},
    "correlate": {"correlate": CorrelateConfig(window_ns=50 * MSEC)},
    "control": {"control": ControlConfig(policy="shed", window_ns=50 * MSEC)},
}

#: data-caching with a mid-run lull: the shed controller calibrates on the
#: first phase, sees the RPS drop, engages and rejects requests — so the
#: comparison covers a controller that really acts on the simulation.
BASES = {
    "data-caching-vm": ExperimentSpec(
        workload="data-caching",
        offered_rps=2000,
        requests=1160,
        monitor_mode="vm",
        phases=((2000, 700), (200, 60), (2000, 400)),
    ),
    "triton-grpc-stream": ExperimentSpec(
        workload="triton-grpc",
        offered_rps=15,
        requests=40,
        monitor_mode="stream",
        cpus=2,
    ),
}

SUBSETS = [
    ("data-caching-vm", names)
    for size in (1, 2, 3)
    for names in combinations(CONSUMERS, size)
] + [("triton-grpc-stream", tuple(CONSUMERS))]

#: LevelResult fields that are not a consumer payload.
HEADLINE_EXCLUDED = ("export", "extra")


@lru_cache(maxsize=None)
def _cell(base: str, names: tuple):
    overrides = {}
    for name in names:
        overrides.update(CONSUMERS[name])
    return execute_cell(BASES[base].replace(**overrides))


def _alone(base: str, name: str, names: tuple):
    """The cell where ``name`` runs alone — plus the controller, if the
    combined cell has one (its actions change the simulation)."""
    alone = (name,) if name == "control" or "control" not in names else (name, "control")
    return _cell(base, tuple(sorted(alone)))


@pytest.mark.parametrize(
    "base,names", SUBSETS, ids=[f"{base}-{'+'.join(names)}" for base, names in SUBSETS]
)
def test_each_consumer_sees_what_it_sees_alone(base, names):
    combined = _cell(base, tuple(sorted(names)))
    reference = _cell(base, ("control",) if "control" in names else ())
    for field, value in combined.to_dict().items():
        if field not in HEADLINE_EXCLUDED:
            assert value == getattr(reference, field), field
    extra = combined.extra or {}
    assert ("export" in names) == (combined.export is not None)
    assert ("correlate" in names) == ("correlation" in extra)
    assert ("control" in names) == ("control" in extra)
    if "export" in names:
        assert combined.export == _alone(base, "export", names).export
    if "correlate" in names:
        assert extra["correlation"] == _alone(base, "correlate", names).extra["correlation"]
    if "control" in names:
        assert extra["control"] == _alone(base, "control", names).extra["control"]


def test_controller_really_acts_in_the_combined_cells():
    control = _cell("data-caching-vm", ("control",)).extra["control"]
    assert control["engagements"] >= 1
    assert control["rejected"] > 0


def test_export_cell_merges_each_window_once(monkeypatch):
    """The whole-run snapshot and the exporter's aggregate are one running
    fold; no scrape re-merges the window list."""
    calls = []
    merge = MetricsSnapshot.merge

    def counting_merge(self, other):
        calls.append(1)
        return merge(self, other)

    monkeypatch.setattr(MetricsSnapshot, "merge", counting_merge)
    result = execute_cell(BASES["data-caching-vm"].replace(**CONSUMERS["export"]))
    windows = result.export["windows"]
    assert windows >= 5
    assert len(calls) <= windows + 2


def _echo_monitor(window_ms=5):
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=0)
    kernel = Kernel(Environment(), spec, SeedSequence(1), interference=False)
    env = kernel.env
    proc = kernel.create_process("srv")
    client, server = kernel.open_connection()

    def worker(task):
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        while True:
            yield from task.sys_epoll_wait(ep)
            msg = yield from task.sys_read(server)
            yield from task.sys_sendmsg(server, Message(size=msg.size))

    proc.spawn_thread(worker)

    def driver():
        while True:
            yield env.timeout(1 * MSEC)
            client.send(Message(size=64))

    env.process(driver())
    config = CollectorConfig(mode="vm", export=ExportConfig(window_ns=window_ms * MSEC))
    return env, RequestMetricsMonitor(kernel, proc.pid, config=config)


def test_reattach_retires_the_stale_loop():
    """detach() then attach() before the old loop's next tick: the stale
    loop must retire, so no window is closed twice or overlaps another."""
    env, monitor = _echo_monitor()
    monitor.attach()
    env.run(until=12 * MSEC)
    monitor.detach()
    env.run(until=13 * MSEC)
    monitor.attach()  # the superseded loop would still tick at 15 ms
    env.run(until=45 * MSEC)
    whole = monitor.close()
    windows = monitor.exporter.windows
    spans = [(w.window_start_ns // MSEC, w.window_end_ns // MSEC) for w in windows]
    assert spans == [
        (0, 5), (5, 10), (13, 18), (18, 23), (23, 28), (28, 33), (33, 38), (38, 43), (43, 45),
    ]
    assert monitor.exporter.render_count == len(windows) - 1  # the tail is not scraped
    merged = MetricsSnapshot.merge_all(windows)
    assert monitor.exporter.aggregate() == merged
    assert whole == merged


def test_close_delivers_only_a_tail_that_covers_time():
    env, monitor = _echo_monitor()
    seen = []
    monitor.subscribe(10 * MSEC, lambda window, tail: seen.append((window.duration_ns, tail)))
    monitor.attach()
    env.run(until=30 * MSEC)
    monitor.close()
    # The 10 ms subscriber merges two 5 ms base windows per delivery; the
    # run ends on a boundary, so its empty tail is not delivered.
    assert seen == [(10 * MSEC, False)] * 3
    assert [w.duration_ns for w in monitor.exporter.windows] == [5 * MSEC] * 6


def test_subscribe_after_attach_is_rejected():
    _env, monitor = _echo_monitor()
    monitor.attach()
    with pytest.raises(RuntimeError, match="attach"):
        monitor.subscribe(10 * MSEC, lambda window, tail: None)
    with pytest.raises(ValueError):
        RequestMetricsMonitor(monitor.kernel, monitor.tgid, config="vm").subscribe(0, print)
