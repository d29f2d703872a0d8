"""Per-layer span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: each entry of
:data:`SPANS` names a public function of one layer of ``repro``, and
:class:`LayerTracer` replaces it, at class or module level, with a wrapper
that times the call.  A layer's self time is its spans' duration minus the
part covered by child spans, so the self times of all layers plus the
root span's own remainder (``trace.unattributed_s``) add up to the traced
cell time exactly.

Wrappers are installed before a cell is built, because the compiled
workload tier binds ``TracepointBus.fire_enter``/``fire_exit`` when the
app starts.  A wrapped function that no longer exists is reported as an
absent layer rather than raising, so layers can be renamed or deleted
without editing the benchmark first.  Spans are aggregated per layer in
memory and read out when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: ``(layer, module, attribute path)``: a timed span around every call.
SPANS = (
    ("kernel.boot", "repro.kernel.kernel", "Kernel.__init__"),
    ("workloads.build", "repro.workloads.registry", "WorkloadDefinition.build"),
    ("ebpf.verify", "repro.ebpf.bcc", "BPF.load"),
    ("ebpf.translate", "repro.ebpf.bcc", "BPF.attach_tracepoint"),
    ("core.attach", "repro.core.monitor", "RequestMetricsMonitor.attach"),
    ("sim.run_self", "repro.sim.engine", "Environment.run"),
    ("kernel.tracepoint", "repro.kernel.tracepoints", "TracepointBus.fire_enter"),
    ("kernel.tracepoint", "repro.kernel.tracepoints", "TracepointBus.fire_exit"),
    ("ebpf.probe", "repro.kernel.tracepoints", "Tracepoint.fire"),
    ("net.send", "repro.net.channel", "Channel.send"),
    ("core.snapshot", "repro.core.monitor", "RequestMetricsMonitor.snapshot"),
    ("core.drain", "repro.core.streaming", "StreamingDeltaCollector.drain"),
    ("core.window_merge", "repro.core.monitor", "MetricsSnapshot.merge_all"),
    ("export.render", "repro.export.exporter", "PrometheusExporter.render"),
    ("analysis.correlate", "repro.analysis.correlate", "correlate_windows"),
)

#: ``(counter, module, attribute path)``: calls counted, not timed.
COUNTERS = (
    ("bpf.instances", "repro.ebpf.bcc", "BPF.__init__"),
    ("core.windows", "repro.core.monitor", "RequestMetricsMonitor.reset_window"),
)

#: Layer names in report order (``sim.run_self`` is ``Environment.run``
#: minus its children: engine dispatch, service loops, scheduling, arrivals).
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    owned: bool


@dataclass
class CellTrace:
    """What one traced cell left behind: self time and calls per layer."""

    total_s: float = 0.0
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    rendered_bytes: int = 0
    bpfs: List[object] = field(default_factory=list)
    translation_before: Optional[Dict[str, int]] = None

    @property
    def unattributed_s(self) -> float:
        return self.total_s - sum(self.self_s.values())


def _resolve(module_name: str, path: str):
    """``(owner, attr, value)`` for a dotted attribute path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, inspect.getattr_static(owner, attr)


class LayerTracer:
    """Installs the layer wrappers for the duration of a ``with`` block.

    Use :meth:`cell` around each ``execute_cell`` call; it returns the
    :class:`CellTrace` filled in while the cell ran.
    """

    def __init__(self) -> None:
        self.absent: List[str] = []
        self._patches: List[_Patch] = []
        # One child-time accumulator per open span; index 0 is the cell.
        self._stack: List[float] = [0.0]
        self._current = CellTrace()

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.absent = []
        for layer, module_name, path in SPANS:
            self._install(layer, module_name, path, self._timed)
        for counter, module_name, path in COUNTERS:
            self._install(counter, module_name, path, self._counted)
        return self

    def __exit__(self, *exc) -> None:
        for patch in reversed(self._patches):
            if patch.owned:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)
        self._patches.clear()

    def _install(self, name: str, module_name: str, path: str, make: Callable) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.absent.append(f"{name}:{module_name}.{path}")
            return
        owner, attr, raw = found
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = functools.wraps(fn)(make(name, fn))
        owned = not inspect.isclass(owner) or attr in vars(owner)
        self._patches.append(_Patch(owner, attr, raw, owned))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def _timed(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        after = _AFTER.get(layer)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                trace = tracer._current
                trace.self_s[layer] = trace.self_s.get(layer, 0.0) + elapsed - children
                trace.calls[layer] = trace.calls.get(layer, 0) + 1
            if after is not None:
                after(trace, args, result)
            return result

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        tracer = self
        after = _AFTER.get(counter)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            trace = tracer._current
            trace.calls[counter] = trace.calls.get(counter, 0) + 1
            if after is not None:
                after(trace, args, result)
            return result

        return wrapper

    # -- one cell ------------------------------------------------------------
    def cell(self, run: Callable[[], object]):
        """Run ``run()`` as the root span; returns ``(result, CellTrace)``."""
        trace = self._current = CellTrace()
        self._stack[:] = [0.0]
        start = time.perf_counter()
        result = run()
        trace.total_s = time.perf_counter() - start
        self._current = CellTrace()
        return result, trace


def _after_render(trace: CellTrace, args, result) -> None:
    trace.rendered_bytes += len(result)


def _after_bpf(trace: CellTrace, args, result) -> None:
    # Loading verifies; translation happens at attach.  The cell's first
    # BPF object therefore reads the shared cache before any translation.
    if not trace.bpfs:
        trace.translation_before = translation_counters(args[0])
    trace.bpfs.append(args[0])


#: Post-call hooks: objects and sizes the layer metrics are read from.
_AFTER = {
    "export.render": _after_render,
    "bpf.instances": _after_bpf,
}


def translation_counters(bpf) -> Optional[Dict[str, int]]:
    """The translation-cache counters a ``BPF`` object reports, if any."""
    stats = getattr(bpf, "translation_stats", None)
    if stats is None:
        return None
    counters = stats()
    return {key: int(counters.get(key, 0)) for key in ("hits", "misses", "translations")}
