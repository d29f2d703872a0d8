"""The ``raw_syscalls`` tracepoint bus.

Every syscall the simulated kernel executes fires ``raw_syscalls:sys_enter``
on entry and ``raw_syscalls:sys_exit`` on return, exactly like a real Linux
kernel.  Attached probes (eBPF programs via :mod:`repro.ebpf.bcc`, or plain
Python callables for tests) receive a context object mirroring the
tracepoint's format struct.

Probes may report a *cost* in nanoseconds (the simulated time spent running
the probe in kernel context); the kernel charges that cost to the traced
syscall, which is how the overhead experiment (EXP-OVH) measures the <1 %
tail-latency impact of tracing.

A probe may attach with a :class:`ProbeGuard` naming the one tgid and the
syscall numbers it acts on.  The bus then dispatches per ``(tgid, nr)``
key and builds a context only when some probe accepts the firing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["ProbeGuard", "SysEnterCtx", "SysExitCtx", "TracepointBus", "Tracepoint"]


@dataclass(frozen=True)
class SysEnterCtx:
    """Context for ``raw_syscalls:sys_enter`` (cf. its format file)."""

    #: ``bpf_get_current_pid_tgid()`` value: (tgid << 32) | tid.
    pid_tgid: int
    #: Syscall number (``args->id`` in Listing 1).
    syscall_nr: int
    #: Up to six syscall arguments (integers; fds etc.).
    args: Tuple[int, ...] = ()
    #: Timestamp (``bpf_ktime_get_ns()``) the tracepoint fired.
    ktime_ns: int = 0

    @property
    def tgid(self) -> int:
        return self.pid_tgid >> 32

    @property
    def tid(self) -> int:
        return self.pid_tgid & 0xFFFFFFFF


@dataclass(frozen=True)
class SysExitCtx:
    """Context for ``raw_syscalls:sys_exit``."""

    pid_tgid: int
    syscall_nr: int
    ret: int = 0
    ktime_ns: int = 0

    @property
    def tgid(self) -> int:
        return self.pid_tgid >> 32

    @property
    def tid(self) -> int:
        return self.pid_tgid & 0xFFFFFFFF


#: A probe takes the context and returns its execution cost in ns (or None).
Probe = Callable[[object], Optional[int]]


class ProbeGuard:
    """A probe's leading filter: it does nothing unless the firing's tgid
    (``pid_tgid >> 32``) is ``tgid`` and its syscall number is in ``nrs``.

    A probe attached with a guard is called only for firings the guard
    accepts, the way a program attached to ``sys_enter_sendto`` never runs
    for other syscalls.  Subclasses standing in for a probe whose rejects
    still cost something (a compiled eBPF program's prologue) override
    :meth:`reject_cost` and :meth:`count_rejects`.
    """

    __slots__ = ("tgid", "nrs")

    def __init__(self, tgid: int, nrs: Iterable[int]) -> None:
        self.tgid = tgid
        self.nrs = frozenset(nrs)

    def accepts(self, tgid: int, nr: int) -> bool:
        return tgid == self.tgid and nr in self.nrs

    def reject_cost(self, tgid: int, nr: int) -> int:
        """Cost in ns the probe would have reported for a rejected firing."""
        return 0

    def count_rejects(self, tgid: int, nr: int, firings: int) -> None:
        """Account ``firings`` rejected firings of key ``(tgid, nr)``."""


class Tracepoint:
    """One attachable tracepoint (e.g. ``raw_syscalls:sys_enter``).

    Dispatch is planned per ``(tgid, nr)`` key: a plan lists the probes
    whose guards accept the key, in attach order (unguarded probes accept
    everything), the summed :meth:`ProbeGuard.reject_cost` of the rest, a
    firing count and the rejecting guards.  Plans are built on a key's
    first firing and dropped on attach/detach; rejected firings are
    credited to their guards lazily by :meth:`fold`, which attach and
    detach call first.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: List[Tuple[Probe, Optional[ProbeGuard]]] = []
        #: ``(tgid, nr)`` -> ``[firings, probes, reject cost, rejecting guards]``.
        self._plans: Dict[Tuple[int, int], list] = {}
        #: Diagnostics: number of firings.
        self.fired = 0

    def attach(self, probe: Probe, guard: Optional[ProbeGuard] = None) -> None:
        self.fold()
        self._entries.append((probe, guard))
        self._plans.clear()

    def detach(self, probe: Probe) -> None:
        self.fold()
        for index, (attached, _guard) in enumerate(self._entries):
            if attached == probe:
                del self._entries[index]
                break
        else:
            raise ValueError(f"probe {probe!r} is not attached to {self.name}")
        self._plans.clear()

    @property
    def probe_count(self) -> int:
        return len(self._entries)

    def plan(self, tgid: int, nr: int) -> list:
        """Build (and keep) the dispatch plan of key ``(tgid, nr)``."""
        probes = []
        rejecting = []
        cost = 0
        for probe, guard in self._entries:
            if guard is None or guard.accepts(tgid, nr):
                probes.append(probe)
            else:
                rejecting.append(guard)
                cost += guard.reject_cost(tgid, nr)
        plan = [0, tuple(probes), cost, tuple(rejecting)]
        self._plans[(tgid, nr)] = plan
        return plan

    def fold(self) -> None:
        """Credit each guard with the firings it rejected since the last fold."""
        for (tgid, nr), plan in self._plans.items():
            if plan[0]:
                for guard in plan[3]:
                    guard.count_rejects(tgid, nr, plan[0])
                plan[0] = 0

    def fire(self, ctx, plan: list) -> int:
        """Run the accepting probes of ``ctx``'s key ``plan`` (already
        counted by the caller); returns the summed probe cost in ns, the
        rejecting guards' costs included."""
        self.fired += 1
        cost = plan[2]
        for probe in plan[1]:
            probe_cost = probe(ctx)
            if probe_cost:
                cost += probe_cost
        return cost


class TracepointBus:
    """The kernel's tracepoint registry (the two the paper uses)."""

    SYS_ENTER = "raw_syscalls:sys_enter"
    SYS_EXIT = "raw_syscalls:sys_exit"

    def __init__(self) -> None:
        self.sys_enter = Tracepoint(self.SYS_ENTER)
        self.sys_exit = Tracepoint(self.SYS_EXIT)
        self._by_name = {
            self.SYS_ENTER: self.sys_enter,
            self.SYS_EXIT: self.sys_exit,
        }

    def get(self, name: str) -> Tracepoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown tracepoint {name!r}; available: {sorted(self._by_name)}"
            ) from None

    @property
    def any_probes(self) -> bool:
        """Fast path check: True if any probe is attached anywhere."""
        return bool(self.sys_enter.probe_count or self.sys_exit.probe_count)

    # The two firing paths build a context only when some probe accepts
    # the key: a firing every guard rejects costs one dict lookup.
    def fire_enter(self, pid_tgid: int, nr: int, args: Tuple[int, ...], ktime_ns: int) -> int:
        tracepoint = self.sys_enter
        if not tracepoint._entries:
            tracepoint.fired += 1
            return 0
        tgid = pid_tgid >> 32
        plan = tracepoint._plans.get((tgid, nr)) or tracepoint.plan(tgid, nr)
        plan[0] += 1
        if plan[1]:
            return tracepoint.fire(SysEnterCtx(pid_tgid, nr, args, ktime_ns), plan)
        tracepoint.fired += 1
        return plan[2]

    def fire_exit(self, pid_tgid: int, nr: int, ret: int, ktime_ns: int) -> int:
        tracepoint = self.sys_exit
        if not tracepoint._entries:
            tracepoint.fired += 1
            return 0
        tgid = pid_tgid >> 32
        plan = tracepoint._plans.get((tgid, nr)) or tracepoint.plan(tgid, nr)
        plan[0] += 1
        if plan[1]:
            return tracepoint.fire(SysExitCtx(pid_tgid, nr, ret, ktime_ns), plan)
        tracepoint.fired += 1
        return plan[2]
