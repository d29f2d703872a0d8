"""A bcc-like frontend: load maps + programs, attach to tracepoints.

Mirrors the pieces of BCC's Python API the paper's methodology needs::

    b = BPF(kernel, maps={"start": HashMap(8, 8)}, programs=[enter, exit_])
    b.attach_tracepoint("raw_syscalls:sys_enter", "on_enter")
    ...
    b["start"].items_int()
    b.detach_all()

Attachment converts the simulated tracepoint context into the real record
byte layout, builds a per-invocation helper runtime (clock = the kernel's
``ktime``, current task = the syscall-ing thread), and interprets the
program in the VM.  With ``charge_cost=True`` the interpreter's cost model
is charged to the traced syscall — the mechanism behind the overhead study.

On the compiled tier a program whose prologue is Listing 1's tgid/syscall
filter (:func:`~repro.ebpf.guard.derive_guard`) attaches with that filter
as its tracepoint guard: foreign firings never pack a context or enter the
program, and :class:`_ProgramGuard` accounts for them exactly as if the
prologue had run and rejected.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..kernel.kernel import Kernel
from ..kernel.tracepoints import ProbeGuard
from .compiled import DEFAULT_VM_TIER, make_vm
from .context import ProgType, pack_sys_enter, pack_sys_exit
from .errors import BpfError
from .guard import ProgramGuard
from .helpers import HelperRuntime
from .maps import BpfMap, PerfEventArray, RingBuf
from .program import Program
from .vm import Vm

__all__ = ["BPF"]

MapLike = Union[BpfMap, RingBuf, PerfEventArray]


class _ProgramGuard(ProbeGuard):
    """A compiled program's derived guard, as one attachment's tracepoint guard.

    Rejected firings cost what the program's own reject path costs (with
    ``charge_cost``) and are counted into the owning :class:`BPF`'s
    ``invocations``/``insns_executed`` when the tracepoint folds, so the
    counters read exactly what running the program on every firing gives.
    """

    __slots__ = ("guard", "name", "invocations", "insns_executed",
                 "insn_cost_ns", "charge_cost")

    def __init__(self, guard: ProgramGuard, name: str, invocations: Dict[str, int],
                 insns_executed: Dict[str, int], insn_cost_ns: int,
                 charge_cost: bool) -> None:
        super().__init__(guard.tgid, guard.nrs)
        self.guard = guard
        self.name = name
        self.invocations = invocations
        self.insns_executed = insns_executed
        self.insn_cost_ns = insn_cost_ns
        self.charge_cost = charge_cost

    def accepts(self, tgid: int, nr: int) -> bool:
        return self.guard.reject_path(tgid, nr) is None

    def reject_cost(self, tgid: int, nr: int) -> int:
        if not self.charge_cost:
            return 0
        steps, helper_cost = self.guard.reject_path(tgid, nr)
        return helper_cost + steps * self.insn_cost_ns

    def count_rejects(self, tgid: int, nr: int, firings: int) -> None:
        steps, _helper_cost = self.guard.reject_path(tgid, nr)
        self.invocations[self.name] += firings
        self.insns_executed[self.name] += firings * steps


class BPF:
    """Loads programs against a kernel and manages attachments.

    Programs run on the compiled VM tier by default (falling back to the
    reference interpreter per program where its code generator bails).
    Pass ``vm_tier`` (``"reference"``/``"compiled"``) to pin a tier, or
    ``vm`` for a pre-built interpreter instance; both tiers are
    bit-for-bit identical.  ``cpu_of`` maps a tracepoint context to the
    CPU the probe observes itself on (``bpf_get_smp_processor_id`` and
    the per-CPU ``perf_event_output`` buffer index); the default pins
    everything to CPU 0.

    ``config`` accepts anything with ``charge_cost``/``vm_tier``
    attributes — in practice a :class:`repro.core.config.CollectorConfig`
    (duck-typed to keep this layer free of core imports) — and supplies
    defaults for those two knobs; explicit keyword arguments win.
    """

    def __init__(
        self,
        kernel: Kernel,
        maps: Optional[Mapping[str, MapLike]] = None,
        programs: Sequence[Program] = (),
        charge_cost: Optional[bool] = None,
        vm: Optional[Vm] = None,
        cpu_of: Optional[Callable[[object], int]] = None,
        vm_tier: Optional[str] = None,
        config: Optional[object] = None,
    ) -> None:
        if config is not None:
            if charge_cost is None:
                charge_cost = getattr(config, "charge_cost", None)
            if vm_tier is None and vm is None:
                vm_tier = getattr(config, "vm_tier", None)
        if vm is not None and vm_tier is not None:
            raise BpfError("pass either vm or vm_tier, not both")
        self.kernel = kernel
        self.maps: Dict[str, MapLike] = dict(maps or {})
        for name, bpf_map in self.maps.items():
            if getattr(bpf_map, "name", None) in (None, "", bpf_map.map_type):
                bpf_map.name = name
        self.charge_cost = bool(charge_cost)
        #: Tier name the interpreter was built from (None for a custom vm).
        self.vm_tier = (vm_tier if vm_tier is not None
                        else None if vm is not None else DEFAULT_VM_TIER)
        self.vm = vm if vm is not None else make_vm(self.vm_tier)
        self.cpu_of = cpu_of
        self._programs: Dict[str, Program] = {}
        self._attached: List[tuple] = []
        self._invocations: Dict[str, int] = {}
        self._insns_executed: Dict[str, int] = {}
        for program in programs:
            self.load(program)

    # -- loading ---------------------------------------------------------
    def load(self, program: Program) -> Program:
        """Resolve map names, verify, and register a program."""
        if program.name in self._programs:
            raise BpfError(f"duplicate program name {program.name!r}")
        resolved = program.resolve_maps(self.maps).verify()
        self._programs[resolved.name] = resolved
        self._invocations[resolved.name] = 0
        self._insns_executed[resolved.name] = 0
        return resolved

    # -- diagnostics ---------------------------------------------------------
    def _fold(self) -> None:
        for tracepoint in {tp for tp, _probe in self._attached}:
            tracepoint.fold()

    @property
    def invocations(self) -> Dict[str, int]:
        """Per-program invocation counts, guard-rejected firings included."""
        self._fold()
        return self._invocations

    @property
    def insns_executed(self) -> Dict[str, int]:
        """Per-program executed-instruction counts, guard-rejected firings
        included."""
        self._fold()
        return self._insns_executed

    def __getitem__(self, map_name: str) -> MapLike:
        return self.maps[map_name]

    def translation_stats(self) -> Dict[str, int]:
        """Translation-cache counters for the VM behind this BPF object:
        ``hits``/``misses`` over content lookups, ``translations`` and
        ``translate_ns`` (empty for the reference tier)."""
        cache = getattr(self.vm, "cache", None)
        return cache.stats() if cache is not None else {}

    @property
    def programs(self) -> Dict[str, Program]:
        return dict(self._programs)

    # -- attachment --------------------------------------------------------
    def attach_tracepoint(self, tp_name: str, prog_name: str) -> None:
        """Attach a loaded program to ``raw_syscalls:sys_enter``/``sys_exit``."""
        try:
            program = self._programs[prog_name]
        except KeyError:
            raise BpfError(f"no loaded program named {prog_name!r}") from None
        tracepoint = self.kernel.tracepoints.get(tp_name)
        expected = {
            "raw_syscalls:sys_enter": ProgType.tracepoint_sys_enter().name,
            "raw_syscalls:sys_exit": ProgType.tracepoint_sys_exit().name,
        }[tp_name]
        if program.prog_type.name != expected:
            raise BpfError(
                f"program {prog_name!r} has type {program.prog_type.name!r}, "
                f"but {tp_name} requires {expected!r}"
            )
        probe, guard = self._make_probe(program)
        tracepoint.attach(probe, guard)
        self._attached.append((tracepoint, probe))

    def detach_all(self) -> None:
        for tracepoint, probe in self._attached:
            tracepoint.detach(probe)
        self._attached.clear()

    def __enter__(self) -> "BPF":
        return self

    def __exit__(self, *exc) -> None:
        self.detach_all()

    # -- execution -----------------------------------------------------------
    def _make_probe(self, program: Program) -> Tuple[Callable, Optional[ProbeGuard]]:
        """The tracepoint probe running ``program``, and its guard (only for
        compiled programs with a derived :class:`ProgramGuard`)."""
        pack = (
            pack_sys_enter
            if program.prog_type.name == ProgType.tracepoint_sys_enter().name
            else pack_sys_exit
        )
        prandom_stream = self.kernel.seeds.stream(f"bpf:{program.name}:prandom")
        # Bind the per-firing hot state into locals: the probe runs once
        # per traced syscall, millions of times per experiment.  The
        # program's translation is resolved once here (``prepare``), and
        # one HelperRuntime is reused across firings — only its per-firing
        # fields change, so allocation stays off the hot path.
        run = self.vm.prepare(program.insns)
        name = program.name
        cpu_of = self.cpu_of
        charge_cost = self.charge_cost
        invocations = self._invocations
        insns_executed = self._insns_executed
        prandom = lambda: prandom_stream.randint(0, (1 << 32) - 1)  # noqa: E731
        runtime = HelperRuntime(prandom=prandom)

        raw = getattr(run, "raw", None)
        if raw is not None:
            # Compiled-tier fast path: call the translated function
            # directly and consume the bare (r0, steps, cost) tuple —
            # no per-firing VmResult allocation.  ``pack`` always hands
            # over bytes, which is all the raw function accepts.
            fn, insn_cost_ns, scratch = raw
            guard = None if run.guard is None else _ProgramGuard(
                run.guard, name, invocations, insns_executed, insn_cost_ns, charge_cost)
            if cpu_of is None:
                def probe(ctx) -> int:
                    runtime.ktime_ns = ctx.ktime_ns
                    runtime.pid_tgid = ctx.pid_tgid
                    _r0, steps, cost = fn(pack(ctx), runtime, insn_cost_ns, scratch)
                    invocations[name] += 1
                    insns_executed[name] += steps
                    return cost if charge_cost else 0
            else:
                def probe(ctx) -> int:
                    runtime.ktime_ns = ctx.ktime_ns
                    runtime.pid_tgid = ctx.pid_tgid
                    runtime.cpu_id = cpu_of(ctx)
                    _r0, steps, cost = fn(pack(ctx), runtime, insn_cost_ns, scratch)
                    invocations[name] += 1
                    insns_executed[name] += steps
                    return cost if charge_cost else 0
            return probe, guard

        if cpu_of is None:
            def probe(ctx) -> int:
                runtime.ktime_ns = ctx.ktime_ns
                runtime.pid_tgid = ctx.pid_tgid
                result = run(pack(ctx), runtime)
                invocations[name] += 1
                insns_executed[name] += result.steps
                return result.cost_ns if charge_cost else 0
        else:
            def probe(ctx) -> int:
                runtime.ktime_ns = ctx.ktime_ns
                runtime.pid_tgid = ctx.pid_tgid
                runtime.cpu_id = cpu_of(ctx)
                result = run(pack(ctx), runtime)
                invocations[name] += 1
                insns_executed[name] += result.steps
                return result.cost_ns if charge_cost else 0

        return probe, None

    # -- userspace data access ----------------------------------------------
    def ring_records(self, map_name: str) -> List[bytes]:
        ring = self.maps[map_name]
        if not isinstance(ring, RingBuf):
            raise BpfError(f"{map_name!r} is not a ring buffer")
        return ring.drain()

    def perf_events(self, map_name: str) -> List[bytes]:
        perf = self.maps[map_name]
        if not isinstance(perf, PerfEventArray):
            raise BpfError(f"{map_name!r} is not a perf event array")
        return perf.poll()

    def __repr__(self) -> str:
        return (
            f"<BPF programs={sorted(self._programs)} maps={sorted(self.maps)} "
            f"attached={len(self._attached)}>"
        )
