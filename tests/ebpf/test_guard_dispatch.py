"""Guard hoisting: derived prologue guards and per-key tracepoint dispatch.

The compiled tier derives each program's leading tgid/syscall filter from
its bytecode (:func:`repro.ebpf.guard.derive_guard`) and the tracepoint
bus skips the program on firings the filter rejects.  These tests pin
three things: which programs get a guard (and that each derived reject
path costs exactly what the reference interpreter spends on it), which
programs must keep running on every firing, and that a guarded compiled
run is indistinguishable from the literal reference run — map bytes,
counters and charged cost — on syscall streams full of foreign tgids and
syscall numbers, across detach/re-attach and mid-run counter reads.
"""

import random

import pytest

from repro.core.collectors import (
    _DELTA_VALUE_SIZE,
    DeltaCollector,
    DurationCollector,
    build_delta_program,
    build_duration_programs,
)
from repro.core.config import CollectorConfig, ExportConfig
from repro.core.histograms import NBUCKETS
from repro.core.streaming import StreamingDeltaCollector, build_streaming_program
from repro.ebpf import (
    BPF,
    ArrayMap,
    Asm,
    HashMap,
    Helper,
    HelperRuntime,
    MemSize,
    PerfEventArray,
    Program,
    ProgType,
    Reg,
    Vm,
    compile_insns,
    pack_sys_enter,
    pack_sys_exit,
)
from repro.ebpf.bpfc import compile_source
from repro.ebpf.guard import derive_guard
from repro.kernel import Kernel, MachineSpec, Sys
from repro.kernel.tracepoints import ProbeGuard, SysEnterCtx, SysExitCtx, TracepointBus
from repro.net import Message
from repro.sim import Environment, SeedSequence
from repro.workloads.noise import spawn_noise_process

from .test_compiled import LISTING_1

TGID = 4242
BIG_TGID = (1 << 31) - 1
NRS = (Sys.SENDMSG, Sys.SENDTO)


def _kernel():
    spec = MachineSpec(name="t", cores=4, ctx_switch_ns=0, syscall_overhead_ns=50)
    return Kernel(Environment(), spec, SeedSequence(11), interference=False)


# Recognition: every collector builder's prologue is a guard.
def _builders(tgid):
    """(name, program, nrs) for every collector program builder."""
    cases = []
    for cpus in (1, 2):
        for hist in (None, "hist"):
            program = build_delta_program("state", tgid, NRS, cpus=cpus, hist_map=hist)
            cases.append((f"delta-cpus{cpus}-{hist or 'nohist'}", program, NRS))
    enter, exit_ = build_duration_programs("start", "state", tgid, [Sys.EPOLL_WAIT])
    cases.append(("duration-enter", enter, (Sys.EPOLL_WAIT,)))
    cases.append(("duration-exit", exit_, (Sys.EPOLL_WAIT,)))
    streaming = build_streaming_program("events", tgid, [Sys.READ])
    cases.append(("streaming", streaming, (Sys.READ,)))
    return cases


def _resolved(program):
    maps = {
        "state": ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=2 * NBUCKETS),
        "hist": ArrayMap(value_size=8, max_entries=2 * NBUCKETS),
        "start": HashMap(key_size=8, value_size=8),
        "events": PerfEventArray(cpus=2),
    }
    return program.resolve_maps(maps).verify(), maps


def _reference_run(program, tgid, nr):
    """(steps, cost_ns) of one reference-interpreter run on key (tgid, nr)."""
    pid_tgid = (tgid << 32) | 7
    if program.prog_type == ProgType.tracepoint_sys_enter():
        blob = pack_sys_enter(SysEnterCtx(pid_tgid, nr, (), 1000))
    else:
        blob = pack_sys_exit(SysExitCtx(pid_tgid, nr, 0, 1000))
    runtime = HelperRuntime(ktime_ns=1000, pid_tgid=pid_tgid)
    result = Vm().execute(program.insns, blob, runtime)
    return result.steps, result.cost_ns


@pytest.mark.parametrize("tgid", [TGID, BIG_TGID])
@pytest.mark.parametrize("index", range(7))
def test_every_collector_builder_has_a_guard(tgid, index):
    name, program, nrs = _builders(tgid)[index]
    resolved, _maps = _resolved(program)
    guard = derive_guard(resolved.insns)
    assert guard is not None, name
    assert guard.tgid == tgid
    assert guard.nrs == frozenset(nrs)
    # The translation carries the same guard next to the code.
    assert compile_insns(resolved.insns).guard == guard
    # Each derived reject path is what the reference interpreter spends.
    insn_cost = Vm().insn_cost_ns
    for key in ((tgid + 1, nrs[0]), (tgid, Sys.FUTEX), (tgid - 1, Sys.FUTEX)):
        steps, helper_cost = guard.reject_path(*key)
        assert _reference_run(resolved, *key) == (steps, helper_cost + steps * insn_cost)
    for nr in nrs:
        assert guard.reject_path(tgid, nr) is None


# Negative recognition: these programs must run on every firing.
def _prologue_then(asm, before_last_jump=None):
    """The collector prologue with optional instructions spliced in just
    before its final ``goto out``; the accepting path returns 1."""
    asm.mov_reg(Reg.R9, Reg.R1)
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.rsh_imm(Reg.R0, 32)
    asm.jne_imm(Reg.R0, TGID, "out")
    asm.ldx(MemSize.DW, Reg.R8, Reg.R9, 8)
    for nr in NRS:
        asm.jeq_imm(Reg.R8, nr, "matched")
    if before_last_jump is not None:
        before_last_jump(asm)
    asm.ja("out")
    asm.label("matched")
    asm.mov_imm(Reg.R0, 1)
    asm.exit_()


def _program(asm):
    return Program("neg", asm.build(), ProgType.tracepoint_sys_enter())


def _stack_store():
    asm = Asm()
    _prologue_then(asm, lambda a: a.st_imm(MemSize.DW, Reg.R10, -8, 1))
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return _program(asm)


def _map_call():
    def lookup(a):
        a.st_imm(MemSize.W, Reg.R10, -4, 0)
        a.ld_map_fd(Reg.R1, "state")
        a.mov_reg(Reg.R2, Reg.R10)
        a.add_imm(Reg.R2, -4)
        a.call(Helper.MAP_LOOKUP_ELEM)

    asm = Asm()
    _prologue_then(asm, lookup)
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return _program(asm)


def _reject_block_writes_map():
    asm = Asm()
    _prologue_then(asm)
    asm.label("out")  # counts rejects in a map: not side-effect-free
    asm.st_imm(MemSize.W, Reg.R10, -4, 0)
    asm.st_imm(MemSize.DW, Reg.R10, -16, 1)
    asm.ld_map_fd(Reg.R1, "hist")
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.mov_reg(Reg.R3, Reg.R10)
    asm.add_imm(Reg.R3, -16)
    asm.mov_imm(Reg.R4, 0)
    asm.call(Helper.MAP_UPDATE_ELEM)
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return _program(asm)


def _reordered_prologue():
    asm = Asm()  # syscall filter first, tgid filter second
    asm.mov_reg(Reg.R9, Reg.R1)
    asm.ldx(MemSize.DW, Reg.R8, Reg.R9, 8)
    asm.jne_imm(Reg.R8, Sys.SENDMSG, "out")
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.rsh_imm(Reg.R0, 32)
    asm.jne_imm(Reg.R0, TGID, "out")
    asm.mov_imm(Reg.R0, 1)
    asm.exit_()
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return _program(asm)


@pytest.mark.parametrize(
    "build",
    [_stack_store, _map_call, _reject_block_writes_map, _reordered_prologue],
    ids=lambda build: build.__name__.strip("_"),
)
def test_non_matching_programs_run_on_every_firing(build):
    resolved, maps = _resolved(build())
    assert compile_insns(resolved.insns) is not None  # compiled, just unguarded
    assert derive_guard(resolved.insns) is None
    kernel = _kernel()
    bpf = BPF(kernel, maps=maps, programs=[resolved])
    bpf.attach_tracepoint("raw_syscalls:sys_enter", "neg")
    assert kernel.tracepoints.sys_enter._entries[0][1] is None


def test_bpfc_listing1_is_not_guarded():
    """Listing 1 compares the whole pid_tgid, not ``>> 32``: no guard."""
    unit = compile_source(LISTING_1, constants={"PID_TGID": (TGID << 32) | TGID})
    for program in unit.programs:
        resolved = program.resolve_maps(unit.maps).verify()
        assert compile_insns(resolved.insns) is not None
        assert derive_guard(resolved.insns) is None


# Dispatch by (tgid, nr) key.
def test_dispatch_keeps_attach_order_across_guarded_and_unguarded():
    bus = TracepointBus()
    seen = []
    bus.sys_enter.attach(lambda ctx: seen.append("a"), ProbeGuard(1, [10]))
    bus.sys_enter.attach(lambda ctx: seen.append("b"))
    bus.sys_enter.attach(lambda ctx: seen.append("c"), ProbeGuard(1, [10, 11]))
    bus.fire_enter(1 << 32, 10, (), 0)
    bus.fire_enter(1 << 32, 11, (), 0)
    bus.fire_enter(2 << 32, 10, (), 0)
    assert seen == ["a", "b", "c", "b", "c", "b"]
    assert bus.sys_enter.fired == 3


def test_rejected_firings_build_no_context(monkeypatch):
    import repro.kernel.tracepoints as tracepoints

    built = []
    monkeypatch.setattr(
        tracepoints, "SysEnterCtx", lambda *args: built.append(args) or SysEnterCtx(*args)
    )
    bus = TracepointBus()
    bus.sys_enter.attach(lambda ctx: 0, ProbeGuard(1, [10]))
    for nr in (10, 11, 12):
        bus.fire_enter(1 << 32, nr, (), 0)
    bus.fire_enter(3 << 32, 10, (), 0)
    assert len(built) == 1
    assert bus.sys_enter.fired == 4


# Differential: guarded compiled against the literal reference tier.
def _chatty_process(kernel, seed, rounds=400):
    """A process issuing a random mix of monitored and unmonitored syscalls."""
    proc = kernel.create_process("target")
    rng = random.Random(seed)

    def worker(task):
        client, server = kernel.open_connection(name=f"target:{task.tid}")
        ep = yield from task.sys_epoll_create1()
        yield from task.sys_epoll_ctl(ep, server)
        for _ in range(rounds):
            choice = rng.randrange(7)
            if choice == 0:
                client.send(Message(size=16))
                yield from task.sys_epoll_wait(ep)
                yield from task.sys_read(server)
            elif choice == 1:
                yield from task.sys_sendmsg(server, Message(size=32))
            elif choice == 2:
                yield from task.sys_sendto(server, Message(size=32))
            elif choice == 3:
                yield from task.sys_write(server, Message(size=32))
            elif choice == 4:
                yield from task.sys_openat()
            elif choice == 5:
                yield from task.sys_socket()
            else:
                yield from task.sys_nanosleep(rng.randint(1, 40_000))

    for index in range(3):
        proc.spawn_thread(worker, name=f"target/t{index}")
    return proc


def _map_bytes(bpf_map):
    if isinstance(bpf_map, PerfEventArray):
        return [bytes(record) for record in bpf_map.poll()]
    return sorted((bytes(key), bytes(value)) for key, value in bpf_map.items())


def _run_stream(tier, seed):
    """Phase-by-phase observations of one noisy stream on ``tier``."""
    kernel = _kernel()
    bus = kernel.tracepoints
    charged = [0]
    for name in ("fire_enter", "fire_exit"):
        fire = getattr(bus, name)

        def summed(*args, fire=fire):
            cost = fire(*args)
            charged[0] += cost
            return cost

        setattr(bus, name, summed)
    proc = _chatty_process(kernel, seed)
    spawn_noise_process(kernel, syscalls_per_second=20_000.0, threads=2)
    tgid = proc.pid
    base = CollectorConfig(mode="vm", vm_tier=tier, charge_cost=True)
    sends = DeltaCollector(
        kernel, tgid, [Sys.SENDMSG, Sys.SENDTO], base.replace(cpus=2), name="sends"
    )
    writes = DeltaCollector(
        kernel, tgid, [Sys.WRITE], base.replace(export=ExportConfig()), name="writes"
    )
    polls = DurationCollector(kernel, tgid, [Sys.EPOLL_WAIT], base, name="polls")
    stream_config = base.replace(mode="stream", cpus=2)
    reads = StreamingDeltaCollector(kernel, tgid, [Sys.READ], stream_config, name="reads")
    native = DeltaCollector(kernel, tgid, [Sys.SENDMSG], "native", name="native")
    unit = compile_source(LISTING_1, constants={"PID_TGID": proc.tasks[0].pid_tgid})
    listing = BPF(kernel, maps=unit.maps, programs=unit.programs, config=base)
    # Guarded, unguarded and native probes interleave on both tracepoints.
    sends.attach()
    listing.attach_tracepoint("raw_syscalls:sys_enter", unit.programs[0].name)
    polls.attach()
    writes.attach()
    reads.attach()
    native.attach()
    listing.attach_tracepoint("raw_syscalls:sys_exit", unit.programs[1].name)
    bpfs = {
        "sends": sends.bpf,
        "writes": writes.bpf,
        "polls": polls.bpf,
        "reads": reads._bpf,
        "listing": listing,
    }

    def observe():
        state = {}
        for name, bpf in bpfs.items():
            maps = {map_name: _map_bytes(m) for map_name, m in bpf.maps.items()}
            state[name] = (dict(bpf.invocations), dict(bpf.insns_executed), maps)
        return state, native.snapshot(), charged[0], bus.sys_enter.fired, bus.sys_exit.fired

    env = kernel.env
    phases = []
    env.run(until=2_000_000)
    phases.append(observe())  # counters read mid-run
    env.run(until=3_000_000)
    polls.detach()  # rejects since the last read must survive the detach ...
    sends.detach()
    env.run(until=4_000_000)
    phases.append(observe())
    env.run(until=5_000_000)
    sends.attach()  # ... and the attach; re-attached behind the others
    polls.attach()
    env.run(until=7_000_000)
    phases.append(observe())
    env.run(until=9_000_000)
    phases.append(observe())
    return phases


@pytest.mark.parametrize("seed", [1, 2])
def test_guarded_compiled_matches_reference_on_noisy_streams(seed):
    reference = _run_stream("reference", seed)
    compiled = _run_stream("compiled", seed)
    assert compiled == reference
    # The stream exercises accepting and rejecting firings, and charges cost.
    state, _native, charged, fired, _exits = reference[-1]
    sends_runs = state["sends"][0]["sends_enter"]
    assert 100 < sends_runs < fired
    assert charged > 0


# Deterministic counter gate on the headline cell.
def _headline_cell(tier, monkeypatch=None):
    """The data-caching vm-mode cell at 0.7x its failure rate.

    Returns the result, the syscall count, the monitor's BPF counters and
    (with ``monkeypatch``) compiled program-body runs and ctx constructions.
    """
    from repro.analysis.executor.pool import execute_cell
    from repro.analysis.executor.spec import ExperimentSpec
    from repro.workloads.registry import get_workload

    counts = {"bodies": 0, "ctxs": 0}
    if monkeypatch is not None:
        import repro.ebpf.compiled as compiled
        import repro.kernel.tracepoints as tracepoints

        bind = compiled.Translation.bind

        def counting_bind(self, namespace):
            program = bind(self, namespace)
            fn = program.fn

            def body(*args):
                counts["bodies"] += 1
                return fn(*args)

            program.fn = body
            return program

        def counting(ctx_type):
            def build(*args, **kwargs):
                counts["ctxs"] += 1
                return ctx_type(*args, **kwargs)

            return build

        monkeypatch.setattr(compiled.Translation, "bind", counting_bind)
        monkeypatch.setattr(tracepoints, "SysEnterCtx", counting(SysEnterCtx))
        monkeypatch.setattr(tracepoints, "SysExitCtx", counting(SysExitCtx))

    rps = 0.7 * get_workload("data-caching").paper_fail_rps
    spec = ExperimentSpec(
        "data-caching", rps, requests=2000, seed=7, monitor_mode="vm", vm_tier=tier
    )
    handles = []
    result = execute_cell(spec, setup=handles.append)
    monitor = handles[0].monitor
    collectors = (monitor.send_collector, monitor.recv_collector, monitor.poll_collector)
    counters = [(dict(c.bpf.invocations), dict(c.bpf.insns_executed)) for c in collectors]
    return result, handles[0].kernel.tracepoints.sys_enter.fired, counters, counts


def test_headline_cell_runs_about_one_program_per_syscall(monkeypatch):
    """Foreign firings neither enter a program nor pack a context: at most
    1.3 program bodies and 1.3 ctx constructions per syscall (running every
    program on every firing takes about 4 and 2), while the probe counters
    still equal the reference tier's literal every-firing runs."""
    result, syscalls, counters, counts = _headline_cell("compiled", monkeypatch)
    assert syscalls > 5000
    assert counts["bodies"] <= 1.3 * syscalls
    assert counts["ctxs"] <= 1.3 * syscalls
    monkeypatch.undo()
    reference, ref_syscalls, ref_counters, _ = _headline_cell("reference")
    assert ref_syscalls == syscalls
    assert counters == ref_counters
    assert result.to_dict() == reference.to_dict()
    # Every program counts every firing of its tracepoint.
    assert sum(counters[0][0].values()) == syscalls
