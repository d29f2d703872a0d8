"""Differential suite for the compiled VM tier.

The two tiers — reference interpreter (:class:`Vm`) and whole-program
translation (:class:`CompiledVm`) — must be observationally
indistinguishable: the same ``(r0, steps, cost_ns)`` triple per
invocation, the same map contents afterwards, and the same
:class:`VmFault` message when a program dies.  This file proves it three
ways: the real collector corpus, hypothesis-fuzzed programs (verified
*and* faulting), and tables of hand-crafted fault shapes.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.collectors import (
    _DELTA_VALUE_SIZE,
    _DUR_VALUE_SIZE,
    build_delta_program,
    build_duration_programs,
)
from repro.core.streaming import build_streaming_program
from repro.ebpf import (
    ArrayMap,
    Asm,
    DEFAULT_INSN_COST_NS,
    HELPER_SIGS,
    CompiledVm,
    HashMap,
    Helper,
    HelperRuntime,
    Insn,
    MemSize,
    PerfEventArray,
    ProgType,
    Reg,
    TranslationCache,
    VerifierError,
    Vm,
    VmFault,
    compile_insns,
    make_vm,
    pack_sys_enter,
    pack_sys_exit,
    verify,
)
from repro.ebpf.bpfc import compile_source
from repro.ebpf.compiled import DEFAULT_VM_TIER, VM_TIERS
from repro.ebpf.errors import MapError
from repro.kernel.tracepoints import SysEnterCtx, SysExitCtx

from .test_differential import CTX_SIZE, _build, _op

TGID = 4242
PID_TGID = (TGID << 32) | TGID

_FUZZ_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _fresh_tiers():
    """One VM per tier, each with private caches so runs never share state."""
    return {
        "reference": Vm(),
        "compiled": CompiledVm(cache=TranslationCache()),
    }


def _outcome(vm, insns, ctx, runtime=None):
    """Normal result or fault, as a comparable value."""
    try:
        result = vm.execute(insns, ctx, runtime)
        return ("ok", result.r0, result.steps, result.cost_ns)
    except VmFault as fault:
        return ("fault", str(fault))


# ----------------------------------------------------------------------
# real-program corpus: the paper's collectors, both tiers
# ----------------------------------------------------------------------

def _map_state(bpf_map):
    if isinstance(bpf_map, HashMap):
        return dict(bpf_map.items_int())
    if isinstance(bpf_map, ArrayMap):
        return [bytes(bpf_map.lookup(bpf_map.key_of(i)))
                for i in range(bpf_map.max_entries)]
    return bpf_map.poll()  # PerfEventArray


def _enter_seq(count=40, seed=0):
    rng = random.Random(seed)
    t = 1_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.8 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid,
                                   syscall_nr=rng.choice([0, 1, 44, 232]),
                                   ktime_ns=t))
        t += rng.randint(1, 50_000)
    return firings


def _enter_exit_seq(count=40, seed=1, nr=232):
    rng = random.Random(seed)
    t = 5_000
    firings = []
    for _ in range(count):
        pid_tgid = PID_TGID if rng.random() < 0.85 else (99 << 32) | 99
        firings.append(SysEnterCtx(pid_tgid=pid_tgid, syscall_nr=nr, ktime_ns=t))
        t += rng.randint(10, 80_000)
        firings.append(SysExitCtx(pid_tgid=pid_tgid, syscall_nr=nr, ret=0,
                                  ktime_ns=t))
        t += rng.randint(10, 20_000)
    return firings


def _corpus_cases():
    """(name, build) pairs; build() -> (programs, maps, firings)."""

    def delta():
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = (build_delta_program("state", TGID, [0, 1])
                   .resolve_maps({"state": state}).verify())
        return [program], {"state": state}, _enter_seq()

    def duration():
        start = HashMap(key_size=8, value_size=8, max_entries=64, name="start")
        state = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state")
        maps = {"start": start, "state": state}
        enter, exit_ = build_duration_programs("start", "state", TGID, [232])
        programs = [p.resolve_maps(maps).verify() for p in (enter, exit_)]
        return programs, maps, _enter_exit_seq()

    def streaming():
        events = PerfEventArray(cpus=2, name="events")
        program = (build_streaming_program("events", TGID, [0, 44])
                   .resolve_maps({"events": events}).verify())
        return [program], {"events": events}, _enter_seq(seed=3)

    return [("delta", delta), ("duration", duration), ("streaming", streaming)]


def _dispatch(programs, ctx):
    enter = isinstance(ctx, SysEnterCtx)
    wanted = (ProgType.tracepoint_sys_enter() if enter
              else ProgType.tracepoint_sys_exit()).name
    return [p for p in programs if p.prog_type.name == wanted]


@pytest.mark.parametrize("name,build", _corpus_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_identical_across_three_tiers(name, build):
    """Every firing's (r0, steps, cost_ns) and the final map contents must
    match across both tiers on the paper's real collector programs."""
    outcomes = {}
    for tier, vm in _fresh_tiers().items():
        programs, maps, firings = build()
        per_firing = []
        for ctx in firings:
            blob = (pack_sys_enter(ctx) if isinstance(ctx, SysEnterCtx)
                    else pack_sys_exit(ctx))
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns,
                                    pid_tgid=ctx.pid_tgid, cpu_id=0)
            for program in _dispatch(programs, ctx):
                result = vm.execute(program.insns, blob, runtime)
                per_firing.append((result.r0, result.steps, result.cost_ns))
        outcomes[tier] = (per_firing,
                          {n: _map_state(m) for n, m in maps.items()})
    assert outcomes["reference"] == outcomes["compiled"]


@pytest.mark.parametrize("name,build", _corpus_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_corpus_programs_identical(name, build):
    """The prepared per-program runner — the attach-site hot path — must
    match the reference interpreter firing for firing, maps included."""
    outcomes = {}
    for tier in ("reference", "prepared"):
        programs, maps, firings = build()
        if tier == "reference":
            vm = Vm()
            runners = {id(p): (lambda p: lambda blob, runtime:
                               vm.execute(p.insns, blob, runtime))(p)
                       for p in programs}
        else:
            vm = CompiledVm(cache=TranslationCache())
            runners = {id(p): vm.prepare(p.insns) for p in programs}
            assert all(hasattr(run, "raw") for run in runners.values())
        per_firing = []
        for ctx in firings:
            blob = (pack_sys_enter(ctx) if isinstance(ctx, SysEnterCtx)
                    else pack_sys_exit(ctx))
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns,
                                    pid_tgid=ctx.pid_tgid, cpu_id=0)
            for program in _dispatch(programs, ctx):
                result = runners[id(program)](blob, runtime)
                per_firing.append((result.r0, result.steps, result.cost_ns))
        outcomes[tier] = (per_firing,
                          {n: _map_state(m) for n, m in maps.items()})
    assert outcomes["reference"] == outcomes["prepared"]


def test_collector_programs_do_not_fall_back():
    """The collectors are the hot path; the compiled tier must actually
    compile them, not silently serve them through the reference fallback."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0, 1])
               .resolve_maps({"state": state}).verify())
    assert compile_insns(program.insns) is not None

    start = HashMap(key_size=8, value_size=8, max_entries=64, name="start")
    dstate = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state")
    for p in build_duration_programs("start", "state", TGID, [232]):
        resolved = p.resolve_maps({"start": start, "state": dstate}).verify()
        assert compile_insns(resolved.insns) is not None


# ----------------------------------------------------------------------
# hypothesis fuzz: verified programs and faulting programs alike
# ----------------------------------------------------------------------

@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_three_tiers_agree_on_verified_programs(ops, ctx):
    insns = _build(ops)
    try:
        verify(insns, ProgType.tracepoint_sys_enter())
    except VerifierError:
        assume(False)
    triples = set()
    for vm in _fresh_tiers().values():
        result = vm.execute(insns, ctx)
        triples.add((result.r0, result.steps, result.cost_ns))
    assert len(triples) == 1
    # The fuzz vocabulary stays inside the codegen subset — these examples
    # exercise the compiled function itself, not the fallback.
    assert compile_insns(insns) is not None


@given(ops=st.lists(_op, min_size=0, max_size=25),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE))
@settings(max_examples=150, **_FUZZ_SETTINGS)
def test_three_tiers_agree_on_faults(ops, ctx):
    """Unverified programs may fault; the fault message (or clean result)
    must be identical across tiers — fault shape is part of the contract."""
    insns = _build(ops)
    outcomes = {_outcome(vm, insns, ctx) for vm in _fresh_tiers().values()}
    assert len(outcomes) == 1


# ----------------------------------------------------------------------
# hash maps: the inlined lookup/update arms against call_helper
# ----------------------------------------------------------------------

_hash_op = st.one_of(
    st.tuples(st.just("update"), st.integers(0, 5), st.integers(-(1 << 31), (1 << 31) - 1)),
    st.tuples(st.just("lookup"), st.integers(0, 5)),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.tuples(st.just("lookup_twice"), st.integers(0, 5)),
    st.tuples(st.just("update_from_ctx"), st.integers(0, 5)),
    st.tuples(st.just("lookup_ctx_key")),
    st.tuples(st.just("lookup_oob")),
)


def _hash_program(ops, hmap):
    """One program running ``ops`` against ``hmap``; r6 sums what it saw."""
    asm = Asm()
    asm.mov_reg(Reg.R9, Reg.R1)
    asm.mov_imm(Reg.R6, 0)
    for index, op in enumerate(ops):
        name, label = op[0], f"skip{index}"
        if name in ("update", "update_from_ctx", "lookup", "delete", "lookup_twice"):
            asm.st_imm(MemSize.DW, Reg.R10, -8, op[1])
        asm.ld_map_fd(Reg.R1, hmap)
        if name == "lookup_ctx_key":
            asm.mov_reg(Reg.R2, Reg.R9)  # the key read straight from the ctx
            asm.add_imm(Reg.R2, 8)
        else:
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, -4 if name == "lookup_oob" else -8)
        if name == "update":
            asm.st_imm(MemSize.DW, Reg.R10, -16, op[2])
            asm.mov_reg(Reg.R3, Reg.R10)
            asm.add_imm(Reg.R3, -16)
            asm.mov_imm(Reg.R4, 0)
            asm.call(Helper.MAP_UPDATE_ELEM)
            asm.add_reg(Reg.R6, Reg.R0)
        elif name == "update_from_ctx":
            asm.mov_reg(Reg.R3, Reg.R9)  # value bytes from the read-only ctx
            asm.add_imm(Reg.R3, 16)
            asm.mov_imm(Reg.R4, 0)
            asm.call(Helper.MAP_UPDATE_ELEM)
            asm.add_reg(Reg.R6, Reg.R0)
        elif name == "delete":
            asm.call(Helper.MAP_DELETE_ELEM)
            asm.add_reg(Reg.R6, Reg.R0)
        elif name == "lookup_twice":
            # Each hit is a fresh pointer: the two never compare equal.
            asm.call(Helper.MAP_LOOKUP_ELEM)
            asm.mov_reg(Reg.R7, Reg.R0)
            asm.ld_map_fd(Reg.R1, hmap)
            asm.mov_reg(Reg.R2, Reg.R10)
            asm.add_imm(Reg.R2, -8)
            asm.call(Helper.MAP_LOOKUP_ELEM)
            asm.jeq_reg(Reg.R0, Reg.R7, label)
            asm.add_imm(Reg.R6, 1000)
            asm.label(label)
        else:  # lookup, then bump the value in place through the pointer
            asm.call(Helper.MAP_LOOKUP_ELEM)
            asm.jeq_imm(Reg.R0, 0, label)
            asm.ldx(MemSize.DW, Reg.R1, Reg.R0, 0)
            asm.add_imm(Reg.R1, 1)
            asm.stx(MemSize.DW, Reg.R0, 0, Reg.R1)
            asm.add_reg(Reg.R6, Reg.R1)
            asm.label(label)
    asm.mov_reg(Reg.R0, Reg.R6)
    asm.exit_()
    return asm.build()


def _hash_outcome(vm, insns, ctx):
    try:
        result = vm.execute(insns, ctx)
        return ("ok", result.r0, result.steps, result.cost_ns)
    except (VmFault, MapError) as error:
        return (type(error).__name__, str(error))


@given(ops=st.lists(_hash_op, min_size=1, max_size=12),
       ctx=st.binary(min_size=CTX_SIZE, max_size=CTX_SIZE),
       max_entries=st.integers(1, 4))
@settings(max_examples=200, **_FUZZ_SETTINGS)
def test_tiers_agree_on_hash_maps(ops, ctx, max_entries):
    """Hits, misses (NULL), in-place writes, deletes, a full map's
    ``MapError`` and out-of-bounds keys: the inlined hash arms must match
    ``call_helper`` result for result, map byte for map byte."""
    outcomes = {}
    for tier, vm in _fresh_tiers().items():
        hmap = HashMap(key_size=8, value_size=8, max_entries=max_entries, name="h")
        insns = _hash_program(ops, hmap)
        runs = [_hash_outcome(vm, insns, ctx) for _ in range(3)]
        outcomes[tier] = (runs, sorted((bytes(k), bytes(v)) for k, v in hmap.items()))
        if tier == "compiled":
            assert compile_insns(insns) is not None
    assert outcomes["reference"] == outcomes["compiled"]


def test_hash_map_calls_are_inlined():
    """The duration collector's ``start`` hash map no longer goes through
    ``call_helper`` on the hot path (misses and full maps still may)."""
    start = HashMap(key_size=8, value_size=8, max_entries=64, name="start")
    state = ArrayMap(value_size=_DUR_VALUE_SIZE, max_entries=1, name="state")
    for program in build_duration_programs("start", "state", TGID, [232]):
        resolved = program.resolve_maps({"start": start, "state": state}).verify()
        source = compile_insns(resolved.insns).source
        assert "_m.__class__ is HashMap" in source


# ----------------------------------------------------------------------
# hand-crafted fault shapes
# ----------------------------------------------------------------------

def _fault_cases():
    def uninit_mov():
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R7)  # R7 never written
        asm.exit_()
        return asm.build()

    def uninit_branch():
        asm = Asm()
        asm.jeq_imm(Reg.R5, 0, "out")
        asm.label("out")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    def oob_stack_store():
        asm = Asm()
        asm.mov_imm(Reg.R2, 7)
        asm.stx(MemSize.DW, Reg.R10, -4096, Reg.R2)
        asm.exit_()
        return asm.build()

    def oob_ctx_load():
        asm = Asm()
        asm.ldx(MemSize.DW, Reg.R0, Reg.R1, CTX_SIZE + 64)
        asm.exit_()
        return asm.build()

    def store_non_scalar():
        asm = Asm()
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R1)  # R1 is the ctx pointer
        asm.exit_()
        return asm.build()

    def pointer_compare():
        asm = Asm()
        asm.jge_reg(Reg.R1, Reg.R10, "out")
        asm.label("out")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        return asm.build()

    def fall_off_end():
        asm = Asm()
        asm.mov_imm(Reg.R0, 0)
        return asm.build()  # no exit: pc runs past the program

    def exit_without_r0():
        asm = Asm()
        asm.exit_()
        return asm.build()

    return [
        ("uninit_mov", uninit_mov),
        ("uninit_branch", uninit_branch),
        ("oob_stack_store", oob_stack_store),
        ("oob_ctx_load", oob_ctx_load),
        ("store_non_scalar", store_non_scalar),
        ("pointer_compare", pointer_compare),
        ("fall_off_end", fall_off_end),
        ("exit_without_r0", exit_without_r0),
    ]


@pytest.mark.parametrize("name,build", _fault_cases(),
                         ids=lambda c: c if isinstance(c, str) else "")
def test_fault_messages_identical(name, build):
    insns = build()
    ctx = bytes(CTX_SIZE)
    outcomes = {tier: _outcome(vm, insns, ctx)
                for tier, vm in _fresh_tiers().items()}
    assert outcomes["reference"][0] == "fault"
    assert outcomes["reference"] == outcomes["compiled"]


# ----------------------------------------------------------------------
# fallback, factory, cache
# ----------------------------------------------------------------------

def _looping_program():
    asm = Asm()
    asm.mov_imm(Reg.R0, 3)
    asm.label("loop")
    asm.sub_imm(Reg.R0, 1)
    asm.jne_imm(Reg.R0, 0, "loop")
    asm.exit_()
    return asm.build()


def test_backward_jump_falls_back_to_reference():
    """Loops are outside the loop-free codegen subset: compile_insns
    declines, and CompiledVm serves the program on the reference
    interpreter itself, with the same result."""
    insns = _looping_program()
    assert compile_insns(insns) is None
    ctx = bytes(CTX_SIZE)
    reference = Vm().execute(insns, ctx)
    compiled = CompiledVm(cache=TranslationCache()).execute(insns, ctx)
    assert (compiled.r0, compiled.steps, compiled.cost_ns) == \
        (reference.r0, reference.steps, reference.cost_ns)

    # prepare() falls back the same way.
    run = CompiledVm(cache=TranslationCache()).prepare(insns)
    assert not hasattr(run, "raw")
    prepared = run(ctx)
    assert (prepared.r0, prepared.steps, prepared.cost_ns) == \
        (reference.r0, reference.steps, reference.cost_ns)


def test_make_vm_factory():
    assert VM_TIERS == ("reference", "compiled")
    assert type(make_vm("reference")) is Vm
    assert type(make_vm("compiled")) is CompiledVm
    assert DEFAULT_VM_TIER in VM_TIERS
    assert type(make_vm()) is CompiledVm
    for retired in ("fast", "jit"):
        with pytest.raises(ValueError, match="unknown vm tier"):
            make_vm(retired)


def test_cache_keys_programs_by_encoding():
    """One program through both entry points: get_compiled and bind share
    a single translation; re-requests hit."""
    cache = TranslationCache()
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    memoized = cache.get_compiled(program.insns)
    bound = cache.bind(program.insns)
    assert memoized is not None and bound is not None
    assert bound is not memoized  # bind always returns a fresh binding
    assert bound.code is memoized.code
    assert cache.get_compiled(program.insns) is memoized
    assert cache.stats()["entries"] == 1
    assert cache.stats()["translations"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 2


def test_cache_remembers_unsupported_programs():
    """A declined translation is cached too, so the fallback decision is
    paid once per program, not once per firing."""
    cache = TranslationCache()
    insns = _looping_program()
    assert cache.get_compiled(insns) is None
    misses = cache.stats()["misses"]
    assert cache.get_compiled(insns) is None
    assert cache.stats()["misses"] == misses  # second probe is a hit
    assert cache.bind(list(insns)) is None  # equal content, new list
    assert cache.stats()["translations"] == 1


def test_runtime_state_consumed_identically():
    """Inlined pure helpers must draw from the runtime exactly like the
    interpreted call path (same prandom sequence, same pid/time/cpu)."""
    asm = Asm()
    from repro.ebpf import Helper

    asm.call(Helper.GET_PRANDOM_U32)
    asm.mov_reg(Reg.R6, Reg.R0)
    asm.call(Helper.GET_PRANDOM_U32)
    asm.add_reg(Reg.R0, Reg.R6)
    asm.call(Helper.KTIME_GET_NS)
    asm.call(Helper.GET_CURRENT_PID_TGID)
    asm.call(Helper.GET_SMP_PROCESSOR_ID)
    asm.exit_()
    insns = asm.build()
    ctx = bytes(CTX_SIZE)

    def run(vm):
        counter = iter(range(100, 200))
        runtime = HelperRuntime(ktime_ns=777, pid_tgid=PID_TGID, cpu_id=3,
                                prandom=lambda: next(counter))
        result = vm.execute(insns, ctx, runtime)
        return (result.r0, result.steps, result.cost_ns, next(counter))

    runs = {tier: run(vm) for tier, vm in _fresh_tiers().items()}
    assert runs["reference"] == runs["compiled"]
    # exactly two prandom draws happened before the probe drew 102
    assert runs["reference"][-1] == 102


def test_compiled_source_is_inspectable():
    """compile_insns keeps the generated source for diagnostics."""
    state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
    program = (build_delta_program("state", TGID, [0])
               .resolve_maps({"state": state}).verify())
    compiled = compile_insns(program.insns)
    assert "def _prog(" in compiled.source
    assert compiled.n == len(program.insns)


def test_cost_and_steps_unchanged_on_delta_program():
    """Explicit cost-model pin: the compiled tier charges exactly
    steps * DEFAULT_INSN_COST_NS plus the helpers' signature costs."""
    ctx = SysEnterCtx(pid_tgid=PID_TGID, syscall_nr=0, ktime_ns=123_456)
    runs = {}
    for tier, vm in _fresh_tiers().items():
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = (build_delta_program("state", TGID, [0])
                   .resolve_maps({"state": state}).verify())
        runtime = HelperRuntime(ktime_ns=ctx.ktime_ns, pid_tgid=ctx.pid_tgid, cpu_id=0)
        result = vm.execute(program.insns, pack_sys_enter(ctx), runtime)
        runs[tier] = (result.r0, result.steps, result.cost_ns)
    assert runs["reference"] == runs["compiled"]
    _r0, steps, cost_ns = runs["compiled"]
    helper_cost = (HELPER_SIGS[Helper.GET_CURRENT_PID_TGID].cost_ns
                   + HELPER_SIGS[Helper.KTIME_GET_NS].cost_ns
                   + HELPER_SIGS[Helper.MAP_LOOKUP_ELEM].cost_ns)
    assert cost_ns == steps * DEFAULT_INSN_COST_NS + helper_cost


def _both_fault(insns, ctx=b"\x00" * CTX_SIZE):
    with pytest.raises(VmFault) as reference:
        Vm().execute(insns, ctx)
    with pytest.raises(VmFault) as compiled:
        CompiledVm(cache=TranslationCache()).execute(insns, ctx)
    assert str(compiled.value) == str(reference.value)
    return str(compiled.value)


class TestFaultParity:
    """Fault-for-fault equality on unverified programs, covering both the
    generated slow paths and the programs the generator declines."""

    def test_mov_from_uninitialized(self):
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R5)
        asm.exit_()
        assert "uninitialized" in _both_fault(asm.build())

    def test_alu_on_uninitialized(self):
        asm = Asm()
        asm.add_imm(Reg.R3, 4)
        asm.exit_()
        assert "uninitialized" in _both_fault(asm.build())

    def test_out_of_bounds_store(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R10, 8, Reg.R2)  # above the stack top
        asm.exit_()
        assert "out-of-bounds" in _both_fault(asm.build())

    def test_write_to_read_only_ctx(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 1)
        asm.stx(MemSize.DW, Reg.R1, 0, Reg.R2)
        asm.exit_()
        assert "read-only" in _both_fault(asm.build())

    def test_store_of_non_scalar(self):
        asm = Asm()
        asm.stx(MemSize.DW, Reg.R10, -8, Reg.R1)  # R1 is the ctx pointer
        asm.exit_()
        assert "non-scalar" in _both_fault(asm.build())

    def test_load_through_non_pointer(self):
        asm = Asm()
        asm.mov_imm(Reg.R2, 5)
        asm.ldx(MemSize.DW, Reg.R0, Reg.R2, 0)
        asm.exit_()
        assert "non-pointer" in _both_fault(asm.build())

    def test_jump_out_of_bounds(self):
        insns = [Insn(opcode=0x05, off=40)]  # ja +40, far past the end
        assert "pc 41 out of program bounds" in _both_fault(insns)

    def test_unknown_helper_id(self):
        asm = Asm()
        asm.call(9999)
        asm.exit_()
        assert _both_fault(asm.build()) == "unknown helper id 9999"

    def test_exit_with_non_scalar_r0(self):
        asm = Asm()
        asm.mov_reg(Reg.R0, Reg.R1)
        asm.exit_()
        assert "non-scalar r0" in _both_fault(asm.build())

    def test_unresolved_map_reference(self):
        asm = Asm()
        asm.ld_map_fd(Reg.R1, "nowhere")
        asm.mov_imm(Reg.R0, 0)
        asm.exit_()
        assert "unresolved map reference" in _both_fault(asm.build())

    def test_jump_into_ld_imm64_second_slot(self):
        insns = [
            Insn(opcode=0x05, off=1),  # ja +1 -> lands mid-pair
            Insn(opcode=0x18, dst=0, imm=7),
            Insn(opcode=0x00, imm=0),
            Insn(opcode=0x95),
        ]
        assert "unsupported LD insn" in _both_fault(insns)

    def test_instruction_budget_exhausted(self, monkeypatch):
        import repro.ebpf.vm as vm_mod

        monkeypatch.setattr(vm_mod, "MAX_STEPS", 64)
        insns = [Insn(opcode=0x05, off=-1)]  # ja -1: infinite loop
        assert "budget exhausted" in _both_fault(insns)

    def test_empty_program(self):
        assert "pc 0 out of program bounds" in _both_fault([])


# The paper's Listing 1 through bpfc: the tiers must agree on compiler
# output, not just hand assembly.
LISTING_1 = """
BPF_HASH(start, u64, u64);
BPF_HASH(stats, u64, u64);

TRACEPOINT_PROBE(raw_syscalls, sys_enter) {
    u64 pid_tgid = bpf_get_current_pid_tgid();
    if (pid_tgid != PID_TGID) return 0;
    if (args->id != 232) return 0;
    u64 t = bpf_ktime_get_ns();
    start.update(&pid_tgid, &t);
    return 0;
}

TRACEPOINT_PROBE(raw_syscalls, sys_exit) {
    u64 pid_tgid = bpf_get_current_pid_tgid();
    if (pid_tgid != PID_TGID) return 0;
    if (args->id != 232) return 0;
    u64 *start_ns = start.lookup(&pid_tgid);
    if (!start_ns) return 0;
    u64 end_ns = bpf_ktime_get_ns();
    u64 duration = end_ns - *start_ns;
    u64 key = 0;
    u64 *total = stats.lookup(&key);
    if (!total) {
        stats.update(&key, &duration);
        u64 one = 1;
        u64 count_key = 1;
        stats.update(&count_key, &one);
        return 0;
    }
    *total += duration;
    stats.increment(1);
    return 0;
}
"""


def test_listing1_identical_across_tiers():
    outcomes = {}
    for tier, vm in _fresh_tiers().items():
        unit = compile_source(LISTING_1, constants={"PID_TGID": PID_TGID})
        programs = [p.resolve_maps(unit.maps).verify() for p in unit.programs]
        per_firing = []
        for ctx in _enter_exit_seq(seed=4):
            blob = (pack_sys_enter(ctx) if isinstance(ctx, SysEnterCtx)
                    else pack_sys_exit(ctx))
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns,
                                    pid_tgid=ctx.pid_tgid, cpu_id=0)
            for program in _dispatch(programs, ctx):
                result = vm.execute(program.insns, blob, runtime)
                per_firing.append((result.r0, result.steps, result.cost_ns))
        outcomes[tier] = (per_firing,
                          {n: _map_state(m) for n, m in unit.maps.items()})
        assert all(compile_insns(p.insns) is not None for p in programs)
    assert outcomes["reference"] == outcomes["compiled"]
