"""The encoding-keyed translation cache of the compiled tier.

Entries are keyed on the instruction wire encoding alone and hold no
map: every attach rebinds the cached code against its own maps.  These
tests pin the cache's sharing, its bounds, what it lets the garbage
collector reclaim, and that a cached entry never changes the verdict a
fresh translation would give.
"""

import gc
import hashlib
import weakref

from repro import ExperimentSpec
from repro.analysis.executor import execute_cell
from repro.core.collectors import _DELTA_VALUE_SIZE, build_delta_program
from repro.ebpf import (
    ArrayMap,
    Asm,
    CompiledVm,
    Helper,
    HelperRuntime,
    MemSize,
    Reg,
    TranslationCache,
    Vm,
    VmFault,
    compile_insns,
    encode,
    pack_sys_enter,
    translation_cache_stats,
)
from repro.kernel.tracepoints import SysEnterCtx

TGID = 7
PID_TGID = (TGID << 32) | TGID


def _constant_program(value=3):
    asm = Asm()
    asm.mov_imm(Reg.R0, value)
    asm.add_imm(Reg.R0, 4)
    asm.exit_()
    return asm.build()


def _delta_program(state):
    return build_delta_program("state", TGID, [0]).resolve_maps({"state": state}).verify()


def _counter_program(bpf_map):
    """Bump slot 0 of an array map; the map is the only difference
    between two builds, so both share one wire encoding."""
    asm = Asm()
    asm.mov_imm(Reg.R2, 0)
    asm.stx(MemSize.W, Reg.R10, -4, Reg.R2)  # u32 key = 0
    asm.ld_map_fd(Reg.R1, bpf_map)
    asm.mov_reg(Reg.R2, Reg.R10)
    asm.add_imm(Reg.R2, -4)
    asm.call(Helper.MAP_LOOKUP_ELEM)
    asm.jeq_imm(Reg.R0, 0, "out")
    asm.ldx(MemSize.DW, Reg.R1, Reg.R0, 0)
    asm.add_imm(Reg.R1, 1)
    asm.stx(MemSize.DW, Reg.R0, 0, Reg.R1)
    asm.label("out")
    asm.mov_imm(Reg.R0, 0)
    asm.exit_()
    return asm.build()


def _fire(run, count):
    ctx = bytes(64)
    for _ in range(count):
        run(ctx, HelperRuntime())


def _slot0(array):
    return int.from_bytes(bytes(array.lookup(array.key_of(0)))[:8], "little")


class TestTranslationCache:
    def test_identity_memo_hits(self):
        cache = TranslationCache()
        insns = _constant_program()
        first = cache.get_compiled(insns)
        second = cache.get_compiled(insns)
        assert first is second
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["translations"] == 1
        assert stats["translate_ns"] > 0

    def test_equal_blobs_share_translation(self):
        cache = TranslationCache()
        a = _constant_program()
        b = _constant_program()
        assert a is not b
        assert cache.get_compiled(a).code is cache.get_compiled(b).code
        assert cache.misses == 1
        assert cache.hits == 1

    def test_same_blob_different_maps_share_code_not_maps(self):
        """One translation serves both map sets; each binding updates
        only its own map."""
        cache = TranslationCache()
        first_map = ArrayMap(value_size=8, max_entries=1, name="m")
        second_map = ArrayMap(value_size=8, max_entries=1, name="m")
        first = _counter_program(first_map)
        second = _counter_program(second_map)
        assert encode(first) == encode(second)

        vm = CompiledVm(cache=cache)
        run_first, run_second = vm.prepare(first), vm.prepare(second)
        assert cache.translations == 1
        assert run_first.raw[0] is not run_second.raw[0]
        assert run_first.raw[0].__code__ is run_second.raw[0].__code__
        _fire(run_first, 3)
        _fire(run_second, 5)
        assert (_slot0(first_map), _slot0(second_map)) == (3, 5)

    def test_eviction_bound(self):
        cache = TranslationCache(max_entries=4)
        for value in range(10):
            cache.bind(_constant_program(value))
        assert len(cache) == 4
        assert cache.translations == 10

    def test_purge_keeps_hot_attach_site_memoized(self):
        """The identity-memo purge at ``4 * max_entries`` sheds cold memos
        only: the steadily-executed list keeps its *original* memo object
        across every purge, while the churn stays bounded."""
        cache = TranslationCache(max_entries=8)
        hot = _constant_program()
        cache.get_compiled(hot)
        hot_memo = cache._by_seq[id(hot)]

        churn = []  # keep identities alive so ids are never recycled
        for _ in range(20 * cache.max_entries):
            cold = _constant_program(99)
            churn.append(cold)
            cache.get_compiled(cold)
            cache.get_compiled(hot)

        assert len(cache._by_seq) <= 4 * cache.max_entries + 1
        assert cache._by_seq.get(id(hot)) is hot_memo
        hits = cache.hits
        assert cache.get_compiled(hot) is hot_memo[1]
        assert cache.hits == hits + 1
        assert cache.misses == 2  # hot + the one shared cold content

    def test_purge_drops_memos_of_evicted_blobs(self):
        """Memos whose translation aged out of the LRU are dropped at
        purge time; memos whose blob is still resident survive."""
        cache = TranslationCache(max_entries=2)
        keep_alive = [_constant_program(v) for v in range(10)]
        for insns in keep_alive:
            cache.get_compiled(insns)
        assert len(cache._by_seq) <= cache.max_entries + 1
        assert len(cache._by_seq) < len(keep_alive)

    def test_attached_program_reuses_one_translation(self):
        """Repeated execute() of one list: one miss, then memo hits."""
        cache = TranslationCache()
        vm = CompiledVm(cache=cache)
        state = ArrayMap(value_size=_DELTA_VALUE_SIZE, max_entries=1, name="state")
        program = _delta_program(state)
        for i in range(25):
            ctx = SysEnterCtx(pid_tgid=PID_TGID, syscall_nr=0, ktime_ns=1_000 * (i + 1))
            runtime = HelperRuntime(ktime_ns=ctx.ktime_ns, pid_tgid=ctx.pid_tgid, cpu_id=0)
            vm.execute(program.insns, pack_sys_enter(ctx), runtime)
        assert cache.misses == 1
        assert cache.hits == 24


def test_code_objects_carry_distinct_profile_labels():
    """Each program's code object names its encoding, so profiles do not
    fold every program into one ``<ebpf-compiled>`` entry."""
    labels = set()
    for value in (1, 2):
        insns = _constant_program(value)
        code = compile_insns(insns).code
        digest = hashlib.sha256(encode(insns)).hexdigest()[:12]
        assert code.co_filename == f"<ebpf-compiled:{digest}>"
        labels.add(code.co_filename)
    assert len(labels) == 2


def test_unresolved_maps_get_the_fresh_verdict_despite_a_cached_encoding():
    """An encoding cached as supported must not make an unresolved
    variant of it compile: it runs on the reference interpreter and
    faults exactly as it would without the cache."""
    cache = TranslationCache()
    resolved = _counter_program(ArrayMap(value_size=8, max_entries=1, name="m"))
    unresolved = _counter_program("m")
    assert encode(resolved) == encode(unresolved)
    assert cache.bind(resolved) is not None

    assert compile_insns(unresolved) is None
    assert cache.bind(unresolved) is None
    assert cache.get_compiled(unresolved) is None
    assert cache.translations == 1

    ctx = bytes(64)
    messages = []
    for vm in (Vm(), CompiledVm(cache=cache)):
        try:
            vm.execute(unresolved, ctx)
        except VmFault as fault:
            messages.append(str(fault))
    assert len(messages) == 2 and messages[0] == messages[1]
    assert "unresolved map reference" in messages[0]


def _vm_spec(**overrides):
    spec = ExperimentSpec(workload="silo", offered_rps=800, requests=60, monitor_mode="vm")
    return spec.replace(**overrides) if overrides else spec


def _monitor_bpfs(handles):
    monitor = handles.monitor
    collectors = (monitor.send_collector, monitor.recv_collector, monitor.poll_collector)
    return [c.bpf for c in collectors if c.bpf is not None]


def test_second_in_process_cell_translates_nothing():
    execute_cell(_vm_spec())
    before = translation_cache_stats()
    bpfs = []

    def grab(handles):
        bpfs.extend(_monitor_bpfs(handles))

    execute_cell(_vm_spec(offered_rps=900), setup=grab)
    after = bpfs[0].translation_stats()
    assert after["translations"] - before["translations"] == 0
    assert after["misses"] - before["misses"] == 0
    assert after["hits"] - before["hits"] >= len(bpfs)


def test_finished_cell_maps_are_collectable():
    """The cache holds code, never maps: once a cell is done, nothing
    keeps its BPF maps alive."""
    refs = []

    def grab(handles):
        for bpf in _monitor_bpfs(handles):
            refs.extend(weakref.ref(m) for m in bpf.maps.values())

    execute_cell(_vm_spec(), setup=grab)
    assert refs
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
