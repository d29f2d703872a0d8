"""The process-wide translation cache of the compiled eBPF tier.

Translation plays the part of the kernel's JIT: a program is translated
once and then fires on every traced syscall.  The generated source is a
pure function of the instruction *wire encoding* — map loads compile to
``rN = M<pc>`` with the map object living only in the exec namespace —
so the cache keys on ``encode(insns)`` alone and holds only map-free
entries: the compiled code object, its source and its length, or the
generator's "unsupported" verdict.  Every attach rebinds the per-pc
names against the caller's live maps
(:func:`~repro.ebpf.compiled.rebind_namespace`) and ``exec``\\ s the
cached code once, which is all a new cell pays for a program any
earlier cell in the process already translated.

Programs whose instructions cannot be bound (an unresolved map
reference, an unknown helper) are declined before the cache is
consulted, so a cached "supported" entry for the same encoding never
masks the verdict a fresh translation would give.

:meth:`TranslationCache.get_compiled` additionally memoizes the bound
program per ``id(insns)``, for callers that execute the same list over
and over through :meth:`~repro.ebpf.compiled.CompiledVm.execute`
instead of binding once with ``prepare``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional, Sequence

from .compiled import CompiledProgram, rebind_namespace, translate
from .insn import Insn, encode

__all__ = [
    "TranslationCache",
    "translation_cache_stats",
    "clear_translation_cache",
]

#: Cached verdict for encodings the code generator declines.
_UNSUPPORTED = object()


class TranslationCache:
    """Encoding-keyed LRU of compiled translations.

    ``hits``/``misses`` count content lookups (identity-memo hits count
    as hits), ``translations`` the code-generator runs actually performed
    and ``translate_ns`` the wall time spent in them.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: ``encode(insns)`` -> unbound translation or ``_UNSUPPORTED``.
        self._by_blob: "OrderedDict[bytes, object]" = OrderedDict()
        #: ``id(insns)`` -> ``[insns, bound program or None, blob,
        #: hit-since-last-purge flag]``, for :meth:`get_compiled`.
        self._by_seq: dict = {}
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.translate_ns = 0

    def _translation(self, blob: bytes, insns: Sequence[Insn]):
        entry = self._by_blob.get(blob)
        if entry is not None:
            self.hits += 1
            self._by_blob.move_to_end(blob)
            return entry
        self.misses += 1
        start = time.perf_counter_ns()
        entry = translate(insns) or _UNSUPPORTED
        self.translate_ns += time.perf_counter_ns() - start
        self.translations += 1
        self._by_blob[blob] = entry
        while len(self._by_blob) > self.max_entries:
            self._by_blob.popitem(last=False)
        return entry

    def _bind(self, blob: bytes, insns: Sequence[Insn]) -> Optional[CompiledProgram]:
        namespace = rebind_namespace(insns)
        if namespace is None:
            return None
        entry = self._translation(blob, insns)
        if entry is _UNSUPPORTED:
            return None
        return entry.bind(namespace)

    def bind(self, insns: Sequence[Insn]) -> Optional[CompiledProgram]:
        """A freshly bound compiled program for ``insns``, or ``None``
        when the program is outside the code generator's subset."""
        return self._bind(encode(insns), insns)

    def get_compiled(self, insns: Sequence[Insn]) -> Optional[CompiledProgram]:
        """Like :meth:`bind`, memoized on the identity of ``insns``."""
        memo = self._by_seq.get(id(insns))
        if memo is not None and memo[0] is insns:
            self.hits += 1
            memo[3] = True
            return memo[1]
        blob = encode(insns)
        compiled = self._bind(blob, insns)
        if len(self._by_seq) > 4 * self.max_entries:
            self._purge_seq_memos()
        self._by_seq[id(insns)] = [insns, compiled, blob, True]
        return compiled

    def _purge_seq_memos(self) -> None:
        """Shed cold identity memos without touching the hot ones.

        Memos whose translation aged out of the LRU are dropped first.
        If that alone does not get under budget (many distinct lists of
        the same live content), a second-chance pass drops memos not hit
        since the previous purge, so steadily-firing callers survive.
        """
        live = {
            seq_id: memo
            for seq_id, memo in self._by_seq.items()
            if memo[2] in self._by_blob
        }
        if len(live) > 4 * self.max_entries:
            live = {seq_id: memo for seq_id, memo in live.items() if memo[3]}
        for memo in live.values():
            memo[3] = False
        self._by_seq = live

    def clear(self) -> None:
        self._by_blob.clear()
        self._by_seq.clear()
        self.hits = 0
        self.misses = 0
        self.translations = 0
        self.translate_ns = 0

    def stats(self) -> dict:
        return {
            "entries": len(self._by_blob),
            "hits": self.hits,
            "misses": self.misses,
            "translations": self.translations,
            "translate_ns": self.translate_ns,
        }

    def __len__(self) -> int:
        return len(self._by_blob)


_GLOBAL_CACHE = TranslationCache()


def translation_cache_stats() -> dict:
    """Counters of the process-wide translation cache."""
    return _GLOBAL_CACHE.stats()


def clear_translation_cache() -> None:
    _GLOBAL_CACHE.clear()
