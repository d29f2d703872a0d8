"""Tracepoint context structs as seen by BPF programs.

``raw_syscalls:sys_enter`` / ``sys_exit`` programs receive a pointer to the
tracepoint's record.  The layouts below follow the real format files
(``/sys/kernel/debug/tracing/events/raw_syscalls/*/format``): an 8-byte
common header, then ``long id`` and the payload.  Listing 1 reads
``args->id`` — that is the field at :data:`SYS_ENTER_ID_OFF`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from ..kernel.tracepoints import SysEnterCtx, SysExitCtx

__all__ = [
    "ProgType",
    "SYS_ENTER_ID_OFF",
    "SYS_ENTER_ARGS_OFF",
    "SYS_EXIT_ID_OFF",
    "SYS_EXIT_RET_OFF",
    "SYS_ENTER_CTX_SIZE",
    "SYS_EXIT_CTX_SIZE",
    "pack_sys_enter",
    "pack_sys_exit",
]

#: Offset of ``long id`` in both tracepoint records.
SYS_ENTER_ID_OFF = 8
SYS_EXIT_ID_OFF = 8
#: Offset of ``unsigned long args[6]`` in sys_enter.
SYS_ENTER_ARGS_OFF = 16
#: Offset of ``long ret`` in sys_exit.
SYS_EXIT_RET_OFF = 16

SYS_ENTER_CTX_SIZE = 16 + 6 * 8  # header + id + args[6]
SYS_EXIT_CTX_SIZE = 16 + 8  # header + id + ret


@dataclass(frozen=True)
class ProgType:
    """Program type: names the attach point and fixes the ctx layout."""

    name: str
    ctx_size: int

    @classmethod
    def tracepoint_sys_enter(cls) -> "ProgType":
        return cls("tracepoint/raw_syscalls/sys_enter", SYS_ENTER_CTX_SIZE)

    @classmethod
    def tracepoint_sys_exit(cls) -> "ProgType":
        return cls("tracepoint/raw_syscalls/sys_exit", SYS_EXIT_CTX_SIZE)


# common_type(u16), common_flags(u8), common_preempt_count(u8),
# common_pid(s32), then ``long id`` and the payload: one packer per record.
_SYS_ENTER = struct.Struct("<HBBiq6Q")
_SYS_EXIT = struct.Struct("<HBBiqq")
_MASK64 = (1 << 64) - 1


def pack_sys_enter(ctx: SysEnterCtx) -> bytes:
    """Serialize a sys_enter context into its tracepoint record bytes.

    The record is memoized on the (frozen, hence immutable) context
    object: one tracepoint firing is packed once even when several
    attached programs — the monitor runs three collectors — read it.
    """
    blob = getattr(ctx, "_blob", None)
    if blob is None:
        args: Sequence[int] = tuple(ctx.args)[:6] + (0,) * max(0, 6 - len(ctx.args))
        blob = _SYS_ENTER.pack(0, 0, 0, ctx.tid & 0x7FFFFFFF, ctx.syscall_nr,
                               *[a & _MASK64 for a in args])
        object.__setattr__(ctx, "_blob", blob)
    return blob


def pack_sys_exit(ctx: SysExitCtx) -> bytes:
    """Serialize a sys_exit context into its tracepoint record bytes.

    Memoized on the frozen context object, like :func:`pack_sys_enter`.
    """
    blob = getattr(ctx, "_blob", None)
    if blob is None:
        blob = _SYS_EXIT.pack(0, 0, 0, ctx.tid & 0x7FFFFFFF, ctx.syscall_nr, ctx.ret)
        object.__setattr__(ctx, "_blob", blob)
    return blob
