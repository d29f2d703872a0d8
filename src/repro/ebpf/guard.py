"""Leading tgid/syscall guards, derived from a program's bytecode.

Listing 1's collectors open with a filter: read
``bpf_get_current_pid_tgid() >> 32`` and ``args->id``, compare both
against constants, and return 0 unless they match.  On a real kernel the
same filter is what attaching to ``sys_enter_sendto`` instead of
``raw_syscalls`` buys for free.  :func:`derive_guard` recognizes that
prologue in a program's instructions and summarizes it as a
:class:`ProgramGuard`: the accepted ``(tgid, nrs)`` plus the exact
``(steps, helper_cost_ns)`` of each reject path, so a dispatcher can skip
the program on a foreign firing and still account for it exactly as if
it had run.

The recognized shape is the one :func:`repro.core.collectors._emit_prologue`
emits, checked instruction by instruction over the straight-line prefix::

    r9 = r1                       ; register copies (any number)
    call bpf_get_current_pid_tgid
    r0 >>= 32
    if r0 != TGID goto reject     ; exactly one tgid compare, first
    r8 = *(u64 *)(r9 + 8)         ; args->id
    if r8 == NR1 goto match       ; one or more nr compares, same target
    ...
    goto reject
  match:

where every ``reject`` is a side-effect-free ``r0 = imm; exit`` block.  Any
other instruction before the last guard jump (a stack store, a map call,
pointer arithmetic, a 32-bit compare), a nr compare before the tgid
compare, or a reject edge landing anywhere else means no guard: the
program then runs on every firing, exactly as before.  The result is a
pure function of the wire encoding, so the translation cache keeps it
next to the code object.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Optional, Sequence, Tuple

from .helpers import HELPER_SIGS, Helper
from .insn import Insn
from .opcodes import AluOp, InsnClass, JmpOp, MemMode, MemSize, Src

__all__ = ["ProgramGuard", "derive_guard"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

_MOV_REG = InsnClass.ALU64 | AluOp.MOV | Src.X
_MOV_IMM = InsnClass.ALU64 | AluOp.MOV | Src.K
_RSH_IMM = InsnClass.ALU64 | AluOp.RSH | Src.K
_LDX_DW = InsnClass.LDX | MemMode.MEM | MemSize.DW
_CALL = InsnClass.JMP | JmpOp.CALL
_EXIT = InsnClass.JMP | JmpOp.EXIT
_JA = InsnClass.JMP | JmpOp.JA
_JNE_IMM = InsnClass.JMP | JmpOp.JNE | Src.K
_JEQ_IMM = InsnClass.JMP | JmpOp.JEQ | Src.K

#: Offset of ``long id`` in both raw_syscalls records.
_ID_OFF = 8

# Symbolic register contents along the prefix.
_CTX, _PID_TGID, _TGID, _NR = "ctx", "pid_tgid", "tgid", "nr"


class ProgramGuard(NamedTuple):
    """A program's leading filter, in the values its compares see.

    ``tgid`` and ``nrs`` are the 64-bit compare operands (sign-extended
    immediates).  ``tgid_reject``/``nr_reject`` are the ``(steps,
    helper_cost_ns)`` the program spends when the tgid differs, or when
    the tgid matches but the syscall number is not in ``nrs``; its cost
    is ``helper_cost_ns + steps * insn_cost_ns``, as for any run.
    """

    tgid: int
    nrs: FrozenSet[int]
    tgid_reject: Tuple[int, int]
    nr_reject: Tuple[int, int]

    def reject_path(self, tgid: int, nr: int) -> Optional[Tuple[int, int]]:
        """``(steps, helper_cost_ns)`` of a firing the program rejects, or
        ``None`` when it accepts.  ``tgid`` is ``pid_tgid >> 32`` and
        ``nr`` the syscall number, as the tracepoint reports them."""
        if tgid & _MASK32 != self.tgid:
            return self.tgid_reject
        if nr & _MASK64 not in self.nrs:
            return self.nr_reject
        return None


def _is_reject_block(insns: Sequence[Insn], target: int) -> bool:
    """``r0 = imm; exit`` at ``target``: no memory, no helper, no map."""
    if not 0 <= target < len(insns) - 1:
        return False
    first, second = insns[target], insns[target + 1]
    return first.opcode == _MOV_IMM and first.dst == 0 and second.opcode == _EXIT


def derive_guard(insns: Sequence[Insn]) -> Optional[ProgramGuard]:
    """The program's leading tgid/nr guard, or ``None`` if its prologue is
    not exactly the recognized shape (see the module docstring)."""
    regs = {1: _CTX}
    steps = helper_cost = 0
    tgid: Optional[int] = None
    tgid_reject: Optional[Tuple[int, int]] = None
    nrs = []
    match: Optional[int] = None
    for pc, insn in enumerate(insns):
        steps += 1
        code = insn.opcode
        if code == _MOV_REG and insn.src in regs and insn.dst != 10:
            regs[insn.dst] = regs[insn.src]
        elif code == _CALL and insn.imm == Helper.GET_CURRENT_PID_TGID:
            for reg in (1, 2, 3, 4, 5):
                regs.pop(reg, None)
            regs[0] = _PID_TGID
            helper_cost += HELPER_SIGS[insn.imm].cost_ns
        elif code == _RSH_IMM and insn.imm == 32 and regs.get(insn.dst) == _PID_TGID:
            regs[insn.dst] = _TGID
        elif (code == _LDX_DW and insn.off == _ID_OFF and regs.get(insn.src) == _CTX
              and insn.dst != 10):
            regs[insn.dst] = _NR
        elif (code == _JNE_IMM and tgid is None and regs.get(insn.dst) == _TGID
              and _is_reject_block(insns, pc + 1 + insn.off)):
            tgid = insn.imm & _MASK64
            tgid_reject = (steps + 2, helper_cost)
        elif code == _JEQ_IMM and tgid is not None and regs.get(insn.dst) == _NR:
            target = pc + 1 + insn.off
            if match is not None and target != match:
                return None
            match = target
            nrs.append(insn.imm & _MASK64)
        elif (code == _JA and nrs and match == pc + 1
              and _is_reject_block(insns, pc + 1 + insn.off)):
            return ProgramGuard(tgid, frozenset(nrs), tgid_reject, (steps + 2, helper_cost))
        else:
            return None
    return None
