"""Lock-step batched execution of faulty twins.

Every faulty twin of a golden group runs the *same* activation from the
*same* machine state; a twin's column of architectural state stays
bit-identical to the golden column until its flipped register first
matters.  Advancing N still-identical twins in lock-step is therefore
the identity on N-1 of them: one decode/dispatch of the golden stream
drives every column at once.  This module exploits that degeneracy
head-on — the batch replays the golden activation **once** in
full-trace mode and lowers the shared instruction stream into
per-register *read/write position columns* (numpy arrays of dynamic
indices).  Each twin's divergence point then falls out analytically
instead of by execution:

* the flip fires at the first retirement boundary at-or-after its
  injection index (bulk-retiring REP iterations snap the flip to the
  next boundary, exactly like the interpreter's between-dispatch
  injection check);
* a twin whose flipped register is **overwritten before the next
  read** — or never touched again — is *dead*: its column can never
  diverge from the golden one, so its trial record is synthesized
  without executing a single instruction;
* a twin whose register is **read first** diverges there: it peels off
  into the per-trial path.  The peel resumes from the golden ladder
  rung at-or-before the *read point*, not merely the injection index —
  the prefix up to the first read is bit-identical to golden except
  for the flipped bit itself, which the injector re-applies to the
  restored rung (:meth:`CPUCore.arm_applied_flip`).

RIP and RFLAGS flips always peel (control is consumed on the very next
fetch / flags have implicit readers), as do injection indices at or
beyond the traced run (the scan refuses to guess; the per-trial path
is the oracle).  Batched records are bit-identical to running every
twin per-trial; the test suite holds the campaign to that against a
per-trial reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters import TWINS, view
from repro.machine.isa import Op, Program
from repro.machine.registers import ALL_REGISTERS, RegisterFile

__all__ = [
    "TwinPlan",
    "build_plan",
    "classify_twin",
    "stats",
    "DEAD",
    "PEEL",
]

_RIP = RegisterFile.index_of("rip")
_RFLAGS = RegisterFile.index_of("rflags")
_N_REGS = len(ALL_REGISTERS)

#: Sentinel past any real dynamic index ("never touched again").
_NEVER = 1 << 62

DEAD = "dead"
PEEL = "peel"


def stats() -> dict[str, int]:
    """The ledger's twin-batch counters (see :mod:`repro.counters`)."""
    return view(TWINS)


@dataclass(frozen=True)
class TwinPlan:
    """Shared batch state of one golden group's faulty twins.

    The golden instruction stream, lowered to sorted position columns:
    ``tops`` holds every retirement boundary (REP continuations collapse
    into their first dispatch), ``reads_pos[r]`` / ``writes_pos[r]`` the
    dynamic indices at which register ``r`` is read / written.
    """

    #: Dynamic indices that start a dispatch (flip application points).
    tops: np.ndarray
    #: Per-register sorted dynamic indices of reads.
    reads_pos: tuple[np.ndarray, ...]
    #: Per-register sorted dynamic indices of writes.
    writes_pos: tuple[np.ndarray, ...]
    #: Dynamic length of the traced golden run.
    instructions: int


def _access_masks(program: Program, address: int, cache: dict) -> tuple[int, int, bool]:
    """(read bitmask, write bitmask, is_rep) of the instruction at ``address``."""
    m = cache.get(address)
    if m is None:
        # Imported here: cpu imports this module's sibling helpers lazily
        # elsewhere and a module-level import would be cyclic.
        from repro.machine.cpu import instr_register_accesses

        ins = program.instruction_at(address)
        reads, writes = instr_register_accesses(ins)
        m = cache[address] = (
            sum(1 << r for r in reads),
            sum(1 << r for r in writes),
            ins.op is Op.REP_MOVS,
        )
    return m


def build_plan(program: Program, addresses: list[int]) -> TwinPlan:
    """Lower a full golden address trace into a :class:`TwinPlan`.

    ``addresses`` is the per-retirement address stream (REP iterations
    appear once per moved word, at the same address).  Pure in its
    inputs; the hypervisor-side trace replay lives with the injector.
    """
    n = len(addresses)
    rd = np.empty(n, dtype=np.uint32)
    wr = np.empty(n, dtype=np.uint32)
    loop_top = np.ones(n, dtype=bool)
    cache: dict[int, tuple[int, int, bool]] = {}
    prev = None
    for i, a in enumerate(addresses):
        rm, wm, is_rep = _access_masks(program, a, cache)
        rd[i] = rm
        wr[i] = wm
        # Consecutive same-address REP entries are one dispatch: a flip
        # scheduled inside the bulk applies at the *next* boundary.
        if is_rep and prev == a:
            loop_top[i] = False
        prev = a
    return TwinPlan(
        tops=np.flatnonzero(loop_top),
        reads_pos=tuple(
            np.flatnonzero(rd & np.uint32(1 << r)) for r in range(_N_REGS)
        ),
        writes_pos=tuple(
            np.flatnonzero(wr & np.uint32(1 << r)) for r in range(_N_REGS)
        ),
        instructions=n,
    )


def classify_twin(
    plan: TwinPlan, register: str, dynamic_index: int
) -> tuple[str, int | None]:
    """Settle one twin against the shared golden columns.

    Returns ``(DEAD, None)`` when the flip provably cannot diverge the
    twin from the golden column (synthesize the non-activated record),
    or ``(PEEL, read_point)`` when it must execute per-trial —
    ``read_point`` is the dynamic index of the first golden read of the
    flipped register (a resume hint: state before it is golden except
    the flipped bit), or ``None`` when the scan cannot bound it.
    """
    reg = RegisterFile.index_of(register)
    if reg == _RIP or reg == _RFLAGS:
        return PEEL, None
    tops = plan.tops
    j = int(np.searchsorted(tops, dynamic_index, side="left"))
    if j >= len(tops):
        return PEEL, None  # at/past the end of the traced run
    p = int(tops[j])
    rp = plan.reads_pos[reg]
    i = int(np.searchsorted(rp, p, side="left"))
    first_read = int(rp[i]) if i < len(rp) else _NEVER
    wp = plan.writes_pos[reg]
    i = int(np.searchsorted(wp, p, side="left"))
    first_write = int(wp[i]) if i < len(wp) else _NEVER
    if first_read <= first_write and first_read < _NEVER:
        return PEEL, first_read
    return DEAD, None
