"""CPU core: fetch/decode/execute with fault-injection hooks.

One :class:`CPUCore` models a logical core executing host-mode (hypervisor)
code.  The core owns the architectural register file, a performance-counter
bank, a tracer, and a time-stamp counter; memory is shared machine state.

Fault injection is a first-class citizen: :meth:`CPUCore.schedule_flip` arms
bit flips to be applied immediately before a chosen *dynamic* instruction,
after which the core tracks whether the flipped register is read before it
is overwritten — the paper's activated/non-activated distinction
(Section V.B: "Only soft errors occurring before reading registers can be
activated").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.counters import LEDGER
from repro.errors import MachineConfigError, SimulationLimitExceeded
from repro.machine.exceptions import (
    AssertionViolation,
    HardwareException,
    PageFaultKind,
    Vector,
    raise_stack_fault,
)
from repro.machine.flags import add_flags, sub_flags, update_flags_logic
from repro.machine.isa import (
    INSTRUCTION_BYTES,
    OP_INDEX,
    Instr,
    Mem,
    Op,
    Program,
    Reg,
)
from repro.machine.memory import Memory, is_canonical
from repro.machine.perfcounters import PerformanceCounterUnit
from repro.machine.registers import MASK64, RegisterFile
from repro.machine.tracer import _FNV_PRIME, Tracer
from repro.machine import translator as _translator
from repro.machine.translator import translation_for

__all__ = [
    "CPUCore",
    "CoreCheckpoint",
    "ExecutionResult",
    "InjectionReport",
    "instr_register_accesses",
    "DEFAULT_CPUID_TABLE",
]

_RIP = RegisterFile.index_of("rip")
_RSP = RegisterFile.index_of("rsp")
_RFLAGS = RegisterFile.index_of("rflags")
_RAX = RegisterFile.index_of("rax")
_RBX = RegisterFile.index_of("rbx")
_RCX = RegisterFile.index_of("rcx")
_RDX = RegisterFile.index_of("rdx")
_RSI = RegisterFile.index_of("rsi")
_RDI = RegisterFile.index_of("rdi")

# Dense op indices for the dispatch loop's inline bodies (ordered there by
# measured dynamic frequency) and its terminator test — VMENTRY/HALT are the
# last two enum members, so one >= comparison classifies both.
_I_JCC = OP_INDEX[Op.JCC]
_I_CMP = OP_INDEX[Op.CMP]
_I_MOV = OP_INDEX[Op.MOV]
_I_INC = OP_INDEX[Op.INC]
_I_JMP = OP_INDEX[Op.JMP]
_I_ADD = OP_INDEX[Op.ADD]
_I_TEST = OP_INDEX[Op.TEST]
_I_STORE = OP_INDEX[Op.STORE]
_I_LOAD = OP_INDEX[Op.LOAD]
_I_SHL = OP_INDEX[Op.SHL]
_I_DEC = OP_INDEX[Op.DEC]
_I_SHR = OP_INDEX[Op.SHR]
_I_AND = OP_INDEX[Op.AND]
_I_OR = OP_INDEX[Op.OR]
_I_POP = OP_INDEX[Op.POP]
_I_IMUL = OP_INDEX[Op.IMUL]
_I_PUSH = OP_INDEX[Op.PUSH]
_TERMINATOR_MIN = OP_INDEX[Op.VMENTRY]
assert _TERMINATOR_MIN == len(OP_INDEX) - 2  # VMENTRY, HALT close the enum

# Stack-access #SS conversion — one implementation shared with the
# translated-block codegen (see repro.machine.exceptions.raise_stack_fault).
_raise_stack_fault = raise_stack_fault


#: Deterministic CPUID leaves: leaf -> (eax, ebx, ecx, edx).  Values echo a
#: Xeon-like identification block; what matters for the reproduction is that
#: the hypervisor's trap-and-emulate path produces *specific* values a guest
#: will consume (the Section II.A long-latency example).
DEFAULT_CPUID_TABLE: dict[int, tuple[int, int, int, int]] = {
    0x0: (0x0000000B, 0x756E6547, 0x6C65746E, 0x49656E69),  # "GenuineIntel"
    0x1: (0x000106A5, 0x00100800, 0x009CE3BD, 0xBFEBFBFF),  # family/model/features
    0x2: (0x55035A01, 0x00F0B2E4, 0x00000000, 0x09CA212C),
    0x4: (0x1C004121, 0x01C0003F, 0x0000003F, 0x00000000),
    0x80000000: (0x80000008, 0, 0, 0),
    0x80000008: (0x00003028, 0, 0, 0),
}


def instr_register_accesses(instr: Instr) -> tuple[frozenset[int], frozenset[int]]:
    """Return ``(reads, writes)`` register-index sets for ``instr``.

    RIP is deliberately excluded (every instruction touches it); flips in RIP
    are always considered activated by the injector.  The sets drive the
    activated/non-activated classification of injected faults.

    The result is memoized on the (static) instruction object: the injector's
    watch loop calls this once per retired instruction while a flipped
    register is live, so recomputation would dominate that window.
    """
    cached = instr.__dict__.get("_accesses")
    if cached is not None:
        return cached
    op = instr.op
    reads: set[int] = set()
    writes: set[int] = set()

    def _src_reads() -> None:
        if isinstance(instr.src, Reg):
            reads.add(instr.src.index)
        elif isinstance(instr.src, Mem):
            reads.add(instr.src.base.index)

    if op is Op.MOV:
        _src_reads()
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op in (Op.LOAD, Op.LEA):
        reads.add(instr.src.base.index)  # type: ignore[union-attr]
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.STORE:
        reads.add(instr.dst.base.index)  # type: ignore[union-attr]
        if isinstance(instr.src, Reg):
            reads.add(instr.src.index)
    elif op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.IMUL, Op.DIV, Op.SHL, Op.SHR):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        _src_reads()
        writes.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(_RFLAGS)
    elif op in (Op.CMP, Op.TEST):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        _src_reads()
        writes.add(_RFLAGS)
    elif op in (Op.INC, Op.DEC):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(instr.dst.index)  # type: ignore[union-attr]
        writes.add(_RFLAGS)
    elif op is Op.JCC:
        reads.add(_RFLAGS)
    elif op is Op.CALL:
        reads.add(_RSP)
        writes.add(_RSP)
    elif op is Op.RET:
        reads.add(_RSP)
        writes.add(_RSP)
    elif op is Op.PUSH:
        reads.add(_RSP)
        reads.add(instr.src.index)  # type: ignore[union-attr]
        writes.add(_RSP)
    elif op is Op.POP:
        reads.add(_RSP)
        writes.add(_RSP)
        writes.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.REP_MOVS:
        reads.update((_RCX, _RSI, _RDI))
        writes.update((_RCX, _RSI, _RDI))
    elif op is Op.RDTSC:
        writes.update((_RAX, _RDX))
    elif op is Op.CPUID:
        reads.add(_RAX)
        writes.update((_RAX, _RBX, _RCX, _RDX))
    elif op in (Op.ASSERT_RANGE, Op.ASSERT_EQ):
        reads.add(instr.dst.index)  # type: ignore[union-attr]
    elif op is Op.ASSERT_EQ_REG:
        reads.add(instr.dst.index)  # type: ignore[union-attr]
        reads.add(instr.src.index)  # type: ignore[union-attr]
    # JMP/NOP/VMENTRY/HALT touch nothing but RIP.
    result = (frozenset(reads), frozenset(writes))
    object.__setattr__(instr, "_accesses", result)  # frozen dataclass, no slots
    return result


@dataclass(frozen=True)
class InjectionReport:
    """What happened to a scheduled fault after the run."""

    applied: bool
    register: str
    bit: int
    dynamic_index: int
    #: True when the flipped value was read before being overwritten; None
    #: when the run ended before the register was touched again (treated as
    #: non-activated, same as the paper's non-activated errors).
    activated: bool | None
    activation_index: int | None


@dataclass(frozen=True)
class CoreCheckpoint:
    """Mid-run architectural state of one core, captured at an instruction
    boundary (``index`` instructions retired, RIP holding the next fetch).

    Together with a memory checkpoint this is everything needed to resume
    execution bit-identically: registers, PMU totals and collection window,
    tracer state, TSC, and the assertion-check tally.  Injection state is
    deliberately excluded — the injector re-arms after restoring.
    """

    index: int
    regs: tuple[int, ...]
    pmu: tuple
    tracer: tuple[int, int, tuple[int, ...]]
    tsc: int
    assert_checks: int


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one host-mode execution that ran to a terminator."""

    exit_op: Op                 # VMENTRY or HALT
    instructions: int           # dynamic instructions retired (tracer count)
    final_rip: int
    path_hash: int
    tsc_end: int
    assertion_checks: int = 0   # how many assertion predicates were evaluated
    addresses: tuple[int, ...] = field(default_factory=tuple)


class CPUCore:
    """A logical core executing toy-ISA programs against shared memory."""

    def __init__(
        self,
        core_id: int,
        memory: Memory,
        *,
        tsc_start: int = 1_000_000,
        tsc_per_instruction: int = 1,
        cpuid_table: dict[int, tuple[int, int, int, int]] | None = None,
        light_trace: bool = True,
        translate: bool = True,
    ) -> None:
        if core_id < 0:
            raise MachineConfigError("core_id must be non-negative")
        self.core_id = core_id
        self.memory = memory
        self.regs = RegisterFile()
        self.pmu = PerformanceCounterUnit()
        self.tracer = Tracer(light=light_trace)
        self.tsc = tsc_start
        self.tsc_per_instruction = tsc_per_instruction
        self.cpuid_table = dict(DEFAULT_CPUID_TABLE if cpuid_table is None else cpuid_table)
        #: Execute through cached translated blocks where possible (the
        #: interpreter remains the oracle; ``translate=False`` forces it).
        self.translate = translate
        # Injection state
        self._inj_index: int | None = None
        #: Every (register, bit) pair applied at the injection index; one
        #: pair for the paper's single-bit model.
        self._inj_flips: tuple[tuple[str, int], ...] | None = None
        self._inj_applied = False
        self._inj_known: int | None = None
        self._watch_reg: int | None = None
        self._activated: bool | None = None
        self._activation_index: int | None = None
        self._assert_checks = 0
        exec_map: dict[Op, Callable[[Instr], int | None]] = {
            Op.MOV: self._op_mov,
            Op.LOAD: self._op_load,
            Op.STORE: self._op_store,
            Op.LEA: self._op_lea,
            Op.ADD: self._op_add,
            Op.SUB: self._op_sub,
            Op.AND: self._op_and,
            Op.OR: self._op_or,
            Op.XOR: self._op_xor,
            Op.IMUL: self._op_imul,
            Op.DIV: self._op_div,
            Op.SHL: self._op_shl,
            Op.SHR: self._op_shr,
            Op.CMP: self._op_cmp,
            Op.TEST: self._op_test,
            Op.INC: self._op_inc,
            Op.DEC: self._op_dec,
            Op.JMP: self._op_jmp,
            Op.JCC: self._op_jcc,
            Op.CALL: self._op_call,
            Op.RET: self._op_ret,
            Op.PUSH: self._op_push,
            Op.POP: self._op_pop,
            Op.REP_MOVS: self._op_rep_movs,
            Op.RDTSC: self._op_rdtsc,
            Op.CPUID: self._op_cpuid,
            Op.ASSERT_RANGE: self._op_assert_range,
            Op.ASSERT_EQ: self._op_assert_eq,
            Op.ASSERT_EQ_REG: self._op_assert_eq_reg,
            Op.NOP: self._op_nop,
        }
        # Dense dispatch table indexed by Instr.op_index (no enum hashing on
        # the hot path).  Terminators have no executor.
        self._exec_list: list[Callable[[Instr], int | None] | None] = [
            exec_map.get(op) for op in Op
        ]

    # -- fault injection ------------------------------------------------------

    def schedule_flip(
        self,
        dynamic_index: int,
        *flips: tuple[str, int],
        known_activation: int | None = None,
    ) -> None:
        """Arm ``(register, bit)`` flips striking atomically before dynamic
        instruction ``dynamic_index`` (0-based) of the next :meth:`run`.

        One register (a single-bit or multi-bit upset) gets the activation
        watch; flips spanning registers (a burst) have no single register
        to watch, so the report's ``activated`` stays ``None`` and callers
        infer activation from divergence (exactly like memory faults).

        ``known_activation`` is the lock-step scan's analytic activation
        index, honored for one-register sets: the golden trace proved the
        register's first access after the flip is a *read* at that dynamic
        index, so the activation watch (which forces per-instruction
        visibility on blocks touching the register) is skipped entirely and
        the report is settled the moment the flip applies.
        """
        if not flips:
            raise MachineConfigError("flip set must not be empty")
        for register, bit in flips:
            RegisterFile.index_of(register)  # validate eagerly
            if not 0 <= bit < 64:
                raise MachineConfigError(f"bit index {bit} outside [0, 64)")
        if dynamic_index < 0:
            raise MachineConfigError("dynamic_index must be non-negative")
        self._inj_index = dynamic_index
        self._inj_flips = flips
        self._inj_applied = False
        self._inj_known = known_activation
        self._watch_reg = None
        self._activated = None
        self._activation_index = None

    def arm_applied_flip(
        self,
        dynamic_index: int,
        *flips: tuple[str, int],
        known_activation: int | None = None,
    ) -> None:
        """Apply one-register flips *now*, at a restored ladder rung, and
        settle them as if they had struck at ``dynamic_index``.

        The lock-step peel path's primitive: when the golden prefix provably
        never touches the register between the injection index and the
        restore point, flipping the restored (golden) value is bit-identical
        to having flipped it at ``dynamic_index`` — so the injector may
        fast-forward past the injection and re-apply the flip here.  The
        report carries the original ``dynamic_index``.  Only legal for flips
        confined to one register: the scan's no-access proof is per
        register, so a burst cannot fast-forward past its injection index.
        """
        if len({register for register, _ in flips}) > 1:
            raise MachineConfigError("arm_applied_flip needs flips in one register")
        self.schedule_flip(dynamic_index, *flips, known_activation=known_activation)
        self._settle(dynamic_index)

    def clear_injection(self) -> None:
        """Disarm any scheduled fault."""
        self._inj_index = None
        self._inj_flips = None
        self._inj_applied = False
        self._inj_known = None
        self._watch_reg = None

    @property
    def injection_report(self) -> InjectionReport | None:
        """Report of the most recently scheduled fault, if any (``register``
        and ``bit`` name its first flip)."""
        if self._inj_flips is None:
            return None
        register, bit = self._inj_flips[0]
        return InjectionReport(
            applied=self._inj_applied,
            register=register,
            bit=bit,
            dynamic_index=self._inj_index if self._inj_index is not None else -1,
            activated=self._activated,
            activation_index=self._activation_index,
        )

    def _settle(self, index: int) -> None:
        """Apply the armed flips as striking at dynamic index ``index`` and
        decide how activation is tracked."""
        registers = set()
        for register, bit in self._inj_flips:
            self.regs.flip_bit(register, bit)
            registers.add(RegisterFile.index_of(register))
        self._inj_applied = True
        if _RIP in registers:
            # Control is transferred through RIP on the very next fetch:
            # always activated, immediately.
            self._activated = True
            self._activation_index = index
        elif len(registers) == 1:
            if self._inj_known is not None:
                # The lock-step scan proved the first access is a read at
                # this index; settle the report without arming the watch so
                # the run stays on the translated path.
                self._activated = True
                self._activation_index = self._inj_known
            else:
                self._watch_reg = registers.pop()
        # Multi-register burst: no single register to watch — the report's
        # ``activated`` stays None and callers infer it from divergence.

    def _watch(self, instr: Instr, count: int) -> None:
        reads, writes = instr_register_accesses(instr)
        reg = self._watch_reg
        if reg in reads:
            self._activated = True
            self._activation_index = count
            self._watch_reg = None
        elif reg in writes:
            self._activated = False
            self._watch_reg = None

    # -- checkpointing --------------------------------------------------------

    def checkpoint_core(self) -> CoreCheckpoint:
        """Capture the core's architectural state at the current instruction
        boundary (valid between :meth:`resume` slices or after a run)."""
        return CoreCheckpoint(
            index=self.tracer.count,
            regs=self.regs.snapshot(),
            pmu=self.pmu.snapshot(),
            tracer=self.tracer.snapshot(),
            tsc=self.tsc,
            assert_checks=self._assert_checks,
        )

    def restore_core(self, checkpoint: CoreCheckpoint) -> None:
        """Restore state captured by :meth:`checkpoint_core`.

        Injection state is untouched; callers arming a fault do so *after*
        restoring (as :meth:`schedule_flip` fully re-initializes it).
        """
        self.regs.restore(checkpoint.regs)
        self.pmu.restore(checkpoint.pmu)
        self.tracer.restore(checkpoint.tracer)
        self.tsc = checkpoint.tsc
        self._assert_checks = checkpoint.assert_checks

    # -- execution ------------------------------------------------------------

    def begin(self, entry: int) -> None:
        """Position the core at ``entry`` with a fresh assertion tally,
        ready for :meth:`resume`.  ``run`` == ``begin`` + drain."""
        self.regs.write_index(_RIP, entry)
        self._assert_checks = 0

    def run(
        self,
        program: Program,
        entry: int,
        *,
        max_instructions: int = 200_000,
    ) -> ExecutionResult:
        """Execute ``program`` from byte address ``entry`` to a terminator.

        Raises :class:`HardwareException` / :class:`AssertionViolation` for
        simulated architectural events and :class:`SimulationLimitExceeded`
        when the watchdog budget is exhausted (a modeled hang).
        """
        self.begin(entry)
        result = self._dispatch(program, max_instructions, None)
        assert result is not None  # stop_at=None always drains to a terminator
        return result

    def resume(
        self,
        program: Program,
        *,
        max_instructions: int = 200_000,
        stop_at: int | None = None,
    ) -> ExecutionResult | None:
        """Continue execution from the current architectural state.

        With ``stop_at``, execution pauses *before* dynamic instruction index
        ``stop_at`` retires and returns ``None`` — the core then sits at an
        instruction boundary suitable for :meth:`checkpoint_core`.  Without
        it, runs to a terminator exactly like :meth:`run` (the watchdog
        budget is absolute, measured against the tracer's total count, so a
        resumed run behaves bit-identically to an uninterrupted one).
        """
        return self._dispatch(program, max_instructions, stop_at)

    def _dispatch(
        self, program: Program, budget: int, stop_at: int | None
    ) -> ExecutionResult | None:
        # Hot loop: every per-iteration attribute load that cannot change
        # mid-run is hoisted into a local, and the per-instruction machine
        # state (dynamic count, path hash, PMU inst/branch totals, TSC) is
        # buffered in locals — flushed on every exit path by the finally
        # block, and synced around the two ops that consume it mid-loop
        # (rep_movs mutates tracer/PMU/TSC in bulk, rdtsc reads the TSC).
        regs = self.regs
        rvals = regs._values
        tracer = self.tracer
        pmu = self.pmu
        light = tracer.light
        enabled = tracer.enabled
        addresses = tracer.addresses
        tsc_step = self.tsc_per_instruction
        mem_read = self.memory.read_u64
        mem_write = self.memory.write_u64
        add_f = add_flags
        sub_f = sub_flags
        logic_f = update_flags_logic
        ib = INSTRUCTION_BYTES
        # Fast-fetch bounds: addresses inside the program text are decoded by
        # direct indexing; everything else goes through the faulting path.
        text_base = program.base
        text_span = program.end - text_base
        instructions = program.instructions
        exec_list = self._exec_list
        inj_index = self._inj_index
        injecting = inj_index is not None and not self._inj_applied
        watching = self._watch_reg is not None
        # Single hot-loop comparison: pausing (ladder checkpoint) and the
        # watchdog budget share one threshold; the slow path disambiguates,
        # with the budget raise winning when both trip at the same count.
        pause = budget if stop_at is None or stop_at > budget else stop_at
        # Constants rebound as locals (LOAD_FAST beats LOAD_GLOBAL in the
        # per-retirement opcode comparison chain below).
        m64 = MASK64
        fnv = _FNV_PRIME
        i_rip = _RIP
        i_fl = _RFLAGS
        i_sp = _RSP
        term_min = _TERMINATOR_MIN
        c_jcc = _I_JCC
        c_cmp = _I_CMP
        c_mov = _I_MOV
        c_inc = _I_INC
        c_jmp = _I_JMP
        c_add = _I_ADD
        c_test = _I_TEST
        c_store = _I_STORE
        c_load = _I_LOAD
        c_shl = _I_SHL
        c_dec = _I_DEC
        c_shr = _I_SHR
        c_and = _I_AND
        c_or = _I_OR
        c_pop = _I_POP
        c_imul = _I_IMUL
        c_push = _I_PUSH

        count = tracer.count
        path_hash = tracer.path_hash
        p_inst = pmu._inst
        p_br = pmu._br
        p_loads = pmu._loads
        p_stores = pmu._stores
        tsc = self.tsc

        # Translated-block dispatch is only legal when a block's batched
        # accounting matches what per-instruction interpretation would have
        # done: light tracing (no per-address log), tracer enabled (blocks
        # always count), and in-text execution.  A pending injection needs
        # per-instruction visibility (``block_limit`` stops blocks short of
        # the flip), and a live activation watch interprets any block that
        # touches the watched register — blocks that cannot resolve the
        # watch (``meta.touched``) still run translated.
        use_trans = self.translate and light and enabled and text_span > 0
        if use_trans:
            translation = translation_for(program)
            blocks = translation.blocks
            compile_block = translation.compile_block
            heat = translation.heat
            # Read through the module so tests can pin the threshold to 1.
            threshold = _translator.COMPILE_THRESHOLD
        else:
            blocks = compile_block = heat = None  # type: ignore[assignment]
            threshold = 0
        fast = use_trans and not watching
        # A block only runs when it retires entirely before the next stop:
        # the pause/budget threshold always, and the injection index while a
        # flip is pending (the trial interprets from the injection point on).
        block_limit = inj_index if injecting and inj_index < pause else pause
        t_instr = 0
        t_blocks = 0
        count0 = count

        try:
            while True:
                if count >= pause:
                    if count >= budget:
                        raise SimulationLimitExceeded(budget)
                    return None
                rip = rvals[i_rip]
                if injecting and count >= inj_index:
                    self._settle(count)
                    injecting = False
                    watching = self._watch_reg is not None
                    fast = use_trans and not watching
                    block_limit = pause
                    rip = rvals[i_rip]
                offset = rip - text_base
                if 0 <= offset < text_span and not offset & 3:
                    if use_trans:
                        idx = offset >> 2
                        entry = blocks[idx]
                        if entry is None:
                            # Warmth-gated compilation: interpret cold
                            # entries (one-off side entries never amortize
                            # trace compilation); compile at the threshold.
                            warmth = heat[idx] + 1
                            if warmth >= threshold:
                                entry = compile_block(idx)
                            else:
                                heat[idx] = warmth
                                entry = False
                        if (
                            entry is not False
                            and count + entry[1] <= block_limit
                            and (
                                fast
                                or not entry[6].touched >> self._watch_reg & 1
                            )
                        ):
                            try:
                                (
                                    path_hash, n, nbr, nld, nst, nak,
                                ) = entry[0](rvals, mem_read, mem_write, path_hash)
                            except (HardwareException, AssertionViolation) as exc:
                                # Precise side exit: re-synchronize counters,
                                # hash and RIP for the partially retired
                                # prefix — the faulting instruction retires
                                # (count/inst/tsc, and its branch event for a
                                # faulting CALL/RET) but not its memory event
                                # — then deliver the exception exactly as the
                                # interpreter would have.
                                meta = entry[6]
                                k = meta.index_of[exc.rip]
                                retired = k + 1
                                count += retired
                                p_inst += retired
                                tsc += tsc_step * retired
                                p_loads += meta.loads_before[k]
                                p_stores += meta.stores_before[k]
                                p_br += meta.branches_through[k]
                                self._assert_checks += meta.asserts_through[k]
                                for a in meta.addrs[:retired]:
                                    path_hash = ((path_hash ^ a) * fnv) & m64
                                t_instr += retired
                                rvals[i_rip] = exc.rip
                                raise
                            count += n
                            p_inst += n
                            p_br += nbr
                            p_loads += nld
                            p_stores += nst
                            tsc += tsc_step * n
                            if nak:
                                self._assert_checks += nak
                            t_instr += n
                            t_blocks += 1
                            continue
                    instr = instructions[offset >> 2]
                else:
                    instr = self._fetch(program, rip)
                oi = instr.op_index
                if oi >= term_min:
                    if enabled:
                        count += 1
                        path_hash = ((path_hash ^ rip) * fnv) & m64
                        if not light:
                            addresses.append(rip)
                    p_inst += 1
                    tsc += tsc_step
                    return ExecutionResult(
                        exit_op=instr.op,
                        instructions=count,
                        final_rip=rip,
                        path_hash=path_hash,
                        tsc_end=tsc,
                        assertion_checks=self._assert_checks,
                        addresses=tuple(addresses) if not light else (),
                    )
                if watching:
                    self._watch(instr, count)
                    watching = self._watch_reg is not None
                    if not watching:
                        fast = use_trans
                if enabled:
                    count += 1
                    path_hash = ((path_hash ^ rip) * fnv) & m64
                    if not light:
                        addresses.append(rip)
                p_inst += 1
                tsc += tsc_step
                # Inline bodies for the ops that dominate the dynamic mix
                # (ordered by measured frequency; together ~98% of retirements).
                # Each block ends by writing RIP and continuing — the generic
                # tail below only serves the rare fallback ops.
                if oi == c_jcc:
                    p_br += 1
                    f = rvals[i_fl]
                    if (instr.cond_table >> ((f & 1) | ((f >> 5) & 6) | ((f >> 8) & 8))) & 1:
                        rvals[i_rip] = instr.target & m64  # type: ignore[operator]
                    else:
                        rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_cmp:
                    a = rvals[instr.dst_index]
                    b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    rvals[i_fl] = sub_f(rvals[i_fl], a - b, a, b)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_mov:
                    rvals[instr.dst_index] = (
                        rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    )
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_inc:
                    di = instr.dst_index
                    a = rvals[di]
                    rvals[di] = (a + 1) & m64
                    rvals[i_fl] = add_f(rvals[i_fl], a + 1, a, 1)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_jmp:
                    p_br += 1
                    rvals[i_rip] = instr.target & m64  # type: ignore[operator]
                    continue
                if oi == c_add:
                    di = instr.dst_index
                    a = rvals[di]
                    b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    wide = a + b
                    rvals[di] = wide & m64
                    rvals[i_fl] = add_f(rvals[i_fl], wide, a, b)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_test:
                    a = rvals[instr.dst_index]
                    b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    rvals[i_fl] = logic_f(rvals[i_fl], a & b)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_store:
                    mem_write(
                        (rvals[instr.mem_base_index] + instr.mem_disp) & m64,
                        rvals[instr.src_index] if instr.src_is_reg else instr.src_imm,
                        rip=rip,
                    )
                    p_stores += 1
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_load:
                    value = mem_read(
                        (rvals[instr.mem_base_index] + instr.mem_disp) & m64, rip=rip
                    )
                    p_loads += 1
                    rvals[instr.dst_index] = value
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_shl:
                    di = instr.dst_index
                    b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    result = (rvals[di] << (b & 63)) & m64
                    rvals[di] = result
                    rvals[i_fl] = logic_f(rvals[i_fl], result)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_dec:
                    di = instr.dst_index
                    a = rvals[di]
                    rvals[di] = (a - 1) & m64
                    rvals[i_fl] = sub_f(rvals[i_fl], a - 1, a, 1)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_shr:
                    di = instr.dst_index
                    b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    result = rvals[di] >> (b & 63)
                    rvals[di] = result
                    rvals[i_fl] = logic_f(rvals[i_fl], result)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_and:
                    di = instr.dst_index
                    result = rvals[di] & (
                        rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    )
                    rvals[di] = result
                    rvals[i_fl] = logic_f(rvals[i_fl], result)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_or:
                    di = instr.dst_index
                    result = rvals[di] | (
                        rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
                    )
                    rvals[di] = result
                    rvals[i_fl] = logic_f(rvals[i_fl], result)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_pop:
                    rsp = rvals[i_sp]
                    try:
                        value = mem_read(rsp, rip=rip)
                    except HardwareException as exc:
                        _raise_stack_fault(exc)
                    p_loads += 1
                    rvals[instr.dst_index] = value
                    rvals[i_sp] = (rsp + 8) & m64
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_imul:
                    di = instr.dst_index
                    result = (
                        rvals[di]
                        * (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
                    ) & m64
                    rvals[di] = result
                    rvals[i_fl] = logic_f(rvals[i_fl], result)
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                if oi == c_push:
                    rsp = (rvals[i_sp] - 8) & m64
                    try:
                        mem_write(rsp, rvals[instr.src_index], rip=rip)
                    except HardwareException as exc:
                        _raise_stack_fault(exc)
                    p_stores += 1
                    rvals[i_sp] = rsp
                    rvals[i_rip] = (rip + ib) & m64
                    continue
                # Fallback: rare ops run through their handler with the
                # buffered state flushed first (rep_movs/rdtsc consume it,
                # call/ret bump PMU memory counters) and reloaded after.
                if instr.is_branch:
                    p_br += 1
                tracer.count = count
                tracer.path_hash = path_hash
                pmu._inst = p_inst
                pmu._br = p_br
                pmu._loads = p_loads
                pmu._stores = p_stores
                self.tsc = tsc
                next_rip = exec_list[oi](instr)  # type: ignore[misc]
                count = tracer.count
                path_hash = tracer.path_hash
                p_inst = pmu._inst
                p_br = pmu._br
                p_loads = pmu._loads
                p_stores = pmu._stores
                tsc = self.tsc
                rvals[i_rip] = (rip + ib) & m64 if next_rip is None else next_rip & m64
        finally:
            tracer.count = count
            tracer.path_hash = path_hash
            pmu._inst = p_inst
            pmu._br = p_br
            pmu._loads = p_loads
            pmu._stores = p_stores
            self.tsc = tsc
            LEDGER["translated_instructions"] += t_instr
            LEDGER["block_executions"] += t_blocks
            LEDGER["interpreted_instructions"] += count - count0 - t_instr

    def _fetch(self, program: Program, rip: int) -> Instr:
        if not is_canonical(rip):
            raise HardwareException(
                Vector.GENERAL_PROTECTION, rip, address=rip, detail="non-canonical rip"
            )
        region = self.memory.region_at(rip)
        if region is None:
            raise HardwareException(
                Vector.PAGE_FAULT,
                rip,
                address=rip,
                kind=PageFaultKind.FATAL_UNMAPPED,
                detail="instruction fetch from unmapped memory",
            )
        if not region.executable:
            raise HardwareException(
                Vector.PAGE_FAULT,
                rip,
                address=rip,
                kind=PageFaultKind.FATAL_PROTECTION,
                detail=f"instruction fetch from non-executable {region.name}",
            )
        instr = program.instruction_at(rip)
        if instr is None:
            # Mapped, executable, but not a valid instruction boundary:
            # decoding garbage -> invalid opcode.
            raise HardwareException(
                Vector.INVALID_OPCODE, rip, address=rip, detail="misaligned or stray fetch"
            )
        return instr

    # -- instruction semantics ---------------------------------------------------

    # The arithmetic/logic/compare handlers below index the register value
    # list directly (writes are masked in place) and read operands through
    # the Instr's flattened metadata (``dst_index``/``src_is_reg``/...):
    # together they retire most dynamic instructions, and attribute-chain
    # plus read_index/write_index call overhead is the dominant
    # per-instruction cost at this grain.

    def _op_mov(self, instr: Instr) -> None:
        rvals = self.regs._values
        rvals[instr.dst_index] = (
            rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        )

    def _op_load(self, instr: Instr) -> None:
        rvals = self.regs._values
        addr = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64
        value = self.memory.read_u64(addr, rip=rvals[_RIP])
        self.pmu._loads += 1
        rvals[instr.dst_index] = value

    def _op_store(self, instr: Instr) -> None:
        rvals = self.regs._values
        addr = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64
        self.memory.write_u64(
            addr,
            rvals[instr.src_index] if instr.src_is_reg else instr.src_imm,
            rip=rvals[_RIP],
        )
        self.pmu._stores += 1

    def _op_lea(self, instr: Instr) -> None:
        rvals = self.regs._values
        rvals[instr.dst_index] = (rvals[instr.mem_base_index] + instr.mem_disp) & MASK64

    def _op_add(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        wide = a + b
        rvals[di] = wide & MASK64
        rvals[_RFLAGS] = add_flags(rvals[_RFLAGS], wide, a, b)

    def _op_sub(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        wide = a - b
        rvals[di] = wide & MASK64
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], wide, a, b)

    # AND/OR/XOR keep results inside the 64-bit mask by construction (both
    # operands are already masked), so only IMUL/SHL re-mask below.

    def _op_and(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] & (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_or(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] | (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_xor(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = rvals[di] ^ (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_imul(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        result = (
            rvals[di] * (rvals[instr.src_index] if instr.src_is_reg else instr.src_imm)
        ) & MASK64
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_div(self, instr: Instr) -> None:
        rvals = self.regs._values
        divisor = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        if divisor == 0:
            raise HardwareException(
                Vector.DIVIDE_ERROR, rvals[_RIP], detail="division by zero"
            )
        di = instr.dst_index
        quotient = rvals[di] // divisor
        rvals[di] = quotient
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], quotient)

    def _op_shl(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        result = (rvals[di] << (b & 63)) & MASK64
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_shr(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        result = rvals[di] >> (b & 63)
        rvals[di] = result
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], result)

    def _op_cmp(self, instr: Instr) -> None:
        rvals = self.regs._values
        a = rvals[instr.dst_index]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], a - b, a, b)

    def _op_test(self, instr: Instr) -> None:
        rvals = self.regs._values
        a = rvals[instr.dst_index]
        b = rvals[instr.src_index] if instr.src_is_reg else instr.src_imm
        rvals[_RFLAGS] = update_flags_logic(rvals[_RFLAGS], a & b)

    def _op_inc(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        rvals[di] = (a + 1) & MASK64
        rvals[_RFLAGS] = add_flags(rvals[_RFLAGS], a + 1, a, 1)

    def _op_dec(self, instr: Instr) -> None:
        rvals = self.regs._values
        di = instr.dst_index
        a = rvals[di]
        rvals[di] = (a - 1) & MASK64
        rvals[_RFLAGS] = sub_flags(rvals[_RFLAGS], a - 1, a, 1)

    def _op_jmp(self, instr: Instr) -> int:
        return instr.target  # type: ignore[return-value]

    def _op_jcc(self, instr: Instr) -> int | None:
        f = self.regs._values[_RFLAGS]
        if (instr.cond_table >> ((f & 1) | ((f >> 5) & 6) | ((f >> 8) & 8))) & 1:
            return instr.target
        return None

    # Stack ops guard their memory access inline (a try/except is free when
    # no exception fires; the old closure-per-execution pattern was not),
    # converting fatal page faults into #SS via ``_raise_stack_fault``.

    def _op_call(self, instr: Instr) -> int | None:
        rvals = self.regs._values
        rsp = (rvals[_RSP] - 8) & MASK64
        rip = rvals[_RIP]
        try:
            self.memory.write_u64(rsp, rip + INSTRUCTION_BYTES, rip=rip)
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._stores += 1
        rvals[_RSP] = rsp
        return instr.target  # type: ignore[return-value]

    def _op_ret(self, instr: Instr) -> int | None:
        rvals = self.regs._values
        rsp = rvals[_RSP]
        try:
            target = self.memory.read_u64(rsp, rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._loads += 1
        rvals[_RSP] = (rsp + 8) & MASK64
        return target

    def _op_push(self, instr: Instr) -> None:
        rvals = self.regs._values
        rsp = (rvals[_RSP] - 8) & MASK64
        try:
            self.memory.write_u64(rsp, rvals[instr.src_index], rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._stores += 1
        rvals[_RSP] = rsp

    def _op_pop(self, instr: Instr) -> None:
        rvals = self.regs._values
        rsp = rvals[_RSP]
        try:
            value = self.memory.read_u64(rsp, rip=rvals[_RIP])
        except HardwareException as exc:
            _raise_stack_fault(exc)
        self.pmu._loads += 1
        rvals[instr.dst_index] = value
        rvals[_RSP] = (rsp + 8) & MASK64

    def _op_rep_movs(self, instr: Instr) -> None:
        """Copy ``rcx`` 64-bit words from ``[rsi]`` to ``[rdi]``.

        Executed in bulk for speed, but counted per-word: each copied word
        retires one "instruction" (iteration), one load and one store, so a
        corrupted ``rcx`` visibly stretches the dynamic footprint (Fig. 5a).
        """
        regs = self.regs
        rip = regs.read_index(_RIP)
        count = regs.read_index(_RCX)
        copied = 0
        while copied < count:
            rsi = regs.read_index(_RSI)
            rdi = regs.read_index(_RDI)
            src_ok = self._words_until_fault(rsi, write=False)
            dst_ok = self._words_until_fault(rdi, write=True)
            chunk = min(count - copied, src_ok, dst_ok)
            if chunk == 0:
                # The next word access faults; route through the memory system
                # so the exception carries an accurate faulting address.
                if src_ok == 0:
                    self.memory.read_u64(rsi, rip=rip)
                else:
                    self.memory.write_u64(rdi, 0, rip=rip)
                raise AssertionError("unreachable: fault expected")  # pragma: no cover
            for i in range(chunk):
                value = self.memory.read_u64(rsi + 8 * i, rip=rip)
                self.memory.write_u64(rdi + 8 * i, value, rip=rip)
            copied += chunk
            regs.write_index(_RSI, (rsi + 8 * chunk) & MASK64)
            regs.write_index(_RDI, (rdi + 8 * chunk) & MASK64)
            regs.write_index(_RCX, count - copied)
            # Each copied word retires one extra "iteration instruction" on
            # top of the rep_movs itself, so a corrupted rcx stretches both
            # the RT counter and the dynamic path (Fig. 5a behaviour).
            self.pmu.count_block(chunk, 0, chunk, chunk)
            self.tracer.record_bulk(rip, chunk)
            self.tsc += self.tsc_per_instruction * chunk

    def _words_until_fault(self, address: int, *, write: bool) -> int:
        """How many consecutive 8-byte words starting at ``address`` are safe."""
        if not is_canonical(address):
            return 0
        region = self.memory.region_at(address)
        if region is None:
            return 0
        if (write and not region.writable) or (not write and not region.readable):
            return 0
        return max(0, (region.end - address) // 8)

    def _op_rdtsc(self, instr: Instr) -> None:
        self.regs.write_index(_RAX, self.tsc & 0xFFFFFFFF)
        self.regs.write_index(_RDX, (self.tsc >> 32) & 0xFFFFFFFF)

    def _op_cpuid(self, instr: Instr) -> None:
        leaf = self.regs.read_index(_RAX)
        eax, ebx, ecx, edx = self.cpuid_table.get(leaf & 0xFFFFFFFF, (0, 0, 0, 0))
        self.regs.write_index(_RAX, eax)
        self.regs.write_index(_RBX, ebx)
        self.regs.write_index(_RCX, ecx)
        self.regs.write_index(_RDX, edx)

    def _op_assert_range(self, instr: Instr) -> None:
        self._assert_checks += 1
        value = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        if not instr.lo <= value <= instr.hi:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                value,
                detail=f"expected [{instr.lo}, {instr.hi}]",
            )

    def _op_assert_eq(self, instr: Instr) -> None:
        self._assert_checks += 1
        value = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        if value != instr.lo:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                value,
                detail=f"expected {instr.lo:#x}",
            )

    def _op_assert_eq_reg(self, instr: Instr) -> None:
        self._assert_checks += 1
        a = self.regs.read_index(instr.dst.index)  # type: ignore[union-attr]
        b = self.regs.read_index(instr.src.index)  # type: ignore[union-attr]
        if a != b:
            raise AssertionViolation(
                instr.assert_id or "<anon>",
                self.regs.read_index(_RIP),
                a,
                detail=f"redundant copies differ: {a:#x} != {b:#x}",
            )

    def _op_nop(self, instr: Instr) -> None:
        return None


_BRANCH_OPS = frozenset({Op.JMP, Op.JCC, Op.CALL, Op.RET})
