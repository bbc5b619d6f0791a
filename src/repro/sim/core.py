"""Per-core interpreter.

Each simulated core executes one thread's instruction stream.  Memory
operations are routed through the machine (which applies the coherence
protocol, charges latency and notifies the PMU).  The SSB pseudo-ops
injected by LASERREPAIR are interpreted here against the core's attached
software store buffer.

Register conventions used by the workloads:

* ``r14`` — thread id (set before the program starts),
* ``r15`` — a pointer into the thread's private stack region.
"""

import enum
from typing import List

from repro._constants import (
    ALIAS_CHECK_LATENCY,
    ALU_LATENCY,
    ATOMIC_EXTRA_LATENCY,
    FENCE_LATENCY,
    PAUSE_LATENCY,
    PIN_TAX_LATENCY,
    SSB_LOAD_LATENCY,
    SSB_STORE_LATENCY,
)
from repro.errors import SimulationError
from repro.isa.instructions import NUM_REGISTERS, Instruction, Opcode

__all__ = ["Core", "CoreState", "CoreStats"]

WORD_MASK = 0xFFFFFFFFFFFFFFFF


class CoreState(enum.Enum):
    RUNNING = "running"
    HALTED = "halted"


class CoreStats:
    """Execution counters for one core."""

    __slots__ = ("instructions", "busy_cycles", "pmu_stall_cycles",
                 "ssb_flushes")

    def __init__(self):
        self.instructions = 0
        self.busy_cycles = 0
        #: Stall cycles the machine's PMU/profiler hooks charged here.
        self.pmu_stall_cycles = 0
        self.ssb_flushes = 0


class Core:
    """One simulated core running one thread."""

    def __init__(self, core_id: int, machine, instructions: List[Instruction]):
        self.core_id = core_id
        self.machine = machine
        self.instructions = instructions
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.pc_index = 0
        self.state = CoreState.RUNNING
        self.stats = CoreStats()
        #: Attached software store buffer (set by LASERREPAIR's runtime).
        self.ssb = None
        #: Compiled trace of the current instruction stream for the
        #: trace engine; built lazily by the machine, dropped whenever
        #: the stream is swapped.
        self._trace = None

    # ------------------------------------------------------------------
    # Dynamic rewriting support (the Pin attach analog)
    # ------------------------------------------------------------------

    def replace_code(self, instructions: List[Instruction], index_map) -> None:
        """Swap this core's instruction stream mid-run.

        ``index_map`` maps old instruction indices to their positions in
        the new stream; the core's program counter is translated through
        it, so the attach can happen at any instruction boundary —
        exactly how a dynamic binary instrumentation framework redirects
        a running thread into its code cache.
        """
        if self.state is CoreState.RUNNING:
            if self.pc_index not in index_map:
                raise SimulationError(
                    "cannot remap pc %d on core %d" % (self.pc_index, self.core_id)
                )
            self.pc_index = index_map[self.pc_index]
        self.instructions = instructions
        self._trace = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction; returns its latency in cycles."""
        if self.state is not CoreState.RUNNING:
            raise SimulationError("step() on halted core %d" % self.core_id)
        try:
            inst = self.instructions[self.pc_index]
        except IndexError:
            raise SimulationError(
                "core %d ran past its last instruction: pc %d of %d"
                % (self.core_id, self.pc_index, len(self.instructions))
            ) from None
        self.stats.instructions += 1
        latency = self._execute(inst)
        if self.ssb is not None:
            # This thread runs inside the DBI framework's code cache.
            latency += PIN_TAX_LATENCY
        self.stats.busy_cycles += latency
        return latency

    def _execute(self, inst: Instruction) -> int:
        op = inst.op
        regs = self.registers
        next_pc = self.pc_index + 1

        if op is Opcode.LOAD:
            addr = inst.a.value_of(regs) + inst.offset
            value, latency = self.machine.mem_read(self, inst, addr, inst.size)
            regs[inst.rd] = value
        elif op is Opcode.STORE:
            addr = inst.a.value_of(regs) + inst.offset
            value = inst.b.value_of(regs)
            latency = self.machine.mem_write(self, inst, addr, value, inst.size)
        elif op is Opcode.MOV:
            regs[inst.rd] = inst.a.value_of(regs) & WORD_MASK
            latency = ALU_LATENCY
        elif op in _ALU_FUNCS:
            a = inst.a.value_of(regs)
            b = inst.b.value_of(regs)
            regs[inst.rd] = _ALU_FUNCS[op](a, b) & WORD_MASK
            latency = ALU_LATENCY
        elif op is Opcode.BEQ or op is Opcode.BNE or op is Opcode.BLT or op is Opcode.BGE:
            a = inst.a.value_of(regs)
            b = inst.b.value_of(regs)
            taken = (
                (op is Opcode.BEQ and a == b)
                or (op is Opcode.BNE and a != b)
                or (op is Opcode.BLT and a < b)
                or (op is Opcode.BGE and a >= b)
            )
            if taken:
                next_pc = inst.target
            latency = ALU_LATENCY
        elif op is Opcode.JMP:
            next_pc = inst.target
            latency = ALU_LATENCY
        elif op is Opcode.ADDM:
            # Non-atomic memory-destination add: a plain load + store pair
            # at one PC (no fence semantics, unlike the locked RMWs).
            addr = inst.a.value_of(regs) + inst.offset
            old, lat_read = self.machine.mem_read(self, inst, addr, inst.size)
            new = (old + inst.b.value_of(regs)) & WORD_MASK
            lat_write = self.machine.mem_write(self, inst, addr, new, inst.size)
            latency = lat_read + lat_write + ALU_LATENCY
        elif op is Opcode.SSB_ADDM:
            addr = inst.a.value_of(regs) + inst.offset
            old, mem_latency = self.ssb.load_through(self, inst, addr, inst.size)
            new = (old + inst.b.value_of(regs)) & WORD_MASK
            self.ssb.put(addr, new, inst.size)
            latency = (SSB_LOAD_LATENCY + SSB_STORE_LATENCY + mem_latency
                       + ALU_LATENCY)
            if self.ssb.should_preflush():
                latency += self.ssb.flush(self.core_id)
                self.stats.ssb_flushes += 1
        elif op is Opcode.CMPXCHG:
            latency = self._exec_cmpxchg(inst)
        elif op is Opcode.XADD:
            latency = self._exec_xadd(inst)
        elif op is Opcode.FENCE:
            latency = FENCE_LATENCY + self._drain_ssb_if_active()
            latency += self.machine.fence_extra(self)
        elif op is Opcode.PAUSE:
            latency = PAUSE_LATENCY
        elif op is Opcode.NOP:
            latency = ALU_LATENCY
        elif op is Opcode.HALT:
            # Thread exit is a synchronization point (pthread_exit).
            latency = ALU_LATENCY + self._drain_ssb_if_active()
            latency += self.machine.fence_extra(self)
            self.state = CoreState.HALTED
        elif op is Opcode.SSB_STORE:
            addr = inst.a.value_of(regs) + inst.offset
            value = inst.b.value_of(regs)
            self.ssb.put(addr, value, inst.size)
            latency = SSB_STORE_LATENCY
            if self.ssb.should_preflush():
                latency += self.ssb.flush(self.core_id)
                self.stats.ssb_flushes += 1
        elif op is Opcode.SSB_LOAD:
            addr = inst.a.value_of(regs) + inst.offset
            value, mem_latency = self.ssb.load_through(
                self, inst, addr, inst.size
            )
            regs[inst.rd] = value
            latency = SSB_LOAD_LATENCY + mem_latency
        elif op is Opcode.SSB_FLUSH:
            latency = self.ssb.flush(self.core_id)
            self.stats.ssb_flushes += 1
        elif op is Opcode.ALIAS_CHECK:
            addr = inst.a.value_of(regs) + inst.offset
            latency = ALIAS_CHECK_LATENCY
            if self.ssb is not None and self.ssb.may_alias(addr, inst.size):
                latency += self.ssb.flush(self.core_id)
        else:  # pragma: no cover - all opcodes handled above
            raise SimulationError("unknown opcode %r" % op)

        self.pc_index = next_pc
        return latency

    def _exec_cmpxchg(self, inst: Instruction) -> int:
        """lock cmpxchg: rd <- old; write desired if old == expected."""
        regs = self.registers
        addr = inst.a.value_of(regs) + inst.offset
        expected = inst.b.value_of(regs)
        desired = inst.c.value_of(regs)
        drain = self._drain_ssb_if_active() + self.machine.fence_extra(self)
        old, latency = self.machine.mem_read(self, inst, addr, inst.size)
        if old == expected:
            latency += self.machine.mem_write(self, inst, addr, desired, inst.size)
        regs[inst.rd] = old
        return latency + ATOMIC_EXTRA_LATENCY + drain

    def _exec_xadd(self, inst: Instruction) -> int:
        """lock xadd: rd <- old; memory <- old + src."""
        regs = self.registers
        addr = inst.a.value_of(regs) + inst.offset
        increment = inst.b.value_of(regs)
        drain = self._drain_ssb_if_active() + self.machine.fence_extra(self)
        old, latency = self.machine.mem_read(self, inst, addr, inst.size)
        latency += self.machine.mem_write(
            self, inst, addr, (old + increment) & WORD_MASK, inst.size
        )
        regs[inst.rd] = old
        return latency + ATOMIC_EXTRA_LATENCY + drain

    def _drain_ssb_if_active(self) -> int:
        """Fences (and fence-like atomics) must flush the SSB (Section 5.4)."""
        if self.ssb is not None and not self.ssb.empty():
            self.stats.ssb_flushes += 1
            return self.ssb.flush(self.core_id)
        return 0

    def __repr__(self):
        return "<Core %d %s pc=%d>" % (self.core_id, self.state.value, self.pc_index)


def _div(a: int, b: int) -> int:
    if b == 0:
        raise SimulationError("division by zero")
    return a // b


_ALU_FUNCS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _div,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & 63),
    Opcode.SHR: lambda a, b: a >> (b & 63),
}
