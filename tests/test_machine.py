"""Tests for the interpreter and the machine event loop."""

import pytest

from repro.errors import SimulationError
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.sim.core import CoreStats
from repro.sim.locks import (
    emit_barrier_wait,
    emit_lock_release,
    emit_naive_lock_acquire,
    emit_ttas_lock_acquire,
)
from repro.sim.machine import Machine

from helpers import make_counter_program


def single_thread(builder):
    asm = Assembler()
    builder(asm)
    asm.halt()
    return Program("t", [asm.build()])


def run_single(builder, seed=0):
    machine = Machine(single_thread(builder), seed=seed, jitter=False)
    result = machine.run()
    return machine, result


class TestAluSemantics:
    def test_arithmetic(self):
        def body(asm):
            asm.mov("r0", 6)
            asm.mul("r1", "r0", 7)
            asm.sub("r2", "r1", 2)
            asm.div("r3", "r2", 4)
            asm.and_("r4", "r1", 0xF)
            asm.or_("r5", "r4", 0x30)
            asm.xor("r6", "r5", 0xFF)
            asm.shl("r7", "r0", 2)
            asm.shr("r8", "r7", 1)

        machine, _ = run_single(body)
        regs = machine.cores[0].registers
        assert regs[1] == 42
        assert regs[2] == 40
        assert regs[3] == 10
        assert regs[4] == 42 & 0xF
        assert regs[5] == (42 & 0xF) | 0x30
        assert regs[7] == 24 and regs[8] == 12

    def test_sixty_four_bit_wraparound(self):
        def body(asm):
            asm.mov("r0", 0)
            asm.sub("r0", "r0", 1)

        machine, _ = run_single(body)
        assert machine.cores[0].registers[0] == (1 << 64) - 1

    def test_division_by_zero_raises(self):
        def body(asm):
            asm.div("r0", 1, 0)

        with pytest.raises(SimulationError):
            run_single(body)


class TestControlFlow:
    def test_loop_executes_expected_iterations(self):
        def body(asm):
            asm.mov("r0", 5)
            asm.label("loop")
            asm.add("r1", "r1", 10)
            asm.sub("r0", "r0", 1)
            asm.bne("r0", 0, "loop")

        machine, _ = run_single(body)
        assert machine.cores[0].registers[1] == 50

    def test_branch_kinds(self):
        def body(asm):
            asm.mov("r0", 3)
            asm.blt("r0", 5, "lt_taken")
            asm.mov("r9", 111)  # skipped
            asm.label("lt_taken")
            asm.bge("r0", 3, "ge_taken")
            asm.mov("r9", 222)  # skipped
            asm.label("ge_taken")
            asm.beq("r0", 3, "eq_taken")
            asm.mov("r9", 333)  # skipped
            asm.label("eq_taken")
            asm.mov("r8", 1)

        machine, _ = run_single(body)
        assert machine.cores[0].registers[9] == 0
        assert machine.cores[0].registers[8] == 1


class TestMemoryOps:
    def test_store_load_roundtrip(self):
        def body(asm):
            asm.mov("r1", 0x10000000)
            asm.store("r1", 0xBEEF, size=4)
            asm.load("r2", "r1", size=4)

        machine, _ = run_single(body)
        assert machine.cores[0].registers[2] == 0xBEEF

    def test_addm_semantics(self):
        def body(asm):
            asm.mov("r1", 0x10000000)
            asm.store("r1", 40, size=8)
            asm.addm("r1", 2, size=8)

        machine, _ = run_single(body)
        assert machine.memory.read(0x10000000, 8) == 42

    def test_cmpxchg_success_and_failure(self):
        def body(asm):
            asm.mov("r1", 0x10000000)
            asm.cmpxchg("r2", "r1", 0, 7, size=8)   # succeeds: 0 -> 7
            asm.cmpxchg("r3", "r1", 0, 9, size=8)   # fails: value is 7

        machine, _ = run_single(body)
        assert machine.cores[0].registers[2] == 0
        assert machine.cores[0].registers[3] == 7
        assert machine.memory.read(0x10000000, 8) == 7

    def test_xadd_returns_old_value(self):
        def body(asm):
            asm.mov("r1", 0x10000000)
            asm.store("r1", 10, size=8)
            asm.xadd("r2", "r1", 5, size=8)

        machine, _ = run_single(body)
        assert machine.cores[0].registers[2] == 10
        assert machine.memory.read(0x10000000, 8) == 15


class TestMachineLoop:
    def test_register_conventions(self):
        program = make_counter_program(num_threads=3, iters=2)
        machine = Machine(program)
        for tid in range(3):
            assert machine.cores[tid].registers[14] == tid
        machine.run()

    def test_final_counter_values_are_exact(self):
        program = make_counter_program(num_threads=4, iters=100, stride=8)
        machine = Machine(program, seed=3)
        machine.run()
        for tid in range(4):
            assert machine.memory.read(0x10000040 + 8 * tid, 8) == 100

    def test_deterministic_given_seed(self):
        results = [
            Machine(make_counter_program(iters=60), seed=5).run().cycles
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_different_seeds_vary_interleaving(self):
        cycles = {
            Machine(make_counter_program(iters=60), seed=s).run().cycles
            for s in range(4)
        }
        assert len(cycles) > 1

    def test_resumable_run_matches_single_shot(self):
        program = make_counter_program(iters=80)
        one_shot = Machine(program, seed=2).run()
        program2 = make_counter_program(iters=80)
        machine = Machine(program2, seed=2)
        result = machine.run(until_cycle=5_000)
        assert not result.finished
        result = machine.run()
        assert result.finished
        assert result.cycles == one_shot.cycles

    def test_livelock_guard_raises(self):
        asm = Assembler()
        asm.label("spin")
        asm.jmp("spin")
        with pytest.raises(SimulationError):
            Machine(Program("spin", [asm.build()])).run(max_cycles=5_000)

    @pytest.mark.parametrize("engine", ["interp", "trace"])
    def test_a_raising_core_leaves_the_other_cores_queued(self, engine):
        def divider():
            asm = Assembler()
            asm.mov("r1", 0)
            asm.mov("r0", 7)
            asm.add("r0", "r0", 1)
            asm.div("r0", "r0", "r1")  # raises at cycle 3
            asm.halt()
            return asm.build()

        spin = Assembler()
        spin.label("spin")
        spin.add("r2", "r2", 1)
        spin.jmp("spin")
        for threads, ready in (([divider()], []),
                               ([divider(), spin.build()], [(3, 1)])):
            machine = Machine(Program("div0", threads), jitter=False,
                              engine=engine)
            with pytest.raises(SimulationError, match="division by zero"):
                machine.run()
            assert machine.cycle == 3
            # Like the interpreter's pop: the raising core leaves the
            # queue, every other core stays at its current time.
            assert sorted(machine._ready) == ready
            assert machine.finished is (not ready)

    @pytest.mark.parametrize("engine", ["interp", "trace"])
    def test_running_past_the_last_instruction_raises(self, engine):
        asm = Assembler()
        asm.mov("r0", 1)
        asm.add("r0", "r0", 2)  # no HALT: the next fetch is out of range
        machine = Machine(Program("no_halt", [asm.build()]), jitter=False,
                          engine=engine)
        with pytest.raises(SimulationError) as info:
            machine.run()
        assert type(info.value) is SimulationError
        assert str(info.value) == \
            "core 0 ran past its last instruction: pc 2 of 2"
        assert machine.cycle == 2
        stats = machine.cores[0].stats
        want = dict.fromkeys(CoreStats.__slots__, 0)
        want.update(instructions=2, busy_cycles=2)
        assert {slot: getattr(stats, slot)
                for slot in CoreStats.__slots__} == want

    def test_too_many_threads_rejected(self):
        threads = []
        for _ in range(5):
            asm = Assembler()
            asm.halt()
            threads.append(asm.build())
        with pytest.raises(SimulationError):
            Machine(Program("big", threads))

    def test_hitm_hook_charges_extra_cycles(self):
        program = make_counter_program(iters=100)
        baseline = Machine(program, seed=1, jitter=False).run().cycles
        program2 = make_counter_program(iters=100)
        machine = Machine(program2, seed=1, jitter=False)
        machine.on_hitm = lambda core, inst, addr, w, cyc: 500
        machine.run()
        # The stall cycles are charged (total runtime may move either
        # way: a stalled writer also acts as contention backoff).
        stalls = [core.stats.pmu_stall_cycles for core in machine.cores]
        assert sum(stalls) >= 500
        assert stalls[0] > 0

    def test_replace_code_mid_run_remaps_pc(self):
        program = make_counter_program(num_threads=1, iters=500)
        machine = Machine(program, seed=0)
        machine.run(until_cycle=300)
        core = machine.cores[0]
        old_index = core.pc_index
        # Identity rewrite: same instructions with a shifted prologue.
        asm = Assembler()
        asm.nop()
        code = program.threads[0]
        new_instructions = [asm._instructions[0]] + [
            inst.copy() for inst in code.instructions
        ]
        for inst in new_instructions[1:]:
            if inst.is_branch:
                inst.target += 1
        index_map = {i: i + 1 for i in range(len(code.instructions))}
        core.replace_code(new_instructions, index_map)
        assert core.pc_index == old_index + 1
        machine.run()
        assert machine.memory.read(0x10000040, 8) == 500


class TestLocks:
    def _locked_increment_program(self, acquire, iters=60):
        lock_addr = 0x10000000
        counter = 0x10000100
        threads = []
        for tid in range(4):
            asm = Assembler("locker_%d" % tid)
            asm.mov("r0", iters)
            asm.label("outer")
            asm.mov("r1", lock_addr)
            acquire(asm, "r1", "acq")
            # Critical section: non-atomic RMW, safe only under the lock.
            asm.mov("r2", counter)
            asm.load("r3", "r2", size=8)
            asm.add("r3", "r3", 1)
            asm.store("r2", "r3", size=8)
            asm.mov("r1", lock_addr)
            emit_lock_release(asm, "r1")
            asm.sub("r0", "r0", 1)
            asm.bne("r0", 0, "outer")
            asm.halt()
            threads.append(asm.build())
        return Program("locked", threads), counter

    def test_naive_lock_provides_mutual_exclusion(self):
        program, counter = self._locked_increment_program(
            emit_naive_lock_acquire)
        machine = Machine(program, seed=7)
        machine.run()
        assert machine.memory.read(counter, 8) == 240

    def test_ttas_lock_provides_mutual_exclusion(self):
        program, counter = self._locked_increment_program(
            emit_ttas_lock_acquire)
        machine = Machine(program, seed=9)
        machine.run()
        assert machine.memory.read(counter, 8) == 240

    def test_barrier_releases_all_threads(self):
        barrier = 0x10000000
        after = 0x10000100
        threads = []
        for tid in range(4):
            asm = Assembler("b%d" % tid)
            asm.mov("r9", barrier)
            emit_barrier_wait(asm, "r9", 4, "only")
            asm.mov("r1", after + 64 * tid)
            asm.store("r1", 1, size=8)
            asm.halt()
            threads.append(asm.build())
        machine = Machine(Program("barrier", threads), seed=1)
        machine.run()
        for tid in range(4):
            assert machine.memory.read(after + 64 * tid, 8) == 1
