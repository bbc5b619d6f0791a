"""Tests for the static analysis package (``repro.static``).

Covers the stride-interval domain, the abstract interpreter's
footprints (including counted-loop induction), the lockset analysis
over the cmpxchg idioms, the sharing predictor, the rewrite verifier
and its gate inside LASERREPAIR, and the static-vs-dynamic recall
acceptance bar.
"""

import pytest

from repro.core.detect.linemodel import SharingType
from repro.core.detect.report import ContentionClass
from repro.core.repair.analysis import analyze_thread
from repro.core.repair.manager import LaserRepair
from repro.core.repair.rewrite import rewrite_thread
from repro.experiments.static_cmp import run_static_cmp
from repro.isa.assembler import Assembler
from repro.isa.instructions import Instruction, Opcode, imm, reg
from repro.isa.program import Program, SourceLocation, ThreadCode
from repro.sim.locks import (
    emit_lock_release,
    emit_naive_lock_acquire,
    emit_ttas_lock_acquire,
)
from repro.static.absint import analyze_thread_values, thread_entry_registers
from repro.static.interval import StrideInterval
from repro.static.lockset import analyze_locksets, collect_lock_addresses
from repro.static.predict import predict_program
from repro.static.verify import verify_rewrite
from repro.workloads.registry import get_workload

from helpers import make_counter_program


# ----------------------------------------------------------------------
# Stride intervals
# ----------------------------------------------------------------------

class TestStrideInterval:
    def test_const_is_singleton(self):
        c = StrideInterval.const(7)
        assert c.is_const and c.stride == 0 and c.span == 0

    def test_join_of_strided_points_recovers_stride(self):
        joined = StrideInterval.const(0x100).join(StrideInterval.const(0x140))
        assert joined == StrideInterval(0x100, 0x140, 0x40)

    def test_join_keeps_gcd_stride(self):
        a = StrideInterval(0, 64, 8)
        b = StrideInterval(4, 100, 12)
        joined = a.join(b)
        assert joined.lo == 0 and joined.stride == 4

    def test_widen_drops_moved_bound_only(self):
        old = StrideInterval(0, 10, 1)
        widened = old.widen(StrideInterval(0, 20, 1))
        assert widened.lo == 0 and widened.hi is None

    def test_meet_range_keeps_known_bound_against_unbounded(self):
        half = StrideInterval(None, 100, 1)
        met = half.meet_range(10, None)
        assert met == StrideInterval(10, 100, 1)

    def test_meet_range_empty_is_none(self):
        assert StrideInterval(0, 5, 1).meet_range(6, None) is None

    def test_meet_range_snaps_to_stride_grid(self):
        grid = StrideInterval(0, 64, 8)
        met = grid.meet_range(3, None)
        assert met.lo == 8 and met.stride == 8

    def test_mul_by_constant_scales_stride(self):
        scaled = StrideInterval(0, 10, 1).mul(StrideInterval.const(8))
        assert scaled == StrideInterval(0, 80, 8)

    def test_overlap_disjoint_ranges(self):
        a = StrideInterval(0x100, 0x100, 0)
        b = StrideInterval(0x200, 0x200, 0)
        assert not a.may_overlap(8, b, 8)

    def test_overlap_adjacent_but_touching(self):
        a = StrideInterval.const(0x100)
        b = StrideInterval.const(0x107)
        assert a.may_overlap(8, b, 8)

    def test_stride_residue_disjointness(self):
        # Interleaved AoS fields: {0, 16, 32...} vs {8, 24, 40...} with
        # 8-byte accesses never collide despite interleaved ranges.
        a = StrideInterval(0x1000, 0x1100, 16)
        b = StrideInterval(0x1008, 0x1108, 16)
        assert not a.may_overlap(8, b, 8)
        # ...but 9-byte accesses from the first would reach the second.
        assert a.may_overlap(9, b, 8)

    def test_unbounded_overlaps_conservatively(self):
        assert StrideInterval.top().may_overlap(8, StrideInterval.const(0), 8)


# ----------------------------------------------------------------------
# Abstract interpretation / footprints
# ----------------------------------------------------------------------

class TestAbsint:
    def test_counter_thread_footprints_are_exact(self):
        program = make_counter_program(num_threads=2)
        values = analyze_thread_values(program.threads[1])
        stores = [fp for fp in values.footprints if fp.is_store]
        assert stores, "counter thread has a store"
        for fp in stores:
            assert fp.addr == StrideInterval.const(0x10000040 + 8)

    def test_counted_loop_pointer_bump_stays_bounded(self):
        asm = Assembler("w")
        asm.mov("r1", 0x20000)
        asm.mov("r0", 100)
        asm.label("loop")
        asm.store("r1", 1, size=8)
        asm.add("r1", "r1", 16)
        asm.sub("r0", "r0", 1)
        asm.bne("r0", 0, "loop")
        asm.halt()
        values = analyze_thread_values(asm.build())
        store = next(fp for fp in values.footprints if fp.is_store)
        assert store.bounded
        assert store.addr.lo == 0x20000
        assert store.addr.stride == 16
        assert store.addr.hi == 0x20000 + 100 * 16

    def test_countup_loop_with_header_exit_test(self):
        asm = Assembler("w")
        asm.mov("r0", 0)
        asm.label("loop")
        asm.bge("r0", 50, "done")
        asm.store("r0", 1, size=8, offset=0x30000)
        asm.add("r0", "r0", 1)
        asm.jmp("loop")
        asm.label("done")
        asm.halt()
        values = analyze_thread_values(asm.build())
        store = next(fp for fp in values.footprints if fp.is_store)
        assert store.bounded
        assert store.addr.lo == 0x30000
        assert store.addr.hi <= 0x30000 + 50

    def test_uncounted_loop_footprint_is_unbounded_not_divergent(self):
        # The pointer is bumped by a *register* each iteration: not the
        # counted-loop idiom, so no induction hull applies — classic
        # widening must both terminate and report the loss honestly.
        asm = Assembler("w")
        asm.mov("r1", 0x40000)
        asm.mov("r2", 8)
        asm.mov("r0", 10)
        asm.label("loop")
        asm.store("r1", 1, size=8)
        asm.add("r1", "r1", "r2")
        asm.sub("r0", "r0", 1)
        asm.bne("r0", 0, "loop")
        asm.halt()
        values = analyze_thread_values(asm.build())
        store = next(fp for fp in values.footprints if fp.is_store)
        assert not store.bounded
        assert store in values.unbounded_footprints

    def test_entry_registers_distinguish_threads(self):
        entry0 = thread_entry_registers(0)
        entry1 = thread_entry_registers(1)
        assert entry0[14] == StrideInterval.const(0)
        assert entry1[14] == StrideInterval.const(1)
        assert entry0[15] != entry1[15]


# ----------------------------------------------------------------------
# Locksets
# ----------------------------------------------------------------------

def _locked_counter_code(lock_addr: int, counter_addr: int, ttas: bool):
    asm = Assembler("locked")
    asm.mov("r1", lock_addr)
    asm.mov("r2", counter_addr)
    asm.mov("r0", 10)
    asm.label("loop")
    if ttas:
        emit_ttas_lock_acquire(asm, "r1", "t")
    else:
        emit_naive_lock_acquire(asm, "r1", "n")
    asm.addm("r2", 1, size=8)
    emit_lock_release(asm, "r1")
    asm.sub("r0", "r0", 1)
    asm.bne("r0", 0, "loop")
    asm.halt()
    return asm.build()


class TestLocksets:
    @pytest.mark.parametrize("ttas", [False, True])
    def test_lock_held_across_critical_section(self, ttas):
        lock_addr, counter_addr = 0x50000, 0x50040
        code = _locked_counter_code(lock_addr, counter_addr, ttas)
        values = analyze_thread_values(code)
        locks = collect_lock_addresses(values)
        assert locks == {lock_addr}
        locksets = analyze_locksets(values, frozenset(locks))
        instructions = code.instructions
        addm = next(i for i, inst in enumerate(instructions)
                    if inst.op is Opcode.ADDM)
        assert locksets.held_at(addm) == frozenset({lock_addr})

    def test_lock_released_by_store(self):
        lock_addr = 0x50000
        code = _locked_counter_code(lock_addr, 0x50040, ttas=False)
        values = analyze_thread_values(code)
        locksets = analyze_locksets(values, frozenset({lock_addr}))
        instructions = code.instructions
        release = next(i for i, inst in enumerate(instructions)
                       if inst.op is Opcode.STORE)
        # Held right *at* the release; gone at the loop test after it.
        assert locksets.held_at(release) == frozenset({lock_addr})
        assert locksets.held_at(release + 1) == frozenset()

    def test_cmpxchg_without_success_test_acquires_nothing(self):
        asm = Assembler("w")
        asm.mov("r1", 0x50000)
        asm.cmpxchg("r2", "r1", 0, 1, size=8)
        asm.addm("r1", 1, size=8, offset=64)
        asm.halt()
        code = asm.build()
        values = analyze_thread_values(code)
        locksets = analyze_locksets(values, frozenset({0x50000}))
        assert locksets.held_at(2) == frozenset()


# ----------------------------------------------------------------------
# Sharing prediction
# ----------------------------------------------------------------------

class TestPredictor:
    def test_counter_program_predicted_false_sharing(self):
        report = predict_program(make_counter_program())
        loc = SourceLocation("counter.c", 14)
        row = report.line_for(loc)
        assert row is not None
        assert row.contention_class is ContentionClass.FALSE_SHARING
        assert row in report.false_sharing_lines()

    def test_true_sharing_when_threads_hit_same_word(self):
        report = predict_program(make_counter_program(stride=0))
        row = report.line_for(SourceLocation("counter.c", 14))
        assert row is not None
        assert row.contention_class is ContentionClass.TRUE_SHARING

    def test_private_counters_predict_nothing(self):
        # Distinct cache lines per thread: no cross-thread pairs at all.
        report = predict_program(make_counter_program(stride=64))
        assert report.lines == []
        assert report.flagged_cache_lines() == set()

    def test_lock_protected_pairs_marked_synchronized(self):
        lock_addr, counter_addr = 0x50000, 0x50040
        program = Program("locked", [
            _locked_counter_code(lock_addr, counter_addr, ttas=False)
            for _ in range(2)
        ])
        report = predict_program(program)
        counter_line = counter_addr // 64
        pred = report.line_predictions.get(counter_line)
        assert pred is not None
        assert pred.ts_pairs > 0
        assert pred.lock_protected

    @pytest.mark.static
    def test_workload_prediction_flags_the_documented_bug_line(self):
        workload = get_workload("linear_regression")
        built = workload.build(heap_offset=64, seed=0)
        report = predict_program(built.program)
        predicted = set(report.predicted_locations())
        assert any(
            bug.covers(loc) for bug in workload.bugs for loc in predicted
        )


# ----------------------------------------------------------------------
# Rewrite verification
# ----------------------------------------------------------------------

def _planned_rewrite(program, thread=0):
    pcs = {
        inst.pc
        for code in program.threads
        for inst in code.instructions
        if inst.op in (Opcode.LOAD, Opcode.STORE, Opcode.ADDM)
    }
    code = program.threads[thread]
    analysis = analyze_thread(code, pcs)
    new_code, index_map = rewrite_thread(code, analysis)
    return code, analysis, new_code, index_map


def _flush_discipline_violations(instructions):
    """Run obligation 1 alone over a hand-built instruction list."""
    from repro.static.verify import _check_flush_discipline

    for pc, inst in enumerate(instructions):
        inst.pc = pc
    violations = []
    _check_flush_discipline(ThreadCode("ob1", instructions, {}), violations)
    return violations


def _with_nop_at(new_code, position):
    instructions = list(new_code.instructions)
    old = instructions[position]
    nop = Instruction(Opcode.NOP, loc=old.loc, region=old.region)
    nop.pc = old.pc
    instructions[position] = nop
    return ThreadCode(new_code.name, instructions, dict(new_code.labels))


class TestVerifier:
    def test_real_rewrite_verifies_clean(self):
        code, analysis, new_code, index_map = _planned_rewrite(
            make_counter_program())
        result = verify_rewrite(code, analysis, new_code, index_map, thread=0)
        assert result.ok, result.summary()

    def test_removed_flush_is_rejected(self):
        code, analysis, new_code, index_map = _planned_rewrite(
            make_counter_program())
        flush = next(i for i, inst in enumerate(new_code.instructions)
                     if inst.op is Opcode.SSB_FLUSH)
        bad = _with_nop_at(new_code, flush)
        result = verify_rewrite(code, analysis, bad, index_map, thread=0)
        assert not result.ok
        # The dirty buffer drains at HALT (a runtime ordering point), so
        # the missing flush surfaces as a confinement violation: the
        # analysis said "flush here" and the rewrite has none.
        assert any(v.kind == "confinement" for v in result.violations)

    def test_direct_store_while_dirty_breaks_tso(self):
        # A plain STORE with buffered bytes still in the SSB becomes
        # globally visible before the older buffered stores —
        # store-store reordering, the one hazard obligation 1 exists
        # to catch.
        violations = _flush_discipline_violations([
            Instruction(Opcode.MOV, rd=1, a=imm(0x10000)),
            Instruction(Opcode.SSB_STORE, a=reg(1), b=imm(1), size=8),
            Instruction(Opcode.STORE, a=reg(1), b=imm(2), offset=64, size=8),
            Instruction(Opcode.HALT),
        ])
        assert len(violations) == 1
        assert violations[0].kind == "tso-flush"
        assert "store-store reordering" in violations[0].message

    def test_flush_before_direct_store_is_clean(self):
        violations = _flush_discipline_violations([
            Instruction(Opcode.MOV, rd=1, a=imm(0x10000)),
            Instruction(Opcode.SSB_STORE, a=reg(1), b=imm(1), size=8),
            Instruction(Opcode.SSB_FLUSH),
            Instruction(Opcode.STORE, a=reg(1), b=imm(2), offset=64, size=8),
            Instruction(Opcode.HALT),
        ])
        assert violations == []

    def test_halt_drains_straight_line_code_without_a_flush(self):
        # The message-passing litmus shape: the rewriter plans *no*
        # flushes for straight-line code and relies on the runtime
        # drain at HALT (thread exit is a synchronization point).
        violations = _flush_discipline_violations([
            Instruction(Opcode.MOV, rd=1, a=imm(0x10000)),
            Instruction(Opcode.SSB_STORE, a=reg(1), b=imm(42), size=8),
            Instruction(Opcode.MOV, rd=2, a=imm(0x10100)),
            Instruction(Opcode.SSB_STORE, a=reg(2), b=imm(1), size=8),
            Instruction(Opcode.HALT),
        ])
        assert violations == []

    def test_falling_off_the_end_dirty_is_flagged(self):
        violations = _flush_discipline_violations([
            Instruction(Opcode.MOV, rd=1, a=imm(0x10000)),
            Instruction(Opcode.SSB_STORE, a=reg(1), b=imm(1), size=8),
        ])
        assert len(violations) == 1
        assert violations[0].kind == "tso-flush"
        assert "falls off the end" in violations[0].message

    def test_uninstrumented_region_store_is_rejected(self):
        code, analysis, new_code, index_map = _planned_rewrite(
            make_counter_program())
        ssb_store = next(i for i, inst in enumerate(new_code.instructions)
                         if inst.op is Opcode.SSB_STORE)
        instructions = list(new_code.instructions)
        original = instructions[ssb_store]
        raw = Instruction(Opcode.STORE, a=original.a, b=original.b,
                          offset=original.offset, size=original.size,
                          loc=original.loc, region=original.region)
        raw.pc = original.pc
        instructions[ssb_store] = raw
        bad = ThreadCode(new_code.name, instructions, dict(new_code.labels))
        result = verify_rewrite(code, analysis, bad, index_map, thread=0)
        assert not result.ok
        assert any(v.kind == "confinement" for v in result.violations)

    def test_stray_flush_outside_plan_is_rejected(self):
        code, analysis, new_code, index_map = _planned_rewrite(
            make_counter_program())
        instructions = list(new_code.instructions)
        stray = Instruction(Opcode.SSB_FLUSH, region="app")
        stray.pc = instructions[0].pc
        # Replacing the first MOV keeps every index/target valid.
        instructions[0] = stray
        bad = ThreadCode(new_code.name, instructions, dict(new_code.labels))
        result = verify_rewrite(code, analysis, bad, index_map, thread=0)
        assert not result.ok
        assert any(v.kind == "confinement" for v in result.violations)

    def test_manager_gate_rejects_corrupted_rewrites(self, monkeypatch):
        import repro.core.repair.manager as manager_module

        def sabotage(code, analysis):
            new_code, index_map = rewrite_thread(code, analysis)
            flush = next(i for i, inst in enumerate(new_code.instructions)
                         if inst.op is Opcode.SSB_FLUSH)
            return _with_nop_at(new_code, flush), index_map

        monkeypatch.setattr(manager_module, "rewrite_thread", sabotage)
        program = make_counter_program()
        pcs = {
            inst.pc for code in program.threads
            for inst in code.instructions
            if inst.op in (Opcode.LOAD, Opcode.STORE, Opcode.ADDM)
        }
        repairer = LaserRepair()
        plan = repairer.plan(program, pcs)
        assert not plan.profitable
        assert plan.verifier_rejected
        assert "verification failed" in plan.rejected_reason
        assert repairer.plans_verifier_rejected == 1
        assert repairer.plans_rejected == 1

    def test_manager_gate_passes_real_plans(self):
        program = make_counter_program()
        pcs = {
            inst.pc for code in program.threads
            for inst in code.instructions
            if inst.op in (Opcode.LOAD, Opcode.STORE, Opcode.ADDM)
        }
        repairer = LaserRepair()
        plan = repairer.plan(program, pcs)
        assert plan.profitable
        assert plan.verifier_results
        assert all(v.ok for v in plan.verifier_results.values())
        assert repairer.plans_verifier_rejected == 0


# ----------------------------------------------------------------------
# Static vs. dynamic (the acceptance bar)
# ----------------------------------------------------------------------

@pytest.mark.static
class TestStaticVsDynamic:
    def test_fs_recall_is_total_on_clean_fs_workloads(self):
        result = run_static_cmp(workloads=[
            get_workload("linear_regression"),
            get_workload("reverse_index"),
            get_workload("word_count"),
        ])
        for row in result.rows:
            assert row.dynamic_fs, "dynamic run must observe FS for %s" % row.name
            assert row.fs_recall == 1.0, (
                "%s: static prediction missed dynamic FS lines %r"
                % (row.name, row.missed_fs_lines))

    def test_dynamic_line_counters_populated(self):
        result = run_static_cmp(workloads=[get_workload("linear_regression")])
        row = result.rows[0]
        assert row.dynamic_fs
        assert row.static_flagged
        assert row.precision is not None


class TestLineModelCounters:
    def test_per_line_counters_follow_classification(self):
        from repro.core.detect.linemodel import CacheLineModel

        model = CacheLineModel()
        base = 0x1000  # line 0x40
        assert model.observe(base, 8, True) is SharingType.NONE
        assert model.observe(base + 8, 8, True) is SharingType.FALSE_SHARING
        assert model.observe(base + 8, 8, True) is SharingType.TRUE_SHARING
        assert model.line_events(base // 64) == (1, 1)
        assert model.contended_lines() == {base // 64: (1, 1)}
        assert model.contended_lines(SharingType.FALSE_SHARING) == {
            base // 64: (1, 1)}
        assert model.contended_lines(
            SharingType.FALSE_SHARING, min_events=2) == {}
