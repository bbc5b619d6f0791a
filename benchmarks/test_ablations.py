"""Ablations of LASER's design choices (beyond the paper's figures).

Each ablation switches off one mechanism DESIGN.md calls out and shows
the consequence the paper argues for:

* **record filtering** (Section 4.1): without the memory-map/stack
  filters, spurious records reach the aggregator;
* **SSB preflush at L1 associativity** (Section 5.5): the HTM capacity
  fallback fires when the preflush bound is lifted;
* **speculative alias analysis** (Section 5.3): repaired code pays for
  every load when independent loads are not exempted;
* **flush placement** (Section 5.3): flushing inside the loop instead
  of at its post-dominator multiplies flush count.
"""

from repro.core.detect.pipeline import DetectionPipeline
from repro.core.laser import Laser
from repro.core.config import LaserConfig
from repro.core.repair.analysis import analyze_thread
from repro.core.repair.manager import LaserRepair
from repro.core.repair.rewrite import rewrite_thread
from repro.isa.instructions import Opcode
from repro.sim.machine import Machine
from repro.workloads.registry import get_workload


def test_ablation_record_filters(benchmark):
    """Without Section 4.1's filters the detector ingests garbage."""
    def run():
        return Laser(LaserConfig(repair_enabled=False)).run_workload(
            get_workload("linear_regression")
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.pipeline.stats
    dropped = stats.records_seen - stats.records_admitted
    print("\nfiltered records: %d of %d (%.0f%%)" % (
        dropped, stats.records_seen, 100.0 * dropped / stats.records_seen))
    # Write-heavy workloads produce plenty of spurious records; the
    # filters must be doing real work.
    assert dropped > 0
    assert stats.records_admitted > 0


def test_ablation_alias_analysis(benchmark):
    """Exempting independent loads is worth real cycles (Section 5.3)."""
    workload = get_workload("linear_regression")

    def run_with(exempt: bool):
        built = workload.build(heap_offset=64, seed=0)
        program = built.program
        pcs = {inst.pc for inst in program.all_instructions()
               if inst.op is Opcode.STORE}
        machine = Machine(program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        for tid, code in enumerate(program.threads):
            analysis = analyze_thread(code, pcs)
            if not exempt:
                # Conservative mode: every load uses the SSB.
                analysis.exempt_loads.clear()
                analysis.alias_checks.clear()
            new_code, index_map = rewrite_thread(code, analysis)
            machine.cores[tid].replace_code(new_code.instructions, index_map)
            from repro.core.repair.ssb import SoftwareStoreBuffer

            machine.cores[tid].ssb = SoftwareStoreBuffer(machine, tid)
        return machine.run().cycles

    speculative = benchmark.pedantic(
        lambda: run_with(True), rounds=1, iterations=1
    )
    conservative = run_with(False)
    print("\nspeculative alias analysis: %d cycles; conservative: %d "
          "(+%.0f%%)" % (speculative, conservative,
                         100.0 * (conservative - speculative) / speculative))
    assert conservative > speculative


def test_ablation_flush_placement(benchmark):
    """Flushing inside the loop (not at its post-dominator) is ruinous."""
    workload = get_workload("linear_regression")

    def run_with_flush_in_loop(in_loop: bool):
        built = workload.build(heap_offset=64, seed=0)
        program = built.program
        pcs = {inst.pc for inst in program.all_instructions()
               if inst.op is Opcode.STORE}
        machine = Machine(program, seed=0, allocator=built.allocator)
        built.apply_init(machine)
        from repro.core.repair.ssb import SoftwareStoreBuffer

        for tid, code in enumerate(program.threads):
            analysis = analyze_thread(code, pcs)
            if in_loop:
                # Pathological placement: flush right after the last
                # contending store, every iteration.
                store_indices = [
                    i for i in analysis.instrumented_instruction_indices()
                    if code.instructions[i].op is Opcode.STORE
                ]
                analysis.flush_before_instructions = {max(store_indices) + 1}
            new_code, index_map = rewrite_thread(code, analysis)
            machine.cores[tid].replace_code(new_code.instructions, index_map)
            machine.cores[tid].ssb = SoftwareStoreBuffer(machine, tid)
        result = machine.run()
        flushes = sum(c.stats.ssb_flushes for c in machine.cores)
        return result.cycles, flushes

    good_cycles, good_flushes = benchmark.pedantic(
        lambda: run_with_flush_in_loop(False), rounds=1, iterations=1
    )
    bad_cycles, bad_flushes = run_with_flush_in_loop(True)
    print("\npost-dominator flush: %d cycles / %d flushes; "
          "per-iteration flush: %d cycles / %d flushes" % (
              good_cycles, good_flushes, bad_cycles, bad_flushes))
    assert bad_flushes > 10 * max(1, good_flushes)
    assert bad_cycles > good_cycles


def test_ablation_preflush_capacity(benchmark):
    """Without the 8-line preflush, flushes overflow the HTM."""
    from repro.core.repair.ssb import SoftwareStoreBuffer
    from repro.isa.assembler import Assembler
    from repro.isa.program import Program

    def run_with(preflush_lines: int):
        asm = Assembler("w")
        asm.halt()
        machine = Machine(Program("host", [asm.build()]), jitter=False)
        ssb = SoftwareStoreBuffer(machine, 0, preflush_lines=preflush_lines)
        flush_cycles = 0
        for i in range(64):
            ssb.put(0x10000000 + 64 * i, i, 8)
            if ssb.should_preflush():
                flush_cycles += ssb.flush(0)
        flush_cycles += ssb.flush(0)
        return ssb.stats.htm_aborts, flush_cycles

    aborts_with, _ = benchmark.pedantic(
        lambda: run_with(8), rounds=1, iterations=1
    )
    aborts_without, _ = run_with(10 ** 9)
    print("\nHTM aborts with preflush: %d; without: %d" % (
        aborts_with, aborts_without))
    assert aborts_with == 0
    assert aborts_without >= 1
