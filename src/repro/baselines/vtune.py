"""A VTune Amplifier XE-style profiler baseline (Section 7.1/7.2).

Key modelling choices, all taken from the paper's description:

* "VTune ... configures the PEBS mechanism to raise an interrupt after
  each HITM event for improved accuracy (which has significant
  performance ramifications)": the PMU runs with SAV=1 and every HITM
  costs a per-event interrupt charged to the application.
* VTune is a general profiler, not a contention detector: alongside the
  HITM collector it samples ordinary memory events with per-sample PMIs,
  so memory-dense code slows down even with zero contention (the
  string_match 7x case).
* "VTune simply reports source code locations where HITM events arise":
  no stack-address filtering, no cache-line model, no TS/FS
  classification.  Its report is the line aggregation above a rate
  threshold, plus the memory-hot lines its general-exploration analysis
  flags — the source of its extra false positives across non-contended
  benchmarks.

The rate threshold (``HITM_THRESHOLD``) follows the paper's procedure,
not its number: "for fairness we apply a similar balanced rate
threshold ... to exclude as many VTune false positives as possible
without introducing false negatives."  Because VTune's own interrupt
overhead inflates each benchmark's runtime (deflating its measured
per-line rates), the balanced value on our simulated clock is 480
events/sec — and, exactly as in the paper, no threshold can save the
dedup queue bug, whose measured rate sits below every other bug's.
"""

from typing import List

from repro.core.detect.linemap import LineAggregator
from repro.isa.program import SourceLocation
from repro.sim.machine import Machine

__all__ = ["VTuneProfiler", "VTuneResult"]

#: Cost charged to the application for each HITM's PMI.  Expressed
#: against the compressed simulated clock (CYCLES_PER_SECOND is 1e6, so
#: HITM rates here are ~1000x denser per cycle than on the paper's
#: 3.4 GHz part; the interrupt cost is scaled to match the paper's
#: observed VTune slowdowns rather than its absolute PMI latency).
HITM_INTERRUPT_COST = 100

#: PMI cost for one general-exploration memory sample (includes the
#: sampling interrupt and call-stack collection).
MEM_SAMPLE_COST = 6_000

#: Sample-after value for the general memory-event collector.
MEM_SAMPLE_AFTER = 499

#: Rate of sampled memory events (events/sec) above which a line is
#: flagged as memory-hot in the report.
MEM_HOT_THRESHOLD = 40_000.0

#: HITM rate (events/sec) above which a line is reported.
HITM_THRESHOLD = 480.0


class VTuneResult:
    """Outcome of profiling one workload with the VTune baseline."""

    def __init__(self, cycles: int, hitm_lines, mem_hot_lines, machine,
                 total_hitms: int):
        self.cycles = cycles
        #: [(location, rate)] for lines above the HITM threshold.
        self.hitm_lines = hitm_lines
        #: [(location, rate)] for memory-hot lines (general exploration).
        self.mem_hot_lines = mem_hot_lines
        self.machine = machine
        self.total_hitms = total_hitms

    def reported_locations(self) -> List[SourceLocation]:
        """Everything VTune shows the user, HITM lines first."""
        seen = []
        for loc, _rate in self.hitm_lines + self.mem_hot_lines:
            if loc not in seen:
                seen.append(loc)
        return seen

    def __repr__(self):
        return "<VTuneResult cycles=%d lines=%d>" % (
            self.cycles, len(self.reported_locations()),
        )


class VTuneProfiler:
    """Interrupt-per-event HITM profiling plus general memory sampling."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def run_workload(self, workload, scale: float = 1.0,
                     max_cycles: int = 200_000_000) -> VTuneResult:
        built = workload.build(heap_offset=0, seed=self.seed, scale=scale)
        return self.run_built(built, max_cycles=max_cycles)

    def run_built(self, built, max_cycles: int = 200_000_000) -> VTuneResult:
        import random

        from repro.isa.program import PC_STRIDE
        from repro.rng import derive_seed

        program = built.program
        machine = Machine(program, seed=self.seed, allocator=built.allocator)
        built.apply_init(machine)

        hitm_aggregator = LineAggregator(program, sample_after_value=1)
        mem_aggregator = LineAggregator(
            program, sample_after_value=MEM_SAMPLE_AFTER
        )
        state = {"hitms": 0, "mem_ops": [0] * len(machine.cores)}
        skid_rng = random.Random(derive_seed(self.seed, "vtune-skid"))

        def on_hitm(core, inst, addr, is_write, cycle):
            # Interrupt-driven PC capture: the PMI lands several
            # instructions after the triggering access (the pre-PEBS
            # skid the paper describes in Section 3), smearing a hot
            # site's samples across its neighbourhood — the mechanism
            # behind VTune's extra false positives on contention-heavy
            # benchmarks.
            state["hitms"] += 1
            recorded_pc = inst.pc
            if skid_rng.random() > 0.35:
                recorded_pc += PC_STRIDE * skid_rng.randint(1, 6)
            hitm_aggregator.add_record_pc(recorded_pc)
            return HITM_INTERRUPT_COST

        def on_memory_op(core, inst, cycle):
            counts = state["mem_ops"]
            counts[core] += 1
            if counts[core] % MEM_SAMPLE_AFTER:
                return 0
            mem_aggregator.add_record_pc(inst.pc)
            return MEM_SAMPLE_COST

        machine.on_hitm = on_hitm
        machine.on_memory_op = on_memory_op
        result = machine.run(max_cycles=max_cycles)

        hitm_lines = [
            (stats.location,
             stats.hitm_rate(result.cycles, 1))
            for stats in hitm_aggregator.lines_above_threshold(
                result.cycles, HITM_THRESHOLD
            )
        ]
        mem_hot_lines = [
            (stats.location,
             stats.hitm_rate(result.cycles, MEM_SAMPLE_AFTER))
            for stats in mem_aggregator.lines_above_threshold(
                result.cycles, MEM_HOT_THRESHOLD
            )
        ]
        return VTuneResult(result.cycles, hitm_lines, mem_hot_lines,
                           machine, state["hitms"])
