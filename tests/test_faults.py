"""Fault injection and graceful degradation (robustness PR).

Three layers of coverage:

* unit tests for the fault-plan/injector machinery, the bounded driver
  outbox, the record merge order, and the structured error types;
* system tests driving ``Laser.run_built`` under specific fault
  schedules: PEBS losses, detector stalls, repair errors with backoff,
  HTM abort storms (including the TSO litmus under the per-store
  fallback), and the post-repair watchdog rollback with its negative
  control;
* a property sweep (``-m faults``): 50 random seeded fault schedules
  across three workloads, each of which must complete with a coherent
  ``RunHealth`` report instead of an exception.

The golden tests pin the other invariant: an *empty* fault plan is
observationally free — byte-identical results to the seed behavior.
Their table also pins the seed-0 native and LASER-on cycles of the
seven-workload overhead slice (Figure 10), so any simulated-cycle move
there is caught exactly.
"""

import inspect

import pytest

from repro import errors as errors_mod
from repro.core import Laser, LaserConfig, RunHealth
from repro.core.repair.manager import LaserRepair
from repro.errors import (
    DetectorStall,
    FaultInjectionError,
    HtmAbort,
    ReproError,
)
from repro.experiments.runner import run_native
from repro.faults import FAULT_SITES, FaultInjector, FaultPlan, FaultSpec
from repro.isa.instructions import Opcode
from repro.pebs.driver import KernelDriver
from repro.pebs.events import PebsRecord
from repro.resilience.journal import RecordJournal
from repro.sim.core import CoreState
from repro.sim.machine import Machine
from repro.workloads.registry import get_workload

from helpers import build_shifted_workload, make_counter_program

SSB_OPCODES = {
    Opcode.SSB_LOAD, Opcode.SSB_STORE, Opcode.SSB_ADDM,
    Opcode.SSB_FLUSH, Opcode.ALIAS_CHECK,
}

#: Config under which the shifted-contention workload repairs in phase 1.
SHIFT_CONFIG = LaserConfig(
    check_interval_cycles=25_000, repair_trigger_rate=2000.0
)


def _core_opcodes(machine):
    return [
        {inst.op for inst in core.instructions} for core in machine.cores
    ]


# ----------------------------------------------------------------------
# Fault plan / spec validation
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("pebs.nonsense", probability=0.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan().add("htm.frobnicate")

    def test_probability_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("htm.abort", probability=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultSpec("htm.abort", probability=1.5)
        FaultSpec("htm.abort", probability=0.0)
        FaultSpec("htm.abort", probability=1.0)

    def test_negative_occurrence_and_max_fires_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultSpec("detector.stall", at=[-1])
        with pytest.raises(FaultInjectionError):
            FaultSpec("detector.stall", max_fires=-2)

    def test_duplicate_site_rejected(self):
        plan = FaultPlan().add("htm.abort", probability=0.5)
        with pytest.raises(FaultInjectionError):
            plan.add("htm.abort", probability=0.1)

    def test_empty_plan_and_chaining(self):
        plan = FaultPlan(seed=3)
        assert plan.empty
        plan.add("pebs.record_drop", probability=0.1).add(
            "detector.stall", at=[2]
        )
        assert not plan.empty
        assert plan.spec_for("pebs.record_drop").probability == 0.1
        assert plan.spec_for("htm.abort") is None

    def test_random_plans_are_valid_and_deterministic(self):
        for seed in range(20):
            plan = FaultPlan.random(seed)
            again = FaultPlan.random(seed)
            assert not plan.empty
            assert plan.describe() == again.describe()
            for spec in plan.specs:
                assert spec.site in FAULT_SITES
                assert 0.0 < spec.probability <= 0.25

    def test_sites_documented_in_module_docstring(self):
        import repro.faults.plan as plan_mod

        for site in FAULT_SITES:
            assert site in plan_mod.__doc__


# ----------------------------------------------------------------------
# Injector semantics
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_empty_plan_never_fires_but_counts_occurrences(self):
        injector = FaultInjector(FaultPlan())
        assert not any(injector.fires("htm.abort") for _ in range(100))
        assert injector.occurrences["htm.abort"] == 100
        assert injector.total_fired == 0
        # The short-circuit means no RNG stream was ever materialized.
        assert injector._rngs == {}

    def test_fixed_occurrence_schedule(self):
        plan = FaultPlan().add("detector.stall", at=[0, 3])
        injector = FaultInjector(plan)
        fires = [injector.fires("detector.stall") for _ in range(6)]
        assert fires == [True, False, False, True, False, False]
        assert injector.fired["detector.stall"] == 2

    def test_probabilistic_fires_are_deterministic(self):
        plan = FaultPlan(seed=7).add("pebs.record_drop", probability=0.3)
        first = [FaultInjector(plan).fires("pebs.record_drop")
                 for _ in range(1)]
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.fires("pebs.record_drop") for _ in range(200)]
        seq_b = [b.fires("pebs.record_drop") for _ in range(200)]
        assert seq_a == seq_b
        assert 20 <= sum(seq_a) <= 100  # ~0.3 of 200, loosely
        assert first[0] == seq_a[0]

    def test_max_fires_cap(self):
        plan = FaultPlan().add("htm.abort", probability=1.0, max_fires=2)
        injector = FaultInjector(plan)
        fires = [injector.fires("htm.abort") for _ in range(5)]
        assert fires == [True, True, False, False, False]

    def test_site_rngs_are_independent(self):
        plan = (FaultPlan(seed=1)
                .add("htm.abort", probability=0.5)
                .add("pebs.record_drop", probability=0.5))
        solo = FaultInjector(FaultPlan(seed=1).add("htm.abort",
                                                   probability=0.5))
        both = FaultInjector(plan)
        seq_solo = [solo.fires("htm.abort") for _ in range(100)]
        seq_both = []
        for _ in range(100):
            both.fires("pebs.record_drop")  # interleave the other site
            seq_both.append(both.fires("htm.abort"))
        assert seq_solo == seq_both


# ----------------------------------------------------------------------
# Bounded driver outbox + record merge order
# ----------------------------------------------------------------------

def _record(core, cycle, pc=0x1000, addr=0x2000):
    return PebsRecord(pc=pc, data_addr=addr, core=core, cycle=cycle)


class TestBoundedOutbox:
    def test_overflow_drops_with_accounting(self):
        driver = KernelDriver(RecordJournal(), num_cores=1,
                              buffer_records=4, outbox_capacity=6)
        for i in range(12):  # three full-buffer drains of 4 records
            driver.deliver([_record(0, cycle=i)])
        assert driver.records_forwarded == 6
        assert driver.records_dropped == 6
        assert driver.pending_records == 6
        assert len(driver.read_records()) == 6
        # The drops were silent for the data path but visible in stats.
        assert driver.records_dropped == 6

    def test_injected_overflow_drops_one_drain(self):
        plan = FaultPlan().add("driver.outbox_overflow", at=[1])
        driver = KernelDriver(RecordJournal(), num_cores=1,
                              buffer_records=4,
                              injector=FaultInjector(plan))
        for i in range(8):
            driver.deliver([_record(0, cycle=i)])
        # Second drain (occurrence index 1) was dropped wholesale.
        assert driver.records_forwarded == 4
        assert driver.records_dropped == 4

    def test_read_records_merges_by_cycle_core_pc(self):
        driver = KernelDriver(RecordJournal(), num_cores=3,
                              buffer_records=64)
        driver.deliver([_record(2, cycle=5, pc=0x30)])
        driver.deliver([_record(0, cycle=9, pc=0x10)])
        driver.deliver([_record(1, cycle=5, pc=0x20)])
        driver.deliver([_record(1, cycle=5, pc=0x15)])
        driver.flush_batch()
        records = driver.read_records()
        assert records == []  # flush_batch already drained
        driver.deliver([_record(2, cycle=5, pc=0x30)])
        driver.deliver([_record(0, cycle=9, pc=0x10)])
        driver.deliver([_record(1, cycle=5, pc=0x20)])
        driver.deliver([_record(1, cycle=5, pc=0x15)])
        records = driver.flush_batch()
        keys = [(r.cycle, r.core, r.pc) for r in records]
        assert keys == sorted(keys)
        assert keys[0] == (5, 1, 0x15)  # same cycle: core then pc breaks tie
        assert keys[-1] == (9, 0, 0x10)


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------

class TestStructuredErrors:
    def test_htm_abort_fields(self):
        abort = HtmAbort("capacity: 9 lines > 8 ways",
                         abort_pc=0x4000, conflict_line=17, abort_count=3)
        assert abort.is_capacity and not abort.is_conflict
        assert abort.abort_pc == 0x4000
        assert abort.conflict_line == 17
        assert abort.abort_count == 3
        conflict = HtmAbort("conflict: remote store hit the write set")
        assert conflict.is_conflict and not conflict.is_capacity
        assert conflict.abort_pc is None and conflict.conflict_line is None

    def test_htm_abort_reason_stays_first_positional(self):
        assert HtmAbort("capacity: x").reason.startswith("capacity")

    def test_errors_all_is_complete(self):
        public = {
            name
            for name, obj in vars(errors_mod).items()
            if inspect.isclass(obj) and issubclass(obj, Exception)
        }
        assert public == set(errors_mod.__all__)
        assert "DetectorStall" in errors_mod.__all__
        assert "FaultInjectionError" in errors_mod.__all__

    def test_new_errors_are_repro_errors(self):
        assert issubclass(DetectorStall, ReproError)
        assert issubclass(FaultInjectionError, ReproError)


# ----------------------------------------------------------------------
# System-level fault schedules
# ----------------------------------------------------------------------

def _run_counter_under_faults(plan, **config_kwargs):
    config = LaserConfig(check_interval_cycles=10_000, **config_kwargs)
    program = make_counter_program(iters=2000, use_addm=True)
    laser = Laser(config, faults=plan)
    machine = Machine(program, seed=config.seed)

    class _Built:
        def __init__(self, program):
            self.program = program
            self.allocator = None

        def apply_init(self, machine):
            pass

    return laser.run_built(_Built(program))


class TestPebsFaults:
    def test_total_record_drop_blinds_but_does_not_crash(self):
        plan = FaultPlan().add("pebs.record_drop", probability=1.0)
        result = _run_counter_under_faults(plan)
        assert result.health.records_lost > 0
        assert result.health.degraded
        assert result.driver.records_forwarded == 0
        assert not result.report.lines  # blind detector: nothing reported
        assert not result.repaired

    def test_record_corruption_is_counted_and_survived(self):
        plan = FaultPlan(seed=5).add("pebs.record_corrupt", probability=0.5)
        result = _run_counter_under_faults(plan)
        assert result.health.records_corrupted > 0
        assert result.health.degraded
        assert result.cycles > 0  # completed

    def test_driver_overflow_site_reaches_health(self):
        plan = FaultPlan().add("driver.outbox_overflow", probability=1.0)
        result = _run_counter_under_faults(plan)
        assert result.health.records_dropped > 0
        assert result.driver.records_forwarded == 0


class TestDetectorStalls:
    def test_stall_and_resync_are_accounted(self):
        plan = FaultPlan().add("detector.stall", at=[1, 2])
        result = _run_counter_under_faults(plan)
        assert result.health.detector_stalls == 2
        assert result.health.detector_restarts >= 1
        assert result.cycles > 0

    def test_stalled_windows_do_not_lose_records_within_outbox_bound(self):
        """With repair off (detection passive), a stall only *delays*.

        The stalled poll leaves records in the bounded outbox; the next
        healthy poll resyncs, so end-to-end record flow matches the
        unstalled run exactly.  (With repair on, a stall may shift the
        attach point and legitimately change the run.)
        """
        plan = FaultPlan().add("detector.stall", at=[1])
        result = _run_counter_under_faults(plan, repair_enabled=False)
        healthy = _run_counter_under_faults(FaultPlan(),
                                            repair_enabled=False)
        assert result.health.detector_stalls == 1
        assert (result.driver.records_forwarded
                == healthy.driver.records_forwarded)
        assert result.health.records_dropped == 0
        assert result.cycles == healthy.cycles


class TestRepairErrorBackoff:
    def test_injected_repair_error_is_retried_with_backoff(self):
        plan = FaultPlan().add("repair.error", at=[0, 1])
        result = _run_counter_under_faults(plan)
        assert result.health.repair_errors >= 1
        assert result.cycles > 0
        healthy = _run_counter_under_faults(FaultPlan())
        if healthy.repaired:
            # The run recovered: repair still landed after the backoff
            # unless the program finished before the retry window.
            assert result.repaired or result.cycles <= healthy.cycles * 2


class TestHtmAbortStorm:
    def test_abort_storm_activates_per_store_fallback(self):
        plan = FaultPlan().add("htm.abort", probability=1.0)
        result = _run_counter_under_faults(plan)
        assert result.cycles > 0
        if result.repaired:
            assert result.health.injected_htm_aborts > 0
            assert result.health.ssb_fallback_activations >= 1

    def test_mp_litmus_holds_under_forced_fallback(self):
        """Message passing stays TSO-correct on the per-store path."""
        from test_tso import message_passing_program

        for seed in range(10):
            program = message_passing_program()
            plan = FaultPlan(seed=seed).add("htm.abort", probability=1.0)
            machine = Machine(program, seed=seed,
                              fault_injector=FaultInjector(plan))
            pcs = {
                inst.pc
                for inst in program.threads[0].instructions
                if inst.op is Opcode.STORE
            }
            repairer = LaserRepair(min_stores_per_flush=0.0)
            repair_plan = repairer.plan(program, pcs)
            repairer.attach(machine, repair_plan)
            machine.run()
            flag_seen = machine.cores[1].registers[3]
            data_read = machine.cores[1].registers[4]
            if flag_seen:
                assert data_read == 42
            ssb = machine.cores[0].ssb
            if ssb.stats.flushes:
                assert ssb.fallback_active
                assert ssb.stats.fallback_activations == 1
                assert ssb.stats.fallback_stores > 0


# ----------------------------------------------------------------------
# Watchdog rollback + negative control
# ----------------------------------------------------------------------

class TestWatchdogRollback:
    def test_rollback_detaches_when_contention_shifts(self):
        result = Laser(SHIFT_CONFIG).run_built(build_shifted_workload())
        assert result.rolled_back
        assert result.health.rollbacks == 1
        assert not result.repaired
        machine = result.machine
        # Rollback restored the original program: no SSB opcodes, no SSBs.
        assert all(core.ssb is None for core in machine.cores)
        for ops in _core_opcodes(machine):
            assert not (ops & SSB_OPCODES)
        for tid, thread in enumerate(result.repair_plan.program.threads):
            assert ([i.op for i in machine.cores[tid].instructions]
                    == [i.op for i in thread.instructions])
        # The detached buffers kept their stats for health accounting.
        assert len(result.repair_plan.detached_buffers) == 2

    def test_negative_control_disabled_rollback_stays_attached_and_slower(self):
        config = SHIFT_CONFIG.replace(rollback_enabled=False)
        rolled = Laser(SHIFT_CONFIG).run_built(build_shifted_workload())
        stuck = Laser(config).run_built(build_shifted_workload())
        assert rolled.rolled_back
        assert not stuck.rolled_back
        assert stuck.repaired
        assert stuck.health.rollbacks == 0
        # Still attached: SSBs live on the instrumented threads and the
        # injected opcodes are still in the executing code.
        instrumented = stuck.repair_plan.threads_instrumented
        assert instrumented == [0, 1]
        for tid in instrumented:
            core = stuck.machine.cores[tid]
            assert core.ssb is not None
            assert {i.op for i in core.instructions} & SSB_OPCODES
        # ...and dragging dead instrumentation through the shifted phase
        # is measurably slower than rolling it back.
        assert stuck.cycles > rolled.cycles * 1.2


class TestDetachEquivalence:
    def test_attach_detach_is_observationally_equivalent(self):
        """attach + detach mid-run == never instrumented (single thread)."""
        iters = 400
        reference = make_counter_program(num_threads=1, iters=iters,
                                         use_addm=True)
        ref_machine = Machine(reference, seed=0)
        ref_machine.run()

        program = make_counter_program(num_threads=1, iters=iters,
                                       use_addm=True)
        machine = Machine(program, seed=0)
        pcs = {
            inst.pc
            for inst in program.threads[0].instructions
            if inst.op is Opcode.ADDM
        }
        repairer = LaserRepair(min_stores_per_flush=0.0)
        plan = repairer.plan(program, pcs)
        repairer.attach(machine, plan)
        machine.run(until_cycle=machine.cycle + 2000)  # mid-loop
        assert machine.cores[0].state is not CoreState.HALTED
        repairer.detach(machine, plan)
        assert machine.cores[0].ssb is None
        assert ([i.op for i in machine.cores[0].instructions]
                == [i.op for i in program.threads[0].instructions])
        machine.run()

        counter_addr = 0x10000040
        assert (machine.memory.read(counter_addr, 8)
                == ref_machine.memory.read(counter_addr, 8)
                == iters)
        assert plan.detached_buffers and repairer.plans_detached == 1


# ----------------------------------------------------------------------
# Golden: an empty fault plan is observationally free
# ----------------------------------------------------------------------

#: Seed-0 pins: (native cycles, LASER-on cycles, repaired, records
#: seen).  The rows are the overhead slice: the two workloads online
#: repair speeds up, a detector-heavy one and four contention shapes.
GOLDEN = {
    "histogram": (24925, 24925, False, 0),
    "histogram'": (192895, 174689, True, 35),
    "kmeans": (673113, 694966, False, 296),
    "linear_regression": (471605, 460750, True, 210),
    "matrix_multiply": (90832, 91638, False, 15),
    "string_match": (331662, 331756, False, 21),
    "word_count": (332005, 333203, False, 44),
}


class TestGoldenEmptyPlan:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_empty_plan_matches_seed_behavior(self, name):
        _, cycles, repaired, records_seen = GOLDEN[name]
        result = Laser(LaserConfig(),
                       faults=FaultPlan(seed=99)).run_workload(
            get_workload(name)
        )
        assert result.cycles == cycles
        assert result.repaired is repaired
        assert result.pipeline.stats.records_seen == records_seen
        assert not result.health.degraded
        assert result.health.faults_injected == 0

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_native_run_matches_seed_behavior(self, name):
        assert run_native(get_workload(name), seed=0).cycles == GOLDEN[name][0]

    def test_no_plan_and_empty_plan_are_bit_identical(self):
        workload = get_workload("histogram'")
        bare = Laser(LaserConfig()).run_workload(workload)
        planned = Laser(LaserConfig(), faults=FaultPlan(seed=7)).run_workload(
            workload
        )
        assert bare.cycles == planned.cycles
        assert bare.repaired == planned.repaired
        assert bare.report.render() == planned.report.render()
        assert bare.pmu.total_hitm_count == planned.pmu.total_hitm_count
        assert bare.health == planned.health


# ----------------------------------------------------------------------
# Property sweep: any fault schedule completes with a report
# ----------------------------------------------------------------------

SWEEP_WORKLOADS = ["histogram'", "histogram", "linear_regression"]


@pytest.mark.faults
class TestFaultScheduleSweep:
    @pytest.mark.parametrize("seed", range(50))
    def test_random_schedule_completes_with_coherent_health(self, seed):
        name = SWEEP_WORKLOADS[seed % len(SWEEP_WORKLOADS)]
        plan = FaultPlan.random(seed, max_probability=0.2)
        result = Laser(LaserConfig(), faults=plan).run_workload(
            get_workload(name)
        )
        health = result.health
        assert result.cycles > 0
        assert result.report is not None
        for field in RunHealth._FIELDS:
            assert getattr(health, field) >= 0
        # Injected faults are tallied consistently with the per-site
        # counters the injector kept.
        assert health.faults_injected >= (
            health.records_lost
            + health.records_corrupted
            + health.detector_stalls
            + health.injected_htm_aborts
        )
        assert health.detector_restarts <= health.detector_stalls
        if health.faults_injected:
            assert health.degraded or health.repair_rejections
