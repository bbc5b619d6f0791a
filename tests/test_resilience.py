"""Crash recovery (``repro.resilience``).

Four layers of coverage:

* unit tests for the shared retry/backoff policy, the write-ahead
  record journal (sequence stamping, batch marks, replay splitting,
  dedup idempotence, compaction), the CRC-guarded checkpoint store
  (generations, corrupt fallback, schema guard), and the supervisor
  state machine (backoff restarts, circuit breaker, rearm);
* system tests driving ``Laser`` under exact crash schedules: the
  checkpoint-less cold start, pre-poll and post-read detector crashes,
  driver wipes healed from the journal, corrupt-checkpoint fallback,
  and the breaker-driven degrade ladder down to passthrough with
  offline recovery — every one of which must converge to the
  fault-free run's diagnosis;
* invariants: a crash-free run is *bit-identical* with resilience on
  or off (the ≤5%-overhead requirement holds trivially at 0%), and a
  given (seed, schedule) pair reproduces byte-identical RunHealth
  accounting and trace sequences;
* the chaos soak (``-m chaos``): the full schedule x workload x seed
  grid from ``repro.experiments.chaos``, every cell converging.
"""

import json
import random
from bisect import bisect_right

import pytest

from repro.core import Laser, LaserConfig, RunHealth
from repro.core.detect.pipeline import DetectionPipeline
from repro.core.services.context import (
    REPAIR_BACKOFF_INTERVALS,
    REPAIR_BACKOFF_MAX,
)
from repro.experiments.chaos import (
    CRASH_SCHEDULES,
    run_chaos_case,
    run_chaos_soak,
    schedule_plan,
)
from repro.faults import FaultInjector, FaultPlan
from repro.pebs.events import PebsRecord
from repro.resilience import (
    CHECKPOINT_SCHEMA,
    Backoff,
    CheckpointStore,
    ComponentStatus,
    DegradeMode,
    RecordJournal,
    RetryPolicy,
    Supervisor,
)
from repro.resilience.checkpoint import encode_state
from repro.resilience.journal import batch_sort_key
from repro.workloads import get_workload


def record(seq_hint, pc=0x400000, addr=0x1000, core=0, cycle=0):
    return PebsRecord(pc=pc, data_addr=addr, core=core, cycle=cycle)


# ----------------------------------------------------------------------
# Policy: shared backoff for repair re-evaluation and restarts
# ----------------------------------------------------------------------


class TestBackoffPolicy:
    def test_doubles_and_clamps(self):
        backoff = Backoff(1, 8)
        assert [backoff.step() for _ in range(5)] == [1, 2, 4, 8, 8]

    def test_matches_legacy_repair_schedule(self):
        # The historical inline counters in Laser.run_built produced
        # exactly this sequence for the default config (initial=2,
        # max=32); the shared policy must reproduce it bit-for-bit.
        backoff = Backoff(REPAIR_BACKOFF_INTERVALS, REPAIR_BACKOFF_MAX)
        assert [backoff.step() for _ in range(6)] == [2, 4, 8, 16, 32, 32]

    def test_reset_and_restore_point(self):
        backoff = Backoff(2, 16)
        backoff.step()
        backoff.step()
        assert backoff.current == 8
        backoff.current = 4  # checkpoint restore path
        assert backoff.step() == 4
        backoff.reset()
        assert backoff.current == 2

    def test_jitter_is_seeded_and_additive(self):
        a = Backoff(2, 16, jitter=0.5, rng=random.Random(7))
        b = Backoff(2, 16, jitter=0.5, rng=random.Random(7))
        seq_a = [a.step() for _ in range(6)]
        seq_b = [b.step() for _ in range(6)]
        assert seq_a == seq_b  # same seed, same schedule
        base = Backoff(2, 16)
        for jittered, plain in zip(seq_a, [base.step() for _ in range(6)]):
            assert plain <= jittered <= int(plain * 1.5) + plain

    def test_jitter_schedule_is_a_pure_function_of_the_seed(self):
        # The documented jitter contract (see the Backoff docstring):
        # every jittered delay lies in [d, d + int(d * j)] for base
        # delay d, and the whole schedule is a pure function of the
        # RNG seed — a supervisor that dies and is rebuilt with the
        # same seed recomputes the identical restart schedule, which
        # is what keeps fleet shard restarts deterministic.
        knob_grid = ((1, 8, 0.5), (2, 16, 0.25), (3, 7, 1.0))
        for seed in range(25):
            for initial, maximum, jitter in knob_grid:
                first = Backoff(initial, maximum, jitter=jitter,
                                rng=random.Random(seed))
                schedule = [first.step() for _ in range(8)]
                restarted = Backoff(initial, maximum, jitter=jitter,
                                    rng=random.Random(seed))
                assert [restarted.step() for _ in range(8)] == schedule
                base = Backoff(initial, maximum)
                for jittered, plain in zip(
                        schedule, [base.step() for _ in range(8)]):
                    assert plain <= jittered <= plain + int(plain * jitter)

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(0, 8)
        with pytest.raises(ValueError):
            Backoff(1, 8, jitter=-0.1)

    def test_retry_budget_exhaustion(self):
        policy = RetryPolicy(initial=1, maximum=4, max_attempts=2)
        assert policy.next_delay() == 1
        assert policy.next_delay() == 2
        assert policy.exhausted
        assert policy.next_delay() is None

    def test_rearm_resets_budget_and_schedule(self):
        policy = RetryPolicy(initial=1, maximum=4, max_attempts=1)
        assert policy.next_delay() == 1
        assert policy.next_delay() is None
        policy.rearm(max_attempts=1)
        assert not policy.exhausted
        assert policy.next_delay() == 1  # schedule restarted too

    def test_unbounded_policy_never_exhausts(self):
        policy = RetryPolicy(initial=1, maximum=2, max_attempts=None)
        for _ in range(10):
            assert policy.next_delay() is not None


# ----------------------------------------------------------------------
# Journal: WAL semantics
# ----------------------------------------------------------------------


class TestRecordJournal:
    def test_append_stamps_monotone_seq(self):
        journal = RecordJournal()
        seqs = [journal.append([record(i)]) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert journal.head_seq == 5
        assert journal.acked_seq == 0

    def test_marks_are_monotone(self):
        journal = RecordJournal()
        for i in range(6):
            journal.append([record(i)])
        journal.mark_batch(4, cycle=100)
        journal.mark_batch(2, cycle=120)  # replays never move it back
        assert journal.acked_seq == 4
        journal.mark_batch(6, cycle=140)
        assert journal.acked_seq == 6

    def test_entries_after_watermark(self):
        journal = RecordJournal()
        for i in range(5):
            journal.append([record(i)])
        assert [r.seq for r in journal.entries_after(3)] == [4, 5]
        assert journal.entries_after(5) == []

    def test_batches_after_splits_at_marks(self):
        journal = RecordJournal()
        for i in range(7):
            journal.append([record(i)])
        journal.mark_batch(2, cycle=50)
        journal.mark_batch(5, cycle=100)
        batches, tail = journal.batches_after(0)
        assert [([r.seq for r in entries], cycle)
                for entries, cycle in batches] == [([1, 2], 50),
                                                   ([3, 4, 5], 100)]
        assert [r.seq for r in tail] == [6, 7]
        # From a mid-batch watermark only the unacked part replays.
        batches, tail = journal.batches_after(2)
        assert [[r.seq for r in entries] for entries, _ in batches] == [[3, 4, 5]]

    def test_dedup_against_watermark(self):
        journal = RecordJournal()
        records = [record(i) for i in range(4)]
        for r in records:
            journal.append([r])
        journal.mark_batch(2, cycle=10)
        fresh, dups = RecordJournal.dedup(records, journal.acked_seq)
        assert [r.seq for r in fresh] == [3, 4]
        assert dups == 2

    def test_truncate_through_compacts_entries_and_marks(self):
        journal = RecordJournal()
        for i in range(6):
            journal.append([record(i)])
        journal.mark_batch(2, cycle=10)
        journal.mark_batch(5, cycle=20)
        assert journal.truncate_through(2) == 2
        assert len(journal) == 4
        assert journal.truncated == 2
        # The surviving mark still splits replay correctly.
        batches, tail = journal.batches_after(2)
        assert [[r.seq for r in e] for e, _ in batches] == [[3, 4, 5]]
        assert [r.seq for r in tail] == [6]

    def test_capacity_bound_sheds_oldest_with_accounting(self):
        journal = RecordJournal(max_entries=3)
        for i in range(5):
            journal.append([record(i)])
        assert len(journal) == 3
        assert journal.overflow_dropped == 2
        assert [r.seq for r in journal.entries_after(0)] == [3, 4, 5]

    def test_grouped_append_stamps_consecutive_seqs(self):
        journal = RecordJournal(max_entries=4)
        group = [record(i) for i in range(3)]
        assert journal.append(group) == 3
        assert [r.seq for r in group] == [1, 2, 3]
        assert journal.append([record(3), record(4)]) == 5
        assert journal.overflow_dropped == 1
        assert [r.seq for r in journal.entries_after(0)] == [2, 3, 4, 5]

    @pytest.mark.parametrize("capacity, truncate", [
        (1 << 20, None),  # never compacted
        (7, None),        # after max_entries overflow
        (1 << 20, 6),     # after truncate_through
        (7, 15),          # both
    ])
    def test_compaction_cuts_match_a_bisect_reference(self, capacity,
                                                      truncate):
        """``entries_after`` and ``truncate_through`` find their cut from
        the contiguous-seq invariant; it must agree with a search over
        the retained seqs below, inside and above the retained range."""
        def build():
            journal = RecordJournal(max_entries=capacity)
            appended = []
            for size in (1, 3, 2, 5, 1, 4, 2):  # 18 records, grouped
                group = [record(i) for i in range(size)]
                journal.append(group)
                appended += group
            retained = appended[-capacity:]
            if truncate is not None:
                journal.truncate_through(truncate)
                retained = [r for r in retained if r.seq > truncate]
            return journal, retained

        journal, retained = build()
        seqs = [r.seq for r in retained]
        for s in range(seqs[0] - 3, journal.head_seq + 4):
            cut = bisect_right(seqs, s)
            assert journal.entries_after(s) == retained[cut:], s
            compacted, _ = build()
            assert compacted.truncate_through(s) == cut, s
            assert [r.seq for r in compacted.entries_after(-1)] == \
                seqs[cut:], s

    def test_batch_sort_key_is_the_driver_merge_order(self):
        import repro.pebs.driver as driver_module

        # One definition: the driver merges its outbox by this key.
        assert driver_module.batch_sort_key is batch_sort_key
        records = [
            PebsRecord(pc=3, data_addr=0, core=1, cycle=20),
            PebsRecord(pc=1, data_addr=0, core=0, cycle=20),
            PebsRecord(pc=2, data_addr=0, core=0, cycle=10),
        ]
        ordered = sorted(records, key=batch_sort_key)
        assert [(r.cycle, r.core, r.pc) for r in ordered] == [
            (10, 0, 2), (20, 0, 1), (20, 1, 3)]


# ----------------------------------------------------------------------
# Checkpoints: CRC, generations, fallback
# ----------------------------------------------------------------------


def _corrupting_injector(occurrences):
    plan = FaultPlan(seed=3)
    plan.add("checkpoint.corrupt", at=occurrences)
    return FaultInjector(plan)


class TestCheckpointStore:
    def test_roundtrip_latest_generation(self):
        store = CheckpointStore()
        store.save({"value": 1}, cycle=100)
        store.save({"value": 2}, cycle=200)
        state = store.load()
        assert state["value"] == 2
        assert state["schema"] == CHECKPOINT_SCHEMA
        assert store.written == 2
        assert store.restored == 1

    def test_keeps_two_generations(self):
        store = CheckpointStore()
        for value in range(5):
            store.save({"value": value}, cycle=value * 10)
        assert len(store.snapshots) == 2
        assert [s.payload for s in store.snapshots] != []
        assert store.min_retained("value") == 3
        assert store.min_retained("value") == min(
            json.loads(s.payload.decode("utf-8"))["value"]
            for s in store.snapshots)

    def test_corrupt_newest_falls_back_a_generation(self):
        store = CheckpointStore(injector=_corrupting_injector((0,)))
        store.save({"value": 1}, cycle=100)
        store.save({"value": 2}, cycle=200)
        state = store.load()
        assert state["value"] == 1  # newest failed its CRC
        assert store.corrupt_detected == 1
        assert store.restored == 1

    def test_every_generation_corrupt_is_a_cold_start(self):
        store = CheckpointStore(injector=_corrupting_injector((0, 1)))
        store.save({"value": 1}, cycle=100)
        store.save({"value": 2}, cycle=200)
        assert store.load() is None
        assert store.corrupt_detected == 2

    def test_schema_mismatch_counts_as_corrupt(self):
        store = CheckpointStore()
        store.save({"value": 1}, cycle=100)
        snapshot = store.snapshots[-1]
        state = json.loads(snapshot.payload.decode("utf-8"))
        state["schema"] = CHECKPOINT_SCHEMA + 1
        import zlib
        snapshot.payload = encode_state(state)
        snapshot.crc = zlib.crc32(snapshot.payload)
        assert store.load() is None
        assert store.corrupt_detected == 1

    def test_encode_state_is_canonical(self):
        assert encode_state({"b": 1, "a": 2}) == encode_state({"a": 2, "b": 1})


# ----------------------------------------------------------------------
# Checkpoint/journal coordination under a mid-compaction kill
# ----------------------------------------------------------------------


class TestTruncationRace:
    def test_kill_mid_truncation_replays_from_surviving_generation(self):
        # Regression for fleet shard supervision: a shard killed
        # between a checkpoint save and the journal compaction that
        # follows it must still recover when the *newest* generation
        # turns out corrupt at restore — compaction only drops entries
        # at or below the OLDEST retained watermark, so the surviving
        # generation's replay suffix is intact by construction.
        journal = RecordJournal()
        for i in range(10):
            journal.append([record(i)])
        store = CheckpointStore(injector=_corrupting_injector((0,)))
        journal.mark_batch(4, cycle=100)
        store.save({"acked_seq": 4}, cycle=100)
        journal.mark_batch(8, cycle=200)
        store.save({"acked_seq": 8}, cycle=200)
        # The compaction the shard died in the middle of.
        journal.truncate_through(store.min_retained("acked_seq"))
        assert len(journal) == 6  # seqs 5..10 retained
        # Restore: occurrence 0 corrupts the newest generation, so
        # recovery falls back to the gen-1 snapshot.
        state = store.load()
        assert state["acked_seq"] == 4
        assert store.corrupt_detected == 1
        # The truncated journal still replays the full suffix from the
        # surviving generation's watermark...
        batches, tail = journal.batches_after(state["acked_seq"])
        replayed = [r.seq for entries, _ in batches for r in entries]
        assert replayed == [5, 6, 7, 8]
        assert [r.seq for r in tail] == [9, 10]
        # ...and replaying it twice is idempotent: once the recovered
        # batch is re-acked, a second delivery dedups completely.
        for entries, cycle in batches:
            journal.mark_batch(entries[-1].seq, cycle)
        redelivered = [r for entries, _ in batches for r in entries]
        fresh, dups = RecordJournal.dedup(redelivered, journal.acked_seq)
        assert fresh == [] and dups == 4


# ----------------------------------------------------------------------
# Supervisor: restarts, breaker, rearm
# ----------------------------------------------------------------------


def _supervisor(max_attempts=2):
    supervisor = Supervisor()
    supervisor.register("detector", RetryPolicy(
        initial=1, maximum=4, max_attempts=max_attempts))
    return supervisor


class TestSupervisor:
    def test_crash_schedules_backoff_restart(self):
        supervisor = _supervisor()
        assert supervisor.crash("detector", interval=3, cycle=1000)
        component = supervisor["detector"]
        assert component.status == ComponentStatus.DOWN
        assert component.restart_at == 4
        assert not supervisor.due("detector", 3)
        assert supervisor.due("detector", 4)
        supervisor.restart("detector", 4, cycle=1200)
        assert component.running
        assert component.restarts == 1

    def test_backoff_grows_across_crashes(self):
        supervisor = _supervisor(max_attempts=None)
        delays = []
        for interval in (1, 10, 20):
            supervisor.crash("detector", interval, cycle=0)
            delays.append(supervisor["detector"].restart_at - interval)
            supervisor.restart("detector", interval + delays[-1], cycle=0)
        assert delays == [1, 2, 4]

    def test_breaker_trips_when_budget_exhausted(self):
        supervisor = _supervisor(max_attempts=1)
        assert supervisor.crash("detector", 1, cycle=0)
        supervisor.restart("detector", 2, cycle=0)
        assert not supervisor.crash("detector", 3, cycle=0)
        component = supervisor["detector"]
        assert component.status == ComponentStatus.HALTED
        assert component.breaker_trips == 1
        assert not supervisor.due("detector", 100)

    def test_rearm_immediate_revives_now(self):
        supervisor = _supervisor(max_attempts=0)
        assert not supervisor.crash("detector", 1, cycle=0)
        supervisor.rearm("detector", 1, cycle=0, max_attempts=1)
        assert supervisor["detector"].running

    def test_rearm_deferred_flows_through_restart(self):
        supervisor = _supervisor(max_attempts=0)
        assert not supervisor.crash("detector", 5, cycle=0)
        supervisor.rearm("detector", 5, cycle=0, max_attempts=1,
                         immediate=False)
        component = supervisor["detector"]
        assert component.status == ComponentStatus.DOWN
        assert supervisor.due("detector", 6)
        restarts = component.restarts
        supervisor.restart("detector", 6, cycle=0)
        assert component.restarts == restarts + 1


# ----------------------------------------------------------------------
# Replay idempotence: the line model is exactly reconstructible
# ----------------------------------------------------------------------


def _journaled_run(workload="linear_regression"):
    """A healthy resilient run, returning (result, journal)."""
    result = Laser(LaserConfig()).run_workload(get_workload(workload))
    return result, result.resilience.journal


class TestReplayIdempotence:
    def test_replaying_a_suffix_twice_is_byte_identical(self):
        result, journal = _journaled_run()
        live = result.pipeline
        # Rebuild a fresh pipeline and replay the whole retained journal
        # the way _restore_detector does.
        fresh = DetectionPipeline(
            live.program, result.machine.vmmap,
            result.pipeline.sample_after_value,
        )
        batches, tail = journal.batches_after(0)
        window_start = 0
        for entries, poll_cycle in batches:
            fresh.process(sorted(entries, key=batch_sort_key))
            fresh.roll_window(poll_cycle - window_start, cycle=poll_cycle)
            window_start = poll_cycle
        once = encode_state(fresh.line_model.state_dict())
        # Replay the same suffix again: every record now falls at or
        # below the acked watermark, so dedup must make it a no-op.
        for entries, _ in batches:
            replayed, dups = RecordJournal.dedup(
                sorted(entries, key=batch_sort_key), journal.acked_seq)
            assert replayed == []
            assert dups == len(entries)
            fresh.process(replayed)
        assert encode_state(fresh.line_model.state_dict()) == once

    def test_checkpoint_plus_suffix_replay_reconstructs_the_live_model(self):
        # The real restore contract: the newest checkpoint plus the
        # journal suffix past its acked watermark reproduce the live
        # pipeline exactly.  (Replay from seq 0 is only guaranteed on
        # a cold start, before compaction has truncated the journal.)
        result, journal = _journaled_run()
        live = result.pipeline
        state = result.resilience.checkpoints.load()
        fresh = DetectionPipeline(
            live.program, result.machine.vmmap, live.sample_after_value,
        )
        fresh.load_state_dict(state["pipeline"])
        batches, tail = journal.batches_after(state["acked_seq"])
        for entries, poll_cycle in batches:
            fresh.process(sorted(entries, key=batch_sort_key))
        fresh.process(sorted(tail, key=batch_sort_key))
        assert (encode_state(fresh.line_model.state_dict())
                == encode_state(live.line_model.state_dict()))

    def test_pipeline_state_dict_roundtrip(self):
        result, _ = _journaled_run()
        live = result.pipeline
        state = live.state_dict()
        clone = DetectionPipeline(
            live.program, result.machine.vmmap, live.sample_after_value,
        )
        clone.load_state_dict(state)
        assert encode_state(clone.state_dict()) == encode_state(state)
        clone.reset_state()
        empty = DetectionPipeline(
            live.program, result.machine.vmmap, live.sample_after_value,
        )
        assert (encode_state(clone.state_dict())
                == encode_state(empty.state_dict()))


# ----------------------------------------------------------------------
# System: crash schedules against Laser
# ----------------------------------------------------------------------


def _crash_run(schedule, workload="linear_regression", seed=0, config=None):
    cfg = (config or LaserConfig()).replace(seed=seed, trace_enabled=True)
    plan = FaultPlan(seed=seed)
    for site, at in sorted(schedule.items()):
        plan.add(site, at=at)
    return Laser(cfg, faults=plan).run_workload(get_workload(workload))


class TestCrashRecovery:
    def test_cold_start_replays_journal_from_seq_zero(self):
        # Regression: the detector's first crash lands before any
        # checkpoint exists; the restart must reset the pipeline and
        # replay from seq 0, not fault on the missing snapshot.
        result = _crash_run({"detector.crash": (0,)})
        health = result.health
        assert health.detector_crashes == 1
        assert health.detector_crash_restarts == 1
        assert health.checkpoints_restored == 0  # nothing to restore
        replays = result.telemetry.tracer.events_named("resil.replay")
        assert replays and replays[0].args["from_seq"] == 0
        baseline = Laser(LaserConfig(trace_enabled=True)).run_workload(
            get_workload("linear_regression"))
        assert {str(line.location) for line in result.report.lines} == {
            str(line.location) for line in baseline.report.lines}

    def test_mid_run_crash_restores_a_checkpoint(self):
        result = _crash_run({"detector.crash": (8,)})
        health = result.health
        assert health.detector_crashes == 1
        assert health.checkpoints_restored == 1
        assert health.checkpoints_written > 0
        # The crash lands after the repair attached: the restored
        # detector holds the live attached plan, its code included.
        assert result.repaired
        assert result.repair_plan is result.resilience.attached
        assert result.repair_plan.new_codes

    def test_post_read_crash_dedups_the_redelivery(self):
        # The batch was read but the crash hit before the ack: replay
        # recovers it from the journal and the driver's re-delivery is
        # recognized as duplicate.
        result = _crash_run({"detector.crash": (7,)})
        health = result.health
        assert health.detector_crashes == 1
        assert health.records_replayed > 0
        assert health.records_deduped > 0

    def test_driver_crash_heals_from_the_journal(self):
        result = _crash_run({"driver.crash": (1,)})
        health = result.health
        assert health.driver_crashes == 1
        assert health.driver_crash_restarts == 1
        assert health.records_replayed > 0  # the wiped volatiles
        assert health.detector_crashes == 0

    def test_corrupt_checkpoint_falls_back_a_generation(self):
        result = _crash_run({"detector.crash": (10,),
                             "checkpoint.corrupt": (0,)})
        health = result.health
        assert health.checkpoints_corrupt == 1
        assert health.checkpoints_restored == 1  # the older generation
        corrupt = result.telemetry.tracer.events_named(
            "resil.checkpoint_corrupt")
        assert corrupt and corrupt[0].args["reason"] == "crc_mismatch"

    def test_crash_counts_as_degraded(self):
        result = _crash_run({"detector.crash": (8,)})
        assert result.health.degraded

    def test_breaker_walks_the_degrade_ladder_without_aborting(self):
        # Zero restart budget: the first crash trips the breaker into
        # detection-only; the rearmed detector's next crash trips it
        # again into passthrough.  The run must still complete and the
        # report is recovered offline from the journal.
        config = LaserConfig(max_component_restarts=0, trace_enabled=True)
        plan = FaultPlan(seed=0).add("detector.crash", probability=1.0)
        result = Laser(config, faults=plan).run_workload(
            get_workload("linear_regression"))
        assert result.resilience.mode == DegradeMode.PASSTHROUGH
        assert result.health.breaker_trips == 2
        assert result.report is not None
        recovered = result.telemetry.tracer.events_named(
            "resil.offline_recover")
        assert recovered
        # Offline recovery replays the whole journal, so the diagnosis
        # still matches the fault-free run.
        baseline = Laser(LaserConfig()).run_workload(
            get_workload("linear_regression"))
        assert {str(line.location) for line in result.report.lines} == {
            str(line.location) for line in baseline.report.lines}

    def test_detection_only_mode_blocks_new_repairs(self):
        config = LaserConfig(max_component_restarts=0, trace_enabled=True)
        # One early crash trips the breaker (budget 0) before the
        # repair trigger fires; in detection-only mode the run must
        # finish unrepaired even though the contention is repairable.
        plan = FaultPlan(seed=0).add("detector.crash", at=(0,))
        result = Laser(config, faults=plan).run_workload(
            get_workload("linear_regression"))
        assert result.resilience.mode == DegradeMode.DETECTION_ONLY
        assert not result.repaired
        assert result.report.lines  # detection still works


# ----------------------------------------------------------------------
# Invariants: zero overhead when healthy, determinism when not
# ----------------------------------------------------------------------


class TestResilienceInvariants:
    def test_healthy_run_records_zero_recovery_activity(self):
        result = Laser(LaserConfig()).run_workload(get_workload("histogram'"))
        health = result.health
        assert not health.degraded
        assert health.detector_crashes == 0
        assert health.records_replayed == 0
        assert health.records_deduped == 0
        assert health.checkpoints_written > 0  # insurance, not degradation
        assert "restarts detector=0" in health.recovery_summary()

    @pytest.mark.parametrize("schedule", ["detector-mid", "driver-early"])
    def test_same_seed_and_schedule_is_byte_deterministic(self, schedule):
        def run():
            cfg = LaserConfig(seed=5, trace_enabled=True)
            return Laser(cfg, faults=schedule_plan(schedule, seed=5)
                         ).run_workload(get_workload("linear_regression"))

        first, second = run(), run()
        assert first.health.as_dict() == second.health.as_dict()
        assert ([(e.cycle, e.name) for e in first.telemetry.tracer.events()]
                == [(e.cycle, e.name)
                    for e in second.telemetry.tracer.events()])
        assert (first.telemetry.windows_jsonl()
                == second.telemetry.windows_jsonl())

    def test_recovery_fields_are_first_class_health_fields(self):
        for field in ("detector_crashes", "driver_crash_restarts",
                      "breaker_trips", "records_replayed",
                      "records_deduped", "checkpoints_written",
                      "checkpoints_restored", "checkpoints_corrupt"):
            assert field in RunHealth._FIELDS
        # Writing checkpoints is informational; restoring one is not.
        assert "checkpoints_written" in RunHealth._INFO_FIELDS
        assert "checkpoints_restored" not in RunHealth._INFO_FIELDS


# ----------------------------------------------------------------------
# Chaos soak (-m chaos)
# ----------------------------------------------------------------------


@pytest.mark.chaos
class TestChaosSoak:
    @pytest.mark.parametrize("schedule", sorted(CRASH_SCHEDULES))
    def test_every_schedule_converges_across_workloads(self, schedule):
        outcomes = run_chaos_soak(schedules=[schedule], seeds=(0, 1))
        for outcome in outcomes:
            assert outcome.converged, (
                "%s diverged: baseline=%s chaotic=%s" % (
                    outcome, sorted(outcome.baseline_signature),
                    sorted(outcome.chaotic_signature)))

    def test_soak_cells_are_reproducible(self):
        first = run_chaos_case("linear_regression", "double-fault", seed=0)
        second = run_chaos_case("linear_regression", "double-fault", seed=0)
        assert first.health == second.health
        assert first.recovery_events == second.recovery_events

    def test_artifact_serializes(self, tmp_path):
        from repro.experiments.chaos import write_artifact

        outcome = run_chaos_case("histogram'", "detector-cold-start", seed=0)
        path = tmp_path / "chaos.jsonl"
        write_artifact([outcome], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        cell = json.loads(lines[0])
        assert cell["converged"] is True
        assert any(event["name"] == "resil.replay"
                   for event in cell["recovery_events"])
